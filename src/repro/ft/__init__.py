"""Fault tolerance: detection, reconstruction, injection and recovery."""

from .checkpoint import (CheckpointStats, Disk, FileDisk,
                         checkpoint_interval_steps, optimal_checkpoint_count,
                         paper_eq2_checkpoint_count, restore_checkpoint,
                         write_checkpoint)
from .detection import failed_procs_list, make_error_handler
from .failure_injection import FailureGenerator, Kill
from .reconstruct import (MERGE_TAG, PLACE_FIRST_FIT, PLACE_SAME_HOST,
                          PLACE_SPARE, PlacementError, ReconstructTimers,
                          communicator_reconstruct, repair_comm,
                          select_rank_key)
from .recovery import (TECHNIQUES, AlternateCombination, CheckpointRestart,
                       RecoveryTechnique, ResamplingCopying,
                       technique_by_code)
from .strategy import (STRATEGIES, NonCollectiveStrategy, RecoveryStrategy,
                       RespawnStrategy, ShrinkInPlaceStrategy,
                       strategy_by_mode)

__all__ = [
    "failed_procs_list", "make_error_handler",
    "communicator_reconstruct", "repair_comm", "select_rank_key",
    "ReconstructTimers", "MERGE_TAG", "PlacementError",
    "PLACE_SAME_HOST", "PLACE_SPARE", "PLACE_FIRST_FIT",
    "FailureGenerator", "Kill",
    "Disk", "FileDisk", "CheckpointStats", "write_checkpoint",
    "restore_checkpoint",
    "optimal_checkpoint_count", "paper_eq2_checkpoint_count",
    "checkpoint_interval_steps",
    "RecoveryTechnique", "CheckpointRestart", "ResamplingCopying",
    "AlternateCombination", "TECHNIQUES", "technique_by_code",
    "RecoveryStrategy", "RespawnStrategy", "ShrinkInPlaceStrategy",
    "NonCollectiveStrategy", "STRATEGIES", "strategy_by_mode",
]
