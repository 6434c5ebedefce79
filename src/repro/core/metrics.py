"""Structured results of one application run."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ft.reconstruct import ReconstructTimers


@dataclass
class RunMetrics:
    """Everything the experiment harnesses need from one run.

    All times are virtual seconds measured on world rank 0.
    """

    technique: str = ""
    recovery_mode: str = "respawn"
    machine: str = ""
    n: int = 0
    level: int = 0
    steps: int = 0
    dt: float = 0.0
    world_size: int = 0
    real_failures: bool = False
    n_failures: int = 0
    failed_ranks: List[int] = field(default_factory=list)
    lost_gids: List[int] = field(default_factory=list)

    # phase timings
    t_total: float = 0.0
    t_solve: float = 0.0
    t_detect: float = 0.0        #: failed-list creation (Fig. 8a)
    t_reconstruct: float = 0.0   #: communicator repair (Fig. 8b)
    t_recovery: float = 0.0      #: data recovery window (Fig. 9a)
    t_combine: float = 0.0

    # per-op ULFM timings (Table I)
    t_shrink: float = 0.0
    t_spawn: float = 0.0
    t_merge: float = 0.0
    t_agree: float = 0.0
    reconstruct_iterations: int = 0

    # checkpointing (CR)
    checkpoint_writes: int = 0
    checkpoint_write_time: float = 0.0
    checkpoint_read_time: float = 0.0
    recompute_steps: int = 0

    # observability: per-phase virtual seconds (critical path = max over
    # ranks per phase) and the same broken down per grid id, filled in by
    # :func:`repro.core.runner.run_app` from the universe's span recorder
    phase_breakdown: Dict[str, float] = field(default_factory=dict)
    phase_by_grid: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # accuracy
    error_l1: float = float("nan")
    error_l2: float = float("nan")
    error_linf: float = float("nan")

    # combination
    coefficients: Dict[Tuple[int, int], float] = field(default_factory=dict)
    combined: Optional[object] = None  # ndarray when cfg.collect_arrays

    def absorb_repair(self, t: ReconstructTimers,
                      spent: Dict[str, float]) -> None:
        """The failure record from ``t``; the Fig. 8 / Table I times from
        ``spent``, the reporting rank's span seconds per phase."""
        self.t_detect = spent.get("detect", 0.0)
        self.t_reconstruct = spent.get("reconstruct", 0.0)
        self.t_shrink = spent.get("shrink", 0.0)
        self.t_spawn = spent.get("spawn", 0.0)
        self.t_merge = spent.get("merge", 0.0)
        self.t_agree = spent.get("agree", 0.0)
        self.reconstruct_iterations = t.iterations
        self.failed_ranks = list(t.failed_ranks)
        self.n_failures = len(t.failed_ranks)

    @property
    def t_app_excl_reconstruct(self) -> float:
        """Application time excluding communicator reconstruction — the
        paper's ``T_app`` in the Fig. 9b normalisation."""
        return self.t_total - self.t_reconstruct

    def to_dict(self) -> dict:
        d = asdict(self)
        d.pop("combined", None)
        d["coefficients"] = {str(k): v for k, v in self.coefficients.items()}
        return d
