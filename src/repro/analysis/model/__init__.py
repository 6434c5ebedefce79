"""Protocol-skeleton extraction and explicit-state model checking.

The third analysis layer (see docs/analysis.md "Three analysis
layers"): per-rank communication skeletons are extracted from annotated
entry points, or from the shipped ``CombinationApp.run`` with its
strategy, technique and repair code inlined, into a small protocol IR
(:mod:`.ir`, :mod:`.extract`), and an explicit-state checker
(:mod:`.checker`) explores the cross-rank product state space under
protocol-level failure injection, proving deadlock-freedom or reporting
a per-rank counterexample timeline.  Rules ULF016-ULF020 (:mod:`.rules`)
surface the findings through the ordinary lint/SARIF pipeline;
:mod:`.modes` describes the world (and the abstraction table) in which
``python -m repro verify-protocol`` certifies the CR/RC/AC respawn
configurations and the SHRINK and NC repair modes.
"""

from .checker import (CheckResult, ModelError, ModelViolation,
                      ProtocolModel, check_model)
from .extract import (ExtractError, build_module_env, extract_app,
                      extract_function, find_protocol_models,
                      reconstruct_registry)
from .ir import Asm, Op, Skeleton
from .rules import (MODEL_RULES, ModeReport, SourceModel,
                    check_protocol_models, iter_source_models, verify_modes)

__all__ = [
    "Asm", "CheckResult", "ExtractError", "MODEL_RULES", "ModeReport",
    "ModelError", "ModelViolation", "Op", "ProtocolModel", "Skeleton",
    "SourceModel", "build_module_env", "check_model", "extract_app",
    "check_protocol_models", "extract_function", "find_protocol_models",
    "iter_source_models", "reconstruct_registry", "verify_modes",
]
