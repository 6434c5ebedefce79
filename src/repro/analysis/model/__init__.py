"""Protocol-skeleton extraction and explicit-state model checking.

The third analysis layer (see docs/analysis.md "Three analysis
layers"): per-rank communication skeletons are extracted from annotated
entry points into a small protocol IR (:mod:`.ir`, :mod:`.extract`),
the shipped ``repro.ft`` repair code (the ``ft.reconstruct`` pipeline and
the ``ft.strategy`` shrink and nc repair loops) is inlined, and an
explicit-state checker (:mod:`.checker`) explores the cross-rank
product state space under protocol-level failure injection, proving
deadlock-freedom or reporting a per-rank counterexample timeline.
Rules ULF016-ULF020 (:mod:`.rules`) surface the findings through the
ordinary lint/SARIF pipeline; :mod:`.modes` holds the harnesses for
the CR/RC/AC respawn configurations and the SHRINK and NC repair modes
that ``python -m repro verify-protocol`` certifies.
"""

from .checker import (CheckResult, ModelError, ModelViolation,
                      ProtocolModel, check_model)
from .extract import (ExtractError, build_module_env, extract_function,
                      find_protocol_models, reconstruct_registry)
from .ir import Asm, Op, Skeleton
from .rules import (MODEL_RULES, ModeReport, SourceModel,
                    check_protocol_models, iter_source_models, verify_modes)

__all__ = [
    "Asm", "CheckResult", "ExtractError", "MODEL_RULES", "ModeReport",
    "ModelError", "ModelViolation", "Op", "ProtocolModel", "Skeleton",
    "SourceModel", "build_module_env", "check_model",
    "check_protocol_models", "extract_function", "find_protocol_models",
    "iter_source_models", "reconstruct_registry", "verify_modes",
]
