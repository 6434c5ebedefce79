"""Static and trace-based analysis for the fault-tolerance simulator.

Three analyzers (see ``docs/analysis.md``):

* :mod:`repro.analysis.linter` — AST + dataflow lint enforcing
  ULFM/simulation and cache-safety idioms (rules ULF001-ULF015),
  exposed as ``python -m repro lint`` (``--format sarif`` emits SARIF
  2.1.0 via :mod:`repro.analysis.sarif`); the flow-sensitive rules are
  built on the CFG/fixpoint engine in :mod:`repro.analysis.dataflow`,
  entry points are declared by ``# repro: cacheable`` and
  ``# repro: protocol`` comments;
* :mod:`repro.analysis.protocol` — replay of a recorded trace against the
  paper's revoke/shrink/spawn/merge/split recovery state machine,
  exposed as ``python -m repro analyze-trace``;
* :mod:`repro.analysis.races` — vector-clock happens-before checking for
  ANY_SOURCE/ANY_TAG message races, plus the wait-for-graph explainer
  the engine uses to annotate :class:`~repro.simkernel.errors.DeadlockError`.

:mod:`repro.analysis.runtime` audits a finished universe for leaked MPI
resources; :mod:`repro.analysis.pytest_plugin` wires the leak and race
checks into the mpi-layer test suite.
"""

from ..mpi.tracing import TruncatedTraceError
from .dataflow import CFG, build_cfg, solve
from .linter import (LintViolation, RULES, SEVERITY, default_lint_paths,
                     format_report, lint_file, lint_paths)
from .sarif import to_sarif, validate_sarif
from .protocol import (ProtocolViolation, RecoveryEpisode, check_protocol,
                       format_violations, recovery_episodes)
from .races import (MessageRace, build_wait_for_graph, find_message_races,
                    format_races, format_wait_for_graph)
from .runtime import LeakReport, check_runtime_leaks

__all__ = [
    "TruncatedTraceError",
    "CFG", "build_cfg", "solve",
    "LintViolation", "RULES", "SEVERITY", "default_lint_paths",
    "format_report", "lint_file", "lint_paths",
    "to_sarif", "validate_sarif",
    "ProtocolViolation", "RecoveryEpisode", "check_protocol",
    "format_violations", "recovery_episodes",
    "MessageRace", "build_wait_for_graph", "find_message_races",
    "format_races", "format_wait_for_graph",
    "LeakReport", "check_runtime_leaks",
]
