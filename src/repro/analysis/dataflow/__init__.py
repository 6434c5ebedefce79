"""Dataflow engine behind ULF002 and the flow-sensitive ULF rules
(ULF005-ULF015).

Layout:

* :mod:`~repro.analysis.dataflow.cfg` — CFG builder for Python functions
  (branches, loops, try/except/finally, with, match, async constructs);
* :mod:`~repro.analysis.dataflow.engine` — direction-agnostic worklist
  fixpoint solver over small lattice/transfer strategy objects, and the
  one reporting driver (:func:`~.engine.report`);
* :mod:`~repro.analysis.dataflow.typestate` — communicator
  VALID/REVOKED/FREED typestate (ULF007/ULF008);
* :mod:`~repro.analysis.dataflow.collmatch` — rank-taint + backward
  collective matching (ULF006) and tag constancy (ULF009);
* :mod:`~repro.analysis.dataflow.ckptsync` — interprocedural checkpoint
  synchronisation (ULF005/ULF010);
* :mod:`~repro.analysis.dataflow.effects` — the call classifier (which
  reports ULF002) and the interprocedural effects summary store shared
  by the cache-safety rules;
* :mod:`~repro.analysis.dataflow.sharedref` — shared-reference taint:
  mutation (ULF011) and escape (ULF013) of shared cached objects;
* :mod:`~repro.analysis.dataflow.purity` — purity of declared-cacheable
  call graphs (ULF012);
* :mod:`~repro.analysis.dataflow.nondet` — unordered-iteration
  nondeterminism (ULF014);
* :mod:`~repro.analysis.dataflow.pickling` — pool-transport pickling
  safety (ULF015);
* :mod:`~repro.analysis.dataflow.driver` — per-module orchestration,
  called by :func:`repro.analysis.linter.lint_file`.

See ``docs/analysis.md`` ("How the dataflow engine works") for the
design rationale and the rule catalog.
"""

from .cfg import CFG, Block, build_cfg, walk_shallow
from .driver import analyze_module, module_constants
from .effects import EffectsStore
from .engine import Analysis, solve

__all__ = ["CFG", "Block", "build_cfg", "walk_shallow",
           "Analysis", "solve", "EffectsStore",
           "analyze_module", "module_constants"]
