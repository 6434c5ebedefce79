"""Module-level orchestration of the dataflow rules.

:func:`analyze_module` is the linter's entry into this package: given a
parsed module it builds one CFG per function (shared across analyses),
harvests module-level constants (so ``tag=MERGE_TAG`` resolves),
and runs

* per function: the communicator typestate (ULF007/ULF008), collective
  matching and tag constancy (ULF006/ULF009), set/iteration-order taint
  (ULF014) and pool-pickling (ULF015) passes;
* over the whole module: the interprocedural checkpoint-synchronisation
  pass (ULF005/ULF010); the effects store, whose call classifier also
  reports ULF002 and which the purity (ULF012) and shared-reference
  (ULF011/ULF013) passes read;
* the protocol-model pass (ULF016-ULF020) for functions annotated
  ``# repro: protocol`` — extraction plus
  explicit-state model checking (:mod:`repro.analysis.model`),

returning plain :class:`~repro.analysis.linter.LintViolation` records so
the existing ``noqa``/report/CLI machinery applies unchanged.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from .cfg import CFG, build_cfg
from .ckptsync import check_checkpoint_sync, collect_functions
from .collmatch import check_collectives
from .effects import EffectsStore, check_clock_rng
from .nondet import check_nondeterminism
from .pickling import check_pool_pickling
from .purity import check_purity
from .sharedref import check_shared_refs
from .typestate import check_typestate

__all__ = ["analyze_module", "module_constants"]


def module_constants(tree: ast.Module) -> Dict[str, object]:
    """Top-level ``NAME = <int/str/bool literal>`` bindings (tag
    constants, model sizes).  Later rebindings win; non-literal
    rebindings invalidate the name."""
    consts: Dict[str, object] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            if isinstance(stmt.value, ast.Constant) and \
                    isinstance(stmt.value.value, (int, str)):
                consts[name] = stmt.value.value
            else:
                consts.pop(name, None)
    return consts


def analyze_module(tree: ast.Module, path: str,
                   source: Optional[str] = None) -> List:
    """All ULF002 and dataflow/model-rule violations for one parsed
    module.  ``source`` (when available) lets the purity pass see
    ``# repro: cacheable`` annotation comments."""
    from ..linter import LintViolation

    violations: List[LintViolation] = []

    def flag(rule: str, node: ast.AST, message: str) -> None:
        violations.append(LintViolation(
            rule, path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1, message))

    funcs = collect_functions(tree)
    cfgs: Dict[str, CFG] = {}
    consts = {name: v for name, v in module_constants(tree).items()
              if type(v) is int}
    for fi in funcs:
        cfg = build_cfg(fi.node, fi.qualname)
        cfgs[fi.qualname] = cfg
        check_typestate(fi.node, flag, cfg=cfg)
        check_collectives(fi.node, flag, module_consts=consts, cfg=cfg)
        check_nondeterminism(fi.node, flag, cfg=cfg)
        check_pool_pickling(fi, flag)
    check_checkpoint_sync(tree, flag, funcs=funcs, cfgs=cfgs)
    store = EffectsStore.build(tree, funcs)
    check_clock_rng(tree, flag, store.imports)
    check_purity(tree, flag, store=store, source=source)
    check_shared_refs(tree, flag, store, cfgs)
    if source is not None:
        # third layer: protocol-model checking of annotated entry points
        # (lazy import: the model package reuses the linter's records)
        from ..model.rules import check_protocol_models
        violations.extend(check_protocol_models(tree, path, source))
    return violations
