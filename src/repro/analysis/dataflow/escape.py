"""Escape analysis for the owned-copy contract (ULF013).

``RunCache.get`` hands out owned copies precisely so callers can do
anything with a hit; the object caches (``cached_scheme`` /
``layout_for``) do the opposite — they hand out *the* shared instance
and rely on callers treating it as immutable and transient.  That contract breaks quietly
when a shared reference **escapes** into long-lived mutable state: once
stored in ``self.something`` or a module-level container, the shared
object outlives the call and any later mutation (or cache eviction
assumption) corrupts unrelated runs.

Forward may-taint over the CFG, two levels per reference:

``shared``
    bound straight from a frozen provider or a module-local function
    whose :class:`~.effects.EffectsStore` summary says ``shared_return``
    (aliases propagate).
``view``
    derived from a shared reference by subscripting (``w = wx[0]`` — a
    NumPy view of the frozen buffer, not an owned array).

Sinks (flagged at the statement):

* storing a shared/view reference — or a provider call's result
  directly — into a long-lived container: an attribute/subscript of
  ``self``, a ``global``-declared name, or a module-level name
  (``self.layout = layout_for(...)``, ``_SEEN[k] = scheme``,
  ``self.rows.append(scheme)``);
* **returning a view** (``return shared[0]``) — the caller receives an
  unowned window into the cache's buffer.

Returning the *whole* shared object is deliberately allowed: a function
that does ``return cached_scheme(...)`` is itself a provider
(``shared_return`` in its summary) and its callers are analysed with
that knowledge — ``repro.ft.recovery`` is full of legitimate
pass-throughs.  ``.copy()`` / ``deepcopy`` / ``np.array`` rebinds clear
the taint: the owned-copy idiom is the fix the rule suggests.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, List, Optional, Set

from .cfg import CFG, build_cfg, walk_shallow
from .ckptsync import FuncInfo, _call_name, collect_functions
from .effects import FROZEN_PROVIDERS, EffectsStore
from .engine import Analysis, solve
from .typestate import _ref_of

__all__ = ["check_escape"]

_SHARED = "shared"
_VIEW = "view"

#: container methods that store their argument for later
_STORE_METHODS = frozenset({"append", "add", "insert", "extend",
                            "update", "setdefault", "push"})

#: state: ref -> taint levels it may carry
_State = Dict[str, FrozenSet[str]]


def _root_name(expr: ast.expr) -> Optional[str]:
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_level_names(tree: ast.Module) -> FrozenSet[str]:
    """Names bound by top-level assignments — module-lifetime storage."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for t in targets:
                elts = t.elts if isinstance(t, (ast.Tuple, ast.List)) \
                    else [t]
                for e in elts:
                    if isinstance(e, ast.Name):
                        names.add(e.id)
    return frozenset(names)


class _SharedTaint(Analysis):
    direction = "forward"

    def __init__(self, info: FuncInfo, store: EffectsStore,
                 long_lived: FrozenSet[str]):
        self.info = info
        self.store = store
        self.long_lived = long_lived  # global-decl + module-level names

    # -- lattice ---------------------------------------------------------
    def boundary(self, cfg: CFG) -> _State:
        return {}

    def bottom(self) -> _State:
        return {}

    def join(self, a: _State, b: _State) -> _State:
        if not a:
            return b
        if not b:
            return a
        out = dict(a)
        for ref, levels in b.items():
            out[ref] = out.get(ref, frozenset()) | levels
        return out

    # -- taint of an expression -----------------------------------------
    def _taint_of(self, expr: Optional[ast.expr],
                  state: _State) -> FrozenSet[str]:
        if expr is None:
            return frozenset()
        if isinstance(expr, ast.Await):
            expr = expr.value
        if isinstance(expr, ast.Name):
            return state.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            ref = _ref_of(expr)
            return state.get(ref, frozenset()) if ref else frozenset()
        if isinstance(expr, ast.Subscript):
            base = self._taint_of(expr.value, state)
            return frozenset({_VIEW}) if base else frozenset()
        if isinstance(expr, ast.Call):
            if self._is_shared_call(expr):
                return frozenset({_SHARED})
        return frozenset()

    def _is_shared_call(self, call: ast.Call) -> bool:
        name = _call_name(call)
        if name in FROZEN_PROVIDERS:
            return True
        target = self.store.resolver.resolve(call, self.info)
        return target is not None and \
            self.store.summary(target).has("shared_return")

    def _is_long_lived(self, expr: ast.expr) -> bool:
        root = _root_name(expr)
        if root is None:
            return False
        if root == "self" or root == "cls":
            return True
        return root in self.long_lived

    # -- transfer --------------------------------------------------------
    def transfer_stmt(self, stmt: ast.stmt, state: _State,
                      emit: Optional[Callable] = None) -> _State:
        state = dict(state)
        # container .append(shared) etc. on long-lived receivers
        for node in walk_shallow(stmt):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _STORE_METHODS):
                continue
            if not self._is_long_lived(node.func.value):
                continue
            for arg in node.args:
                taint = self._taint_of(arg, state)
                if taint and emit:
                    recv = _ref_of(node.func.value) or "container"
                    what = "a view of" if _VIEW in taint and \
                        _SHARED not in taint else ""
                    emit("ULF013", node,
                         f"'.{node.func.attr}()' stores {what + ' ' if what else ''}"
                         f"a shared cached object into long-lived "
                         f"'{recv}': the cache's instance now outlives "
                         "the call — store an owned '.copy()' instead")

        if isinstance(stmt, ast.Return) and stmt.value is not None:
            value = stmt.value
            if isinstance(value, ast.Await):
                value = value.value
            taint = self._taint_of(value, state)
            # returning the whole shared object = being a provider (ok);
            # returning a *view* leaks an unowned window into the buffer
            if _VIEW in taint and not (isinstance(value, ast.Name)
                                       and _SHARED in taint) and emit:
                emit("ULF013", stmt,
                     "returns a view of a shared cached array without "
                     "'.copy()': the caller receives an unowned window "
                     "into the cache's buffer")
            return state

        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            value = stmt.value
            vtaint = self._taint_of(value, state)
            for raw in targets:
                elts = raw.elts if isinstance(raw, (ast.Tuple, ast.List)) \
                    else [raw]
                for target in elts:
                    self._apply_store(stmt, target, value, vtaint, state,
                                      emit)
        return state

    def _apply_store(self, stmt: ast.stmt, target: ast.expr,
                     value: Optional[ast.expr], vtaint: FrozenSet[str],
                     state: _State, emit: Optional[Callable]) -> None:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            if vtaint and self._is_long_lived(target):
                where = _ref_of(target) or \
                    f"{_root_name(target)}[...]"
                if emit:
                    emit("ULF013", stmt,
                         f"stores a shared cached object into long-lived "
                         f"'{where}': the cache's instance now outlives "
                         "the call — store an owned '.copy()' instead")
            return
        if isinstance(target, ast.Name):
            if vtaint:
                state[target.id] = vtaint
            else:
                state.pop(target.id, None)


def check_escape(tree: ast.Module, flag: Callable, store: EffectsStore,
                 funcs: Optional[List[FuncInfo]] = None,
                 cfgs: Optional[Dict[str, CFG]] = None) -> None:
    """Run the escape analysis over a whole module; ``flag(rule, node,
    message)`` receives each violation."""
    funcs = funcs if funcs is not None else collect_functions(tree)
    cfgs = cfgs or {}
    mod_names = module_level_names(tree)
    for fi in funcs:
        cfg = cfgs.get(fi.qualname) or build_cfg(fi.node, fi.qualname)
        declared: Set[str] = set()
        for stmt in fi.node.body:
            for node in walk_shallow(stmt):
                if isinstance(node, ast.Global):
                    declared.update(node.names)
        analysis = _SharedTaint(fi, store,
                                frozenset(declared) | mod_names)
        in_states, _ = solve(cfg, analysis)
        seen = set()

        def emit(rule, node, message):
            key = (rule, getattr(node, "lineno", 0),
                   getattr(node, "col_offset", 0))
            if key not in seen:
                seen.add(key)
                flag(rule, node, message)

        for bid, block in cfg.blocks.items():
            analysis.transfer_block(block, in_states[bid], emit)
