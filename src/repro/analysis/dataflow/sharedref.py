"""Shared-reference taint: mutation (ULF011) and escape (ULF013) of
shared cached objects.

The hot-path caches hand every caller the *same* instance:
``cached_scheme``/``layout_for`` are ``lru_cache``-memoised, and a
``copy=False`` send hands its receiver views frozen with
``arr.flags.writeable = False`` (``freeze_payload``; see
docs/performance.md).  Two things break that sharing.  **Mutating** the
instance corrupts every other holder (ULF011) — the static twin of the
disk-aliasing corruption the checkpoint layer guards against
dynamically.  Letting it **escape** into long-lived state couples that
state to the cache, so a later mutation or eviction assumption corrupts
unrelated runs (ULF013); ``RunCache.get`` hands out owned copies for
exactly this reason.

One forward may-analysis over the CFG decides both.  Each reference (a
name, or a dotted chain rooted in one) maps to the levels it may carry:

``shared``
    bound from a shared-instance producer — a frozen-provider call or a
    module-local function whose :class:`~.effects.EffectsStore` summary
    says ``shared_return``, one predicate
    (:func:`~.effects._shared_value`) — or from an alias or an attribute
    of a shared reference;
``view``
    a subscript of a shared reference (``w = wx[0]``: a NumPy view of
    the cached buffer, not an owned array);
``frozen``
    explicitly frozen with ``x.flags.writeable = False`` or
    ``x.setflags(write=False)``; guarded against mutation (ULF011) only.

Rebinding a name to anything else — ``x.copy()``, ``deepcopy(x)``,
``np.array(x)``, any other call — forgets it: the owned copy is the fix
both rules suggest.

ULF011 flags, on any tracked reference: subscript and attribute stores,
augmented assignment, in-place mutator methods (``.sort()``,
``.update()``, ``.fill()``, ...), ``setattr``, ``del R[...]``, and
thawing (``writeable = True``); the freeze itself is exempt.

ULF013 flags storing a shared reference or a view (or a producer call's
result directly) into long-lived state: an attribute or subscript of
``self``/``cls``, a ``global``-declared name, or a module-level name
(``self.layout = layout_for(...)``, ``_SEEN[k] = scheme``,
``self.rows.append(scheme)``).  It also flags **returning a view**: the
caller would receive an unowned window into the cache's buffer.
Returning the whole shared object is allowed, because such a function is
itself a provider (``shared_return``) and its callers are analysed with
that knowledge.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .cfg import CFG, build_cfg, walk_shallow
from .ckptsync import FuncInfo, _call_name
from .effects import EffectsStore, _assigned_names, _shared_value
from .engine import MayMap, report
from .typestate import _ref_of

__all__ = ["check_shared_refs", "MUTATOR_METHODS"]

#: in-place mutators on lists/dicts/sets/ndarrays: calling one on a
#: shared cached object corrupts every other consumer
MUTATOR_METHODS = frozenset({
    "sort", "append", "extend", "insert", "remove", "pop", "clear",
    "update", "setdefault", "popitem", "reverse", "fill", "resize",
    "itemset", "put", "partition", "byteswap", "add", "discard",
    "difference_update", "intersection_update", "symmetric_difference_update",
})
#: container methods that store their argument for later
_STORE_METHODS = frozenset({"append", "add", "insert", "extend",
                            "update", "setdefault", "push"})

_SHARED = "shared"
_VIEW = "view"
_FROZEN = "frozen"
#: the levels that may not escape (an explicit freeze is ULF011's alone)
_ESCAPING = frozenset({_SHARED, _VIEW})

#: state: ref -> levels it may carry
_State = Dict[str, FrozenSet[str]]


def _prefixes(expr: ast.expr) -> List[ast.expr]:
    """``expr`` and each attribute/subscript/starred base under it, the
    root last: ``a.b[i].c`` -> ``[a.b[i].c, a.b[i], a.b, a]``."""
    chain = [expr]
    while isinstance(chain[-1], (ast.Attribute, ast.Subscript, ast.Starred)):
        chain.append(chain[-1].value)
    return chain


def _flatten(target: ast.expr):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten(elt)
    else:
        yield target


class _SharedRefs(MayMap):
    def __init__(self, info: FuncInfo, store: EffectsStore,
                 long_lived: FrozenSet[str]):
        self.info = info
        self.store = store
        self.long_lived = long_lived  # self/cls, global-decl, module names

    def _taint(self, expr: ast.expr,
               state: _State) -> Tuple[Optional[str], FrozenSet[str]]:
        """The tracked reference (or producer call) ``expr`` reaches into,
        and the levels ``expr`` carries: an attribute of a shared
        reference is shared, a subscript of one is a view."""
        if isinstance(expr, ast.Await):
            expr = expr.value
        chain = _prefixes(expr)
        for i in range(len(chain) - 1, -1, -1):
            where = _ref_of(chain[i])
            if where in state:
                levels = state[where]
                break
        else:
            i = len(chain) - 1
            if not _shared_value(chain[i], self.store, self.info):
                return None, frozenset()
            where, levels = f"{_call_name(chain[i])}()", frozenset({_SHARED})
        if _SHARED in levels and \
                any(isinstance(n, ast.Subscript) for n in chain[:i]):
            levels = levels - {_SHARED} | {_VIEW}
        return where, levels

    def _is_long_lived(self, expr: ast.expr) -> bool:
        root = _prefixes(expr)[-1]
        return isinstance(root, ast.Name) and root.id in self.long_lived

    # -- transfer --------------------------------------------------------
    def transfer_stmt(self, stmt: ast.stmt, state: _State,
                      emit: Optional[Callable] = None) -> _State:
        out = dict(state)
        for node in walk_shallow(stmt):
            if isinstance(node, ast.Call):
                self._call(node, state, out, emit)
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            value = stmt.value
            if isinstance(value, ast.Await):
                value = value.value
            levels = self._taint(value, state)[1]
            # returning the whole shared object = being a provider (ok);
            # returning a *view* leaks an unowned window into the buffer
            if _VIEW in levels and emit and \
                    not (isinstance(value, ast.Name) and _SHARED in levels):
                emit("ULF013", stmt,
                     "returns a view of a shared cached array without "
                     "'.copy()': the caller receives an unowned window "
                     "into the cache's buffer")
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
                and stmt.value is not None:
            levels = self._taint(stmt.value, state)[1]
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for raw in targets:
                for target in _flatten(raw):
                    self._store(stmt, target, levels, state, out, emit)
        elif isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if not isinstance(t, ast.Subscript):
                    out.pop(_ref_of(t), None)
                    continue
                where, tracked = self._taint(t.value, state)
                if tracked and emit:
                    emit("ULF011", t,
                         f"'del' of an element of '{where}', which may be "
                         "a shared cached object; copy before deleting")
        return out

    def _freeze(self, obj: ast.expr, frozen: bool, how: str, node: ast.AST,
                state: _State, out: _State, emit: Optional[Callable]) -> None:
        """``obj.flags.writeable = False`` / ``obj.setflags(write=False)``
        makes ``obj`` frozen; any other form on a tracked one thaws it."""
        ref = _ref_of(obj)
        if frozen:
            if ref is not None:
                out[ref] = out.get(ref, frozenset()) | {_FROZEN}
            return
        where, tracked = self._taint(obj, state)
        if tracked and emit:
            emit("ULF011", node,
                 f"'{ref or where}{how}' thaws a frozen shared array; copy "
                 "it instead of unfreezing the cached buffer")

    def _call(self, node: ast.Call, state: _State, out: _State,
              emit: Optional[Callable]) -> None:
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "setflags":
            write = next((kw.value for kw in node.keywords
                          if kw.arg == "write"), None)
            self._freeze(f.value, isinstance(write, ast.Constant)
                         and write.value is False, ".setflags(write=True)",
                         node, state, out, emit)
            return
        if not emit:
            return
        if isinstance(f, ast.Name) and f.id == "setattr" and node.args:
            where, tracked = self._taint(node.args[0], state)
            if tracked:
                emit("ULF011", node,
                     f"setattr() on '{where}', which may be a shared "
                     "cached object; mutate an owned copy instead")
        if not isinstance(f, ast.Attribute):
            return
        if f.attr in MUTATOR_METHODS:
            where, tracked = self._taint(f.value, state)
            if tracked:
                emit("ULF011", node,
                     f"'.{f.attr}()' mutates '{where}', which may be a "
                     "shared cached object (frozen provider result); "
                     "take an owned '.copy()' before mutating")
        if f.attr in _STORE_METHODS and self._is_long_lived(f.value):
            for arg in node.args:
                levels = self._taint(arg, state)[1] & _ESCAPING
                if levels:
                    what = "a view of " if levels == {_VIEW} else ""
                    emit("ULF013", node,
                         f"'.{f.attr}()' stores {what}a shared cached "
                         "object into long-lived "
                         f"'{_ref_of(f.value) or 'container'}': the "
                         "cache's instance now outlives the call — store "
                         "an owned '.copy()' instead")

    def _store(self, stmt: ast.stmt, target: ast.expr,
               levels: FrozenSet[str], state: _State, out: _State,
               emit: Optional[Callable]) -> None:
        if isinstance(target, ast.Attribute) and target.attr == "writeable" \
                and isinstance(target.value, ast.Attribute) \
                and target.value.attr == "flags":
            value = stmt.value
            self._freeze(target.value.value, isinstance(value, ast.Constant)
                         and value.value is False, ".flags.writeable = True",
                         stmt, state, out, emit)
            return
        if isinstance(target, ast.Name) and \
                not isinstance(stmt, ast.AugAssign):
            if levels:
                out[target.id] = levels
            else:
                out.pop(target.id, None)
            return
        if not emit:
            return
        if isinstance(stmt, ast.AugAssign):
            where, tracked = self._taint(target, state)
            if tracked:
                emit("ULF011", stmt,
                     f"in-place augmented assignment mutates '{where}', "
                     "which may be a shared cached object; use an owned "
                     "'.copy()'")
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        where, tracked = self._taint(target.value, state)
        if tracked and isinstance(target, ast.Subscript):
            emit("ULF011", stmt,
                 f"subscript store into '{where}', which may be a shared "
                 "cached object (frozen provider result); writing "
                 "through a view corrupts every other consumer — take "
                 "'.copy()' first")
        elif tracked:
            emit("ULF011", stmt,
                 f"attribute store on '{where}', which may be a shared "
                 "cached object; mutate an owned copy instead")
        if levels & _ESCAPING and self._is_long_lived(target):
            sink = _ref_of(target) or f"{_prefixes(target)[-1].id}[...]"
            emit("ULF013", stmt,
                 f"stores a shared cached object into long-lived '{sink}': "
                 "the cache's instance now outlives the call — store an "
                 "owned '.copy()' instead")


def check_shared_refs(tree: ast.Module, flag: Callable, store: EffectsStore,
                      cfgs: Optional[Dict[str, CFG]] = None) -> None:
    """Run the shared-reference taint over every function of a module;
    ``flag(rule, node, message)`` receives each ULF011/ULF013
    violation."""
    cfgs = cfgs or {}
    module_names = {name for stmt in tree.body
                    for name in _assigned_names(stmt)}
    for fi in store.funcs:
        declared = {name for stmt in fi.node.body
                    for node in walk_shallow(stmt)
                    if isinstance(node, ast.Global) for name in node.names}
        long_lived = frozenset(module_names | declared | {"self", "cls"})
        report(cfgs.get(fi.qualname) or build_cfg(fi.node, fi.qualname),
               _SharedRefs(fi, store, long_lived), flag)
