"""Frozen-state typestate: mutation of shared cached objects (ULF011).

The hot-path caches hand every caller the *same* instance:
``cached_scheme``/``layout_for`` are ``lru_cache``-memoised, and a
``copy=False`` send hands its receiver views frozen with
``arr.flags.writeable = False`` (``freeze_payload``; see
docs/performance.md).  Mutating one of those objects corrupts every
other holder of the same instance — the static twin of the
disk-aliasing corruption the checkpoint layer guards against
dynamically.

This is a forward may-analysis in the style of the communicator
typestate (ULF007/ULF008): the state is the set of references that may
point at a shared/frozen object on some path.  References become
tracked when

* bound (incl. tuple-unpack) from a frozen-provider call
  (:data:`~.effects.FROZEN_PROVIDERS`),
* explicitly frozen via ``x.flags.writeable = False`` or
  ``x.setflags(write=False)`` (the freeze itself is exempt), or
* derived from a tracked reference by aliasing (``y = x``) or a
  subscript view (``y = x[...]`` — NumPy views share the buffer).

Rebinding a name to anything else — including ``x.copy()``,
``deepcopy(x)``, ``np.array(x)`` — forgets it: the owned-copy idiom is
exactly what the rule steers toward.  On a tracked reference the rule
flags subscript/attribute stores, augmented assignment, in-place
mutator methods (``.sort()``, ``.update()``, ``.fill()``, ...),
``setattr``, ``del R[...]``, and thawing (``writeable = True``).
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, List, Optional

from .cfg import CFG, build_cfg, walk_shallow
from .effects import FROZEN_PROVIDERS
from .engine import Analysis, solve
from .typestate import _ref_of

__all__ = ["check_frozen_state", "MUTATOR_METHODS"]

#: in-place mutators on lists/dicts/sets/ndarrays: calling one on a
#: shared cached object corrupts every other consumer
MUTATOR_METHODS = frozenset({
    "sort", "append", "extend", "insert", "remove", "pop", "clear",
    "update", "setdefault", "popitem", "reverse", "fill", "resize",
    "itemset", "put", "partition", "byteswap", "add", "discard",
    "difference_update", "intersection_update", "symmetric_difference_update",
})

#: state: refs that may point at a shared/frozen object
_State = FrozenSet[str]


def _chain(expr: ast.expr) -> Optional[List[str]]:
    """Dotted parts of an attribute/subscript chain rooted in a name:
    ``plan.ops[k].data`` -> ``["plan", "ops", "data"]``; None otherwise.
    Subscripts are transparent (a view of a tracked array is the same
    buffer)."""
    parts: List[str] = []
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Starred):
            node = node.value
        else:
            break
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def _tracked_prefix(expr: ast.expr, state: _State) -> Optional[str]:
    """The tracked reference this expression reaches into, if any."""
    parts = _chain(expr)
    if parts is None:
        return None
    for i in range(1, len(parts) + 1):
        ref = ".".join(parts[:i])
        if ref in state:
            return ref
    return None


def _provider_call(expr: Optional[ast.expr]) -> bool:
    if isinstance(expr, ast.Await):
        expr = expr.value
    if not isinstance(expr, ast.Call):
        return False
    f = expr.func
    name = f.attr if isinstance(f, ast.Attribute) else \
        f.id if isinstance(f, ast.Name) else None
    return name in FROZEN_PROVIDERS


def _freeze_target(target: ast.expr) -> Optional[ast.expr]:
    """For a ``<obj>.flags.writeable = ...`` store, the ``<obj>`` node."""
    if isinstance(target, ast.Attribute) and target.attr == "writeable" \
            and isinstance(target.value, ast.Attribute) \
            and target.value.attr == "flags":
        return target.value.value
    return None


def _assign_targets(target: ast.expr):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assign_targets(elt)
    else:
        yield target


class _FrozenState(Analysis):
    direction = "forward"

    def boundary(self, cfg: CFG) -> _State:
        return frozenset()

    def bottom(self) -> _State:
        return frozenset()

    def join(self, a: _State, b: _State) -> _State:
        return a | b

    # -- transfer --------------------------------------------------------
    def transfer_stmt(self, stmt: ast.stmt, state: _State,
                      emit: Optional[Callable] = None) -> _State:
        tracked = set(state)
        # mutator calls / setattr against the pre-statement state
        for node in walk_shallow(stmt):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in MUTATOR_METHODS:
                ref = _tracked_prefix(f.value, state)
                if ref is not None and emit:
                    emit("ULF011", node,
                         f"'.{f.attr}()' mutates '{ref}', which may be a "
                         "shared cached object (frozen provider result); "
                         "take an owned '.copy()' before mutating")
            elif isinstance(f, ast.Attribute) and f.attr == "setflags":
                ref = _ref_of(f.value)
                write = next((kw.value for kw in node.keywords
                              if kw.arg == "write"), None)
                if isinstance(write, ast.Constant) and write.value is False:
                    if ref is not None:
                        tracked.add(ref)
                elif ref is not None and ref in state and emit:
                    emit("ULF011", node,
                         f"'{ref}.setflags(write=True)' thaws a frozen "
                         "shared array; copy it instead of unfreezing "
                         "the cached buffer")
            elif isinstance(f, ast.Name) and f.id == "setattr" and node.args:
                ref = _tracked_prefix(node.args[0], state)
                if ref is not None and emit:
                    emit("ULF011", node,
                         f"setattr() on '{ref}', which may be a shared "
                         "cached object; mutate an owned copy instead")

        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = list(stmt.targets) if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            value = getattr(stmt, "value", None)
            for raw in targets:
                for target in _assign_targets(raw):
                    self._apply_store(stmt, target, value, state, tracked,
                                      emit)
        elif isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if isinstance(t, ast.Subscript):
                    ref = _tracked_prefix(t.value, state)
                    if ref is not None and emit:
                        emit("ULF011", t,
                             f"'del' of an element of '{ref}', which may "
                             "be a shared cached object; copy before "
                             "deleting")
                else:
                    ref = _ref_of(t)
                    if ref is not None:
                        tracked.discard(ref)
        return frozenset(tracked)

    def _apply_store(self, stmt: ast.stmt, target: ast.expr,
                     value: Optional[ast.expr], state: _State,
                     tracked: set, emit: Optional[Callable]) -> None:
        # freeze idiom: `arr.flags.writeable = False` marks arr frozen
        frozen_obj = _freeze_target(target)
        if frozen_obj is not None:
            ref = _ref_of(frozen_obj)
            if isinstance(value, ast.Constant) and value.value is False:
                if ref is not None:
                    tracked.add(ref)
            elif ref is not None and ref in state and emit:
                emit("ULF011", stmt,
                     f"'{ref}.flags.writeable = True' thaws a frozen "
                     "shared array; copy it instead of unfreezing the "
                     "cached buffer")
            return

        if isinstance(stmt, ast.AugAssign):
            ref = _tracked_prefix(target, state)
            if ref is not None and emit:
                emit("ULF011", stmt,
                     f"in-place augmented assignment mutates '{ref}', "
                     "which may be a shared cached object; use an owned "
                     "'.copy()'")
            return

        if isinstance(target, ast.Subscript):
            ref = _tracked_prefix(target.value, state)
            if ref is not None and emit:
                emit("ULF011", stmt,
                     f"subscript store into '{ref}', which may be a "
                     "shared cached object (frozen provider result); "
                     "writing through a view corrupts every other "
                     "consumer — take '.copy()' first")
            return

        if isinstance(target, ast.Attribute):
            ref = _tracked_prefix(target.value, state)
            if ref is not None and emit:
                emit("ULF011", stmt,
                     f"attribute store on '{ref}', which may be a shared "
                     "cached object; mutate an owned copy instead")
            return

        # plain name (re)binding: propagate or forget
        ref = _ref_of(target)
        if ref is None:
            return
        if _provider_call(value):
            tracked.add(ref)
        elif value is not None:
            src = _tracked_prefix(value, state) \
                if isinstance(value, (ast.Name, ast.Subscript,
                                      ast.Attribute)) else None
            if src is not None:
                tracked.add(ref)
            else:
                tracked.discard(ref)


def check_frozen_state(func: ast.AST, flag: Callable,
                       cfg: Optional[CFG] = None) -> None:
    """Run the frozen-state analysis over one function; ``flag(rule,
    node, message)`` receives each violation."""
    cfg = cfg or build_cfg(func)
    analysis = _FrozenState()
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
