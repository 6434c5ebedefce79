"""Order-nondeterminism feeding aggregation (ULF014).

The sweep engine promises bit-identical results between serial and
pooled execution (``docs/performance.md``): a task's floats must not
depend on iteration order.  Python ``set`` iteration order depends on
insertion history and hash seeding, and ``id()`` values differ between
processes — both are invisible in a single-process test run and only
diverge once the pool (or a rerun) reorders things.

Three patterns are flagged, with a flow-sensitive set-typed taint over
the CFG so that the standard fix — ``sorted(...)`` — genuinely clears
the finding:

* a ``for`` loop over a set-typed expression whose body *accumulates*
  (augmented assignment, ``.append``/``.extend``/``.insert``): float
  addition is not associative, list order escapes into results.
  Order-independent bodies (pure ``dict[k] = v`` stores, ``.add`` into
  another set, deletes) are not flagged;
* ``sum(...)`` / ``math.fsum(...)`` over a set-typed argument;
* ``id()``-derived dictionary keys (``d[id(x)] = ...``, ``{id(x): v}``)
  — the key set changes between processes, so any keyed aggregation or
  serialisation diverges.  Membership dedup via ``seen.add(id(x))``
  is order-free and stays legal.

A name becomes set-typed when bound from a set literal/comprehension,
``set(...)``/``frozenset(...)``, or a union/intersection/difference of
set-typed operands; rebinding through ``sorted``/``list``/``tuple``
clears it.  ``dict`` iteration is insertion-ordered and deterministic
on every supported Python, so it is deliberately not flagged.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, Optional

from .cfg import CFG, build_cfg, walk_shallow
from .engine import Analysis, report

__all__ = ["check_nondeterminism"]

#: loop-body operations that make iteration order escape into results
_ACCUMULATORS = frozenset({"append", "extend", "insert"})

_State = FrozenSet[str]  # set-typed names


def _pos(node: ast.AST):
    """Stable identity of an expression: its source position.  The CFG's
    lowered loop-head binding reuses the For's iter node verbatim, so
    position equality recognises it (and, unlike ``id()``, survives the
    rule's own ULF014 check)."""
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
            getattr(node, "end_lineno", 0),
            getattr(node, "end_col_offset", 0))


def _is_setty(expr: ast.expr, state: _State) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Name):
        return expr.id in state
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id in ("set", "frozenset"):
        return True
    if isinstance(expr, ast.BinOp) and \
            isinstance(expr.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                 ast.BitXor)):
        return _is_setty(expr.left, state) or _is_setty(expr.right, state)
    return False


def _accumulates(loop: ast.stmt) -> bool:
    """Does the loop body make order-dependent progress?"""
    for stmt in loop.body:
        for node in walk_shallow(stmt):
            if isinstance(node, ast.AugAssign):
                return True
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _ACCUMULATORS:
                return True
    return False


def _id_key(expr: Optional[ast.expr]) -> bool:
    return isinstance(expr, ast.Call) and \
        isinstance(expr.func, ast.Name) and expr.func.id == "id"


def _pop_targets(target: ast.expr, names: set) -> None:
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _pop_targets(elt, names)
    elif isinstance(target, ast.Name):
        names.discard(target.id)


class _SetTaint(Analysis):
    direction = "forward"

    def __init__(self, iter_to_for: Dict[tuple, ast.stmt]):
        #: iter-expr position -> owning For node, to recognise the
        #: lowered ``target = iter`` binding in the loop-head block
        self.iter_to_for = iter_to_for

    def boundary(self, cfg: CFG) -> _State:
        return frozenset()

    def bottom(self) -> _State:
        return frozenset()

    def join(self, a: _State, b: _State) -> _State:
        return a | b

    def transfer_stmt(self, stmt: ast.stmt, state: _State,
                      emit: Optional[Callable] = None) -> _State:
        names = set(state)
        for node in walk_shallow(stmt):
            if isinstance(node, ast.Call):
                self._check_call(node, state, emit)
            elif isinstance(node, ast.Dict) and emit:
                for key in node.keys:
                    if _id_key(key):
                        emit("ULF014", key,
                             "id()-derived dict key: id() values differ "
                             "between processes, so keyed results "
                             "diverge between serial and pooled runs; "
                             "key on stable identity instead")
            elif isinstance(node, ast.DictComp) and emit and \
                    _id_key(node.key):
                emit("ULF014", node.key,
                     "id()-derived dict key: id() values differ between "
                     "processes, so keyed results diverge between "
                     "serial and pooled runs; key on stable identity "
                     "instead")

        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) and \
                        _id_key(target.slice) and emit:
                    emit("ULF014", stmt,
                         "id()-derived dict key: id() values differ "
                         "between processes, so keyed results diverge "
                         "between serial and pooled runs; key on stable "
                         "identity instead")
            loop = self.iter_to_for.get(_pos(stmt.value))
            if loop is not None:
                # the lowered `target = iter` binding of a for-loop head
                if _is_setty(stmt.value, state) and _accumulates(loop) \
                        and emit:
                    emit("ULF014", loop,
                         "iteration over an unordered set feeds an "
                         "accumulator: set order varies with insertion "
                         "history and hashing, so serial and pooled "
                         "runs produce different floats/orders; "
                         "iterate over sorted(...) instead")
                for target in stmt.targets:
                    _pop_targets(target, names)  # element, not a set
            else:
                setty = _is_setty(stmt.value, state)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if setty:
                            names.add(target.id)
                        else:
                            names.discard(target.id)
                    else:
                        _pop_targets(target, names)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            if _is_setty(stmt.value, state):
                names.add(stmt.target.id)
            else:
                names.discard(stmt.target.id)
        return frozenset(names)

    def _check_call(self, node: ast.Call, state: _State,
                    emit: Optional[Callable]) -> None:
        f = node.func
        is_sum = isinstance(f, ast.Name) and f.id == "sum"
        is_fsum = isinstance(f, ast.Attribute) and f.attr == "fsum"
        if not (is_sum or is_fsum) or not node.args:
            return
        if _is_setty(node.args[0], state) and emit:
            what = "math.fsum" if is_fsum else "sum"
            emit("ULF014", node,
                 f"{what}() over an unordered set: float accumulation "
                 "order varies between runs and processes, breaking the "
                 "bit-identical serial/pool guarantee; sum over "
                 "sorted(...) instead")


def check_nondeterminism(func: ast.AST, flag: Callable,
                         cfg: Optional[CFG] = None) -> None:
    """Run the nondeterminism analysis over one function; ``flag(rule,
    node, message)`` receives each violation."""
    cfg = cfg or build_cfg(func)
    iter_to_for: Dict[tuple, ast.stmt] = {}
    for stmt in func.body:
        for node in walk_shallow(stmt):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_to_for[_pos(node.iter)] = node
    report(cfg, _SetTaint(iter_to_for), flag)
