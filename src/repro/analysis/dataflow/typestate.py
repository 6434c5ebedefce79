"""Communicator typestate: use-after-revoke and double-free (ULF007/ULF008).

A communicator moves through a small protocol automaton::

    VALID --revoke()--> REVOKED --shrink()--> (new VALID comm)
      \\--free()-------> FREED

ULFM's contract (paper Fig. 5, MPI standard §17) is that a revoked
communicator supports *only* the fault-tolerant trio ``agree`` /
``shrink`` / ``revoke`` (plus local queries); everything else raises
``MPI_ERR_REVOKED`` at runtime — on every healthy rank, long after the
root cause.  A freed communicator supports nothing.  This module finds
both statically with a forward may-analysis: each tracked reference
(a local name or a ``self.x`` attribute chain) maps to the set of bad
states it *may* be in on some path; an MPI operation on a reference
whose may-set contains ``revoked`` (ULF007) or ``freed`` (ULF008) is
flagged at the call site.

Assigning to a name forgets its state (the reference now points at a
different communicator — e.g. ``comm = await comm.shrink()``); aliasing
``a = b`` copies ``b``'s state.  The analysis is intraprocedural: states
do not flow through calls, so passing a revoked communicator to a helper
is not flagged (the trace-replay protocol checker covers that
dynamically).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, Optional

from ...mpi.collectives import RvKind, ops_with
from .cfg import CFG, build_cfg, walk_shallow
from .engine import MayMap, report

__all__ = ["check_typestate", "RAISE_ON_REVOKE", "LEGAL_ON_REVOKE"]

#: operations that raise on a revoked communicator
RAISE_ON_REVOKE = ops_with(RvKind.NORMAL, RvKind.P2P)
#: fault-tolerant / local operations, legal on a revoked communicator
LEGAL_ON_REVOKE = ops_with(RvKind.SURVIVOR, RvKind.LOCAL)

_REVOKED = "revoked"
_FREED = "freed"

#: state: mapping ref -> frozenset of bad states it may be in
_State = Dict[str, FrozenSet[str]]


def _ref_of(expr: ast.expr) -> Optional[str]:
    """Trackable reference string: a bare name (``comm``) or a dotted
    chain rooted in a name (``self.grid_comm``); None otherwise."""
    parts = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _Typestate(MayMap):
    # -- transfer --------------------------------------------------------
    def transfer_stmt(self, stmt: ast.stmt, state: _State,
                      emit: Optional[Callable] = None) -> _State:
        state = dict(state)
        for node in walk_shallow(stmt):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                self._apply_call(node, state, emit)
        # assignments last: `comm = await comm.shrink()` checks the call
        # against the old state, then rebinds the target
        for target, value in _assignments(stmt):
            ref = _ref_of(target)
            if ref is None:
                continue
            src = _ref_of(value) if value is not None else None
            if src is not None and src in state:
                state[ref] = state[src]
            else:
                state.pop(ref, None)
        if isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                ref = _ref_of(t)
                if ref is not None:
                    state.pop(ref, None)
        return state

    def _apply_call(self, call: ast.Call, state: _State,
                    emit: Optional[Callable]) -> None:
        op = call.func.attr
        ref = _ref_of(call.func.value)
        if ref is None:
            return
        states = state.get(ref, frozenset())
        if op == "revoke":
            if _FREED in states and emit:
                emit("ULF008", call,
                     f"'{ref}.revoke()' but '{ref}' may already be freed")
            state[ref] = states | {_REVOKED}
        elif op == "free":
            if _FREED in states and emit:
                emit("ULF008", call,
                     f"double free: '{ref}.free()' but '{ref}' may "
                     "already be freed on some path")
            state[ref] = frozenset({_FREED})
        elif op in RAISE_ON_REVOKE:
            if _FREED in states and emit:
                emit("ULF008", call,
                     f"use after free: '{ref}.{op}()' but '{ref}' may "
                     "already be freed on some path")
            elif _REVOKED in states and emit:
                emit("ULF007", call,
                     f"'{ref}.{op}()' on a revoked communicator raises "
                     "MPI_ERR_REVOKED: after '{0}.revoke()' only agree/"
                     "shrink are legal; operate on the shrunk "
                     "communicator instead".format(ref))
        elif op in LEGAL_ON_REVOKE:
            if _FREED in states and emit:
                emit("ULF008", call,
                     f"use after free: '{ref}.{op}()' but '{ref}' may "
                     "already be freed on some path")


def _assignments(stmt: ast.stmt):
    """(target, value) pairs bound by this statement; value may be None
    when unknown (aug-assign keeps the target's identity: skip)."""
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            if isinstance(t, (ast.Tuple, ast.List)):
                for elt in t.elts:
                    yield elt, None
            else:
                yield t, stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        yield stmt.target, stmt.value
    else:
        for node in walk_shallow(stmt):
            if isinstance(node, ast.NamedExpr):
                yield node.target, node.value


def check_typestate(func: ast.AST, flag: Callable,
                    cfg: Optional[CFG] = None) -> None:
    """Run the typestate analysis over one function; ``flag(rule, node,
    message)`` receives each violation."""
    report(cfg or build_cfg(func), _Typestate(), flag)
