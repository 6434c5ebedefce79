"""Collective matching under rank-dependent control flow (ULF006/ULF009).

MPI collectives only complete when *every* member of the communicator
calls them; the classic divergence bug is a collective reachable on some
ranks' control flow but not others'::

    if comm.rank == 0:
        await comm.barrier()      # rank 0 blocks here forever

Three cooperating dataflow passes find this shape:

1. **rank taint** (forward, may): which local names carry rank-dependent
   values.  Seeded by any read of a ``.rank`` attribute and by parameters
   conventionally named like ranks; propagated through assignments.
2. **collectives-to-exit** (backward, may): for every program point, the
   set of ``(communicator, collective)`` pairs that may still execute
   before the function returns.
3. at each branch whose test is tainted, the two successors' sets are
   compared.  Collectives both arms eventually reach cancel out (they
   are matched); anything left over runs on one rank-subset only —
   **ULF006**, flagged at the collective call site.  This formulation
   also catches the early-return variant (``if rank != 0: return``
   followed by a collective), which a syntactic arm comparison misses.

**ULF009** reuses the taint pass plus an integer constant-propagation
pass: inside a rank-dependent ``if`` whose arms exchange point-to-point
messages on the same communicator (one side sends, the sibling receives),
tags that both resolve to constants and differ can never match — each
side blocks forever waiting for the other's tag.  A receive whose tag is
left out or resolves to ``ANY_TAG`` matches any send.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, FrozenSet, Optional, Tuple, Union

from ...mpi.collectives import RvKind, ops_with
from ...mpi.errors import ANY_TAG
from .cfg import Block, CFG, build_cfg, walk_shallow
from .engine import Analysis, solve

__all__ = ["check_collectives"]

#: collective operations every member must call (divergence -> deadlock).
#: agree/shrink (SURVIVOR) are deliberately excluded: they are the
#: *recovery* path and legitimately run on survivor subsets mid-repair.
_MATCHED = ops_with(RvKind.NORMAL)

#: parameters with these names are assumed to hold this process's rank
RANK_PARAMS = frozenset({"rank", "my_rank", "mpi_rank", "grid_rank"})

_SENDS = frozenset({"send", "isend"})
_RECVS = frozenset({"recv", "irecv"})

_Taint = FrozenSet[str]


# ---------------------------------------------------------------------------
# pass 1: rank taint
# ---------------------------------------------------------------------------
def _expr_tainted(expr: ast.expr, tainted: _Taint) -> bool:
    for node in walk_shallow(expr):
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        if isinstance(node, ast.Name) and node.id in tainted:
            return True
    return False


class _RankTaint(Analysis):
    direction = "forward"

    def boundary(self, cfg: CFG) -> _Taint:
        args = cfg.func.args
        params = [a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)]
        return frozenset(p for p in params if p in RANK_PARAMS)

    def bottom(self) -> _Taint:
        return frozenset()

    def join(self, a: _Taint, b: _Taint) -> _Taint:
        return a | b

    def transfer_stmt(self, stmt: ast.stmt, state: _Taint,
                      emit: Optional[Callable] = None) -> _Taint:
        if isinstance(stmt, ast.Assign):
            value_tainted = _expr_tainted(stmt.value, state)
            for t in stmt.targets:
                state = self._bind(t, value_tainted, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            state = self._bind(stmt.target,
                               _expr_tainted(stmt.value, state), state)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                already = stmt.target.id in state
                now = already or _expr_tainted(stmt.value, state)
                state = self._bind(stmt.target, now, state)
        for node in walk_shallow(stmt):
            if isinstance(node, ast.NamedExpr):
                state = self._bind(node.target,
                                   _expr_tainted(node.value, state), state)
        return state

    @staticmethod
    def _bind(target: ast.expr, tainted: bool, state: _Taint) -> _Taint:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                state = _RankTaint._bind(elt, tainted, state)
            return state
        if not isinstance(target, ast.Name):
            return state
        if tainted:
            return state | {target.id}
        return state - {target.id}


# ---------------------------------------------------------------------------
# pass 2: collectives that may still run before exit (backward)
# ---------------------------------------------------------------------------
_Coll = FrozenSet[Tuple[str, str]]


def _collective_calls(stmt: ast.stmt):
    """(call node, comm repr, op) for each collective awaited in ``stmt``."""
    for node in walk_shallow(stmt):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MATCHED:
            yield node, ast.unparse(node.func.value), node.func.attr


class _CollectivesToExit(Analysis):
    direction = "backward"

    def boundary(self, cfg: CFG) -> _Coll:
        return frozenset()

    def bottom(self) -> _Coll:
        return frozenset()

    def join(self, a: _Coll, b: _Coll) -> _Coll:
        return a | b

    def transfer_stmt(self, stmt: ast.stmt, state: _Coll,
                      emit: Optional[Callable] = None) -> _Coll:
        gen = {(comm, op) for _, comm, op in _collective_calls(stmt)}
        return state | gen if gen else state


# ---------------------------------------------------------------------------
# pass 3: integer constant propagation (for tags)
# ---------------------------------------------------------------------------
_NAC = object()          # "not a constant"
_Consts = Tuple[Tuple[str, Union[int, object]], ...]  # sorted items tuple


def _const_eval(expr: ast.expr, env: Dict[str, object]):
    """Fold ``expr`` to an int if possible, else ``_NAC``."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int) \
            and not isinstance(expr.value, bool):
        return expr.value
    if isinstance(expr, ast.Name):
        return env.get(expr.id, _NAC)
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        v = _const_eval(expr.operand, env)
        return -v if v is not _NAC else _NAC
    if isinstance(expr, ast.BinOp):
        left = _const_eval(expr.left, env)
        right = _const_eval(expr.right, env)
        if left is _NAC or right is _NAC:
            return _NAC
        try:
            if isinstance(expr.op, ast.Add):
                return left + right
            if isinstance(expr.op, ast.Sub):
                return left - right
            if isinstance(expr.op, ast.Mult):
                return left * right
            if isinstance(expr.op, ast.Mod):
                return left % right
            if isinstance(expr.op, ast.FloorDiv):
                return left // right
        except (ZeroDivisionError, ValueError):
            return _NAC
    return _NAC


class _ConstProp(Analysis):
    direction = "forward"

    def __init__(self, module_consts: Dict[str, int]):
        self.module_consts = dict(module_consts)

    def boundary(self, cfg: CFG) -> _Consts:
        return tuple(sorted(self.module_consts.items()))

    def bottom(self) -> _Consts:
        return ()

    def join(self, a: _Consts, b: _Consts) -> _Consts:
        if not a:
            return b
        if not b:
            return a
        da, db = dict(a), dict(b)
        out = {}
        for k in set(da) | set(db):
            va, vb = da.get(k, _NAC), db.get(k, _NAC)
            out[k] = va if va == vb else _NAC
        return tuple(sorted(out.items(), key=lambda kv: kv[0]))

    def transfer_stmt(self, stmt: ast.stmt, state: _Consts,
                      emit: Optional[Callable] = None) -> _Consts:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return state
        env = dict(state)
        if isinstance(stmt, ast.Assign):
            value = _const_eval(stmt.value, env)
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return state
            value = _const_eval(stmt.value, env)
            targets = [stmt.target]
        else:  # AugAssign: fold only the common `x += const` shapes
            value = _NAC
            if isinstance(stmt.target, ast.Name):
                cur = env.get(stmt.target.id, _NAC)
                inc = _const_eval(stmt.value, env)
                if cur is not _NAC and inc is not _NAC and \
                        isinstance(stmt.op, (ast.Add, ast.Sub)):
                    value = cur + inc if isinstance(stmt.op, ast.Add) \
                        else cur - inc
            targets = [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name):
                env[t.id] = value
            elif isinstance(t, (ast.Tuple, ast.List)):
                for elt in t.elts:
                    if isinstance(elt, ast.Name):
                        env[elt.id] = _NAC
        return tuple(sorted(env.items(), key=lambda kv: kv[0]))


_BACK_EDGE_KINDS = ("loop", "continue")


def _acyclic_view(cfg: CFG) -> CFG:
    """The CFG with loop back edges removed.

    The rank taint source (``.rank``) is constant for the lifetime of a
    process, so a rank-tainted branch decides the same way on every loop
    iteration.  Running the collectives-to-exit pass on the cyclic graph
    would let a guarded collective "reach" the other arm via the back
    edge (next iteration) and cancel its own divergence; on the acyclic
    view each arm only sees what *its* ranks actually execute.
    """
    view = CFG(cfg.func, cfg.name)
    view.entry, view.exit = cfg.entry, cfg.exit
    for bid, block in cfg.blocks.items():
        nb = Block(bid, block.label)
        nb.stmts = block.stmts
        nb.test = block.test
        nb.branch = block.branch
        nb.succs = [(t, k) for t, k in block.succs
                    if k not in _BACK_EDGE_KINDS]
        view.blocks[bid] = nb
    return view


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------
def _p2p_calls(stmts, kinds):
    """(call node, comm repr, resolved-or-raw tag expr) for each p2p call
    of the given kinds syntactically inside ``stmts``."""
    out = []
    for stmt in stmts:
        for node in walk_shallow(stmt):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in kinds:
                out.append((node, ast.unparse(node.func.value)))
    return out


def _tag_expr(call: ast.Call) -> Optional[ast.expr]:
    """The tag argument of a send/recv call, or None when defaulted."""
    for kw in call.keywords:
        if kw.arg == "tag":
            return kw.value
    pos = 2 if call.func.attr in _SENDS else 1  # send(obj, dest, tag) / recv(source, tag)
    if len(call.args) > pos:
        return call.args[pos]
    return None


def check_collectives(func: ast.AST, flag: Callable,
                      module_consts: Optional[Dict[str, int]] = None,
                      cfg: Optional[CFG] = None) -> None:
    """ULF006 + ULF009 over one function. ``flag(rule, node, message)``."""
    cfg = cfg or build_cfg(func)
    taint_in, _ = solve(cfg, _RankTaint())
    # backward analysis: out_states[b] is the state at b's *start* in
    # program order, i.e. the collectives still ahead when b begins
    _, coll_ahead = solve(_acyclic_view(cfg), _CollectivesToExit())
    consts_in, _ = solve(cfg, _ConstProp(module_consts or {}))

    flagged = set()

    def emit(rule, node, message):
        key = (rule, getattr(node, "lineno", 0),
               getattr(node, "col_offset", 0))
        if key not in flagged:
            flagged.add(key)
            flag(rule, node, message)

    for bid, block in cfg.blocks.items():
        if block.test is None or block.branch is None:
            continue
        if isinstance(block.branch, ast.ExceptHandler):
            continue
        # taint state *at the test* = state after the block's own stmts
        taint = _RankTaint().transfer_block(block, taint_in[bid])
        if not _expr_tainted(block.test, taint):
            continue
        succ = {kind: t for t, kind in block.succs
                if kind in ("true", "false")}
        if "true" not in succ or "false" not in succ:
            continue
        set_true = coll_ahead[succ["true"]]
        set_false = coll_ahead[succ["false"]]
        divergent = set_true ^ set_false
        if divergent:
            _flag_divergent(block, divergent, set_true, emit)
        if isinstance(block.branch, ast.If) and block.branch.orelse:
            consts = dict(_ConstProp({}).transfer_block(
                block, consts_in[bid]))
            _check_tag_mismatch(block.branch, consts, emit)


def _flag_divergent(block, divergent, set_true, emit) -> None:
    branch = block.branch
    body_arms = {True: getattr(branch, "body", []),
                 False: getattr(branch, "orelse", [])}
    test_src = ast.unparse(block.test)
    for comm, op in sorted(divergent):
        on_true = (comm, op) in set_true
        arm = body_arms[on_true] if isinstance(branch, ast.If) \
            else branch.body
        # locate the call site(s) inside the divergent arm
        sites = []
        for stmt in arm:
            for node, c, o in _collective_calls(stmt):
                if c == comm and o == op:
                    sites.append(node)
        where = "only when" if on_true else "only when not"
        message = (f"collective '{comm}.{op}()' runs {where} "
                   f"'{test_src}' holds: ranks taking the other path "
                   "never call it and every caller deadlocks; hoist the "
                   "collective out of the rank-dependent branch or make "
                   "all ranks call it")
        if sites:
            for node in sites:
                emit("ULF006", node, message)
        else:
            emit("ULF006", branch, message)


def _check_tag_mismatch(branch: ast.If, consts, emit) -> None:
    arms = (branch.body, branch.orelse)
    for sends_arm, recvs_arm in (arms, arms[::-1]):
        sends = _p2p_calls(sends_arm, _SENDS)
        recvs = _p2p_calls(recvs_arm, _RECVS)
        for r_call, r_comm in recvs:
            r_tag_expr = _tag_expr(r_call)
            if r_tag_expr is None:
                continue  # defaulted recv tag is ANY_TAG: matches all
            r_tag = _const_eval(r_tag_expr, consts)
            if r_tag is _NAC or r_tag == ANY_TAG:
                continue  # unknown, or the wildcard spelt out
            peer = [s for s, s_comm in sends if s_comm == r_comm]
            if not peer:
                continue
            s_tags = []
            for s_call in peer:
                s_tag_expr = _tag_expr(s_call)
                s_tag = 0 if s_tag_expr is None \
                    else _const_eval(s_tag_expr, consts)
                s_tags.append(s_tag)
            if any(t is _NAC for t in s_tags):
                continue
            if r_tag not in s_tags:
                sent = ", ".join(str(t) for t in sorted(set(s_tags)))
                emit("ULF009", r_call,
                     f"recv on '{r_comm}' waits for tag {r_tag} but the "
                     f"sibling rank-branch only sends tag(s) {sent} on "
                     "that communicator: the tags can never match and "
                     "both sides block")
