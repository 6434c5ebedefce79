"""Checkpoint synchronisation along call chains (ULF005/ULF010).

The paper's CR protocol tests for failures "prior to initiating the
checkpoint write": a rank that starts writing generation *k* while a
peer is mid-failure produces a torn checkpoint set.  The invariant is
that every path from an entry point to a ``write_checkpoint`` passes a
synchronising operation (``barrier``/``agree``/``allreduce``/``bcast``/
…/``communicator_reconstruct``) first.

The seed linter checked this per-function and syntactically (any sync
awaited on an earlier *line*).  This module upgrades it twice over:

* **flow-sensitive**: a forward *must* analysis over the CFG — the
  "synchronised" bit must hold on *every* path reaching the write, not
  just on some earlier line (``if fast_path: await comm.barrier()``
  no longer counts);
* **interprocedural**: within a module, each function gets a summary —
  ``syncs`` (every path through it performs a sync before returning) and
  ``writes_unsynced`` (it may reach a checkpoint write without syncing
  first, so the obligation falls on its callers).  Summaries are solved
  to a fixed point over the call graph (``syncs`` first, then
  ``writes_unsynced`` against the fixed sync summaries, so each pass is
  monotone), then:

  - a direct ``write_checkpoint`` on an unsynchronised path is **ULF005**
    — unless the function has module-local callers that all synchronise
    first, in which case the obligation was theirs and is discharged;
  - a call to a ``writes_unsynced`` helper on an unsynchronised path is
    **ULF010**, flagged at the call site — the caller was supposed to
    synchronise before delegating.

Calls are resolved module-locally: plain names to module functions,
``self.m(...)`` to methods of the lexically enclosing class.  Anything
else (imports, other objects) is opaque and assumed neither to sync nor
to write.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ...mpi.collectives import RvKind, ops_with
from .cfg import CFG, build_cfg, walk_shallow
from .engine import Analysis, report, solve

__all__ = ["check_checkpoint_sync", "FuncInfo", "Resolver",
           "SYNC_CALLS", "collect_functions"]

#: awaited operations that synchronise the group (any failure surfaces
#: before the checkpoint write begins): every rendezvous, and the repair
#: and restore calls built on them
SYNC_CALLS = ops_with(RvKind.NORMAL, RvKind.SURVIVOR) | frozenset({
    "communicator_reconstruct", "restore_checkpoint",
    # the recovery-strategy detection point: every implementation runs
    # agree + probe barrier (and repairs on error) before returning, so a
    # write guarded by it satisfies the "test prior to initiating the
    # checkpoint write" invariant
    "detect_and_repair",
})

_WRITE = "write_checkpoint"


class FuncInfo(NamedTuple):
    qualname: str
    node: ast.AST           # FunctionDef / AsyncFunctionDef
    class_name: Optional[str]


class Summary:
    def __init__(self):
        self.syncs = False            # every path syncs before returning
        self.writes_unsynced = False  # may write without a prior sync


def collect_functions(tree: ast.Module) -> List[FuncInfo]:
    """Every function in the module, with its enclosing class (if any).
    Nested functions are collected too — they get their own CFGs."""
    out: List[FuncInfo] = []

    def visit(node, class_name, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append(FuncInfo(qual, child, class_name))
                visit(child, class_name, f"{qual}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name, f"{prefix}{child.name}.")
            else:
                visit(child, class_name, prefix)

    visit(tree, None, "")
    return out


def _callee_key(call: ast.Call, info: FuncInfo) -> Optional[Tuple[str, str]]:
    """Resolution key for a call: ("func", name) for plain names,
    ("method", name) for ``self.name(...)``; None when unresolvable."""
    f = call.func
    if isinstance(f, ast.Name):
        return ("func", f.id)
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
            and f.value.id == "self" and info.class_name is not None:
        return ("method", f.attr)
    return None


class Resolver:
    """Module-local call resolution: maps a call in function ``info`` to
    the qualname of the local function it targets, if any."""

    def __init__(self, funcs: List[FuncInfo]):
        self.by_name: Dict[str, str] = {}
        self.by_method: Dict[Tuple[str, str], str] = {}
        for fi in funcs:
            if fi.class_name is None and "." not in fi.qualname:
                self.by_name[fi.qualname] = fi.qualname
            elif fi.class_name is not None and \
                    fi.qualname == f"{fi.class_name}.{fi.node.name}":
                self.by_method[(fi.class_name, fi.node.name)] = fi.qualname

    def resolve(self, call: ast.Call, info: FuncInfo) -> Optional[str]:
        key = _callee_key(call, info)
        if key is None:
            return None
        kind, name = key
        if kind == "func":
            return self.by_name.get(name)
        return self.by_method.get((info.class_name, name))


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


class _SyncState:
    """Must-analysis lattice over one bit. ``TOP`` (bottom of the
    worklist, state of unreachable code) is "vacuously synced"."""
    TOP = "top"
    SYNCED = True
    UNSYNCED = False


class _MustSync(Analysis):
    direction = "forward"

    def __init__(self, info: FuncInfo, resolver: Resolver,
                 summaries: Dict[str, Summary]):
        self.info = info
        self.resolver = resolver
        self.summaries = summaries

    def boundary(self, cfg: CFG):
        return _SyncState.UNSYNCED

    def bottom(self):
        return _SyncState.TOP

    def join(self, a, b):
        if a == _SyncState.TOP:
            return b
        if b == _SyncState.TOP:
            return a
        return a and b  # must: synced only if synced on every path

    def transfer_stmt(self, stmt: ast.stmt, state,
                      emit: Optional[Callable] = None):
        for node in walk_shallow(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            if name == _WRITE:
                if state == _SyncState.UNSYNCED and emit is not None:
                    emit("ULF005", node,
                         "checkpoint write without a synchronising "
                         "operation (barrier/agree/allreduce/"
                         "reconstruct) on every path reaching it: a "
                         "failure mid-write leaves a torn checkpoint "
                         "generation")
                continue
            if name in SYNC_CALLS:
                state = _SyncState.SYNCED
                continue
            target = self.resolver.resolve(node, self.info)
            if target is None:
                continue
            summary = self.summaries[target]
            if summary.writes_unsynced and state == _SyncState.UNSYNCED \
                    and emit is not None:
                emit("ULF010", node,
                     f"call chain reaches a checkpoint write: "
                     f"'{target}' may write a checkpoint without "
                     "synchronising, and no synchronising operation "
                     "precedes this call on every path; synchronise "
                     "(barrier/agree/allreduce) before delegating")
            if summary.syncs:
                state = _SyncState.SYNCED
        return state


def _has_writes(info: FuncInfo, resolver: Resolver,
                summaries: Dict[str, Summary], cfg: CFG) -> bool:
    """Would the must-sync pass emit anything for this function?"""
    hits: List[str] = []
    report(cfg, _MustSync(info, resolver, summaries),
           lambda rule, node, msg: hits.append(rule))
    return bool(hits)


def check_checkpoint_sync(tree: ast.Module, flag: Callable,
                          funcs: Optional[List[FuncInfo]] = None,
                          cfgs: Optional[Dict[str, CFG]] = None) -> None:
    """Run the interprocedural checkpoint analysis over a whole module.
    ``flag(rule, node, message)`` receives each violation."""
    funcs = funcs if funcs is not None else collect_functions(tree)
    # fast path: modules that never call write_checkpoint have nothing to
    # prove — skip the summary fixpoints entirely
    if not any(isinstance(n, ast.Call) and _call_name(n) == _WRITE
               for n in ast.walk(tree)):
        return
    cfgs = cfgs or {}
    for fi in funcs:
        if fi.qualname not in cfgs:
            cfgs[fi.qualname] = build_cfg(fi.node, fi.qualname)
    resolver = Resolver(funcs)
    summaries = {fi.qualname: Summary() for fi in funcs}

    # --- phase 1: `syncs` summaries (monotone: False -> True) ----------
    changed = True
    rounds = 0
    while changed and rounds < len(funcs) + 2:
        changed = False
        rounds += 1
        for fi in funcs:
            analysis = _MustSync(fi, resolver, summaries)
            cfg = cfgs[fi.qualname]
            in_states, _ = solve(cfg, analysis)
            syncs = in_states[cfg.exit] == _SyncState.SYNCED
            if syncs and not summaries[fi.qualname].syncs:
                summaries[fi.qualname].syncs = True
                changed = True

    # --- phase 2: `writes_unsynced` (monotone: False -> True) ----------
    changed = True
    rounds = 0
    while changed and rounds < len(funcs) + 2:
        changed = False
        rounds += 1
        for fi in funcs:
            if summaries[fi.qualname].writes_unsynced:
                continue
            if _has_writes(fi, resolver, summaries, cfgs[fi.qualname]):
                summaries[fi.qualname].writes_unsynced = True
                changed = True

    # --- which writers have module-local callers? ----------------------
    called: Dict[str, List[str]] = {fi.qualname: [] for fi in funcs}
    for fi in funcs:
        # walk_shallow per body statement: calls made by *this* function,
        # not by closures nested inside it (those are their own FuncInfo)
        for stmt in fi.node.body:
            for node in walk_shallow(stmt):
                if isinstance(node, ast.Call):
                    target = resolver.resolve(node, fi)
                    if target is not None:
                        called[target].append(fi.qualname)

    # --- emission -------------------------------------------------------
    for fi in funcs:
        summary = summaries[fi.qualname]
        if summary.writes_unsynced and called[fi.qualname]:
            # the obligation moved to the callers: each unsynchronised
            # call site raises ULF010 in *their* pass; flagging inside
            # this helper too would double-report
            continue
        report(cfgs[fi.qualname], _MustSync(fi, resolver, summaries), flag)
