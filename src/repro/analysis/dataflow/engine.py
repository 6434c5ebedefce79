"""Worklist fixpoint solver for dataflow analyses over a :class:`~repro.analysis.dataflow.cfg.CFG`.

An analysis is a small strategy object (lattice + transfer); the solver
is direction-agnostic and iterates block states to a fixed point.  The
analyses that run on it:

* rank-taint propagation (forward, may)      — ULF006/ULF009
* collectives-to-exit (backward, may)        — ULF006
* integer constant propagation (forward)     — ULF009
* communicator typestate (forward, may)      — ULF007/ULF008
* checkpoint synchronisation (forward, must) — ULF005/ULF010
* shared-reference taint (forward, may)      — ULF011/ULF013
* set/iteration-order taint (forward, may)   — ULF014

:func:`report` is the common reporting driver: solve, then replay each
block once with an ``emit`` that forwards every finding once.

States must be treated as immutable by ``transfer_stmt`` (return a new
state rather than mutating), because the solver caches and compares them
for convergence.  ``bottom()`` is the state of unreachable code and the
identity of ``join``; for a *must* analysis that means the vacuous
"everything holds" top-of-the-property value, so dead code never raises
findings.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from .cfg import CFG

__all__ = ["Analysis", "MayMap", "report", "solve"]


class Analysis:
    """Base strategy: subclass and override the lattice and transfer."""

    #: "forward" (states flow entry -> exit) or "backward"
    direction = "forward"

    def boundary(self, cfg: CFG) -> Any:
        """State at the entry block (forward) / exit block (backward)."""
        raise NotImplementedError

    def bottom(self) -> Any:
        """Identity of ``join``; the state of unreachable blocks."""
        raise NotImplementedError

    def join(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def transfer_stmt(self, stmt: ast.stmt, state: Any,
                      emit: Optional[Callable] = None) -> Any:
        """Propagate one statement.  ``emit(rule, node, message)`` is only
        provided during the reporting replay, never while solving."""
        return state

    def transfer_block(self, block, state: Any,
                       emit: Optional[Callable] = None) -> Any:
        stmts = block.stmts
        if self.direction == "backward":
            stmts = reversed(stmts)
        for stmt in stmts:
            state = self.transfer_stmt(stmt, state, emit)
        return state


class MayMap(Analysis):
    """A forward may-analysis whose state maps each tracked reference to
    the frozenset of facts it may carry on some path: empty at entry,
    joined by a union per reference."""

    def boundary(self, cfg: CFG) -> Dict[str, FrozenSet[str]]:
        return {}

    def bottom(self) -> Dict[str, FrozenSet[str]]:
        return {}

    def join(self, a: Dict[str, FrozenSet[str]],
             b: Dict[str, FrozenSet[str]]) -> Dict[str, FrozenSet[str]]:
        if not a:
            return b
        if not b:
            return a
        out = dict(a)
        for ref, facts in b.items():
            out[ref] = out.get(ref, frozenset()) | facts
        return out


def solve(cfg: CFG, analysis: Analysis) -> Tuple[Dict[int, Any],
                                                 Dict[int, Any]]:
    """Run ``analysis`` to a fixed point; returns ``(in_states,
    out_states)`` keyed by block id.

    For a backward analysis the naming follows the *flow*: ``in_states``
    is the state at the point just before the block in flow order, i.e.
    at the block's start for forward and at the block's end for backward
    — either way ``in_states[b]`` is what ``transfer_block`` was fed.
    """
    forward = analysis.direction == "forward"
    preds = cfg.preds()
    if forward:
        sources: Dict[int, list] = {b: [p for p, _ in preds[b]]
                                    for b in cfg.blocks}
        start = cfg.entry
    else:
        sources = {b: [t for t, _ in cfg.blocks[b].succs]
                   for b in cfg.blocks}
        start = cfg.exit

    in_states = {b: analysis.bottom() for b in cfg.blocks}
    out_states = {b: analysis.bottom() for b in cfg.blocks}
    in_states[start] = analysis.boundary(cfg)
    out_states[start] = analysis.transfer_block(cfg.blocks[start],
                                                in_states[start])

    worklist = sorted(cfg.blocks)
    iterations = 0
    limit = 64 * (len(cfg.blocks) + 1)  # safety valve; lattices are finite
    while worklist and iterations < limit:
        iterations += 1
        bid = worklist.pop(0)
        feeds = sources[bid]
        if bid == start:
            new_in = analysis.boundary(cfg)
        elif feeds:
            new_in = analysis.bottom()
            for f in feeds:
                new_in = analysis.join(new_in, out_states[f])
        else:
            new_in = analysis.bottom()
        new_out = analysis.transfer_block(cfg.blocks[bid], new_in)
        if new_in == in_states[bid] and new_out == out_states[bid]:
            continue
        in_states[bid] = new_in
        out_states[bid] = new_out
        dependents = ([t for t, _ in cfg.blocks[bid].succs] if forward
                      else [p for p, _ in preds[bid]])
        for d in dependents:
            if d not in worklist:
                worklist.append(d)
    return in_states, out_states


def report(cfg: CFG, analysis: Analysis, flag: Callable) -> None:
    """Solve ``analysis`` over ``cfg``, then replay every block with an
    ``emit`` that passes each ``(rule, line, col)`` to ``flag(rule, node,
    message)`` once."""
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
