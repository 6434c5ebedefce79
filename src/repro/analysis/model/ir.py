"""The protocol IR: what the model checker executes.

A :class:`Skeleton` is one per-rank program abstracted from real solver /
``ft.reconstruct`` code: a flat instruction list over a tiny expression
language, laid out block by block from the function's control-flow graph
(``dataflow.cfg``).  Everything that is not communication, control flow
or checkpoint traffic is dropped by the extractor; everything that *is*
kept evaluates to concrete, hashable values so the cross-rank product
state space stays finite and canonical.

Instructions
------------

=========  ============================================================
Op         a visible protocol step: collective, p2p, ULFM action or
           checkpoint access (``kind`` below).  ``handler`` is the pc of
           the ``except MPIError`` suite covering it, or None: exception
           routing is static, like the CFG's ``exc`` edges
SetVar     bind a local variable to the value of an expression
Branch     conditional jump (two explicit targets)
Jump       unconditional jump; a CFG back edge is a backward one
Return     terminate the program
FailStop   abstraction boundary reached (e.g. a loop past its iteration
           bound): the process counts as crashed
=========  ============================================================

Loops stay loops.  A loop head is ordinary instructions: a counter
variable reset on entry, a ``Branch`` on exhaustion (the ``while`` test,
or counter < ``len`` of the iterated value), a ``Branch`` on the
iteration bound with a ``FailStop`` behind it, the target binding, the
increment — so the checker runs the iterations the evaluated iterable
and the failure budget allow, each over the same instructions.

``Op.kind`` is one of::

    barrier bcast reduce allreduce gather allgather scatter halo split
    merge agree shrink spawn send recv revoke readmit ckpt_write
    ckpt_restore

— the kinds of ``METHODS`` below and the two checkpoint accesses; each
method's failure rule is the simulator's, ``mpi.collectives.OP_RULES``.

``readmit`` is the non-collective repair mode's local membership update
(``mpi.comm.CommHandle.readmit``): it replaces a dead member of the
communicator with the spawned process occupying the same world slot,
without any rendezvous — which is the whole point of that mode, and why
the op is *not* in ``COLLECTIVE_KINDS``.

``halo`` abstracts a solver stepping segment (the neighbour exchanges of
one checkpoint segment) as a grid-wide collective: it blocks on every
member and dies with any of them, which is exactly the property the
deadlock analysis needs.  It is also the checker's *failure window*: the
paper injects failures during solve segments, so kills are offered while
a victim sits in a halo (see ``checker.ProtocolModel.kill_when``).

Expressions
-----------

Expressions are nested tuples, evaluated eagerly against the per-process
environment and the global model state::

    ("const", v)            literal
    ("var", name)           local variable
    ("tuple", *items)       tuple construction (an item may be opaque)
    ("rank", e)             caller's rank in communicator e
    ("size", e)             total size of communicator e (incl. dead)
    ("bin", op, a, b)       + - * // % max min
    ("cmp", op, a, b)       == != < <= > >=
    ("and", a, b) / ("or", a, b) / ("not", a)
    ("is", a, b) / ("isnot", a, b)   identity (communicators: same cid)
    ("ifexp", c, a, b)      ``a if c else b``
    ("in", a, b)            membership in a tuple value
    ("len", e) / ("index", a, i)
    ("range", *args)        ``range(...)`` over evaluated bounds
    ("enumerate", e)        tuple of ``(i, item)`` pairs of a tuple value
    ("short", e, k)         e is a tracked sequence of at most k items
                            (False, never opaque, for an untracked one)
    ("failed_pair", e)      (failed-rank tuple, count) of communicator e
                            — the model of ``failed_procs_list``
    ("failed_count", e)     number of dead members of communicator e
    ("known_failed",)       the failed world ranks this process knows:
                            survivors know the full history, a re-spawned
                            process knows (only) its own slot
    ("slot",)               this process's world slot (launch rank)
    ("world_comm",)         the launched world communicator (re-admitted
                            processes are patched into it)
    ("union_flat", e)       sorted deduplicated union of a tuple of
                            tuples (allgather post-processing)
    ("map_div", e, k)       sorted {v // k for v in e} (ranks -> grids)
    ("column", e, i)        tuple of item i of every tuple in e
    ("lookup", e, t)        tuple of t's value for every item of e (t a
                            tuple of key-value pairs)
    ("select_key", r, s, f, t)  the Fig. 7 split key, evaluated with the
                            *real* ``repro.ft.reconstruct.select_rank_key``
    ("opaque",)             a value the extractor could not track

An expression that cannot be evaluated concretely yields ``OPAQUE``;
branching on an opaque condition explores both outcomes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...mpi.collectives import RvKind, ops_with

__all__ = ["OPAQUE", "Op", "SetVar", "Branch", "Jump", "Return", "FailStop",
           "Label", "Skeleton", "Asm", "METHODS", "OP_KINDS", "FT_OPS",
           "COLLECTIVE_KINDS"]


class _Opaque:
    """Singleton for values the abstraction dropped."""

    def __repr__(self) -> str:
        return "OPAQUE"


OPAQUE = _Opaque()

#: communicator method -> (IR kind, positional arg names).  The keys are
#: simulator operations and the solver's ``step``/``halo``; the IR kind is
#: the operation's own name except where the model abstracts: a spawn
#: yields the bridge, and a neighbour exchange is one ``halo`` segment.
METHODS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "barrier": ("barrier", ()),
    "halo": ("halo", ()),
    "exchange": ("halo", ()),
    "step": ("halo", ()),
    "bcast": ("bcast", ("value", "root")),
    "reduce": ("reduce", ("value", "op", "root")),
    "allreduce": ("allreduce", ("value", "op")),
    "gather": ("gather", ("value", "root")),
    "allgather": ("allgather", ("value",)),
    "scatter": ("scatter", ("value", "root")),
    "split": ("split", ("color", "key")),
    "merge": ("merge", ("high",)),
    "agree": ("agree", ("value",)),
    "shrink": ("shrink", ()),
    "spawn_multiple": ("spawn", ("count", "entry", "argv")),
    "send": ("send", ("value", "dest", "tag")),
    "recv": ("recv", ("source", "tag")),
    "revoke": ("revoke", ()),
    "readmit": ("readmit", ("rank",)),
}

#: every legal Op.kind
OP_KINDS = frozenset(kind for kind, _args in METHODS.values()) | \
    frozenset({"ckpt_write", "ckpt_restore"})


def _kinds(*rules: RvKind) -> frozenset:
    return frozenset(METHODS[op][0] for op in ops_with(*rules)
                     if op in METHODS)


#: fault-tolerant rendezvous: complete over the survivors, legal on
#: revoked communicators
FT_OPS = _kinds(RvKind.SURVIVOR)

#: kinds that rendezvous (block on other members); ``halo`` is one
COLLECTIVE_KINDS = _kinds(RvKind.NORMAL, RvKind.SURVIVOR) | {"halo"}


class Instr:
    __slots__ = ("lineno",)

    def __init__(self, lineno: int = 0):
        self.lineno = lineno


class Op(Instr):
    """A visible protocol step.  ``comm`` is an expression evaluating to a
    communicator (None for checkpoint ops); ``out`` names the variable
    receiving the result; ``args`` is a kind-specific dict of
    expressions; ``handler`` is where an MPI error raised here resumes
    (None: it escapes the protocol)."""

    __slots__ = ("kind", "comm", "out", "args", "handler")

    def __init__(self, kind: str, comm=None, out: Optional[str] = None,
                 args: Optional[dict] = None, lineno: int = 0,
                 handler=None):
        super().__init__(lineno)
        if kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {kind!r}")
        self.kind = kind
        self.comm = comm
        self.out = out
        self.args = args or {}
        self.handler = handler

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.args.items()))
        target = f"{self.out} = " if self.out else ""
        on = f" on {_fmt(self.comm)}" if self.comm is not None else ""
        exc = f" except -> {self.handler}" if self.handler is not None else ""
        return f"{target}{self.kind}({args}){on}{exc}"


class SetVar(Instr):
    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr, lineno: int = 0):
        super().__init__(lineno)
        self.name = name
        self.expr = expr

    def __repr__(self) -> str:
        return f"{self.name} = {_fmt(self.expr)}"


class Branch(Instr):
    """``if cond: goto then_pc else: goto else_pc``."""

    __slots__ = ("cond", "then_pc", "else_pc")

    def __init__(self, cond, then_pc: int = -1, else_pc: int = -1,
                 lineno: int = 0):
        super().__init__(lineno)
        self.cond = cond
        self.then_pc = then_pc
        self.else_pc = else_pc

    def __repr__(self) -> str:
        return f"if {_fmt(self.cond)} -> {self.then_pc} else -> {self.else_pc}"


class Jump(Instr):
    __slots__ = ("target",)

    def __init__(self, target: int = -1, lineno: int = 0):
        super().__init__(lineno)
        self.target = target

    def __repr__(self) -> str:
        return f"jump -> {self.target}"


class Return(Instr):
    __slots__ = ("expr",)

    def __init__(self, expr=("const", None), lineno: int = 0):
        super().__init__(lineno)
        self.expr = expr

    def __repr__(self) -> str:
        return f"return {_fmt(self.expr)}"


class FailStop(Instr):
    __slots__ = ("message",)

    def __init__(self, message: str, lineno: int = 0):
        super().__init__(lineno)
        self.message = message

    def __repr__(self) -> str:
        return f"failstop: {self.message}"


def _fmt(e) -> str:
    if e is None:
        return "-"
    if isinstance(e, tuple):
        if e and e[0] == "const":
            return repr(e[1])
        if e and e[0] == "var":
            return str(e[1])
        return "(" + " ".join(_fmt(x) if isinstance(x, tuple) else str(x)
                              for x in e) + ")"
    return repr(e)


class Skeleton:
    """One extracted per-rank program."""

    def __init__(self, name: str, path: str, instrs: List[Instr]):
        self.name = name
        self.path = path
        self.instrs = instrs

    def __len__(self) -> int:
        return len(self.instrs)

    def ops(self) -> List[Op]:
        return [i for i in self.instrs if isinstance(i, Op)]

    def describe(self) -> str:
        """Readable listing, one instruction per line (a debugging aid)."""
        lines = [f"skeleton {self.name} ({len(self.instrs)} instr(s))"]
        lines += [f"  {pc:3d}  {instr!r}" for pc, instr in
                  enumerate(self.instrs)]
        return "\n".join(lines)


class Label:
    """A jump target whose pc is known once :meth:`Asm.place` puts it."""

    __slots__ = ("pc",)

    def __init__(self):
        self.pc = -1


class Asm:
    """Small assembler: emit instructions that name their targets by
    :class:`Label`; :meth:`finish` resolves the labels to pcs."""

    _TARGETS = ("then_pc", "else_pc", "target", "handler")

    def __init__(self):
        self.instrs: List[Instr] = []

    def emit(self, instr: Instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1

    def here(self) -> int:
        return len(self.instrs)

    def place(self, label: Label) -> None:
        """Bind ``label`` to the next emitted position."""
        label.pc = self.here()

    def finish(self, name: str, path: str,
               prologue: List[Instr] = ()) -> Skeleton:
        """Resolve the labels; ``prologue`` runs first (every target
        moves past it)."""
        for instr in self.instrs:
            for field in self._TARGETS:
                target = getattr(instr, field, None)
                if isinstance(target, Label):
                    target = target.pc
                if target is not None and target < 0:
                    raise ValueError(
                        f"unplaced {field} in {instr!r} of {name}")
                if target is not None:
                    setattr(instr, field, target + len(prologue))
        return Skeleton(name, path, list(prologue) + self.instrs)
