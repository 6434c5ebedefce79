"""Protocol-skeleton extraction: Python AST -> protocol IR.

The extractor abstracts one ``async def`` per-rank entry point into a
:class:`~repro.analysis.model.ir.Skeleton`.  Control flow is lowered in
one place for the whole analyzer, ``dataflow.cfg.build_cfg`` (the graph
ULF005-ULF015 run on), and the skeleton is a projection of that graph:
each basic block becomes a run of IR instructions, each edge a ``Jump``
or ``Branch``.  Communication calls become IR ops, called protocol
functions (module-local or the shipped ``repro.ft`` repair loops) are
inlined block by block with renamed locals, and everything else —
timers, spans, error-handler plumbing, host placement — collapses to
opaque values.  Branching on an opaque value makes the checker explore
both outcomes, so dropping detail is always sound (it can only add
behaviours, never hide one).

Handlers are static
-------------------

An op's covering ``except`` suite is the target of its block's CFG
``exc`` edge; an inlined callee's uncovered ops inherit the call site's.
The pc is stored on the ``Op`` itself, so leaving a ``try`` body by
``return``/``break``/``continue`` cannot leave a handler armed — there
is nothing to disarm.  (One ``except`` per ``try``, no ``finally``, no
``else`` suites: anything else is an :class:`ExtractError`.)

Loops stay loops
----------------

A CFG back edge is a backward ``Jump`` and every loop head counts its
iterations; the checker evaluates the iterable and runs

* a concrete sequence of up to ``_RUN_OUT_LIMIT`` items (segment loops,
  failed-rank lists) to exhaustion;
* a longer or untracked iterable ``failures + 1`` times (one attempt per
  possible failure plus the final clean attempt);
* a ``while`` loop ``failures + 2`` times (detect, repair, validate);

and then reaches a ``FailStop`` — the protocol needed more rounds than
failures, which the checker reports.

Name resolution for calls, in order: protocol intrinsics
(``failed_procs_list``, ``replaced_ranks``, ``select_rank_key``, ...),
the table (``ctx.get_parent`` and friends, the checkpoint vocabulary,
then the abstraction table), methods of statically bound objects,
communicator methods (the op table), inlinable functions (module-local
defs, then the cross-module registry), then opaque.

The app record
--------------

:func:`extract_app` extracts ``CombinationApp.run`` with one mode's
strategy and technique bound.  In the app object an attribute path is a
model variable (``app.world``, ``app.solver.step_count``), opaque until
assigned.  The abstraction table (``modes.ABSTRACTION``) names the
attributes that are objects resolved statically (``ctx``, ``cfg``,
``layout``, ``timers``, the strategy and technique) and states what
the shipped callees that are not protocol code communicate.  A method
of a bound object is inlined from the nearest class defining it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..dataflow.cfg import Block, build_cfg
from ..dataflow.driver import module_constants
from .ir import METHODS, Asm, Branch, FailStop, Jump, Label, Op, Return, \
    SetVar, Skeleton

__all__ = ["ExtractError", "ModuleEnv", "build_module_env", "extract_app",
           "extract_function", "find_protocol_models",
           "reconstruct_registry"]

#: a concrete iterable up to this long is run to exhaustion; longer ones
#: are retry loops, bounded by the failure budget
_RUN_OUT_LIMIT = 8

_MAX_INLINE_DEPTH = 5

#: reduction-op constant names -> model vocabulary
_REDUCE_NAMES = {"MAX": "max", "MIN": "min", "SUM": "sum",
                 "LAND": "and", "BAND": "and", "PROD": "sum"}

#: CFG vocabulary: loop-head block labels, the edge kinds that re-enter a
#: running loop, and the suites the abstraction does not model
_LOOP_HEADS = ("for.head", "while.head")
_BACK_EDGES = ("loop", "continue")
_UNSUPPORTED = {"finally": "try finally/else unsupported",
                "try.else": "try finally/else unsupported",
                "for.else": "loop else unsupported",
                "while.else": "loop else unsupported"}

#: varmap markers for objects the model resolves statically instead of
#: storing: ``("object", name)`` (the context, a table object) or
#: ``("class", name)`` (an instance of a registry class; the app's
#: attributes are the app record)
_CTX = ("object", "ctx")
_APP = ("class", "CombinationApp")

#: the table every extraction starts from (entries as in
#: ``modes.ABSTRACTION``): the context's parent intercommunicator and the
#: checkpoint vocabulary of ``vocab``
_VOCABULARY = {
    "ctx.get_parent": ("var", "__parent__"),
    "ctx.set_parent_null": (("set", "__parent__", ("const", None)),),
    "ckpt_write": (("op", "ckpt_write", None, {
        "group": ("arg", 0, "group"), "epoch": ("arg", 1, "epoch")}),),
    "ckpt_restore": (("op", "ckpt_restore", None, {
        "group": ("arg", 0, "group")}),),
}

_PROTOCOL_RE = re.compile(
    r"#\s*repro:\s*protocol\b(?P<params>[^#]*)")


class ExtractError(Exception):
    """The function uses a construct the protocol abstraction can't keep."""

    def __init__(self, message: str, lineno: int = 0):
        super().__init__(message)
        self.lineno = lineno


class ModuleEnv:
    """Per-module extraction context: foldable constants and local
    function definitions."""

    def __init__(self, consts: Dict[str, object],
                 funcs: Dict[str, ast.AST], path: str):
        self.consts = consts
        self.funcs = funcs
        self.path = path


def build_module_env(tree: ast.Module, path: str) -> ModuleEnv:
    funcs = {node.name: node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return ModuleEnv(module_constants(tree), funcs, path)


#: the shipped protocol code, by source file under ``repro``: the repair
#: functions, and the phase driver with its strategies and techniques
_SHIPPED = {
    "ft/reconstruct.py": ("communicator_reconstruct", "repair_comm"),
    "ft/strategy.py": ("shrink_detect_repair", "nc_detect_repair",
                       "RecoveryStrategy", "RespawnStrategy",
                       "ShrinkInPlaceStrategy", "NonCollectiveStrategy"),
    "ft/recovery.py": ("RecoveryTechnique", "CheckpointRestart",
                       "ResamplingCopying", "AlternateCombination"),
    "core/app.py": ("CombinationApp",),
}


def reconstruct_registry(sources: Optional[Dict[str, str]] = None
                         ) -> Dict[str, Tuple[ast.AST, ModuleEnv]]:
    """The shipped recovery protocol as an inline registry: name ->
    (function or class definition, its module).  ``sources`` substitutes
    the text of a file (base name -> source) for what is on disk, which
    is how the mutation tests show the models read this code."""
    import repro
    registry = {}
    for rel, names in _SHIPPED.items():
        path = Path(repro.__file__).parent / rel
        text = (sources or {}).get(path.name) or path.read_text()
        tree = ast.parse(text)
        env = build_module_env(tree, str(path))
        defs = {n.name: n for n in tree.body if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for name in names:
            if name not in defs:
                raise ExtractError(f"{path} no longer defines {name}")
            registry[name] = (defs[name], env)
    return registry


# --------------------------------------------------------------------------
# annotation discovery


def find_protocol_models(tree: ast.Module, source: str
                         ) -> List[Tuple[ast.AST, Dict[str, object]]]:
    """Top-level functions marked as protocol models by a
    ``# repro: protocol`` comment on (or just above) the ``def`` line.
    Returns ``(funcdef, params)`` pairs with params like
    ``{"ranks": 4, "failures": 1, "child": "name"}``."""
    lines = source.splitlines()
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = None
        if node.lineno <= len(lines):
            params = _comment_params(lines[node.lineno - 1])
        if params is None and node.lineno >= 2:
            prev = lines[node.lineno - 2].strip()
            if prev.startswith("#"):
                params = _comment_params(prev)
        if params is not None:
            found.append((node, params))
    return found


def _comment_params(line: str) -> Optional[Dict[str, object]]:
    m = _PROTOCOL_RE.search(line)
    if not m:
        return None
    params: Dict[str, object] = {}
    for token in m.group("params").split():
        if "=" not in token:
            continue
        key, _, val = token.partition("=")
        params[key] = int(val) if val.isdigit() else val
    return params


# --------------------------------------------------------------------------
# extraction


class _Frame:
    def __init__(self, env: ModuleEnv, prefix: str, lineno_base: int,
                 retvar: Optional[str], handler: Optional[Label]):
        self.env = env
        self.prefix = prefix
        # inlined frames anchor every instruction at the call site so
        # findings always point into the annotated file
        self.lineno_base = lineno_base
        self.retvar = retvar            # None in the top frame
        # the except suite covering the op being emitted: the current
        # block's own, else the one covering the call site
        self.handler = handler
        self.varmap: Dict[str, object] = {}

    def var(self, name: str) -> str:
        mapped = self.varmap.get(name)
        if mapped is None:
            mapped = self.prefix + name if self.prefix else name
            self.varmap[name] = mapped
        return mapped


class Extractor:
    def __init__(self, *, failures: int = 1,
                 registry: Optional[Dict[str, Tuple[ast.AST, ModuleEnv]]]
                 = None, table: Optional[dict] = None):
        self.failures = failures
        self.registry = registry or {}
        self.table = {**_VOCABULARY, **(table or {})}
        self._reads: set = set()        # app-record variables read
        self.asm = Asm()
        self._depth = 0
        self._stack: List[str] = []

    # -- public entry ------------------------------------------------------

    def extract(self, func: ast.AST, env: ModuleEnv,
                name: Optional[str] = None) -> Skeleton:
        frame = _Frame(env, prefix="", lineno_base=0, retvar=None,
                       handler=None)
        args = func.args.args
        if args and args[0].arg in ("ctx", "self"):
            frame.varmap[args[0].arg] = _CTX
            args = args[1:]
        if args:
            frame.varmap[args[0].arg] = "__world__"
        for extra in args[1:]:
            self.asm.emit(SetVar(frame.var(extra.arg), ("opaque",),
                                 func.lineno))
        self._body(func, frame)
        return self._finish(func, env, name or func.name)

    def extract_app(self, name: str) -> Skeleton:
        """``CombinationApp(ctx, cfg).run()``: the constructor, inlined,
        then the phase driver, with ``self`` the app record."""
        run, env = self._method(_APP, "run")
        frame = _Frame(env, prefix="", lineno_base=0, retvar=None,
                       handler=None)
        frame.varmap.update(self=_APP, ctx=_CTX, cfg=("object", "cfg"))
        call = ast.parse("CombinationApp(ctx, cfg)", mode="eval").body
        self._inline(*self._method(_APP, "__init__"), call, frame, None,
                     run.lineno, self_obj=_APP)
        self._body(run, frame)
        return self._finish(run, env, name)

    def _finish(self, func, env: ModuleEnv, name: str) -> Skeleton:
        self.asm.emit(Return(("const", None), _last_line(func)))
        # an app-record variable read before any assignment is opaque
        return self.asm.finish(name, env.path, prologue=[
            SetVar(var, ("opaque",), func.lineno)
            for var in sorted(self._reads)])

    # -- control flow: one CFG block at a time -----------------------------

    def _body(self, func: ast.AST, frame: _Frame) -> None:
        """Emit ``func``'s body from its CFG.  Blocks are laid out in
        source order with the (empty) exit block last, so every way out
        of the function falls to whatever the caller emits next."""
        cfg = build_cfg(func)
        blocks = _layout(cfg)
        labels = {b.bid: Label() for b in blocks}
        inits = {b.bid: Label() for b in blocks if b.label in _LOOP_HEADS}
        outer = frame.handler

        def dest(target: int, kind: str) -> Label:
            # entering a loop resets its counter; a back edge must not
            if kind in _BACK_EDGES:
                return labels[target]
            return inits.get(target, labels[target])

        for block, following in zip(blocks, blocks[1:] + [None]):
            line = frame.lineno_base or _first_line(block)
            handlers = [t for t, kind in block.succs if kind == "exc"]
            flow = {kind: t for t, kind in block.succs
                    if kind not in ("exc", "raise")}
            if block.label in _UNSUPPORTED:
                raise ExtractError(_UNSUPPORTED[block.label], line)
            if isinstance(block.branch, ast.Match):
                raise ExtractError("unsupported statement Match", line)
            if len(handlers) > 1:
                raise ExtractError("exactly one except handler supported",
                                   line)
            frame.handler = labels[handlers[0]] if handlers else outer
            if block.label in _LOOP_HEADS:
                self.asm.place(inits[block.bid])
                self._loop_head(block, frame, labels[block.bid],
                                dest(flow.pop("false"), "false"), line)
            else:
                self.asm.place(labels[block.bid])
                # the CFG keeps ``break``/``continue`` as the block's last
                # statement; here they are just the edge
                leaves = {"break", "continue"} & flow.keys()
                for stmt in block.stmts[:-1] if leaves else block.stmts:
                    self._stmt(stmt, frame)
                if block.test is not None:
                    self.asm.emit(Branch(
                        self._expr(block.test, frame),
                        dest(flow.pop("true"), "true"),
                        dest(flow.pop("false"), "false"), line))
            # what is left is the block's one way on; falling into the
            # block laid out next needs no jump
            for kind, target in flow.items():
                if kind in _BACK_EDGES or target != following.bid:
                    self.asm.emit(Jump(dest(target, kind), line))
        frame.handler = outer

    def _loop_head(self, block: Block, frame: _Frame, head: Label,
                   after: Label, line: int) -> None:
        """Reset the iteration counter (the entry edge lands here), then
        at ``head`` (where back edges land): leave when the loop is
        exhausted, ``FailStop`` past the iteration bound, else bind the
        target, count the iteration and fall into the body."""
        count = f"__n{self.asm.here()}__"
        n = ("var", count)
        if block.label == "for.head":
            seq = f"__seq{self.asm.here()}__"
            self.asm.emit(SetVar(seq, self._expr(block.test, frame), line))
            more = ("cmp", "<", n, ("len", ("var", seq)))
            within = ("or", ("cmp", "<", n, ("const", self.failures + 1)),
                      ("short", ("var", seq), _RUN_OUT_LIMIT))
        else:
            more = self._expr(block.test, frame)
            within = ("cmp", "<", n, ("const", self.failures + 2))
        self.asm.emit(SetVar(count, ("const", 0), line))
        self.asm.place(head)
        self.asm.emit(Branch(more, self.asm.here() + 1, after, line))
        self.asm.emit(Branch(within, self.asm.here() + 2,
                             self.asm.here() + 1, line))
        self.asm.emit(FailStop(
            f"loop at line {line} needs more iterations than the failure "
            f"budget allows", line))
        if block.label == "for.head":
            self._bind(block.branch.target, ("index", ("var", seq), n),
                       frame, line)
        self.asm.emit(SetVar(count, ("bin", "+", n, ("const", 1)), line))

    # -- helpers -----------------------------------------------------------

    def _line(self, node, frame: _Frame) -> int:
        if frame.lineno_base:
            return frame.lineno_base
        return getattr(node, "lineno", 0)

    # -- statements --------------------------------------------------------

    def _stmt(self, node, frame: _Frame) -> None:
        line = self._line(node, frame)
        if isinstance(node, (ast.Pass, ast.Import, ast.ImportFrom,
                             ast.Assert, ast.Global, ast.Nonlocal,
                             ast.Delete, ast.FunctionDef,
                             ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are callbacks: calls to them are opaque
        if isinstance(node, ast.Expr):
            value = _unwrap_await(node.value)
            if isinstance(value, ast.Call):
                self._call_stmt(value, frame, out=None, line=line)
            return
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                raise ExtractError("chained assignment unsupported", line)
            self._assign(node.targets[0], node.value, frame, line)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, node.value, frame, line)
            return
        if isinstance(node, ast.AugAssign):
            var = frame.var(node.target.id) \
                if isinstance(node.target, ast.Name) \
                else self._record_var(node.target, frame)
            if var is not None:
                op = _BINOPS.get(type(node.op))
                if op is None:
                    raise ExtractError("unsupported augmented op", line)
                self.asm.emit(SetVar(
                    var, ("bin", op, ("var", var),
                          self._expr(node.value, frame)), line))
            return
        if isinstance(node, ast.Return):
            # the jump to the function's exit is the block's CFG edge
            value = _unwrap_await(node.value) if node.value else None
            if isinstance(value, ast.Call):
                tmp = f"__ret{self.asm.here()}__"
                self._call_stmt(value, frame, out=tmp, line=line)
                expr: tuple = ("var", tmp)
            elif node.value is not None:
                expr = self._expr(node.value, frame)
            else:
                expr = ("const", None)
            if frame.retvar is None:
                self.asm.emit(Return(expr, line))
            else:
                self.asm.emit(SetVar(frame.retvar, expr, line))
            return
        if isinstance(node, ast.Raise):
            self.asm.emit(FailStop(f"explicit raise at line {line}", line))
            return
        raise ExtractError(
            f"unsupported statement {type(node).__name__}", line)

    def _assign(self, target, value, frame: _Frame, line: int) -> None:
        value = _unwrap_await(value)
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                and len(target.elts) == len(value.elts) and not (
                    _names(target) & _names(value)):
            for elt, val in zip(target.elts, value.elts):
                self._assign(elt, val, frame, line)   # pairwise is exact
            return
        obj = self._object(value, frame)
        if isinstance(target, ast.Name) and obj is not None:
            frame.varmap[target.id] = obj
        elif not isinstance(value, ast.Call):
            self._bind(target, self._expr(value, frame), frame, line)
        elif isinstance(target, ast.Name):
            self._call_stmt(value, frame, out=frame.var(target.id),
                            line=line)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # state outside the app record still runs the call
            self._call_stmt(value, frame, self._record_var(target, frame),
                            line)
        else:
            tmp = f"__tmp{self.asm.here()}__"
            self._call_stmt(value, frame, out=tmp, line=line)
            self._bind(target, ("var", tmp), frame, line)

    def _bind(self, target, expr: tuple, frame: _Frame, line: int) -> None:
        """``target = expr`` for a name, an app-record attribute or a flat
        tuple of those (also the per-iteration binding of a ``for``
        target).  Attributes outside the record are dropped."""
        if isinstance(target, ast.Name):
            self.asm.emit(SetVar(frame.var(target.id), expr, line))
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            var = self._record_var(target, frame)
            if var is not None:
                self.asm.emit(SetVar(var, expr, line))
            return
        if not isinstance(target, (ast.Tuple, ast.List)):
            raise ExtractError("unsupported assignment target", line)
        if expr[0] != "var":
            tmp = f"__tmp{self.asm.here()}__"
            self.asm.emit(SetVar(tmp, expr, line))
            expr = ("var", tmp)
        for i, elt in enumerate(target.elts):
            if isinstance(elt, (ast.Tuple, ast.List, ast.Starred)):
                raise ExtractError("nested unpack unsupported", line)
            self._bind(elt, ("index", expr, ("const", i)), frame, line)

    # -- calls -------------------------------------------------------------

    def _call_stmt(self, call: ast.Call, frame: _Frame,
                   out: Optional[str], line: int) -> None:
        """A call in statement position: op, intrinsic, inline or drop."""
        func = call.func
        obj, path = self._ref(func, frame) or (None, "")
        # intrinsic value calls (also usable in expression position)
        intr = self._intrinsic_expr(call, frame)
        if intr is not None:
            if out:
                self.asm.emit(SetVar(out, intr, line))
            return
        # the context, the checkpoint vocabulary and the abstraction
        # table, then methods of bound objects
        entry = self._lookup(obj, path) if obj else \
            self.table.get(getattr(func, "id", None))
        if entry is not None:
            self._apply(entry, call, frame, out, line)
            return
        found = self._method(obj, path) if obj else None
        if found and _is_protocol_function(found[0]):
            self._inline(*found, call, frame, out, line, self_obj=obj)
            return
        if isinstance(func, ast.Attribute) and func.attr in METHODS \
                and obj in (None, _APP):
            # communicator methods (an app-record receiver is a variable)
            self._op_call(call, frame, out, line)
            return
        # inlinable protocol functions
        if isinstance(func, ast.Name):
            inlined = self._resolve_inline(func.id, frame)
            if inlined is not None:
                self._inline(inlined[0], inlined[1], call, frame, out, line)
                return
        if out:
            self.asm.emit(SetVar(out, ("opaque",), line))

    # -- bound objects and the abstraction table ---------------------------

    def _ref(self, node, frame: _Frame) -> Optional[Tuple[tuple, str]]:
        """``(object, attribute path)`` for a chain of attributes and
        constant subscripts rooted at a bound object, else None.  An
        attribute the table declares an object starts a new chain."""
        if isinstance(node, ast.Name):
            obj = frame.varmap.get(node.id)
            return (obj, "") if isinstance(obj, tuple) else None
        if isinstance(node, ast.Attribute):
            part = "." + node.attr
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.slice, ast.Constant):
            part = f"[{node.slice.value!r}]"
        else:
            return None
        base = self._ref(node.value, frame)
        if base is None:
            return None
        path = (base[1] + part).lstrip(".")
        entry = self._lookup(base[0], path)
        if entry is not None and entry[0] in ("object", "class"):
            return (entry, "")
        return (base[0], path)

    def _object(self, node, frame: _Frame) -> Optional[tuple]:
        obj, path = self._ref(node, frame) or (None, "")
        return None if path else obj

    def _record_var(self, node, frame: _Frame) -> Optional[str]:
        """The model variable for an app-record attribute, else None."""
        obj, path = self._ref(node, frame) or (None, "")
        return "app." + path if obj == _APP and path else None

    def _classes(self, obj: tuple) -> List[str]:
        """The registry classes a bound object's methods and class
        attributes come from, nearest first."""
        node = self.registry.get(obj[1], (None,))[0]
        if obj[0] != "class" or not isinstance(node, ast.ClassDef):
            return []
        return [obj[1]] + [c for base in node.bases if isinstance(
            base, ast.Name) for c in self._classes(("class", base.id))]

    def _lookup(self, obj: tuple, path: str):
        names = self._classes(obj) or [obj[1]]
        return next((self.table[f"{name}.{path}"] for name in names
                     if f"{name}.{path}" in self.table), None)

    def _members(self, obj: tuple):
        """``(statement, module env)`` of every class-body statement of a
        bound object, nearest class first."""
        return [(item, self.registry[c][1]) for c in self._classes(obj)
                for item in self.registry[c][0].body]

    def _method(self, obj: tuple, name: str):
        return next(((item, env) for item, env in self._members(obj)
                     if isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     and item.name == name), None)

    def _class_const(self, obj: tuple, name: str) -> tuple:
        """A class attribute bound to a literal, else opaque."""
        for item, _ in self._members(obj):
            target = item.targets[0] if isinstance(item, ast.Assign) \
                else getattr(item, "target", None)
            if isinstance(target, ast.Name) and target.id == name:
                return self._default_expr(getattr(item, "value", None))
        return ("opaque",)

    def _apply(self, entry, call: ast.Call, frame: _Frame,
               out: Optional[str], line: int) -> None:
        """Emit a table entry for ``call``: a value, or its effects."""
        if isinstance(entry[0], str):
            if out:
                self.asm.emit(SetVar(out, self._subst(entry, call, frame,
                                                      None), line))
            return
        result = out or f"__tmp{self.asm.here()}__"

        def sub(expr):
            return self._subst(expr, call, frame, result)

        for effect in entry:
            if effect[0] == "op":
                _, kind, comm, args = effect
                self.asm.emit(Op(kind, comm and sub(comm), result,
                                 {k: sub(v) for k, v in args.items()},
                                 line, frame.handler))
            else:
                self.asm.emit(SetVar(effect[1], sub(effect[2]), line))

    def _subst(self, expr: tuple, call, frame: _Frame,
               result: Optional[str]) -> tuple:
        """``expr`` with ``("arg", i, name)`` lowered from ``call``'s
        argument ``i`` or keyword ``name``, and ``("result",)`` the
        effect's result variable."""
        tag = expr[0]
        if tag == "const":
            return expr
        if tag == "result":
            return ("var", result)
        if tag == "var" and expr[1].startswith("app."):
            self._reads.add(expr[1])
        if tag == "arg":
            args = call.args if call is not None else []
            node = args[expr[1]] if expr[1] < len(args) else next(
                (kw.value for kw in (call.keywords if call else [])
                 if kw.arg == expr[2]), None)
            return ("opaque",) if node is None else self._expr(node, frame)
        return (tag,) + tuple(self._subst(x, call, frame, result)
                              if isinstance(x, tuple) else x
                              for x in expr[1:])

    def _op_call(self, call: ast.Call, frame: _Frame,
                 out: Optional[str], line: int) -> None:
        func = call.func
        kind, arg_names = METHODS[func.attr]
        comm = self._expr(func.value, frame)
        if comm == ("opaque",):
            # method on something we don't track (timers, solvers)
            if out:
                self.asm.emit(SetVar(out, ("opaque",), line))
            return
        args: Dict[str, tuple] = {}
        for i, arg in enumerate(call.args):
            if i < len(arg_names):
                name = arg_names[i]
                args[name] = self._reduce_op(arg) if name == "op" \
                    else self._expr(arg, frame)
        for kw in call.keywords:
            if kw.arg:
                args[kw.arg] = self._reduce_op(kw.value) if kw.arg == "op" \
                    else self._expr(kw.value, frame)
        for dropped in ("entry", "argv", "host_names"):
            args.pop(dropped, None)
        if kind == "spawn" and "count" not in args:
            raise ExtractError("spawn without a child count", line)
        self.asm.emit(Op(kind, comm, out, args, line, frame.handler))

    @staticmethod
    def _reduce_op(node) -> tuple:
        """Map a reduction-op argument (``op=MAX``) to model vocabulary
        by *name* — reduction constants are imported, not module consts."""
        name = node.id if isinstance(node, ast.Name) else \
            (node.attr if isinstance(node, ast.Attribute) else None)
        return ("const", _REDUCE_NAMES.get(name, "max") if name else "max")

    def _intrinsic_expr(self, call: ast.Call, frame: _Frame
                        ) -> Optional[tuple]:
        func = call.func
        if not isinstance(func, ast.Name):
            return None
        name = func.id
        if name == "len" and len(call.args) == 1:
            return ("len", self._expr(call.args[0], frame))
        if name == "range" and not call.keywords:
            return ("range",) + tuple(self._expr(a, frame)
                                      for a in call.args)
        if name == "enumerate" and len(call.args) == 1:
            return ("enumerate", self._expr(call.args[0], frame))
        if name in ("max", "min") and len(call.args) == 2:
            return ("bin", name, self._expr(call.args[0], frame),
                    self._expr(call.args[1], frame))
        if name == "failed_procs_list":
            return ("failed_pair", self._expr(call.args[0], frame))
        if name == "failed_count":
            return ("failed_count", self._expr(call.args[0], frame))
        if name == "replaced_ranks":   # the old communicator's dead slots
            return ("index", ("failed_pair",
                              self._expr(call.args[0], frame)), ("const", 0))
        if name == "select_rank_key":
            a = [self._expr(x, frame) for x in call.args]
            return ("select_key", a[0], a[1], a[2], a[3])
        if name in ("sorted", "tuple", "list", "int"):
            return self._expr(call.args[0], frame) if call.args else None
        return None

    def _resolve_inline(self, name: str, frame: _Frame
                        ) -> Optional[Tuple[ast.AST, ModuleEnv]]:
        fn, env = (frame.env.funcs[name], frame.env) \
            if name in frame.env.funcs else self.registry.get(name, (0, 0))
        return (fn, env) if _is_protocol_function(fn) else None

    def _inline(self, func: ast.AST, env: ModuleEnv, call: ast.Call,
                frame: _Frame, out: Optional[str], line: int,
                self_obj: Optional[tuple] = None) -> None:
        """Inline ``func`` at ``call``; a method gets ``self_obj`` as its
        first parameter."""
        if func.name in self._stack:
            raise ExtractError(
                f"recursive protocol call to {func.name}", line)
        if self._depth >= _MAX_INLINE_DEPTH:
            raise ExtractError(
                f"inline depth limit at call to {func.name}", line)
        self._depth += 1
        self._stack.append(func.name)
        prefix = f"__in{self._depth}_{func.name}__"
        sub = _Frame(env, prefix, lineno_base=line,
                     retvar=f"{prefix}ret", handler=frame.handler)
        params = list(func.args.posonlyargs) + list(func.args.args)
        if self_obj is not None:
            sub.varmap[params.pop(0).arg] = self_obj
        self._bind_params(func, params, call, frame, sub, line)
        self.asm.emit(SetVar(sub.retvar, ("const", None), line))
        self._body(func, sub)
        self._stack.pop()
        self._depth -= 1
        if out:
            self.asm.emit(SetVar(out, ("var", sub.retvar), line))

    def _bind_params(self, func: ast.AST, params: list, call: ast.Call,
                     frame: _Frame, sub: _Frame, line: int) -> None:
        defaults = list(func.args.defaults)
        bound: Dict[str, object] = {}
        for i, arg in enumerate(call.args):
            if i < len(params):
                bound[params[i].arg] = arg
        for kw in call.keywords:
            if kw.arg:
                bound[kw.arg] = kw.value
        pos_defaults = dict(zip([p.arg for p in params[-len(defaults):]],
                                defaults)) if defaults else {}
        kw_defaults = {p.arg: d for p, d in
                       zip(func.args.kwonlyargs, func.args.kw_defaults)
                       if d is not None}
        for p in params + list(func.args.kwonlyargs):
            name = p.arg
            node = bound.get(name)
            if node is not None and self._object(node, frame) is not None:
                sub.varmap[name] = self._object(node, frame)
                continue
            if node is not None:
                expr = self._expr(node, frame)
            elif name in pos_defaults:
                expr = self._default_expr(pos_defaults[name])
            elif name in kw_defaults:
                expr = self._default_expr(kw_defaults[name])
            else:
                expr = ("opaque",)
            self.asm.emit(SetVar(sub.var(name), expr, line))

    @staticmethod
    def _default_expr(node) -> tuple:
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (int, str, bool, type(None))):
            return ("const", node.value)
        if isinstance(node, ast.Tuple) and not node.elts:
            return ("const", ())
        return ("opaque",)

    # -- expressions -------------------------------------------------------

    def _expr(self, node, frame: _Frame) -> tuple:
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            # an awaited call inside an expression runs first, into a
            # temporary (``if not await strategy.child_join(app)``)
            tmp = f"__tmp{self.asm.here()}__"
            self._call_stmt(node.value, frame, tmp, self._line(node, frame))
            return ("var", tmp)
        node = _unwrap_await(node)
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, (int, bool, str, type(None))):
                return ("const", v)
            return ("opaque",)
        if isinstance(node, ast.Name):
            mapped = frame.varmap.get(node.id)
            if isinstance(mapped, str):
                return ("var", mapped)
            if mapped is None and node.id in frame.env.consts:
                return ("const", frame.env.consts[node.id])
            if node.id in ("True", "False", "None"):
                return ("const", {"True": True, "False": False,
                                  "None": None}[node.id])
            return ("opaque",)
        if isinstance(node, ast.Attribute) and \
                node.attr in ("rank", "size", "state"):
            base = self._expr(node.value, frame)
            if base != ("opaque",):
                # the model's communicator is its own state
                return base if node.attr == "state" else (node.attr, base)
        ref = self._ref(node, frame) if isinstance(
            node, (ast.Attribute, ast.Subscript)) else None
        if ref is not None:
            obj, path = ref
            entry = self._lookup(obj, path) if path else None
            if entry is not None and isinstance(entry[0], str):
                return self._subst(entry, None, frame, None)
            if obj == _APP and path:
                self._reads.add("app." + path)
                return ("var", "app." + path)
            if obj[0] == "class" and "." not in path:
                return self._class_const(obj, path)
            return ("opaque",)
        if isinstance(node, ast.Attribute):
            return ("opaque",)
        if isinstance(node, (ast.Tuple, ast.List)):
            # a starred element and those after it are one opaque tail
            stars = [isinstance(e, ast.Starred) for e in node.elts] + [True]
            return ("tuple",) + tuple(self._expr(e, frame) for e in
                                      node.elts[:stars.index(True)]) + \
                (("opaque",),) * any(stars[:-1])
        if isinstance(node, ast.IfExp):
            return ("ifexp", self._expr(node.test, frame),
                    self._expr(node.body, frame),
                    self._expr(node.orelse, frame))
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)) and \
                _is_column(node):
            (gen,) = node.generators
            return ("column", self._expr(gen.iter, frame),
                    ("const", node.elt.slice.value))
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                return ("opaque",)
            return ("bin", op, self._expr(node.left, frame),
                    self._expr(node.right, frame))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return ("not", self._expr(node.operand, frame))
            if isinstance(node.op, ast.USub):
                inner = self._expr(node.operand, frame)
                if inner[0] == "const" and isinstance(inner[1], int):
                    return ("const", -inner[1])
            return ("opaque",)
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            out = self._expr(node.values[0], frame)
            for v in node.values[1:]:
                out = (op, out, self._expr(v, frame))
            return out
        if isinstance(node, ast.Compare):
            if len(node.ops) != 1:
                return ("opaque",)
            a = self._expr(node.left, frame)
            b = self._expr(node.comparators[0], frame)
            cmp = type(node.ops[0])
            if cmp is ast.NotIn:
                return ("not", ("in", a, b))
            if cmp in _RELATIONS:
                return (_RELATIONS[cmp], a, b)
            sym = _CMPOPS.get(cmp)
            return ("cmp", sym, a, b) if sym else ("opaque",)
        if isinstance(node, ast.Subscript):
            return ("index", self._expr(node.value, frame),
                    self._expr(node.slice, frame))
        if isinstance(node, ast.Call):
            ref = self._ref(node.func, frame)
            entry = self._lookup(*ref) if ref else None
            if entry is not None and isinstance(entry[0], str):
                return self._subst(entry, node, frame, None)
            intr = self._intrinsic_expr(node, frame)
            return intr if intr is not None else ("opaque",)
        return ("opaque",)


_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
           ast.FloorDiv: "//", ast.Mod: "%"}
_CMPOPS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
           ast.Gt: ">", ast.GtE: ">="}
_RELATIONS = {ast.Is: "is", ast.IsNot: "isnot", ast.In: "in"}


def _unwrap_await(node):
    return node.value if isinstance(node, ast.Await) else node


def _names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_column(node) -> bool:
    """``x[i] for x in e``: one plain ``for``, no filter, a constant
    subscript of the loop variable."""
    gen, elt = node.generators[0], node.elt
    return (len(node.generators) == 1 and not gen.ifs
            and isinstance(elt, ast.Subscript)
            and isinstance(elt.slice, ast.Constant)
            and getattr(elt.value, "id", 0) == getattr(gen.target, "id", 1))


def _is_protocol_function(fn) -> bool:
    """Functions are inlined when they look like protocol code: any
    async def, or a sync helper that touches a communicator or the
    checkpoint store (``declare_failure``-style revoke wrappers).
    Everything else (placement, error-handler factories) stays opaque."""
    if isinstance(fn, ast.AsyncFunctionDef):
        return True
    if not isinstance(fn, ast.FunctionDef):
        return False
    for n in ast.walk(fn):
        if isinstance(n, ast.Call):
            if isinstance(n.func, ast.Attribute) and \
                    n.func.attr in METHODS:
                return True
            if isinstance(n.func, ast.Name) and \
                    n.func.id in ("ckpt_write", "ckpt_restore"):
                return True
    return False


def _first_line(block: Block) -> int:
    """Source line of the block's first statement or test; 0 if empty."""
    return min((n.lineno for n in [*block.stmts, block.test]
                if n is not None), default=0)


def _layout(cfg) -> List[Block]:
    """The blocks control can reach: entry first, the rest in source
    order (empty join blocks after them, by id), exit last."""
    live, todo = set(), [cfg.entry]
    while todo:
        bid = todo.pop()
        if bid not in live:
            live.add(bid)
            todo.extend(t for t, _ in cfg.blocks[bid].succs)
    inner = sorted(live - {cfg.entry, cfg.exit}, key=lambda bid: (
        _first_line(cfg.blocks[bid]) or float("inf"), bid))
    return [cfg.blocks[bid] for bid in [cfg.entry, *inner, cfg.exit]]


def _last_line(func) -> int:
    return getattr(func, "end_lineno", getattr(func, "lineno", 0)) or 0


def extract_function(func: ast.AST, env: ModuleEnv, *, failures: int = 1,
                     registry=None, name: Optional[str] = None) -> Skeleton:
    """Extract one entry-point function into a skeleton."""
    return Extractor(failures=failures, registry=registry).extract(
        func, env, name)


def extract_app(registry, table: dict, *, failures: int = 1,
                name: str = "CombinationApp.run") -> Skeleton:
    """Extract the shipped app's entry point — one skeleton for launched
    and re-spawned ranks alike — through the abstraction ``table``."""
    return Extractor(failures=failures, registry=registry,
                     table=table).extract_app(name)
