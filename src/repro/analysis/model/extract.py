"""Protocol-skeleton extraction: Python AST -> protocol IR.

The extractor abstracts one ``async def`` per-rank entry point into a
:class:`~repro.analysis.model.ir.Skeleton`.  Communication calls become
IR ops, control flow becomes branches with every loop unrolled to a
failure-budget-derived bound, called protocol functions (module-local or
the shipped ``repro.ft`` repair loops) are inlined with renamed locals,
and everything else — timers, spans, error-handler plumbing, host
placement — collapses to opaque values.  Branching on an opaque value
makes the checker explore both outcomes, so dropping detail is always
sound (it can only add behaviours, never hide one).

Loop bounds
-----------

* ``range(...)`` over a small static count (<= ``FULL_UNROLL_LIMIT``)
  is unrolled completely — segment loops.
* ``range(...)`` over a large static count is a retry loop: it is
  unrolled ``failures + 1`` times (one attempt per possible failure
  plus the final clean attempt) followed by a ``FailStop`` — reaching
  it would mean the protocol needed more retries than failures, which
  the checker reports.
* ``while`` loops unroll ``failures + 2`` times (detect, repair,
  validate) with the same ``FailStop`` backstop.
* loops over a runtime sequence (failed-rank lists) unroll ``failures``
  times, each iteration guarded by a length check.

Name resolution for calls, in order: context intrinsics
(``ctx.get_parent`` and friends), protocol intrinsics
(``failed_procs_list``, ``replaced_ranks``, ``select_rank_key``, checkpoint
and lint-stub vocabulary), communicator methods (the op table), inlinable
functions (module-local defs, then the cross-module registry), then opaque.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .ir import Asm, Branch, FailStop, Jump, Op, Return, SetVar, Skeleton, \
    TryPop, TryPush

__all__ = ["ExtractError", "ModuleEnv", "build_module_env",
           "extract_function", "find_protocol_models",
           "reconstruct_registry", "FULL_UNROLL_LIMIT"]

#: static loop counts up to this are unrolled in full; larger counts are
#: treated as retry bounds
FULL_UNROLL_LIMIT = 8

_MAX_INLINE_DEPTH = 5

#: communicator method -> (op kind, positional arg names)
_OP_METHODS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
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
    "alltoall": ("alltoall", ("value",)),
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

#: args dropped from ops (modelled implicitly or irrelevant)
_DROPPED_OP_ARGS = {"entry", "argv", "host_names", "op_root"}

#: reduction-op constant names -> model vocabulary
_REDUCE_NAMES = {"MAX": "max", "MIN": "min", "SUM": "sum",
                 "LAND": "and", "BAND": "and", "PROD": "sum"}

_CTX = object()   # varmap marker: this name is the context object

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


def build_module_env(tree: ast.Module, path: str,
                     const_overrides: Optional[Dict[str, object]] = None
                     ) -> ModuleEnv:
    consts: Dict[str, object] = {}
    funcs: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, (int, str, bool)):
            consts[node.targets[0].id] = node.value.value
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs[node.name] = node
    if const_overrides:
        consts.update(const_overrides)
    return ModuleEnv(consts, funcs, path)


#: the shipped protocol functions, by source file under ``repro/ft``
_SHIPPED = {
    "reconstruct.py": ("communicator_reconstruct", "repair_comm"),
    "strategy.py": ("shrink_detect_repair", "nc_detect_repair"),
}


def reconstruct_registry(sources: Optional[Dict[str, str]] = None
                         ) -> Dict[str, Tuple[ast.AST, ModuleEnv]]:
    """The shipped recovery protocol as an inline registry: extraction
    targets call the Fig. 3/5 pipeline or a mode's detect-and-repair loop
    by name and get the *real* ``repro.ft`` code inlined.  ``sources``
    substitutes the text of a file (name -> source) for what is on disk,
    which is how the mutation tests show the models read this code."""
    from ... import ft
    registry = {}
    for fname, names in _SHIPPED.items():
        path = Path(ft.__file__).parent / fname
        text = (sources or {}).get(fname) or path.read_text()
        env = build_module_env(ast.parse(text), str(path))
        for name in names:
            if name not in env.funcs:
                raise ExtractError(f"{path} no longer defines {name}")
            registry[name] = (env.funcs[name], env)
    return registry


# --------------------------------------------------------------------------
# annotation discovery


def find_protocol_models(tree: ast.Module, source: str
                         ) -> List[Tuple[ast.AST, Dict[str, object]]]:
    """Top-level functions marked as protocol models, via the
    ``@protocol_model(...)`` decorator or a ``# repro: protocol`` comment
    on the ``def`` line.  Returns ``(funcdef, params)`` pairs with params
    like ``{"ranks": 4, "failures": 1, "child": "name"}``."""
    lines = source.splitlines()
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _decorator_params(node)
        if params is None and node.lineno <= len(lines):
            params = _comment_params(lines[node.lineno - 1])
        if params is None and node.lineno >= 2:
            prev = lines[node.lineno - 2].strip()
            if prev.startswith("#"):
                params = _comment_params(prev)
        if params is not None:
            found.append((node, params))
    return found


def _decorator_params(node) -> Optional[Dict[str, object]]:
    for dec in node.decorator_list:
        call = dec if isinstance(dec, ast.Call) else None
        target = call.func if call else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            (target.id if isinstance(target, ast.Name) else None)
        if name != "protocol_model":
            continue
        params: Dict[str, object] = {}
        if call:
            for kw in call.keywords:
                if isinstance(kw.value, ast.Constant):
                    params[kw.arg] = kw.value.value
                elif isinstance(kw.value, ast.Name):
                    params[kw.arg] = kw.value.id
        return params
    return None


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
                 retvar: Optional[str]):
        self.env = env
        self.prefix = prefix
        # inlined frames anchor every instruction at the call site so
        # findings always point into the annotated file
        self.lineno_base = lineno_base
        self.retvar = retvar            # None in the top frame
        self.varmap: Dict[str, object] = {}
        self.const_hints: Dict[str, int] = {}
        self.ret_jumps: List[int] = []
        self.loop_stack: List[Dict[str, List[int]]] = []

    def var(self, name: str) -> str:
        mapped = self.varmap.get(name)
        if mapped is None:
            mapped = self.prefix + name if self.prefix else name
            self.varmap[name] = mapped
        return mapped


class Extractor:
    def __init__(self, *, failures: int = 1,
                 registry: Optional[Dict[str, Tuple[ast.AST, ModuleEnv]]]
                 = None):
        self.failures = failures
        self.registry = registry or {}
        self.asm = Asm()
        self._depth = 0
        self._stack: List[str] = []

    # -- public entry ------------------------------------------------------

    def extract(self, func: ast.AST, env: ModuleEnv,
                name: Optional[str] = None) -> Skeleton:
        frame = _Frame(env, prefix="", lineno_base=0, retvar=None)
        args = func.args.args
        if args and args[0].arg in ("ctx", "self"):
            frame.varmap[args[0].arg] = _CTX
            args = args[1:]
        if args:
            frame.varmap[args[0].arg] = "__world__"
        for extra in args[1:]:
            self.asm.emit(SetVar(frame.var(extra.arg), ("opaque",),
                                 func.lineno))
        self._stmts(func.body, frame)
        for idx in frame.ret_jumps:
            self.asm.patch(idx, "target")
        self.asm.emit(Return(("const", None), _last_line(func)))
        return self.asm.finish(name or func.name, env.path)

    # -- helpers -----------------------------------------------------------

    def _line(self, node, frame: _Frame) -> int:
        if frame.lineno_base:
            return frame.lineno_base
        return getattr(node, "lineno", 0)

    def _stmts(self, body, frame: _Frame) -> None:
        for node in body:
            self._stmt(node, frame)

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
            if isinstance(node.target, ast.Name):
                op = _BINOPS.get(type(node.op))
                if op is None:
                    raise ExtractError("unsupported augmented op", line)
                var = frame.var(node.target.id)
                frame.const_hints.pop(var, None)
                self.asm.emit(SetVar(
                    var, ("bin", op, ("var", var),
                          self._expr(node.value, frame)), line))
            return
        if isinstance(node, ast.If):
            self._if(node, frame)
            return
        if isinstance(node, ast.While):
            self._while(node, frame)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._for(node, frame)
            return
        if isinstance(node, ast.Try):
            self._try(node, frame)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._stmts(node.body, frame)
            return
        if isinstance(node, ast.Return):
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
                frame.ret_jumps.append(self.asm.emit(Jump(lineno=line)))
            return
        if isinstance(node, ast.Raise):
            self.asm.emit(FailStop(f"explicit raise at line {line}", line))
            return
        if isinstance(node, ast.Break):
            if not frame.loop_stack:
                raise ExtractError("break outside loop", line)
            frame.loop_stack[-1]["breaks"].append(
                self.asm.emit(Jump(lineno=line)))
            return
        if isinstance(node, ast.Continue):
            if not frame.loop_stack:
                raise ExtractError("continue outside loop", line)
            frame.loop_stack[-1]["continues"].append(
                self.asm.emit(Jump(lineno=line)))
            return
        raise ExtractError(
            f"unsupported statement {type(node).__name__}", line)

    def _assign(self, target, value, frame: _Frame, line: int) -> None:
        value = _unwrap_await(value)
        if isinstance(target, ast.Name):
            out = frame.var(target.id)
            frame.const_hints.pop(out, None)
            if isinstance(value, ast.Call):
                self._call_stmt(value, frame, out=out, line=line)
            else:
                expr = self._expr(value, frame)
                if expr[0] == "const" and isinstance(expr[1], int) \
                        and not isinstance(expr[1], bool):
                    frame.const_hints[out] = expr[1]
                self.asm.emit(SetVar(out, expr, line))
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            tmp = f"__tmp{self.asm.here()}__"
            if isinstance(value, ast.Call):
                self._call_stmt(value, frame, out=tmp, line=line)
            else:
                self.asm.emit(SetVar(tmp, self._expr(value, frame), line))
            for i, elt in enumerate(target.elts):
                if not isinstance(elt, ast.Name):
                    raise ExtractError("nested unpack unsupported", line)
                self.asm.emit(SetVar(
                    frame.var(elt.id),
                    ("index", ("var", tmp), ("const", i)), line))
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            return  # attribute/container state is outside the abstraction
        raise ExtractError("unsupported assignment target", line)

    # -- calls -------------------------------------------------------------

    def _call_stmt(self, call: ast.Call, frame: _Frame,
                   out: Optional[str], line: int) -> None:
        """A call in statement position: op, intrinsic, inline or drop."""
        func = call.func
        # context methods
        if isinstance(func, ast.Attribute) and \
                frame.varmap.get(_receiver_name(func)) is _CTX:
            if func.attr == "get_parent":
                if out:
                    self.asm.emit(SetVar(out, ("var", "__parent__"), line))
                return
            if func.attr == "set_parent_null":
                self.asm.emit(SetVar("__parent__", ("const", None), line))
                return
            if out:  # wtime(), compute(), universe accessors, ...
                self.asm.emit(SetVar(out, ("opaque",), line))
            return
        # checkpoint vocabulary
        if isinstance(func, ast.Name) and func.id == "ckpt_write":
            self.asm.emit(Op("ckpt_write", None, None,
                             {"group": self._expr(call.args[0], frame),
                              "epoch": self._expr(call.args[1], frame)},
                             line))
            return
        if isinstance(func, ast.Name) and func.id == "ckpt_restore":
            self.asm.emit(Op("ckpt_restore", None, out,
                             {"group": self._expr(call.args[0], frame)},
                             line))
            return
        # intrinsic value calls (also usable in expression position)
        intr = self._intrinsic_expr(call, frame)
        if intr is not None:
            if out:
                self.asm.emit(SetVar(out, intr, line))
            return
        # communicator methods
        if isinstance(func, ast.Attribute) and func.attr in _OP_METHODS:
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

    def _op_call(self, call: ast.Call, frame: _Frame,
                 out: Optional[str], line: int) -> None:
        func = call.func
        kind, arg_names = _OP_METHODS[func.attr]
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
        self.asm.emit(Op(kind, comm, out, args, line))

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
        if name == "failed_procs_list":
            return ("failed_pair", self._expr(call.args[0], frame))
        if name == "failed_count":
            return ("failed_count", self._expr(call.args[0], frame))
        if name == "replaced_ranks":   # the old communicator's dead slots
            return ("index", ("failed_pair",
                              self._expr(call.args[0], frame)), ("const", 0))
        if name == "known_failed_ranks":
            return ("known_failed",)
        if name == "world_comm":
            return ("world_comm",)
        if name == "select_rank_key":
            a = [self._expr(x, frame) for x in call.args]
            return ("select_key", a[0], a[1], a[2], a[3])
        if name == "grids_of":
            return ("map_div", ("union_flat",
                                self._expr(call.args[0], frame)),
                    self._expr(call.args[1], frame))
        if name in ("sorted", "tuple", "list"):
            return self._expr(call.args[0], frame) if call.args else None
        return None

    def _resolve_inline(self, name: str, frame: _Frame
                        ) -> Optional[Tuple[ast.AST, ModuleEnv]]:
        if name in frame.env.funcs:
            fn = frame.env.funcs[name]
            if _is_protocol_function(fn):
                return (fn, frame.env)
            return None
        if name in self.registry:
            return self.registry[name]
        return None

    def _inline(self, func: ast.AST, env: ModuleEnv, call: ast.Call,
                frame: _Frame, out: Optional[str], line: int) -> None:
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
                     retvar=f"{prefix}ret")
        self._bind_params(func, call, frame, sub, line)
        self.asm.emit(SetVar(sub.retvar, ("const", None), line))
        self._stmts(func.body, sub)
        for idx in sub.ret_jumps:
            self.asm.patch(idx, "target")
        self._stack.pop()
        self._depth -= 1
        if out:
            self.asm.emit(SetVar(out, ("var", sub.retvar), line))

    def _bind_params(self, func: ast.AST, call: ast.Call, frame: _Frame,
                     sub: _Frame, line: int) -> None:
        params = list(func.args.posonlyargs) + list(func.args.args)
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
            if node is not None and isinstance(node, ast.Name) and \
                    frame.varmap.get(node.id) is _CTX:
                sub.varmap[name] = _CTX
                continue
            if node is not None:
                expr = self._expr(node, frame)
            elif name in pos_defaults:
                expr = self._default_expr(pos_defaults[name])
            elif name in kw_defaults:
                expr = self._default_expr(kw_defaults[name])
            else:
                expr = ("opaque",)
            var = sub.var(name)
            if expr[0] == "const" and isinstance(expr[1], int) \
                    and not isinstance(expr[1], bool):
                sub.const_hints[var] = expr[1]
            self.asm.emit(SetVar(var, expr, line))

    @staticmethod
    def _default_expr(node) -> tuple:
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (int, str, bool, type(None))):
            return ("const", node.value)
        if isinstance(node, ast.Tuple) and not node.elts:
            return ("const", ())
        return ("opaque",)

    # -- control flow ------------------------------------------------------

    def _if(self, node: ast.If, frame: _Frame) -> None:
        line = self._line(node, frame)
        br = self.asm.emit(Branch(self._expr(node.test, frame),
                                  lineno=line))
        self.asm.patch(br, "then_pc")
        self._stmts(node.body, frame)
        j = self.asm.emit(Jump(lineno=line))
        self.asm.patch(br, "else_pc")
        self._stmts(node.orelse, frame)
        self.asm.patch(j, "target")

    def _try(self, node: ast.Try, frame: _Frame) -> None:
        line = self._line(node, frame)
        if node.finalbody or node.orelse:
            raise ExtractError("try finally/else unsupported", line)
        if len(node.handlers) != 1:
            raise ExtractError("exactly one except handler supported", line)
        handler = node.handlers[0]
        tp = self.asm.emit(TryPush(lineno=line))
        self._stmts(node.body, frame)
        self.asm.emit(TryPop(lineno=line))
        j = self.asm.emit(Jump(lineno=line))
        self.asm.patch(tp, "handler")
        self._stmts(handler.body, frame)
        self.asm.patch(j, "target")

    def _while(self, node: ast.While, frame: _Frame) -> None:
        line = self._line(node, frame)
        bound = self.failures + 2
        ctx = {"breaks": [], "continues": []}
        frame.loop_stack.append(ctx)
        exits: List[int] = []
        for _ in range(bound):
            for idx in ctx["continues"]:
                self.asm.patch(idx, "target")
            ctx["continues"] = []
            br = self.asm.emit(Branch(self._expr(node.test, frame),
                                      lineno=line))
            self.asm.patch(br, "then_pc")
            exits.append(br)
            self._stmts(node.body, frame)
        for idx in ctx["continues"]:
            self.asm.patch(idx, "target")
        final = self.asm.emit(Branch(self._expr(node.test, frame),
                                     lineno=line))
        self.asm.patch(final, "then_pc")
        self.asm.emit(FailStop(
            f"loop at line {line} exceeded {bound} unrolled iterations",
            line))
        self.asm.patch(final, "else_pc")
        for br in exits:
            self.asm.patch(br, "else_pc")
        frame.loop_stack.pop()
        for idx in ctx["breaks"]:
            self.asm.patch(idx, "target")

    def _for(self, node, frame: _Frame) -> None:
        line = self._line(node, frame)
        if node.orelse:
            raise ExtractError("for-else unsupported", line)
        rng = self._static_range(node.iter, frame)
        if rng is not None and len(rng) <= FULL_UNROLL_LIMIT:
            self._for_static(node, frame, rng, line)
        elif rng is not None:
            self._for_retry(node, frame, line)
        else:
            self._for_dynamic(node, frame, line)

    def _for_static(self, node, frame: _Frame, values, line: int) -> None:
        if not isinstance(node.target, ast.Name):
            raise ExtractError("static loop target must be a name", line)
        ctx = {"breaks": [], "continues": []}
        frame.loop_stack.append(ctx)
        var = frame.var(node.target.id)
        for v in values:
            for idx in ctx["continues"]:
                self.asm.patch(idx, "target")
            ctx["continues"] = []
            frame.const_hints[var] = v
            self.asm.emit(SetVar(var, ("const", v), line))
            self._stmts(node.body, frame)
        frame.const_hints.pop(var, None)
        frame.loop_stack.pop()
        for idx in ctx["continues"] + ctx["breaks"]:
            self.asm.patch(idx, "target")

    def _for_retry(self, node, frame: _Frame, line: int) -> None:
        """A wide static range is a retry loop: one attempt per possible
        failure plus one clean attempt, then the abstraction bound."""
        ctx = {"breaks": [], "continues": []}
        frame.loop_stack.append(ctx)
        attempts = self.failures + 1
        var = frame.var(node.target.id) if isinstance(node.target, ast.Name) \
            else None
        for k in range(attempts):
            for idx in ctx["continues"]:
                self.asm.patch(idx, "target")
            ctx["continues"] = []
            if var:
                self.asm.emit(SetVar(var, ("const", k), line))
            self._stmts(node.body, frame)
        for idx in ctx["continues"]:
            self.asm.patch(idx, "target")
        self.asm.emit(FailStop(
            f"retry loop at line {line} exceeded {attempts} attempts "
            f"within the failure budget", line))
        frame.loop_stack.pop()
        for idx in ctx["breaks"]:
            self.asm.patch(idx, "target")

    def _for_dynamic(self, node, frame: _Frame, line: int) -> None:
        """Loop over a runtime sequence (e.g. the failed-rank list):
        unroll to the failure budget with a length guard per copy."""
        it = node.iter
        enum = False
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "enumerate":
            enum = True
            it = it.args[0]
        seq = self._expr(it, frame)
        tmp = f"__seq{self.asm.here()}__"
        self.asm.emit(SetVar(tmp, seq, line))
        ctx = {"breaks": [], "continues": []}
        frame.loop_stack.append(ctx)
        guards: List[int] = []
        for k in range(max(self.failures, 1)):
            for idx in ctx["continues"]:
                self.asm.patch(idx, "target")
            ctx["continues"] = []
            br = self.asm.emit(Branch(
                ("cmp", ">", ("len", ("var", tmp)), ("const", k)),
                lineno=line))
            self.asm.patch(br, "then_pc")
            guards.append(br)
            self._bind_loop_target(node.target, tmp, k, enum, frame, line)
            self._stmts(node.body, frame)
        for idx in ctx["continues"]:
            self.asm.patch(idx, "target")
        over = self.asm.emit(Branch(
            ("cmp", ">", ("len", ("var", tmp)),
             ("const", max(self.failures, 1))), lineno=line))
        self.asm.patch(over, "then_pc")
        self.asm.emit(FailStop(
            f"sequence loop at line {line} longer than the failure "
            f"budget", line))
        self.asm.patch(over, "else_pc")
        for br in guards:
            self.asm.patch(br, "else_pc")
        frame.loop_stack.pop()
        for idx in ctx["breaks"]:
            self.asm.patch(idx, "target")

    def _bind_loop_target(self, target, tmp: str, k: int, enum: bool,
                          frame: _Frame, line: int) -> None:
        item = ("index", ("var", tmp), ("const", k))
        if enum:
            if not (isinstance(target, ast.Tuple)
                    and len(target.elts) == 2
                    and all(isinstance(e, ast.Name) for e in target.elts)):
                raise ExtractError("enumerate target must be (i, x)", line)
            self.asm.emit(SetVar(frame.var(target.elts[0].id),
                                 ("const", k), line))
            self.asm.emit(SetVar(frame.var(target.elts[1].id), item, line))
        elif isinstance(target, ast.Name):
            self.asm.emit(SetVar(frame.var(target.id), item, line))
        else:
            raise ExtractError("unsupported loop target", line)

    def _static_range(self, it, frame: _Frame) -> Optional[range]:
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and not it.keywords):
            return None
        vals = [self._const_int(a, frame) for a in it.args]
        if any(v is None for v in vals):
            return None
        if len(vals) == 1:
            return range(vals[0])
        if len(vals) == 2:
            return range(vals[0], vals[1])
        return range(vals[0], vals[1], vals[2])

    def _const_int(self, node, frame: _Frame) -> Optional[int]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in frame.env.consts and \
                    isinstance(frame.env.consts[node.id], int):
                if node.id not in frame.varmap:
                    return frame.env.consts[node.id]
            mapped = frame.varmap.get(node.id)
            if isinstance(mapped, str):
                return frame.const_hints.get(mapped)
            return None
        if isinstance(node, ast.BinOp):
            a = self._const_int(node.left, frame)
            b = self._const_int(node.right, frame)
            op = _BINOPS.get(type(node.op))
            if a is None or b is None or op is None:
                return None
            return {"+": a + b, "-": a - b, "*": a * b,
                    "//": a // b if b else None,
                    "%": a % b if b else None}.get(op)
        return None

    # -- expressions -------------------------------------------------------

    def _expr(self, node, frame: _Frame) -> tuple:
        node = _unwrap_await(node)
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, (int, bool, str, type(None))):
                return ("const", v)
            return ("opaque",)
        if isinstance(node, ast.Name):
            mapped = frame.varmap.get(node.id)
            if mapped is _CTX:
                return ("opaque",)
            if isinstance(mapped, str):
                return ("var", mapped)
            if node.id in frame.env.consts:
                return ("const", frame.env.consts[node.id])
            if node.id in ("True", "False", "None"):
                return ("const", {"True": True, "False": False,
                                  "None": None}[node.id])
            return ("opaque",)
        if isinstance(node, ast.Attribute):
            if node.attr in ("rank", "size"):
                base = self._expr(node.value, frame)
                if base != ("opaque",):
                    return (node.attr, base)
            return ("opaque",)
        if isinstance(node, (ast.Tuple, ast.List)):
            return ("tuple",) + tuple(self._expr(e, frame)
                                      for e in node.elts)
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
            cmp = node.ops[0]
            if isinstance(cmp, ast.Is):
                return ("is", a, b)
            if isinstance(cmp, ast.IsNot):
                return ("isnot", a, b)
            if isinstance(cmp, ast.In):
                return ("in", a, b)
            if isinstance(cmp, ast.NotIn):
                return ("not", ("in", a, b))
            sym = _CMPOPS.get(type(cmp))
            return ("cmp", sym, a, b) if sym else ("opaque",)
        if isinstance(node, ast.Subscript):
            return ("index", self._expr(node.value, frame),
                    self._expr(node.slice, frame))
        if isinstance(node, ast.Call):
            intr = self._intrinsic_expr(node, frame)
            return intr if intr is not None else ("opaque",)
        if isinstance(node, (ast.IfExp, ast.JoinedStr, ast.Dict,
                             ast.Set, ast.ListComp, ast.SetComp,
                             ast.GeneratorExp, ast.DictComp,
                             ast.Starred, ast.Lambda)):
            return ("opaque",)
        return ("opaque",)


_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
           ast.FloorDiv: "//", ast.Mod: "%"}
_CMPOPS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
           ast.Gt: ">", ast.GtE: ">="}


def _unwrap_await(node):
    return node.value if isinstance(node, ast.Await) else node


def _receiver_name(func: ast.Attribute) -> Optional[str]:
    return func.value.id if isinstance(func.value, ast.Name) else None


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
                    n.func.attr in _OP_METHODS:
                return True
            if isinstance(n.func, ast.Name) and \
                    n.func.id in ("ckpt_write", "ckpt_restore"):
                return True
    return False


def _last_line(func) -> int:
    return getattr(func, "end_lineno", getattr(func, "lineno", 0)) or 0


def extract_function(func: ast.AST, env: ModuleEnv, *, failures: int = 1,
                     registry=None, name: Optional[str] = None) -> Skeleton:
    """Extract one entry-point function into a skeleton."""
    return Extractor(failures=failures, registry=registry).extract(
        func, env, name)
