"""Call classification and interprocedural effect summaries (ULF002, and
the substrate of ULF011-ULF013).

The sweep engine's content-addressed :class:`~repro.sweep.cache.RunCache`
is only sound if a cacheable task is a *pure function* of its arguments,
and the hot-path object caches (``cached_scheme`` / ``layout_for``)
are only sound if the shared instances they hand out never escape into
mutable long-lived state.  Both cache-safety rules need the same
ingredient: per-function *effect summaries* solved over the module-local
call graph, exactly like ULF010's ``syncs``/``writes_unsynced`` pass but
over a richer lattice.

:class:`EffectsStore` computes, in two phases:

1. **direct effects** per function (one shallow AST walk each):

   ==============  =====================================================
   global_write    ``global``/``nonlocal`` declaration plus a write to
                   one of the declared names
   io              file/disk traffic: ``open``, ``Path.write_text``-
                   style methods, ``os``/``shutil``/``subprocess``
                   calls, environment reads
   rng             the process-global ``random`` module or an unseeded
                   ``random.Random()``
   clock           wall-clock reads (``time.time``, ``datetime.now``,
                   ``perf_counter``, ...)
   shared_return   the function returns a shared cached object — a
                   frozen-provider result, an ``lru_cache``-decorated
                   function of this module, or a pass-through of either
   ==============  =====================================================

2. **transitive closure** over the module-local call graph (plain names
   and ``self.method(...)``, via :class:`~.ckptsync.Resolver`): a caller
   inherits every impurity kind of its local callees, witnessed at the
   call site with the call chain recorded; ``shared_return`` propagates
   only through ``return helper(...)`` / ``return name`` shapes.  Each
   bit only ever flips False -> True, so the fixpoint terminates.

Calls that resolve to nothing module-local (imports, methods of other
objects) are opaque and assumed pure — the same deliberately optimistic
stance as ULF010, traded for zero false positives on foreign APIs.

:func:`classify_call` is the one classifier of direct effects: the
store runs it per function body, and :func:`check_clock_rng` runs it over
the whole module (class bodies and module level included) to report its
``clock``/``rng`` calls as ULF002.  :func:`_shared_value` is the one
predicate for a shared-instance producer, used by the shared-reference
taint (:mod:`~.sharedref`).

``EffectsStore.describe()`` renders a stable one-line-per-function dump
pinned by the golden tests in ``tests/analysis/test_effects.py``.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .cfg import walk_shallow
from .ckptsync import FuncInfo, Resolver, _call_name, collect_functions

__all__ = ["Effect", "EffectSummary", "EffectsStore", "EFFECT_KINDS",
           "FROZEN_PROVIDERS", "ImportMap", "check_clock_rng",
           "classify_call"]

#: impurity kinds, in reporting/describe order
EFFECT_KINDS = ("global_write", "io", "rng", "clock", "shared_return")

#: callables returning shared cached instances: mutating or leaking one
#: corrupts every later consumer (docs/analysis.md, "Cache-safety contracts")
FROZEN_PROVIDERS = frozenset({"cached_scheme", "layout_for",
                              "combination_coefficients"})

#: plain-name calls that touch the filesystem
_IO_NAME_CALLS = frozenset({"open"})
#: attribute calls that touch the filesystem regardless of receiver
_IO_METHODS = frozenset({
    "write_text", "write_bytes", "read_text", "read_bytes", "unlink",
    "mkdir", "rmdir", "rename", "replace", "touch", "savez",
    "savez_compressed", "symlink_to", "hardlink_to",
})
#: ``os.<fn>`` calls that are I/O (or read ambient process state)
_OS_IO = frozenset({
    "remove", "unlink", "makedirs", "mkdir", "rmdir", "rename", "replace",
    "system", "popen", "getenv", "putenv", "listdir", "scandir", "stat",
})
#: whole modules that are I/O by construction
_IO_MODULES = frozenset({"shutil", "subprocess"})
#: wall-clock functions of the ``time`` module
_WALLCLOCK_TIME = frozenset({"time", "time_ns", "monotonic", "monotonic_ns",
                             "perf_counter", "perf_counter_ns", "sleep"})
_WALLCLOCK_DATETIME = frozenset({"now", "utcnow", "today"})
#: module-level functions of ``random`` that use the global RNG
_GLOBAL_RANDOM = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "expovariate",
    "normalvariate", "getrandbits", "seed",
})

#: decorators that memoise: the function's results are shared instances
_MEMO_DECORATORS = frozenset({"lru_cache", "cache"})


class Effect(NamedTuple):
    """One impurity witness inside a function."""

    kind: str
    node: ast.AST            #: witness (direct site or inherited call site)
    detail: str              #: human description of the offending operation
    via: Tuple[str, ...]     #: local call chain, () for a direct effect

    @property
    def direct(self) -> bool:
        return not self.via


class EffectSummary:
    """Every known effect of one function (direct sites + inherited)."""

    def __init__(self, qualname: str):
        self.qualname = qualname
        self.effects: List[Effect] = []
        self._kinds: Dict[str, Effect] = {}   # first witness per kind

    def add(self, effect: Effect) -> bool:
        """Record ``effect``; returns True when its kind is new."""
        self.effects.append(effect)
        if effect.kind not in self._kinds:
            self._kinds[effect.kind] = effect
            return True
        return False

    def has(self, kind: str) -> bool:
        return kind in self._kinds

    def witness(self, kind: str) -> Optional[Effect]:
        return self._kinds.get(kind)

    def direct_effects(self, *kinds: str) -> List[Effect]:
        return [e for e in self.effects if e.direct
                and (not kinds or e.kind in kinds)]

    @property
    def pure(self) -> bool:
        """No impurity bit set (``shared_return`` is not an impurity)."""
        return not any(self.has(k) for k in EFFECT_KINDS
                       if k != "shared_return")

    def describe(self) -> str:
        """Stable one-liner: ``name: kind@line[via a->b], ...`` or
        ``name: pure``."""
        parts = []
        for kind in EFFECT_KINDS:
            e = self._kinds.get(kind)
            if e is None:
                continue
            where = f"{kind}@{getattr(e.node, 'lineno', 0)}"
            if e.via:
                where += f"[via {'->'.join(e.via)}]"
            parts.append(where)
        return f"{self.qualname}: {', '.join(parts) if parts else 'pure'}"


class ImportMap:
    """Module/from-import aliases of the whole module (function-local and
    class-body imports included), enough to resolve ``mod.fn``,
    ``mod.cls.fn`` and bare from-imported calls."""

    def __init__(self, tree: ast.Module):
        self.module_aliases: Dict[str, str] = {}
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = \
                        (node.module, alias.name)

    def resolve(self, node: ast.Call) -> Optional[Tuple[str, str]]:
        """(module, function) of a call through the imports, or None."""
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            mod = self.module_aliases.get(f.value.id)
            if mod is not None:
                return mod, f.attr
            # datetime.datetime.now: `datetime` name bound by from-import
            origin = self.from_imports.get(f.value.id)
            if origin is not None:
                return f"{origin[0]}.{origin[1]}", f.attr
        elif isinstance(f, ast.Attribute) and \
                isinstance(f.value, ast.Attribute) and \
                isinstance(f.value.value, ast.Name):
            mod = self.module_aliases.get(f.value.value.id)
            if mod is not None:
                return f"{mod}.{f.value.attr}", f.attr
        elif isinstance(f, ast.Name):
            return self.from_imports.get(f.id)
        return None


def classify_call(node: ast.Call,
                  imports: ImportMap) -> Optional[Tuple[str, str, str]]:
    """``(kind, detail, advice)`` of a call with a direct effect, else
    None.  For ``clock``/``rng`` calls ``detail + advice`` is the ULF002
    message; ``advice`` is empty for ``io``."""
    name = _call_name(node)
    if isinstance(node.func, ast.Name) and name in _IO_NAME_CALLS:
        return "io", f"{name}() opens a file", ""
    if isinstance(node.func, ast.Attribute) and name in _IO_METHODS:
        return "io", f".{name}() performs file/disk I/O", ""
    resolved = imports.resolve(node)
    if resolved is None:
        return None
    mod, fn = resolved
    if mod == "time" and fn in _WALLCLOCK_TIME:
        return ("clock", f"time.{fn}() reads the wall clock",
                "; simulated code must use ctx.wtime() / engine.now "
                "(virtual time)")
    if mod in ("datetime", "datetime.datetime", "datetime.date") \
            and fn in _WALLCLOCK_DATETIME:
        return ("clock", f"datetime {fn}() reads the wall clock",
                "; derive timestamps from virtual time instead")
    if mod == "random" and fn in _GLOBAL_RANDOM:
        return ("rng", f"random.{fn}() uses the global unseeded RNG",
                "; create a random.Random(seed) owned by the caller")
    if mod == "random" and fn == "Random" and not node.args \
            and not node.keywords:
        return ("rng", "random.Random() without a seed",
                " is nondeterministic; pass an explicit seed")
    if mod == "os" and fn in _OS_IO:
        return "io", f"os.{fn}() is I/O or reads ambient process state", ""
    if mod.split(".")[0] in _IO_MODULES:
        return "io", f"{mod}.{fn}() is I/O", ""
    return None


def check_clock_rng(tree: ast.Module, flag: Callable,
                    imports: ImportMap) -> None:
    """ULF002: every wall-clock or unseeded-randomness call anywhere in
    the module (function bodies, class bodies, module level), classified
    exactly as the ``clock``/``rng`` effects are."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            found = classify_call(node, imports)
            if found is not None and found[0] in ("clock", "rng"):
                flag("ULF002", node, found[1] + found[2])


def _decorator_names(func: ast.AST):
    for dec in getattr(func, "decorator_list", ()):
        node = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id


def _assigned_names(stmt: ast.stmt):
    """Plain names written by ``stmt`` (assign/augassign/for targets)."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign, ast.For,
                           ast.AsyncFor)):
        targets = [stmt.target]
    for t in targets:
        if isinstance(t, ast.Name):
            yield t.id
        elif isinstance(t, (ast.Tuple, ast.List)):
            for elt in t.elts:
                if isinstance(elt, ast.Name):
                    yield elt.id


def _shared_value(expr: ast.expr, store: "EffectsStore",
                  info: FuncInfo) -> bool:
    """Is ``expr``, inside function ``info``, a call producing a shared
    cached instance?  A frozen-provider call, or a call resolving to a
    module-local function whose summary says ``shared_return``."""
    if isinstance(expr, ast.Await):
        expr = expr.value
    if not isinstance(expr, ast.Call):
        return False
    if _call_name(expr) in FROZEN_PROVIDERS:
        return True
    target = store.resolver.resolve(expr, info)
    return target is not None and store.summary(target).has("shared_return")


class _FuncFacts(NamedTuple):
    """Per-function raw material for the fixpoint."""

    calls: List[Tuple[str, ast.Call]]          # resolved local call sites
    return_calls: List[str]                    # local callees in `return f()`
    returned_names: frozenset                  # names appearing in `return x`
    bound: Dict[str, Optional[str]]            # name -> callee (None: provider)


class EffectsStore:
    """Solved effect summaries for every function of one module."""

    def __init__(self, funcs: List[FuncInfo], resolver: Resolver,
                 imports: ImportMap):
        self.funcs = funcs
        self.resolver = resolver
        self.imports = imports
        self.summaries: Dict[str, EffectSummary] = {}

    # -- construction ----------------------------------------------------
    @classmethod
    def build(cls, tree: ast.Module,
              funcs: Optional[List[FuncInfo]] = None) -> "EffectsStore":
        funcs = funcs if funcs is not None else collect_functions(tree)
        store = cls(funcs, Resolver(funcs), ImportMap(tree))
        facts: Dict[str, _FuncFacts] = {}
        for fi in funcs:
            summary = EffectSummary(fi.qualname)
            store.summaries[fi.qualname] = summary
            facts[fi.qualname] = store._scan_direct(fi, summary)
            if set(_decorator_names(fi.node)) & _MEMO_DECORATORS:
                summary.add(Effect("shared_return", fi.node,
                                   "memoised (lru_cache): results are "
                                   "shared instances", ()))
        store._propagate(facts)
        return store

    def summary(self, qualname: str) -> EffectSummary:
        return self.summaries[qualname]

    def shared_locals(self) -> frozenset:
        """Qualnames of local functions whose results are shared."""
        return frozenset(q for q, s in self.summaries.items()
                         if s.has("shared_return"))

    def describe(self) -> str:
        return "\n".join(self.summaries[fi.qualname].describe()
                         for fi in self.funcs)

    # -- phase 1: direct effects ----------------------------------------
    def _scan_direct(self, fi: FuncInfo,
                     summary: EffectSummary) -> _FuncFacts:
        declared: Dict[str, ast.stmt] = {}   # global/nonlocal name -> decl
        written: set = set()
        calls: List[Tuple[str, ast.Call]] = []
        return_calls: List[str] = []
        returns_provider: Optional[ast.AST] = None
        returned_names: set = set()
        bound: Dict[str, Optional[str]] = {}

        for stmt in fi.node.body:
            for node in walk_shallow(stmt):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    for n in node.names:
                        declared.setdefault(n, node)
                elif isinstance(node, ast.Call):
                    found = classify_call(node, self.imports)
                    if found is not None:
                        summary.add(Effect(found[0], node, found[1], ()))
                    target = self.resolver.resolve(node, fi)
                    if target is not None:
                        calls.append((target, node))
                elif isinstance(node, ast.Return) and node.value is not None:
                    value = node.value
                    if isinstance(value, ast.Await):
                        value = value.value
                    if isinstance(value, ast.Name):
                        returned_names.add(value.id)
                    elif isinstance(value, ast.Call):
                        if _call_name(value) in FROZEN_PROVIDERS:
                            returns_provider = value
                        else:
                            target = self.resolver.resolve(value, fi)
                            if target is not None:
                                return_calls.append(target)
                elif isinstance(node, (ast.Assign, ast.AugAssign,
                                       ast.AnnAssign)):
                    names = list(_assigned_names(node))
                    written.update(names)
                    value = node.value
                    if isinstance(value, ast.Await):
                        value = value.value
                    if isinstance(node, ast.AugAssign) or \
                            not isinstance(value, ast.Call):
                        continue
                    provider = _call_name(value) in FROZEN_PROVIDERS
                    target = None if provider \
                        else self.resolver.resolve(value, fi)
                    if provider or target is not None:
                        bound.update(dict.fromkeys(names, target))

        # a global/nonlocal decl only matters if one declared name is
        # actually written in this function
        for name in sorted(declared.keys() & written):
            summary.add(Effect(
                "global_write", declared[name],
                f"writes module/enclosing state '{name}'", ()))

        if returns_provider is not None:
            summary.add(Effect("shared_return", returns_provider,
                               "returns a frozen-provider result", ()))
        return _FuncFacts(calls, return_calls, frozenset(returned_names),
                          bound)

    # -- phase 2: transitive closure ------------------------------------
    def _propagate(self, facts: Dict[str, _FuncFacts]) -> None:
        impure_kinds = [k for k in EFFECT_KINDS if k != "shared_return"]
        changed = True
        rounds = 0
        while changed and rounds < len(self.funcs) + 2:
            changed = False
            rounds += 1
            for fi in self.funcs:
                caller = self.summaries[fi.qualname]
                fact = facts[fi.qualname]
                for callee, site in fact.calls:
                    cs = self.summaries[callee]
                    for kind in impure_kinds:
                        if cs.has(kind) and not caller.has(kind):
                            w = cs.witness(kind)
                            caller.add(Effect(
                                kind, site, w.detail,
                                (callee,) + w.via))
                            changed = True
                if caller.has("shared_return"):
                    continue
                sources = fact.return_calls + [
                    fact.bound[n] for n in fact.returned_names
                    if n in fact.bound]
                shared = any(t is None or
                             self.summaries[t].has("shared_return")
                             for t in sources)
                if shared:
                    caller.add(Effect("shared_return", fi.node,
                                      "passes a shared instance through",
                                      ("<return>",)))
                    changed = True
