"""Interprocedural effects/escape summaries (the ULF012/ULF013 substrate).

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

``EffectsStore.describe()`` renders a stable one-line-per-function dump
pinned by the golden tests in ``tests/analysis/test_effects.py``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Optional, Tuple

from .cfg import walk_shallow
from .ckptsync import FuncInfo, Resolver, _call_name, collect_functions

__all__ = ["Effect", "EffectSummary", "EffectsStore", "EFFECT_KINDS",
           "FROZEN_PROVIDERS"]

#: impurity kinds, in reporting/describe order
EFFECT_KINDS = ("global_write", "io", "rng", "clock", "shared_return")

#: callables whose results are shared cached instances: mutating or
#: leaking one corrupts every later consumer of the same cache entry
#: (see docs/performance.md, "Cache-safety contracts" in docs/analysis.md)
FROZEN_PROVIDERS = frozenset({"cached_scheme", "layout_for"})

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


class _ImportMap:
    """Module/from-import aliases of the whole module, enough for
    ``linter.resolve_call`` (the ULF002 resolution) to resolve ``mod.fn``
    and bare from-imported calls."""

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


def _shared_value(expr: ast.expr, shared_locals: frozenset) -> bool:
    """Is ``expr`` directly a shared-instance producer?  (A frozen
    provider call, or a call to a module-local function known to return
    shared instances.)"""
    if isinstance(expr, ast.Await):
        expr = expr.value
    if not isinstance(expr, ast.Call):
        return False
    name = _call_name(expr)
    return name in FROZEN_PROVIDERS or name in shared_locals


class _FuncFacts(NamedTuple):
    """Per-function raw material for the fixpoint."""

    calls: List[Tuple[str, ast.Call]]          # resolved local call sites
    return_calls: List[str]                    # local callees in `return f()`
    returns_provider: Optional[ast.AST]        # `return cached_scheme(...)`
    returned_names: frozenset                  # names appearing in `return x`
    provider_bound: frozenset                  # names bound from providers
    local_bound: Dict[str, str]                # name -> local callee binding


class EffectsStore:
    """Solved effect summaries for every function of one module."""

    def __init__(self, funcs: List[FuncInfo], resolver: Resolver,
                 imports: _ImportMap):
        self.funcs = funcs
        self.resolver = resolver
        self.imports = imports
        self.summaries: Dict[str, EffectSummary] = {}
        self.calls: Dict[str, List[Tuple[str, ast.Call]]] = {}

    # -- construction ----------------------------------------------------
    @classmethod
    def build(cls, tree: ast.Module,
              funcs: Optional[List[FuncInfo]] = None) -> "EffectsStore":
        funcs = funcs if funcs is not None else collect_functions(tree)
        store = cls(funcs, Resolver(funcs), _ImportMap(tree))
        facts: Dict[str, _FuncFacts] = {}
        memoised = {fi.qualname for fi in funcs
                    if set(_decorator_names(fi.node)) & _MEMO_DECORATORS}
        for fi in funcs:
            summary = EffectSummary(fi.qualname)
            store.summaries[fi.qualname] = summary
            facts[fi.qualname] = store._scan_direct(fi, summary)
            store.calls[fi.qualname] = facts[fi.qualname].calls
            if fi.qualname in memoised:
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
        declared: set = set()        # global/nonlocal-declared names
        decl_nodes: Dict[str, ast.stmt] = {}
        calls: List[Tuple[str, ast.Call]] = []
        return_calls: List[str] = []
        returns_provider: Optional[ast.AST] = None
        returned_names: set = set()
        provider_bound: set = set()
        local_bound: Dict[str, str] = {}

        for stmt in fi.node.body:
            for node in walk_shallow(stmt):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
                    for n in node.names:
                        decl_nodes.setdefault(n, node)
                elif isinstance(node, ast.Call):
                    self._classify_call(node, summary)
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
                        name = _call_name(value)
                        if name in FROZEN_PROVIDERS:
                            returns_provider = value
                        else:
                            target = self.resolver.resolve(value, fi)
                            if target is not None:
                                return_calls.append(target)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    value = getattr(node, "value", None)
                    if isinstance(value, ast.Await):
                        value = value.value
                    if isinstance(value, ast.Call):
                        name = _call_name(value)
                        names = list(_assigned_names(node))
                        if name in FROZEN_PROVIDERS:
                            provider_bound.update(names)
                        else:
                            target = self.resolver.resolve(value, fi)
                            if target is not None:
                                for n in names:
                                    local_bound[n] = target

        # a global/nonlocal decl only matters if one declared name is
        # actually written in this function
        written = set()
        for stmt in fi.node.body:
            for node in walk_shallow(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign)):
                    written.update(_assigned_names(node))
        for name in sorted(declared & written):
            summary.add(Effect(
                "global_write", decl_nodes[name],
                f"writes module/enclosing state '{name}'", ()))

        if returns_provider is not None:
            summary.add(Effect("shared_return", returns_provider,
                               "returns a frozen-provider result", ()))
        return _FuncFacts(calls, return_calls, returns_provider,
                          frozenset(returned_names),
                          frozenset(provider_bound), local_bound)

    def _classify_call(self, node: ast.Call,
                       summary: EffectSummary) -> None:
        name = _call_name(node)
        if isinstance(node.func, ast.Name) and name in _IO_NAME_CALLS:
            summary.add(Effect("io", node, f"{name}() opens a file", ()))
            return
        if isinstance(node.func, ast.Attribute) and name in _IO_METHODS:
            summary.add(Effect("io", node,
                               f".{name}() performs file/disk I/O", ()))
            return
        # lazy import: linter's top level has no dataflow dependency, but
        # importing it at *our* module top would still cycle through
        # repro.analysis.__init__ during package import
        from ...analysis.linter import (_GLOBAL_RANDOM, _WALLCLOCK_DATETIME,
                                        _WALLCLOCK_TIME, resolve_call)
        resolved = resolve_call(node, self.imports.module_aliases,
                                self.imports.from_imports)
        if resolved is None:
            return
        mod, fn = resolved
        if mod == "time" and fn in _WALLCLOCK_TIME:
            summary.add(Effect("clock", node,
                               f"time.{fn}() reads the wall clock", ()))
        elif mod in ("datetime", "datetime.datetime", "datetime.date") \
                and fn in _WALLCLOCK_DATETIME:
            summary.add(Effect("clock", node,
                               f"datetime {fn}() reads the wall clock", ()))
        elif mod == "random" and fn in _GLOBAL_RANDOM:
            summary.add(Effect("rng", node,
                               f"random.{fn}() uses the global RNG", ()))
        elif mod == "random" and fn == "Random" and not node.args \
                and not node.keywords:
            summary.add(Effect("rng", node,
                               "random.Random() without a seed", ()))
        elif mod == "os" and fn in _OS_IO:
            summary.add(Effect("io", node, f"os.{fn}() is I/O or reads "
                               "ambient process state", ()))
        elif mod.split(".")[0] in _IO_MODULES:
            summary.add(Effect("io", node, f"{mod}.{fn}() is I/O", ()))

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
                shared = any(
                    self.summaries[t].has("shared_return")
                    for t in fact.return_calls
                ) or any(
                    n in fact.provider_bound or (
                        n in fact.local_bound and
                        self.summaries[fact.local_bound[n]]
                        .has("shared_return"))
                    for n in fact.returned_names)
                if shared:
                    caller.add(Effect("shared_return", fi.node,
                                      "passes a shared instance through",
                                      ("<return>",)))
                    changed = True
