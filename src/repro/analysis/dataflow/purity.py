"""Interprocedural purity of sweep-cacheable call graphs (ULF012).

The content-addressed :class:`~repro.sweep.cache.RunCache` replays a
task's *recorded result* whenever the same ``(config, machine, kills,
spares)`` key shows up again — sound only if the task is a pure
function of that key.  A cacheable entry point that writes module
state, touches the filesystem, draws from the process-global RNG, or
reads the wall clock produces results that silently differ between a
cache miss and a cache hit.

Entry points are declared by a ``# repro: cacheable`` comment on the
``def`` line (see docs/analysis.md).

For each entry point the rule consults the module's
:class:`~.effects.EffectsStore` — the same two-phase summary-fixpoint
shape as ULF010 — and flags one witness per impurity kind
(``global_write`` / ``io`` / ``rng`` / ``clock``).  Inherited effects
are flagged at the call site inside the entry point, with the local
call chain in the message.  A direct rng/clock call is also ULF002 (one
classifier, :func:`~.effects.classify_call`, decides both), so the
witness sites here are typically global writes, I/O, and the call sites
that *reach* such effects through helpers.

Calls that resolve to nothing module-local are assumed pure (same
optimistic stance as ULF010): the rule proves the module-local part of
the contract and never false-positives on foreign APIs.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, List, Optional

from .effects import EFFECT_KINDS, EffectsStore

__all__ = ["check_purity", "cacheable_entry_points", "CACHEABLE_RE"]

#: the annotation comment, on the ``def`` line of the entry point
CACHEABLE_RE = re.compile(r"#\s*repro:\s*cacheable\b")

_IMPURE_KINDS = tuple(k for k in EFFECT_KINDS if k != "shared_return")


def cacheable_entry_points(store: EffectsStore,
                           source: Optional[str] = None) -> List:
    """The module's declared-cacheable functions (FuncInfo records)."""
    lines = source.splitlines() if source else []
    entries = []
    for fi in store.funcs:
        ln = getattr(fi.node, "lineno", 0)
        if 1 <= ln <= len(lines) and CACHEABLE_RE.search(lines[ln - 1]):
            entries.append(fi)
    return entries


_KIND_LABEL = {
    "global_write": "writes module/global state",
    "io": "performs file/disk I/O",
    "rng": "uses nondeterministic randomness",
    "clock": "reads the wall clock",
}


def check_purity(tree: ast.Module, flag: Callable, store: EffectsStore,
                 source: Optional[str] = None) -> None:
    """Flag impurity witnesses inside declared-cacheable entry points.
    ``flag(rule, node, message)`` receives each violation."""
    for fi in cacheable_entry_points(store, source):
        summary = store.summary(fi.qualname)
        seen = set()
        for kind in _IMPURE_KINDS:
            effect = summary.witness(kind)
            if effect is None:
                continue
            key = (getattr(effect.node, "lineno", 0),
                   getattr(effect.node, "col_offset", 0))
            if key in seen:
                continue
            seen.add(key)
            chain = f" (via {' -> '.join(effect.via)})" if effect.via else ""
            flag("ULF012", effect.node,
                 f"'{fi.qualname}' is declared cacheable but "
                 f"{_KIND_LABEL[kind]}{chain}: {effect.detail}; a cache "
                 "hit replays the recorded result, so the effect "
                 "silently disappears on reruns — hoist it out of the "
                 "cacheable call graph")
