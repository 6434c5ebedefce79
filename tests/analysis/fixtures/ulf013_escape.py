"""Seeded violations for ULF013 (shared cached references escaping).

The object caches hand out *the* shared instance; storing one into
long-lived state or returning an unowned view breaks the owned-copy
contract (docs/performance.md).  Only lines tagged ``BAD`` may trip
ULF013; the corrected variants below each violation stay clean, as do
the legitimate provider pass-throughs.  The file is analysed, never run.
"""

from repro.core.layout import layout_for
from repro.sparsegrid.index import cached_scheme

_SCHEMES = {}


# --- shared instance stored into instance state ------------------------
class LayoutHolder:
    def __init__(self, scheme, mode, procs):
        self.layout = layout_for(scheme, mode, procs)  # BAD
        self.seen = []

    def collect(self, n, level):
        scheme = cached_scheme(n, level)
        self.seen.append(scheme)  # BAD


class OwnedLayoutHolder:
    def __init__(self, scheme, mode, procs):
        self.layout_key = (scheme, mode, procs)  # the key, not the instance
        self.seen = []

    def collect(self, n, level):
        scheme = cached_scheme(n, level)
        self.seen.append(scheme.describe())  # a fresh string: fine


# --- shared instance stored into a module-level container --------------
def memo_scheme(n, level):
    scheme = cached_scheme(n, level)
    _SCHEMES[(n, level)] = scheme  # BAD
    return scheme


def lookup_scheme(n, level):
    # the provider *is* the memo — no second cache layer needed
    return cached_scheme(n, level)


# --- returning an unowned view -----------------------------------------
def first_owners(scheme, mode, procs):
    owners = layout_for(scheme, mode, procs)
    return owners[0]  # BAD


def first_owners_owned(scheme, mode, procs):
    owners = layout_for(scheme, mode, procs)
    return owners[0].copy()


# --- provider pass-through is a provider, not an escape ----------------
def scheme_for(cfg):
    return cached_scheme(cfg.n, cfg.level)


def caller_of_provider(cfg, out):
    # out is a caller-owned local argument, not long-lived state
    scheme = scheme_for(cfg)
    local = [scheme]
    return len(local)
