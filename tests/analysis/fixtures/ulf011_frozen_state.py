"""Seeded violations for ULF011 (mutation of shared cached objects).

Each violating function pairs with a corrected variant below it; only
lines tagged ``BAD`` may trip ULF011, and nothing else in this file
may trip any other rule.  The file is analysed, never run: what matters
is the shape of each statement against a provider's result.
"""

from repro.core.layout import layout_for
from repro.sparsegrid.gcp import combination_coefficients
from repro.sparsegrid.index import cached_scheme


# --- subscript store through a provider result -------------------------
def clobber_counts(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    layout.counts[0] = 1  # BAD
    return layout.total_procs


def owned_counts(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    counts = dict(layout.counts)
    counts[0] = 1  # owned copy: fine
    return counts


# --- in-place augmented assignment -------------------------------------
def widen_shared(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    layout.total_procs += 1  # BAD
    return layout.total_procs


def widen_owned(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    total = layout.total_procs + 1  # new value, shared operand only read
    return total


# --- mutator method on a cached object ---------------------------------
def extend_scheme(n, level):
    scheme = cached_scheme(n, level)
    scheme.grids.append(None)  # BAD
    return scheme


def read_scheme(n, level):
    scheme = cached_scheme(n, level)
    return len(scheme.grids)


# --- mutation through a subscript view ---------------------------------
def poke_view(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    owners = layout.owners[0]
    owners.fill(0)  # BAD
    return owners.sum()


def copy_view(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    owners = layout.owners[0].copy()
    owners.fill(0)  # the copy is owned
    return owners


# --- thawing a frozen buffer -------------------------------------------
def thaw_owners(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    owners = layout.owners
    owners.flags.writeable = True  # BAD
    return owners


def thaw_setflags(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    owners = layout.owners
    owners.setflags(write=True)  # BAD
    return owners


# --- setattr / attribute store on a cached object ----------------------
def retag_layout(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    layout.label = "mine"  # BAD
    return layout


def relabel_scheme(n, level):
    scheme = cached_scheme(n, level)
    setattr(scheme, "label", "mine")  # BAD
    return scheme


def fresh_labels(scheme, mode, procs):
    layout = layout_for(scheme, mode, procs)
    label = f"{layout!r}:mine"  # read-only use of the shared object
    return label


# --- rebinding forgets the tracked state -------------------------------
def rebind_then_mutate(n, level, xs):
    grids = cached_scheme(n, level)
    grids = list(xs)
    grids.append(1.0)  # grids is a fresh list now, not the cached scheme
    return grids


# --- one (scheme, lost set)'s shared combination coefficients -----------
def drop_lost_index(scheme, lost):
    coeffs = combination_coefficients(scheme, frozenset(lost))
    coeffs.pop(scheme[0].index)  # BAD
    return coeffs


def zero_through_technique(technique, scheme, lost):
    coeffs = technique.combination_coefficients(scheme, lost)
    coeffs[scheme[0].index] = 0.0  # BAD
    return coeffs


def drop_from_copy(scheme, lost):
    coeffs = dict(combination_coefficients(scheme, frozenset(lost)))
    coeffs.pop(scheme[0].index)  # owned copy: fine
    return coeffs
