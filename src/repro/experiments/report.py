"""Formatting helpers: paper-vs-measured tables for every experiment,
plus the machine-readable (``--json``) experiment document."""

from __future__ import annotations

from dataclasses import asdict, is_dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..obs.schema import EXPERIMENT_SCHEMA_VERSION


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "", floatfmt: str = "10.3f") -> str:
    """Plain-text aligned table (benchmarks print these)."""
    def fmt(v):
        if isinstance(v, float):
            return f"{v:{floatfmt}}"
        return str(v)

    srows = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in srows)) if srows else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in srows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def check_monotone_increasing(ys: Sequence[float], slack: float = 0.0) -> bool:
    """Shape check: each value may dip below its predecessor by at most
    ``slack`` of the predecessor's magnitude.

    The tolerance is applied to ``abs(a)``: the old ``a * (1 - slack)``
    form *raised* the bar for negative predecessors (-10 with 10% slack
    demanded b >= -9), rejecting monotone series of negative values.
    """
    return all(b >= a - slack * abs(a) for a, b in zip(ys, ys[1:]))


def geometric_mean(values: Sequence[float], strict: bool = False) -> float:
    """Geometric mean of the positive entries.

    Non-positive entries carry no geometric information and are dropped —
    but never silently: dropping raises ``ValueError`` under ``strict``
    and warns otherwise, so a series polluted by zeros (e.g. a timer that
    never fired) cannot masquerade as a clean average.
    """
    import math
    vals = [v for v in values if v > 0]
    dropped = len(values) - len(vals)
    if dropped:
        msg = (f"geometric_mean: dropped {dropped} non-positive "
               f"value(s) of {len(values)}")
        if strict:
            raise ValueError(msg)
        import warnings
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# ----------------------------------------------------------------------
# machine-readable experiment documents (the --json output)
# ----------------------------------------------------------------------

def merge_phases(accum: Dict[str, float],
                 phases: Dict[str, float]) -> Dict[str, float]:
    """Accumulate one run's per-phase seconds into ``accum`` (in place)."""
    for phase, seconds in phases.items():
        accum[phase] = accum.get(phase, 0.0) + seconds
    return accum


def scale_phases(phases: Dict[str, float], k: float) -> Dict[str, float]:
    """Divide every phase total by ``k`` (seed averaging)."""
    return {phase: seconds / k for phase, seconds in phases.items()}


def experiment_json(name: str, points: Sequence,
                    params: Optional[dict] = None) -> dict:
    """The experiment document shared by every ``--json`` flag.

    ``points`` are the experiment's dataclass points (any extra ``phases``
    dict rides along verbatim); the document validates against
    :func:`repro.obs.schema.validate_experiment_doc`.
    """
    rows: List[dict] = []
    for p in points:
        rows.append(asdict(p) if is_dataclass(p) else dict(p))
    doc = {"experiment": name,
           "schema_version": EXPERIMENT_SCHEMA_VERSION,
           "points": rows}
    if params:
        doc["params"] = dict(params)
    return doc

