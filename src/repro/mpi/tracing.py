"""MPI-level event tracing.

Attach a :class:`Tracer` to a universe to record every message, collective,
revoke, re-admission, kill, spawn and recovery-phase span with its virtual
timestamp, then hand the events to the analyzers (``repro.analysis``) and
the timeline exporter (``repro.obs.timeline``).  Tracing is off by default:
the record sites check ``universe.tracer`` before building an event.

An event is fields, not text.  :data:`KINDS` declares each kind's fields and
their types, and renders the one-line ``detail`` a person reads; nothing
else formats or parses it.  A saved trace is JSONL — a ``version: 3``
header, then one event per line with its fields — and :meth:`Tracer.load`
checks every line against :data:`KINDS`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: the saved-trace format :meth:`Tracer.save` writes and :meth:`Tracer.load`
#: reads
FORMAT_VERSION = 3


@dataclass(slots=True)
class TraceEvent:
    """One recorded event.  Only the fields :data:`KINDS` gives its kind are
    set; the others keep their defaults."""

    time: float
    actor: str
    kind: str
    comm: Optional[str] = None      #: communicator name
    src: Optional[int] = None       #: sender rank (send/recv)
    dst: Optional[int] = None       #: receiver rank (send/recv)
    tag: Optional[int] = None
    anysrc: bool = False            #: recv was posted with ANY_SOURCE
    anytag: bool = False            #: recv was posted with ANY_TAG
    op: Optional[str] = None        #: collective operation (coll)
    rank: Optional[int] = None      #: caller (coll/revoke) or re-admitted rank
    proc: Optional[str] = None      #: the re-admitted process (readmit)
    host: Optional[str] = None      #: the killed process's host (kill)
    count: Optional[int] = None     #: processes spawned (spawn)
    parent: Optional[str] = None    #: the comm a spawn was collective over
    phase: Optional[str] = None     #: span phase (``repro.obs.spans.PHASES``)
    start: Optional[float] = None   #: span start, virtual seconds
    dur: Optional[float] = None     #: span duration, virtual seconds
    labels: Optional[Mapping[str, str]] = None  #: span labels

    @property
    def detail(self) -> str:
        """The human-readable rendering of the fields."""
        return KINDS[self.kind][1](self)

    def __str__(self) -> str:
        return f"[{self.time:12.6f}] {self.actor:>14s} {self.kind:<6s} {self.detail}"

    def to_dict(self) -> dict:
        d = {"t": self.time, "actor": self.actor, "kind": self.kind}
        for name, typ in KINDS[self.kind][0]:
            value = getattr(self, name)
            d[name] = dict(value) if typ is dict else value
        return d

    @classmethod
    def from_dict(cls, d) -> "TraceEvent":
        """Build an event from a saved record, checked against
        :data:`KINDS`: a ValueError names an unknown kind or a missing,
        ill-typed or unexpected field."""
        if not isinstance(d, dict):
            raise ValueError(f"an event is a JSON object, not {d!r}")
        kind = d.get("kind")
        spec, names = _SCHEMA.get(kind if isinstance(kind, str) else None,
                                  ((), None))
        if names is None:
            raise ValueError(f"unknown event kind {kind!r}")
        if d.keys() != names:
            for name, _ in spec:
                if name not in d:
                    raise ValueError(f"{kind} event lacks field {name!r}")
            raise ValueError(f"{kind} event has unexpected field(s) "
                             f"{sorted(d.keys() - names)}")
        values = dict(d)
        for name, typ in spec:
            value = values[name]
            if type(value) is not typ or typ is dict:   # slow path
                if not _has_type(value, typ):
                    raise ValueError(f"{kind} event field {name!r} is "
                                     f"{value!r}, not {typ.__name__}")
                if typ is float:
                    values[name] = float(value)
        return cls(values.pop("t"), **values)


def _p2p(e: TraceEvent) -> str:
    return (f"{e.comm} {e.src}->{e.dst} tag={e.tag}"
            + (" anysrc" if e.anysrc else "") + (" anytag" if e.anytag else ""))


def _span(e: TraceEvent) -> str:
    labels = "".join(f" {k}={v}" for k, v in sorted(e.labels.items()))
    return f"{e.phase} start={e.start:.9f} dur={e.dur:.9f}{labels}"


_P2P = (("comm", str), ("src", int), ("dst", int), ("tag", int),
        ("anysrc", bool), ("anytag", bool))

#: kind -> (its fields with their types, the ``detail`` rendered from them)
KINDS: Dict[str, Tuple[Tuple[Tuple[str, type], ...],
                       Callable[[TraceEvent], str]]] = {
    "send": (_P2P, _p2p),
    "recv": (_P2P, _p2p),
    "coll": ((("op", str), ("comm", str), ("rank", int)),
             lambda e: f"{e.op} {e.comm} r{e.rank}"),
    "revoke": ((("comm", str), ("rank", int)),
               lambda e: f"{e.comm} r{e.rank}"),
    "revoked": ((("comm", str),), lambda e: "propagated"),
    "readmit": ((("comm", str), ("rank", int), ("proc", str)),
                lambda e: f"{e.comm} r{e.rank} <- {e.proc}"),
    "kill": ((("host", str),), lambda e: f"fail-stop on {e.host}"),
    "spawn": ((("count", int), ("parent", str)),
              lambda e: f"{e.count} proc(s) for {e.parent}"),
    "span": ((("phase", str), ("start", float), ("dur", float),
              ("labels", dict)), _span),
}

def _schema(fields):
    spec = (("t", float), ("actor", str), ("kind", str)) + fields
    return spec, frozenset(name for name, _ in spec)


#: kind -> (every field a saved event of the kind has, with its type;
#: their names)
_SCHEMA = {kind: _schema(fields) for kind, (fields, _) in KINDS.items()}


def _has_type(value, typ: type) -> bool:
    if isinstance(value, bool) and typ is not bool:
        return False            # JSON true/false is no number
    if typ is float:
        return isinstance(value, (int, float))
    if typ is dict:
        return isinstance(value, dict) and all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in value.items())
    return isinstance(value, typ)


class TruncatedTraceError(ValueError):
    """The tracer overflowed (``dropped > 0``): analysis results would be
    unsound, so the analyzers refuse to run."""


def complete_events(trace, *, allow_truncated: bool = False
                    ) -> Sequence[TraceEvent]:
    """The events of a :class:`Tracer` (or a plain event sequence); raises
    :class:`TruncatedTraceError` when the recorder overflowed, unless
    ``allow_truncated``."""
    dropped = getattr(trace, "dropped", 0)
    if dropped and not allow_truncated:
        raise TruncatedTraceError(
            f"trace dropped {dropped} event(s) past the recorder bound; "
            "raise Tracer(max_events=...) and re-record")
    return getattr(trace, "events", trace)


class Tracer:
    """Bounded in-memory MPI event recorder."""

    def __init__(self, max_events: int = 100_000):
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0

    def record(self, time: float, actor: str, kind: str, **fields) -> None:
        """Append one event; ``fields`` are the ones :data:`KINDS` gives
        ``kind``."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(time, actor, kind, **fields))

    # ------------------------------------------------------------------
    def filter(self, *, kind: Optional[str] = None,
               actor: Optional[str] = None) -> List[TraceEvent]:
        out = self.events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if actor is not None:
            out = [e for e in out if e.actor == actor]
        return out

    # ------------------------------------------------------------------
    # persistence (the ``repro analyze-trace`` / ``timeline`` input format)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the trace as JSONL: a header record, then one event per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "header", "version": FORMAT_VERSION,
                                 "max_events": self.max_events,
                                 "dropped": self.dropped}) + "\n")
            for e in self.events:
                fh.write(json.dumps(e.to_dict()) + "\n")

    @classmethod
    def load(cls, path) -> "Tracer":
        """Read a file :meth:`save` wrote.  Anything else — no header, an
        older version, bad JSON, an event :data:`KINDS` does not describe —
        raises ValueError naming the line."""
        tracer = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if tracer is None:
                        tracer = cls._from_header(record)
                    else:
                        tracer.events.append(TraceEvent.from_dict(record))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
        if tracer is None:
            raise ValueError("line 1: empty file, no header")
        return tracer

    @classmethod
    def _from_header(cls, head) -> "Tracer":
        if not isinstance(head, dict) or head.get("type") != "header":
            raise ValueError("no header record")
        if head.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"trace format version {head.get('version')!r}, this "
                f"reader takes {FORMAT_VERSION}: re-record the trace")
        max_events, dropped = head.get("max_events"), head.get("dropped")
        if not (_has_type(max_events, int) and _has_type(dropped, int)
                and dropped >= 0):
            raise ValueError(f"header max_events={max_events!r} "
                             f"dropped={dropped!r} are not counts")
        tracer = cls(max_events=max_events)
        tracer.dropped = dropped
        return tracer
