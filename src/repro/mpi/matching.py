"""Point-to-point message matching for one communicator.

Sends are *eager/buffered*: the sender charges the alpha–beta injection cost
and completes; the message arrives at ``send_time + cost``.  Receives match
posted messages in (source, tag) FIFO order, honouring ``ANY_SOURCE`` /
``ANY_TAG`` wildcards with deterministic earliest-arrival tie-breaking.

Matching is *indexed*: undelivered messages and blocked receivers live in
per-``(dst, src, tag)`` FIFO buckets rather than flat per-destination lists,
so the common exact-match case is an O(1) dict hit instead of a linear scan.
Wildcards fall back to comparing the heads of the (few) candidate buckets:

* a message can wake receivers registered under exactly four keys —
  ``(src, tag)``, ``(src, ANY_TAG)``, ``(ANY_SOURCE, tag)`` and
  ``(ANY_SOURCE, ANY_TAG)`` — and the earliest-registered one (smallest
  ``seq`` among the bucket heads) wins, which is precisely the order a
  linear scan of the registration list would produce;
* a wildcard receive scans the destination's *bucket keys* (distinct
  ``(src, tag)`` pairs with pending traffic, usually a handful) and takes
  the bucket head minimising ``(arrival, seq)`` — the documented
  earliest-arrival tie-break.

Within a bucket, messages stay sorted by ``(arrival, seq)``: every post
happens at virtual time ``now == arrival`` (``isend`` defers the post via
``call_at``), so arrivals are non-decreasing in post order.  ``post``
nevertheless guards the invariant and falls back to a sorted insert if a
future caller ever posts out of order.

Failure semantics (ULFM fail-stop):

* a receive whose named source is dead, with no matching in-flight message,
  fails with :class:`ProcFailedError` after the detection latency;
* messages already in flight from a rank that subsequently dies are still
  delivered (matching eager-protocol MPI behaviour);
* revoking the communicator fails every pending receive.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .errors import ANY_SOURCE, ANY_TAG, ProcFailedError, RevokedError


class Message:
    __slots__ = ("src", "dst", "tag", "payload", "arrival", "seq")

    def __init__(self, src: int, dst: int, tag: int, payload: Any,
                 arrival: float, seq: int):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.arrival = arrival
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message({self.src}->{self.dst} tag={self.tag} "
                f"arrival={self.arrival:g} seq={self.seq})")


class PendingRecv:
    __slots__ = ("dst", "source", "tag", "future", "seq")

    def __init__(self, dst: int, source: int, tag: int, future: Any, seq: int):
        self.dst = dst
        self.source = source  # may be ANY_SOURCE
        self.tag = tag        # may be ANY_TAG
        self.future = future  # SimFuture resolved with the Message
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PendingRecv(dst={self.dst} source={self.source} "
                f"tag={self.tag} seq={self.seq})")


_Key = Tuple[int, int]


class MessageBoard:
    """Per-communicator mailbox with deterministic indexed matching."""

    def __init__(self, engine, detection_latency: float):
        self.engine = engine
        self.detection_latency = detection_latency
        self._seq = 0
        #: undelivered messages: dst -> (src, tag) -> FIFO of Message
        self._posted: Dict[int, Dict[_Key, Deque[Message]]] = {}
        #: blocked receivers: dst -> (source, tag) -> FIFO of PendingRecv
        #: (keys may contain the ANY_SOURCE / ANY_TAG wildcards)
        self._waiting: Dict[int, Dict[_Key, Deque[PendingRecv]]] = {}
        #: dst -> number of blocked receivers whose key contains a wildcard;
        #: when zero, ``post`` skips the candidate-key scan entirely and
        #: does a single exact-bucket lookup
        self._wild: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # diagnostic views (flat, seq-ordered — the analysis layer reads these)
    # ------------------------------------------------------------------
    @property
    def posted(self) -> Dict[int, List[Message]]:
        """Flat per-destination view of undelivered messages (seq order)."""
        return {dst: sorted((m for q in buckets.values() for m in q),
                            key=lambda m: m.seq)
                for dst, buckets in self._posted.items() if buckets}

    @property
    def waiting(self) -> Dict[int, List[PendingRecv]]:
        """Flat per-destination view of blocked receivers (seq order)."""
        return {dst: sorted((r for q in buckets.values() for r in q),
                            key=lambda r: r.seq)
                for dst, buckets in self._waiting.items() if buckets}

    # ------------------------------------------------------------------
    def post(self, src: int, dst: int, tag: int, payload: Any, arrival: float) -> None:
        """Deliver/enqueue a message; wakes a matching blocked receiver."""
        self._seq += 1
        msg = Message(src, dst, tag, payload, arrival, self._seq)
        buckets = self._waiting.get(dst)
        if buckets:
            if not self._wild.get(dst):
                # no wildcard receivers at dst: only the exact bucket matches
                q = buckets.get((src, tag))
                if q:
                    recv = q.popleft()
                    if not q:
                        del buckets[(src, tag)]
                    recv.future.set_result(msg, at=arrival)
                    return
            else:
                best_key: Optional[_Key] = None
                best_seq = -1
                for key in ((src, tag), (src, ANY_TAG),
                            (ANY_SOURCE, tag), (ANY_SOURCE, ANY_TAG)):
                    q = buckets.get(key)
                    if q and (best_key is None or q[0].seq < best_seq):
                        best_key = key
                        best_seq = q[0].seq
                if best_key is not None:
                    q = buckets[best_key]
                    recv = q.popleft()
                    if not q:
                        del buckets[best_key]
                    if best_key[0] == ANY_SOURCE or best_key[1] == ANY_TAG:
                        self._wild[dst] -= 1
                    recv.future.set_result(msg, at=arrival)
                    return
        by_key = self._posted.get(dst)
        if by_key is None:
            by_key = self._posted[dst] = {}
        key = (src, tag)
        q = by_key.get(key)
        if q is None:
            by_key[key] = deque((msg,))
        elif q[-1].arrival <= arrival:   # the common (always, today) case
            q.append(msg)
        else:  # out-of-order arrival: preserve the (arrival, seq) sort
            items = sorted([*q, msg], key=lambda m: (m.arrival, m.seq))
            by_key[key] = deque(items)

    def _take_posted(self, dst: int, buckets: Dict[_Key, Deque[Message]],
                     key: _Key) -> Message:
        q = buckets[key]
        msg = q.popleft()
        if not q:
            del buckets[key]
            if not buckets:
                del self._posted[dst]
        return msg

    def register_recv(self, dst: int, source: int, tag: int, future,
                      dead_ranks: frozenset) -> None:
        """Try to match a receive; otherwise block (or fail fast on a dead source)."""
        buckets = self._posted.get(dst)
        if buckets:
            if source != ANY_SOURCE and tag != ANY_TAG:
                if (source, tag) in buckets:
                    msg = self._take_posted(dst, buckets, (source, tag))
                    future.set_result(msg, at=max(msg.arrival, self.engine.now))
                    return
            else:
                best_key: Optional[_Key] = None
                best: Optional[Tuple[float, int]] = None
                for key, q in buckets.items():
                    if ((source == ANY_SOURCE or source == key[0]) and
                            (tag == ANY_TAG or tag == key[1])):
                        head = q[0]
                        cand = (head.arrival, head.seq)
                        if best is None or cand < best:
                            best = cand
                            best_key = key
                if best_key is not None:
                    msg = self._take_posted(dst, buckets, best_key)
                    future.set_result(msg, at=max(msg.arrival, self.engine.now))
                    return
        if source != ANY_SOURCE and source in dead_ranks:
            future.set_exception(
                ProcFailedError(f"recv source rank {source} is dead",
                                failed_ranks=(source,)),
                at=self.engine.now + self.detection_latency)
            return
        self._seq += 1
        recv = PendingRecv(dst, source, tag, future, self._seq)
        by_key = self._waiting.get(dst)
        if by_key is None:
            by_key = self._waiting[dst] = {}
        key = (source, tag)
        q = by_key.get(key)
        if q is None:
            by_key[key] = deque((recv,))
        else:
            q.append(recv)
        if source == ANY_SOURCE or tag == ANY_TAG:
            self._wild[dst] = self._wild.get(dst, 0) + 1

    # ------------------------------------------------------------------
    # failure propagation (cold paths — fail in registration/seq order so
    # downstream event ordering matches the historical linear-scan board)
    # ------------------------------------------------------------------
    def _pop_matching_waiters(self, dst: int, pred) -> List[PendingRecv]:
        """Remove and return (seq-ordered) every waiter at ``dst`` whose
        bucket key satisfies ``pred(source, tag)``."""
        buckets = self._waiting.get(dst)
        if not buckets:
            return []
        taken: List[PendingRecv] = []
        n_wild = 0
        for key in [k for k in buckets if pred(k[0], k[1])]:
            q = buckets.pop(key)
            if key[0] == ANY_SOURCE or key[1] == ANY_TAG:
                n_wild += len(q)
            taken.extend(q)
        if n_wild:
            left = self._wild.get(dst, 0) - n_wild
            if left > 0:
                self._wild[dst] = left
            else:
                self._wild.pop(dst, None)
        if not buckets:
            self._waiting.pop(dst, None)
        taken.sort(key=lambda r: r.seq)
        return taken

    def on_rank_death(self, rank: int, now: float) -> None:
        """Fail blocked receives that name the dead rank as their source."""
        at = now + self.detection_latency
        for dst in list(self._waiting):
            for recv in self._pop_matching_waiters(dst, lambda s, _t: s == rank):
                recv.future.set_exception(
                    ProcFailedError(f"recv source rank {rank} died",
                                    failed_ranks=(rank,)),
                    at=at)

    def revoke_all(self, now: float) -> None:
        """Fail every blocked receive: the communicator was revoked."""
        for dst in list(self._waiting):
            for recv in self._pop_matching_waiters(dst, lambda _s, _t: True):
                recv.future.set_exception(
                    RevokedError("communicator revoked"), at=now)

    def drop_waiters_of(self, dst: int) -> None:
        """Forget pending receives of a rank that itself died."""
        self._waiting.pop(dst, None)
        self._wild.pop(dst, None)


class RingClocks:
    """The clocks of a periodic ring of ``size`` ranks after ``n`` halo
    steps -- the closed form of what ``CommHandle.exchange`` (isend, recv,
    wait) + ``ctx.compute`` do event by event on a healthy communicator.

    Every send is one halo row and costs ``cost``.  Per step a rank's sends
    arrive at ``now + cost``, each receive resolves at the neighbour's
    arrival or the instant it was posted, and the wait for the sends, which
    dominates every posting instant because ``cost >= 0``, ends the exchange
    at the ``max`` of the three arrivals; ``Sleep`` resumes ``compute``
    later: ``v' = max(b + cost, a + cost, c + cost) + compute`` for a rank
    at ``b`` between neighbours at ``a`` and ``c``.  Same floats, same
    order, same bits.  A one-rank ring exchanges nothing.

    :meth:`uniform` is that recurrence when every rank starts at one
    instant with one charge, so all three terms are equal.  :meth:`start`
    walks it rank by rank: ``rows[k][i]`` is rank ``i``'s clock after
    ``k`` steps, known once the ranks within ``k`` hops have started, so a
    rank far from a late starter finishes without it.
    """

    __slots__ = ("size", "cost", "n", "compute", "rows")

    def __init__(self, size: int, cost: float, n: int):
        self.size, self.n = size, n
        self.cost = cost if size > 1 else 0.0
        self.compute = self.rows = None     # the walk's, on its first start

    def uniform(self, at: float, compute: float) -> float:
        """Every rank's clock after ``n`` steps when all start at ``at`` and
        sleep ``compute`` per step: ``max(v + cost, v + cost, v + cost) +
        compute`` is ``v + cost + compute``, to the bit."""
        cost = self.cost
        for _ in range(self.n):
            at = at + cost + compute
        return at

    def start(self, rank: int, at: float, compute: float) -> list:
        """Rank ``rank`` starts at ``at``, sleeping ``compute`` per step: the
        ``(rank, clock)`` of every rank that settles (none before ``at``)."""
        size, rows = self.size, self.rows
        if rows is None:
            rows = self.rows = [[None] * size for _ in range(self.n + 1)]
            self.compute = [0.0] * size
        cost, comp, last = self.cost, self.compute, self.n
        comp[rank], rows[0][rank] = compute, at
        done, todo = [], [(0, rank)]
        while todo:
            k, i = todo.pop()
            if k == last:
                done.append((i, rows[k][i]))
                continue
            row, nxt = rows[k], rows[k + 1]
            for m in ((i - 1) % size, i, (i + 1) % size):
                a, b, c = row[m - 1], row[m], row[(m + 1) % size]
                if (nxt[m] is None and a is not None and b is not None
                        and c is not None):
                    nxt[m] = max(b + cost, a + cost, c + cost) + comp[m]
                    todo.append((k + 1, m))
        return done
