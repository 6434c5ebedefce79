"""``python -m repro serve`` — the results service HTTP API.

A small stdlib server (``http.server.ThreadingHTTPServer``, no new
dependencies) in front of the shared run cache and the coalescing job
queue:

========================  =============================================
``GET /healthz``          liveness: ``{"status": "ok", ...}``
``GET /v1/cache/stats``   store + cache + queue + service metrics
``GET /v1/experiment/N``  the experiment document for ``N`` (``table1``,
                          ``fig8`` ... ``modes``).  Served straight from
                          the cache when warm (200); a miss schedules a
                          background job and answers **202** with a job
                          id — poll the same URL until it flips to 200.
                          ``?quick=0`` requests the full (paper-scale)
                          variant; the default is the quick one.
``GET /v1/run/KEY``       one cached run's metrics by content key (the
                          fingerprints ``repro.sweep.cache.run_key``
                          assigns); 404 when not cached — a key alone
                          cannot be recomputed.
``GET /v1/job/ID``        status of one background job.
========================  =============================================

Overload answers **503** (queue at capacity, with ``Retry-After``), and
an experiment whose computation failed answers **500** with the error
until ``?retry=1`` resubmits it.

Experiment documents are deterministic — they embed no wall-clock or
worker-count params — and are persisted in the same shared store as the
individual runs, keyed by a content fingerprint of ``(results epoch,
name, quick, schema version, the experiment's quick or full parameter
table)``: a warm document survives restarts, editing a parameter makes
the old document unreachable instead of stale, and
a cold document's underlying runs are themselves cached, fleet-wide, so
even a "cold" document after a restart only re-aggregates warm runs.

A content key fixes the bytes of its 200, so the server encodes each
``/v1/experiment`` and ``/v1/run`` 200 once per process and writes the
stored bytes on every later read (no unpickle, no ``to_dict``, no JSON
encode).  Only 200s are kept: a 404, 202 or 500 for a key is answered
afresh each time, as are ``/healthz``, ``/v1/cache/stats`` and
``/v1/job``.  The kept bodies live as long as the cache's memory tier
and have its bound: every key this process has read.

The HTTP plumbing around a warm read is the request head and the
answer, so both are lean.  ``_Handler.parse_request`` splits the request
line and reads the header lines straight off the socket into a dict,
with the stdlib parser's answers and limits (the stdlib's email-based
header parse was a third of a warm read's server CPU).  ``do_GET``
writes each answer as one ``wfile.write``: status line, ``Server``,
``Date`` (formatted once per second), ``Content-Type``,
``Content-Length``, ``Retry-After`` on a 503, then the body.  A
document's content key is fingerprinted once per ``(name, quick)``, and
the request counter and latency histogram are looked up once per
``(endpoint, status)``, per ``ServiceState``.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..experiments.registry import EXPERIMENTS, run_experiment
from ..obs.registry import MetricsRegistry
from ..obs.schema import EXPERIMENT_SCHEMA_VERSION
from ..sweep import RunCache, SweepRunner, cache as run_cache
from .client import read_headers
from .jobqueue import JobQueue, QueueFull, wall_now

__all__ = ["ServiceState", "create_server", "serve"]

#: /v1/run keys are hex fingerprints; /v1/job ids are job-<n>
_KEY_RE = re.compile(r"^[0-9a-f]{6,64}$")
_JOB_RE = re.compile(r"^job-\d+$")

#: request-latency buckets — host milliseconds, not virtual seconds
_REQUEST_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
                    5.0, 30.0)

#: an endpoint's answer: a payload to encode, or a kept, encoded 200 body
Payload = Union[dict, bytes]


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, default=str).encode()


class ServiceState:
    """Everything the handlers share: cache, queue, metrics, doc keys."""

    def __init__(self, cache=None, queue_workers: int = 2,
                 max_pending: int = 32, sweep_workers: int = 1,
                 registry: Optional[MetricsRegistry] = None):
        self.cache = cache if cache is not None else RunCache()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.queue = JobQueue(workers=queue_workers,
                              max_pending=max_pending,
                              registry=self.registry)
        self.sweep_workers = sweep_workers
        self.started = wall_now()
        self._failures: dict = {}   # doc key -> last job error
        #: (endpoint, content key) -> encoded 200; a document's key is
        #: also a /v1/run key, with another body
        self._bodies: Dict[Tuple[str, str], bytes] = {}
        #: (name, quick) -> experiment_key, fingerprinted once per state
        self._doc_keys: Dict[Tuple[str, bool], str] = {}
        #: (endpoint, status) -> (request counter, latency histogram)
        self._instruments: Dict[Tuple[str, int], tuple] = {}
        self._instruments_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _count_lookup(self, kind: str, result: str) -> None:
        self.registry.counter("service_cache", kind=kind,
                              result=result).inc()

    def request_instruments(self, endpoint: str, status: int) -> tuple:
        """The ``service_requests`` counter and ``service_request_seconds``
        histogram one answer updates.  Created under a lock: two threads
        creating one pair could each cache an instrument the other's
        registry call replaced."""
        pair = self._instruments.get((endpoint, status))
        if pair is None:
            with self._instruments_lock:
                pair = self._instruments.get((endpoint, status))
                if pair is None:
                    reg = self.registry
                    pair = self._instruments[endpoint, status] = (
                        reg.counter("service_requests", endpoint=endpoint,
                                    status=status),
                        reg.histogram("service_request_seconds",
                                      buckets=_REQUEST_BUCKETS,
                                      endpoint=endpoint))
        return pair

    def _keep(self, endpoint: str, key: str, payload: dict) -> bytes:
        """Encode ``key``'s 200 once.  Racing first reads encode equal
        bytes and ``setdefault`` keeps one, so no lock is needed."""
        return self._bodies.setdefault((endpoint, key), _encode(payload))

    @staticmethod
    def experiment_key(name: str, quick: bool) -> str:
        """Content key of one experiment document (the unit the queue
        coalesces on and the store persists): everything that decides
        its bytes, including the parameter table the run selects (empty
        for a spec without one)."""
        spec = EXPERIMENTS.get(name)
        table = (spec.quick if quick else spec.full) if spec else {}
        return run_cache.fingerprint(
            ("experiment-doc", run_cache.RESULTS_EPOCH, name, bool(quick),
             EXPERIMENT_SCHEMA_VERSION, table))

    def _compute_experiment(self, name: str, quick: bool, key: str):
        """The job body: run the experiment through the shared cache and
        persist the validated document under ``key`` — unless a job that
        finished just before this one was submitted already did."""
        doc = self.cache.load(key)
        if doc is None:
            runner = SweepRunner(workers=self.sweep_workers,
                                 cache=self.cache)
            _, doc = run_experiment(name, quick, runner)
            self.cache.put(key, doc)
        self._failures.pop(key, None)
        return doc

    # ------------------------------------------------------------------
    # endpoint bodies: (http status, payload)
    # ------------------------------------------------------------------
    def healthz(self) -> Tuple[int, dict]:
        return 200, {"status": "ok",
                     "uptime_s": round(wall_now() - self.started, 3)}

    def cache_stats(self) -> Tuple[int, dict]:
        store = self.cache.store
        disk, walked = store.survey() if store is not None else ([], None)
        return 200, {
            "cache": self.cache.stats(disk),
            "store": walked.to_dict() if walked is not None else None,
            "queue": self.queue.stats(),
            "metrics": self.registry.to_dict(),
        }

    def experiment(self, name: str, quick: bool,
                   retry: bool) -> Tuple[int, Payload]:
        if name not in EXPERIMENTS:
            return 404, {"error": f"unknown experiment {name!r}",
                         "known": sorted(EXPERIMENTS)}
        key = self._doc_keys.get((name, quick))
        if key is None:
            key = self._doc_keys.setdefault(
                (name, quick), self.experiment_key(name, quick))
        body = self._bodies.get(("experiment", key))
        if body is None:
            doc = self.cache.load(key)
            body = None if doc is None else self._keep("experiment", key,
                                                       doc)
        if body is not None:
            self._count_lookup("experiment", "hit")
            return 200, body
        self._count_lookup("experiment", "miss")
        if retry:
            self._failures.pop(key, None)
        error = self._failures.get(key)
        if error is not None and self.queue.inflight(key) is None:
            return 500, {"error": error, "experiment": name,
                         "hint": "append ?retry=1 to recompute"}

        def body(name=name, quick=quick, key=key):
            try:
                return self._compute_experiment(name, quick, key)
            except Exception as exc:
                # remembered so pollers see a 500, not an endless 202
                self._failures[key] = f"{type(exc).__name__}: {exc}"
                raise

        try:
            job = self.queue.submit(key, body,
                                    label=f"experiment:{name}"
                                          f"{'' if quick else ':full'}")
        except QueueFull as exc:
            return 503, {"error": str(exc), "retry_after_s": 1}
        return 202, {"status": job.state, "job": job.id,
                     "experiment": name, "quick": bool(quick),
                     "key": key,
                     "poll": f"/v1/experiment/{name}?quick="
                             f"{1 if quick else 0}"}

    def run(self, key: str) -> Tuple[int, Payload]:
        if not _KEY_RE.match(key):
            return 400, {"error": f"malformed run key {key!r} "
                                  "(expected a hex fingerprint)"}
        body = self._bodies.get(("run", key))
        if body is None:
            value = self.cache.load(key)
            if value is None:
                self._count_lookup("run", "miss")
                return 404, {"error": f"no cached run {key}",
                             "hint": "runs are keyed by content "
                                     "fingerprint; a key alone cannot "
                                     "be recomputed"}
            payload = value.to_dict() if hasattr(value, "to_dict") \
                else value
            body = self._keep("run", key, {"key": key, "metrics": payload})
        self._count_lookup("run", "hit")
        return 200, body

    def job(self, job_id: str) -> Tuple[int, dict]:
        if not _JOB_RE.match(job_id):
            return 400, {"error": f"malformed job id {job_id!r}"}
        job = self.queue.job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id} "
                                  "(finished jobs are kept briefly)"}
        return 200, job.describe()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: send_error answers in two writes (head, body); on a kept-alive
    #: connection Nagle would hold the body for the client's delayed ACK
    disable_nagle_algorithm = True

    #: set by create_server on the handler class
    state: ServiceState = None
    quiet = True
    #: (unix second, its Date value), shared by the class's threads
    _date = (0, "")

    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        if not self.quiet:
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        """The request line, then the header lines read straight from
        ``rfile`` into ``self.headers``, a dict keyed by lower-cased name.

        Same answers and limits as the stdlib's parser: 400 for a bad
        request line or version, 505 for HTTP/2 and later, 431 for a
        header line over 65 536 bytes or a head of more than 100 lines
        (:func:`~repro.service.client.read_headers`); HTTP/1.0 without
        ``keep-alive``, and ``Connection: close``, end the connection.
        ``handle_one_request`` around it (with its 501 for another
        method), ``send_error`` and timeouts stay the stdlib's.  Unlike
        the stdlib it refuses an HTTP/0.9 line (no version) with 400
        instead of serving it, and does not answer ``Expect:
        100-continue`` (no endpoint reads a request body).
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        line = self.requestline = str(self.raw_requestline,
                                      "iso-8859-1").rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        if len(words) >= 3:
            version = _http_version(words[-1])
            if version is None:
                self.send_error(400, f"Bad request version ({words[-1]!r})")
                return False
            if version >= (2, 0):
                self.send_error(505, "Invalid HTTP version "
                                     f"({words[-1][5:]})")
                return False
            self.close_connection = version < (1, 1)
            self.request_version = words[-1]
        if len(words) != 3:
            self.send_error(400, f"Bad request syntax ({line!r})")
            return False
        self.command, path = words[0], words[1]
        # the stdlib's guard against "//host" read as an absolute URI
        self.path = "/" + path.lstrip("/") if path.startswith("//") \
            else path

        try:
            headers = self.headers = read_headers(self.rfile)
        except http.client.LineTooLong as err:
            self.send_error(431, "Line too long", str(err))
            return False
        except http.client.HTTPException as err:
            self.send_error(431, "Too many headers", str(err))
            return False
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        return True

    def _date_value(self) -> str:
        """The ``Date`` header, formatted once per second."""
        now = int(time.time())  # noqa: ULF002 host-side HTTP Date header, not simulated time
        second, text = self._date
        if second != now:
            text = self.date_time_string(now)
            type(self)._date = (now, text)
        return text

    def _dispatch(self, path: str,
                  query: dict) -> Tuple[str, int, Payload]:
        """(endpoint label, status, payload) for one GET."""
        state = self.state
        if path in ("/healthz", "/health"):
            return ("healthz", *state.healthz())
        if path == "/v1/cache/stats":
            return ("cache_stats", *state.cache_stats())
        m = re.match(r"^/v1/experiment/([A-Za-z0-9_.-]+)$", path)
        if m:
            quick = _flag(query, "quick", default=True)
            retry = _flag(query, "retry", default=False)
            return ("experiment", *state.experiment(m.group(1), quick,
                                                    retry))
        m = re.match(r"^/v1/run/([A-Za-z0-9]+)$", path)
        if m:
            return ("run", *state.run(m.group(1)))
        m = re.match(r"^/v1/job/([A-Za-z0-9-]+)$", path)
        if m:
            return ("job", *state.job(m.group(1)))
        return "unknown", 404, {"error": f"no such endpoint {path}"}

    def do_GET(self):  # noqa: N802 - stdlib dispatch name
        t0 = wall_now()
        url = urlparse(self.path)
        try:
            endpoint, status, payload = self._dispatch(
                url.path, parse_qs(url.query))
        except Exception as exc:   # a handler bug must not kill the server
            endpoint, status = "internal", 500
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        body = payload if isinstance(payload, bytes) else _encode(payload)
        retry_after = "Retry-After: 1\r\n" if status == 503 else ""
        head = (f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self._date_value()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n{retry_after}\r\n")
        self.log_request(status)
        try:
            self.wfile.write(head.encode("latin-1") + body)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True    # the client went away
        requests, seconds = self.state.request_instruments(endpoint, status)
        requests.inc()
        seconds.observe(wall_now() - t0)


def _http_version(word: str) -> Optional[Tuple[int, int]]:
    """``HTTP/<major>.<minor>`` as two ints, or None where the stdlib's
    parser answers 400: one dot, ASCII digits, at most ten of each."""
    if not word.startswith("HTTP/"):
        return None
    parts = word[5:].split(".")
    if len(parts) != 2 or not all(
            p.isascii() and p.isdigit() and len(p) <= 10 for p in parts):
        return None
    return int(parts[0]), int(parts[1])


def _flag(query: dict, name: str, default: bool) -> bool:
    vals = query.get(name)
    if not vals:
        return default
    return vals[-1].strip().lower() not in ("0", "false", "no", "")


def create_server(host: str = "127.0.0.1", port: int = 0,
                  cache_dir: Optional[str] = None,
                  queue_workers: int = 2, max_pending: int = 32,
                  sweep_workers: int = 1,
                  quiet: bool = True) -> ThreadingHTTPServer:
    """A ready-to-run server; ``port=0`` binds an ephemeral port
    (``server.server_address[1]`` reports it).  The caller owns the
    lifecycle: ``serve_forever()`` / ``shutdown()`` / ``server_close()``,
    plus ``server.state.queue.shutdown()`` for the workers."""
    state = ServiceState(cache=RunCache(directory=cache_dir),
                         queue_workers=queue_workers,
                         max_pending=max_pending,
                         sweep_workers=sweep_workers)
    handler = type("BoundHandler", (_Handler,),
                   {"state": state, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    server.state = state
    return server


def serve(host: str = "127.0.0.1", port: int = 8642,
          cache_dir: Optional[str] = None, queue_workers: int = 2,
          max_pending: int = 32, sweep_workers: int = 1,
          quiet: bool = False) -> int:
    """Blocking entry point behind ``python -m repro serve``."""
    import sys
    server = create_server(host, port, cache_dir=cache_dir,
                           queue_workers=queue_workers,
                           max_pending=max_pending,
                           sweep_workers=sweep_workers, quiet=quiet)
    bound = server.server_address
    where = cache_dir if cache_dir \
        else "in-memory only; pass --cache DIR to persist"
    print(f"repro serve: listening on http://{bound[0]}:{bound[1]} "
          f"(cache: {where})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        server.state.queue.shutdown(wait=False)
    return 0
