"""Stdlib HTTP client for the results service.

Wraps the 202-poll-200 protocol so callers just ask for a document::

    with ServiceClient("http://127.0.0.1:8642") as client:
        doc = client.experiment("fig9")      # polls until computed
        stats = client.cache_stats()

Built on ``http.client`` only, with one kept-alive connection per
calling thread — usable from CI shells, benchmarks and notebooks
without installing anything.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import Optional, Tuple
from urllib.parse import urlsplit

from .jobqueue import wall_now

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A non-retryable service answer (4xx/5xx, or poll timeout)."""

    def __init__(self, status: int, payload):
        self.status = status
        self.payload = payload
        detail = payload.get("error") if isinstance(payload, dict) \
            else payload
        super().__init__(f"HTTP {status}: {detail}")


def _sleep(seconds: float) -> None:
    time.sleep(seconds)  # noqa: ULF002 host-side client poll pacing, not simulated time


class ServiceClient:
    """Minimal blocking client; one instance per base URL, shareable
    between threads.  ``close()`` (or leaving a ``with`` block) closes
    every thread's connection; a later request reconnects."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        self._conn_class = http.client.HTTPSConnection \
            if url.scheme == "https" else http.client.HTTPConnection
        self._netloc, self._prefix = url.netloc, url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns = weakref.WeakSet()     # every live thread's connection

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._conn_class(
                self._netloc, timeout=self.timeout)
            with self._lock:
                self._conns.add(conn)
        return conn

    # ------------------------------------------------------------------
    def get(self, path: str) -> Tuple[int, dict]:
        """One GET; returns (status, decoded JSON) without raising on
        4xx/5xx (the poll loop needs the status); a non-JSON error body
        reads as ``{"error": body}``."""
        conn, resp = self._connection(), None
        reused = conn.sock is not None
        try:
            conn.request("GET", self._prefix + path)
            resp = conn.getresponse()
            body = resp.read().decode()
        except BaseException as exc:
            conn.close()
            # the server dropped the idle kept-alive connection before
            # answering: send once more, on a fresh one
            if reused and resp is None and isinstance(exc, ConnectionError):
                return self.get(path)
            raise
        if resp.status < 400:
            return resp.status, json.loads(body)
        try:
            payload = json.loads(body)
        except ValueError:
            payload = {"error": body or f"HTTP {resp.status} {resp.reason}"}
        return resp.status, payload

    def _expect(self, path: str, ok=(200,)) -> dict:
        status, payload = self.get(path)
        if status not in ok:
            raise ServiceError(status, payload)
        return payload

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._expect("/healthz")

    def wait_healthy(self, timeout: float = 10.0,
                     interval: float = 0.05) -> dict:
        """Poll ``/healthz`` until the server answers (startup races)."""
        deadline = wall_now() + timeout
        while True:
            try:
                return self.healthz()
            except (ServiceError, OSError, http.client.HTTPException):
                if wall_now() >= deadline:
                    raise
                _sleep(interval)

    def cache_stats(self) -> dict:
        return self._expect("/v1/cache/stats")

    def run(self, key: str) -> dict:
        return self._expect(f"/v1/run/{key}")

    def job(self, job_id: str) -> dict:
        return self._expect(f"/v1/job/{job_id}")

    # ------------------------------------------------------------------
    def experiment_once(self, name: str,
                        quick: bool = True) -> Tuple[int, dict]:
        """One non-waiting request: (200, doc) warm, (202, ticket) cold,
        or whatever error the service answered."""
        return self.get(f"/v1/experiment/{name}?quick={1 if quick else 0}")

    def experiment(self, name: str, quick: bool = True,
                   poll_interval: float = 0.1,
                   timeout: Optional[float] = 300.0) -> dict:
        """The experiment document, polling through any 202s.

        503 (queue full) is retried like 202 — backpressure is an
        invitation to wait, not an error; anything else raises
        :class:`ServiceError`, as does exceeding ``timeout``.
        """
        deadline = None if timeout is None else wall_now() + timeout
        while True:
            status, payload = self.experiment_once(name, quick)
            if status == 200:
                return payload
            if status not in (202, 503):
                raise ServiceError(status, payload)
            if deadline is not None and wall_now() >= deadline:
                raise ServiceError(
                    status, {"error": f"experiment {name!r} still "
                                      f"{payload.get('status', 'pending')} "
                                      f"after {timeout}s"})
            _sleep(poll_interval)
