"""Stdlib HTTP client for the results service.

Wraps the 202-poll-200 protocol so callers just ask for a document::

    with ServiceClient("http://127.0.0.1:8642") as client:
        doc = client.experiment("fig9")      # polls until computed
        stats = client.cache_stats()

Each calling thread keeps one kept-alive socket (wrapped with ``ssl``
for ``https``) and one buffered reader on it.  A request is one write;
the reader takes the status line, the header lines and a
``Content-Length`` body straight off the socket, and anything else — a
chunked or length-less body, a short body, a bad status line — raises
an :class:`http.client.HTTPException`.  Stdlib only: usable from CI
shells, benchmarks and notebooks without installing anything.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import ssl
import threading
import time
import weakref
from typing import Dict, Optional, Tuple
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


#: ``http.client``'s limits on a message head: bytes in one line, and
#: header lines, the blank one included
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: what ``http.client`` refuses in a request target
_BAD_PATH = re.compile("[\x00-\x20\x7f]")


def read_headers(rfile) -> Dict[str, str]:
    """A head's header lines, read from ``rfile`` through its blank line
    and keyed by lower-cased name.  ``http.client``'s limits and errors:
    :class:`~http.client.LineTooLong` for a line over ``_MAX_LINE``
    bytes, :class:`~http.client.HTTPException` for more than
    ``_MAX_HEADERS`` lines.  The server reads requests with it too."""
    headers = {}
    for _ in range(_MAX_HEADERS):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("header line")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = str(line, "iso-8859-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


class _Connection:
    """One thread's socket and the buffered reader on it; ``sock`` is
    None until the first request and again after ``close``."""

    def __init__(self):
        self.sock: Optional[socket.socket] = None
        self.rfile = None

    def open(self, host: str, port: int, timeout: float, tls) -> None:
        sock = socket.create_connection((host, port), timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if tls is not None:
                sock = tls.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        self.sock, self.rfile = sock, sock.makefile("rb")

    def close(self) -> None:
        sock, rfile, self.sock, self.rfile = self.sock, self.rfile, None, None
        if rfile is not None:
            rfile.close()
        if sock is not None:
            sock.close()


def _read_head(rfile) -> Tuple[int, str, int, bool]:
    """(status, reason, body length, keep the connection) of a response
    head; a head this reader cannot follow raises ``HTTPException``."""
    line = str(rfile.readline(_MAX_LINE + 1), "iso-8859-1")
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong("status line")
    if not line:
        raise http.client.RemoteDisconnected(
            "Remote end closed connection without response")
    words = line.split(None, 2)
    if len(words) < 2 or not words[0].startswith("HTTP/") or not (
            words[1].isascii() and words[1].isdigit()
            and 100 <= int(words[1]) <= 999):
        raise http.client.BadStatusLine(line)
    headers = read_headers(rfile)
    if "transfer-encoding" in headers:
        raise http.client.HTTPException(
            "unsupported Transfer-Encoding: "
            f"{headers['transfer-encoding']}")
    length = headers.get("content-length", "")
    if not (length.isascii() and length.isdigit()):
        raise http.client.HTTPException(
            f"no usable Content-Length ({length!r})")
    connection = headers.get("connection", "").lower()
    keep = connection != "close" and (
        words[0] != "HTTP/1.0" or connection == "keep-alive")
    reason = words[2].strip() if len(words) == 3 else ""
    return int(words[1]), reason, int(length), keep


class ServiceClient:
    """Minimal blocking client; one instance per base URL, shareable
    between threads.  ``close()`` (or leaving a ``with`` block) closes
    every thread's connection; a later request reconnects."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        https = url.scheme == "https"
        self._host = url.hostname
        self._port = url.port or (443 if https else 80)
        self._tls = ssl.create_default_context() if https else None
        self._prefix = url.path
        self._head_tail = f" HTTP/1.1\r\nHost: {url.netloc}\r\n\r\n".encode()
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

    def _connection(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection()
            with self._lock:
                self._conns.add(conn)
        return conn

    # ------------------------------------------------------------------
    def get(self, path: str) -> Tuple[int, dict]:
        """One GET; returns (status, decoded JSON) without raising on
        4xx/5xx (the poll loop needs the status); a non-JSON error body
        reads as ``{"error": body}``."""
        target = self._prefix + path
        if _BAD_PATH.search(target):
            raise http.client.InvalidURL(
                f"URL can't contain control characters. {target!r}")
        request = b"GET " + target.encode("ascii") + self._head_tail
        conn, head = self._connection(), None
        reused = conn.sock is not None
        try:
            if not reused:
                conn.open(self._host, self._port, self.timeout, self._tls)
            conn.sock.sendall(request)
            head = status, reason, length, keep = _read_head(conn.rfile)
            body = conn.rfile.read(length)
            if len(body) < length:
                raise http.client.IncompleteRead(body, length - len(body))
        except BaseException as exc:
            conn.close()
            # the server dropped the idle kept-alive connection before
            # answering: send once more, on a fresh one
            if reused and head is None and isinstance(exc, ConnectionError):
                return self.get(path)
            raise
        if not keep:
            conn.close()
        if status < 400:
            return status, json.loads(body)
        try:
            payload = json.loads(body)
        except ValueError:
            payload = {"error": body.decode() or f"HTTP {status} {reason}"}
        return status, payload

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
