"""The HTTP API: 202+poll semantics, warm hits, dedup, error paths.

Experiment endpoints are exercised against *fake* registry entries
(fast, controllable, including a failing one) — the real drivers are
covered by the CLI/experiment suites and the end-to-end smoke script.
"""

import contextlib
import socket
import threading

import pytest

from repro.core import RunMetrics
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import create_server


def _fake_points(quick, runner):
    return [{"value": 1.5, "quick": bool(quick)}]


@pytest.fixture
def fake_experiments(monkeypatch):
    monkeypatch.setitem(
        EXPERIMENTS, "fake",
        ExperimentSpec("fake", _fake_points, lambda pts: "fake"))

    def broken(quick, runner):
        raise RuntimeError("driver exploded")

    monkeypatch.setitem(
        EXPERIMENTS, "broken",
        ExperimentSpec("broken", broken, lambda pts: "broken"))


def _url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}"


@contextlib.contextmanager
def _running(cache_dir, **kwargs):
    """An in-process server on ``cache_dir`` and a healthy client for it."""
    server = create_server(port=0, cache_dir=str(cache_dir), **kwargs)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        with ServiceClient(_url(server), timeout=10) as client:
            client.wait_healthy()
            yield server, client
    finally:
        server.shutdown()
        server.server_close()
        server.state.queue.shutdown()


@pytest.fixture
def service(tmp_path, fake_experiments):
    with _running(tmp_path / "cache", queue_workers=2,
                  max_pending=8) as running:
        yield running


def test_healthz(service):
    _, client = service
    doc = client.healthz()
    assert doc["status"] == "ok"
    assert doc["uptime_s"] >= 0


def test_unknown_endpoint_404(service):
    _, client = service
    status, payload = client.get("/v1/nope")
    assert status == 404
    assert "error" in payload


def test_cold_202_then_poll_to_200(service):
    _, client = service
    status, ticket = client.experiment_once("fake")
    assert status == 202
    assert ticket["status"] in ("pending", "running")
    assert ticket["job"].startswith("job-")
    assert ticket["poll"] == "/v1/experiment/fake?quick=1"
    doc = client.experiment("fake", timeout=30)
    assert doc["experiment"] == "fake"
    assert doc["points"] == [{"value": 1.5, "quick": True}]
    assert doc["params"] == {"quick": True}


def test_warm_request_immediate_200(service):
    _, client = service
    client.experiment("fake", timeout=30)
    status, doc = client.experiment_once("fake")
    assert status == 200
    assert doc["points"] == [{"value": 1.5, "quick": True}]


def test_quick_and_full_are_distinct_documents(service):
    _, client = service
    quick = client.experiment("fake", quick=True, timeout=30)
    full = client.experiment("fake", quick=False, timeout=30)
    assert quick["points"][0]["quick"] is True
    assert full["points"][0]["quick"] is False


def test_unknown_experiment_404(service):
    _, client = service
    status, payload = client.get("/v1/experiment/nope")
    assert status == 404
    assert "nope" in payload["error"]
    with pytest.raises(ServiceError):
        client.experiment("nope")


def test_concurrent_identical_requests_coalesce(service, monkeypatch):
    server, client = service
    release = threading.Event()
    started = threading.Event()

    def slow(quick, runner):
        started.set()
        release.wait(10)
        return [{"value": 2.0}]

    monkeypatch.setitem(EXPERIMENTS, "slow",
                        ExperimentSpec("slow", slow, lambda pts: "slow"))
    tickets = []

    def fire():
        tickets.append(client.experiment_once("slow"))

    fire()
    assert started.wait(10)
    threads = [threading.Thread(target=fire) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    release.set()
    assert [s for s, _ in tickets] == [202] * 5
    assert len({p["job"] for _, p in tickets}) == 1     # one shared job
    # handshake: the job has stored its document and settled its counters
    # before the first poll, so no poll can straddle its end
    assert server.state.queue.job(tickets[0][1]["job"]).wait(10)
    doc = client.experiment("slow", timeout=30)
    assert doc["points"] == [{"value": 2.0}]
    queue_stats = client.cache_stats()["queue"]
    assert queue_stats["deduped"] >= 4
    # the job body ran exactly once for this key
    assert queue_stats["executed"] == 1


def test_a_request_racing_a_jobs_end_computes_nothing(service,
                                                     monkeypatch):
    """A lookup that misses just before a job stores its document, then a
    submit just after the job left the queue, starts a second job for the
    same key; that job finds the document and computes nothing."""
    server, client = service
    calls = []

    def counted(quick, runner):
        calls.append(quick)
        return [{"value": 3.0}]

    monkeypatch.setitem(EXPERIMENTS, "once",
                        ExperimentSpec("once", counted, lambda pts: "once"))
    _, first = client.experiment_once("once")
    assert server.state.queue.job(first["job"]).wait(10)
    # the race is only open before the key's first 200: the server keeps
    # that body and never looks the key up again
    cache, stale = server.state.cache, [first["key"]]
    load = cache.load
    doc = load(first["key"])

    def racing_load(key):
        if key in stale:           # the next lookup of the key misses
            stale.remove(key)
            return None
        return load(key)

    monkeypatch.setattr(cache, "load", racing_load)
    status, second = client.experiment_once("once")
    assert status == 202 and second["job"] != first["job"]
    assert server.state.queue.job(second["job"]).wait(10)
    assert client.experiment("once", timeout=30) == doc
    assert calls == [True]


def test_failed_experiment_answers_500_until_retry(service, monkeypatch):
    _, client = service
    status, _ = client.experiment_once("broken")
    assert status == 202
    # poll until the failure lands
    deadline = 50
    for _ in range(deadline):
        status, payload = client.experiment_once("broken")
        if status == 500:
            break
        threading.Event().wait(0.05)
    assert status == 500
    assert "driver exploded" in payload["error"]
    assert client.experiment_once("broken")[0] == 500
    # a repaired driver + ?retry=1 recomputes; without it, still a 500
    monkeypatch.setitem(
        EXPERIMENTS, "broken",
        ExperimentSpec("broken", _fake_points, lambda pts: "broken"))
    assert client.experiment_once("broken")[0] == 500
    status, _ = client.get("/v1/experiment/broken?retry=1")
    assert status == 202
    doc = client.experiment("broken", timeout=30)
    assert doc["points"] == [{"value": 1.5, "quick": True}]


def test_full_disk_is_a_miss_a_500_and_recoverable(service, monkeypatch):
    """A write that fails (``ENOSPC``) leaves the key a miss in memory and
    on disk, no tmp file, a 500 for that document only, and ``?retry=1``
    succeeds once writes work again."""
    import errno
    import os
    from pathlib import Path

    from repro.core import AppConfig
    from repro.machine.presets import IDEAL
    from repro.service.server import ServiceState
    from repro.sweep import SweepPoint

    server, client = service
    cache = server.state.cache
    point = SweepPoint(AppConfig(n=6, level=4, technique_code="AC", steps=2,
                                 diag_procs=1), IDEAL)
    monkeypatch.setitem(EXPERIMENTS, "onerun", ExperimentSpec(
        "onerun",
        lambda quick, runner: [{"ranks": runner.run_one(point).world_size}],
        str))
    doc_key = ServiceState.experiment_key("onerun", True)
    real_write = Path.write_bytes

    def full_disk(self, data):
        if self.suffix == ".tmp":
            real_write(self, data[: len(data) // 2])   # a partial tmp file
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(self, data)

    def settled():
        for _ in range(600):
            status, payload = client.experiment_once("onerun")
            if status != 202:
                return status, payload
            threading.Event().wait(0.05)
        raise AssertionError("onerun still pending")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_bytes", full_disk)
        assert client.experiment_once("onerun")[0] == 202
        status, payload = settled()
        assert status == 500
        assert "No space left on device" in payload["error"]
        assert payload["experiment"] == "onerun"
        for key in (point.key(), doc_key):
            assert key not in cache and key not in cache.store
        assert cache.stats()["entries"] == 0
        assert not list(cache.store.directory.rglob("*.tmp"))
        # only that document is affected: the server is up and serving
        assert client.healthz()["status"] == "ok"
        assert client.get("/v1/experiment/nope")[0] == 404
        # a retry while the disk is still full fails the same way
        assert client.get("/v1/experiment/onerun?retry=1")[0] == 202
        assert settled()[0] == 500

    assert client.get("/v1/experiment/onerun?retry=1")[0] == 202
    assert client.experiment("onerun", timeout=30)["points"][0]["ranks"] > 0
    assert point.key() in cache.store and doc_key in cache.store


def test_run_endpoint_serves_cached_metrics(service):
    server, client = service
    metrics = RunMetrics(technique="CR", machine="OPL", n=6, level=4,
                         steps=4, world_size=9)
    key = "ab" * 20
    server.state.cache.put(key, metrics)
    doc = client.run(key)
    assert doc["key"] == key
    assert doc["metrics"]["technique"] == "CR"
    assert doc["metrics"]["world_size"] == 9


def test_run_endpoint_miss_and_malformed(service):
    _, client = service
    status, _ = client.get("/v1/run/" + "cd" * 20)
    assert status == 404
    status, payload = client.get("/v1/run/XYZ")
    assert status == 400
    assert "malformed" in payload["error"]


def test_job_endpoint(service):
    _, client = service
    _, ticket = client.experiment_once("fake")
    job_id = ticket["job"]
    client.experiment("fake", timeout=30)
    doc = client.job(job_id)
    assert doc["job"] == job_id
    assert doc["status"] == "done"
    assert doc["label"] == "experiment:fake"
    status, _ = client.get("/v1/job/job-999999")
    assert status == 404
    status, _ = client.get("/v1/job/%20")
    assert status == 404     # does not match the job route at all


def test_queue_full_answers_503(tmp_path, fake_experiments, monkeypatch):
    release = threading.Event()
    started = threading.Event()

    def slow(quick, runner):
        started.set()
        release.wait(10)
        return [{"v": 1}]

    for name in ("s1", "s2", "s3"):
        monkeypatch.setitem(
            EXPERIMENTS, name, ExperimentSpec(name, slow, lambda pts: name))
    with _running(tmp_path / "c2", queue_workers=1,
                  max_pending=1) as (_, client):
        try:
            assert client.experiment_once("s1")[0] == 202   # worker busy
            assert started.wait(10)
            assert client.experiment_once("s2")[0] == 202   # queue full now
            status, payload = client.experiment_once("s3")
            assert status == 503
            assert "capacity" in payload["error"]
            assert payload["retry_after_s"] == 1
        finally:
            release.set()


def test_cache_stats_endpoint_shape(service):
    _, client = service
    client.experiment("fake", timeout=30)
    doc = client.cache_stats()
    assert doc["store"]["format_version"] == 1
    assert doc["cache"]["entries"] >= 1
    assert doc["queue"]["executed"] >= 1
    names = {c["name"] for c in doc["metrics"]["counters"]}
    assert "service_requests" in names
    assert "service_cache" in names
    hists = {h["name"] for h in doc["metrics"]["histograms"]}
    assert "service_request_seconds" in hists


def test_document_survives_restart(tmp_path, fake_experiments):
    cache_dir = tmp_path / "persist"
    with _running(cache_dir) as (_, client):
        client.experiment("fake", timeout=30)
    with _running(cache_dir) as (_, client):
        status, doc = client.experiment_once("fake")
        assert status == 200                 # warm straight from disk
        assert doc["points"] == [{"value": 1.5, "quick": True}]


# ----------------------------------------------------------------------
# kept 200 bodies
# ----------------------------------------------------------------------
def _raw(server, path: str):
    """(status, body bytes) of one GET on its own connection."""
    import http.client
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1],
                                      timeout=10)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _counting_loads(monkeypatch, cache) -> list:
    """The keys ``cache.load`` is called with from now on."""
    loaded, load = [], cache.load

    def counting(key):
        loaded.append(key)
        return load(key)

    monkeypatch.setattr(cache, "load", counting)
    return loaded


def test_warm_bodies_are_encoded_once_and_byte_identical(service,
                                                         monkeypatch):
    import json

    from repro.service.server import ServiceState

    server, client = service
    cache = server.state.cache
    _, ticket = client.experiment_once("fake")
    assert server.state.queue.job(ticket["job"]).wait(10)
    doc_key = ServiceState.experiment_key("fake", True)
    run_key = "ef" * 20
    metrics = RunMetrics(technique="RC", machine="OPL", n=6, level=4,
                         steps=4, world_size=7)
    cache.put(run_key, metrics)
    expected = {
        "/v1/experiment/fake?quick=1": json.dumps(
            cache.load(doc_key), default=str).encode(),
        f"/v1/run/{run_key}": json.dumps(
            {"key": run_key, "metrics": metrics.to_dict()},
            default=str).encode(),
    }
    loaded = _counting_loads(monkeypatch, cache)
    for path, body in expected.items():
        assert [_raw(server, path) for _ in range(3)] == [(200, body)] * 3
    assert loaded == [doc_key, run_key]          # the first read of each
    hits = {tuple(c.labels): c.value
            for c in server.state.registry.counters("service_cache")}
    assert hits[(("kind", "experiment"), ("result", "hit"))] == 3
    assert hits[(("kind", "run"), ("result", "hit"))] == 3
    # a document's key is a run key too, with the run endpoint's body
    assert _raw(server, f"/v1/run/{doc_key}") == (200, json.dumps(
        {"key": doc_key, "metrics": cache.load(doc_key)},
        default=str).encode())


def test_racing_first_reads_keep_one_body(tmp_path):
    """Threads racing to a key's first read all write the one kept body:
    ``setdefault`` lets one encoding win without a lock."""
    import json
    import sys

    from repro.service.server import ServiceState
    from repro.sweep import RunCache

    state = ServiceState(cache=RunCache(directory=str(tmp_path)),
                         queue_workers=1)
    keys = [f"{i:02x}" * 20 for i in range(8)]
    for ranks, key in enumerate(keys, start=2):
        state.cache.put(key, RunMetrics(technique="AC", machine="OPL", n=6,
                                        level=4, steps=4, world_size=ranks))
    readers = 8
    barrier = threading.Barrier(readers)
    bodies = {key: [] for key in keys}

    def read():
        barrier.wait(10)
        for key in keys:
            bodies[key].append(state.run(key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
        state.queue.shutdown()
    assert not any(t.is_alive() for t in threads)
    for key in keys:
        expected = json.dumps({"key": key, "metrics": state.cache.load(
            key).to_dict()}, default=str).encode()
        (status, kept), *rest = bodies[key]
        assert status == 200 and kept == expected
        assert len(rest) == readers - 1
        assert all(s == 200 and body is kept for s, body in rest)


def test_only_a_200_is_kept(service, monkeypatch):
    server, client = service
    cache = server.state.cache
    # a run key's 404 is not kept: once put, the key answers 200
    key = "0a" * 20
    loaded = _counting_loads(monkeypatch, cache)
    assert client.get(f"/v1/run/{key}")[0] == 404
    assert client.get(f"/v1/run/{key}")[0] == 404
    cache.put(key, RunMetrics(technique="CR", machine="OPL", n=6, level=4,
                              steps=4, world_size=5))
    assert client.run(key)["metrics"]["world_size"] == 5
    assert loaded == [key] * 3
    # stats, job status and health are encoded on each request
    before = client.cache_stats()
    cache.put("0b" * 20, {"stored": "between the two reads"})
    after = client.cache_stats()
    assert after["cache"]["entries"] == before["cache"]["entries"] + 1
    assert after["store"]["entries"] == before["store"]["entries"] + 1
    release = threading.Event()

    def slow(quick, runner):
        release.wait(10)
        return [{"value": 4.0}]

    monkeypatch.setitem(EXPERIMENTS, "slow",
                        ExperimentSpec("slow", slow, lambda pts: "slow"))
    _, ticket = client.experiment_once("slow")
    assert client.job(ticket["job"])["status"] in ("pending", "running")
    release.set()
    assert server.state.queue.job(ticket["job"]).wait(10)
    assert client.job(ticket["job"])["status"] == "done"
    first = client.healthz()["uptime_s"]
    threading.Event().wait(0.01)
    assert client.healthz()["uptime_s"] > first


# ----------------------------------------------------------------------
# connections
# ----------------------------------------------------------------------
def _accepted(server) -> list:
    """The sockets ``server`` accepts from now on: its bound handler's
    ``setup`` runs once per connection, so it is wrapped to record them."""
    handler, accepted = server.RequestHandlerClass, []
    setup = handler.setup

    def recording(self):
        accepted.append(self.request)
        setup(self)

    handler.setup = recording
    return accepted


def test_one_client_holds_one_connection(service):
    server, _ = service
    accepted = _accepted(server)
    with ServiceClient(_url(server), timeout=10) as client:
        for _ in range(50):
            assert client.healthz()["status"] == "ok"
    assert len(accepted) == 1


def test_each_thread_gets_its_own_connection(service):
    server, _ = service
    keys = [f"{i:02d}" * 20 for i in range(4)]
    for ranks, key in enumerate(keys, start=2):
        server.state.cache.put(key, RunMetrics(
            technique="CR", machine="OPL", n=6, level=4, steps=4,
            world_size=ranks))
    accepted = _accepted(server)
    barrier = threading.Barrier(len(keys))
    answers = {}

    def read(key):
        barrier.wait(10)
        answers[key] = {client.run(key)["metrics"]["world_size"]
                        for _ in range(20)}

    with ServiceClient(_url(server), timeout=10) as client:
        threads = [threading.Thread(target=read, args=(key,))
                   for key in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert answers == {key: {ranks} for ranks, key in enumerate(keys, 2)}
    assert len(accepted) == len(keys)


def test_a_dropped_idle_connection_is_replaced(service):
    server, _ = service
    accepted = _accepted(server)
    with ServiceClient(_url(server), timeout=10) as client:
        assert client.healthz()["status"] == "ok"
        accepted[0].shutdown(socket.SHUT_RDWR)   # the server hangs up
        assert client.healthz()["status"] == "ok"
    assert len(accepted) == 2


def test_a_dropped_fresh_connection_is_not_resent(service):
    """One silent resend, and only for a kept-alive connection: when the
    server hangs up on every connection, a reused one costs two and a
    fresh one a single attempt."""
    server, _ = service
    accepted = _accepted(server)
    with ServiceClient(_url(server), timeout=10) as client:
        assert client.healthz()["status"] == "ok"
        setup = server.RequestHandlerClass.setup

        def hang_up(self):
            setup(self)
            self.connection.shutdown(socket.SHUT_RDWR)

        server.RequestHandlerClass.setup = hang_up
        accepted[0].shutdown(socket.SHUT_RDWR)
        with pytest.raises(ConnectionError):
            client.healthz()                  # reused, then one fresh
        assert len(accepted) == 2
        with pytest.raises(ConnectionError):
            client.healthz()                  # fresh: no second try
        assert len(accepted) == 3


def test_a_timeout_is_not_resent(service, monkeypatch):
    server, _ = service
    accepted, calls, release = _accepted(server), [], threading.Event()

    def stalled():
        calls.append(1)
        release.wait(10)
        return 200, {"status": "ok"}

    with ServiceClient(_url(server), timeout=0.2) as client:
        assert client.healthz()["status"] == "ok"
        monkeypatch.setattr(server.state, "healthz", stalled)
        try:
            with pytest.raises(TimeoutError):
                client.healthz()
        finally:
            release.set()
    assert calls == [1] and len(accepted) == 1


def test_error_answers_keep_the_connection(service, monkeypatch):
    server, _ = service
    accepted = _accepted(server)

    def broken(job_id):
        raise RuntimeError("job table exploded")

    monkeypatch.setattr(server.state, "job", broken)
    with ServiceClient(_url(server), timeout=10) as client:
        assert client.get("/v1/nope")[0] == 404
        assert client.healthz()["status"] == "ok"
        status, payload = client.get("/v1/job/job-1")
        assert status == 500 and "job table exploded" in payload["error"]
        assert client.healthz()["status"] == "ok"
    assert len(accepted) == 1


def test_a_non_json_error_body_is_the_error(service):
    """``send_error`` answers in HTML and closes the connection: the body
    is the error, and the next request opens a fresh connection."""
    server, _ = service
    handler = server.RequestHandlerClass
    accepted, do_get = _accepted(server), handler.do_GET

    def teapot(self):
        if self.path == "/teapot":
            self.send_error(418, "short and stout")
        else:
            do_get(self)

    handler.do_GET = teapot
    with ServiceClient(_url(server), timeout=10) as client:
        status, payload = client.get("/teapot")
        assert status == 418
        assert "short and stout" in payload["error"]
        assert client.healthz()["status"] == "ok"
    assert len(accepted) == 2


# ----------------------------------------------------------------------
# the request parser and the one-write answer, on raw sockets
# ----------------------------------------------------------------------
def _exchange(server, data: bytes):
    """Send ``data`` on a fresh connection; returns (everything the server
    answered, whether it then closed the connection)."""
    with socket.create_connection(("127.0.0.1", server.server_address[1]),
                                  timeout=10) as sock:
        sock.sendall(data)
        sock.settimeout(0.5)
        out = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except TimeoutError:
                return out, False           # answered, still open
            if not chunk:
                return out, True
            out += chunk


def _head(answer: bytes):
    """(status, lower-cased header dict, body) of one raw answer."""
    head, _, body = answer.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


def _get(path: str, version: str = "HTTP/1.1", *headers: str) -> bytes:
    return "\r\n".join((f"GET {path} {version}", "Host: test", *headers,
                         "", "")).encode("latin-1")


@pytest.mark.parametrize("version, headers, closed", [
    ("HTTP/1.1", (), False),
    ("HTTP/1.1", ("Connection: close",), True),
    ("HTTP/1.0", (), True),
    ("HTTP/1.0", ("Connection: keep-alive",), False)])
def test_connection_lifetime_follows_version_and_header(service, version,
                                                        headers, closed):
    server, _ = service
    answer, was_closed = _exchange(server, _get("/healthz", version,
                                                *headers))
    assert _head(answer)[0] == 200
    assert was_closed is closed


@pytest.mark.parametrize("line_bytes, status", [(65536, 200), (65537, 431)])
def test_a_header_line_over_64_kib_answers_431(service, line_bytes, status):
    server, _ = service
    header = "X-Pad: " + "a" * (line_bytes - len("X-Pad: \r\n"))
    answer, _ = _exchange(server, _get("/healthz", "HTTP/1.1", header,
                                       "Connection: close"))
    assert _head(answer)[0] == status


@pytest.mark.parametrize("count, status", [(99, 200), (101, 431)])
def test_a_101st_header_answers_431(service, count, status):
    """At most 100 head lines, the blank one included (``http.client``'s
    limit, as the stdlib parser counts it)."""
    server, _ = service
    headers = [f"X-H{i}: v" for i in range(count - 2)]   # plus Host
    answer, _ = _exchange(server, _get("/healthz", "HTTP/1.1", *headers,
                                       "Connection: close"))
    assert _head(answer)[0] == status


def test_bad_request_lines_answer_as_the_stdlib_does(service):
    server, _ = service
    answer, closed = _exchange(server, b"GET /a b HTTP/1.1\r\n\r\n")
    assert _head(answer)[0] == 400 and closed
    # a version the stdlib cannot parse, or HTTP/2 and later, is answered
    # before the version is known: an HTML body without a status line
    answer, closed = _exchange(server, b"GET / HTTP/1.x\r\n\r\n")
    assert b"Error code: 400" in answer and closed
    answer, closed = _exchange(server, b"GET / HTTP/2.0\r\n\r\n")
    assert b"Error code: 505" in answer and closed
    answer, closed = _exchange(
        server, b"POST /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
    assert _head(answer)[0] == 501 and closed


def _assert_full_head(answer: bytes, status: int) -> dict:
    got, headers, body = _head(answer)
    assert got == status
    assert headers["server"].startswith("repro-serve/1")
    assert headers["date"].endswith(" GMT")
    assert headers["content-type"] == "application/json"
    assert int(headers["content-length"]) == len(body)
    return headers


def test_every_answer_carries_the_full_head(service):
    server, client = service
    client.experiment("fake", timeout=30)
    for path, status in (("/v1/experiment/fake", 200), ("/healthz", 200),
                         ("/v1/nope", 404), ("/v1/run/XYZ", 400)):
        answer, _ = _exchange(server, _get(path, "HTTP/1.1",
                                           "Connection: close"))
        assert "retry-after" not in _assert_full_head(answer, status)


def test_a_503_carries_retry_after(tmp_path, fake_experiments, monkeypatch):
    release, started = threading.Event(), threading.Event()

    def slow(quick, runner):
        started.set()
        release.wait(10)
        return [{"v": 1}]

    for name in ("s1", "s2", "s3"):
        monkeypatch.setitem(
            EXPERIMENTS, name, ExperimentSpec(name, slow, lambda pts: name))
    with _running(tmp_path / "c3", queue_workers=1,
                  max_pending=1) as (server, client):
        try:
            assert client.experiment_once("s1")[0] == 202
            assert started.wait(10)
            assert client.experiment_once("s2")[0] == 202
            answer, _ = _exchange(server, _get("/v1/experiment/s3",
                                               "HTTP/1.1",
                                               "Connection: close"))
            assert _assert_full_head(answer, 503)["retry-after"] == "1"
        finally:
            release.set()


# ----------------------------------------------------------------------
# the client's response reader
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _canned(*answers: bytes):
    """A one-connection server answering each request with the next of
    ``answers`` (closing after the last); yields its URL and the list of
    requests it read."""
    listener = socket.create_server(("127.0.0.1", 0))
    requests = []

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile:
            for answer in answers:
                line = rfile.readline()
                while rfile.readline() not in (b"\r\n", b""):
                    pass
                requests.append(line)
                conn.sendall(answer)
            conn.shutdown(socket.SHUT_RDWR)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", requests
    finally:
        listener.close()
        thread.join(10)


_OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


@pytest.mark.parametrize("answer", [
    # a length beside the chunking does not make it readable
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 2"
    b"\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
    b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}"],
    ids=["chunked", "no-length", "short-body", "bad-status-line"])
def test_an_answer_the_reader_cannot_follow_raises_without_a_resend(answer):
    import http.client

    with _canned(_OK, answer) as (url, requests):
        with ServiceClient(url, timeout=10) as client:
            assert client.get("/healthz") == (200, {})
            with pytest.raises(http.client.HTTPException):
                client.get("/healthz")     # on the kept-alive connection
    assert requests == [b"GET /healthz HTTP/1.1\r\n"] * 2


# ----------------------------------------------------------------------
# document keys
# ----------------------------------------------------------------------
def test_document_key_is_stable_across_interpreters():
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.service.server import ServiceState

    code = ("from repro.service.server import ServiceState; "
            "print(ServiceState.experiment_key('fig9', False))")
    src = str(Path(__file__).resolve().parents[2] / "src")
    keys = {subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src,
                            PYTHONHASHSEED=seed)).stdout.strip()
        for seed in ("1", "2")}
    assert keys == {ServiceState.experiment_key("fig9", False)}


def test_document_key_covers_the_parameter_table(monkeypatch):
    """Regression: the key named the experiment but not what it ran, so
    an edited parameterisation kept serving the old warm document."""
    import dataclasses

    from repro.service.server import ServiceState

    key = ServiceState.experiment_key
    spec = EXPERIMENTS["fig10"]
    quick_before, full_before = key("fig10", True), key("fig10", False)
    monkeypatch.setitem(EXPERIMENTS, "fig10", dataclasses.replace(
        spec, quick={**spec.quick, "seeds": tuple(range(5))}))
    assert key("fig10", True) != quick_before
    assert key("fig10", False) == full_before      # its table did not move
    # equal tables (table1 today) are still two documents
    assert EXPERIMENTS["table1"].quick == EXPERIMENTS["table1"].full
    assert key("table1", True) != key("table1", False)
    # a spec without tables (the fakes above) keys on the empty table
    monkeypatch.setitem(EXPERIMENTS, "fake",
                        ExperimentSpec("fake", _fake_points, str))
    assert key("fake", True) != key("fake", False)
