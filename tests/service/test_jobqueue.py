"""JobQueue: coalescing, bounded backpressure, status, failure capture."""

import threading

import pytest

from repro.service.jobqueue import DONE, FAILED, JobQueue, QueueFull


@pytest.fixture
def q():
    queue = JobQueue(workers=2, max_pending=8)
    yield queue
    queue.shutdown()


def test_submit_executes_and_returns_result(q):
    job = q.submit("k1", lambda: 41 + 1)
    assert job.wait(10)
    assert job.state == DONE
    assert job.result == 42
    assert job.describe()["status"] == "done"
    assert job.describe()["seconds"] >= 0


def test_duplicate_inflight_submissions_coalesce():
    q = JobQueue(workers=1, max_pending=8)
    try:
        release = threading.Event()
        started = threading.Event()

        def blocked():
            started.set()
            release.wait(10)
            return "once"

        first = q.submit("k", blocked)
        assert started.wait(10)
        # the key is mid-execution: every further submit attaches to it
        dupes = [q.submit("k", lambda: "never") for _ in range(5)]
        assert all(d is first for d in dupes)
        assert first.waiters == 6
        release.set()
        assert first.wait(10)
        assert first.result == "once"
        stats = q.stats()
        assert stats["executed"] == 1
        assert stats["deduped"] == 5
    finally:
        q.shutdown()


def test_distinct_keys_do_not_coalesce(q):
    a = q.submit("ka", lambda: "a")
    b = q.submit("kb", lambda: "b")
    assert a is not b
    assert a.wait(10) and b.wait(10)
    assert (a.result, b.result) == ("a", "b")


def test_finished_key_resubmits_fresh_job(q):
    first = q.submit("k", lambda: 1)
    assert first.wait(10)
    second = q.submit("k", lambda: 2)
    assert second is not first
    assert second.wait(10)
    assert second.result == 2
    assert q.stats()["executed"] == 2


def test_failure_is_captured_not_raised(q):
    def boom():
        raise RuntimeError("nope")

    job = q.submit("k", boom)
    assert job.wait(10)
    assert job.state == FAILED
    assert "RuntimeError: nope" in job.error
    assert job.describe()["error"] == job.error
    assert q.stats()["failed"] == 1
    # the worker survived the failure
    ok = q.submit("k2", lambda: "alive")
    assert ok.wait(10) and ok.result == "alive"


def test_backpressure_raises_queue_full():
    q = JobQueue(workers=1, max_pending=1)
    try:
        release = threading.Event()
        started = threading.Event()

        def blocked():
            started.set()
            release.wait(10)

        q.submit("running", blocked)
        assert started.wait(10)            # worker busy
        q.submit("pending", lambda: None)  # fills the bounded queue
        with pytest.raises(QueueFull):
            q.submit("rejected", lambda: None)
        assert q.stats()["rejected"] == 1
        assert q.stats()["depth"] == 1
        release.set()
    finally:
        q.shutdown()


def test_job_lookup_by_id(q):
    job = q.submit("k", lambda: 7)
    assert q.job(job.id) is job
    assert q.job("job-999999") is None
    assert job.wait(10)


def test_inflight_lookup(q):
    release = threading.Event()
    job = q.submit("k", lambda: release.wait(10))
    assert q.inflight("k") is job
    assert q.inflight("other") is None
    release.set()
    assert job.wait(10)


def test_registry_metrics_flow(q):
    job = q.submit("k", lambda: None)
    assert job.wait(10)
    hist = q.registry.histograms("service_job_seconds")[0]
    assert hist.count == 1
    assert q.registry.counter("service_jobs", event="executed").value == 1


def test_rejects_zero_workers():
    with pytest.raises(ValueError):
        JobQueue(workers=0)


def test_a_job_seen_finished_has_been_counted(q, monkeypatch):
    """``done``/``failed`` is set after the job's counter moves, so a
    reader polling a job's status never finds it finished but uncounted."""
    count = q._count

    def slow_count(event):
        threading.Event().wait(0.05)     # widen the count -> state window
        count(event)

    def boom():
        raise RuntimeError("driver exploded")

    monkeypatch.setattr(q, "_count", slow_count)
    for key, fn, state, event in (("ok", lambda: 1, DONE, "executed"),
                                  ("bad", boom, FAILED, "failed")):
        job = q.submit(key, fn)
        for _ in range(100_000):
            if job.done:
                break
            threading.Event().wait(0.0001)
        assert job.state == state
        assert q.stats()[event] == 1, event
