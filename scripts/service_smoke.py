#!/usr/bin/env python
"""End-to-end smoke test of ``python -m repro serve``.

Unlike the in-process service tests, this drives a *real* server
subprocess over real HTTP — the exact deployment CI and users run — and
asserts the service contract end to end:

1. cold experiment: 202 with a job id, then polls to a schema-valid 200;
2. warm experiment: immediate 200 straight from the shared store, and
   two warm reads decode equal to the polled document;
3. N concurrent identical cold requests coalesce onto one job
   (asserted via ``/v1/cache/stats`` once ``/v1/job/<id>`` reads done);
4. a restarted server over the same ``--cache`` answers warm at once,
   with the document the first server served;
5. ``python -m repro cache stats|verify`` agree with the store on disk.

Exit code 0 on success, 1 on any failed check.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.schema import validate_experiment_doc  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

DEDUP_CLIENTS = 6
JOB_TIMEOUT_S = 600.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(port: int, cache_dir: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
         "--port", str(port), "--cache", cache_dir, "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def wait_job(client: ServiceClient, job_id: str) -> str:
    """Poll ``/v1/job/<id>`` until the job has finished; its status."""
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while True:
        status = client.job(job_id)["status"]
        if status in ("done", "failed") or time.monotonic() > deadline:
            return status
        time.sleep(0.05)


def check(label: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}"
          + (f"  ({detail})" if detail else ""))
    return ok


def run_smoke() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="service-smoke-") as tmp:
        cache_dir = str(Path(tmp) / "cache")
        port = free_port()
        proc = start_server(port, cache_dir)
        try:
            with ServiceClient(f"http://127.0.0.1:{port}",
                               timeout=60) as client:
                client.wait_healthy(timeout=30)

                # 1. cold: 202 + job id, poll to a schema-valid 200
                status, ticket = client.experiment_once("table1")
                failures += not check(
                    "cold request answers 202 with a job id",
                    status == 202 and ticket.get("job", "").startswith("job-"),
                    f"status={status}")
                doc = client.experiment("table1", timeout=600)
                validate_experiment_doc(doc)
                failures += not check(
                    "poll reaches a schema-valid 200 document",
                    doc["experiment"] == "table1" and len(doc["points"]) > 0)

                # 2. warm: immediate 200, the same document every read
                t0 = time.perf_counter()
                status, warm = client.experiment_once("table1")
                warm_ms = (time.perf_counter() - t0) * 1000.0
                failures += not check("warm request answers 200 immediately",
                                      status == 200, f"{warm_ms:.1f}ms")
                again = client.experiment_once("table1")
                failures += not check(
                    "two warm reads decode equal to the polled document",
                    again == (200, warm) and warm == doc)

                # 3. concurrent identical cold requests coalesce
                before = client.cache_stats()["queue"]
                barrier = threading.Barrier(DEDUP_CLIENTS)
                tickets = []
                lock = threading.Lock()

                def fire():
                    barrier.wait()
                    result = client.experiment_once("fig10")
                    with lock:
                        tickets.append(result)

                threads = [threading.Thread(target=fire)
                           for _ in range(DEDUP_CLIENTS)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                fired = client.cache_stats()["queue"]
                jobs = {p["job"] for s, p in tickets if s == 202}
                # a job reads done only once it is counted, and no poll
                # straddles its end, so ``executed`` is exact
                finished = [wait_job(client, job) for job in sorted(jobs)]
                after = client.cache_stats()["queue"]
                executed = after["executed"] - before["executed"]
                deduped = fired["deduped"] - before["deduped"]
                failures += not check(
                    f"{DEDUP_CLIENTS} concurrent requests -> 1 execution",
                    executed == 1 and finished == ["done"],
                    f"executed={executed} deduped={deduped} "
                    f"jobs={finished}")
                client.experiment("fig10", timeout=600)
        finally:
            stop_server(proc)

        # 4. a restarted server over the same store is warm at once
        port = free_port()
        proc = start_server(port, cache_dir)
        try:
            with ServiceClient(f"http://127.0.0.1:{port}",
                               timeout=60) as client:
                client.wait_healthy(timeout=30)
                status, restarted = client.experiment_once("table1")
                failures += not check(
                    "restarted server serves the document warm",
                    status == 200, f"status={status}")
                failures += not check(
                    "restarted server serves the first server's document",
                    restarted == doc)
        finally:
            stop_server(proc)

        # 5. the cache CLI agrees with the store on disk
        env_cmd = [sys.executable, "-m", "repro", "cache"]
        stats = subprocess.run(env_cmd + ["stats", "--cache", cache_dir,
                                          "--json"],
                               capture_output=True, text=True)
        entries = (json.loads(stats.stdout)["entries"]
                   if stats.returncode == 0 else -1)
        failures += not check("cache stats sees the persisted entries",
                              stats.returncode == 0 and entries > 0,
                              f"entries={entries}")
        verify = subprocess.run(env_cmd + ["verify", "--cache", cache_dir],
                                capture_output=True, text=True)
        failures += not check("cache verify reports every blob loadable",
                              verify.returncode == 0,
                              verify.stdout.strip())

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("service smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_smoke())
