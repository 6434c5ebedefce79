"""The ``serve_mixed`` workload: the results service under reads beside
a write.

Set-up starts a real ``python -m repro serve`` subprocess on an empty
store and fetches the quick ``fig9`` document cold (30 runs, 31 blob
writes); that store is the template every iteration starts from.

One iteration, closed loop, two ``ServiceClient`` connections:

1. *restart* — a new server on a copy of the template; its first
   ``fig9`` GET must be 200 at once (no 202);
2. *warm* — 2 x 150 requests in a seeded order: 60 % the ``fig9``
   document, 35 % ``/v1/run/<key>`` over the store's run keys, 5 %
   ``/v1/cache/stats``;
3. *busy* — the cold quick ``modes`` document (27 runs, 28 blob writes)
   is submitted and both readers keep looping, one of them polling it,
   until it is 200.

Reads run in the server's handler threads, the cold document in its job
worker, all under one GIL: a read-path gain that costs the write path
(or the reverse) shows as ``work_per_s`` and ``iter_s_p50`` moving in
opposite directions.  ``sweep.cache`` and ``service`` do all the work of
phases 1 and 2 and none in the simulator workloads.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.schema import SchemaError, validate_experiment_doc
from repro.service import SharedStore
from repro.service.client import ServiceClient
from repro.service.server import ServiceState

from measure import OUT_DIR, SRC_DIR, now, pid_peak_rss_mb
from simloads import Iteration, failure

WARM_DOC = "fig9"
COLD_DOC = "modes"
CLIENTS = 2
WARM_REQUESTS = 150          #: per client and iteration
MIX = (("doc", 0.60), ("run", 0.35), ("stats", 0.05))
START_TIMEOUT_S = 30.0
COLD_TIMEOUT_S = 120.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess over a store directory."""

    def __init__(self, cache_dir: Path):
        port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
        t0 = now()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", str(port), "--cache", str(cache_dir), "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.url = f"http://127.0.0.1:{port}"
        self.peak_rss_mb = 0.0
        try:
            ServiceClient(self.url).wait_healthy(timeout=START_TIMEOUT_S,
                                                 interval=0.005)
        except BaseException:
            self.stop()
            raise
        self.start_s = now() - t0

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.peak_rss_mb = pid_peak_rss_mb(self.proc.pid)
            except (OSError, RuntimeError):
                pass
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def request_path(kind: str, key: Optional[str]) -> str:
    if kind == "doc":
        return f"/v1/experiment/{WARM_DOC}?quick=1"
    if kind == "run":
        return f"/v1/run/{key}"
    return "/v1/cache/stats"


def request_mix(rng: random.Random, run_keys: List[str],
                n: int) -> List[Tuple[str, Optional[str]]]:
    """``n`` seeded ``(kind, run key)`` requests in the ``MIX`` shares."""
    kinds = rng.choices([k for k, _ in MIX], weights=[w for _, w in MIX], k=n)
    return [(k, rng.choice(run_keys) if k == "run" else None) for k in kinds]


class ServeWorkload:
    name = "serve_mixed"

    def __init__(self):
        self.tmp: Optional[Path] = None
        self.template: Optional[Path] = None
        self.run_keys: List[str] = []
        self.seed = 0
        self.iterations = 0
        self.server_peak_rss_mb = 0.0
        self.counts: Dict[str, float] = {}
        self.setup_failures: List[dict] = []
        #: client-side spans of the latest iteration, for the trace file
        self.spans: List[dict] = []
        #: the real iteration the traced pass runs to collect those spans
        self.traced_setup_iterations: List[Iteration] = []
        self._t_iteration = 0.0

    # ------------------------------------------------------------------
    def setup(self, seed: int) -> None:
        self.seed = seed
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR))
        self.template = self.tmp / "template"
        doc_key = ServiceState.experiment_key(WARM_DOC, True)
        store = SharedStore(self.template)
        server = Server(self.template)
        try:
            doc = ServiceClient(server.url).experiment(
                WARM_DOC, poll_interval=0.01, timeout=COLD_TIMEOUT_S)
            validate_experiment_doc(doc)
            # the 200 is served from memory a moment before the blob is
            # on disk, and SIGTERM does not wait for the write
            deadline = now() + START_TIMEOUT_S
            while doc_key not in store:
                if now() > deadline:
                    raise RuntimeError("the warm document never reached "
                                       "the store directory")
                time.sleep(0.005)
        finally:
            server.stop()
        self.server_peak_rss_mb = server.peak_rss_mb
        self.run_keys = [k for k in store.keys() if k != doc_key]

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    # ------------------------------------------------------------------
    def _get(self, client: ServiceClient, it: Iteration, phase: str,
             kind: str, path: str, ok=(200,)) -> Tuple[int, dict]:
        """One request as one operation, with its client-side span."""
        t0 = now()
        it.attempted += 1
        try:
            status, payload = client.get(path)
        except Exception as exc:   # noqa: BLE001 - timeout or refused: a failed operation
            it.failures.append(failure(f"{phase} GET {path}", exc))
            return 0, {}
        t1 = now()
        self.spans.append({"phase": phase, "endpoint": kind,
                           "start": t0 - self._t_iteration,
                           "end": t1 - self._t_iteration, "status": status})
        if status not in ok:
            it.failures.append({"op": f"{phase} GET {path}",
                                "type": "UnexpectedStatus",
                                "error": f"HTTP {status}"})
        else:
            it.samples.setdefault(f"{phase}_{kind}_ms", []).append(
                (t1 - t0) * 1e3)
        return status, payload

    def _check_doc(self, it: Iteration, name: str, doc: dict) -> None:
        it.attempted += 1
        try:
            validate_experiment_doc(doc)
        except SchemaError as exc:
            it.failures.append(failure(f"validate {name}", exc))

    def iteration(self) -> Iteration:
        self.iterations += 1
        self.spans = []
        it = Iteration(seconds=0.0, work=0.0, work_seconds=0.0, attempted=0)
        store_dir = self.tmp / f"store-{self.iterations}"
        shutil.copytree(self.template, store_dir)
        t0 = self._t_iteration = now()
        server = Server(store_dir)
        try:
            self._phases(server, it)
        finally:
            server.stop()
            it.seconds = now() - t0
            shutil.rmtree(store_dir, ignore_errors=True)
        it.samples["start_s"] = [server.start_s]
        self.server_peak_rss_mb = max(self.server_peak_rss_mb,
                                      server.peak_rss_mb)
        return it

    def _phases(self, server: Server, it: Iteration) -> None:
        clients = [ServiceClient(server.url, timeout=30.0)
                   for _ in range(CLIENTS)]
        rng = random.Random(self.seed * 7919 + self.iterations)

        # 1. restart: the copied store answers the document at once
        status, doc = self._get(clients[0], it, "restart", "doc",
                                request_path("doc", None))
        if status == 200:
            self._check_doc(it, WARM_DOC, doc)

        # 2. warm: both clients walk their seeded request lists
        plans = [request_mix(rng, self.run_keys, WARM_REQUESTS)
                 for _ in clients]

        def walk(client, plan):
            for kind, key in plan:
                self._get(client, it, "warm", kind, request_path(kind, key))

        before = it.attempted - len(it.failures)
        t0 = now()
        self._in_threads([(walk, (c, p)) for c, p in zip(clients, plans)])
        it.work_seconds = now() - t0
        it.work = (it.attempted - len(it.failures)) - before

        # 3. busy: a cold document computes while both readers go on
        done = threading.Event()
        cold_path = f"/v1/experiment/{COLD_DOC}?quick=1"
        busy = request_mix(rng, self.run_keys, 8 * WARM_REQUESTS)
        t_submit = now()
        status, _ = self._get(clients[0], it, "busy", "submit", cold_path,
                              ok=(202,))

        def poller(client, plan):
            for kind, key in plan:
                if now() - t_submit > COLD_TIMEOUT_S:
                    break
                status, doc = self._get(client, it, "busy", "poll",
                                        cold_path, ok=(200, 202))
                if status == 200:
                    it.samples["cold_doc_s"] = [now() - t_submit]
                    self._check_doc(it, COLD_DOC, doc)
                    break
                self._get(client, it, "busy", kind, request_path(kind, key))
            done.set()

        def reader(client, plan):
            for kind, key in plan:
                if done.is_set():
                    break
                self._get(client, it, "busy", kind, request_path(kind, key))

        if status == 202:
            half = len(busy) // 2
            self._in_threads([(poller, (clients[0], busy[:half])),
                              (reader, (clients[1], busy[half:]))])
        it.attempted += 1               # the cold document arrived
        if "cold_doc_s" not in it.samples:
            it.failures.append({"op": f"cold {COLD_DOC}", "type": "Timeout",
                                "error": "no 200 for the cold document"})

    @staticmethod
    def _in_threads(jobs) -> None:
        threads = [threading.Thread(target=fn, args=args) for fn, args in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    # ------------------------------------------------------------------
    def peak_rss_mb(self) -> float:
        """The largest server process seen so far."""
        return self.server_peak_rss_mb

    def traced_unit(self, n_reads: int):
        """What the traced pass profiles: ``n_reads`` seeded reads through
        ``ServiceState`` in the caller's thread (where the service's read
        paths run), on a warm copy of the template store.  One real
        iteration runs first, for its client-side spans.  Returns the
        callable and its clean-up."""
        from repro.sweep import RunCache
        self.traced_setup_iterations = [self.iteration()]
        store_dir = self.tmp / "traced-store"
        shutil.copytree(self.template, store_dir)
        state = ServiceState(cache=RunCache(directory=str(store_dir)))
        plan = request_mix(random.Random(self.seed), self.run_keys, n_reads)

        def reads() -> Iteration:
            it = Iteration(seconds=0.0, work=0.0, work_seconds=0.0,
                           attempted=len(plan))
            t0 = now()
            for kind, key in plan:
                if kind == "doc":
                    status, _ = state.experiment(WARM_DOC, True, False)
                elif kind == "run":
                    status, _ = state.run(key)
                else:
                    status, _ = state.cache_stats()
                if status != 200:
                    it.failures.append({"op": f"in-process {kind}",
                                        "type": "UnexpectedStatus",
                                        "error": f"status {status}"})
            it.seconds = it.work_seconds = now() - t0
            it.work = len(plan) - len(it.failures)
            return it

        def cleanup() -> None:
            state.queue.shutdown()
            shutil.rmtree(store_dir, ignore_errors=True)

        return reads, cleanup
