"""The store under a crashing writer: a server killed in the middle of a
job leaves only whole blobs (plus ``*.tmp`` files ``cache gc`` sweeps), and
the next server finishes the same document.  (The full-disk half of the
pair is ``test_server.py::test_full_disk_is_a_miss_a_500_and_recoverable``.)
"""

import json
import os
import pickle
import random
import select
import signal
import subprocess
import sys
from pathlib import Path

from repro.cli import main
from repro.service.client import ServiceClient
from repro.service.server import ServiceState

REPO = Path(__file__).resolve().parents[2]
GOLDEN_MODES = REPO / "tests" / "experiments" / "golden" / "modes.quick.json"

#: ``repro serve`` whose store, once it holds ``n`` run blobs, writes one
#: byte to the inherited pipe ``fd`` and parks the job thread for good
#: (argv: fd, n, the document key, then the CLI arguments)
_STOP_AFTER_N_BLOBS = """
import os, sys, threading
from repro.cli import main
from repro.sweep.store import SharedStore
fd, n, doc = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
put = SharedStore.put
def put_then_stop(self, key, blob):
    put(self, key, blob)
    if key != doc and len(self) >= n:
        os.write(fd, b"!")
        threading.Event().wait()
SharedStore.put = put_then_stop
sys.exit(main(sys.argv[4:]))
"""


def _serve(cache_dir, stop_after=None):
    """A real ``repro serve --port 0`` subprocess and a client for it; with
    ``stop_after=(fd, n)`` its store stops the job at the ``n``-th blob."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    cmd = ["serve", "--port", "0", "--cache", str(cache_dir), "--quiet"]
    if stop_after is None:
        cmd, fds = [sys.executable, "-m", "repro", *cmd], ()
    else:
        fd, n = stop_after
        doc = ServiceState.experiment_key("modes", True)
        cmd = [sys.executable, "-c", _STOP_AFTER_N_BLOBS, str(fd), str(n),
               doc, *cmd]
        fds = (fd,)
    proc = subprocess.Popen(
        cmd, env=env, pass_fds=fds, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    banner = proc.stderr.readline()          # "... listening on http://h:p (...)"
    assert "listening on" in banner, banner
    client = ServiceClient(banner.split("listening on ")[1].split()[0],
                           timeout=30)
    client.wait_healthy(timeout=30)
    return proc, client


def _blobs(cache_dir):
    return sorted(Path(cache_dir).glob("*/*.pkl"))


def test_sigkill_inside_a_job_leaves_only_whole_blobs(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    # the quick modes document is 27 distinct runs; each server is killed
    # while its job is parked right after a seeded number of them reached
    # the store, so always inside the job
    instants = sorted(random.Random(18).sample(range(1, 26), 3))
    for n_blobs in instants:
        stopped, fd = os.pipe()
        try:
            proc, client = _serve(cache_dir, stop_after=(fd, n_blobs))
        finally:
            os.close(fd)                     # EOF on ``stopped`` if it dies
        try:
            with client:
                assert client.experiment_once("modes")[0] == 202
                assert select.select([stopped], [], [], 120)[0], \
                    "never stopped"
                assert os.read(stopped, 1) == b"!"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stderr.close()
            os.close(stopped)
        assert proc.returncode == -signal.SIGKILL

        blobs = _blobs(cache_dir)
        assert len(blobs) >= n_blobs
        for blob in blobs:                   # every published blob is whole
            pickle.loads(blob.read_bytes())
        assert ServiceState.experiment_key("modes", True) not in \
            {b.stem for b in blobs}          # the kill was inside the job
        leftovers = [p for p in cache_dir.rglob("*") if p.is_file()
                     and p.suffix != ".pkl" and p.name != "STORE_META.json"]
        assert all(p.suffix == ".tmp" for p in leftovers), leftovers
        assert main(["cache", "gc", "--cache", str(cache_dir), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tmp_removed"] == \
            len(leftovers)
        assert main(["cache", "verify", "--cache", str(cache_dir)]) == 0
        capsys.readouterr()

    proc, client = _serve(cache_dir)
    try:
        with client:
            doc = client.experiment("modes", timeout=120)
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stderr.close()
    # what three crashes and four servers computed is what one
    # uninterrupted run computes
    assert json.dumps(doc, indent=2, default=str) + "\n" == \
        GOLDEN_MODES.read_text()
