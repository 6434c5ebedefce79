"""A rank's own state does not grow with the world: no per-rank
launch-rank table, and shrink mode's launch-rank map is derived from the
failure record only when a repair needs it."""

import gc
import tracemalloc

import pytest

from repro.core import AppConfig, run_app
from repro.core.app import app_main
from repro.core.runner import make_universe
from repro.ft import strategy
from repro.ft.failure_injection import FailureGenerator, Kill

#: traced-peak bytes a failure-free AC run may add per added rank.  Each
#: rank holds its process, metrics record, coroutine frames, communicator
#: handles and a few-row slab, about 9 KB at 392 -> 784 ranks; a per-rank
#: table of the world's ranks (P entries on each of P ranks) puts it near
#: 49 KB.
BYTES_PER_RANK = 16 * 1024


def _traced_peak(diag_procs):
    cfg = AppConfig(n=8, level=4, steps=8, layout_mode="paper",
                    technique_code="AC", diag_procs=diag_procs)
    gc.collect()
    tracemalloc.start()
    try:
        run_app(cfg)
        return tracemalloc.get_traced_memory()[1], cfg.layout().total_procs
    finally:
        tracemalloc.stop()


def test_per_rank_memory_is_flat_in_world_size():
    """The traced peak of a run grows linearly in the world size P, with a
    small slope, not as P squared."""
    _traced_peak(2)  # imports and module caches, outside the measurement
    (small, p_small), (large, p_large) = _traced_peak(64), _traced_peak(128)
    assert (p_small, p_large) == (392, 784)
    per_rank = (large - small) / (p_large - p_small)
    assert per_rank < BYTES_PER_RANK, \
        f"{per_rank:.0f} bytes per added rank ({small} -> {large})"


# ---------------------------------------------------------------------------
# shrink mode's launch-rank map
# ---------------------------------------------------------------------------
def _cfg():
    # groups: grid 0 (0, 1), 1 (2, 3), 2 (4, 5), 3 (6, 7), 4 (8,), 5 (9,),
    # 6 (10,)
    return AppConfig(n=6, level=4, technique_code="CR", steps=16,
                     diag_procs=2, checkpoint_count=4,
                     recovery_mode="shrink")


def _run(kills):
    cfg = _cfg()
    universe, total = make_universe(cfg)
    job = universe.launch(total, app_main, argv=(cfg,))
    FailureGenerator().inject(universe, job, kills)
    universe.run()
    return universe


def _t_solve():
    return run_app(_cfg()).t_solve


def _mid_shrink(kills):
    """A virtual instant inside the first shrink of a run with ``kills``."""
    (t0, t1), *_ = [(s, e) for _a, phase, s, e, *_r
                    in _run(kills).spans.log if phase == "shrink"]
    return (t0 + t1) / 2


@pytest.mark.parametrize("victims", [
    [(7, 0.6)], [(0, 0.6)], [(5, 0.6), (7, 0.6)],
    [(0, 0.6), (6, 0.6), (7, 0.6)],          # rank 0 and a whole grid
    [(7, 0.3), (2, 0.7)],                     # two separate repairs
    [(7, 0.6), (2, "shrink")],                # the second lands mid-shrink
])
def test_shrink_launch_rank_map_equals_contracted_list(monkeypatch, victims):
    """At every use, the map derived from ``timers.failed_ranks`` equals
    the list the launch-rank table used to hold: ``range(P)``, contracted
    in place by each shrink's failed current ranks."""
    t = _t_solve()
    kills = [Kill(r, t * at) for r, at in victims if at != "shrink"]
    kills += [Kill(r, _mid_shrink(kills)) for r, at in victims
              if at == "shrink"]

    pending = []     # one rank's failed current ranks, between two calls
    tables = {}      # id(timers.failed_ranks) -> (that list, old table)
    checked = []
    real_failed, real_launch = strategy.failed_procs_list, \
        strategy.launch_ranks

    def failed_procs_list(world, shrunk):
        failed, rest = real_failed(world, shrunk)
        pending.append(list(failed))
        return failed, rest

    def launch_ranks(total, failed_ranks):
        got = real_launch(total, failed_ranks)
        _, table = tables.setdefault(id(failed_ranks),
                                     (failed_ranks, list(range(total))))
        assert got == table
        checked.append(bool(pending))
        if pending:  # called by the detection loop right after its shrink
            dead = set(pending.pop())
            table[:] = [m for i, m in enumerate(table) if i not in dead]
        return got

    monkeypatch.setattr(strategy, "failed_procs_list", failed_procs_list)
    monkeypatch.setattr(strategy, "launch_ranks", launch_ranks)
    _run(kills)
    assert not pending
    assert any(checked) and not all(checked)  # both call sites ran
    victims_seen = {m for failed, _ in tables.values() for m in failed}
    assert victims_seen == {r for r, _ in victims}
    if victims[-1][1] == "shrink":
        # one repair, and its detection loop shrank twice on some rank
        assert sum(checked) > len(tables)
