"""Table I / Fig. 8 repair times are read from the span log.

Every ``RunMetrics`` repair field must equal a sum recomputed by scanning
``universe.spans.log`` for the reporting rank (the one that returned the
metrics).  Under ``nc`` the grid-local phases report the slowest grid,
so those fields equal the maximum of the per-actor sums.
"""

import pytest

from repro.core import AppConfig, baseline_solve_time, plan_failures
from repro.core.app import app_main
from repro.core.metrics import RunMetrics
from repro.core.runner import make_universe
from repro.ft.checkpoint import Disk
from repro.ft.failure_injection import FailureGenerator, Kill
from repro.machine.presets import OPL

#: RunMetrics field -> the span phase it sums
FIELDS = {"t_detect": "detect", "t_reconstruct": "reconstruct",
          "t_shrink": "shrink", "t_spawn": "spawn", "t_merge": "merge",
          "t_agree": "agree"}
GRID_LOCAL = ("detect", "reconstruct", "shrink", "spawn", "merge")


def cfg_for(code, mode):
    return AppConfig(n=6, level=4, technique_code=code, steps=16,
                     diag_procs=4, checkpoint_count=4, recovery_mode=mode)


def run(code, mode, kills):
    cfg = cfg_for(code, mode)
    if code == "CR":
        cfg.disk = Disk()
    uni, total = make_universe(cfg, OPL)
    job = uni.launch(total, app_main, argv=(cfg,))
    FailureGenerator().inject(uni, job, kills)
    uni.run()
    # the reporting rank: world rank 0, or the replacement that took over
    # its rank when it was killed
    reporters = [(p.name, r) for j in uni.jobs
                 for p, r in zip(j.procs, j.results())
                 if isinstance(r, RunMetrics)]
    survived = job.results()[0] is not None
    actor, metrics = reporters[0] if survived else reporters[-1]
    return uni.spans, actor, metrics, survived


def log_sums(spans):
    """actor -> phase -> seconds, summed in log order."""
    out = {}
    for actor, phase, t_start, t_end, _seq, _labels in spans.log:
        phases = out.setdefault(actor, {})
        phases[phase] = phases.get(phase, 0.0) + (t_end - t_start)
    return out


def plans(code, mode):
    t_solve = baseline_solve_time(cfg_for(code, mode), OPL)
    yield from (plan_failures(cfg_for(code, mode), k, at=t_solve * 0.5,
                              seed=k) for k in (1, 2))
    if (code, mode) == ("CR", "respawn"):
        yield [Kill(0, t_solve * 0.5)]


@pytest.mark.parametrize("code, mode", [
    ("CR", "respawn"), ("RC", "respawn"), ("AC", "respawn"),
    ("CR", "shrink"), ("CR", "nc")])
def test_repair_fields_are_span_log_sums(code, mode):
    for kills in plans(code, mode):
        spans, actor, m, survived = run(code, mode, kills)
        assert m.n_failures == len(kills)
        assert spans.dropped == 0
        sums = log_sums(spans)
        for field, phase in FIELDS.items():
            if mode == "nc" and phase in GRID_LOCAL:
                want = max(s.get(phase, 0.0) for s in sums.values())
            else:
                want = sums[actor].get(phase, 0.0)
            assert getattr(m, field) == want, (kills, field)
        # a replacement rank 0 repaired nothing: it only merged in
        assert m.t_merge > 0.0 or mode == "shrink"
        if survived:
            assert m.t_reconstruct > 0.0 and m.t_detect > 0.0
        if survived and mode == "respawn":
            # the parents' rank distribution and re-order split (Fig. 5
            # l.21-25) are merge time: a repair ends inside a merge span
            ends = {phase: t_end for a, phase, _t0, t_end, _s, _l
                    in spans.log if a == actor}
            assert ends["merge"] == ends["reconstruct"]
