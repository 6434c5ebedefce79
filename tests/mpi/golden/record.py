"""Golden outcomes of the collective substrate.

``collectives.json`` next to this file was recorded at commit ``e86a786`` —
the last commit that had two collective mechanisms — with that commit's
environment kill switch forcing every operation through the per-rank
event path (the path that modelled every failure case)::

    PYTHONPATH=src python -m tests.mpi.golden.record

It freezes what that path produced: per-rank values (floats as hex,
arrays as bytes), ``ctx.wtime()``, exception type / message /
``failed_ranks`` / delivery time, ``engine.events_processed``, the
collective counters, tracer lines, and whole-run ``RunMetrics``.
``tests/mpi/test_collective_golden.py`` replays every scenario on the
single round mechanism and compares exactly; the goldens are the
reference the event path used to be.

One field comes from a second recording at the same commit with the switch
at its default: ``events``.  The two recordings agreed on every other field
of every scenario; ``events`` differed only where a fused halo exchange —
which the switch also turned off, and which was deleted later (below) —
replaced several per-message wake-ups by one (the ring programs and every
whole-run).

The whole-run kill plans take their victims from the seeded generator of
the retired ``test_recovery_sweep_metrics_identical`` (seeds 0-2, 1 or 2
victims) plus a rank-0 kill; the kill instants are a fixed fraction of
each configuration's failure-free solve time, because the old absolute
instants (0.5 s and later) fall after an AC or RC run has already ended.

The RC/AC x shrink/nc cells and the three shrink full-grid-loss runs
(``OTHER_CELLS``, ``FULL_GRID_LOSS``) were added by re-running this file at
commit ``08c9736``, the last one whose recovery-mode logic lived in
``core/app.py``; every older entry came out byte-identical.  A run that
overrides the common configuration stores the overrides (``"config"``)
and the replay passes them back.

``events`` of the 36 1d runs was recorded again when healthy process
groups began to advance as co-simulated segments (one resume per rank per
segment instead of four events per rank per step).  ``--check`` is how that
was shown to move nothing else: it records in memory and prints, per
scenario, the keys that differ from the committed file.

The 15 respawn ``2d`` runs were recorded again when a process grid with
one row became the ``1d`` ring it is (same halo rows, same kernel
orientation, co-simulated segments): every grid of the ``diag_procs=2``
layout has one or two members, so each of those runs now equals its ``1d``
twin field for field.  ``--check`` showed nothing else moved.

``events`` of the ring programs, ``exchange-kill-mid-flight`` and 51 of
the 53 runs (all but the two that a mode's 1d-only guard refused) was
recorded again, and rose, when ``CommHandle.exchange`` became the literal
isend/recv/wait sequence instead of one fused future per phase.  The two
programs of the retired diagnostics option were dropped and the two
guards' messages were reworded; ``--check`` showed nothing else moved.

Exactly the five ``CR-shrink-2d-*`` runs were recorded again when one
checkpoint restore that reads block overlaps replaced the same-size and
the 1-d remapped restores, and shrink-in-place stopped rejecting ``"2d"``.
``quiet`` had stored the rejection and the four kill plans did not exist.
Before re-recording, ``--check`` reported 0 of 23 programs and those 5 of
57 runs differing, so every other run, respawn ``2d`` and shrink ``1d``
included, is byte-identical across the change.

The program ``revoke-two-open-rounds`` alone was rewritten and recorded
again when a revoke stopped dooming open agree/shrink rounds (ULFM exempts
them).  Its old script deadlocks under that rule, two ranks agreeing
while two shrink; now every rank agrees.  ``--check`` reported it as the
only entry, program or run, that differs.

The 33 shrink, nc and rank-0-kill runs that moved were recorded again
when the span log became the only repair clock and nc stopped refusing
``"2d"``.  ``metrics`` moved in the six respawn ``rank0`` runs only:
``t_merge`` is now the replacement rank 0's own merge span, where the
hand-kept timers left it at 0.  ``phases`` moved in every shrink run
(the repair is one ``reconstruct`` span) and every nc run (``rebuild``
became ``reconstruct``).  ``CR-nc-2d-quiet`` now runs instead of storing
the refusal, and its four kill plans are new; ``seed1`` kills both
members of one grid, which nc still cannot repair (``run_error``).
``--check`` reported 0 of 23 programs and exactly these 33 of 61 runs.

``events`` of ``AC-respawn-1d-seed1``, ``AC-respawn-2d-seed1``,
``AC-shrink-1d-fullgrid`` and ``RC-shrink-1d-fullgrid`` was recorded
again, and fell, when a group with a kill scheduled stopped stepping per
message for the life of its communicator: a segment that ends before the
earliest kill among its members now co-simulates.  Before re-recording,
``--check`` reported 0 of 23 programs and exactly these 4 of 61 runs,
each in ``events`` alone.

``events`` of ``AC-respawn-1d-seed1``, ``AC-respawn-2d-seed1``,
``AC-shrink-1d-fullgrid``, ``CR-shrink-1d-fullgrid`` and
``RC-shrink-1d-fullgrid`` was recorded again, and fell by one, when every
segment round began to hold its releases until it is decided, at the last
arrival or at the end of the first arrival's instant.  A one-rank group is
decided at its only arrival, so the segment of such a group with a kill
scheduled no longer queues the end-of-instant callback it used to (one per
run here); these runs co-simulate no group of three or more, the groups
that gain that callback.  Before re-recording, ``--check`` reported 0 of
23 programs and exactly these 5 of 61 runs, each in ``events`` alone.

Job names carry a process-global counter, so every string is renamed
relative to the scenario's first job before it is stored or compared.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from repro.core import AppConfig
from repro.core.app import app_main
from repro.core.metrics import RunMetrics
from repro.core.runner import make_universe
from repro.ft.checkpoint import Disk
from repro.ft.failure_injection import FailureGenerator, Kill
from repro.machine.presets import IDEAL, OPL
from repro.mpi import MAX, MIN, SUM, MPIError, Universe
from repro.mpi.tracing import Tracer
from repro.simkernel.errors import SimError

GOLDEN_PATH = Path(__file__).with_name("collectives.json")


# ----------------------------------------------------------------------
# exact, JSON-able comparison forms
# ----------------------------------------------------------------------
def norm(x):
    if isinstance(x, (bool, int, str, type(None))):
        return x
    if isinstance(x, float):
        return {"f": x.hex()}
    if isinstance(x, np.ndarray):
        return {"nd": [str(x.dtype), list(x.shape), x.tobytes().hex()]}
    if isinstance(x, np.generic):
        return norm(x.item())
    if isinstance(x, tuple):
        return {"t": [norm(v) for v in x]}
    if isinstance(x, list):
        return [norm(v) for v in x]
    if isinstance(x, dict):
        return {"d": sorted([str(k), norm(v)] for k, v in x.items())}
    raise TypeError(f"no golden form for {type(x).__name__}")


def rename_jobs(doc, uni):
    """Job ids relative to the scenario's first job."""
    base = int(re.search(r"\d+", uni.jobs[0].name).group())
    text = re.sub(r"\b(job|spawn)(\d+)\b",
                  lambda m: f"{m.group(1)}{int(m.group(2)) - base}",
                  json.dumps(doc))
    return json.loads(text)


async def attempt(ctx, awaitable):
    """One operation's outcome with its delivery time."""
    try:
        value = await awaitable
    except MPIError as exc:
        return ("err", type(exc).__name__, str(exc),
                getattr(exc, "failed_ranks", None), ctx.wtime())
    return ("ok", value, ctx.wtime())


def outcome(uni):
    doc = {"results": [norm(job.results()) for job in uni.jobs],
           "now": uni.engine.now.hex(),
           "events": uni.engine.events_processed,
           "collectives": dict(uni.stats.collectives.items()),
           "comms_created": uni.stats.comms_created}
    if uni.tracer is not None:
        doc["trace"] = [json.dumps({"t": e.time, "actor": e.actor,
                                    "kind": e.kind, "detail": e.detail},
                                   sort_keys=True)
                        for e in uni.tracer.events]
    return rename_jobs(doc, uni)


def run_program(n, main, *, machine=OPL, kills=(), traced=False):
    uni = Universe(machine)
    if traced:
        uni.tracer = Tracer()
    job = uni.launch(n, main)
    for rank, at in kills:
        uni.kill_rank(job, rank, at=at)
    uni.run(raise_task_failures=False)
    return outcome(uni)


# ----------------------------------------------------------------------
# the retired batch-vs-event programs (tests/mpi/test_batch_property.py)
# ----------------------------------------------------------------------
async def mixed_script(ctx):
    comm, out = ctx.comm, []
    for step in range(3):
        await ctx.compute(0.01 * ((ctx.rank * 7 + step) % 5))
        await comm.barrier()
        out.append(await comm.allreduce(0.1 * (ctx.rank + 1), op=SUM))
        out.append(await comm.allreduce(float(ctx.rank), op=MIN))
        obj = {"step": step} if ctx.rank == step % ctx.size else None
        out.append(await comm.bcast(obj, root=step % ctx.size))
        out.append(await comm.gather(ctx.rank ** 2, root=0))
        out.append(await comm.allgather((ctx.rank, step)))
        items = [i * 10 + step for i in range(ctx.size)] \
            if ctx.rank == 1 else None
        out.append(await comm.scatter(items, root=1))
        out.append(await comm.reduce(ctx.rank + 0.25, op=MAX, root=2))
    return out, ctx.wtime()


async def numpy_allreduce(ctx):
    rng = np.random.default_rng(ctx.rank)
    acc = []
    for _ in range(4):
        v = rng.standard_normal(64) * 10.0 ** rng.integers(-6, 6)
        acc.append(await ctx.comm.allreduce(v, op=SUM))
    total = await ctx.comm.allreduce(1, op=SUM)
    return acc, total, ctx.wtime()


async def bcast_aliasing(ctx):
    arr = np.arange(4.0) if ctx.rank == 2 else None
    got = await ctx.comm.bcast(arr, root=2)
    again = await ctx.comm.allgather(got + ctx.rank)
    return got is arr, again


async def single_rank(ctx):
    await ctx.comm.barrier()
    return (await ctx.comm.allreduce(2.5, op=SUM),
            await ctx.comm.gather("x", root=0), ctx.wtime())


async def scatter_length_error(ctx):
    items = [1, 2] if ctx.rank == 0 else None
    return await attempt(ctx, ctx.comm.scatter(items, root=0))


_TAG_UP, _TAG_DOWN = 11, 12


async def ring_exchange(ctx, rounds=5, width=32):
    comm, n, r = ctx.comm, ctx.size, ctx.rank
    prev_r, next_r = (r - 1) % n, (r + 1) % n
    u = np.full(width, float(r))
    history = []
    for step in range(rounds):
        await ctx.compute(0.001 * ((r * 3 + step) % 4))
        lo, hi = await comm.exchange(
            ((prev_r, _TAG_UP, u.copy()), (next_r, _TAG_DOWN, u.copy())),
            ((prev_r, _TAG_DOWN), (next_r, _TAG_UP)), copy=False)
        u = (u + lo + hi) / 3.0
        history.append(u.copy())
    return history, ctx.wtime()


async def exchange_dead_neighbour(ctx):
    comm, r, n = ctx.comm, ctx.rank, ctx.size
    prev_r, next_r = (r - 1) % n, (r + 1) % n
    await ctx.compute(0.5)
    return await attempt(ctx, comm.exchange(
        ((prev_r, _TAG_UP, 1.0), (next_r, _TAG_DOWN, 1.0)),
        ((prev_r, _TAG_DOWN), (next_r, _TAG_UP))))


async def exchange_kill_mid_flight(ctx):
    comm, r, n = ctx.comm, ctx.rank, ctx.size
    prev_r, next_r = (r - 1) % n, (r + 1) % n
    if r == 2:          # never reaches the exchange
        await ctx.compute(100.0)
        return "late"
    return await attempt(ctx, comm.exchange(
        ((prev_r, _TAG_UP, float(r)), (next_r, _TAG_DOWN, float(r))),
        ((prev_r, _TAG_DOWN), (next_r, _TAG_UP))))


async def kill_mid_round(ctx):
    """Rank 3 dies while others are parked in the round; rank 4 arrives
    long after and must get the original doom."""
    comm, r = ctx.comm, ctx.rank
    await ctx.compute(5.0 if r == 4 else 0.05 * r)
    return [await attempt(ctx, comm.allreduce(r, op=SUM)) for _ in range(2)]


async def rounds_after_failure(ctx):
    out = []
    for _ in range(6):
        await ctx.compute(0.2)
        out.append(await attempt(ctx, ctx.comm.allreduce(1.0, op=SUM)))
    return out


# ----------------------------------------------------------------------
# programs that only ever ran on the event path
# ----------------------------------------------------------------------
def survivor_op(name):
    """``agree``/``shrink`` with rank 1 dying after it arrived, rank 3
    dying before it arrives, and rank 4 arriving after both deaths; then
    the same operation again on the damaged communicator."""
    async def main(ctx):
        comm, r = ctx.comm, ctx.rank
        await ctx.compute(100.0 if r == 3 else 0.4 if r == 4 else 0.05 * r)
        out = []
        for _ in range(2):
            if name == "agree":
                out.append(await attempt(ctx, comm.agree(0xFF ^ (1 << r))))
            else:
                res = await attempt(ctx, comm.shrink())
                if res[0] == "ok":
                    sub = res[1]
                    res = ("ok", (sub.name, sub.rank, sub.size,
                                  await sub.allreduce(r, op=SUM)), res[2])
                out.append(res)
        return out
    return main


async def agree_completed_by_death(ctx):
    """Everyone but rank 2 is parked in the agree; rank 2 never arrives
    and its death completes the round."""
    if ctx.rank == 2:
        await ctx.compute(100.0)
    await ctx.compute(0.01 * ctx.rank)
    return await attempt(ctx, ctx.comm.agree(1 << ctx.rank))


async def _merge_child(ctx):
    parent = ctx.get_parent()
    first = await attempt(ctx, parent.agree(1))
    res = await attempt(ctx, parent.merge(high=True))
    if res[0] == "ok":
        merged = res[1]
        res = ("ok", (merged.name, merged.rank, merged.size), res[2])
    return first, res


async def _split_tail(ctx, merged):
    sub = await merged.split(merged.rank % 2, key=-merged.rank)
    total = await sub.allreduce(merged.rank, op=SUM)
    return (merged.name, merged.rank, merged.size, sub.name, sub.rank,
            sub.size, total, ctx.wtime())


async def _handshake_child(ctx):
    parent = ctx.get_parent()
    flag = await parent.agree(5)
    return flag, await _split_tail(ctx, await parent.merge(high=True))


async def spawn_merge_split(ctx):
    """The failure-free Fig. 3 / Fig. 5 handshake."""
    await ctx.compute(0.01 * ctx.rank)
    inter = await ctx.comm.spawn_multiple(2, _handshake_child)
    t_spawn = ctx.wtime()
    merged = await inter.merge(high=False)
    flag = await inter.agree(3)
    return t_spawn, flag, await _split_tail(ctx, merged)


async def merge_parent_killed(ctx):
    """Parent 1 dies while parents 0 and 3 and the children are inside the
    merge; parent 2 reaches the doomed merge afterwards."""
    inter = await ctx.comm.spawn_multiple(2, _merge_child)
    t_spawn = ctx.wtime()
    if ctx.rank == 1:
        await ctx.compute(100.0)
    if ctx.rank == 2:
        await ctx.compute(1.0)
    return t_spawn, await attempt(ctx, inter.merge(high=False))


async def split_after_shrink(ctx):
    comm, r = ctx.comm, ctx.rank
    await ctx.compute(0.2)
    probe = await attempt(ctx, comm.barrier())
    comm.revoke()
    shrunk = await comm.shrink()
    sub = await shrunk.split(shrunk.rank % 2, key=shrunk.rank)
    return (probe, shrunk.rank, shrunk.size, sub.name, sub.rank, sub.size,
            await sub.allgather(r), ctx.wtime())


async def _readmit_child(ctx):
    await ctx.compute(0.05)     # the parent's readmit lands in this window
    world = ctx.argv[0].handle(ctx.proc)
    return world.rank, await attempt(ctx, world.agree(0xF7))


async def readmit_during_agree(ctx):
    """Ranks 0 and 1 are parked in an agree that skips dead rank 3; rank 2
    re-admits a replacement, which the open round must then wait for."""
    comm, r = ctx.comm, ctx.rank
    mine = await comm.split(r)
    if r == 3:
        await ctx.compute(100.0)
    if r == 2:
        await ctx.compute(0.3)
        inter = await mine.spawn_multiple(1, _readmit_child,
                                          argv=(comm.state,))
        await comm.readmit(3, inter.remote_group[0])
    else:
        await ctx.compute(0.2)
    return await attempt(ctx, comm.agree(0xFF ^ (1 << r)))


async def revoke_two_open_rounds(ctx):
    """Rank 0 is parked in an allreduce and rank 1 in an agree when rank
    2's revoke lands: the allreduce is doomed, the agree runs on (ULFM
    exempts agree and shrink from revocation).  Rank 3 is refused a
    barrier afterwards, and every rank then completes rank 1's agree."""
    comm, r = ctx.comm, ctx.rank
    out = []
    if r == 0:
        out.append(await attempt(ctx, comm.allreduce(1.0)))
    elif r == 2:
        await ctx.compute(0.5)
        comm.revoke()
        await ctx.compute(0.1)
    elif r == 3:
        await ctx.compute(1.0)
        out.append(await attempt(ctx, comm.barrier()))
    out.append(await attempt(ctx, comm.agree(0xF ^ (1 << r))))
    shrunk = await comm.shrink()
    out.append(await attempt(ctx, shrunk.allreduce(r, op=SUM)))
    return out


async def traced_repair(ctx):
    """Detection barrier, revoke, shrink, spawn, merge — with a tracer."""
    comm = ctx.comm
    await ctx.compute(0.3)
    probe = await attempt(ctx, comm.barrier())
    comm.revoke()
    shrunk = await comm.shrink()
    inter = await shrunk.spawn_multiple(1, _merge_child)
    merged = await inter.merge(high=False)
    flag = await inter.agree(1)
    return probe, merged.rank, merged.size, flag, ctx.wtime()


def program_scenarios():
    """name -> zero-argument callable returning the scenario's outcome."""
    def prog(n, main, **kw):
        return lambda: run_program(n, main, **kw)

    return {
        "mixed-ideal": prog(5, mixed_script, machine=IDEAL),
        "mixed-opl": prog(5, mixed_script),
        "numpy-allreduce": prog(7, numpy_allreduce),
        "bcast-aliasing": prog(4, bcast_aliasing, machine=IDEAL),
        "single-rank": prog(1, single_rank),
        "scatter-length-error": prog(4, scatter_length_error),
        "ring-ideal": prog(6, ring_exchange, machine=IDEAL),
        "ring-opl": prog(6, ring_exchange),
        "exchange-dead-neighbour": prog(4, exchange_dead_neighbour,
                                        kills=((2, 0.1),)),
        "exchange-kill-mid-flight": prog(5, exchange_kill_mid_flight,
                                         kills=((2, 0.3),)),
        "kill-mid-round": prog(6, kill_mid_round, kills=((3, 0.4),)),
        "rounds-after-failure": prog(4, rounds_after_failure,
                                     kills=((1, 0.5),)),
        "agree-deaths-and-late-arriver": prog(
            5, survivor_op("agree"), kills=((1, 0.2), (3, 0.25))),
        "shrink-deaths-and-late-arriver": prog(
            5, survivor_op("shrink"), kills=((1, 0.2), (3, 0.25))),
        "agree-completed-by-death": prog(4, agree_completed_by_death,
                                         kills=((2, 1.0),)),
        "spawn-merge-split": prog(3, spawn_merge_split),
        "merge-parent-killed": prog(4, merge_parent_killed,
                                    kills=((1, 0.5),)),
        "split-after-shrink": prog(5, split_after_shrink, kills=((2, 0.1),)),
        "readmit-during-agree": prog(4, readmit_during_agree,
                                     kills=((3, 0.1),)),
        "revoke-two-open-rounds": prog(4, revoke_two_open_rounds),
        "traced-mixed": prog(3, mixed_script, traced=True),
        "traced-kill-mid-round": prog(6, kill_mid_round, kills=((3, 0.4),),
                                      traced=True),
        "traced-repair": prog(4, traced_repair, kills=((2, 0.1),),
                              traced=True),
    }


# ----------------------------------------------------------------------
# whole-application runs
# ----------------------------------------------------------------------
CONFIGURATIONS = (("CR", "respawn"), ("RC", "respawn"), ("AC", "respawn"),
                  ("CR", "shrink"), ("CR", "nc"))
PLANS = ("quiet", "seed0", "seed1", "seed2", "rank0")
#: the other four technique x mode cells, recorded at commit ``08c9736``
#: (the last one whose mode logic lived in ``core/app.py``): 1d, two plans
OTHER_CELLS = (("RC", "shrink"), ("AC", "shrink"), ("RC", "nc"), ("AC", "nc"))
OTHER_PLANS = ("seed0", "rank0")
#: shrink-mode loss of a grid's only member, same commit — the scenarios of
#: ``tests/core/test_recovery_modes.py``: CR adopts the orphan onto a donor
#: and restores it, RC refills it through the plan, AC drops it.
#: code -> (config overrides, the sole member)
_SMALL = {"n": 5, "level": 3, "steps": 4, "checkpoint_count": 2}
FULL_GRID_LOSS = {"CR": (_SMALL, 7), "RC": (_SMALL, 7), "AC": ({}, 9)}


def app_config(code, mode, decomposition, **overrides):
    fields = dict(n=6, level=4, technique_code=code, steps=16,
                  diag_procs=2, checkpoint_count=4,
                  decomposition=decomposition, recovery_mode=mode)
    fields.update(overrides)
    return AppConfig(**fields)


def canonical(metrics: RunMetrics) -> str:
    """The ``bench/simloads.canonical`` shape."""
    d = metrics.to_dict()
    d.pop("phase_breakdown", None)
    d.pop("phase_by_grid", None)
    return json.dumps(d, sort_keys=True, default=repr)


def run_solver(code, mode, decomposition, kills, *, traced=False,
               **overrides):
    cfg = app_config(code, mode, decomposition, **overrides)
    if code == "CR":
        cfg.disk = Disk()
    uni, total = make_universe(cfg, OPL)
    if traced:
        uni.tracer = Tracer()
    job = uni.launch(total, app_main, argv=(cfg,))
    FailureGenerator().inject(uni, job, [Kill(r, at) for r, at in kills])
    doc = {"kills": [[r, at.hex()] for r, at in kills]}
    if overrides:
        doc["config"] = overrides
    try:
        uni.run()
    except SimError as exc:
        doc["run_error"] = [type(exc).__name__, str(exc)]
    else:
        found = [r for j in uni.jobs for r in j.results()
                 if isinstance(r, RunMetrics)]
        # rank 0's metrics; its replacement's when rank 0 was killed
        metrics = job.results()[0] or found[-1]
        doc["metrics"] = canonical(metrics)
        doc["phases"] = norm(uni.spans.phase_totals())
    doc["events"] = uni.engine.events_processed
    doc["collectives"] = dict(uni.stats.collectives.items())
    doc["comms_created"] = uni.stats.comms_created
    return rename_jobs(doc, uni)


def kill_plans(code, mode, decomposition):
    """plan name -> ((rank, at), ...), kills landing mid-solve."""
    cfg = app_config(code, mode, decomposition)
    quiet = run_solver(code, mode, decomposition, ())
    plans = {"quiet": ()}
    if "metrics" not in quiet:      # the configuration rejects this layout
        return plans
    t_solve = json.loads(quiet["metrics"])["t_solve"]
    layout = cfg.layout()
    for seed in range(3):
        gen = FailureGenerator(seed, protect={0}, rank_to_grid=layout.gid_of)
        victims = gen.choose_victims(layout.total_procs, 1 + seed % 2)
        at = (0.3 + 0.2 * seed) * t_solve
        plans[f"seed{seed}"] = tuple((r, at) for r in victims)
    plans["rank0"] = ((0, 0.5 * t_solve),)
    return plans


def record_all():
    doc = {"programs": {name: run() for name, run
                        in program_scenarios().items()},
           "runs": {}}
    for code, mode in CONFIGURATIONS:
        for decomposition in ("1d", "2d"):
            for plan, kills in kill_plans(code, mode, decomposition).items():
                doc["runs"][f"{code}-{mode}-{decomposition}-{plan}"] = \
                    run_solver(code, mode, decomposition, kills)
    for code, mode in OTHER_CELLS:
        plans = kill_plans(code, mode, "1d")
        for plan in OTHER_PLANS:
            doc["runs"][f"{code}-{mode}-1d-{plan}"] = \
                run_solver(code, mode, "1d", plans[plan])
    for code, (overrides, victim) in FULL_GRID_LOSS.items():
        quiet = run_solver(code, "shrink", "1d", (), **overrides)
        at = 0.6 * json.loads(quiet["metrics"])["t_solve"]
        doc["runs"][f"{code}-shrink-1d-fullgrid"] = run_solver(
            code, "shrink", "1d", ((victim, at),), **overrides)
    return doc


def check(doc, committed):
    """Print which keys of which scenarios differ from ``committed``."""
    for kind in ("programs", "runs"):
        moved = {name: sorted(k for k in {*new, *committed[kind].get(name, {})}
                              if new.get(k) != committed[kind].get(name, {}).get(k))
                 for name, new in doc[kind].items()}
        moved = {name: keys for name, keys in moved.items() if keys}
        print(f"{kind}: {len(moved)} of {len(doc[kind])} differ")
        for name, keys in sorted(moved.items()):
            print(f"  {name}: {', '.join(keys)}")


if __name__ == "__main__":
    import sys
    if sys.argv[1:] == ["--check"]:
        check(record_all(), json.loads(GOLDEN_PATH.read_text()))
        sys.exit()
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH
    out.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
