"""An executable spec for collective-round outcomes.

``expected`` is the rule, written without the simulator: given when each
rank calls the operation, who dies when, and when the communicator is
revoked, it says which ranks resume with what, and at what virtual time.
The simulator must match it exactly on random scenarios.  The per-rank
event path used to be this reference; the function below replaces it.

Recorded, not changed: a SURVIVOR round completed by a death resumes at
``max(latest_arrival + cost, death)`` — no detection latency is charged.
"""

from math import inf

from hypothesis import example, given, settings, strategies as st

from repro.analysis.model.checker import ProtocolModel, _Checker
from repro.analysis.model.ir import Asm, Branch, Jump, Label, Op, Return, \
    SetVar
from repro.machine.model import UlfmCostModel
from repro.machine.presets import IDEAL
from repro.mpi import ProcFailedError, RevokedError, Universe
from repro.mpi.collectives import RvKind

NORMAL, SURVIVOR = RvKind.NORMAL, RvKind.SURVIVOR
DEATH, REVOKE, ARRIVAL = 0, 1, 2


def flag(rank):
    return 0x3FF ^ (1 << rank)


def expected(arrivals, deaths, revoke_at, kind, detect, cost):
    """Per rank: ``(outcome, resume time)``, or None if it never resumes."""
    n = len(arrivals)
    events = [(t, ARRIVAL, r) for r, t in enumerate(arrivals)]
    events += [(t, DEATH, r) for r, t in deaths.items()]
    if revoke_at is not None:
        events.append((revoke_at, REVOKE, None))
    out = [None] * n
    parked = {}                  # rank -> arrival time, still waiting
    opened = closed = revoked = False
    doom = None

    def alive(r, t):
        return deaths.get(r, inf) > t

    def resume(result, at):
        for r in parked:
            out[r] = (result, at)
        parked.clear()

    for t, what, r in sorted(events):
        if what == ARRIVAL:
            if not alive(r, t):
                continue
            if revoked and kind is NORMAL:
                out[r] = ("RevokedError", t)    # refused before joining
                continue
            if not opened:
                opened = True
                dead = tuple(q for q in range(n) if not alive(q, t))
                if dead and kind is NORMAL:
                    doom = ("ProcFailedError", dead)
            if doom is not None:    # the original error, detect after *me*
                out[r] = (doom, t + detect)
                continue
            parked[r] = t
        elif what == DEATH:
            parked.pop(r, None)
            if opened and not closed and doom is None and kind is NORMAL:
                doom = ("ProcFailedError", (r,))
                resume(doom, t + detect)
        else:
            revoked = True              # ULFM: agree/shrink outlive it
            if opened and not closed and doom is None and kind is NORMAL:
                doom = "RevokedError"
                resume(doom, t + detect)
        if doom is None and parked and \
                all(q in parked for q in range(n) if alive(q, t)):
            closed = True
            value = None
            if kind is SURVIVOR:
                value = 0x3FF
                for q in parked:
                    value &= flag(q)
            resume(("ok", value), max(max(parked.values()) + cost, t))
    # a rank killed before its wake-up never observes the outcome
    return [o if o is None or alive(r, o[1]) else None
            for r, o in enumerate(out)]


def round_cost(machine, kind, arrivals, deaths):
    """The first arriver prices the round."""
    n = len(arrivals)
    if kind is NORMAL:
        return machine.barrier_cost(n)
    opens = min((t for r, t in enumerate(arrivals)
                 if deaths.get(r, inf) > t), default=0.0)
    n_failed = sum(d < opens for d in deaths.values())
    if n_failed == 0:
        return 4.0 * machine.collective_cost(n, 8)
    return machine.ulfm.agree(n, n_failed)


def simulate(machine, arrivals, deaths, revoke_at, kind):
    out = [None] * len(arrivals)

    async def main(ctx):
        r, comm = ctx.rank, ctx.comm
        await ctx.compute(arrivals[r])
        try:
            if kind is NORMAL:
                result = ("ok", await comm.barrier())
            else:
                result = ("ok", await comm.agree(flag(r)))
        except ProcFailedError as exc:
            result = ("ProcFailedError", exc.failed_ranks)
        except RevokedError:
            result = "RevokedError"
        out[r] = (result, ctx.wtime())
        await ctx.compute(1000.0)    # stay killable after the round

    uni = Universe(machine)
    job = uni.launch(len(arrivals), main)
    for rank, at in deaths.items():
        uni.kill_rank(job, rank, at=at)
    if revoke_at is not None:
        state = job.world_state
        uni.engine.call_at(revoke_at, state.do_revoke, revoke_at)
    uni.run(raise_task_failures=False)
    # every member arrived or died, so nothing may linger in the table —
    # except behind a revoke, whose refused NORMAL callers never join
    assert not job.world_state.rounds.open or \
        (kind is NORMAL and revoke_at is not None)
    return out


# arrivals on whole seconds, deaths on halves, the revoke on a quarter, and
# latencies whose sums never land on a half: no two events of a scenario
# tie, so the rule needs no tie-break
@st.composite
def scenarios(draw, max_ranks=9):
    n = draw(st.integers(1, max_ranks))
    arrivals = [float(draw(st.integers(0, 8))) for _ in range(n)]
    victims = draw(st.lists(st.integers(0, n - 1), unique=True,
                            max_size=min(2, n)))
    instants = draw(st.lists(st.integers(0, 10), unique=True,
                             min_size=len(victims), max_size=len(victims)))
    deaths = {r: k + 0.5 for r, k in zip(victims, instants)}
    revoke_at = draw(st.one_of(st.none(), st.integers(0, 9)))
    return (arrivals, deaths,
            None if revoke_at is None else revoke_at + 0.25,
            draw(st.sampled_from([NORMAL, SURVIVOR])),
            draw(st.sampled_from([0.0, 0.3, 1.7])),     # detect
            draw(st.sampled_from([0.0, 0.3])))          # alpha


@settings(max_examples=400, deadline=None)
@given(scenarios())
def test_round_outcomes_match_the_spec(scenario):
    arrivals, deaths, revoke_at, kind, detect, alpha = scenario
    machine = IDEAL.with_overrides(alpha=alpha, ulfm=UlfmCostModel(),
                                   failure_detection_latency=detect)
    cost = round_cost(machine, kind, arrivals, deaths)
    assert simulate(machine, arrivals, deaths, revoke_at, kind) == \
        expected(arrivals, deaths, revoke_at, kind, detect, cost)


def test_survivor_round_completed_by_a_death_charges_no_detection():
    """Ranks 0 and 1 wait for rank 2, which dies at 5.5 without arriving:
    they resume at the death instant (cost 0), not ``detect`` later."""
    machine = IDEAL.with_overrides(failure_detection_latency=1.7)
    got = simulate(machine, [0.0, 1.0, 9.0], {2: 5.5}, None, SURVIVOR)
    assert got == [(("ok", flag(0) & flag(1)), 5.5)] * 2 + [None]
    assert got == expected([0.0, 1.0, 9.0], {2: 5.5}, None, SURVIVOR, 1.7, 0.0)


# --------------------------------------------------------------------------
# the simulator against the protocol model checker
# --------------------------------------------------------------------------
COMPLETED, RAISED, NEVER = "completed", "raised", "never resumes"
W = ("var", "__world__")


def one_op_model(kind, ranks, deaths, revoke):
    """Every rank runs the scenario's one operation between two solve
    segments, the checker's kill windows, so a death can land before the
    operation or after it; with a revoke in the scenario any rank may
    revoke before its first segment."""
    a = Asm()
    first, at_op, raised, after, done = (Label() for _ in range(5))
    if revoke:
        a.emit(Branch(("opaque",), a.here() + 1, first))
        a.emit(Op("revoke", W))
    a.place(first)
    a.emit(Op("halo", W, handler=at_op))
    a.place(at_op)
    if kind is NORMAL:
        a.emit(Op("barrier", W, handler=raised))
    else:
        a.emit(Op("agree", W, out="flag", args={"value": ("const", 1)},
                  handler=raised))
    a.emit(SetVar("outcome", ("const", COMPLETED)))
    a.emit(Jump(after))
    a.place(raised)
    a.emit(SetVar("outcome", ("const", RAISED)))
    a.place(after)
    a.emit(Op("halo", W, handler=done))
    a.place(done)
    a.emit(Return())
    return ProtocolModel(a.finish("one-op", "<test>"), ranks=ranks,
                         failures=deaths)


class _Outcomes(_Checker):
    """The checker, also collecting each rank's outcome in every terminal
    state: what it recorded, or never resuming if it died first."""

    def __init__(self, model):
        super().__init__(model)
        self.outcomes = [set() for _ in range(model.ranks)]

    def _check_terminal(self, st, parent_key):
        super()._check_terminal(st, parent_key)
        for p in st.procs:
            self.outcomes[p.pid].add(p.env.get("outcome", NEVER))


def outcome_class(outcome):
    if outcome is None:
        return NEVER
    return COMPLETED if outcome[0][0] == "ok" else RAISED


@settings(max_examples=200, deadline=None)
@given(scenarios(max_ranks=4))
@example(([0.0, 2.0], {}, 1.25, SURVIVOR, 0.0, 0.0))  # revoke mid-agree
def test_simulator_outcomes_are_checker_terminal_outcomes(scenario):
    """Each rank's outcome in the simulator is one the checker reaches in
    some terminal state of the same operation under the same deaths and
    revoke: both layers apply one rule per operation."""
    arrivals, deaths, revoke_at, kind, detect, alpha = scenario
    machine = IDEAL.with_overrides(alpha=alpha, ulfm=UlfmCostModel(),
                                   failure_detection_latency=detect)
    got = simulate(machine, arrivals, deaths, revoke_at, kind)
    checker = _Outcomes(one_op_model(kind, len(arrivals), len(deaths),
                                     revoke_at is not None))
    assert checker.run().ok
    for rank, outcome in enumerate(got):
        assert outcome_class(outcome) in checker.outcomes[rank], rank
