"""The world the five shipped recovery configurations are checked in.

``python -m repro verify-protocol`` extracts ``CombinationApp.run`` — one
entry point for launched and re-spawned ranks — once per mode, with the
mode's strategy (:mod:`repro.ft.strategy`) and technique
(:mod:`repro.ft.recovery`) bound, and model-checks it over every failure
placement.  CR, RC and AC run under the paper's global respawn repair;
SHRINK (shrink-in-place) and NC (non-collective per-grid repair) run CR.
What the extractor does not inline it reads from :data:`ABSTRACTION`:
each shipped callee that is not protocol code, with its communication.
Spans, metrics, disk, compute charges and solver rebinding are opaque.

The world is deliberately small (two grids of two ranks, two solve
segments): the properties proved are rank-count-symmetric beyond the
first non-trivial configuration, while the state space is exponential in
ranks.
"""

from __future__ import annotations

__all__ = ["ABSTRACTION", "MODES", "DEFAULT_RANKS", "GRID_RANKS", "NGRIDS",
           "SEGMENTS"]

GRID_RANKS = 2
NGRIDS = 2
SEGMENTS = 2

DEFAULT_RANKS = GRID_RANKS * NGRIDS

#: mode -> (recovery strategy, data-recovery technique)
MODES = {
    "CR": ("respawn", "CR"),
    "RC": ("respawn", "RC"),
    "AC": ("respawn", "AC"),
    "SHRINK": ("shrink", "CR"),
    "NC": ("nc", "CR"),
}

_GRID = ("var", "app.grid_comm")
_STEP = ("var", "app.solver.step_count")
_G = ("const", GRID_RANKS)
_OPAQUE = ("opaque",)


def _arg(i: int, name: str) -> tuple:
    return ("arg", i, name)


#: ``gid_of`` for every mode: the launch grid of the caller's world slot
#: (a replacement takes its predecessor's slot; a shrink survivor keeps
#: its launch grid)
_LAUNCH_GID = ("bin", "//", ("slot",), _G)

#: keys are ``object.attribute`` (a class name for an instance; the
#: ``CombinationApp``'s attributes are the ``app.`` record) or a callee's
#: name; an entry is ``("object", name)`` (an object resolved through
#: this table), an IR expression (the value), or effects
#: ``("op", kind, comm, args)`` / ``("set", var, expr)``.  In both,
#: ``("arg", i, name)`` is an argument and ``("result",)`` the op's result
ABSTRACTION = {
    "CombinationApp.ctx": ("object", "ctx"),
    "CombinationApp.cfg": ("object", "cfg"),
    "CombinationApp.layout": ("object", "layout"),
    "CombinationApp.base_layout": ("object", "layout"),
    "CombinationApp.timers": ("object", "timers"),
    # repro.core.app.AppConfig: one checkpoint per segment
    "cfg.steps": ("const", SEGMENTS),
    "cfg.checkpoint_count": ("const", SEGMENTS),
    "cfg.simulated_lost_gids": ("const", ()),
    # repro.core.layout.Layout over the launched world
    "layout.total_procs": ("size", ("world_comm",)),
    "layout.gid_of": _LAUNCH_GID,
    "layout.root_rank": ("bin", "*", _arg(0, "gid"), _G),
    "layout.group_ranks": ("range", ("bin", "*", _arg(0, "gid"), _G),
                           ("bin", "*", ("bin", "+", _arg(0, "gid"),
                                         ("const", 1)), _G)),
    "layout.adoptions.values": ("const", ()),
    # ReconstructTimers: what this process knows has failed
    "timers.failed_ranks": ("known_failed",),
    # the context: the launched world, and the non-collective mode's
    # spawn argv (the re-admitting world, the slot's grid)
    "ctx.comm": ("var", "__world__"),
    "ctx.argv[1].handle": ("world_comm",),
    "ctx.argv[2]": _LAUNCH_GID,
    # the app's lost-grid bookkeeping (set unions) and solver shell
    "CombinationApp.fold_failed": (("set", "app.lost", ("union_flat", (
        "tuple", ("var", "app.lost"),
        ("map_div", ("union_flat", _arg(0, "views")), _G)))),),
    "CombinationApp.mark_lost": (("set", "app.lost", ("union_flat", (
        "tuple", ("var", "app.lost"), _arg(0, "gids")))),),
    "CombinationApp._make_solver": (
        ("set", "app.solver", ("const", "solver")),
        ("set", "app.solver.step_count", ("const", 0))),
    "CheckpointStats": (
        ("set", "app.cr_stats.recompute_steps", ("const", 0)),),
    # pde.parallel_solver.DistributedAdvectionSolver on the grid
    "CombinationApp.solver.step": (
        ("op", "halo", _GRID, {}),
        ("set", "app.solver.step_count", ("bin", "+", _STEP, _arg(0, "n")))),
    "CombinationApp.solver.gather_full": (("op", "gather", _GRID, {
        "value": _OPAQUE, "root": _arg(0, "root")}),),
    "CombinationApp.solver.gather_nodal": (("op", "gather", _GRID, {
        "value": _OPAQUE, "root": _arg(0, "root")}),),
    "CombinationApp.solver.scatter_full": (
        ("op", "scatter", _GRID, {"value": _OPAQUE,
                                  "root": _arg(1, "root")}),
        ("set", "app.solver.step_count", _arg(2, "step_count"))),
    # ft.checkpoint: a snapshot records the solver's step count; a
    # restore agrees the restorable steps over the grid (BAND) and
    # resumes from the checkpoint
    "write_checkpoint": (("op", "ckpt_write", None, {
        "group": _arg(2, "gid"), "epoch": _STEP}),),
    "restore_checkpoint": (
        ("op", "allreduce", _arg(3, "grid_comm"), {
            "value": _OPAQUE, "op": ("const", "and")}),
        ("op", "ckpt_restore", None, {"group": _arg(2, "gid")}),
        ("set", "app.solver.step_count", ("result",))),
    # sparsegrid.parallel_combine on the world
    "combine_on_root": (("op", "gather", _arg(0, "world"), {
        "value": _OPAQUE, "root": _arg(4, "root")}),),
    "scatter_samples": (("op", "scatter", _arg(0, "world"), {
        "value": _OPAQUE, "root": _arg(4, "root")}),),
    # ft.recovery: segment boundaries, and RC's (lost, source) pairs
    "CheckpointRestart.segment_targets":
        ("const", tuple(range(1, SEGMENTS + 1))),
    "RecoveryTechnique.segment_targets": ("const", (SEGMENTS,)),
    "ResamplingCopying.recovery_plan": ("lookup", _arg(1, "lost_gids"), (
        "const", tuple((g, (g, NGRIDS - 1 - g)) for g in range(NGRIDS)))),
}
