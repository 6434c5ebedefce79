"""One registry of the runnable experiments.

``python -m repro experiment NAME`` and the HTTP service
(``/v1/experiment/NAME``) are the only two ways in, and both call
:func:`run_experiment`: the same plan, the same quick / full parameter
table (the ``QUICK`` / ``FULL`` dicts beside each plan — the single place
a parameterisation is spelled), the same validated document.

The caller supplies the :class:`repro.sweep.SweepRunner` and with it the
worker count and cache (the service passes its persistent shared cache;
misses computed for one client are hits for every later one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Sequence, Tuple

from ..obs.schema import validate_experiment_doc
from . import fig8, fig9, fig10, fig11, modes, table1
from .report import experiment_json

__all__ = ["EXPERIMENTS", "ExperimentSpec", "experiment_names",
           "format_experiment", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSpec:
    """How to produce and render one paper table/figure."""

    name: str
    #: ``run(quick, runner) -> points``
    run: Callable[[bool, object], Sequence]
    #: ``fmt(points) -> str`` (the human-readable table)
    fmt: Callable[[Sequence], str]
    #: the parameter tables ``run`` selects between; the selected one is
    #: part of the document's content key
    quick: Mapping = field(default_factory=dict)
    full: Mapping = field(default_factory=dict)


def _spec(name: str, module, run, fmt) -> ExperimentSpec:
    """A planned experiment: ``run`` with the module's ``QUICK`` or
    ``FULL`` table."""
    quick, full = module.QUICK, module.FULL
    return ExperimentSpec(
        name, lambda q, runner: run(**(quick if q else full), runner=runner),
        fmt, quick, full)


EXPERIMENTS: Dict[str, ExperimentSpec] = {spec.name: spec for spec in (
    _spec("table1", table1, table1.run_table1, table1.format_table1),
    _spec("fig8", fig8, fig8.run_fig8, fig8.format_fig8),
    _spec("fig9", fig9, fig9.run_fig9, fig9.format_fig9),
    _spec("fig10", fig10, fig10.run_fig10, fig10.format_fig10),
    _spec("fig11", fig11, fig11.run_fig11, fig11.format_fig11),
    _spec("modes", modes, modes.run_modes, modes.format_modes),
)}


def experiment_names() -> Tuple[str, ...]:
    return tuple(EXPERIMENTS)


def run_experiment(name: str, quick: bool, runner) -> Tuple[Sequence, dict]:
    """Run one experiment through ``runner``: its points and the validated
    document (deterministic — ``params`` holds ``quick`` only).  Raises
    ``KeyError`` for an unknown name (front ends validate first)."""
    points = EXPERIMENTS[name].run(quick, runner)
    doc = experiment_json(name, points, params={"quick": bool(quick)})
    return points, validate_experiment_doc(doc)


def format_experiment(name: str, points: Sequence) -> str:
    return EXPERIMENTS[name].fmt(points)
