"""Experiment harnesses: one module per table/figure of the paper.

* :mod:`repro.experiments.fig8`   — failure identification / reconstruction times
* :mod:`repro.experiments.table1` — ULFM per-operation wall times
* :mod:`repro.experiments.fig9`   — data-recovery overheads (OPL + Raijin)
* :mod:`repro.experiments.fig10`  — combined-solution approximation error
* :mod:`repro.experiments.fig11`  — overall time and parallel efficiency
* :mod:`repro.experiments.modes`  — recovery-mode comparison (respawn vs
  shrink-in-place vs non-collective repair)

Each holds a *plan* — ``run_*``, a generator that yields its batches of
:class:`repro.sweep.SweepPoint` and is sent their metrics, wrapped by
:func:`repro.sweep.planned` so ``run_*(**params, runner=r)`` returns the
structured points — its two parameter tables ``QUICK`` and ``FULL``, and
``format_*`` (paper-style text table).  :mod:`repro.experiments.registry`
builds the catalogue from them; ``python -m repro experiment NAME
[--quick]`` (or ``/v1/experiment/NAME``) is the way to run one.
"""

from . import fig8, fig9, fig10, fig11, modes, report, table1

__all__ = ["fig8", "fig9", "fig10", "fig11", "modes", "table1", "report"]
