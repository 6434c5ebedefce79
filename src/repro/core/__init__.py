"""The paper's application: layout, fault-tolerant solver app, run harness."""

from ..ft.recovery import AC_COEFF_FLOPS, RECOVERY_TAG, restrict_periodic
from .app import AppConfig, CombinationApp, app_main
from .layout import GridAssignment, Layout, layout_for
from .metrics import RunMetrics
from .runner import (baseline_solve_time, choose_lost_grids,
                     choose_lost_grids_for_scheme, make_universe,
                     plan_failures, run_app)

__all__ = [
    "AppConfig", "CombinationApp", "app_main", "restrict_periodic",
    "RECOVERY_TAG", "AC_COEFF_FLOPS",
    "Layout", "GridAssignment", "layout_for",
    "RunMetrics",
    "run_app", "plan_failures", "baseline_solve_time", "choose_lost_grids",
    "choose_lost_grids_for_scheme", "make_universe",
]
