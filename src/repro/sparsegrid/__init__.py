"""Sparse grid combination technique: schemes, coefficients, resampling."""

from .coefficients import (classic_coefficients, coefficient_support_ok,
                           dominates, downset, downset_coefficients,
                           is_downset, maximal_elements, meet,
                           truncated_coefficients)
from .combine import (combination_interpolant, combine_nodal,
                      combine_nodal_reference)
from .gcp import (RecoveryInfeasibleError, alternate_coefficients,
                  alternate_coefficients_for, combination_coefficients,
                  scheme_floor, survivors)
from .hierarchy import (combination_at_points, full_grid_point_count,
                        hierarchical_surplus_1d, union_point_count,
                        union_points)
from .index import (ROLE_DIAGONAL, ROLE_DUPLICATE, ROLE_EXTRA, ROLE_LOWER,
                    CombinationScheme, SchemeGrid, cached_scheme,
                    layer_indices)
from .interpolation import axis_points, nodal_of, resample
from .parallel_combine import combine_on_root, scatter_samples

__all__ = [
    "CombinationScheme", "SchemeGrid", "cached_scheme", "layer_indices",
    "ROLE_DIAGONAL", "ROLE_LOWER", "ROLE_DUPLICATE", "ROLE_EXTRA",
    "classic_coefficients", "downset_coefficients", "truncated_coefficients",
    "downset", "is_downset", "maximal_elements", "meet", "dominates",
    "coefficient_support_ok",
    "alternate_coefficients", "alternate_coefficients_for",
    "combination_coefficients",
    "scheme_floor", "survivors", "RecoveryInfeasibleError",
    "combine_nodal", "combine_nodal_reference", "combination_interpolant",
    "union_points", "union_point_count", "full_grid_point_count",
    "hierarchical_surplus_1d", "combination_at_points",
    "resample", "nodal_of", "axis_points",
    "combine_on_root", "scatter_samples",
]
