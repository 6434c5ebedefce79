"""2D advection PDE solver: serial reference and one domain-decomposed MPI
solver over a process grid (a ring of slabs or 2-D blocks)."""

from .advection import (AdvectionProblem, DiffusionProblem, gaussian_hump,
                        sinusoid)
from .decomposition import SlabDecomposition, choose_dims
from .lax_wendroff import (FLOPS_PER_POINT, SerialAdvectionSolver,
                           courant_numbers, lw_step_interior,
                           lw_step_periodic, nodal_view, periodic_from_initial,
                           periodic_from_nodal)
from .norms import l1, l2, linf
from .parallel_solver import DistributedAdvectionSolver
from .verification import (convergence_study, observed_orders,
                           richardson_error_estimate)

__all__ = [
    "AdvectionProblem", "DiffusionProblem", "sinusoid", "gaussian_hump",
    "SerialAdvectionSolver", "DistributedAdvectionSolver",
    "SlabDecomposition", "choose_dims",
    "convergence_study", "observed_orders", "richardson_error_estimate",
    "lw_step_periodic", "lw_step_interior", "nodal_view",
    "periodic_from_nodal", "periodic_from_initial", "courant_numbers",
    "FLOPS_PER_POINT",
    "l1", "l2", "linf",
]
