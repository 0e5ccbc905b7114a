"""krylovflow: Krylov-complexity growth bounds for dissipative spin chains.

Builds Lindbladian superoperators for open transverse-field Ising chains,
tridiagonalizes them with a bi-orthogonal Lanczos recursion, evolves
operator amplitudes on the resulting Krylov chain, and checks the
dispersion (speed-limit) bound on complexity growth, together with
continuum closed forms and a method-of-characteristics reference solver.
"""

__version__ = "0.1.0"

from .analysis import FilterConfig, filter_series, remove_outliers, smooth
from .bilanczos import (StructureReport, TridiagonalData, bilanczos,
                        check_open_structure, project_dissipative_structure)
from .bound import (BoundReport, MandelstamTammReport,
                    dispersion_bound_check, mandelstam_tamm_tau,
                    renormalized_bound_check, saturating_coefficients,
                    saturation_report)
from .continuum import (CONSTANT_A, LINEAR_A, ContinuumSpec, analytic_C_P,
                        characteristics_solver, continuum_vs_paper_report)
from .exceptions import InvariantViolation, NumericalFailure
from .krylov_chain import (ChainTrajectory, MomentSeries,
                           direct_evolution_oracle, evolve_chain,
                           finite_diff, moments)
from .lindbladian import (build_lindbladian, build_model_lindbladian,
                          devectorize, uniform_seed, vectorize)
from .spin_algebra import (ModelSpec, build_jump_operators, build_tfim,
                           pauli_matrix, site_operator)

__all__ = [
    "__version__",
    "FilterConfig", "filter_series", "remove_outliers", "smooth",
    "StructureReport", "TridiagonalData", "bilanczos",
    "check_open_structure", "project_dissipative_structure",
    "BoundReport", "MandelstamTammReport", "dispersion_bound_check",
    "mandelstam_tamm_tau", "renormalized_bound_check",
    "saturating_coefficients", "saturation_report",
    "CONSTANT_A", "LINEAR_A", "ContinuumSpec", "analytic_C_P",
    "characteristics_solver", "continuum_vs_paper_report",
    "InvariantViolation", "NumericalFailure",
    "ChainTrajectory", "MomentSeries", "direct_evolution_oracle",
    "evolve_chain", "finite_diff", "moments",
    "build_lindbladian", "build_model_lindbladian", "devectorize",
    "uniform_seed", "vectorize",
    "ModelSpec", "build_jump_operators", "build_tfim", "pauli_matrix",
    "site_operator",
]
