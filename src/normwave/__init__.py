"""Mass-normalized concentrating waves: solvers, asymptotics, MFG bridge.

Computes pairs (lambda, v) of the semilinear problem
-Δv + (V + lambda) v = v^p with prescribed mass ∫ v^2 = rho on intervals and
on the real line, the associated ground-state and correction constants, the
explicit 1D boundary layers, quantitative checks of the concentration
asymptotics against a direct collocation solver, and the Hopf-Cole
correspondence with quadratic ergodic mean-field games.
"""

__version__ = "0.1.0"

from .asymptotics import (AsymptoticReport, fit_convergence_order,
                          predict_epsilon_noncritical,
                          predict_lambda_critical_schrodinger,
                          predict_mass_expansion_critical, verify_report)
from .boundary_layer import (make_boundary_layer, phi_explicit,
                             theta_asymptotic, theta_quadrature,
                             viscosity_rate)
from .bvp import (DomainSpec, NormalizedSolution, assemble_residual,
                  solve_fixed_epsilon, solve_normalized, trace_branch)
from .corrections import (CorrectionProfile, compute_m_frak,
                          correction_profile, factorization_oracle_1d,
                          solve_linearized_radial, w_zero_locate)
from .groundstate import (ANY_LAMBDA, GroundState, ProblemParams,
                          RadialProfile, Regime, decay_constant, mass_sigma0,
                          scale_solution, solve_ground_state,
                          solve_pure_scaling)
from .mfg import MfgTriple, from_mfg, mfg_residuals, to_mfg

__all__ = [
    "__version__",
    "AsymptoticReport", "fit_convergence_order",
    "predict_epsilon_noncritical", "predict_lambda_critical_schrodinger",
    "predict_mass_expansion_critical", "verify_report",
    "make_boundary_layer", "phi_explicit", "theta_asymptotic",
    "theta_quadrature", "viscosity_rate",
    "DomainSpec", "NormalizedSolution", "assemble_residual",
    "solve_fixed_epsilon", "solve_normalized", "trace_branch",
    "CorrectionProfile", "compute_m_frak", "correction_profile",
    "factorization_oracle_1d", "solve_linearized_radial", "w_zero_locate",
    "ANY_LAMBDA", "GroundState", "ProblemParams", "RadialProfile", "Regime",
    "decay_constant", "mass_sigma0", "scale_solution", "solve_ground_state",
    "solve_pure_scaling",
    "MfgTriple", "from_mfg", "mfg_residuals", "to_mfg",
]
