"""Mass-normalized concentrating waves: solvers, asymptotics, MFG bridge.

Computes pairs (lambda, v) of the semilinear problem
-Δv + (V + lambda) v = v^p with prescribed mass ∫ v^2 = rho on intervals and
on the real line, the associated ground-state and correction constants, the
explicit 1D boundary layers, quantitative checks of the concentration
asymptotics against a direct collocation solver, and the Hopf-Cole
correspondence with quadratic ergodic mean-field games.

The names below are loaded on first use (PEP 562): ``import normwave``
imports no submodule, and ``normwave.X`` or ``from normwave import X``
imports only the module that defines X.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule, in the order of __all__
_EXPORTS = {
    "asymptotics": (
        "AsymptoticReport", "fit_convergence_order",
        "predict_epsilon_noncritical", "predict_lambda_critical_schrodinger",
        "predict_mass_expansion_critical", "verify_report"),
    "boundary_layer": (
        "make_boundary_layer", "phi_explicit", "theta_asymptotic",
        "theta_quadrature", "viscosity_rate"),
    "bvp": (
        "DomainSpec", "NormalizedSolution", "assemble_residual",
        "solve_fixed_epsilon", "solve_normalized", "trace_branch"),
    "corrections": (
        "CorrectionProfile", "compute_m_frak", "correction_profile",
        "factorization_oracle_1d", "solve_linearized_radial",
        "w_zero_locate"),
    "groundstate": (
        "ANY_LAMBDA", "GroundState", "ProblemParams", "RadialProfile",
        "Regime", "decay_constant", "mass_sigma0", "scale_solution",
        "solve_ground_state", "solve_pure_scaling"),
    "mfg": ("MfgTriple", "from_mfg", "mfg_residuals", "to_mfg"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    # looked up on its module at every access, so a name that is patched
    # there reads the same here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
