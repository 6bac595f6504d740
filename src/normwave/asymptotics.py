"""Predicted concentration asymptotics and their verification reports.

Noncritical regimes: the concentration scale obeys

    eps^{N - 4/(p-1)} = Lambda * rho,

with Lambda tending to 1/(2 sigma0) for interior and whole-space
concentration and to 1/sigma0 for endpoint (half-bump) concentration; the
limit value is used as the testable prediction.

Mass-critical regimes: the mass expands as

    interval (p = 5, N = 1):   mass = 2 sigma0 - 2 Theta(eps) + h.o.t.
    whole space, V quadratic:  mass = 2 sigma0 - 2 eps^4 m_frak ΔV(0) + h.o.t.

Reports compare these predictions against the direct solver. Power-law
prefactors are measured at the nominal order (the intercept of a free
two-parameter fit is biased by finite-eps drift), while the order itself is
fitted freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import boundary_layer as bl
from ._numerics import CubicHermite, simpson
from .bvp import (DIRICHLET, NEUMANN, DomainSpec, MassEvaluator,
                  solve_normalized)
from .corrections import CorrectionProfile, correction_profile
from .errors import DegenerateFit, RegimeMismatch, SolverError, WrongSide
from .groundstate import (GroundState, ProblemParams, Regime,
                          solve_ground_state)

__all__ = [
    "INTERIOR",
    "BOUNDARY_ENDPOINT",
    "WHOLE_SPACE",
    "AsymptoticReport",
    "predict_epsilon_noncritical",
    "predict_mass_expansion_critical",
    "predict_lambda_critical_schrodinger",
    "fit_convergence_order",
    "fit_prefactor",
    "ansatz_residual_l2",
    "verify_report",
    "REPORT_IDS",
]

INTERIOR = "interior"
BOUNDARY_ENDPOINT = "boundary_endpoint"
WHOLE_SPACE = "whole_space"

REPORT_IDS = ("interior_scaling", "interior_critical_mass",
              "potential_critical_mass")

TOLERANCES = {
    "exponential_rel": 0.25,   # exponentially small boundary-layer quantities
    "power_rel": 0.10,         # eps^4 power-law prefactors
    "order_abs": 0.30,         # fitted convergence orders
    "lambda_rel": 1e-3,        # noncritical scaling-law check
}


@dataclass
class AsymptoticReport:
    theorem_id: str
    predicted: dict
    observed: dict
    fitted_order: float
    passed: bool
    notes: str = ""
    tolerances: dict = field(default_factory=dict)
    sweep: list = field(default_factory=list)  # measured (eps, mass) pairs


def _require_finite(name: str, value: float, positive: bool = False) -> None:
    """ValueError unless value is finite (and positive, if asked)."""
    if not (math.isfinite(value) and (value > 0 or not positive)):
        raise ValueError(f"{name} must be "
                         f"{'positive and ' if positive else ''}finite")


def predict_epsilon_noncritical(params: ProblemParams, rho: float,
                                setting: str, sigma0: float):
    """Leading-order (eps, lambda) with Lambda at its limit value."""
    _require_finite("rho", rho, positive=True)
    _require_finite("sigma0", sigma0, positive=True)
    if params.regime is Regime.MASS_CRITICAL:
        raise RegimeMismatch("prediction requires a noncritical exponent")
    if setting == BOUNDARY_ENDPOINT:
        lam_factor = 1.0 / sigma0
    elif setting in (INTERIOR, WHOLE_SPACE):
        lam_factor = 1.0 / (2.0 * sigma0)
    else:
        raise ValueError(f"unknown setting {setting!r}")
    p, N = params.p, params.dim
    exponent = (p - 1.0) / ((p - 1.0) * N - 4.0)
    eps = (lam_factor * rho) ** exponent
    if eps > 1.0:
        raise RegimeMismatch(
            "requested mass lies outside the concentration regime (eps > 1)")
    return eps, eps ** -2.0


def predict_mass_expansion_critical(setting: str, epsilon: float, *,
                                    sigma0: float, bc: Optional[str] = None,
                                    m_frak: Optional[float] = None,
                                    laplacian_V: Optional[float] = None) -> float:
    """Two-term critical mass prediction for the given concentration setting."""
    _require_finite("epsilon", epsilon, positive=True)
    _require_finite("sigma0", sigma0, positive=True)
    for name, value in (("m_frak", m_frak), ("laplacian_V", laplacian_V)):
        if value is not None:
            _require_finite(name, value)
    two_sigma0 = 2.0 * sigma0
    if setting == INTERIOR:
        if bc not in (DIRICHLET, NEUMANN):
            raise ValueError("interior expansion requires a boundary condition")
        return two_sigma0 - 2.0 * bl.theta_quadrature(epsilon, bc)
    if setting == WHOLE_SPACE:
        if m_frak is None or laplacian_V is None:
            raise ValueError("whole-space expansion requires m_frak and ΔV")
        return two_sigma0 - 2.0 * epsilon ** 4 * m_frak * laplacian_V
    raise ValueError(f"unknown setting {setting!r}")


def predict_lambda_critical_schrodinger(rho: float, m_frak: float,
                                        laplacian_V: float, sigma0: float):
    """Invert the two-term critical expansion for the concentration scale.

    mass = 2 sigma0 - 2 eps^4 m_frak ΔV gives
    eps = (|rho - 2 sigma0| / (2 |m_frak ΔV|))^{1/4}; the factor 2 keeps the
    inversion consistent with the expansion the direct solver verifies.
    """
    _require_finite("rho", rho, positive=True)
    _require_finite("sigma0", sigma0, positive=True)
    _require_finite("m_frak", m_frak)
    _require_finite("laplacian_V", laplacian_V)
    if m_frak * laplacian_V == 0.0:
        raise ValueError("m_frak * ΔV must be nonzero")
    two_sigma0 = 2.0 * sigma0
    offset = two_sigma0 - rho
    if offset == 0.0:
        return 0.0, math.inf
    if math.copysign(1.0, offset) != math.copysign(1.0, m_frak * laplacian_V):
        raise WrongSide("mass offset has the wrong sign for this potential")
    eps = (abs(offset) / (2.0 * abs(m_frak * laplacian_V))) ** 0.25
    return eps, eps ** -2.0


# -- fits -------------------------------------------------------------------------

def _effective_coordinate(eps: np.ndarray, law: str) -> np.ndarray:
    if law == "power":
        return np.log(eps)
    if law == "boundary_exponential":
        return -2.0 / eps - np.log(eps)
    raise ValueError(f"unknown law {law!r}")


def _validate_pairs(pairs: Sequence) -> tuple[np.ndarray, np.ndarray]:
    if len(pairs) < 3:
        raise DegenerateFit("need at least three (eps, deviation) pairs")
    eps = np.array([float(e) for e, _ in pairs])
    dev = np.array([float(d) for _, d in pairs])
    order = np.argsort(eps)
    eps, dev = eps[order], dev[order]
    if np.any(dev <= 0):
        raise DegenerateFit("deviations must be positive")
    steps = np.diff(dev)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise DegenerateFit("deviations must be monotone in eps")
    return eps, dev


def fit_convergence_order(pairs: Sequence, law: str = "power") -> float:
    """Least-squares slope of log(deviation) against the effective rate."""
    eps, dev = _validate_pairs(pairs)
    slope, _ = np.polyfit(_effective_coordinate(eps, law), np.log(dev), 1)
    return float(slope)


def fit_prefactor(pairs: Sequence, order: float, law: str = "power") -> float:
    """Prefactor measured at the nominal order (geometric mean of ratios)."""
    eps, dev = _validate_pairs(pairs)
    t = _effective_coordinate(eps, law)
    return float(np.exp(np.mean(np.log(dev) - order * t)))


# -- ansatz residual order ---------------------------------------------------------

def ansatz_residual_l2(gs: GroundState, corr: CorrectionProfile, epsilon: float,
                       tau: float = 1.0) -> float:
    """L2 norm of the rescaled-equation residual of Z = U - eps^4 W.

    The potential is x^2 and the ansatz is centered at eps^2 * tau;
    tau != 0 exposes the generic fifth-order rate (an exactly quadratic
    potential with a centered ansatz degenerates to higher order). The
    norm is taken over |y| <= 30 on 120000 panels.
    """
    if gs.params.dim != 1 or gs.u_exact is None:
        raise ValueError("residual-order check uses the closed-form N=1 state")
    p = gs.params.p
    y = np.linspace(-30.0, 30.0, 120001)
    U = gs.u_exact(y)
    w_spline = CubicHermite(corr.profile.nodes, corr.profile.values,
                            corr.profile.dvalues)
    W = w_spline(np.abs(y))
    # second derivatives via the defining equations, no differencing needed
    Upp = U - np.abs(U) ** (p - 1) * U
    Wpp = (1.0 - p * np.abs(U) ** (p - 1)) * W - y ** 2 * U
    Z = U - epsilon ** 4 * W
    Zpp = Upp - epsilon ** 4 * Wpp
    Vterm = (epsilon ** 4 * y ** 2 + 2.0 * epsilon ** 5 * tau * y
             + epsilon ** 6 * tau ** 2)
    E = -Zpp + (Vterm + 1.0) * Z - np.abs(Z) ** (p - 1) * Z
    return float(np.sqrt(simpson(E ** 2, x=y)))


# -- orchestrated reports -----------------------------------------------------------

def _report_interior_scaling() -> AsymptoticReport:
    rho = 50.0
    params = ProblemParams(1, 3.0)
    gs = solve_ground_state(params)
    spec = DomainSpec("interval", -1.0, 1.0, DIRICHLET)
    eps_pred, lam_pred = predict_epsilon_noncritical(params, rho, INTERIOR,
                                                     gs.sigma0)
    sol = solve_normalized(spec, params, rho, ground_state=gs)
    lam_err = abs(sol.lambda_ / lam_pred - 1.0)
    # mass(eps) ~ 2 sigma0 eps^{N-4/(p-1)}: fit the scaling exponent
    evaluator = MassEvaluator(spec, params)
    sweep = [(e, evaluator(e)) for e in (0.4, 0.3, 0.25, 0.2)]
    slope = fit_convergence_order(sweep, law="power")
    expected_slope = params.dim - 4.0 / (params.p - 1.0)
    passed = bool(lam_err <= TOLERANCES["lambda_rel"]
                  and abs(slope - expected_slope) <= TOLERANCES["order_abs"])
    return AsymptoticReport(
        "interior_scaling",
        predicted={"lambda": lam_pred, "epsilon": eps_pred,
                   "mass_scaling_exponent": expected_slope},
        observed={"lambda": sol.lambda_, "epsilon": sol.epsilon,
                  "lambda_rel_error": lam_err,
                  "mass_scaling_exponent": slope,
                  "sweep": sweep},
        fitted_order=slope, passed=passed, tolerances=dict(TOLERANCES),
        notes=f"rho={rho}", sweep=sweep)


def _report_interior_critical() -> AsymptoticReport:
    eps_list = (0.25, 0.2, 0.15, 0.12)
    params = ProblemParams(1, 5.0)
    gs = solve_ground_state(params)
    two_sigma0 = 2.0 * gs.sigma0
    observed: dict = {}
    ok = True
    orders = []
    for bc in (DIRICHLET, NEUMANN):
        evaluator = MassEvaluator(DomainSpec("interval", -1.0, 1.0, bc), params)
        masses = [(e, evaluator(e)) for e in eps_list]
        sign = 1.0 if bc == DIRICHLET else -1.0
        devs = [(e, sign * (two_sigma0 - m)) for e, m in masses]
        one_sided = all(d > 0 for _, d in devs)
        theta_min = abs(bl.theta_quadrature(min(eps_list), bc))
        dev_min = dict(devs)[min(eps_list)]
        ratio = dev_min / (2.0 * theta_min) if one_sided else math.nan
        devs_sorted = sorted(devs)
        slope = fit_convergence_order(devs_sorted, law="boundary_exponential")
        prefactor = fit_prefactor(devs_sorted, 1.0, law="boundary_exponential")
        orders.append(slope)
        observed[bc] = {
            "masses": masses,
            "one_sided": one_sided,
            "deficit_over_2theta_at_eps_min": ratio,
            "rate_slope": slope,
            "rate_constant": prefactor,
        }
        ok = ok and bool(one_sided)
        ok = ok and bool(abs(ratio - 1.0) <= 0.25)
        ok = ok and bool(abs(prefactor / (2.0 * bl.THETA_RATE_CONSTANT) - 1.0)
                         <= TOLERANCES["exponential_rel"])
        ok = ok and bool(abs(slope - 1.0) <= TOLERANCES["order_abs"])
    return AsymptoticReport(
        "interior_critical_mass",
        predicted={"two_sigma0": two_sigma0,
                   "rate_constant": 2.0 * bl.THETA_RATE_CONSTANT,
                   "rate_slope": 1.0,
                   "deficit_over_2theta_at_eps_min": 1.0},
        observed=observed, fitted_order=float(np.mean(orders)), passed=ok,
        tolerances=dict(TOLERANCES), notes=f"eps_list={list(eps_list)}",
        sweep=observed[DIRICHLET]["masses"])


def _report_potential_critical() -> AsymptoticReport:
    eps_list = (0.35, 0.3, 0.25, 0.2)
    curvature = 1.0  # V = curvature * x^2
    params = ProblemParams(1, 5.0)
    gs = solve_ground_state(params)
    corr = correction_profile(gs)
    two_sigma0 = 2.0 * gs.sigma0
    lap_V = 2.0 * curvature
    spec = DomainSpec("realline", potential=(curvature,))
    evaluator = MassEvaluator(spec, params)
    masses = [(e, evaluator(e)) for e in eps_list]
    devs = sorted((e, two_sigma0 - m) for e, m in masses)
    slope = fit_convergence_order(devs, law="power")
    prefactor = fit_prefactor(devs, 4.0, law="power")
    predicted_prefactor = 2.0 * corr.m_frak * lap_V
    # round-trip: invert the expansion at the smallest eps of the sweep
    e_min = min(eps_list)
    rho_min = dict(masses)[e_min]
    eps_rt, _ = predict_lambda_critical_schrodinger(rho_min, corr.m_frak,
                                                    lap_V, gs.sigma0)
    ok = bool(abs(slope - 4.0) <= TOLERANCES["order_abs"]
              and abs(prefactor / predicted_prefactor - 1.0)
              <= TOLERANCES["power_rel"]
              and all(d > 0 for _, d in devs))
    return AsymptoticReport(
        "potential_critical_mass",
        predicted={"two_sigma0": two_sigma0, "m_frak": corr.m_frak,
                   "deficit_order": 4.0, "deficit_prefactor": predicted_prefactor},
        observed={"masses": masses, "deficit_order": slope,
                  "deficit_prefactor": prefactor,
                  "epsilon_roundtrip_at_eps_min": eps_rt / e_min},
        fitted_order=slope, passed=ok, tolerances=dict(TOLERANCES),
        notes=f"V = {curvature}*x^2, eps_list={list(eps_list)}", sweep=masses)


def verify_report(theorem_id: str) -> AsymptoticReport:
    """Run the orchestrated prediction-vs-direct-solve comparison.

    theorem_id is one of REPORT_IDS. Sub-computation failures are reported
    with passed=False rather than raised.
    """
    builders = {
        "interior_scaling": _report_interior_scaling,
        "interior_critical_mass": _report_interior_critical,
        "potential_critical_mass": _report_potential_critical,
    }
    if theorem_id not in builders:
        raise ValueError(f"unknown theorem_id {theorem_id!r}; "
                         f"expected one of {REPORT_IDS}")
    try:
        return builders[theorem_id]()
    except SolverError as exc:
        return AsymptoticReport(theorem_id, predicted={}, observed={},
                                fitted_order=math.nan, passed=False,
                                tolerances=dict(TOLERANCES),
                                notes=f"{type(exc).__name__}: {exc}")
