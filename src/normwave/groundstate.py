"""Radial ground state of  -ΔU + U = U^p  on R^N and the pure-scaling map.

For N = 1 the ground state is the explicit soliton

    U(x) = ((p+1)/2)^{1/(p-1)} sech^{2/(p-1)}((p-1) x / 2),

for N >= 2 it is computed by overshoot/undershoot bisection on U(0) followed
by a fourth-order collocation polish on the uniform radial grid.

The key derived constants are sigma0 (half the L2 mass, 2*sigma0 = ∫ U^2)
and the decay constant frak_c = lim r^{(N-1)/2} e^r U(r).

Scaling: v(x) = lambda^{1/(p-1)} U(sqrt(lambda) x) solves -Δv + lambda v = v^p
with mass rho = lambda^{2/(p-1) - N/2} * 2*sigma0. At the mass-critical
exponent p = 1 + 4/N the mass is lambda-independent and the problem with
prescribed mass is solvable only at rho = 2*sigma0 (then for every lambda).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import radial
from .errors import MassCriticalInfeasible, NoConvergence, TailNotResolved

__all__ = [
    "Regime",
    "ProblemParams",
    "RadialProfile",
    "GroundState",
    "closed_form_soliton",
    "solve_ground_state",
    "ode_residual_max",
    "mass_sigma0",
    "mass_moment",
    "decay_constant",
    "scale_solution",
    "solve_pure_scaling",
    "ANY_LAMBDA",
]

MASS_CRITICAL_TOL = 1e-12  # |p - (1 + 4/N)| below this counts as critical
SIGMA0_RTOL = 1e-9  # largest accepted N >= 2 error estimate of sigma0, relative
PURE_SCALING_RTOL = 1e-10  # solve_pure_scaling: rho = 2 sigma0 within this


class Regime(str, Enum):
    SUBCRITICAL = "subcritical"
    MASS_CRITICAL = "mass_critical"
    SUPERCRITICAL = "supercritical"


class _AnyLambda:
    """Sentinel: every lambda > 0 solves the critical pure-scaling problem."""

    def __repr__(self) -> str:  # pragma: no cover
        return "ANY_LAMBDA"


ANY_LAMBDA = _AnyLambda()


@dataclass(frozen=True)
class ProblemParams:
    """Dimension and nonlinearity exponent, with regime classification."""

    dim: int
    p: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.p):
            raise ValueError(f"exponent p must be finite, got {self.p}")
        if self.dim < 1 or int(self.dim) != self.dim:
            raise ValueError("dimension must be a positive integer")
        if self.p <= 1.0:
            raise ValueError("exponent must satisfy p > 1")
        if self.dim >= 3 and self.p >= (self.dim + 2) / (self.dim - 2):
            raise ValueError("exponent must be Sobolev-subcritical for N >= 3")

    @property
    def mass_critical_exponent(self) -> float:
        return 1.0 + 4.0 / self.dim

    @property
    def regime(self) -> Regime:
        gap = self.p - self.mass_critical_exponent
        if abs(gap) <= MASS_CRITICAL_TOL:
            return Regime.MASS_CRITICAL
        return Regime.SUBCRITICAL if gap < 0 else Regime.SUPERCRITICAL


@dataclass
class RadialProfile:
    """Sampled radial function with derivative samples and exponential tail.

    Beyond the last node the profile is evaluated with the declared tail
    model  value(R) * exp(tail_rate * (r - R)).
    """

    nodes: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray
    tail_rate: float = -1.0

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.dvalues = np.asarray(self.dvalues, dtype=float)
        if self.nodes[0] != 0.0:
            raise ValueError("radial grid must start at r = 0")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("radial grid must be strictly increasing")
        if self.dvalues[0] != 0.0:
            raise ValueError("radial smoothness requires value'(0) = 0")

    @property
    def spacing(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        inside = np.interp(np.abs(r), self.nodes, self.values)
        R = self.nodes[-1]
        tail = self.values[-1] * np.exp(self.tail_rate * (np.abs(r) - R))
        return np.where(np.abs(r) <= R, inside, tail)


@dataclass
class GroundState:
    params: ProblemParams
    profile: RadialProfile
    sigma0: float
    frak_c: float
    # analytic callables are available for the closed-form N=1 branch
    u_exact: Optional[Callable] = field(default=None, repr=False)
    du_exact: Optional[Callable] = field(default=None, repr=False)
    d2u_exact: Optional[Callable] = field(default=None, repr=False)
    # defect-correction estimates of the relative errors of sigma0 and
    # frak_c (N >= 2); zero for the exact N = 1 profile
    sigma0_rel_err: float = 0.0
    frak_c_rel_err: float = 0.0


def _cosh_power(y, q: float):
    """cosh(y)^q for q < 0: the plain power where cosh(y) is finite, and
    2^{-q} e^{q|y|} past |y| = 710, where cosh overflows and the dropped
    factor (1 + e^{-2|y|})^q differs from 1 by less than 1e-600."""
    with np.errstate(over="ignore"):
        c = np.cosh(y)
    return np.where(np.isinf(c), np.exp(q * (np.abs(y) - math.log(2.0))),
                    c ** q)


def closed_form_soliton(p: float):
    """Return (U, U', U'') callables for the explicit N=1 ground state."""
    m = 2.0 / (p - 1.0)
    k = (p - 1.0) / 2.0
    amp = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0))

    def u(x):
        return amp * _cosh_power(k * np.asarray(x, dtype=float), -m)

    def du(x):
        x = np.asarray(x, dtype=float)
        return -m * k * u(x) * np.tanh(k * x)

    def d2u(x):
        x = np.asarray(x, dtype=float)
        sech2 = _cosh_power(k * x, -2.0)
        return m * k * k * u(x) * (m - (m + 1.0) * sech2)

    return u, du, d2u


# -- shooting (N >= 2) ----------------------------------------------------------

# The shots only bracket U(0) for the Newton polish, which re-solves the grid
# problem from the spliced profile: a bracket of 5e-4 relative is inside its
# basin. A bisection shot gives only its sign, which is settled long before
# its rtol matters: on 45 pairs (N, p), N = 2 to 6, DOP853 classified all
# 669 bisection shots at rtol 1e-6, 1e-5 and 1e-4 as at 3e-9, and at 1e-3 it
# misclassified shots of 4 pairs. The last shot is sampled for the spliced
# profile, so it runs at SHOT_RTOL.
SHOT_START = 2e-2    # shots start here from the regular series at r = 0
SHOT_STOP = 15.0
SHOT_RTOL = 3e-9     # the dense shot that builds the guess
SIGN_RTOL = 1e-6     # the sign-only bisection shots
BRACKET_RTOL = 5e-4


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call.

    Only N >= 2 shooting integrates an ODE, so a run that never shoots
    does not pay for importing scipy.integrate.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _series(p: float, dim: int, s: float, r):
    """U = s + a2 r^2 + a4 r^4 and U' of the regular solution with U(0) = s."""
    a2 = (s - s ** p) / (2.0 * dim)
    a4 = (1.0 - p * s ** (p - 1.0)) * a2 / (4.0 * (dim + 2))
    return s + a2 * r ** 2 + a4 * r ** 4, 2.0 * a2 * r + 4.0 * a4 * r ** 3


def _classify_shot(p: float, dim: int, s: float, dense_output: bool = False):
    """Integrate from the origin; -1 = crossed zero, +1 = turned upward.

    A shot with dense output runs at SHOT_RTOL, a sign-only one at
    SIGN_RTOL. The right-hand side works on Python floats, which cost less
    than numpy scalars and round the same operations to the same bits.
    """
    q, c = p - 1.0, dim - 1.0

    def rhs(t, y):
        u, v = y.tolist()
        return [v, u - abs(u) ** q * u - c * v / t]

    cross = lambda t, y: y[0]
    cross.terminal, cross.direction = True, -1
    turn = lambda t, y: y[1]
    turn.terminal, turn.direction = True, 1
    sol = solve_ivp(rhs, (SHOT_START, SHOT_STOP),
                    list(_series(p, dim, s, SHOT_START)), method="DOP853",
                    rtol=SHOT_RTOL if dense_output else SIGN_RTOL,
                    atol=1e-13, events=[cross, turn],
                    dense_output=dense_output)
    if sol.t_events[0].size:
        return -1, sol
    if sol.t_events[1].size:
        return 1, sol
    return 0, sol


def _shoot_ground_state(p: float, dim: int, max_doublings: int = 60):
    """Bisect U(0) to BRACKET_RTOL; return its midpoint and that shot."""
    lo, hi = 1.0 + 1e-9, 2.0
    doublings = 0
    while _classify_shot(p, dim, hi)[0] != -1:
        lo, hi = hi, 2.0 * hi
        doublings += 1
        if doublings > max_doublings:
            raise NoConvergence("shooting bisection failed to bracket U(0)")
    while hi - lo > BRACKET_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if _classify_shot(p, dim, mid)[0] == -1:
            hi = mid
        else:
            lo = mid
    s = 0.5 * (lo + hi)
    _, sol = _classify_shot(p, dim, s, dense_output=True)
    return s, sol


def _shooting_guess(params: ProblemParams, r: np.ndarray,
                    max_doublings: int = 60) -> np.ndarray:
    """Shot profile spliced onto the decay tail c r^{-(N-1)/2} e^{-r}.

    The shot leaves U at its end event, where its error, which grows like
    e^{2r} relative to U, has reached the size of U; one unit of r earlier
    it is down to about e^{-2} of U.
    """
    p, dim = params.p, params.dim
    s, ivp = _shoot_ground_state(p, dim, max_doublings=max_doublings)
    r_splice = min(12.0, ivp.t[-1] - 1.0)
    vals = np.empty_like(r)
    core = r < SHOT_START
    shot = (r >= SHOT_START) & (r <= r_splice)
    tail = r > r_splice
    vals[core] = _series(p, dim, s, r[core])[0]
    vals[shot] = ivp.sol(r[shot])[0]
    u_sp = float(ivp.sol(r_splice)[0])
    c_sp = u_sp * r_splice ** ((dim - 1) / 2.0) * np.exp(r_splice)
    vals[tail] = c_sp * r[tail] ** (-(dim - 1) / 2.0) * np.exp(-r[tail])
    return vals


def solve_ground_state(params: ProblemParams, r_max: float = 40.0,
                       spacing: float = 1.0 / 600.0,
                       max_doublings: int = 60) -> GroundState:
    """Compute the radial ground state profile and its derived constants.

    For N >= 2 the Newton-polished profile carries defect-correction
    estimates of the relative errors of sigma0 and frak_c, and it is
    accepted only if the estimate for sigma0 is at most SIGMA0_RTOL;
    otherwise NoConvergence is raised.
    """
    r = radial.uniform_grid(r_max, spacing)
    if params.dim == 1:
        u, du, d2u = closed_form_soliton(params.p)
        profile = RadialProfile(r, u(r), du(r), tail_rate=-1.0)
        gs = GroundState(params, profile, 0.0, 0.0, u, du, d2u)
        gs.sigma0 = mass_sigma0(gs)
    else:
        gs = _polished_ground_state(params, r, max_doublings)
    if np.any(np.diff(gs.profile.values) >= 0):
        raise NoConvergence("computed profile is not strictly decreasing")
    gs.frak_c = decay_constant(gs)
    return gs


def _polished_ground_state(params: ProblemParams, r: np.ndarray,
                           max_doublings: int) -> GroundState:
    """Shot guess and Newton polish on r, with sigma0 and the error
    estimates; NoConvergence above SIGMA0_RTOL.

    Defect correction: the sixth-order residual R6 of the grid solution is,
    to leading order, that of the differential equation, so one solve with
    Newton's last Jacobian, e = -J^{-1} R6, estimates the distance to the
    exact U. ∫ U e is the first-order change of sigma0, and the plateau of
    U + e that of frak_c.
    """
    vals = _shooting_guess(params, r, max_doublings)
    vals, lu = radial.radial_newton(r, params.dim, params.p, vals)
    dvals = radial.d1_six(vals, r[1] - r[0])
    # one-sided zone: use the tail model derivative (poly x exp(-r))
    tail_ld = -1.0 - (params.dim - 1) / (2.0 * r[-3:])
    dvals[-3:] = tail_ld * vals[-3:]
    gs = GroundState(params, RadialProfile(r, vals, dvals, tail_rate=-1.0),
                     0.0, 0.0)
    gs.sigma0 = mass_sigma0(gs)
    res = _ode_residual(params, r, vals)
    res[~((r <= radial.RESIDUAL_R_CAP) & np.isfinite(res))] = 0.0
    e = -lu.solve(res)
    gs.sigma0_rel_err = abs(float(radial.radial_quadrature(
        r, vals * e, params.dim, tail_decay=2.0))) / gs.sigma0
    if not gs.sigma0_rel_err <= SIGMA0_RTOL:
        raise NoConvergence(f"ground-state sigma0 error estimate "
                            f"{gs.sigma0_rel_err:.2e} above {SIGMA0_RTOL:.0e}")
    plateau = float(np.median(_decay_plateau(r, vals, params.dim)))
    corrected = float(np.median(_decay_plateau(r, vals + e, params.dim)))
    gs.frak_c_rel_err = abs(corrected - plateau) / plateau
    return gs


def _ode_residual(params: ProblemParams, r: np.ndarray,
                  vals: np.ndarray) -> np.ndarray:
    """Sixth-order residual of -U'' - (N-1)/r U' + U - |U|^{p-1} U."""
    return radial.radial_ode_residual(
        r, vals, params.dim, coeff=np.ones_like(r),
        rhs=np.abs(vals) ** (params.p - 1) * vals)


def ode_residual_max(gs: GroundState) -> float:
    """Max-norm ODE residual over interior nodes, via an independent evaluator.

    The closed-form N = 1 profile substitutes the analytic second
    derivative; the Newton-polished N >= 2 profile uses sixth-order
    differences of its grid values, up to radial.RESIDUAL_R_CAP. A
    diagnostic only: its rounding part grows as h^{-2}, so the N >= 2 gate
    is the error estimate of sigma0.
    """
    prof = gs.profile
    r = prof.nodes
    if gs.d2u_exact is not None:
        res = -gs.d2u_exact(r) + prof.values - np.abs(prof.values) ** gs.params.p
        return float(np.max(np.abs(res)))
    return radial.residual_max(r, _ode_residual(gs.params, r, prof.values))


def mass_sigma0(gs: GroundState, rule: str = "simpson") -> float:
    """sigma0 with 2*sigma0 = ∫_{R^N} U^2, by radial quadrature + tail."""
    prof = gs.profile
    total = radial.radial_quadrature(prof.nodes, prof.values ** 2,
                                     gs.params.dim, tail_decay=2.0, rule=rule)
    return 0.5 * total


def mass_moment(gs: GroundState, k: int) -> float:
    """∫_{R^N} |y|^{2k} U^2, by radial quadrature + tail."""
    prof = gs.profile
    return radial.radial_quadrature(prof.nodes,
                                    prof.nodes ** (2 * k) * prof.values ** 2,
                                    gs.params.dim, tail_decay=2.0)


def decay_constant(gs: GroundState, spread_tol: float = 1e-3) -> float:
    """Plateau of r^{(N-1)/2} e^r U(r) over the outer third of the grid.

    In the tail U is a multiple of r^{-(N-2)/2} K_nu(r), nu = (N-2)/2, so the
    plateau is divided by the first two correction terms of the expansion
    of K_nu (DLMF 10.40.2), 1 + a1/r + a2/r^2; both vanish for N = 1 and 3.
    """
    r = gs.profile.nodes
    if r[-1] < 12.0 or np.count_nonzero(r >= (2.0 / 3.0) * r[-1]) < 8:
        raise TailNotResolved("grid too short to resolve the decay plateau")
    g = _decay_plateau(r, gs.profile.values, gs.params.dim)
    c = float(np.median(g))
    if c <= 0 or not np.isfinite(c):
        raise TailNotResolved("decay plateau is not positive")
    spread = float((np.max(g) - np.min(g)) / c)
    if spread > spread_tol:
        warnings.warn(f"decay plateau spread {spread:.2e} exceeds {spread_tol:.0e}",
                      stacklevel=2)
    return c


def _decay_plateau(r: np.ndarray, vals: np.ndarray, dim: int) -> np.ndarray:
    """r^{(N-1)/2} e^r U(r) / (1 + a1/r + a2/r^2) over the outer third of r."""
    window = r >= (2.0 / 3.0) * r[-1]
    rw = r[window]
    a1 = (dim - 1) * (dim - 3) / 8.0
    a2 = a1 * (dim - 5) * (dim + 1) / 16.0
    return vals[window] * rw ** ((dim - 1) / 2.0) * np.exp(rw) \
        / (1.0 + a1 / rw + a2 / rw ** 2)


def scale_solution(gs: GroundState, lam: float):
    """Profile and mass of v(x) = lam^{1/(p-1)} U(sqrt(lam) x).

    Returns (profile, mass) with mass measured by quadrature on the scaled
    profile; the closed form is rho = lam^{2/(p-1) - N/2} * 2*sigma0.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be positive and finite")
    p = gs.params.p
    amp = lam ** (1.0 / (p - 1.0))
    root = np.sqrt(lam)
    prof = gs.profile
    scaled = RadialProfile(prof.nodes / root, amp * prof.values,
                           amp * root * prof.dvalues, tail_rate=-root)
    mass = radial.radial_quadrature(scaled.nodes, scaled.values ** 2,
                                    gs.params.dim, tail_decay=2.0 * root)
    return scaled, mass


def solve_pure_scaling(params: ProblemParams, rho: float,
                       ground_state: GroundState | None = None):
    """Invert rho = lam^{2/(p-1) - N/2} * 2*sigma0 for lam.

    In the mass-critical regime the mass is lambda-independent: returns the
    ANY_LAMBDA sentinel at rho = 2*sigma0 (within PURE_SCALING_RTOL relative
    to max(1, 2 sigma0)) and raises MassCriticalInfeasible otherwise.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be positive and finite")
    gs = ground_state if ground_state is not None else solve_ground_state(params)
    two_sigma0 = 2.0 * gs.sigma0
    if params.regime is Regime.MASS_CRITICAL:
        if abs(rho - two_sigma0) <= PURE_SCALING_RTOL * max(1.0, two_sigma0):
            return ANY_LAMBDA
        raise MassCriticalInfeasible(
            f"critical pure-scaling mass must equal {two_sigma0:.12g}, got {rho:.12g}")
    p = params.p
    exponent = 2.0 * (p - 1.0) / (4.0 - (p - 1.0) * params.dim)
    return (rho / two_sigma0) ** exponent
