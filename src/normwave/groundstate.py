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
from ._numerics import CubicHermite
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
DECAY_SPREAD_TOL = 1e-3  # decay_constant warns above this plateau spread


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
# misclassified shots of 4 pairs. The last shot, from the bracket's midpoint,
# records its steps for the guess: at 1e-6 its cubic Hermite samples are
# within 5e-4 U(0) of a shot at 3e-9, and Newton's result moves only at
# its rounding floor.
SHOT_START = 2e-2    # shots start here from the regular series at r = 0
SHOT_STOP = 15.0
SHOT_RTOL = 1e-6
SHOT_ATOL = 1e-13
BRACKET_RTOL = 5e-4
MAX_DOUBLINGS = 60   # of the upper end of the U(0) bracket, from 2

# The DOP853 tableau of scipy.integrate (scipy/integrate/_ivp/
# dop853_coefficients.py; SciPy, BSD 3-Clause License, Copyright (c)
# 2001-2002 Enthought, Inc. and 2003- SciPy Developers) as Python floats:
# the nodes C and rows A of stages 1 to 11, the weights B of the
# eighth-order solution, and the error weights E3 and E5 over the 12
# stages and the derivative at the new point.
_DOP853_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
             0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
             0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_DOP853_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_DOP853_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
             1.8915178993145003, -5.801203960010585, 0.3111643669578199,
             -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_DOP853_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
              1.8915178993145003, -5.801203960010585, -0.4226823213237919,
              -0.1521609496625161, 0.20136540080403034, 0.02265179219836082,
              0.0)
_DOP853_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
              -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
              0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
              0.0)


def _series(p: float, dim: int, s: float, r):
    """U = s + a2 r^2 + a4 r^4 and U' of the regular solution with U(0) = s."""
    a2 = (s - s ** p) / (2.0 * dim)
    a4 = (1.0 - p * s ** (p - 1.0)) * a2 / (4.0 * (dim + 2))
    return s + a2 * r ** 2 + a4 * r ** 4, 2.0 * a2 * r + 4.0 * a4 * r ** 3


def _shot_rhs(p: float, dim: int):
    """U'' = U - |U|^{p-1} U - (N-1) U'/r on Python floats, which cost less
    than numpy scalars and round the same operations to the same bits."""
    q, c = p - 1.0, dim - 1.0
    return lambda t, u, v: u - abs(u) ** q * u - c * v / t


def _weighted_sums(w, ku, kv):
    """(sum w_i ku_i, sum w_i kv_i), added left to right: unlike math.fsum,
    an inf or nan stage gives inf or nan, as in scipy's np.dot."""
    su = sv = 0.0
    for wi, x, y in zip(w, ku, kv):
        su += wi * x
        sv += wi * y
    return su, sv


def solve_ivp(p: float, dim: int, s: float, path: list | None = None) -> int:
    """-1 if the shot from U(0) = s crosses zero, +1 if it turns upward,
    0 if it reaches SHOT_STOP (or its step falls below 10 ulp of r). A list
    passed as path receives (r, U, U') at the start and every accepted step.

    scipy's solve_ivp(method="DOP853") at SHOT_RTOL with the terminal events
    U = 0 (downward) and U' = 0 (upward), on Python floats (Hairer, Norsett
    and Wanner, Solving ODEs I, 1993, II.10): scipy's initial step, step
    controller, E5/E3 error norm and event test. A step on which both events
    fire raises NoConvergence rather than ordering them on the dense output.
    The name is kept for bench/tracing.py, which counts the shots through it.
    """
    accel, rtol, atol = _shot_rhs(p, dim), SHOT_RTOL, SHOT_ATOL
    sq = lambda x, y: x * x + y * y
    rms = lambda x, y: math.sqrt(sq(x, y)) / 2.0 ** 0.5
    t = SHOT_START
    u, v = _series(p, dim, s, t)
    a = accel(t, u, v)
    if path is not None:
        path.append((t, u, v))
    # scipy's select_initial_step for an error estimator of order 7
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = rms(u / su, v / sv), rms(v / su, a / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, SHOT_STOP - t)
    u1, v1 = u + h0 * v, v + h0 * a
    d2 = rms((v1 - v) / su, (accel(t + h0, u1, v1) - a) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, SHOT_STOP - t)
    while t < SHOT_STOP:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return 0
            t_new = min(t + h_abs, SHOT_STOP)
            h = h_abs = t_new - t
            ku, kv = [v], [a]
            for c, row in zip(_DOP853_C, _DOP853_A):
                du, dv = _weighted_sums(row, ku, kv)
                us, vs = u + du * h, v + dv * h
                ku.append(vs)
                kv.append(accel(t + c * h, us, vs))
            du, dv = _weighted_sums(_DOP853_B, ku, kv)
            u_new, v_new = u + h * du, v + h * dv
            a_new = accel(t + h, u_new, v_new)
            ku.append(v_new)
            kv.append(a_new)
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            e5u, e5v = _weighted_sums(_DOP853_E5, ku, kv)
            e3u, e3v = _weighted_sums(_DOP853_E3, ku, kv)
            e5, e3 = sq(e5u / su, e5v / sv), sq(e3u / su, e3v / sv)
            err = 0.0 if e5 == 0 and e3 == 0 else (
                h * e5 / math.sqrt((e5 + 0.01 * e3) * 2))
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        if path is not None:
            path.append((t_new, u_new, v_new))
        crossed, turned = u >= 0.0 >= u_new, v <= 0.0 <= v_new
        if crossed and turned:
            raise NoConvergence(f"shot from U(0) = {s!r} crossed zero and "
                                f"turned upward in one step")
        if crossed or turned:
            return -1 if crossed else 1
        t, u, v, a = t_new, u_new, v_new, a_new
    return 0


def _shoot_ground_state(p: float, dim: int):
    """Bisect U(0) to BRACKET_RTOL; return its midpoint and the path of the
    shot from there.

    A shot whose |U|^p overflows raises NoConvergence naming its U(0).
    """
    def shot(s, path=None):
        try:
            return solve_ivp(p, dim, s, path)
        except OverflowError:
            raise NoConvergence(f"shot from U(0) = {s!r} overflowed the "
                                f"float range") from None

    lo, hi = 1.0 + 1e-9, 2.0
    doublings = 0
    while shot(hi) != -1:
        lo, hi = hi, 2.0 * hi
        doublings += 1
        if doublings > MAX_DOUBLINGS:
            raise NoConvergence("shooting bisection failed to bracket U(0)")
    while hi - lo > BRACKET_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if shot(mid) == -1:
            hi = mid
        else:
            lo = mid
    s, path = 0.5 * (lo + hi), []
    shot(s, path)
    return s, path


def _shooting_guess(params: ProblemParams, r: np.ndarray) -> np.ndarray:
    """Shot profile spliced onto the decay tail c r^{-(N-1)/2} e^{-r}.

    The shot's error grows like e^{2r} relative to U and reaches the size of
    U at the end event, in the shot's last step; the tail is spliced on one
    unit of r before the last point reached. Between its steps the shot is
    the cubic Hermite interpolant of U and U'.
    """
    p, dim = params.p, params.dim
    s, path = _shoot_ground_state(p, dim)
    t, u, v = np.array(path).T
    shot_u = CubicHermite(t, u, v)
    r_splice = min(12.0, t[-1] - 1.0)
    vals = np.empty_like(r)
    core = r < SHOT_START
    shot = (r >= SHOT_START) & (r <= r_splice)
    tail = r > r_splice
    vals[core] = _series(p, dim, s, r[core])[0]
    vals[shot] = shot_u(r[shot])
    u_sp = float(shot_u(r_splice))
    c_sp = u_sp * r_splice ** ((dim - 1) / 2.0) * np.exp(r_splice)
    vals[tail] = c_sp * r[tail] ** (-(dim - 1) / 2.0) * np.exp(-r[tail])
    return vals


def solve_ground_state(params: ProblemParams, r_max: float = 40.0,
                       spacing: float = 1.0 / 600.0) -> GroundState:
    """Compute the radial ground state profile and its derived constants.

    For N >= 2 the Newton-polished profile carries defect-correction
    estimates of the relative errors of sigma0 and frak_c, and it is
    accepted only if the estimate for sigma0 is at most SIGMA0_RTOL;
    otherwise NoConvergence is raised. A decay plateau that r_max does not
    resolve raises TailNotResolved (decay_constant).
    """
    r = radial.uniform_grid(r_max, spacing)
    if params.dim == 1:
        u, du, d2u = closed_form_soliton(params.p)
        profile = RadialProfile(r, u(r), du(r), tail_rate=-1.0)
        gs = GroundState(params, profile, 0.0, 0.0, u, du, d2u)
        gs.sigma0 = mass_sigma0(gs)
    else:
        gs = _polished_ground_state(params, r)
    if np.any(np.diff(gs.profile.values) >= 0):
        raise NoConvergence("computed profile is not strictly decreasing")
    gs.frak_c = decay_constant(gs)
    return gs


def _polished_ground_state(params: ProblemParams,
                           r: np.ndarray) -> GroundState:
    """Shot guess and Newton polish on r, with sigma0 and the error
    estimates; NoConvergence above SIGMA0_RTOL.

    Defect correction: the sixth-order residual R6 of the grid solution is,
    to leading order, that of the differential equation, so one solve with
    Newton's last Jacobian, e = -J^{-1} R6, estimates the distance to the
    exact U. ∫ U e is the first-order change of sigma0, and the plateau of
    U + e that of frak_c.
    """
    vals = _shooting_guess(params, r)
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


def decay_constant(gs: GroundState) -> float:
    """Plateau of r^{(N-1)/2} e^r U(r) over the outer third of the grid.

    In the tail U is a multiple of r^{-(N-2)/2} K_nu(r), nu = (N-2)/2, so the
    plateau is divided by the first two correction terms of the expansion
    of K_nu (DLMF 10.40.2), 1 + a1/r + a2/r^2; both vanish for N = 1 and 3.
    A spread of the plateau above DECAY_SPREAD_TOL of its median warns, and
    one above 1, no plateau at all, raises TailNotResolved.
    """
    r = gs.profile.nodes
    if r[-1] < 12.0 or np.count_nonzero(r >= (2.0 / 3.0) * r[-1]) < 8:
        raise TailNotResolved("grid too short to resolve the decay plateau")
    g = _decay_plateau(r, gs.profile.values, gs.params.dim)
    c = float(np.median(g))
    if c <= 0 or not np.isfinite(c):
        raise TailNotResolved("decay plateau is not positive")
    spread = float((np.max(g) - np.min(g)) / c)
    if spread > 1.0:  # no plateau at all: the tail is not resolved
        raise TailNotResolved(f"decay plateau spread {spread:.2e} at r_max = "
                              f"{r[-1]:g}: no plateau")
    if spread > DECAY_SPREAD_TOL:
        warnings.warn(f"decay plateau spread {spread:.2e} exceeds "
                      f"{DECAY_SPREAD_TOL:.0e}", stacklevel=2)
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
