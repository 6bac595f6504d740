"""Radial ground state of  -ΔU + U = U^p  on R^N and the pure-scaling map.

For N = 1 the ground state is the explicit soliton

    U(x) = ((p+1)/2)^{1/(p-1)} sech^{2/(p-1)}((p-1) x / 2),

for N >= 2 it is computed by overshoot/undershoot bisection on U(0) followed
by a fourth-order collocation polish on the uniform radial grid [0, R],
R = 20, or 40 where the tail identity (_tail_identity) is not flat at 20.

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
from ._numerics import CubicHermite, median
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
    "linearization",
    "decay_constant",
    "scale_solution",
    "solve_pure_scaling",
    "ANY_LAMBDA",
]

MASS_CRITICAL_TOL = 1e-12  # |p - (1 + 4/N)| below this counts as critical
SIGMA0_RTOL = 1e-9  # largest accepted N >= 2 error estimate of sigma0, relative
PURE_SCALING_RTOL = 1e-10  # solve_pure_scaling: rho = 2 sigma0 within this
DECAY_SPREAD_TOL = 1e-3  # decay_constant warns above this plateau spread
RADIUS_MIN = 20.0  # the default radial grid for N >= 2
RADIUS_MAX = 40.0  # the default for N = 1, and the N >= 2 re-solve
TAIL_SPREAD_TOL = 2e-7  # largest c(r) spread at the default N >= 2 radius
TAIL_NODES = 24  # Gauss-Laguerre nodes of the identity's integrals past R
TAIL_STEP = 1.0 / 150.0  # the identity's sub-grid step, about; 4 h by default


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
        if not self.values.shape == self.dvalues.shape == self.nodes.shape:
            raise ValueError("values and dvalues need one entry per node")
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
    # mass_moment's integrals by k, each taken once per ground state
    moments: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    # linearization's factors of L+ at the profile, formed once
    lplus: Optional[radial.BandLU] = field(default=None, init=False,
                                           repr=False, compare=False)


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
# basin. A shot that records no path (the doubling and bisection shots)
# gives only its sign, which is settled long before its rtol matters, so it
# runs at SIGN_RTOL: on 45 pairs (N, p), N = 2 to 6, the bisection reaches
# the same U(0), bit for bit, at rtol 1e-4 and 1e-5 as at 3e-9, while at
# 1e-3 it moves at 4 pairs. The last shot, from the bracket's midpoint,
# records its steps for the guess and runs at SHOT_RTOL: at 1e-6 its cubic
# Hermite samples are within 5e-4 U(0) of a shot at 3e-9, and Newton's
# result moves only at its rounding floor.
SHOT_START = 2e-2    # shots start here from the regular series at r = 0
SHOT_STOP = 15.0
SHOT_RTOL = 1e-6    # the shot that records its path
SIGN_RTOL = 1e-4    # every other shot
SHOT_ATOL = 1e-13
BRACKET_RTOL = 5e-4
MAX_DOUBLINGS = 60   # of the upper end of the U(0) bracket, from 2

# The DOP853 tableau of scipy.integrate (scipy/integrate/_ivp/
# dop853_coefficients.py; SciPy, BSD 3-Clause License, Copyright (c)
# 2001-2002 Enthought, Inc. and 2003- SciPy Developers) as Python floats:
# the nodes C and rows A of stages 1 to 11, the weights B of the
# eighth-order solution, and the error weights E3 and E5 over the 12
# stages and the derivative at the new point. solve_ivp unpacks them into
# the locals c{i}, a{i}_{j}, b{j}, e3_{j} and e5_{j}.
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


def solve_ivp(p: float, dim: int, s: float, path: list | None = None) -> int:
    """-1 if the shot from U(0) = s crosses zero, +1 if it turns upward,
    0 if it reaches SHOT_STOP (or its step falls below 10 ulp of r). A list
    passed as path receives (r, U, U') at the start and every accepted step.

    scipy's solve_ivp(method="DOP853") with the terminal events U = 0
    (downward) and U' = 0 (upward), on Python floats (Hairer, Norsett and
    Wanner, Solving ODEs I, 1993, II.10): scipy's initial step, step
    controller, E5/E3 error norm and event test, at rtol SHOT_RTOL for a
    shot that records a path and SIGN_RTOL for one that returns only its
    sign. A step on which both events fire raises NoConvergence rather
    than ordering them on the dense output.
    The name is kept for bench/tracing.py, which counts the shots through it.

    The step is written out stage by stage. Stage i has the state (w, v_i)
    and the slope (v_i, f_i), f = U'' = U - |U|^{p-1} U - (N-1) U'/r. Each
    weighted sum starts from 0.0 and adds its terms in tableau order, zero
    weights included, so an inf or nan stage gives inf or nan, as in scipy.
    """
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _DOP853_C
    ((a1_0,), (a2_0, a2_1), (a3_0, a3_1, a3_2), (a4_0, a4_1, a4_2, a4_3),
     (a5_0, a5_1, a5_2, a5_3, a5_4), (a6_0, a6_1, a6_2, a6_3, a6_4, a6_5),
     (a7_0, a7_1, a7_2, a7_3, a7_4, a7_5, a7_6),
     (a8_0, a8_1, a8_2, a8_3, a8_4, a8_5, a8_6, a8_7),
     (a9_0, a9_1, a9_2, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, a10_1, a10_2, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, a11_1, a11_2, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9,
      a11_10)) = _DOP853_A
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = _DOP853_B
    (e3_0, e3_1, e3_2, e3_3, e3_4, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11,
     e3_12) = _DOP853_E3
    (e5_0, e5_1, e5_2, e5_3, e5_4, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11,
     e5_12) = _DOP853_E5
    q, n1, atol = p - 1.0, dim - 1.0, SHOT_ATOL
    rtol = SIGN_RTOL if path is None else SHOT_RTOL
    sq = lambda x, y: x * x + y * y
    rms = lambda x, y: math.sqrt(sq(x, y)) / 2.0 ** 0.5
    t = SHOT_START
    u, v = _series(p, dim, s, t)
    f = u - abs(u) ** q * u - n1 * v / t
    if path is not None:
        path.append((t, u, v))
    # scipy's select_initial_step for an error estimator of order 7
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = rms(u / su, v / sv), rms(v / su, f / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, SHOT_STOP - t)
    ue, ve = u + h0 * v, v + h0 * f
    fe = ue - abs(ue) ** q * ue - n1 * ve / (t + h0)
    d2 = rms((ve - v) / su, (fe - f) / sv) / h0
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
            w = u + (0.0 + a1_0 * v) * h
            v1 = v + (0.0 + a1_0 * f) * h
            f1 = w - abs(w) ** q * w - n1 * v1 / (t + c1 * h)
            w = u + (0.0 + a2_0 * v + a2_1 * v1) * h
            v2 = v + (0.0 + a2_0 * f + a2_1 * f1) * h
            f2 = w - abs(w) ** q * w - n1 * v2 / (t + c2 * h)
            w = u + (0.0 + a3_0 * v + a3_1 * v1 + a3_2 * v2) * h
            v3 = v + (0.0 + a3_0 * f + a3_1 * f1 + a3_2 * f2) * h
            f3 = w - abs(w) ** q * w - n1 * v3 / (t + c3 * h)
            w = u + (0.0 + a4_0 * v + a4_1 * v1 + a4_2 * v2 + a4_3 * v3) * h
            v4 = v + (0.0 + a4_0 * f + a4_1 * f1 + a4_2 * f2 + a4_3 * f3) * h
            f4 = w - abs(w) ** q * w - n1 * v4 / (t + c4 * h)
            w = u + (0.0 + a5_0 * v + a5_1 * v1 + a5_2 * v2 + a5_3 * v3
                     + a5_4 * v4) * h
            v5 = v + (0.0 + a5_0 * f + a5_1 * f1 + a5_2 * f2 + a5_3 * f3
                      + a5_4 * f4) * h
            f5 = w - abs(w) ** q * w - n1 * v5 / (t + c5 * h)
            w = u + (0.0 + a6_0 * v + a6_1 * v1 + a6_2 * v2 + a6_3 * v3
                     + a6_4 * v4 + a6_5 * v5) * h
            v6 = v + (0.0 + a6_0 * f + a6_1 * f1 + a6_2 * f2 + a6_3 * f3
                      + a6_4 * f4 + a6_5 * f5) * h
            f6 = w - abs(w) ** q * w - n1 * v6 / (t + c6 * h)
            w = u + (0.0 + a7_0 * v + a7_1 * v1 + a7_2 * v2 + a7_3 * v3
                     + a7_4 * v4 + a7_5 * v5 + a7_6 * v6) * h
            v7 = v + (0.0 + a7_0 * f + a7_1 * f1 + a7_2 * f2 + a7_3 * f3
                      + a7_4 * f4 + a7_5 * f5 + a7_6 * f6) * h
            f7 = w - abs(w) ** q * w - n1 * v7 / (t + c7 * h)
            w = u + (0.0 + a8_0 * v + a8_1 * v1 + a8_2 * v2 + a8_3 * v3
                     + a8_4 * v4 + a8_5 * v5 + a8_6 * v6 + a8_7 * v7) * h
            v8 = v + (0.0 + a8_0 * f + a8_1 * f1 + a8_2 * f2 + a8_3 * f3
                      + a8_4 * f4 + a8_5 * f5 + a8_6 * f6 + a8_7 * f7) * h
            f8 = w - abs(w) ** q * w - n1 * v8 / (t + c8 * h)
            w = u + (0.0 + a9_0 * v + a9_1 * v1 + a9_2 * v2 + a9_3 * v3
                     + a9_4 * v4 + a9_5 * v5 + a9_6 * v6 + a9_7 * v7
                     + a9_8 * v8) * h
            v9 = v + (0.0 + a9_0 * f + a9_1 * f1 + a9_2 * f2 + a9_3 * f3
                      + a9_4 * f4 + a9_5 * f5 + a9_6 * f6 + a9_7 * f7
                      + a9_8 * f8) * h
            f9 = w - abs(w) ** q * w - n1 * v9 / (t + c9 * h)
            w = u + (0.0 + a10_0 * v + a10_1 * v1 + a10_2 * v2 + a10_3 * v3
                     + a10_4 * v4 + a10_5 * v5 + a10_6 * v6 + a10_7 * v7
                     + a10_8 * v8 + a10_9 * v9) * h
            v10 = v + (0.0 + a10_0 * f + a10_1 * f1 + a10_2 * f2 + a10_3 * f3
                       + a10_4 * f4 + a10_5 * f5 + a10_6 * f6 + a10_7 * f7
                       + a10_8 * f8 + a10_9 * f9) * h
            f10 = w - abs(w) ** q * w - n1 * v10 / (t + c10 * h)
            w = u + (0.0 + a11_0 * v + a11_1 * v1 + a11_2 * v2 + a11_3 * v3
                     + a11_4 * v4 + a11_5 * v5 + a11_6 * v6 + a11_7 * v7
                     + a11_8 * v8 + a11_9 * v9 + a11_10 * v10) * h
            v11 = v + (0.0 + a11_0 * f + a11_1 * f1 + a11_2 * f2 + a11_3 * f3
                       + a11_4 * f4 + a11_5 * f5 + a11_6 * f6 + a11_7 * f7
                       + a11_8 * f8 + a11_9 * f9 + a11_10 * f10) * h
            f11 = w - abs(w) ** q * w - n1 * v11 / (t + c11 * h)
            u_new = u + h * (0.0 + b0 * v + b1 * v1 + b2 * v2 + b3 * v3
                             + b4 * v4 + b5 * v5 + b6 * v6 + b7 * v7 + b8 * v8
                             + b9 * v9 + b10 * v10 + b11 * v11)
            v_new = v + h * (0.0 + b0 * f + b1 * f1 + b2 * f2 + b3 * f3
                             + b4 * f4 + b5 * f5 + b6 * f6 + b7 * f7 + b8 * f8
                             + b9 * f9 + b10 * f10 + b11 * f11)
            f_new = u_new - abs(u_new) ** q * u_new - n1 * v_new / (t + h)
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            xu = (0.0 + e5_0 * v + e5_1 * v1 + e5_2 * v2 + e5_3 * v3
                  + e5_4 * v4 + e5_5 * v5 + e5_6 * v6 + e5_7 * v7 + e5_8 * v8
                  + e5_9 * v9 + e5_10 * v10 + e5_11 * v11 + e5_12 * v_new) / su
            xv = (0.0 + e5_0 * f + e5_1 * f1 + e5_2 * f2 + e5_3 * f3
                  + e5_4 * f4 + e5_5 * f5 + e5_6 * f6 + e5_7 * f7 + e5_8 * f8
                  + e5_9 * f9 + e5_10 * f10 + e5_11 * f11 + e5_12 * f_new) / sv
            e5 = xu * xu + xv * xv
            xu = (0.0 + e3_0 * v + e3_1 * v1 + e3_2 * v2 + e3_3 * v3
                  + e3_4 * v4 + e3_5 * v5 + e3_6 * v6 + e3_7 * v7 + e3_8 * v8
                  + e3_9 * v9 + e3_10 * v10 + e3_11 * v11 + e3_12 * v_new) / su
            xv = (0.0 + e3_0 * f + e3_1 * f1 + e3_2 * f2 + e3_3 * f3
                  + e3_4 * f4 + e3_5 * f5 + e3_6 * f6 + e3_7 * f7 + e3_8 * f8
                  + e3_9 * f9 + e3_10 * f10 + e3_11 * f11 + e3_12 * f_new) / sv
            e3 = xu * xu + xv * xv
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
        t, u, v, f = t_new, u_new, v_new, f_new
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


def _shot_splice(params: ProblemParams):
    """The bisected shot as (U(0), its cubic Hermite interpolant, the splice
    point, the tail constant c there).

    The shot's error grows like e^{2r} relative to U and reaches the size of
    U at the end event, in the shot's last step; the tail is spliced on one
    unit of r before the last point reached, and c = U r^{(N-1)/2} e^r there.
    Between its steps the shot is the cubic Hermite interpolant of U and U'.
    """
    p, dim = params.p, params.dim
    s, path = _shoot_ground_state(p, dim)
    t, u, v = np.array(path).T
    shot_u = CubicHermite(t, u, v)
    r_splice = min(12.0, t[-1] - 1.0)
    u_sp = float(shot_u(r_splice))
    c_sp = u_sp * r_splice ** ((dim - 1) / 2.0) * np.exp(r_splice)
    return s, shot_u, r_splice, c_sp


def _shooting_guess(params: ProblemParams, r: np.ndarray,
                    splice) -> np.ndarray:
    """Shot profile on the increasing grid r spliced onto the decay tail
    c r^{-(N-1)/2} e^{-r}, from splice (_shot_splice): the series below
    SHOT_START, the shot up to the splice point and the tail past it, each
    on its slice of r."""
    p, dim = params.p, params.dim
    s, shot_u, r_splice, c_sp = splice
    vals = np.empty_like(r)
    shot = np.searchsorted(r, SHOT_START)  # the first r >= SHOT_START
    tail = np.searchsorted(r, r_splice, side="right")  # the first r > r_splice
    vals[:shot] = _series(p, dim, s, r[:shot])[0]
    vals[shot:tail] = shot_u(r[shot:tail])
    vals[tail:] = c_sp * r[tail:] ** (-(dim - 1) / 2.0) * np.exp(-r[tail:])
    return vals


def solve_ground_state(params: ProblemParams, r_max: float | None = None,
                       spacing: float = 1.0 / 600.0) -> GroundState:
    """Compute the radial ground state profile and its derived constants.

    The grid is [0, r_max]; by default RADIUS_MAX for N = 1, and for N >= 2
    RADIUS_MIN where the tail identity's c(r) (decay_constant) is flat there
    to TAIL_SPREAD_TOL, else RADIUS_MAX, where a larger spread raises
    TailNotResolved. The profile's last node is the radius used.

    A profile that is not strictly decreasing raises NoConvergence, and a
    decay plateau that the grid does not resolve TailNotResolved
    (decay_constant), both before sigma0 is taken. For N >= 2 the
    Newton-polished profile carries defect-correction estimates of the
    relative errors of sigma0 and frak_c, and it is accepted only if the
    estimate for sigma0 is at most SIGMA0_RTOL; otherwise NoConvergence is
    raised. An N >= 2 linearization L+ whose condition estimate exceeds
    radial.COND_LIMIT raises SingularOperator, before the estimates.
    """
    if params.dim == 1:
        r = radial.uniform_grid(RADIUS_MAX if r_max is None else r_max,
                                spacing)
        u, du, d2u = closed_form_soliton(params.p)
        profile = RadialProfile(r, u(r), du(r), tail_rate=-1.0)
        gs = GroundState(params, profile, 0.0, 0.0, u, du, d2u)
        _require_decreasing(profile.values)
        gs.frak_c = decay_constant(gs)
        gs.sigma0 = mass_sigma0(gs)
        return gs
    # refuse a bad extent before the shots: no default grid is shorter
    radial.grid_intervals(RADIUS_MIN if r_max is None else r_max, spacing)
    splice = _shot_splice(params)
    if r_max is not None:
        return _polished_ground_state(params, r_max, spacing, splice)
    try:
        return _polished_ground_state(params, RADIUS_MIN, spacing, splice,
                                      TAIL_SPREAD_TOL)
    except TailNotResolved:
        return _polished_ground_state(params, RADIUS_MAX, spacing, splice,
                                      TAIL_SPREAD_TOL)


def _polished_ground_state(params: ProblemParams, radius: float,
                           spacing: float, splice, limit: float = 1.0
                           ) -> GroundState:
    """Guess from splice (_shot_splice) and Newton polish on [0, radius],
    frak_c, sigma0 and the error estimates; NoConvergence above
    SIGMA0_RTOL, TailNotResolved above a spread limit of c(r).

    Defect correction: the sixth-order residual R6 of the grid solution is,
    to leading order, that of the differential equation, so one solve with
    the Jacobian at U, e = -J^{-1} R6, estimates the distance to the exact
    U. ∫ U e is the first-order change of sigma0, and frak_c of U + e, by
    the same tail identity, that of frak_c.

    J = L+ comes back from radial_newton written from Newton's L[1] into
    the work array Newton stepped in, and is factorised here, once, outside
    the Newton call; the factors stay on the ground state (gs.lplus) for
    linearization, so correction_profile solves with them. Their condition
    estimate is taken here, with R6 riding in its first block solve, so a
    near-singular L+ raises SingularOperator before e is read.
    """
    r = radial.uniform_grid(radius, spacing)
    vals = _shooting_guess(params, r, splice)
    vals, band = radial.radial_newton(r, params.dim, params.p, vals)
    gs = GroundState(params, RadialProfile(
        r, vals, radial.d1_six(vals, r[1] - r[0]), tail_rate=-1.0), 0.0, 0.0)
    _require_decreasing(vals)
    identity = _tail_identity(r, params.dim, params.p)
    gs.frak_c = _plateau_median(identity(vals), r[-1], limit)
    gs.lplus = radial.factorise(band)
    gs.sigma0 = mass_sigma0(gs)
    res = _ode_residual(params, r, vals, gs.profile.dvalues)
    res[~np.isfinite(res)] = 0.0
    gs.lplus.condition(res)  # res becomes J^{-1} R6
    e = -res
    gs.sigma0_rel_err = abs(float(radial.radial_quadrature(
        r, vals * e, params.dim, tail_decay=2.0))) / gs.sigma0
    if not gs.sigma0_rel_err <= SIGMA0_RTOL:
        raise NoConvergence(f"ground-state sigma0 error estimate "
                            f"{gs.sigma0_rel_err:.2e} above {SIGMA0_RTOL:.0e}")
    corrected = median(identity(vals + e))
    gs.frak_c_rel_err = abs(corrected - gs.frak_c) / gs.frak_c
    return gs


def _require_decreasing(values: np.ndarray) -> None:
    """NoConvergence unless the profile values strictly decrease."""
    if np.any(np.diff(values) >= 0):
        raise NoConvergence("computed profile is not strictly decreasing")


def _ode_residual(params: ProblemParams, r: np.ndarray, vals: np.ndarray,
                  d1: np.ndarray | None = None) -> np.ndarray:
    """Sixth-order residual of -U'' - (N-1)/r U' + U - |U|^{p-1} U; d1,
    radial.d1_six(vals, h), may be passed in where it is formed already."""
    if d1 is None:
        d1 = radial.d1_six(vals, r[1] - r[0])
    return radial._ode_residual(r, vals, d1, params.dim, np.ones_like(r),
                                np.abs(vals) ** (params.p - 1) * vals)


def ode_residual_max(gs: GroundState) -> float:
    """Max-norm ODE residual over interior nodes, via an independent evaluator.

    The closed-form N = 1 profile substitutes the analytic second
    derivative; the Newton-polished N >= 2 profile uses sixth-order
    differences of its grid values (radial.residual_max). A
    diagnostic only: its rounding part grows as h^{-2}, so the N >= 2 gate
    is the error estimate of sigma0.
    """
    prof = gs.profile
    r = prof.nodes
    if gs.d2u_exact is not None:
        res = -gs.d2u_exact(r) + prof.values - np.abs(prof.values) ** gs.params.p
        return float(np.max(np.abs(res)))
    return radial.residual_max(_ode_residual(gs.params, r, prof.values))


def mass_sigma0(gs: GroundState, rule: str = "simpson") -> float:
    """sigma0 with 2*sigma0 = ∫_{R^N} U^2, by radial quadrature + tail."""
    prof = gs.profile
    total = radial.radial_quadrature(prof.nodes, prof.values ** 2,
                                     gs.params.dim, tail_decay=2.0, rule=rule)
    return 0.5 * total


def mass_moment(gs: GroundState, k: int) -> float:
    """∫_{R^N} |y|^{2k} U^2, by radial quadrature + tail; computed once per
    ground state and k, then read from gs.moments. k must be a
    non-negative integer, else ValueError."""
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"moment order k must be a non-negative integer, "
                         f"got {k!r}")
    if k not in gs.moments:
        prof = gs.profile
        gs.moments[k] = radial.radial_quadrature(
            prof.nodes, prof.nodes ** (2 * k) * prof.values ** 2,
            gs.params.dim, tail_decay=2.0)
    return gs.moments[k]


def linearization(gs: GroundState) -> radial.BandLU:
    """The LU factors of L+ = L[1 - p U^{p-1}] at the profile, with the
    ground state's decay row (radial.radial_operator's), formed once
    per ground state and then read from gs.lplus: an N >= 2 state gets
    them from its Newton polish, any other state forms L+ from an L[1]
    assembled on first use (radial.lplus_band), bit for bit as Newton
    does."""
    if gs.lplus is None:
        prof = gs.profile
        gs.lplus = radial.factorise(radial.lplus_band(
            prof.nodes, gs.params.dim, gs.params.p, prof.values))
    return gs.lplus


def decay_constant(gs: GroundState) -> float:
    """frak_c, the median of the tail identity's c(r) over the outer third
    of the grid (_tail_identity).

    A grid shorter than 12, or with fewer than 8 nodes in its outer third,
    a median that is not positive, or a spread (max - min)/median of c(r)
    above 1, no plateau at all, raise TailNotResolved; a spread above
    DECAY_SPREAD_TOL warns.
    """
    r = gs.profile.nodes
    identity = _tail_identity(r, gs.params.dim, gs.params.p)
    return _plateau_median(identity(gs.profile.values), r[-1])


def _plateau_median(g: np.ndarray, radius: float, limit: float = 1.0
                    ) -> float:
    """decay_constant's median of c(r) = g and its checks, with the spread
    refused above limit (TAIL_SPREAD_TOL at the default N >= 2 radius)."""
    c = median(g)
    if c <= 0 or not np.isfinite(c):
        raise TailNotResolved("decay plateau is not positive")
    spread = float((np.max(g) - np.min(g)) / c)
    if spread > limit:
        raise TailNotResolved(f"decay plateau spread {spread:.2e} at r_max = "
                              f"{radius:g} above {limit:.0e}")
    if spread > DECAY_SPREAD_TOL:
        warnings.warn(f"decay plateau spread {spread:.2e} exceeds "
                      f"{DECAY_SPREAD_TOL:.0e}", stacklevel=3)
    return c


def _integrals_to_end(f: np.ndarray, h: float) -> np.ndarray:
    """∫_{r_j}^{r_n} f at nodes 1 to n of f sampled h apart: each interval
    by the cubic through the four nodes about it (the last four for the
    last), summed from the end."""
    seg = np.zeros(len(f) - 1)
    seg[:-2] = 13.0 * (f[1:-2] + f[2:-1]) - f[:-3] - f[3:]
    seg[-2] = f[-4] - 5.0 * f[-3] + 19.0 * f[-2] + 9.0 * f[-1]
    return np.cumsum(seg[::-1])[::-1] * (h / 24.0)


def _tail_identity(r: np.ndarray, dim: int, p: float):
    """The map U -> frak_c(r) over the outer third of r, by variation of
    parameters; the window's factors are formed once, here. A grid too
    short for a plateau raises TailNotResolved. It is taken on every
    stride-th node back from R, stride = TAIL_STEP/h rounded (4 at the
    default h = 1/600): the integrands vary on the scale of 1/(p + 1), and
    frak_c moves by at most 6e-15 against every node, at a quarter of
    the work.

    With k = r^{-(N-1)/2} e^{-r} S_K and i = r^{-(N-1)/2} e^{r} S_I, the
    multiples of r^{-nu} K_nu and r^{-nu} I_nu (nu = (N-2)/2) whose
    Wronskian k i' - k' i is 2 r^{1-N}, every solution of -U'' - (N-1)/r U'
    + U = U^p that decays has

        frak_c(r) = U/k + (B(r) - (i/k) A(r)) / 2,
        A(r) = ∫_r^∞ k U^p s^{N-1} ds,  B(r) = ∫_r^∞ i U^p s^{N-1} ds,

    the same at every r, equal to lim r^{(N-1)/2} e^r U(r). A growing part
    d i that the truncation at R leaves in U adds d i/k, which grows as
    e^{2r} over the window: the spread shows it, and the median, where i/k
    is about e^{-R/3} of its value at R, lies 150 to 1000 times closer to
    the constant on the pairs measured (tests/test_groundstate.py).

    S_K is the K_nu tail series (radial.decay_series) and S_I e^{-r}
    I_nu's, the same terms with alternating signs (DLMF 10.40.1), both
    from radial._decay_s; i may differ from the growing solution by a
    multiple of k, which leaves frak_c(r) unchanged. A and B take the
    stride's nodes from r to R (_integrals_to_end) and, past R, the linear
    tail U(R) k(s)/k(R) of the Robin row, on which the integrands are
    e^{-(p+1)(s-R)} and e^{-(p-1)(s-R)} times a slowly varying factor:
    TAIL_NODES-point Gauss-Laguerre.
    """
    start = int(np.searchsorted(r, (2.0 / 3.0) * r[-1]))
    if r[-1] < 12.0 or len(r) - start < 8:
        raise TailNotResolved("grid too short to resolve the decay plateau")
    h = r[1] - r[0]
    stride = max(1, round(TAIL_STEP / h))
    # every stride-th node back from R, and one before the window
    sub = slice(len(r) - 1 - stride * ((len(r) - 1 - start) // stride + 1),
                None, stride)
    # Gauss-Laguerre by Golub-Welsch: the Laguerre Jacobi matrix's eigenpairs
    k = np.arange(1.0, TAIL_NODES)
    x, v = np.linalg.eigh(np.diag(2.0 * np.arange(TAIL_NODES) + 1.0)
                          + np.diag(k, 1) + np.diag(k, -1))
    w = v[0] ** 2
    rs, R, m = r[sub], r[-1], dim - 1.0
    n = len(rs)
    s = np.concatenate([rs, R + x / (p + 1.0), R + x / (p - 1.0)])
    area = s ** m  # s^{N-1}
    sk, si = (radial._decay_s(s, dim, sign) / np.sqrt(area)
              for sign in (1.0, -1.0))
    grow = np.exp(s[:n])
    lift, ratio = grow / sk[:n], grow * grow * si[:n] / sk[:n]
    fa, fb = sk[:n] / grow * area[:n], si[:n] * grow * area[:n]
    ta, tb = slice(n, n + len(x)), slice(n + len(x), None)
    tail_a = math.exp(-R) / (p + 1.0) * np.sum(w * sk[ta] ** (p + 1.0)
                                               * area[ta])
    tail_b = math.exp(R) / (p - 1.0) * np.sum(w * si[tb] * sk[tb] ** p
                                              * area[tb])

    def frak_c(vals):
        u = vals[sub]
        up = np.abs(u) ** (p - 1.0) * u
        tail = abs(u[-1] / sk[n - 1]) ** p
        a = _integrals_to_end(fa * up, stride * h) + tail_a * tail
        b = _integrals_to_end(fb * up, stride * h) + tail_b * tail
        return u[1:] * lift[1:] + 0.5 * (b - ratio[1:] * a)
    return frak_c


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
