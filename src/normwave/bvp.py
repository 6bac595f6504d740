"""Direct solver for the singularly perturbed problem with prescribed mass.

Fixed-frequency form (unknown u, fourth-order Numerov rows):

    -eps^2 u'' + (eps^2 V(x) + 1) u = u^p,

on an interval with Dirichlet/Neumann conditions, or on the truncated real
line with decay rows. The mass of a solution is

    mass = eps^{-4/(p-1)} ∫ u^2 = ∫ v^2,      v = eps^{-2/(p-1)} u,

and (lambda, v) with lambda = eps^{-2} solves -v'' + (V + lambda) v = v^p.

``solve_normalized`` starts at the eps where the regime's leading-order law
for the mass, taken from its eps -> 0 anchor, gives rho (on the line with
a potential the anchor is a moment of the ground state), brackets
mass(eps) = rho with a first step along the local slope dm/deps (one linear
solve with the Jacobian at the first solution, the implicit-function step),
secant steps once two masses lie on one side of rho, then runs Brent (on
log eps) until the mass is within tolerance of rho. Each mass comes from one
solve, warm-started from the previous bump rescaled to the new eps: the
Numerov rows and Simpson's rule on the uniform grid make it fourth order in
h, and the default spacing eps/80 (at least MIN_NODES panels) keeps its
error at or below that of a second-order Richardson pair at eps/60 and
eps/120. The real line is cut at L = REALLINE_WIDTHS eps-widths.

Real-line potentials are even polynomials, so those solves exploit evenness:
the half-line [0, L] is discretized with a symmetric row at 0 and a decay
row at L, removing the translational near-kernel of the whole-line problem.
A symmetric interval solve runs on the right half likewise. Such a solve
forms its start, and checks its profile, on the half alone; the profile is
mirrored onto the whole grid for the mass and the returned solution.
An interior solve starts from the bump at the centre of its domain.
Endpoint concentration on a Neumann interval starts from the bump at b and
is solved on the interval's own grid, with Neumann rows at both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _lapack
from ._constants import DIRICHLET, NEUMANN, THETA_RATE_CONSTANT
from ._numerics import brentq, simpson
from .errors import (BracketFailed, NewtonDiverged, NonPositive,
                     NoSolutionInRegime)
from .groundstate import (GroundState, ProblemParams, Regime,
                          closed_form_soliton, mass_moment, solve_ground_state)

__all__ = [
    "DomainSpec",
    "NormalizedSolution",
    "assemble_residual",
    "solve_fixed_epsilon",
    "solve_normalized",
    "trace_branch",
    "MassEvaluator",
]

DECAY = "decay"

NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 200
NEWTON_MAX_BACKTRACK = 40
POINTS_PER_WIDTH = 80
MIN_POINTS_PER_WIDTH = 10
MIN_NODES = 2640
# the real line is truncated at this many eps-widths: e^-20 of the peak,
# so the mass tail beyond it is at e^-40
REALLINE_WIDTHS = 20.0
# eps^{-4/(p-1)}, the factor from ∫u^2 to the mass, stays below 1e300
MAX_LOG_MASS_SCALE = 300.0 * math.log(10.0)


@dataclass(frozen=True)
class DomainSpec:
    """Interval (a, b) with boundary condition, or truncated real line.

    potential: finite coefficients (a1, a2, ...) of the even polynomial
    V(x) = a1 x^2 + a2 x^4 + ...; only allowed on the real line, which
    takes no bc and keeps the default a, b.
    """

    kind: str  # "interval" | "realline"
    a: float = -1.0
    b: float = 1.0
    bc: Optional[str] = None
    potential: tuple = ()

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in (self.a, self.b, *self.potential)):
            raise ValueError("domain ends and potential coefficients must be finite")
        if self.kind == "interval":
            if self.bc not in (DIRICHLET, NEUMANN):
                raise ValueError("interval requires dirichlet or neumann bc")
            if self.potential:
                raise ValueError("potential is only supported on the real line")
            if not self.b > self.a:
                raise ValueError("empty interval")
        elif self.kind == "realline":
            if self.bc is not None:
                raise ValueError("real line uses decay conditions, bc must be None")
            if (self.a, self.b) != (DomainSpec.a, DomainSpec.b):
                raise ValueError("the real line takes no ends a, b")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    def V(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, coef in enumerate(self.potential, start=1):
            out += coef * x ** (2 * k)
        return out


@dataclass
class NormalizedSolution:
    spec: DomainSpec
    params: ProblemParams
    lambda_: float
    epsilon: float
    nodes: np.ndarray
    v_values: np.ndarray
    u_values: np.ndarray
    mass: float
    residual_inf: float
    concentration_point: float
    newton_iterations: int = 0


# -- grids and discrete rows ------------------------------------------------------

def _realline_halfwidth(eps: float) -> float:
    """Half-width L of the truncated real line: 10 at eps = 0.5."""
    return REALLINE_WIDTHS * eps


def _grid(spec: DomainSpec, eps: float, n_override: Optional[int]) -> np.ndarray:
    """Solver grid: the interval with an even panel count, or [-L, L]
    mirrored from [0, L] with an even panel count on each half, L being
    REALLINE_WIDTHS eps-widths.

    n_override counts panels over the whole interval or [-L, L]; fewer than
    MIN_POINTS_PER_WIDTH per eps-width raise ValueError.
    """
    if spec.kind == "interval":
        a, b = spec.a, spec.b
        n = math.ceil(POINTS_PER_WIDTH * (b - a) / eps)
    else:
        b = _realline_halfwidth(eps)
        a = -b
        # whole eps-widths: (b - a)/eps in floating point can read an ulp
        # above 40, which ceil would pad to 3204 panels
        n = POINTS_PER_WIDTH * 2 * round(b / eps)
    if n_override is None:
        n = max(MIN_NODES, n)
    else:
        n = int(n_override)
        if n * eps < MIN_POINTS_PER_WIDTH * (b - a):
            raise ValueError(f"grid of {n} panels resolves eps = {eps:.6g} with "
                             f"fewer than {MIN_POINTS_PER_WIDTH} nodes per eps-width")
    n += n % 2
    if spec.kind == "interval":
        return np.linspace(a, b, n + 1)
    nh = n // 2 + (n // 2) % 2
    half = np.linspace(0.0, b, nh + 1)
    return np.concatenate([-half[::-1], half[1:]])


def _rows(u, power, a, b, d, h, eps, left, right):
    """Numerov rows -a δ²u + (g₋ + 10 g + g₊)/12, g = b u - d |u|^{p-1} u,
    δ²u the second difference, power the array |u|^{p-1}; fourth order
    in h.

    Boundary row kinds: DIRICHLET value rows u; NEUMANN rows with the ghost
    u_{-1} = u_1; DECAY rows with the ghost u_{-1} = u_1 - 2h u_0/eps, i.e.
    u' = u/eps at a real-line truncation (mirrored on the right). Both
    ghosts take g_{-1} = g_1; at a truncation, e^-20 of the peak, the
    mirror costs nothing.
    """
    g = b * u - d * power * u
    r = np.empty_like(u)
    lap = u[:-2] - 2 * u[1:-1]
    lap += u[2:]
    lap *= -a
    gsum = 10.0 * g[1:-1]
    gsum += g[:-2]
    gsum += g[2:]
    gsum /= 12.0
    np.add(lap, gsum, out=r[1:-1])
    for side, i, j in ((left, 0, 1), (right, -1, -2)):
        if side == DIRICHLET:
            r[i] = u[i]
        else:
            ghost = 2 * h * u[i] / eps if side == DECAY else 0.0
            r[i] = -a * (2 * u[j] - 2 * u[i] - ghost) \
                + (2.0 * g[j] + 10.0 * g[i]) / 12.0
    return r


def _rows_jacobian(power, a, b, d, p, h, eps, left, right):
    """Jacobian of _rows at the iterate whose |u|^{p-1} is power, in
    (1, 1) banded storage: ab[0, 1:] the upper, ab[1] the main and
    ab[2, :-1] the lower diagonal (ab[0, 0] = ab[2, -1] = 0). Every
    off-diagonal entry in column j is -a + g'_j/12 (twice that at a ghost
    row)."""
    dg = b - d * p * power
    dg12 = dg / 12.0
    ab = np.empty((3, len(dg)))
    np.subtract(dg12[1:], a, out=ab[0, 1:])
    np.multiply(10.0, dg, out=ab[1])
    ab[1] /= 12.0
    ab[1] += 2.0 * a
    np.subtract(dg12[:-1], a, out=ab[2, :-1])
    ab[0, 0] = ab[2, -1] = 0.0
    for side, i, off in ((left, 0, (0, 1)), (right, -1, (2, -2))):
        if side == DIRICHLET:
            ab[1, i] = 1.0
            ab[off] = 0.0
        else:
            ab[off] *= 2.0
            if side == DECAY:
                ab[1, i] += 2.0 * a * h / eps
    return ab


def assemble_residual(spec: DomainSpec, params: ProblemParams, epsilon: float,
                      x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Numerov residual of the fixed-frequency equation: the rows of
    _rows that Newton solves, unscaled.

    Boundary rows: Dirichlet value rows; Neumann ghost-point PDE rows;
    decay ghost rows u' + u/eps = 0 at a real-line truncation.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    h = x[1] - x[0]
    lin = epsilon ** 2 * spec.V(x) + 1.0
    side = spec.bc or DECAY
    return _rows(u, np.abs(u) ** (params.p - 1), epsilon ** 2 / h ** 2, lin,
                 1.0, h, epsilon, side, side)


# -- damped Newton on the row-scaled system --------------------------------------

def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system held in (1, 1) banded storage with LAPACK
    dgtsv, from numpy's bundled OpenBLAS (normwave._lapack). ab and rhs are
    overwritten. Non-finite input raises ValueError, a singular pivot
    LinAlgError."""
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = _lapack.gtsv(ab, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _newton(x: np.ndarray, u0: np.ndarray, eps: float, p: float,
            Vx: np.ndarray, left: str, right: str
            ) -> tuple[np.ndarray, int, float]:
    """Damped Newton on _rows scaled by h^2/eps^2, so the tolerance is
    meaningful in units of u. Returns u, the iteration count and max |F(u)|
    divided by h^2/eps^2: the unscaled residual of assemble_residual.

    Each iterate's |u|^{p-1} is formed once: with its rows, and kept for
    its Jacobian once the iterate is accepted. The step t d is accepted
    when max |F(u + t d)| <= (1 - t/4) max |F(u)|, t halved from 1."""
    h = x[1] - x[0]
    s = h * h / (eps * eps)
    w = s * (eps * eps * Vx + 1.0)

    def F(u):
        """F(u), |u| and |u|^{p-1}."""
        au = np.abs(u)
        power = au ** (p - 1)
        return _rows(u, power, 1.0, w, s, h, eps, left, right), au, power

    def direction(power, r):
        return solve_banded(
            _rows_jacobian(power, 1.0, w, s, p, h, eps, left, right), -r)

    converged = False
    u = u0.copy()
    r, au, power = F(u)
    scale = max(1.0, au.max())  # max(1, max |u|) at the iterate u
    for it in range(NEWTON_MAX_ITER):
        rn = np.abs(r).max()
        if not math.isfinite(rn):
            raise NewtonDiverged("residual is not finite")
        if converged or rn < 1e-15 * scale:
            return u, it, rn / s
        if rn < NEWTON_TOL * scale:
            converged = True  # one full polish step to the rounding floor
            u = u + direction(power, r)
            r, au, power = F(u)
            scale = max(1.0, au.max())
            continue
        d = direction(power, r)
        t = 1.0
        for _ in range(NEWTON_MAX_BACKTRACK):
            step = d if t == 1.0 else t * d
            trial = u + step
            rt, au, trial_power = F(trial)
            # rn is finite, so a non-finite rt fails the test
            if np.abs(rt).max() <= rn * (1 - 0.25 * t):
                break
            t *= 0.5
        else:
            if rn < 1e-9 * scale:
                return u, it, rn / s  # stagnated at the rounding floor
            raise NewtonDiverged("backtracking budget exhausted")
        u, r, power = trial, rt, trial_power
        scale = max(1.0, au.max())
        if np.abs(step).max() < 1e-15 * scale:
            rn = np.abs(r).max()
            if rn < 1e-9 * scale:
                return u, it, rn / s
            raise NewtonDiverged("step collapsed before convergence")
    raise NewtonDiverged(f"no convergence in {NEWTON_MAX_ITER} iterations")


def _package(spec, params, eps, x, solved, iters, residual,
             mirrored) -> NormalizedSolution:
    """The solution on the grid x from solved, the array Newton solved:
    the whole profile, or (mirrored) its right half from the centre, which
    is mirrored onto x. The checks run on solved. A profile that is not
    positive at the interior nodes, or whose peak is below 1/2 (the trivial
    solution u = 0), raises NonPositive. One whose differences change sign
    more than once, ignoring those below 1e-12 of max |u|, raises
    NewtonDiverged: the mirror of a half with c changes has 2c + 1, so
    there the half may have none. The mass is eps^{-4/(p-1)} ∫u^2 by
    composite Simpson over the uniform x, whose panel count is even; on a
    mirrored profile whose half has an even panel count too, it is summed
    over the half."""
    u = np.concatenate([solved[::-1], solved[1:]]) if mirrored else solved
    umax, umin = solved.max(), solved.min()
    # the Dirichlet value rows: both ends of solved, or a half's far end
    interior = (solved[0 if mirrored else 1:-1] if spec.bc == DIRICHLET
                else solved)
    umax_abs = float(max(umax, -umin))
    # tolerate rounding dust in the truncation tail, catch real crossings
    floor = 1e-12 * umax_abs
    if umax <= 0 or interior.min() < -floor:
        raise NonPositive("solution is not positive at interior nodes")
    # at the peak of a positive solution u'' <= 0 and V = 0, so u^{p-1} >= 1
    if umax < 0.5:
        raise NonPositive(f"Newton fell onto the trivial solution u = 0 "
                          f"(max u = {umax:.3g})")
    du = solved[1:] - solved[:-1]
    signs = np.sign(du[np.abs(du) > floor])
    if np.count_nonzero(signs[1:] - signs[:-1]) > (0 if mirrored else 1):
        raise NewtonDiverged("converged profile is not single-peaked")
    p = params.p
    h = (x[-1] - x[0]) / (len(x) - 1)
    if mirrored and len(solved) % 2:
        # the half has an even panel count: the mirror's Simpson sum is twice
        # the half's, whose centre weight 1 doubles to the full grid's 2
        integral = 2.0 * simpson(solved * solved, h)
    else:
        integral = simpson(u * u, h)
    return NormalizedSolution(
        spec=spec, params=params, lambda_=eps ** -2.0, epsilon=eps,
        nodes=x, v_values=eps ** (-2.0 / (p - 1.0)) * u, u_values=u,
        mass=eps ** (-4.0 / (p - 1.0)) * integral,
        residual_inf=float(residual),
        concentration_point=float(x[u.argmax()]),
        newton_iterations=iters)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 0.5]")


def solve_fixed_epsilon(spec: DomainSpec, params: ProblemParams, epsilon: float,
                        init: str = "interior",
                        u0: Optional[np.ndarray] = None,
                        n_override: Optional[int] = None, *,
                        _warm: Optional[NormalizedSolution] = None
                        ) -> NormalizedSolution:
    """Damped-Newton solve at fixed eps from u0 (on the solver grid) or,
    without u0, from the ansatz that init selects: "interior" (bump at the
    centre of the interval, 0 on the real line) or "endpoint" (Neumann,
    bump at b). A u0 that is not symmetric about the centre, and the
    endpoint bump, are solved on the whole grid; any other start on its
    right half. u0 with "endpoint" raises ValueError before any solve.
    n_override counts panels on spec's interval. An eps whose mass scale
    eps^{-4/(p-1)} exceeds 1e300 raises ValueError. Newton failing raises
    NewtonDiverged; a profile that crosses zero, or falls onto the trivial
    solution u = 0, raises NonPositive.

    _warm, in place of the ansatz, is MassEvaluator's start: that
    solution's bump rescaled to the width eps about the centre.
    """
    if params.dim != 1:
        raise ValueError("the direct solver is one-dimensional")
    _check_epsilon(epsilon)
    if -4.0 / (params.p - 1.0) * math.log(epsilon) > MAX_LOG_MASS_SCALE:
        raise ValueError(f"the mass scale eps^(-4/(p-1)) exceeds 1e300 at "
                         f"eps = {epsilon:.6g}, p = {params.p:.6g}")
    if init not in ("interior", "endpoint"):
        raise ValueError(f"init must be 'interior' or 'endpoint' (got {init!r})")
    endpoint = init == "endpoint"
    if u0 is not None and endpoint:
        raise ValueError("u0 cannot be combined with init='endpoint'")
    if endpoint and spec.kind != "interval":
        raise ValueError("endpoint concentration needs a bounded interval")
    if endpoint and spec.bc != NEUMANN:
        raise ValueError("endpoint concentration requires Neumann conditions")
    p = params.p

    x = _grid(spec, epsilon, n_override)
    n = len(x) - 1
    side = spec.bc or DECAY
    if endpoint:
        u0 = closed_form_soliton(p)[0]((x - spec.b) / epsilon)
    # a symmetric profile is solved on the right half xh with a symmetry
    # row at the centre, which removes the exponentially weak translation
    # mode exactly; its start is formed on xh alone
    xh = x[n // 2:]
    centre = 0.5 * (x[0] + x[-1])  # 0.0 on (-1, 1) and the real line
    if u0 is not None:
        if len(u0) != n + 1:
            raise ValueError(f"u0 must hold the {n + 1} solver grid values")
        guess = np.asarray(u0, dtype=float)
        if spec.kind == "realline":
            start = guess[n // 2:]
        else:
            scale = max(1.0, float(np.abs(guess).max()))
            if endpoint or not (np.abs(guess - guess[::-1])
                                <= 1e-9 * scale).all():
                u, iters, residual = _newton(x, guess, epsilon, p, spec.V(x),
                                             side, side)
                return _package(spec, params, epsilon, x, u, iters, residual,
                                mirrored=False)
            start = 0.5 * (guess[n // 2:] + guess[n // 2::-1])
    else:
        if _warm is None:
            start = closed_form_soliton(p)[0]((xh - centre) / epsilon)
        else:
            ratio = _warm.epsilon / epsilon
            start = np.interp(centre + (xh - centre) * ratio, _warm.nodes,
                              _warm.u_values)
        if spec.bc == DIRICHLET:
            start[-1] = 0.0
    uh, iters, residual = _newton(xh, start, epsilon, p, spec.V(xh), NEUMANN,
                                  side)
    return _package(spec, params, epsilon, x, uh, iters, residual,
                    mirrored=True)


WARM_RANGE = (0.8, 1.25)  # warm starts only within this factor of eps


def trace_branch(spec: DomainSpec, params: ProblemParams,
                 epsilon_list: Sequence[float]
                 ) -> list[tuple[float, float, float]]:
    """Continuation along a decreasing eps list: each solve is a
    MassEvaluator's, warm-started from the previous one by its rule. Every
    eps is checked before the first solve, and an empty list raises
    ValueError."""
    eps_list = list(epsilon_list)
    if not eps_list:
        raise ValueError("epsilon list must not be empty")
    for eps in eps_list:
        _check_epsilon(eps)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    evaluate = MassEvaluator(spec, params)
    out = []
    for eps in eps_list:
        try:
            sol = evaluate.solution(eps)
        except (NewtonDiverged, NonPositive) as exc:
            raise type(exc)(f"{exc} (at eps = {eps:.6g})") from exc
        out.append((eps, sol.mass, sol.residual_inf))
    return out


# -- normalized solve ------------------------------------------------------------

EPS_START = 0.5  # largest eps of the root-find, and its start without a law
EPS_MIN = 0.05  # default smallest eps of the root-find
MASS_RTOL = 5e-8  # stop at |mass - rho| <= MASS_RTOL * rho
TRACE_RATIO = 0.82  # step down where the law cannot say
MAX_BRACKET_STEPS = 16  # 0.5 * 0.82^12 is below EPS_MIN
# a returned profile with max - min below this fraction of max is constant
FLAT_RTOL = 1e-9
# stop also at |mass - rho| <= CRITICAL_STOP * |rho - origin|, which binds
# only at p = 1 + 4/N, where the law's origin is 2 sigma0, not 0
CRITICAL_STOP = 1e-3
# but never below STOP_FLOOR * MASS_RTOL * rho: at rho = 2 sigma0 the
# critical stop is 0, and the floor (1.4e-10 there at p = 5) lies below
# the mass error of one solve
STOP_FLOOR = 1e-3


class MassEvaluator:
    """mass(eps) of one solve on the default grid, kept with its solution.
    slope(eps) gives d mass/d eps at a solved eps.

    Each solve is warm-started from the previous one, prev, rescaled to the
    width eps about the centre c of the domain, u(x) = prev.u(c + (x - c)
    prev.eps/eps) (node to node on the line, whose grid scales with eps),
    evaluated on the right half that Newton solves, with the Dirichlet end
    set to 0 as in the ansatz. The first solve, and one whose eps is not
    within WARM_RANGE of prev's, starts from the centred ansatz: across a
    longer jump the ansatz is the cheaper start (0.2 -> 0.1, p = 3
    Dirichlet: 1 Newton step, against 2 from the rescaled bump).
    """

    def __init__(self, spec, params):
        self.spec = spec
        self.params = params
        self.warm: Optional[NormalizedSolution] = None
        self.cache: dict[float, NormalizedSolution] = {}

    def __call__(self, eps: float) -> float:
        return self.solution(eps).mass

    def solution(self, eps: float) -> NormalizedSolution:
        if eps not in self.cache:
            warm = self.warm if self.warm is not None and (
                WARM_RANGE[0] <= eps / self.warm.epsilon <= WARM_RANGE[1]
            ) else None
            self.warm = self.cache[eps] = solve_fixed_epsilon(
                self.spec, self.params, eps, _warm=warm)
        return self.cache[eps]

    def slope(self, eps: float) -> float:
        """d mass/d eps at the solved eps, by one solve with the Jacobian of
        its right half: u_eps = -J^{-1} dF/d eps at fixed node values (the
        implicit-function step). On an interval the nodes are fixed and the
        rows scale with s = h^2/eps^2; on the line the nodes scale with eps,
        s and the decay ghost are fixed, and only eps^2 V(x) moves."""
        sol = self.cache[eps]
        spec, p = self.spec, self.params.p
        half = (len(sol.nodes) - 1) // 2
        x, u = sol.nodes[half:], sol.u_values[half:]
        h = x[1] - x[0]
        s = h * h / (eps * eps)
        power = np.abs(u) ** (p - 1)
        side = spec.bc or DECAY
        if spec.kind == "interval":
            dF = (-2.0 / eps) * _rows(u, power, 0.0, s, s, h, eps, NEUMANN,
                                      side)
            if side == DIRICHLET:
                dF[-1] = 0.0
        else:
            # d/d eps of eps^2 V(eps y) is eps (2V + xV'), and 2V + xV' sums
            # (2k + 2) a_k x^2k
            dw = np.zeros_like(x)
            for k, c in enumerate(spec.potential, start=1):
                dw += (2.0 * k + 2.0) * c * x ** (2 * k)
            dF = _rows(u, power, 0.0, s * eps * dw, 0.0, h, eps, NEUMANN,
                       side)
        jac = _rows_jacobian(power, 1.0, s * (eps * eps * spec.V(x) + 1.0), s,
                             p, h, eps, NEUMANN, side)
        u_eps = solve_banded(jac, -dF)
        # 2 ∫u u_eps over both halves, by the trapezoid rule on the right one
        uu = u * u_eps
        integral = 4.0 * h * (uu.sum() - 0.5 * (uu[0] + uu[-1]))
        dmass = (eps ** (-4.0 / (p - 1.0)) * integral
                 - 4.0 * sol.mass / ((p - 1.0) * eps))
        return dmass + sol.mass / eps if spec.kind == "realline" else dmass


@dataclass(frozen=True)
class _MassLaw:
    """The regime's leading-order law for the mass, met with the target rho:
    a straight line of the given slope in coordinates(eps, mass) through
    the anchor (eps, mass) it takes as eps -> 0.

    Off p = 1 + 4/N, mass = 2 sigma0 eps^{N - 4/(p-1)} (origin 0, anchored
    at eps = 1). At p = 1 + 4/N the origin is 2 sigma0, and on an interval
    of half-width d, |mass - 2 sigma0| = 2 THETA_RATE_CONSTANT s e^{-2s},
    s = d/eps (the mass depends on eps/d only; anchored at s = 1); on the
    line 2 sigma0 - mass = k a_k eps^{2k+2} ∫|y|^{2k} U^2, a_k the first
    non-zero coefficient of V (anchored at eps = 1). V = 0 on the line has
    no law: slope and anchor are None.

    side is the sign of mass - origin for every mass: 0.0 where no mass
    but the origin is solvable (V = 0 on the line), None where masses lie
    on both sides (a V of mixed signs: -x^2 + 5x^4 crosses 2 sigma0 near
    eps = 0.2). refusal names the masses by the label masses.
    """

    rho: float
    slope: Optional[float]
    origin: float
    d: Optional[float]  # half-width d of s = d/eps; None: log eps coordinates
    anchor: Optional[tuple[float, float]]
    side: Optional[float]
    masses: str = "masses"

    def coordinates(self, eps: float, mass: float) -> tuple[float, float]:
        """(log eps, log|mass - origin|), or (s, log|mass - origin| - log s)
        on an interval at p = 1 + 4/N."""
        y = math.log(abs(mass - self.origin))
        if self.d is None:
            return math.log(eps), y
        s = self.d / eps
        return s, y - math.log(s)

    def step(self, eps: float, mass: float,
             slope: Optional[float]) -> Optional[float]:
        """The eps at which the straight line of the given slope through
        (eps, mass), in coordinates, reaches rho; None without a slope, or
        when mass and rho lie on opposite sides of the origin."""
        ratio = (self.rho - self.origin) / (mass - self.origin)
        if slope is None or not ratio > 0.0:
            return None
        if self.d is None:
            return eps * ratio ** (1.0 / slope)
        # log ratio - log(s'/s) = slope (s' - s) in s' = d/eps'; the
        # fixed-point map contracts by 1/(|slope| s')
        s = self.d / eps
        c = math.log(ratio) + slope * s + math.log(s)
        for _ in range(60):
            s_next = max((c - math.log(s)) / slope, 1.0)
            if s_next == s:  # a fixed point: the remaining passes keep it
                break
            s = s_next
        return self.d / s

    def start(self) -> float:
        """The eps at which the law reaches rho from its anchor; EPS_START
        where it cannot (no law, or on the line a V of mixed signs whose
        leading law lies on the other side of 2 sigma0 than rho)."""
        step = None if self.anchor is None else self.step(*self.anchor,
                                                           self.slope)
        return EPS_START if step is None else step

    def secant_slope(self, behind: Optional[tuple[float, float]],
                     point: tuple[float, float],
                     dmass: Optional[float] = None) -> Optional[float]:
        """Slope of the next step from point = (eps, mass): the secant
        through behind and point in coordinates or, without behind, the
        local slope dmass = d mass/d eps at point in coordinates, where it
        is within a factor 2 of the law's slope, else the law's slope."""
        if self.slope is None or (behind is None and dmass is None):
            return self.slope
        if behind is not None:
            (x0, y0), (x1, y1) = (self.coordinates(*q)
                                  for q in (behind, point))
            local = (y1 - y0) / (x1 - x0)
        else:
            eps, mass = point
            # d log|mass - origin| / d log eps, or on an interval its
            # d/ds with s = d/eps, less d log s/ds
            local = eps * dmass / (mass - self.origin)
            if self.d is not None:
                local = -(local + 1.0) * eps / self.d
        return local if 0.5 <= local / self.slope <= 2.0 else self.slope

    def refusal(self) -> Optional[str]:
        """Why no mass is rho, when rho is not on the law's side of the
        origin; None when it is, or when masses lie on both sides."""
        if self.side is None or (self.rho - self.origin) * self.side > 0.0:
            return None
        if self.side == 0.0:
            return ("critical scaling on the line with V = 0 is solvable "
                    "only at rho = 2*sigma0")
        return (f"{self.masses} lie strictly "
                f"{'above' if self.side > 0.0 else 'below'} "
                f"2*sigma0 = {self.origin:.12g}")

    def turned_away(self, met: Sequence[tuple[float, float]]
                    ) -> Optional[float]:
        """The mass met nearest rho, below it on rho's side of the origin,
        once a mass met at a larger eps lies farther from rho: the masses
        have turned away from rho where the law has them grow toward it
        with eps. None before that, and always where side is not None (a V
        of one sign, whose masses keep to the law's side).
        """
        toward = self.rho - self.origin
        if self.side is not None or toward == 0.0:
            return None
        # each mass as a fraction of the way from the origin to rho
        share = [(eps, (mass - self.origin) / toward, mass)
                 for eps, mass in met]
        eps_top, top, mass_top = max(share, key=lambda q: q[1])
        if 0.0 < top < 1.0 and any(eps > eps_top and t < top
                                   for eps, t, _ in share):
            return mass_top
        return None


def _mass_law(spec: DomainSpec, params: ProblemParams, rho: float,
              gs: GroundState) -> _MassLaw:
    """The _MassLaw of spec's regime for the target mass rho."""
    two_sigma0 = 2.0 * gs.sigma0
    if params.regime is not Regime.MASS_CRITICAL:
        return _MassLaw(rho, params.dim - 4.0 / (params.p - 1.0), 0.0, None,
                        (1.0, two_sigma0), 1.0)
    if spec.kind == "interval":
        d = 0.5 * (spec.b - spec.a)
        side = -1.0 if spec.bc == DIRICHLET else 1.0
        offset = 2.0 * THETA_RATE_CONSTANT * math.exp(-2.0)
        return _MassLaw(rho, -2.0, two_sigma0, d,
                        (d, two_sigma0 + side * offset), side,
                        f"{spec.bc.capitalize()} critical masses")
    terms = [(k, c) for k, c in enumerate(spec.potential, start=1) if c != 0.0]
    if not terms:
        return _MassLaw(rho, None, two_sigma0, None, None, 0.0)
    k, a_k = terms[0]
    # coefficients of one sign put every mass on the side the leading law
    # gives; mixed signs can cross 2 sigma0
    one_sign = all((c > 0.0) == (a_k > 0.0) for _, c in terms)
    return _MassLaw(rho, 2.0 * k + 2.0, two_sigma0, None,
                    (1.0, two_sigma0 - k * a_k * mass_moment(gs, k)),
                    -math.copysign(1.0, a_k) if one_sign else None,
                    f"critical masses on the line with every a_k "
                    f"{'>=' if a_k > 0.0 else '<='} 0")


def solve_normalized(spec: DomainSpec, params: ProblemParams, rho: float,
                     eps_min: float = EPS_MIN,
                     ground_state: Optional[GroundState] = None
                     ) -> NormalizedSolution:
    """Solve the mass-prescribed problem by an outer root-find on eps.

    The first eps is the one at which the regime's leading-order law for
    the mass, from its eps -> 0 anchor, gives rho (_MassLaw.start; EPS_START
    where the law cannot reach rho). From the mass there, at most 16
    further steps bracket rho: first along the local slope dm/deps
    (MassEvaluator.slope) in the law's coordinates, then along the
    secant through the last two masses, each where it is within a factor
    2 of the law's slope, else along the law's. On a V of mixed signs
    (_MassLaw.side None) the first step takes the law's slope. Where the
    law is silent the step is eps -> 0.82 eps. Brent on log(eps) then runs
    over the bracket. Every
    eps is clipped to [eps_min, EPS_START]. The first evaluated eps whose mass
    is within tol of rho is returned: tol = MASS_RTOL * rho, and at most
    1e-3 * |rho - 2 sigma0| at p = 1 + 4/N, so that the returned eps also
    resolves a small distance to 2 sigma0, but never below STOP_FLOOR *
    MASS_RTOL * rho. Raises NoSolutionInRegime when the law puts no mass at
    rho (_MassLaw.refusal), and BracketFailed when no step brackets rho,
    when on a V of mixed signs the masses turn away from rho
    (_MassLaw.turned_away; on V = -x^2 + 5x^4 at rho = 2 sigma0 + 1e-3
    after 2 solves, where the walk once took 17), or when the root-find
    ends on a constant solution (u = 1 on a Neumann interval), which does
    not concentrate. A solve inside the walk that
    fails raises its own error, NonPositive or NewtonDiverged (as
    solve_fixed_epsilon documents), and the walk stops there: on the line
    with V = x^2 - 5x^4 at p = 5 and rho near 2 sigma0 the first solve
    raises NonPositive. A
    non-finite or non-positive rho, an eps_min outside (0, EPS_START) or
    dim != 1 raises ValueError before the ground state is solved.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be positive and finite")
    if not 0.0 < eps_min < EPS_START:
        raise ValueError(f"eps_min must lie in (0, {EPS_START:g})")
    if params.dim != 1:
        raise ValueError("the direct solver is one-dimensional")
    gs = ground_state if ground_state is not None else solve_ground_state(params)
    law = _mass_law(spec, params, rho, gs)
    reason = law.refusal()
    if reason is not None:
        raise NoSolutionInRegime(reason)
    tol = max(STOP_FLOOR * MASS_RTOL * rho,
              min(MASS_RTOL * rho, CRITICAL_STOP * abs(rho - law.origin)))

    evaluate = MassEvaluator(spec, params)

    def f(eps: float) -> float:
        return evaluate(eps) - rho

    def clip(eps: float) -> float:
        return min(max(eps, eps_min), EPS_START)

    unbracketed = (f"mass {rho:.12g} not bracketed for eps in "
                   f"[{eps_min}, {EPS_START}]")
    eps_a = clip(law.start())
    f_a = f(eps_a)
    met = [(eps_a, f_a + rho)]  # the walk's (eps, mass) points
    behind = None  # the point before eps_a, on the same side of rho
    steps = 0
    while abs(f_a) > tol:
        point = (eps_a, f_a + rho)
        # the first step takes the local slope, but not on a V of mixed
        # signs (side None), whose law can be far from the masses
        dmass = (evaluate.slope(eps_a)
                 if behind is None and law.side is not None else None)
        step = law.step(*point, law.secant_slope(behind, point, dmass))
        eps_b = clip(eps_a * TRACE_RATIO if step is None else step)
        if eps_b == eps_a or steps == MAX_BRACKET_STEPS:
            raise BracketFailed(unbracketed)
        steps += 1
        f_b = f(eps_b)
        if abs(f_b) > tol and (f_b < 0) != (f_a < 0):
            # exp(log(eps)) may miss eps by an ulp, and the cache with it
            ends = {math.log(e): e for e in (eps_a, eps_b)}
            t = brentq(lambda t: f(ends.get(t, math.exp(t))), min(ends),
                       max(ends), xtol=1e-12, rtol=8.9e-16, ftol=tol)
            eps_a = ends.get(t, math.exp(t))
            f_a = f(eps_a)
            if abs(f_a) > 1e-6 * rho:
                raise BracketFailed(
                    "root-find stalled before reaching the target mass")
            break
        met.append((eps_b, f_b + rho))
        peak = law.turned_away(met)
        if peak is not None:
            raise BracketFailed(f"{unbracketed}: the masses on its side of "
                                f"2*sigma0 turn away from it; the nearest "
                                f"met is {peak:.12g}")
        behind = None if step is None else point
        eps_a, f_a = eps_b, f_b
    sol = evaluate.solution(eps_a)
    u = sol.u_values
    umax = u.max()
    if umax - u.min() <= FLAT_RTOL * umax:
        raise BracketFailed(
            f"the root-find for mass {rho:.12g} ended on the constant "
            f"solution u = {np.mean(u):.6g} at eps = {eps_a:.6g}, which "
            f"does not concentrate")
    return sol
