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
mass(eps) = rho with further steps along that law, secant steps once two
masses lie on one side of rho, then runs Brent (on log eps) until the mass
is within tolerance of rho. Each mass comes from one
solve: the Numerov rows and Simpson's rule make it fourth order in h, and
the default spacing eps/80 (at least MIN_NODES panels) keeps its error at or
below that of a second-order Richardson pair at eps/60 and eps/120.

Real-line potentials are even polynomials, so those solves exploit evenness:
the half-line [0, L] is discretized with a symmetric row at 0 and a decay
row at L, removing the translational near-kernel of the whole-line problem.
An interior solve starts from the bump at the centre of its domain.
Endpoint concentration on a Neumann interval is realized by reflection onto
the doubled interval, whose centre is the endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
DECAY = "decay"

NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 200
NEWTON_MAX_BACKTRACK = 40
POINTS_PER_WIDTH = 80
MIN_POINTS_PER_WIDTH = 10
MIN_NODES = 2640
# the real line is truncated at this many eps-widths (e^-40 of the peak)
REALLINE_WIDTHS = 40.0
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
    """Half-width L of the truncated real line: 20 at eps = 0.5."""
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
    else:
        b = _realline_halfwidth(eps)
        a = -b
    if n_override is None:
        n = max(MIN_NODES, int(math.ceil(POINTS_PER_WIDTH * (b - a) / eps)))
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


def _rows(u, a, b, d, p, h, eps, left, right):
    """Numerov rows -a δ²u + (g₋ + 10 g + g₊)/12, g = b u - d |u|^{p-1} u,
    δ²u the second difference; fourth order in h.

    Boundary row kinds: DIRICHLET value rows u; NEUMANN rows with the ghost
    u_{-1} = u_1; DECAY rows with the ghost u_{-1} = u_1 - 2h u_0/eps, i.e.
    u' = u/eps at a real-line truncation (mirrored on the right). Both
    ghosts take g_{-1} = g_1; at a truncation, e^-40 of the peak, the
    mirror costs nothing.
    """
    g = b * u - d * np.abs(u) ** (p - 1) * u
    r = np.empty_like(u)
    r[1:-1] = -a * (u[:-2] - 2 * u[1:-1] + u[2:]) \
        + (g[:-2] + 10.0 * g[1:-1] + g[2:]) / 12.0
    for side, i, j in ((left, 0, 1), (right, -1, -2)):
        if side == DIRICHLET:
            r[i] = u[i]
        else:
            ghost = 2 * h * u[i] / eps if side == DECAY else 0.0
            r[i] = -a * (2 * u[j] - 2 * u[i] - ghost) \
                + (2.0 * g[j] + 10.0 * g[i]) / 12.0
    return r


def _rows_jacobian(u, a, b, d, p, h, eps, left, right):
    """Jacobian of _rows in (1, 1) banded storage: ab[0, 1:] the upper,
    ab[1] the main and ab[2, :-1] the lower diagonal. Every off-diagonal
    entry in column j is -a + g'_j/12 (twice that at a ghost row)."""
    dg = b - d * p * np.abs(u) ** (p - 1)
    ab = np.zeros((3, len(u)))
    ab[0, 1:] = -a + dg[1:] / 12.0
    ab[1, :] = 2.0 * a + 10.0 * dg / 12.0
    ab[2, :-1] = -a + dg[:-1] / 12.0
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
    return _rows(u, epsilon ** 2 / h ** 2, lin, 1.0, params.p, h, epsilon,
                 side, side)


# -- damped Newton on the row-scaled system --------------------------------------

def solve_banded(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system held in (1, 1) banded storage with LAPACK
    dgtsv, the routine scipy.linalg.solve_banded((1, 1), ...) calls, without
    scipy's wrapper; scipy.linalg is imported on the first call. ab and rhs
    are overwritten. Non-finite input raises ValueError, a singular pivot
    LinAlgError."""
    from scipy.linalg.lapack import dgtsv
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, 1, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _newton(x: np.ndarray, u0: np.ndarray, eps: float, p: float,
            Vx: np.ndarray, left: str, right: str
            ) -> tuple[np.ndarray, int, float]:
    """Damped Newton on _rows scaled by h^2/eps^2, so the tolerance is
    meaningful in units of u. Returns u, the iteration count and max |F(u)|
    divided by h^2/eps^2: the unscaled residual of assemble_residual."""
    h = x[1] - x[0]
    s = h * h / (eps * eps)
    w = s * (eps * eps * Vx + 1.0)
    u = u0.copy()

    def F(u):
        return _rows(u, 1.0, w, s, p, h, eps, left, right)

    def jacobian(u):
        return _rows_jacobian(u, 1.0, w, s, p, h, eps, left, right)

    converged = False
    r = F(u)
    for it in range(NEWTON_MAX_ITER):
        rn = np.max(np.abs(r))
        if not np.isfinite(rn):
            raise NewtonDiverged("residual is not finite")
        if converged or rn < 1e-15 * max(1.0, np.max(np.abs(u))):
            return u, it, rn / s
        if rn < NEWTON_TOL * max(1.0, np.max(np.abs(u))):
            converged = True  # one full polish step to the rounding floor
            u = u + solve_banded(jacobian(u), -r)
            r = F(u)
            continue
        d = solve_banded(jacobian(u), -r)
        t = 1.0
        for _ in range(NEWTON_MAX_BACKTRACK):
            rt = F(u + t * d)
            if np.all(np.isfinite(rt)) and np.max(np.abs(rt)) <= rn * (1 - 0.25 * t):
                break
            t *= 0.5
        else:
            if rn < 1e-9 * max(1.0, np.max(np.abs(u))):
                return u, it, rn / s  # stagnated at the rounding floor
            raise NewtonDiverged("backtracking budget exhausted")
        u = u + t * d
        r = rt  # the residual at the accepted step, F(u)
        if np.max(np.abs(t * d)) < 1e-15 * max(1.0, np.max(np.abs(u))):
            rn = np.max(np.abs(r))
            if rn < 1e-9 * max(1.0, np.max(np.abs(u))):
                return u, it, rn / s
            raise NewtonDiverged("step collapsed before convergence")
    raise NewtonDiverged(f"no convergence in {NEWTON_MAX_ITER} iterations")


def _single_peak(u: np.ndarray) -> bool:
    du = np.diff(u)
    signs = np.sign(du[np.abs(du) > 1e-12 * np.max(np.abs(u))])
    return np.count_nonzero(np.diff(signs)) <= 1


def _package(spec, params, eps, x, u, iters, residual) -> NormalizedSolution:
    interior = u[1:-1] if (spec.kind == "interval" and spec.bc == DIRICHLET) else u
    # tolerate rounding dust in the truncation tail, catch real crossings
    floor = 1e-12 * float(np.max(np.abs(u)))
    if np.max(u) <= 0 or np.min(interior) < -floor:
        raise NonPositive("solution is not positive at interior nodes")
    # at the peak of a positive solution u'' <= 0 and V = 0, so u^{p-1} >= 1
    if np.max(u) < 0.5:
        raise NonPositive(f"Newton fell onto the trivial solution u = 0 "
                          f"(max u = {np.max(u):.3g})")
    if not _single_peak(u):
        raise NewtonDiverged("converged profile is not single-peaked")
    p = params.p
    v = eps ** (-2.0 / (p - 1.0)) * u
    # mass = eps^{-4/(p-1)} ∫ u^2 (= ∫ v^2) by composite Simpson
    mass = eps ** (-4.0 / (p - 1.0)) * simpson(u ** 2, x=x)
    return NormalizedSolution(
        spec=spec, params=params, lambda_=eps ** -2.0, epsilon=eps,
        nodes=x, v_values=v, u_values=u, mass=mass,
        residual_inf=float(residual),
        concentration_point=float(x[np.argmax(u)]),
        newton_iterations=iters)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 0.5]")


def solve_fixed_epsilon(spec: DomainSpec, params: ProblemParams, epsilon: float,
                        init: str = "interior",
                        u0: Optional[np.ndarray] = None,
                        n_override: Optional[int] = None) -> NormalizedSolution:
    """Damped-Newton solve at fixed eps from u0 (on the solver grid) or,
    without u0, from the ansatz that init selects: "interior" (bump at the
    centre of the interval, 0 on the real line) or "endpoint" (Neumann,
    bump at b, the centre of the doubled interval it is reflected onto).
    u0 with "endpoint" raises ValueError before any solve. n_override
    counts panels on spec's interval, also for "endpoint". An eps whose
    mass scale eps^{-4/(p-1)} exceeds 1e300 raises ValueError. Newton
    failing raises NewtonDiverged; a profile that crosses zero, or falls
    onto the trivial solution u = 0, raises NonPositive.
    """
    if params.dim != 1:
        raise ValueError("the direct solver is one-dimensional")
    _check_epsilon(epsilon)
    if -4.0 / (params.p - 1.0) * math.log(epsilon) > MAX_LOG_MASS_SCALE:
        raise ValueError(f"the mass scale eps^(-4/(p-1)) exceeds 1e300 at "
                         f"eps = {epsilon:.6g}, p = {params.p:.6g}")
    if init not in ("interior", "endpoint"):
        raise ValueError(f"init must be 'interior' or 'endpoint' (got {init!r})")
    if u0 is not None and init == "endpoint":
        raise ValueError("u0 cannot be combined with init='endpoint'")
    p = params.p

    if init == "endpoint":
        if spec.kind != "interval":
            raise ValueError("endpoint concentration needs a bounded interval")
        if spec.bc != NEUMANN:
            raise ValueError("endpoint concentration requires Neumann conditions")
        doubled = DomainSpec("interval", spec.a, 2 * spec.b - spec.a, NEUMANN)
        n2 = len(_grid(doubled, epsilon,
                       None if n_override is None else 2 * n_override)) - 1
        n2 += n2 % 4  # keep the restricted half on an even panel count
        inner = solve_fixed_epsilon(doubled, params, epsilon, n_override=n2)
        keep = inner.nodes <= spec.b + 1e-14
        x, u = inner.nodes[keep], inner.u_values[keep]
        return _package(spec, params, epsilon, x, u, inner.newton_iterations,
                        inner.residual_inf)

    x = _grid(spec, epsilon, n_override)
    n = len(x) - 1
    side = spec.bc or DECAY
    if u0 is not None:
        if len(u0) != n + 1:
            raise ValueError(f"u0 must hold the {n + 1} solver grid values")
        guess = np.asarray(u0, dtype=float)
        scale = max(1.0, float(np.max(np.abs(guess))))
        even = spec.kind == "realline" or np.all(
            np.abs(guess - guess[::-1]) <= 1e-9 * scale)
    else:
        centre = 0.5 * (x[0] + x[-1])  # 0.0 on (-1, 1) and the real line
        guess = closed_form_soliton(p)[0]((x - centre) / epsilon)
        if spec.bc == DIRICHLET:
            guess[0] = 0.0
            guess[-1] = 0.0
        even = True
    if even:
        # symmetric profile: solve on the right half with a symmetry row at
        # the centre, which removes the exponentially weak translation mode
        # exactly. On the mirrored real-line grid the ansatz is already even
        # and a warm-start guess is used on the right half as interpolated.
        if spec.kind == "interval":
            guess = 0.5 * (guess + guess[::-1])
        xh = x[n // 2:]
        uh, iters, residual = _newton(xh, guess[n // 2:], epsilon, p,
                                      spec.V(xh), NEUMANN, side)
        u = np.concatenate([uh[::-1], uh[1:]])
    else:
        u, iters, residual = _newton(x, guess, epsilon, p, spec.V(x), side,
                                     side)
    return _package(spec, params, epsilon, x, u, iters, residual)


WARM_RANGE = (0.8, 1.25)  # warm starts only within this factor of eps


def _solve_from(prev: Optional[NormalizedSolution], spec: DomainSpec,
                params: ProblemParams, eps: float) -> NormalizedSolution:
    """Solve at eps warm-started from prev's profile interpolated onto the
    solver grid, or from the centred ansatz when there is no prev or eps is
    not within WARM_RANGE of prev's eps: across a longer jump the previous
    bump is no better a guess than the ansatz, and can be worse."""
    if prev is None or not (
            WARM_RANGE[0] <= eps / prev.epsilon <= WARM_RANGE[1]):
        return solve_fixed_epsilon(spec, params, eps)
    guess = np.interp(_grid(spec, eps, None), prev.nodes, prev.u_values)
    return solve_fixed_epsilon(spec, params, eps, u0=guess)


def trace_branch(spec: DomainSpec, params: ProblemParams,
                 epsilon_list: Sequence[float]
                 ) -> list[tuple[float, float, float]]:
    """Continuation along a decreasing eps list, each solve warm-started
    from the previous one where _solve_from allows. Every eps is checked
    before the first solve."""
    eps_list = list(epsilon_list)
    for eps in eps_list:
        _check_epsilon(eps)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon list must be strictly decreasing")
    out = []
    prev = None
    for eps in eps_list:
        try:
            sol = _solve_from(prev, spec, params, eps)
        except (NewtonDiverged, NonPositive) as exc:
            raise type(exc)(f"{exc} (at eps = {eps:.6g})") from exc
        out.append((eps, sol.mass, sol.residual_inf))
        prev = sol
    return out


# -- normalized solve ------------------------------------------------------------

EPS_START = 0.5  # largest eps of the root-find, and its start without a law
EPS_MIN = 0.05  # default smallest eps of the root-find
MASS_RTOL = 5e-8  # stop at |mass - rho| <= MASS_RTOL * rho
TRACE_RATIO = 0.82  # step down where the law cannot say
MAX_BRACKET_STEPS = 16  # 0.5 * 0.82^12 is below EPS_MIN
# a returned profile with max - min below this fraction of max is constant
FLAT_RTOL = 1e-9
# mass-critical stop: |mass - rho| at most this fraction of |rho - 2 sigma0|
CRITICAL_STOP = 1e-3
# |Theta| ~ THETA_RATE_CONSTANT s e^{-2s}, s = d/eps, at p = 1 + 4/N on an
# interval of half-width d, and mass - 2 sigma0 ~ -2 Theta (boundary_layer)
THETA_RATE_CONSTANT = 4.0 * math.sqrt(3.0)


def _forbidden_side(spec: DomainSpec, params: ProblemParams, rho: float,
                    two_sigma0: float) -> Optional[str]:
    if params.regime is not Regime.MASS_CRITICAL:
        return None
    if spec.kind == "interval" and spec.bc == DIRICHLET and rho >= two_sigma0:
        return (f"Dirichlet critical masses lie strictly below "
                f"2*sigma0 = {two_sigma0:.12g}")
    if spec.kind == "interval" and spec.bc == NEUMANN and rho <= two_sigma0:
        return (f"Neumann critical masses lie strictly above "
                f"2*sigma0 = {two_sigma0:.12g}")
    if spec.kind == "realline" and not spec.potential:
        return ("critical scaling on the line with V = 0 is solvable "
                "only at rho = 2*sigma0")
    return None


class MassEvaluator:
    """mass(eps) of one solve on the default grid, kept with its solution;
    each solve is warm-started from the previous one by _solve_from's rule.
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
            self.warm = self.cache[eps] = _solve_from(
                self.warm, self.spec, self.params, eps)
        return self.cache[eps]


def _potential_order(spec: DomainSpec) -> Optional[int]:
    """k of the first non-zero coefficient a_k of V, or None for V = 0."""
    return next((k for k, c in enumerate(spec.potential, start=1)
                 if c != 0.0), None)


def _law_slope(spec: DomainSpec, params: ProblemParams) -> Optional[float]:
    """Slope of the regime's leading-order mass law, a straight line in the
    coordinates of _law_coordinates; None where there is no law (V = 0 on
    the line at p = 1 + 4/N).

    Off p = 1 + 4/N mass ∝ eps^{N - 4/(p-1)}. At p = 1 + 4/N the offset
    mass - 2 sigma0 is ∝ s e^{-2s}, s = d/eps, on an interval of half-width
    d (the mass depends on eps/d only) and ∝ eps^{2k+2} on the line, a_k the
    first non-zero coefficient of V.
    """
    if params.regime is not Regime.MASS_CRITICAL:
        return params.dim - 4.0 / (params.p - 1.0)
    if spec.kind == "interval":
        return -2.0
    k = _potential_order(spec)
    return None if k is None else 2.0 * k + 2.0


def _law_coordinates(spec: DomainSpec, params: ProblemParams, eps: float,
                     mass: float, two_sigma0: float) -> tuple[float, float]:
    """(x, y) in which the regime's law is a straight line:
    (log eps, log mass) off p = 1 + 4/N; at p = 1 + 4/N
    (log eps, log|mass - 2 sigma0|) on the line and
    (s, log|mass - 2 sigma0| - log s), s = d/eps, on an interval."""
    if params.regime is not Regime.MASS_CRITICAL:
        return math.log(eps), math.log(mass)
    y = math.log(abs(mass - two_sigma0))
    if spec.kind == "realline":
        return math.log(eps), y
    s = 0.5 * (spec.b - spec.a) / eps
    return s, y - math.log(s)


def _law_step(spec: DomainSpec, params: ProblemParams, eps: float,
              mass: float, rho: float, two_sigma0: float,
              slope: Optional[float]) -> Optional[float]:
    """The eps at which the straight line of the given slope through
    (eps, mass), in the coordinates of _law_coordinates, reaches rho; None
    without a slope, or when mass and rho lie on opposite sides of
    2 sigma0 at p = 1 + 4/N."""
    critical = params.regime is Regime.MASS_CRITICAL
    origin = two_sigma0 if critical else 0.0
    ratio = (rho - origin) / (mass - origin)
    if slope is None or not ratio > 0.0:
        return None
    if not critical or spec.kind == "realline":
        return eps * ratio ** (1.0 / slope)
    # log ratio - log(s'/s) = slope (s' - s) in s' = d/eps'; the fixed-point
    # map contracts by 1/(|slope| s')
    d = 0.5 * (spec.b - spec.a)
    s = d / eps
    c = math.log(ratio) + slope * s + math.log(s)
    for _ in range(60):
        s = max((c - math.log(s)) / slope, 1.0)
    return d / s


def _step_slope(spec: DomainSpec, params: ProblemParams, two_sigma0: float,
                behind: Optional[tuple[float, float]],
                point: tuple[float, float]) -> Optional[float]:
    """Slope of the next step from point = (eps, mass): the secant through
    behind and point in the law's coordinates, where it is within a factor
    2 of the law's slope, else the law's slope."""
    law = _law_slope(spec, params)
    if behind is None or law is None:
        return law
    (x0, y0), (x1, y1) = (_law_coordinates(spec, params, eps, mass, two_sigma0)
                          for eps, mass in (behind, point))
    secant = (y1 - y0) / (x1 - x0)
    return secant if 0.5 <= secant / law <= 2.0 else law


def _law_start(spec: DomainSpec, params: ProblemParams, rho: float,
               gs: GroundState) -> float:
    """The eps at which the regime's law reaches rho, stepped from its
    eps -> 0 anchor: mass = 2 sigma0 eps^{N - 4/(p-1)} off p = 1 + 4/N; at
    p = 1 + 4/N, |mass - 2 sigma0| = 2 THETA_RATE_CONSTANT s e^{-2s},
    s = d/eps, on an interval (anchored at s = 1), and
    2 sigma0 - mass = k a_k eps^{2k+2} ∫|y|^{2k} U^2 on the line (anchored
    at eps = 1). Where the law cannot reach rho (V = 0, or a law offset of
    the other sign than rho - 2 sigma0) the start is EPS_START.
    """
    two_sigma0 = 2.0 * gs.sigma0
    if params.regime is not Regime.MASS_CRITICAL:
        anchor, mass = 1.0, two_sigma0
    elif spec.kind == "interval":
        offset = 2.0 * THETA_RATE_CONSTANT * math.exp(-2.0)
        anchor = 0.5 * (spec.b - spec.a)
        mass = two_sigma0 + math.copysign(offset, rho - two_sigma0)
    else:
        k = _potential_order(spec)
        if k is None:
            return EPS_START
        anchor = 1.0
        mass = two_sigma0 - k * spec.potential[k - 1] * mass_moment(gs, k)
    step = _law_step(spec, params, anchor, mass, rho, two_sigma0,
                     _law_slope(spec, params))
    return EPS_START if step is None else step


def solve_normalized(spec: DomainSpec, params: ProblemParams, rho: float,
                     eps_min: float = EPS_MIN,
                     ground_state: Optional[GroundState] = None
                     ) -> NormalizedSolution:
    """Solve the mass-prescribed problem by an outer root-find on eps.

    The first eps is the one at which the regime's leading-order law for
    the mass, from its eps -> 0 anchor, gives rho (_law_start; EPS_START
    where the law cannot reach rho). From the mass there, at most 16
    further steps bracket rho: along the law's slope, then along the
    secant through the last two masses in the law's coordinates where it
    is within a factor 2 of the law's (eps -> 0.82 eps where the law is
    silent). Brent on log(eps) then runs over the bracket. Every
    eps is clipped to [eps_min, EPS_START]. The first evaluated eps whose mass
    is within tol of rho is returned: tol = MASS_RTOL * rho, and in the
    mass-critical regime at most 1e-3 * |rho - 2 sigma0|, so that the
    returned eps also resolves a small distance to 2 sigma0. Raises
    NoSolutionInRegime when rho sits on the forbidden side of the critical
    threshold, and BracketFailed when no step brackets rho or when the
    root-find ends on a constant solution (u = 1 on a Neumann interval),
    which does not concentrate. A non-finite or non-positive rho, an eps_min
    outside (0, EPS_START) or dim != 1 raises ValueError before the ground
    state is solved.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be positive and finite")
    if not 0.0 < eps_min < EPS_START:
        raise ValueError(f"eps_min must lie in (0, {EPS_START:g})")
    if params.dim != 1:
        raise ValueError("the direct solver is one-dimensional")
    gs = ground_state if ground_state is not None else solve_ground_state(params)
    two_sigma0 = 2.0 * gs.sigma0
    reason = _forbidden_side(spec, params, rho, two_sigma0)
    if reason is not None:
        raise NoSolutionInRegime(reason)
    tol = MASS_RTOL * rho
    if params.regime is Regime.MASS_CRITICAL:
        tol = min(tol, CRITICAL_STOP * abs(rho - two_sigma0))

    evaluate = MassEvaluator(spec, params)

    def f(eps: float) -> float:
        return evaluate(eps) - rho

    def clip(eps: float) -> float:
        return min(max(eps, eps_min), EPS_START)

    unbracketed = (f"mass {rho:.12g} not bracketed for eps in "
                   f"[{eps_min}, {EPS_START}]")
    eps_a = clip(_law_start(spec, params, rho, gs))
    f_a = f(eps_a)
    behind = None  # the point before eps_a, on the same side of rho
    steps = 0
    while abs(f_a) > tol:
        point = (eps_a, f_a + rho)
        step = _law_step(spec, params, *point, rho, two_sigma0,
                         _step_slope(spec, params, two_sigma0, behind, point))
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
        behind = None if step is None else point
        eps_a, f_a = eps_b, f_b
    sol = evaluate.solution(eps_a)
    u = sol.u_values
    if np.max(u) - np.min(u) <= FLAT_RTOL * np.max(u):
        raise BracketFailed(
            f"the root-find for mass {rho:.12g} ended on the constant "
            f"solution u = {np.mean(u):.6g} at eps = {eps_a:.6g}, which "
            f"does not concentrate")
    return sol
