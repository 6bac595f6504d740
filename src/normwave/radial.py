"""Finite-difference machinery for radial two-point problems on [0, R].

All radial profiles live on uniform grids r_i = i*h. Operators act on even
functions of r (smooth radial functions), so the node at r=0 is handled with
the symmetric stencil and ghost nodes are filled by even reflection.

The discrete operator implemented here is

    L[q] w  =  -w'' - (dim-1)/r * w' + q(r) * w

with a fourth-order interior discretization, the symmetric limit
-dim * w''(0) + q(0) w(0) at the origin, and a Robin far-field row
w'(R) + beta w(R) = 0 that the decaying solution r^{-nu} K_nu(r),
nu = (dim-2)/2, of -w'' - (dim-1)/r w' + w = 0 satisfies exactly:
beta = 1 + (dim-1)/(2R) - S'(R)/S(R), with S the K_nu tail series of
decay_series (decay_rate; beta = 1 + (dim-1)/(2R) for dim = 1 and 3, where
S = 1).

L is held in LAPACK general band storage (KL = 4 sub-diagonals for the Robin
row, KU = 2 super-diagonals) and factorised by LAPACK dgbtrf, called in
numpy's bundled OpenBLAS (normwave._lapack), so that no radial solve loads
scipy. The band is assembled straight into the Fortran-ordered array that
dgbtrf factorises in place. A radial Newton solve reuses one such array for
every step and hands back the linearization L+ at its solution written into
it, for factorise; the ground state's defect estimate solves with those
factors, and its correction profile through solve_radial_linear.

The checks use independent sixth-order differences, centred, with the
ghost nodes at r < 0 filled by even reflection. d1_six is one-sided at the
last three nodes, so a profile's derivative is defined at every node;
d2_six, and so every residual, is NaN at those three, and residual_max
takes every finite entry.
"""

from __future__ import annotations

import math

import numpy as np

from . import _lapack
from ._numerics import simpson
from .errors import NoConvergence, SingularOperator

__all__ = [
    "grid_intervals",
    "uniform_grid",
    "decay_series",
    "decay_rate",
    "radial_operator",
    "solve_radial_linear",
    "radial_newton",
    "lplus_band",
    "d1_six",
    "d2_six",
    "radial_ode_residual",
    "surface_area",
    "radial_quadrature",
    "residual_max",
]

NEWTON_TOL = 1e-12  # radial_newton's residual stop
NEWTON_MAX_ITER = 60  # radial_newton's step cap, then NoConvergence
COND_LIMIT = 1e14   # solve_radial_linear refuses a worse-conditioned operator
KL, KU = 4, 2  # sub- and super-diagonals of L: the Robin row reaches back 4
DECAY_SERIES_TOL = 1e-17  # decay_series stops at the first term below this


def grid_intervals(r_max: float, spacing: float) -> int:
    """The interval count of uniform_grid(r_max, spacing): r_max / spacing
    rounded to a whole number, and up to an even one. A non-finite or
    non-positive r_max or spacing, or fewer than 16 intervals, raise
    ValueError."""
    if not all(math.isfinite(v) and v > 0 for v in (r_max, spacing)):
        raise ValueError("r_max and spacing must be positive and finite")
    n = int(round(r_max / spacing))
    n += n % 2
    if n < 16:
        raise ValueError("grid too short")
    return n


def uniform_grid(r_max: float, spacing: float) -> np.ndarray:
    """Uniform grid on [0, r_max] with about the requested spacing.

    The interval count (grid_intervals) is even, so composite Simpson
    applies directly. r_max and spacing must be positive and finite.
    """
    return np.linspace(0.0, r_max, grid_intervals(r_max, spacing) + 1)


class BandLU:
    """LU factors of a band operator from LAPACK dgbtrf, solved by dgbtrs;
    ipiv holds LAPACK's 1-based pivots. Factors from factorise also carry
    the operator's exact ||A||_1 as norm, for condition()."""

    def __init__(self, lu: np.ndarray, ipiv: np.ndarray):
        self.lu = lu
        self.ipiv = ipiv
        self.norm: float | None = None
        self.cond: float | None = None

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """A^{-1} b, or A^{-T} b for trans="T", for b of shape (n,) or
        (n, nrhs), all columns in one dgbtrs call; b is left as it is."""
        x, _ = _lapack.gbtrs(self.lu, KL, KU, self.ipiv,
                             np.array(b, dtype=float, order="F"), trans)
        return x

    def condition(self) -> float:
        """The 1-norm condition estimate, norm times the Hager-Higham
        estimate of ||A^{-1}||_1 from solves with the factors; taken on the
        first call, then read from cond."""
        if self.cond is None:
            self.cond = self.norm * onenormest(
                self.solve, lambda x: self.solve(x, trans="T"),
                self.lu.shape[1])
        return self.cond


def splu(work: np.ndarray) -> BandLU:
    """Band LU by LAPACK dgbtrf, in place, of the operator in the last
    KL + KU + 1 rows of a Fortran-ordered (2 KL + KU + 1, n) array such as
    radial_operator's ab.base. dgbtrf needs the KL rows above the band for
    the fill-in of pivoting and sets them itself.

    The name is kept from the sparse LU it replaced, because the benchmark's
    tracer (bench/tracing.py) counts factorisations under it. An exactly
    zero pivot raises SingularOperator.
    """
    lu, ipiv, info = _lapack.gbtrf(work, KL, KU)
    if info > 0:
        raise SingularOperator("radial operator is exactly singular")
    return BandLU(lu, ipiv)


def factorise(ab: np.ndarray) -> BandLU:
    """splu(ab.base), in place, of ab in radial_operator's storage (from
    radial_operator, lplus_band or radial_newton), for solve_radial_linear:
    the factors carry ||A||_1, a column sum over the band taken before it is
    factorised. A non-finite entry raises ValueError."""
    norm = np.abs(ab[0])  # column sums row by row, as numpy sums a C-order band
    for row in ab[1:]:
        norm += np.abs(row)
    norm = float(np.max(norm))  # NaN or inf if an entry is
    if not math.isfinite(norm):
        raise ValueError("the radial operator must be finite")
    lu = splu(ab.base)
    lu.norm = norm
    return lu


def onenormest(matvec, rmatvec, n: int) -> float:
    """Hager-Higham lower estimate of ||B||_1 for an n x n operator B given
    by x -> B x and x -> B^T x, where matvec also takes an (n, 2) block.

    N. J. Higham, ACM TOMS 14 (1988) 381, Algorithm 4.1, step for step as
    LAPACK dlacn2, the estimator dgbcon uses: at most five products with
    B^T and six with B, the last on the alternating-sign vector. That
    vector does not depend on B, so its product is taken with the first,
    on 1/n, in one block product.
    """
    itmax = 5
    i = np.arange(n)
    probes = np.empty((n, 2), order="F")
    probes[:, 0] = 1.0 / n
    probes[:, 1] = np.where(i % 2 == 0, 1.0, -1.0) * (1.0 + i / max(n - 1, 1))
    v, last = matvec(probes).T
    est = float(np.sum(np.abs(v)))
    if n == 1:
        return est
    sign = np.where(v >= 0.0, 1.0, -1.0)
    j = int(np.argmax(np.abs(rmatvec(sign))))
    k = 2
    while True:
        e = np.zeros(n)
        e[j] = 1.0
        v = matvec(e)
        est_old, est = est, float(np.sum(np.abs(v)))
        new_sign = np.where(v >= 0.0, 1.0, -1.0)
        if np.array_equal(new_sign, sign) or est <= est_old:
            break  # repeated sign vector, or cycling
        sign = new_sign
        z = rmatvec(sign)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]) or k >= itmax:
            break
        k += 1
    return max(est, 2.0 * float(np.sum(np.abs(last))) / (3 * n))


def decay_series(r, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """S(r) and S'(r) of K_nu(r) = sqrt(pi/(2r)) e^{-r} S(r), nu = (dim-2)/2.

    S(r) = sum_k a_k r^{-k}, a_0 = 1, a_k = a_{k-1} ((dim-2)^2 - (2k-1)^2)
    / (8k) (DLMF 10.40.2), summed by Horner in 1/r. The terms are counted at
    the smallest r: the sum stops at the first term below DECAY_SERIES_TOL,
    or, where the terms start to grow first (the series is asymptotic for
    even dim), at the smallest term, which then enters at half weight, the
    leading part of the remainder of an alternating tail; at r = 13 that
    puts S within 5e-15 of scipy's kve, against 4e-13 with the whole term.
    For odd dim the series ends: S = 1 for dim = 1 and 3, 1 + 1/r for 5.
    """
    r = np.asarray(r, dtype=float)
    x = 1.0 / np.min(r)
    coeffs, term = [1.0], 1.0
    for k in range(1, 100):  # the smallest term comes at k ~ 2r, or below tol
        a = coeffs[-1] * ((dim - 2) ** 2 - (2 * k - 1) ** 2) / (8.0 * k)
        if a == 0.0:
            break
        if abs(a) * x ** k >= term:
            coeffs[-1] *= 0.5
            break
        coeffs.append(a)
        term = abs(a) * x ** k
        if term < DECAY_SERIES_TOL:
            break
    x = 1.0 / r
    s = np.full_like(r, coeffs[-1])
    ds = np.full_like(r, (len(coeffs) - 1) * coeffs[-1])
    for k in range(len(coeffs) - 2, -1, -1):
        s = s * x + coeffs[k]
        if k > 0:
            ds = ds * x + k * coeffs[k]
    return s, -x * x * ds


def decay_rate(r, dim: int) -> np.ndarray:
    """beta(r) = -u'(r)/u(r) of the decaying solution u = r^{-nu} K_nu(r),
    nu = (dim-2)/2, of -u'' - (dim-1)/r u' + u = 0: 1 + (dim-1)/(2r) -
    S'(r)/S(r) (decay_series)."""
    s, ds = decay_series(r, dim)
    return 1.0 + (dim - 1) / (2.0 * np.asarray(r, dtype=float)) - ds / s


def radial_operator(r: np.ndarray, q: np.ndarray, dim: int) -> np.ndarray:
    """Assemble L[q] in LAPACK general band storage (see module docstring
    for its rows): ab[KU + i - j, j] = L[i, j], zero outside the matrix.

    ab is the last KL + KU + 1 rows of ab.base, a zeroed Fortran-ordered
    (2 KL + KU + 1, n) array that splu(ab.base) factorises in place.
    """
    n = len(r) - 1
    h = r[1] - r[0]
    ab = np.zeros((2 * KL + KU + 1, n + 1), order="F")[KL:]

    def put(i, j, v):
        ab[KU + i - j, j] = v

    # r = 0: radial Laplacian degenerates to dim * w''(0); fourth-order even stencil.
    put(0, np.arange(3), np.array([dim * 30.0 / (12 * h * h) + q[0],
                                   -dim * 32.0 / (12 * h * h),
                                   dim * 2.0 / (12 * h * h)]))

    # i = 1: fourth-order stencil with the ghost w(-h) = w(h) folded in.
    c2 = np.array([16.0, -31.0, 16.0, -1.0]) / (12 * h * h)
    c1 = np.array([-8.0, 1.0, 8.0, -1.0]) / (12 * h)
    row1 = -c2 - (dim - 1) / r[1] * c1
    row1[1] += q[1]
    put(1, np.arange(4), row1)

    # bulk rows 2..n-2: standard five-point fourth-order stencils; row i's
    # entry in column i + off lies on band row KU - off.
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    fric = (dim - 1) / r[2:n - 1]
    for k, off in enumerate(range(-2, 3)):
        band = -c2[k] - fric * c1[k]
        if off == 0:
            band = band + q[2:n - 1]
        ab[KU - off, 2 + off:n - 1 + off] = band

    # i = n-1: second-order fallback (sits deep in the exponential tail).
    put(n - 1, np.arange(n - 2, n + 1), np.array([
        -1.0 / (h * h) + (dim - 1) / r[n - 1] / (2 * h),
        2.0 / (h * h) + q[n - 1],
        -1.0 / (h * h) - (dim - 1) / r[n - 1] / (2 * h)]))

    # i = n: Robin decay row, one-sided fourth-order first derivative.
    cr = np.array([25.0, -48.0, 36.0, -16.0, 3.0]) / (12 * h)
    cr[0] += float(decay_rate(r[-1], dim))
    put(n, np.arange(n, n - 5, -1), cr)
    return ab


def band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L x for L in radial_operator's band storage, one diagonal at a time."""
    n = len(x)
    y = np.zeros(n)
    for d in range(KL + KU + 1):
        off = KU - d  # column minus row
        if off >= 0:
            y[:n - off] += ab[d, off:] * x[off:]
        else:
            y[-off:] += ab[d, :n + off] * x[:n + off]
    return y


def solve_radial_linear(factors: BandLU, rhs: np.ndarray) -> np.ndarray:
    """Solve L w = rhs with the decay boundary row (rhs forced to 0 there),
    for factors of L from factorise, such as a ground state's L+.

    A non-finite rhs raises ValueError. Above COND_LIMIT the factors'
    condition estimate (BandLU.condition, taken once per factorisation)
    raises SingularOperator.
    """
    b = np.asarray(rhs, dtype=float).copy()
    if not np.isfinite(b).all():
        raise ValueError("rhs must be finite")
    if factors.condition() > COND_LIMIT:
        raise SingularOperator(
            f"radial operator condition estimate exceeds {COND_LIMIT:.1e}")
    b[-1] = 0.0
    return factors.solve(b)


def _jacobian(ab: np.ndarray, power: np.ndarray, p: float) -> np.ndarray:
    """L[1 - p|u|^{p-1}] from L[1] in ab, in place, for power = |u|^{p-1}:
    only the diagonal of the interior rows differs from L[1]; the Robin row
    carries no potential."""
    shift = p * power
    shift[-1] = 0.0
    ab[KU] -= shift
    return ab


def lplus_band(r: np.ndarray, dim: int, p: float, u: np.ndarray) -> np.ndarray:
    """L+ = L[1 - p|u|^{p-1}] at u in radial_operator's storage, formed from
    an L[1] assembled here as radial_newton forms it, for factorise."""
    return _jacobian(radial_operator(r, np.ones_like(r), dim),
                     np.abs(u) ** (p - 1), p)


def radial_newton(r: np.ndarray, dim: int, p: float,
                  u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton polish for -u'' - (dim-1)/r u' + u = |u|^{p-1} u with decay tail.

    Stops when the residual is below NEWTON_TOL, or when a Newton step is at
    rounding level, ||du||_inf <= 1e-10 * max(1, ||u||_inf): the residual
    of the fourth-order system bottoms out near 1e-9 on fine grids, above
    NEWTON_TOL, while the step keeps shrinking (Deuflhard's step-norm
    test). A freshly factorised step at most sqrt(1e-10) * max(1, ||u||_inf)
    is followed by a simplified-Newton step that solves with the same
    factors: its error is of the order of that step squared, at rounding
    level, so no third factorisation is needed to confirm convergence.
    Where such a step is not at rounding level the next Jacobian is
    factorised again (P. Deuflhard, Newton Methods for Nonlinear Problems,
    2004, section 2.1). Raises NoConvergence after NEWTON_MAX_ITER steps.

    Returns u and the band of L+ = J(u), the Jacobian at u, not yet
    factorised: factorise(band) gives its factors. The operator L[1] is
    assembled once; each Jacobian differs from it only on the diagonal.
    Every Jacobian, and then L+, is written from a copy of L[1] into the
    work array L[1] was assembled in, and factorised there, over the
    factors before it. |u|^{p-1} is formed once per iterate, for its
    residual and its Jacobian.
    """
    ab = radial_operator(r, np.ones_like(r), dim)
    base = ab.copy()
    u = u0.copy()
    reuse = False
    for _ in range(NEWTON_MAX_ITER):
        power = np.abs(u) ** (p - 1)
        F = band_matvec(base, u)
        F[:-1] -= power[:-1] * u[:-1]
        if np.max(np.abs(F[:-1])) < NEWTON_TOL and abs(F[-1]) < NEWTON_TOL:
            break
        if not reuse:
            ab[...] = base
            lu = splu(_jacobian(ab, power, p).base)
        du = lu.solve(-F)
        u = u + du
        step, scale = np.max(np.abs(du)), max(1.0, np.max(np.abs(u)))
        if step <= 1e-10 * scale:
            power = np.abs(u) ** (p - 1)
            break
        reuse = not reuse and step <= 1e-10 ** 0.5 * scale
    else:
        raise NoConvergence(f"radial Newton did not converge in "
                            f"{NEWTON_MAX_ITER} steps")
    ab[...] = base
    return u, _jacobian(ab, power, p)


# -- high-order difference stencils (independent residual checks) ------------

# d1_six's sixth-order rows at nodes n-2, n-1 and n (the last), one-sided
# on the last seven values, times 60 h
_D1_ONE_SIDED = np.array([[1.0, -8.0, 30.0, -80.0, 35.0, 24.0, -2.0],
                          [-2.0, 15.0, -50.0, 100.0, -150.0, 77.0, 10.0],
                          [10.0, -72.0, 225.0, -400.0, 450.0, -360.0, 147.0]])


def _stencil_six(vals: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A seven-point centred stencil on an even function, the ghost nodes at
    r < 0 filled by reflection; the last three entries, where it would reach
    past the grid, are NaN."""
    g = np.concatenate([vals[3:0:-1], vals])
    out = np.full_like(vals, np.nan)
    m = len(vals) - 3
    acc = np.zeros(m)
    for k in range(7):
        acc += c[k] * g[k:k + m]
    out[:m] = acc
    return out


def d1_six(vals: np.ndarray, h: float) -> np.ndarray:
    """Sixth-order first derivative of an even function at every node: the
    centred stencil, and one-sided seven-point rows at the last three."""
    out = _stencil_six(vals, np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0])
                       / (60 * h))
    out[0] = 0.0  # exact by symmetry; the stencil cancels only to rounding
    out[-3:] = (_D1_ONE_SIDED * vals[-7:]).sum(axis=1) / (60 * h)
    return out


def d2_six(vals: np.ndarray, h: float) -> np.ndarray:
    """Sixth-order second derivative of an even function; the last three
    entries are NaN."""
    return _stencil_six(vals, np.array([2.0, -27.0, 270.0, -490.0, 270.0,
                                        -27.0, 2.0]) / (180 * h * h))


def radial_ode_residual(r: np.ndarray, vals: np.ndarray, dim: int,
                        coeff: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Residual of -w'' - (dim-1)/r w' + coeff*w - rhs via sixth-order stencils.

    Independent of the fourth-order assembly used by the solvers. The last
    three nodes, where d2_six has no centred stencil, are returned as NaN;
    residual_max leaves them out.
    """
    h = r[1] - r[0]
    d2 = d2_six(vals, h)
    d1 = d1_six(vals, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        fric = np.where(r > 0, d1 / np.where(r > 0, r, 1.0), 0.0)
    fric[0] = d2[0]  # limit w'(r)/r -> w''(0)
    return -d2 - (dim - 1) * fric + coeff * vals - rhs


def residual_max(res: np.ndarray) -> float:
    """Max-norm of a residual over its finite entries."""
    return float(np.max(np.abs(res[np.isfinite(res)])))


# -- quadrature ---------------------------------------------------------------

def surface_area(dim: int) -> float:
    """Surface measure of the unit sphere S^{dim-1} (2 for dim=1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def radial_quadrature(r: np.ndarray, f: np.ndarray, dim: int,
                      tail_decay: float = 2.0, rule: str = "simpson") -> float:
    """Integral of f(|x|) over R^dim, by composite rule plus exponential tail.

    rule="simpson" is _numerics.simpson, which needs an even panel count.
    rule="trapezoid", the cross-check, applies the Euler-Maclaurin endpoint
    correction -(h^2/12) (g'(R) - g'(0)), which restores O(h^4) accuracy
    when the integrand g = f r^{dim-1} has a nonzero derivative at r=0
    (dim = 2).
    """
    h = (r[-1] - r[0]) / (len(r) - 1)
    g = f * r ** (dim - 1)
    if rule == "simpson":
        core = simpson(g, h)
    elif rule == "trapezoid":
        core = h * (np.sum(g) - 0.5 * (g[0] + g[-1]))
        dg0 = np.dot([-25.0, 48.0, -36.0, 16.0, -3.0], g[:5]) / (12 * h)
        dgR = np.dot([25.0, -48.0, 36.0, -16.0, 3.0], g[-1:-6:-1]) / (12 * h)
        core -= h * h / 12.0 * (dgR - dg0)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    # the tail: ∫_R^∞ g(R) e^{-tail_decay (r - R)} dr
    return surface_area(dim) * (core + g[-1] / tail_decay)
