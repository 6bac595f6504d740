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
factors, and its correction profile through solve_radial_linear. Every
solve with them checks their 1-norm condition, estimated once per
factorisation (BandLU.condition): onenormest, LAPACK dlacn2's estimator
step for step, takes two in-place block dgbtrs solves where its first step
lands on the Robin row's column, as it does for every L+ measured, and the
first solve's right-hand side rides in the first block.

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
COND_LIMIT = 1e14   # BandLU.condition refuses a worse-conditioned operator
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

    def solve(self, b: np.ndarray, trans: str = "N",
              overwrite_b: bool = False) -> np.ndarray:
        """A^{-1} b, or A^{-T} b for trans="T", for b of shape (n,) or
        (n, nrhs), all columns in one dgbtrs call; b is left as it is, or
        with overwrite_b solved in place, where it must be float64 and
        Fortran-ordered (_lapack.gbtrs)."""
        if not overwrite_b:
            b = np.array(b, dtype=float, order="F")
        x, _ = _lapack.gbtrs(self.lu, KL, KU, self.ipiv, b, trans)
        return x

    def condition(self, rhs: np.ndarray | None = None) -> float:
        """The 1-norm condition estimate, norm times onenormest's estimate
        of ||A^{-1}||_1 from block solves in place; taken on the first
        call, then read from cond. Above COND_LIMIT, on every call, it
        raises SingularOperator. rhs, a float64 (n,) array, is overwritten
        with A^{-1} rhs: on the first call in the estimate's first block,
        later on its own. onenormest is called as this module's attribute,
        which the benchmark's tracer (bench/tracing.py) counts, so it must
        stay one. Factors without a norm, such as a bare splu's, raise
        ValueError: factorise gives them one."""
        if self.cond is None:
            if self.norm is None:
                raise ValueError("the condition estimate needs the operator's "
                                 "norm: factorise the band with factorise, "
                                 "not splu")
            self.cond = self.norm * onenormest(
                lambda x: self.solve(x, overwrite_b=True),
                lambda x: self.solve(x, trans="T", overwrite_b=True),
                self.lu.shape[1], rhs)
        elif rhs is not None:
            self.solve(rhs, overwrite_b=True)
        if self.cond > COND_LIMIT:
            raise SingularOperator(
                f"radial operator condition estimate exceeds {COND_LIMIT:.1e}")
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


def onenormest(matvec, rmatvec, n: int, rhs: np.ndarray | None = None
               ) -> float:
    """Hager-Higham lower estimate of ||B||_1 for an n x n operator B given
    by x -> B x and x -> B^T x, which take Fortran-ordered (n, k) blocks,
    may overwrite them, and must give each column its single product's
    bits.

    W. W. Hager, SIAM J. Sci. Stat. Comput. 5 (1984) 311, and N. J.
    Higham, ACM TOMS 14 (1988) 381, Algorithm 4.1, step for step as
    LAPACK dlacn2, the estimator dgbcon uses: at most five products with
    B^T and six with B, the last on the alternating-sign vector. The first
    block holds 1/n, e_n and that vector, the first block with B^T the
    signs of B 1/n and of B e_n. So where the first step lands on e_n, as
    on the radial operators, whose Robin row makes e_n B's largest column
    in 1-norm, the next products are in hand; elsewhere the iteration goes
    on one product at a time. rhs, where given, rides in the first block
    and is overwritten with B rhs.
    """
    itmax = 5
    block = np.zeros((n, 3 if rhs is None else 4), order="F")
    block[:, 0] = 1.0 / n
    block[-1, 1] = 1.0
    block[:, 2] = 1.0 + np.arange(n) / max(n - 1, 1)
    block[1::2, 2] *= -1.0
    if rhs is not None:
        block[:, 3] = rhs
    block = matvec(block)
    if rhs is not None:
        rhs[...] = block[:, 3]
    v, last = block[:, 0], block[:, 2]
    est = float(np.sum(np.abs(v)))
    if n == 1:
        return est
    sign = np.where(v >= 0.0, 1.0, -1.0)
    signs = np.empty((n, 2), order="F")
    signs[:, 0] = sign
    signs[:, 1] = np.where(block[:, 1] >= 0.0, 1.0, -1.0)
    ahead = rmatvec(signs)
    j = int(np.argmax(np.abs(ahead[:, 0])))
    hit = j == n - 1  # the first step lands on e_n: its products are in hand
    k = 2
    while True:
        if hit:
            v = block[:, 1]
        else:
            e = np.zeros(n)
            e[j] = 1.0
            v = matvec(e)
        est_old, est = est, float(np.sum(np.abs(v)))
        new_sign = np.where(v >= 0.0, 1.0, -1.0)
        if np.array_equal(new_sign, sign) or est <= est_old:
            break  # repeated sign vector, or cycling
        sign = new_sign
        # rmatvec may overwrite its input, and sign is compared next step
        z = ahead[:, 1] if hit else rmatvec(sign.copy())
        hit = False
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]) or k >= itmax:
            break
        k += 1
    return max(est, 2.0 * float(np.sum(np.abs(last))) / (3 * n))


def _decay_terms(r, dim: int):
    """r as a float array, or a float for a scalar r, and the coefficients
    a_k that decay_series sums (see there), counted at the smallest r. An
    r that is not finite and positive raises ValueError."""
    r = np.asarray(r, dtype=float)
    r_min = float(np.min(r))  # NaN if any r is
    if not (r_min > 0.0 and np.max(r) < math.inf):
        raise ValueError("decay_series needs every r finite and positive")
    x = 1.0 / r_min
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
    return (float(r) if r.ndim == 0 else r), coeffs


def _horner(coeffs: list, x):
    """sum_k coeffs[k] x^k by Horner: a float for a float x, else an array
    like x."""
    acc = x * 0.0 + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def decay_series(r, dim: int):
    """S(r) and S'(r) of K_nu(r) = sqrt(pi/(2r)) e^{-r} S(r), nu = (dim-2)/2,
    as arrays like r, or floats for a scalar r.

    S(r) = sum_k a_k r^{-k}, a_0 = 1, a_k = a_{k-1} ((dim-2)^2 - (2k-1)^2)
    / (8k) (DLMF 10.40.2), summed by Horner in 1/r. The terms are counted at
    the smallest r: the sum stops at the first term below DECAY_SERIES_TOL,
    or, where the terms start to grow first (the series is asymptotic for
    even dim), at the smallest term, which then enters at half weight, the
    leading part of the remainder of an alternating tail; at r = 13 that
    puts S within 5e-15 of scipy's kve, against 4e-13 with the whole term.
    For odd dim the series ends: S = 1 for dim = 1 and 3, 1 + 1/r for 5.
    An r that is not finite and positive raises ValueError.
    """
    r, coeffs = _decay_terms(r, dim)
    x = 1.0 / r
    dcoeffs = [k * a for k, a in enumerate(coeffs)][1:] or [0.0]
    return _horner(coeffs, x), -x * x * _horner(dcoeffs, x)


def _decay_s(r, dim: int, sign: float = 1.0):
    """S(r) of decay_series alone, bit for bit; with sign -1.0, S(-r), the
    series of I_nu(r) = e^r S(-r) / sqrt(2 pi r) (DLMF 10.40.1)."""
    r, coeffs = _decay_terms(r, dim)
    return _horner(coeffs, sign / r)


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
    """L x for L in radial_operator's band storage and a finite x, one
    diagonal at a time: offsets -2 to 2 in full, then the two below, which
    hold only the Robin row's far entries L[n, n-3] and L[n, n-4], added
    to y[-1] alone and last, as a sweep of all seven adds them. Each
    product left out is an exact zero."""
    n = len(x)
    y = np.zeros(n)
    for d in range(KU + 3):
        off = KU - d  # column minus row
        if off >= 0:
            y[:n - off] += ab[d, off:] * x[off:]
        else:
            y[-off:] += ab[d, :n + off] * x[:n + off]
    y[-1] += ab[KU + 3, -4] * x[-4]
    y[-1] += ab[KU + 4, -5] * x[-5]
    return y


def solve_radial_linear(factors: BandLU, rhs: np.ndarray) -> np.ndarray:
    """Solve L w = rhs with the decay boundary row (rhs forced to 0 there),
    for factors of L from factorise, such as a ground state's L+.

    A non-finite rhs, or factors without factorise's norm, raise
    ValueError. Above COND_LIMIT the factors'
    condition estimate (BandLU.condition, taken once per factorisation)
    raises SingularOperator. Where the estimate is not yet taken, rhs
    rides in its first block solve.
    """
    b = np.array(rhs, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("rhs must be finite")
    b[-1] = 0.0
    factors.condition(b)
    return b


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
    Every Jacobian, and then L+, is written into the work array L[1] was
    assembled in, and factorised there: the first over L[1] itself, each
    later one from a copy of L[1] over the factors before it. |u|^{p-1}
    is formed once per iterate, for its residual and its Jacobian.
    """
    ab = radial_operator(r, np.ones_like(r), dim)
    base = ab.copy()
    u = u0.copy()
    reuse = written = False  # written: ab no longer holds L[1]
    for _ in range(NEWTON_MAX_ITER):
        power = np.abs(u) ** (p - 1)
        F = band_matvec(base, u)
        F[:-1] -= power[:-1] * u[:-1]
        if np.max(np.abs(F[:-1])) < NEWTON_TOL and abs(F[-1]) < NEWTON_TOL:
            break
        if not reuse:
            if written:
                ab[...] = base
            lu = splu(_jacobian(ab, power, p).base)
            written = True
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
    if written:
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
    return _ode_residual(r, vals, d1_six(vals, r[1] - r[0]), dim, coeff, rhs)


def _ode_residual(r: np.ndarray, vals: np.ndarray, d1: np.ndarray, dim: int,
                  coeff: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """radial_ode_residual with d1 = d1_six(vals, h) given."""
    d2 = d2_six(vals, r[1] - r[0])
    fric = np.empty_like(d1)
    np.divide(d1[1:], r[1:], out=fric[1:])
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
