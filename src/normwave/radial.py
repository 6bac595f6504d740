"""Finite-difference machinery for radial two-point problems on [0, R].

All radial profiles live on uniform grids r_i = i*h. Operators act on even
functions of r (smooth radial functions), so the node at r=0 is handled with
the symmetric stencil and ghost nodes are filled by even reflection.

The discrete operator implemented here is

    L[q] w  =  -w'' - (dim-1)/r * w' + q(r) * w

with a fourth-order interior discretization, the symmetric limit
-dim * w''(0) + q(0) w(0) at the origin, and a Robin far-field row
w'(R) + robin_const * w(R) = 0 modelling exponential decay.

scipy.sparse is imported by the functions that assemble or factorise L, on
their first call, so that importing normwave (and every command that never
solves a radial problem) does without it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence, SingularOperator

__all__ = [
    "uniform_grid",
    "radial_operator",
    "solve_radial_linear",
    "radial_newton",
    "d1_six",
    "d2_six",
    "radial_ode_residual",
    "surface_area",
    "radial_quadrature",
    "residual_max",
]

NEWTON_TOL = 1e-12  # radial_newton's residual stop
COND_LIMIT = 1e14   # solve_radial_linear refuses a worse-conditioned operator
RESIDUAL_R_CAP = 35.0  # residual checks skip the last r, deep in the tail


def uniform_grid(r_max: float, spacing: float) -> np.ndarray:
    """Uniform grid on [0, r_max] with about the requested spacing.

    The interval count is rounded up to an even number so composite Simpson
    applies directly.
    """
    n = int(round(r_max / spacing))
    n += n % 2
    if n < 16:
        raise ValueError("grid too short")
    return np.linspace(0.0, r_max, n + 1)


def splu(A):
    """scipy.sparse.linalg.splu, imported on the first call."""
    from scipy.sparse.linalg import splu as scipy_splu
    return scipy_splu(A)


def onenormest(A) -> float:
    """scipy.sparse.linalg.onenormest, imported on the first call."""
    from scipy.sparse.linalg import onenormest as scipy_onenormest
    return scipy_onenormest(A)


def radial_operator(r: np.ndarray, q: np.ndarray, dim: int,
                    robin_const: float | None = None) -> csc_matrix:
    """Assemble L[q] as a sparse matrix (see module docstring for rows)."""
    from scipy.sparse import csc_matrix
    n = len(r) - 1
    h = r[1] - r[0]
    if robin_const is None:
        robin_const = 1.0 + (dim - 1) / (2.0 * r[-1])
    rows, cols, vals = [], [], []

    def put(i, j, v):
        rows.append(np.broadcast_to(i, np.shape(v)))
        cols.append(np.broadcast_to(j, np.shape(v)))
        vals.append(v)

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

    # bulk rows 2..n-2: standard five-point fourth-order stencils.
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    idx = np.arange(2, n - 1)
    fric = (dim - 1) / r[idx]
    for k, off in enumerate(range(-2, 3)):
        band = -c2[k] - fric * c1[k]
        if off == 0:
            band = band + q[idx]
        put(idx, idx + off, band)

    # i = n-1: second-order fallback (sits deep in the exponential tail).
    put(n - 1, np.arange(n - 2, n + 1), np.array([
        -1.0 / (h * h) + (dim - 1) / r[n - 1] / (2 * h),
        2.0 / (h * h) + q[n - 1],
        -1.0 / (h * h) - (dim - 1) / r[n - 1] / (2 * h)]))

    # i = n: Robin decay row, one-sided fourth-order first derivative.
    cr = np.array([25.0, -48.0, 36.0, -16.0, 3.0]) / (12 * h)
    cr[0] += robin_const
    put(n, np.arange(n, n - 5, -1), cr)

    return csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n + 1, n + 1))


def _condition_estimate(A: csc_matrix, lu) -> float:
    from scipy.sparse.linalg import LinearOperator
    inv = LinearOperator(A.shape, matvec=lu.solve,
                         rmatvec=lambda x: lu.solve(x, trans="T"))
    return onenormest(A) * onenormest(inv)


def solve_radial_linear(r: np.ndarray, q: np.ndarray, dim: int, rhs: np.ndarray,
                        robin_const: float | None = None) -> np.ndarray:
    """Solve L[q] w = rhs with the decay boundary row (rhs forced to 0 there)."""
    A = radial_operator(r, q, dim, robin_const)
    lu = splu(A)
    if _condition_estimate(A, lu) > COND_LIMIT:
        raise SingularOperator(
            f"radial operator condition estimate exceeds {COND_LIMIT:.1e}")
    b = np.asarray(rhs, dtype=float).copy()
    b[-1] = 0.0
    return lu.solve(b)


def radial_newton(r: np.ndarray, dim: int, p: float, u0: np.ndarray,
                  max_iter: int = 60) -> np.ndarray:
    """Newton polish for -u'' - (dim-1)/r u' + u = |u|^{p-1} u with decay tail.

    Stops when the residual is below NEWTON_TOL, or when a Newton step is at
    rounding level, ||du||_inf <= 1e-10 * max(1, ||u||_inf): the residual
    of the fourth-order system bottoms out near 1e-9 on fine grids, above
    NEWTON_TOL, while the step keeps shrinking (Deuflhard's step-norm
    test). Raises NoConvergence after max_iter steps.

    The operator L[1] is assembled once; the Jacobian L[1 - p|u|^{p-1}]
    differs from it only on the diagonal of the interior rows.
    """
    from scipy.sparse import diags
    base = radial_operator(r, np.ones_like(r), dim)
    u = u0.copy()
    for _ in range(max_iter):
        F = base @ u
        F[:-1] -= np.abs(u[:-1]) ** (p - 1) * u[:-1]
        if np.max(np.abs(F[:-1])) < NEWTON_TOL and abs(F[-1]) < NEWTON_TOL:
            return u
        shift = p * np.abs(u) ** (p - 1)
        shift[-1] = 0.0  # the Robin row carries no potential
        du = splu(base - diags(shift)).solve(-F)
        u = u + du
        if np.max(np.abs(du)) <= 1e-10 * max(1.0, np.max(np.abs(u))):
            return u
    raise NoConvergence(f"radial Newton did not converge in {max_iter} steps")


# -- high-order difference stencils (independent residual checks) ------------

def _stencil_six(vals: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A seven-point centred stencil on an even function, the ghost nodes at
    r < 0 filled by reflection; the last three entries are NaN."""
    g = np.concatenate([vals[3:0:-1], vals])
    out = np.full_like(vals, np.nan)
    m = len(vals) - 3
    acc = np.zeros(m)
    for k in range(7):
        acc += c[k] * g[k:k + m]
    out[:m] = acc
    return out


def d1_six(vals: np.ndarray, h: float) -> np.ndarray:
    """Sixth-order first derivative of an even function; the last three
    entries are NaN (one-sided zone)."""
    out = _stencil_six(vals, np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0])
                       / (60 * h))
    out[0] = 0.0  # exact by symmetry; the stencil cancels only to rounding
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
    three nodes (one-sided zone, deep in the tail) are returned as NaN and
    should be excluded from max-norm checks.
    """
    h = r[1] - r[0]
    d2 = d2_six(vals, h)
    d1 = d1_six(vals, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        fric = np.where(r > 0, d1 / np.where(r > 0, r, 1.0), 0.0)
    fric[0] = d2[0]  # limit w'(r)/r -> w''(0)
    return -d2 - (dim - 1) * fric + coeff * vals - rhs


def residual_max(r: np.ndarray, res: np.ndarray) -> float:
    """Max-norm of a residual over its finite entries with r <= RESIDUAL_R_CAP."""
    keep = (r <= RESIDUAL_R_CAP) & np.isfinite(res)
    return float(np.max(np.abs(res[keep])))


# -- quadrature ---------------------------------------------------------------

def surface_area(dim: int) -> float:
    """Surface measure of the unit sphere S^{dim-1} (2 for dim=1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def radial_quadrature(r: np.ndarray, f: np.ndarray, dim: int,
                      tail_decay: float = 2.0, rule: str = "simpson") -> float:
    """Integral of f(|x|) over R^dim, by composite rule plus exponential tail.

    rule="trapezoid" applies the Euler-Maclaurin endpoint correction
    -(h^2/12) (g'(R) - g'(0)), which restores O(h^4) accuracy when the
    integrand g = f r^{dim-1} has a nonzero derivative at r=0 (dim = 2).
    """
    h = r[1] - r[0]
    g = f * r ** (dim - 1)
    if rule == "simpson":
        if len(r) % 2 == 0:
            raise ValueError("simpson rule needs an even number of intervals")
        w = np.ones_like(g)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        core = h / 3.0 * np.dot(w, g)
    elif rule == "trapezoid":
        core = h * (np.sum(g) - 0.5 * (g[0] + g[-1]))
        dg0 = np.dot([-25.0, 48.0, -36.0, 16.0, -3.0], g[:5]) / (12 * h)
        dgR = np.dot([25.0, -48.0, 36.0, -16.0, 3.0], g[-1:-6:-1]) / (12 * h)
        core -= h * h / 12.0 * (dgR - dg0)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    # the tail: ∫_R^∞ g(R) e^{-tail_decay (r - R)} dr
    return surface_area(dim) * (core + g[-1] / tail_decay)
