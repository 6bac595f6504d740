"""Composite and cumulative Simpson, Brent's root-finder and a cubic
Hermite evaluator.

``simpson`` is the one quadrature of every mass and moment in normwave: the
composite rule on a uniform grid with an even panel count. The other three
follow scipy's arithmetic operation for operation, so results are
bit-identical to ``scipy.integrate.cumulative_simpson`` (1-D, nodes given),
``scipy.optimize.brentq`` and ``scipy.interpolate.CubicHermiteSpline``.
They live here so that importing normwave loads only numpy: importing
scipy.integrate, scipy.optimize or scipy.interpolate takes about as long as
numpy and scipy's LAPACK wrappers together, and a command-line run pays for
every import anew. (The 1D Newton solve and the radial band LU call LAPACK
in numpy's own OpenBLAS, see _lapack.py, and the Theta quadrature is
Gauss-Legendre in boundary_layer.py.) The bit-equality holds against
numpy 2.4.6 and scipy 1.17.1, the versions CI pins.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["simpson", "cumulative_simpson", "brentq", "CubicHermite"]


def simpson(y, h: float) -> float:
    """∫ y by composite Simpson at nodes h apart:
    (h/3)(y₀ + yₙ + 4Σodd + 2Σeven) over an even panel count n.

    The sums are numpy's pairwise sums, whose order is fixed, so the result
    does not depend on any thread count. An even number of nodes, or fewer
    than three, raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 3 or len(y) % 2 == 0:
        raise ValueError(f"simpson needs an even panel count, at least two "
                         f"(got {len(y) - 1})")
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum()
                            + 2.0 * y[2:-1:2].sum()))


def _simpson_first_panels(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """∫ y over the first panel of each three-node window, from the
    quadratic through the window (Cartwright's eq. 8)."""
    x21, x32 = dx[:-1], dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2]
                      + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      - x21x21_x31x32 * y[2:])


def cumulative_simpson(y, x) -> np.ndarray:
    """∫_{x_0}^{x_i} y dx for i = 1 .. n-1 over the nodes x (at least
    three, strictly increasing).

    Each panel's integral comes from the quadratic through it and one
    neighbour, taken alternately from the left and the right window; the
    last panel always from the left one. The running sum of the panels is
    the result, one element shorter than y, as scipy returns it.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)
    if n < 3 or len(x) != n:
        raise ValueError("cumulative_simpson needs at least three nodes and "
                         "one y per node")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    forward = _simpson_first_panels(y, dx)
    backward = _simpson_first_panels(y[::-1], dx[::-1])[::-1]
    panels = np.empty(n - 1)
    panels[:-1:2] = forward[::2]
    panels[1::2] = backward[::2]
    panels[-1] = backward[-1]
    return np.cumsum(panels)


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = 8.881784197001252e-16, maxiter: int = 100,
           ftol: float = 0.0) -> float:
    """Root of f in [a, b] by Brent's method (scipy's brentq.c, line by line).

    ftol (not in scipy) also stops at the first point with |f| <= ftol; at
    its default 0 that is scipy's exact-zero stop, so results stay
    bit-identical to scipy's. Raises ValueError when f(a) and f(b) have the
    same sign or f returns NaN, and RuntimeError after maxiter iterations,
    with scipy's messages.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if abs(fpre) <= ftol:
        return xpre
    if abs(fcur) <= ftol:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if abs(fcur) <= ftol or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


class CubicHermite:
    """C^1 piecewise cubic through (x, y) with slopes dydx at the nodes.

    Outside [x[0], x[-1]] the end cubics are extrapolated. Coefficients and
    evaluation order are those of scipy's CubicHermiteSpline and PPoly.
    """

    def __init__(self, x, y, dydx):
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dydx = np.asarray(dydx, dtype=float)
        dx = np.diff(self.x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self.c = (t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])

    def __call__(self, xp):
        xp = np.asarray(xp, dtype=float)
        i = np.clip(np.searchsorted(self.x, xp, side="right") - 1,
                    0, len(self.x) - 2)
        s = xp - self.x[i]
        c0, c1, c2, c3 = (c[i] for c in self.c)
        z = s
        res = 0.0 + c3 + c2 * z
        z = z * s
        res = res + c1 * z
        z = z * s
        return res + c0 * z
