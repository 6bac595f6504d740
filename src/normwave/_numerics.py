"""Composite Simpson, Brent's root-finder and a cubic Hermite evaluator.

Each follows scipy's arithmetic operation for operation, so results are
bit-identical to ``scipy.integrate.simpson`` (1-D, nodes given),
``scipy.optimize.brentq`` and ``scipy.interpolate.CubicHermiteSpline``.
They live here so that importing normwave loads only numpy: importing
scipy.integrate, scipy.optimize or scipy.interpolate takes about as long as
numpy and scipy.linalg together, and a command-line run pays for every import
anew. (scipy.linalg is imported on first use, by the 1D Newton solve and by
the radial solver's band LU; no module loads scipy.sparse, and the Theta
quadrature is Gauss-Legendre in boundary_layer.py.) The bit-equality holds
against numpy 2.4.6 and scipy 1.17.1, the versions CI pins.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["simpson", "brentq", "CubicHermite"]


def simpson(y, x) -> np.float64:
    """∫ y dx by composite Simpson over the nodes x (at least three).

    Pairs of panels use the nonuniform three-point weights; with an odd
    panel count the last panel gets Cartwright's correction. Returns a numpy
    float64, as scipy does.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y)
    if n < 3 or len(x) != n:
        raise ValueError("simpson needs at least three nodes and one y per node")
    m = n if n % 2 else n - 1  # nodes covered by whole pairs of panels
    h = np.diff(x[:m])
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:m - 2:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:m - 1:2] * (hsum * (hsum / hprod))
                        + y[2:m:2] * (2.0 - h0divh1))
    result = np.sum(tmp)
    if m < n:
        # 1-element arrays keep the powers on numpy's array loops, as in scipy
        h0, h1 = np.diff(x[-3:])[:, None]
        alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
        beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
        eta = h1 ** 3 / (6 * h0 * (h0 + h1))
        result += (alpha * y[-1] + beta * y[-2] - eta * y[-3])[0]
    return result


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
