"""Correction profiles W of the linearized radial problem with source r^2 U.

W solves

    -W'' - (N-1)/r W' + W - p U^{p-1} W = r^2 U(r),    W'(0) = 0,  W ~ decay,

and feeds the constant m_frak = (1/2N) ∫_{R^N} U W, which controls the
fourth-order mass correction of concentrating solutions under a potential.

Two independent routes are provided for N = 1:

* a direct fourth-order collocation solve of the boundary-value problem;
* a factorization oracle writing W(r) = c(r) U'(r), where

      c'(r) = (1 / U'(r)^2) ∫_r^∞ s^2 U(s) U'(s) ds,

  integrated by quadrature alone, with the even branch pinned by removing
  the 1/r singularity of c and the center value obtained from the limit
  W(0) = ∫_0^∞ s^2 U U' ds / (-U''(0)).

Only the radial source |y|^2 U is ever solved: the anisotropic sources
appearing in the full ansatz reduce to it, with the Laplacian of the
potential multiplying m_frak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import radial
from ._numerics import CubicHermite, brentq, cumulative_simpson
from .errors import ZeroCountMismatch
from .groundstate import (GroundState, ProblemParams, RadialProfile,
                          linearization)

__all__ = [
    "CorrectionProfile",
    "solve_linearized_radial",
    "correction_profile",
    "compute_m_frak",
    "factorization_oracle_1d",
    "oracle_c_prime",
    "w_zero_locate",
    "linearized_residual",
]

ORACLE_EXTRA = 20.0  # the oracle's fine grid reaches this far past R
W_ZERO_XTOL = 1e-10  # absolute tolerance on the zero of W


@dataclass
class CorrectionProfile:
    params: ProblemParams
    profile: RadialProfile
    m_frak: float
    w_zero: Optional[float] = None


def solve_linearized_radial(gs: GroundState, rhs) -> RadialProfile:
    """Decaying solution of the linearized radial problem with source rhs.

    rhs holds samples on the ground-state grid. The solve uses the ground
    state's factors of L+ (groundstate.linearization), so its far field is
    the ground state's Robin row W'(R) + beta W(R) = 0 (radial's module
    docstring), which for N = 1 is W'(R) + W(R) = 0.
    """
    prof = gs.profile
    r = prof.nodes
    b = np.asarray(rhs, dtype=float)
    if b.shape != r.shape:
        raise ValueError("rhs must be sampled on the ground-state grid")
    w = radial.solve_radial_linear(linearization(gs), b)
    dw = radial.d1_six(w, prof.spacing)
    dw[-3:] = -w[-3:]  # tail model derivative in the one-sided zone
    return RadialProfile(r, w, dw, tail_rate=-1.0)


def linearized_residual(gs: GroundState, w: RadialProfile,
                        rhs: np.ndarray) -> float:
    """Independent max-norm residual of the linearized equation, up to
    radial.RESIDUAL_R_CAP."""
    r = gs.profile.nodes
    q = 1.0 - gs.params.p * np.abs(gs.profile.values) ** (gs.params.p - 1)
    res = radial.radial_ode_residual(r, w.values, gs.params.dim, q, rhs)
    return radial.residual_max(r, res)


def compute_m_frak(gs: GroundState, w: RadialProfile) -> float:
    """m_frak = (1/2N) ∫_{R^N} U W by radial quadrature with tail correction."""
    total = radial.radial_quadrature(gs.profile.nodes,
                                     gs.profile.values * w.values,
                                     gs.params.dim, tail_decay=2.0)
    return total / (2.0 * gs.params.dim)


def correction_profile(gs: GroundState) -> CorrectionProfile:
    """Solve with the radial source r^2 U and package the derived constants."""
    r = gs.profile.nodes
    w = solve_linearized_radial(gs, r ** 2 * gs.profile.values)
    m = compute_m_frak(gs, w)
    try:
        zero = w_zero_locate(w)
    except ZeroCountMismatch:
        zero = None
    return CorrectionProfile(gs.params, w, m, zero)


# -- factorization oracle (N = 1) -----------------------------------------------

def _fine_grid(gs: GroundState) -> np.ndarray:
    # refine the profile grid 4x so its nodes are an exact subset, and
    # reach ORACLE_EXTRA further into the tail
    grid = gs.profile.nodes
    h = grid[1] - grid[0]
    r_max = grid[-1] + ORACLE_EXTRA
    n = int(round(r_max / (h / 4.0)))
    n += n % 2
    return np.linspace(0.0, r_max, n + 1)


def _cumulative(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """∫_{s_0}^{s_i} f at every node, by cumulative Simpson."""
    return np.concatenate([[0.0], cumulative_simpson(f, x=s)])


def _oracle_inner(gs: GroundState) -> tuple[np.ndarray, np.ndarray]:
    """The fine grid s and ∫_{s_i}^{s_max} s^2 U U' ds at every node.

    Accumulating from the decaying end keeps the exponentially small suffix
    values at full relative precision (a forward cumulative saturates).
    """
    if gs.params.dim != 1 or gs.u_exact is None:
        raise ValueError("factorization oracle requires the closed-form N=1 state")
    s = _fine_grid(gs)
    f = s ** 2 * gs.u_exact(s) * gs.du_exact(s)
    return s, _cumulative(f[::-1], s)[::-1]


def oracle_c_prime(gs: GroundState, r) -> np.ndarray:
    """c'(r) of the factorization W = c U', from the explicit inner integral."""
    s, suffix = _oracle_inner(gs)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    inner = np.interp(r, s, suffix)  # tail beyond s[-1] negligible
    return inner / gs.du_exact(r) ** 2


def factorization_oracle_1d(gs: GroundState) -> CorrectionProfile:
    """Build W by quadrature alone (N = 1), independent of the BVP solve."""
    s, suffix = _oracle_inner(gs)
    p = gs.params.p
    u0 = float(gs.u_exact(0.0))
    u0pp = u0 - u0 ** p                     # U''(0) from the equation at r = 0
    grid = gs.profile.nodes
    I0 = suffix[0]                          # ∫_0^∞ s^2 U U' ds  (negative)
    w_center = I0 / (-u0pp)

    def inner(rv):
        return np.interp(rv, s, suffix)

    # regular part of c': the 1/r^2 singularity removed; its r->0 limit
    # follows from U''''(0) = (1 - p U^{p-1}(0)) U''(0).
    u0q = (1.0 - p * u0 ** (p - 1)) * u0pp
    phi_limit = -I0 * u0q / (3.0 * u0pp ** 3)
    sf = s[1:]
    phi_reg = inner(sf) / gs.du_exact(sf) ** 2 - I0 / (u0pp ** 2 * sf ** 2)
    phi_reg = np.concatenate([[phi_limit], phi_reg])
    cum_phi = _cumulative(phi_reg, s)

    rr = grid[1:]
    c_vals = -I0 / (u0pp ** 2 * rr) + np.interp(rr, s, cum_phi)
    w_vals = np.concatenate([[w_center], c_vals * gs.du_exact(rr)])
    # W' = c' U' + c U'' away from the origin; W'(0) = 0 for the even branch
    cp = inner(rr) / gs.du_exact(rr) ** 2
    upp = gs.d2u_exact(rr)
    dw = np.concatenate([[0.0], cp * gs.du_exact(rr) + c_vals * upp])
    prof = RadialProfile(grid, w_vals, dw, tail_rate=-1.0)
    return CorrectionProfile(gs.params, prof, compute_m_frak(gs, prof),
                             w_zero_locate(prof))


def w_zero_locate(w: RadialProfile) -> float:
    """Unique sign change of W, refined by Brent's method on the C^1
    interpolant to W_ZERO_XTOL.

    The interpolant is built on the bracketing nodes idx, idx + 1 and the
    node after them only: on [x_idx, x_idx+1] its cubic is the full grid's,
    and the right end evaluates at s = 0 in the next interval, as on the
    full grid, so the zero is the same bit for bit."""
    vals = w.values
    mask = np.abs(vals) > 1e-13
    signs = np.sign(vals[mask])
    flips = np.count_nonzero(np.diff(signs))
    if flips != 1:
        raise ZeroCountMismatch(f"expected exactly one sign change, found {flips}")
    idx = np.where(np.diff(np.sign(vals)) != 0)[0][0]
    near = slice(idx, idx + 3)
    spline = CubicHermite(w.nodes[near], vals[near], w.dvalues[near])
    return float(brentq(spline, w.nodes[idx], w.nodes[idx + 1],
                        xtol=W_ZERO_XTOL, rtol=8.9e-16))
