"""Hopf-Cole bridge between mass-normalized waves and quadratic-cost
stationary mean-field-game equilibria.

The ergodic system with quadratic Hamiltonian and aggregative power coupling,

    -nu Δu + |∇u|^2 / 2 = lambda + V(x) - alpha m^q,
    -nu Δm - div(m ∇u)  = 0,          ∫ m = 1,   m > 0,

reduces under  v^2 = alpha^{1/q} m = c e^{-u/nu}  to the single equation
-2 nu^2 Δv + (V + lambda) v = v^{2q+1}. With the dictionary nu = sqrt(2)/2
(fixed: NU), p = 2q + 1, rho = alpha^{1/q} this is exactly the
normalized-wave problem, so equilibria are read off from a positive solve
and vice versa; at any other nu the transform yields no equilibrium.

The Kolmogorov equation is an identity under the transform; its discrete
residual measures pure truncation and refines at second order. Masses are
_numerics.simpson on the uniform nodes: an odd panel count raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import simpson
from .bvp import DomainSpec, NormalizedSolution, assemble_residual
from .errors import NonPositiveDensity
from .groundstate import ProblemParams

__all__ = ["MfgTriple", "to_mfg", "from_mfg", "mfg_residuals", "NU"]

NU = math.sqrt(2.0) / 2.0  # the viscosity that turns -2 nu^2 Δv into -Δv


@dataclass
class MfgTriple:
    spec: DomainSpec
    nodes: np.ndarray
    u_values: np.ndarray       # value function, gauge min u = 0
    m_values: np.ndarray       # player density, unit mass
    lambda_: float
    alpha: float
    q: float
    residual_hjb: float = math.nan
    residual_kolmogorov: float = math.nan
    mass_defect: float = math.nan

    @property
    def rho(self) -> float:
        return self.alpha ** (1.0 / self.q)


def _d1_zero_flux(g: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(g)
    out[1:-1] = (g[2:] - g[:-2]) / (2 * h)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _d2_zero_flux(g: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(g)
    out[1:-1] = (g[:-2] - 2 * g[1:-1] + g[2:]) / (h * h)
    out[0] = (2 * g[1] - 2 * g[0]) / (h * h)
    out[-1] = (2 * g[-2] - 2 * g[-1]) / (h * h)
    return out


def mfg_residuals(triple: MfgTriple):
    """Finite-difference residual arrays of the two coupled equations.

    Boundary rows use zero-flux ghost points for both u and m; the density
    flux m u' is reflected oddly so the divergence row conserves mass.
    """
    x, u, m = triple.nodes, triple.u_values, triple.m_values
    h = x[1] - x[0]
    q, alpha, lam = triple.q, triple.alpha, triple.lambda_
    Vx = triple.spec.V(x)
    du = _d1_zero_flux(u, h)
    r_hjb = -NU * _d2_zero_flux(u, h) + 0.5 * du ** 2 - lam - Vx \
        + alpha * m ** q
    flux = m * du
    div = np.empty_like(flux)
    div[1:-1] = (flux[2:] - flux[:-2]) / (2 * h)
    div[0] = flux[1] / h          # odd reflection of the zero boundary flux
    div[-1] = -flux[-2] / h
    r_kol = -NU * _d2_zero_flux(m, h) - div
    return r_hjb, r_kol


def to_mfg(sol: NormalizedSolution) -> MfgTriple:
    """Map a positive normalized solution (lambda, v) to an equilibrium.

    q = (p - 1)/2 from the dictionary p = 2q + 1, m = v^2 / rho (unit mass
    at the quadrature level), alpha = rho^q, u = -2 NU ln v gauged to
    min u = 0.
    """
    q = (sol.params.p - 1.0) / 2.0
    v = sol.v_values
    if np.min(v) <= 0.0:
        raise NonPositiveDensity("Hopf-Cole needs v > 0 up to the boundary")
    x = sol.nodes
    h = (x[-1] - x[0]) / (len(x) - 1)
    rho = simpson(v ** 2, h)
    m = v ** 2 / rho
    u = -2.0 * NU * np.log(v)
    u = u - np.min(u)
    triple = MfgTriple(spec=sol.spec, nodes=x, u_values=u, m_values=m,
                       lambda_=sol.lambda_, alpha=rho ** q, q=q)
    r_hjb, r_kol = mfg_residuals(triple)
    triple.residual_hjb = float(np.max(np.abs(r_hjb[1:-1])))
    triple.residual_kolmogorov = float(np.max(np.abs(r_kol[1:-1])))
    triple.mass_defect = abs(simpson(m, h) - 1.0)
    return triple


def from_mfg(triple: MfgTriple) -> NormalizedSolution:
    """Invert the transform: v = (alpha^{1/q} m)^{1/2}, rho = alpha^{1/q}."""
    if np.min(triple.m_values) <= 0.0:
        raise NonPositiveDensity("density must be strictly positive")
    if triple.lambda_ <= 0.0:
        raise ValueError("inversion to the rescaled unknown needs lambda > 0")
    p = 2.0 * triple.q + 1.0
    v = np.sqrt(triple.rho * triple.m_values)
    eps = triple.lambda_ ** -0.5
    u = eps ** (2.0 / (p - 1.0)) * v
    x = triple.nodes
    mass = simpson(v ** 2, (x[-1] - x[0]) / (len(x) - 1))
    params = ProblemParams(1, p)
    res = assemble_residual(triple.spec, params, eps, x, u)
    return NormalizedSolution(
        spec=triple.spec, params=params, lambda_=triple.lambda_, epsilon=eps,
        nodes=x, v_values=v, u_values=u, mass=mass,
        residual_inf=float(np.max(np.abs(res))),
        concentration_point=float(x[np.argmax(v)]))
