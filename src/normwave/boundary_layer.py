"""Explicit 1D boundary-layer functions on (-1, 1) at the critical exponent.

With p = 5 the ground state is U(x) = 3^{1/4} (cosh 2x)^{-1/2} and the
boundary correction centered at 0 solves -eps^2 phi'' + phi = 0 with the trace
(Dirichlet) or flux (Neumann) of U(x/eps) on the boundary:

    Dirichlet:  phi(x) = U(1/eps) cosh(x/eps) / cosh(1/eps)   (> 0)
    Neumann:    phi(x) = U'(1/eps) cosh(x/eps) / sinh(1/eps)  (< 0)

The interaction integral

    Theta(eps) = ∫_{-1/eps}^{1/eps} phi(eps*y) U(y) dy

controls the critical mass deficit (mass ≈ 2 sigma0 - 2 Theta). Its leading
term is ±4*sqrt(3) * eps^{-1} e^{-2/eps}. Since phi(eps y) =
phi(0) cosh(y), Theta is phi(0) 3^{1/4} times the symmetric antiderivative

    ∫ cosh(y) (cosh 2y)^{-1/2} dy  (symmetric)  =  sqrt(2) asinh(sqrt(2) sinh y)

and needs no quadrature (numpy only). Below eps = 2/708.4 the factor
e^{-2/eps} is no longer a normal double and the layer underflows, so every
function here rejects such eps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._constants import DIRICHLET, NEUMANN, THETA_RATE_CONSTANT

__all__ = [
    "BoundaryLayer",
    "phi_explicit",
    "theta_quadrature",
    "theta_asymptotic",
    "theta_antiderivative",
    "viscosity_rate",
    "make_boundary_layer",
    "THETA_RATE_CONSTANT",
    "CENTER_RATE_CONSTANT",
]

# leading coefficients of |Theta| ~ C/eps e^{-2/eps} (THETA_RATE_CONSTANT,
# shared with bvp, whose mass root-find starts from that law) and of
# |phi(0)| ~ c e^{-2/eps}
CENTER_RATE_CONSTANT = 2.0 ** 1.5 * 3.0 ** 0.25

# smallest eps at which e^{-2/eps} is still a normal double (about 0.002823)
EPS_FLOOR = 2.0 / -math.log(sys.float_info.min)


def _trace_amplitude(eps: float, bc: str) -> float:
    """C such that phi(x) = C e^{(|x|-2)/eps} (1 + e^{-2|x|/eps}).

    This is the layer prefactor with all growing exponentials cancelled
    analytically, so it stays finite for arbitrarily small eps.
    """
    e2 = math.exp(-2.0 / eps)
    e4 = e2 * e2
    base = math.sqrt(2.0) * 3.0 ** 0.25
    if bc == DIRICHLET:
        return base / ((1.0 + e4) ** 0.5 * (1.0 + e2))
    return -base * (1.0 - e4) / ((1.0 + e4) ** 1.5 * (1.0 - e2))


def _check(eps: float, bc: str) -> None:
    if not 0.0 < eps <= 0.5:
        raise ValueError("epsilon must lie in (0, 0.5]")
    if eps < EPS_FLOOR:
        raise ValueError(f"epsilon must be at least {EPS_FLOOR:.4g}: below "
                         f"it the layer factor e^(-2/epsilon) underflows")
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"unknown boundary condition {bc!r}")


def phi_explicit(eps: float, bc: str, x) -> np.ndarray:
    """Evaluate the explicit boundary correction at x in [-1, 1].

    The cosh ratio is combined into a single decaying exponential, so the
    evaluation stays finite for arbitrarily small eps.
    """
    _check(eps, bc)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("x must lie in [-1, 1]")
    ax = np.abs(x)
    return _trace_amplitude(eps, bc) * np.exp((ax - 2.0) / eps) \
        * (1.0 + np.exp(-2.0 * ax / eps))


def theta_antiderivative(y) -> np.ndarray:
    """Symmetric antiderivative: ∫_{-y}^{y} cosh(t) (cosh 2t)^{-1/2} dt."""
    y = np.asarray(y, dtype=float)
    safe = np.minimum(np.abs(y), 350.0)
    inner = np.sqrt(2.0) * np.arcsinh(np.sqrt(2.0) * np.sinh(safe))
    # beyond the sinh overflow range: asinh(sqrt(2) sinh y) = y + ln(2)/2 - O(e^{-2y})
    far = np.sqrt(2.0) * (np.abs(y) + 0.5 * math.log(2.0))
    return np.sign(y) * np.where(np.abs(y) <= 350.0, inner, far)


def theta_asymptotic(eps: float, bc: str) -> float:
    """Leading term of the interaction integral: +4*sqrt(3)/eps e^{-2/eps}
    for Dirichlet, the negative for Neumann."""
    _check(eps, bc)
    sign = 1.0 if bc == DIRICHLET else -1.0
    return sign * THETA_RATE_CONSTANT / eps * math.exp(-2.0 / eps)


def theta_quadrature(eps: float, bc: str) -> float:
    """Interaction integral in closed form.

    phi(eps y) = pref * cosh(y) with pref = phi(0), and U(y) = 3^{1/4}
    (cosh 2y)^{-1/2}, so Theta = pref * 3^{1/4} * theta_antiderivative(1/eps).
    """
    _check(eps, bc)
    pref = 2.0 * _trace_amplitude(eps, bc) * math.exp(-2.0 / eps)
    return pref * 3.0 ** 0.25 * float(theta_antiderivative(1.0 / eps))


def viscosity_rate(eps: float, bc: str) -> float:
    """-eps * ln |phi(0)|; tends to twice the distance of 0 from the boundary."""
    _check(eps, bc)
    return -eps * math.log(abs(float(phi_explicit(eps, bc, 0.0))))


@dataclass(frozen=True)
class BoundaryLayer:
    epsilon: float
    bc: str
    center_value: float
    theta: float


def make_boundary_layer(eps: float, bc: str) -> BoundaryLayer:
    return BoundaryLayer(eps, bc, float(phi_explicit(eps, bc, 0.0)),
                         theta_quadrature(eps, bc))
