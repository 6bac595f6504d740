"""Explicit 1D boundary-layer functions on (-1, 1) at the critical exponent.

With p = 5 the ground state is U(x) = 3^{1/4} (cosh 2x)^{-1/2} and the
boundary correction centered at 0 solves -eps^2 phi'' + phi = 0 with the trace
(Dirichlet) or flux (Neumann) of U(x/eps) on the boundary:

    Dirichlet:  phi(x) = U(1/eps) cosh(x/eps) / cosh(1/eps)   (> 0)
    Neumann:    phi(x) = U'(1/eps) cosh(x/eps) / sinh(1/eps)  (< 0)

The interaction integral

    Theta(eps) = ∫_{-1/eps}^{1/eps} phi(eps*y) U(y) dy

controls the critical mass deficit (mass ≈ 2 sigma0 - 2 Theta). Its leading
term is ±4*sqrt(3) * eps^{-1} e^{-2/eps}; the closed-form antiderivative

    ∫ cosh(y) (cosh 2y)^{-1/2} dy  (symmetric)  =  sqrt(2) asinh(sqrt(2) sinh y)

pins the rate analytically and the quadrature is checked against it. The
quadrature is composite Gauss-Legendre on the even, smooth integrand (numpy
only; no scipy.integrate). Below eps = 2/708.4 the factor e^{-2/eps} is no
longer a normal double and the layer underflows, so every function here
rejects such eps.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bvp import DIRICHLET, NEUMANN, THETA_RATE_CONSTANT
from .errors import NoConvergence

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
# defined in bvp, whose mass root-find starts from that law) and of
# |phi(0)| ~ c e^{-2/eps}
CENTER_RATE_CONSTANT = 2.0 ** 1.5 * 3.0 ** 0.25

# smallest eps at which e^{-2/eps} is still a normal double (about 0.002823)
EPS_FLOOR = 2.0 / -math.log(sys.float_info.min)
THETA_RTOL = 1e-13  # theta_quadrature's bound on |I(h) - I(h/2)| / |I(h/2)|
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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


def _symmetric_integral(y_max: float, panels: int) -> float:
    """∫_{-y_max}^{y_max} cosh(y) U(y) dy by 16-point Gauss-Legendre on
    `panels` equal panels of [0, y_max], the integrand being even.

    cosh(y) U(y) = 3^{1/4} (1 + a) / sqrt(2 (1 + a^2)) with a = e^{-2y}, a
    form that cannot overflow.
    """
    width = y_max / panels
    y = (np.arange(panels)[:, None] + 0.5 * (_GL_NODES + 1.0)) * width
    a = np.exp(-2.0 * y)
    g = 3.0 ** 0.25 * (1.0 + a) / np.sqrt(2.0 * (1.0 + a * a))
    return width * float(np.sum(g @ _GL_WEIGHTS))


def theta_quadrature(eps: float, bc: str) -> float:
    """Interaction integral by composite Gauss-Legendre quadrature.

    phi(eps y) = pref * cosh(y), so Theta = pref * ∫ cosh(y) U(y) dy over
    |y| <= 1/eps. The integral is taken on about 1/eps unit panels and again
    on halved panels; the halved-panel value is returned, and NoConvergence
    is raised if the two differ by more than THETA_RTOL relative.
    """
    _check(eps, bc)
    pref = 2.0 * _trace_amplitude(eps, bc) * math.exp(-2.0 / eps)
    y_max = 1.0 / eps
    panels = math.ceil(y_max)
    coarse = _symmetric_integral(y_max, panels)
    fine = _symmetric_integral(y_max, 2 * panels)
    if abs(coarse - fine) > THETA_RTOL * fine:
        raise NoConvergence(f"Theta quadrature at eps={eps}: panel halving "
                            f"changed it by {abs(coarse - fine) / fine:.1e}")
    return pref * fine


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
