import math

import numpy as np
import pytest
from scipy.integrate import quad

from normwave import boundary_layer as bl
from normwave.boundary_layer import (CENTER_RATE_CONSTANT, EPS_FLOOR,
                                     THETA_RATE_CONSTANT, make_boundary_layer,
                                     phi_explicit, theta_antiderivative,
                                     theta_asymptotic, theta_quadrature,
                                     viscosity_rate)
from normwave.errors import NoConvergence


def _u5(x):
    return 3.0 ** 0.25 * np.cosh(2.0 * x) ** -0.5


def test_phi_center_value():
    # U(5) / cosh(5) at eps = 0.2
    val = float(phi_explicit(0.2, "dirichlet", 0.0))
    assert val == pytest.approx(_u5(5.0) / np.cosh(5.0), rel=1e-14)
    assert val == pytest.approx(1.6899e-4, rel=1e-4)


def test_phi_boundary_values():
    eps = 0.25
    assert float(phi_explicit(eps, "dirichlet", 1.0)) \
        == pytest.approx(_u5(1 / eps), rel=1e-13)
    assert float(phi_explicit(eps, "dirichlet", -1.0)) \
        == pytest.approx(_u5(1 / eps), rel=1e-13)


def test_phi_neumann_flux():
    # phi'(x) = pref * sinh(x/eps)/eps; at x=1 it equals U'(1/eps)/eps
    eps = 0.2
    du5 = lambda x: -(3 ** 0.25) * np.sinh(2 * x) * np.cosh(2 * x) ** -1.5
    h = 1e-6
    flux = (float(phi_explicit(eps, "neumann", 1.0))
            - float(phi_explicit(eps, "neumann", 1.0 - h))) / h
    assert flux == pytest.approx(du5(1 / eps) / eps, rel=1e-5)


def test_phi_symmetry_and_signs():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, 40)
    for eps in (0.3, 0.15):
        d = phi_explicit(eps, "dirichlet", x)
        n = phi_explicit(eps, "neumann", x)
        assert np.allclose(d, phi_explicit(eps, "dirichlet", -x), rtol=1e-14)
        assert np.allclose(n, phi_explicit(eps, "neumann", -x), rtol=1e-14)
        assert np.all(d > 0)
        assert np.all(n < 0)


def test_phi_center_asymptotic_rate():
    for eps, tol in ((0.2, 2e-4), (0.1, 1e-8), (0.05, 1e-12)):
        ratio = float(phi_explicit(eps, "dirichlet", 0.0)) \
            / (CENTER_RATE_CONSTANT * math.exp(-2.0 / eps))
        assert abs(ratio - 1.0) < tol
        ratio_n = float(phi_explicit(eps, "neumann", 0.0)) \
            / (-CENTER_RATE_CONSTANT * math.exp(-2.0 / eps))
        assert abs(ratio_n - 1.0) < 2e-2 / (1 / eps)


def test_phi_validation():
    with pytest.raises(ValueError):
        phi_explicit(0.7, "dirichlet", 0.0)
    with pytest.raises(ValueError):
        phi_explicit(0.2, "robin", 0.0)
    with pytest.raises(ValueError):
        phi_explicit(0.2, "dirichlet", 1.5)


def test_theta_signs():
    assert theta_quadrature(0.25, "dirichlet") > 0
    assert theta_quadrature(0.25, "neumann") < 0


def test_theta_against_closed_form():
    # prefactor times the exact antiderivative value
    for eps in (0.3, 0.2, 0.1):
        exact = (_u5(1 / eps) / np.cosh(1 / eps)) * 3 ** 0.25 \
            * theta_antiderivative(1 / eps)
        assert theta_quadrature(eps, "dirichlet") \
            == pytest.approx(float(exact), rel=1e-11)


def test_theta_antiderivative_identity():
    for y_max in (2.0, 5.0):
        val, _ = quad(lambda y: math.cosh(y) / math.sqrt(math.cosh(2 * y)),
                      -y_max, y_max, epsabs=1e-15)
        assert val == pytest.approx(float(theta_antiderivative(y_max)),
                                    rel=1e-12)


def test_theta_ratio_to_asymptotic_converges():
    ratios = []
    for eps in (0.3, 0.2, 0.15):
        ratios.append(theta_quadrature(eps, "dirichlet")
                      / theta_asymptotic(eps, "dirichlet"))
    assert all(r > 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))  # monotone to 1
    assert abs(ratios[-1] - 1.0) < 0.25


def test_theta_halving_law():
    # Theta(eps/2)/Theta(eps) ~ 2 e^{-2/eps} within 10% for eps <= 0.2
    for eps in (0.2, 0.16):
        lhs = theta_quadrature(eps / 2, "dirichlet") \
            / theta_quadrature(eps, "dirichlet")
        rhs = 2.0 * math.exp(-2.0 / eps)
        assert abs(lhs / rhs - 1.0) < 0.10


def test_theta_rate_constant_value():
    assert THETA_RATE_CONSTANT == pytest.approx(4.0 * math.sqrt(3.0), rel=0)


def test_exponential_bound():
    # |phi| <= C e^{-1/eps} uniformly with C independent of eps <= 0.3
    x = np.linspace(-1.0, 1.0, 2001)
    for eps in (0.3, 0.2, 0.1, 0.05):
        for bc in ("dirichlet", "neumann"):
            sup = np.max(np.abs(phi_explicit(eps, bc, x)))
            assert sup <= 2.0 * math.exp(-1.0 / eps)


def test_center_value_is_little_o_of_theta():
    # |phi(0)| / Theta <= C eps at eps = 0.3, 0.2, 0.1
    for eps in (0.3, 0.2, 0.1):
        ratio = abs(float(phi_explicit(eps, "dirichlet", 0.0))) \
            / theta_quadrature(eps, "dirichlet")
        assert ratio <= 1.0 * eps


def test_viscosity_rate():
    assert abs(viscosity_rate(0.1, "dirichlet") - 2.0) < 0.2
    sweep = [viscosity_rate(e, "dirichlet") for e in (0.2, 0.15, 0.1, 0.05)]
    assert all(b > a for a, b in zip(sweep, sweep[1:]))
    assert all(v < 2.0 for v in sweep)
    # Dirichlet and Neumann limits coincide
    assert abs(viscosity_rate(0.05, "dirichlet")
               - viscosity_rate(0.05, "neumann")) < 1e-3


def test_phi_deep_epsilon_stays_finite():
    # exponential-form evaluation survives far below the cosh overflow range
    for eps in (0.01, 0.005, 0.003):
        d = float(phi_explicit(eps, "dirichlet", 0.0))
        n = float(phi_explicit(eps, "neumann", 0.0))
        assert 0.0 < d < 1.0 and math.isfinite(d)
        assert -1.0 < n < 0.0 and math.isfinite(n)
        assert abs(viscosity_rate(eps, "dirichlet") - 2.0) < 3.0 * eps


def test_boundary_layer_container():
    layer = make_boundary_layer(0.2, "dirichlet")
    assert layer.center_value == pytest.approx(1.6899e-4, rel=1e-4)
    assert layer.theta == pytest.approx(theta_quadrature(0.2, "dirichlet"),
                                        rel=1e-13)


THETA_EPS = (0.5, 0.3, 0.2, 0.15, 0.1, 0.05, 0.02, 0.01, 0.003)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_theta_quadrature_matches_antiderivative(bc):
    # phi(eps y) = phi(0) cosh(y), so Theta = phi(0) 3^{1/4} A(1/eps) with A
    # the symmetric antiderivative
    for eps in THETA_EPS:
        exact = float(phi_explicit(eps, bc, 0.0)) * 3 ** 0.25 \
            * float(theta_antiderivative(1 / eps))
        assert theta_quadrature(eps, bc) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_theta_quadrature_matches_adaptive_quad(bc):
    for eps in THETA_EPS:
        val, _ = quad(lambda y: math.cosh(y) * _u5(y), -1 / eps, 1 / eps,
                      epsabs=0.0, epsrel=1e-13, limit=400)
        assert theta_quadrature(eps, bc) \
            == pytest.approx(float(phi_explicit(eps, bc, 0.0)) * val,
                             rel=1e-13)


def test_theta_quadrature_refuses_unconverged_rule(monkeypatch):
    # a two-point rule on unit panels misses the halving check by far
    monkeypatch.setattr("normwave.boundary_layer._GL_NODES",
                        np.array([-1.0, 1.0]) / math.sqrt(3.0))
    monkeypatch.setattr("normwave.boundary_layer._GL_WEIGHTS",
                        np.array([1.0, 1.0]))
    with pytest.raises(NoConvergence):
        theta_quadrature(0.2, "dirichlet")


@pytest.mark.parametrize("eps", [0.002, 0.001, 1e-4])
def test_epsilon_below_underflow_floor_rejected(eps):
    # e^{-2/eps} underflows below eps = 2/708.4: the layer would be zero
    for fn in (theta_quadrature, theta_asymptotic, viscosity_rate,
               make_boundary_layer):
        with pytest.raises(ValueError, match="underflows"):
            fn(eps, "dirichlet")
    with pytest.raises(ValueError, match="underflows"):
        phi_explicit(eps, "neumann", 0.0)
    assert EPS_FLOOR == pytest.approx(2.0 / 708.396, rel=1e-5)


def test_gauss_legendre_literals_are_leggauss_16():
    # written out so that no import loads numpy.polynomial; the rule must
    # stay numpy's to the bit
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert bl._GL_NODES.tobytes() == nodes.tobytes()
    assert bl._GL_WEIGHTS.tobytes() == weights.tobytes()
