import math

import numpy as np
import pytest

from conftest import TWO_SIGMA0_P3, TWO_SIGMA0_P5
from normwave.asymptotics import (BOUNDARY_ENDPOINT, INTERIOR, WHOLE_SPACE,
                                  ansatz_residual_l2, fit_convergence_order,
                                  fit_prefactor, predict_epsilon_noncritical,
                                  predict_lambda_critical_schrodinger,
                                  predict_mass_expansion_critical,
                                  verify_report)
from normwave.boundary_layer import theta_quadrature
from normwave.errors import DegenerateFit, RegimeMismatch, WrongSide
from normwave.groundstate import ProblemParams

P3 = ProblemParams(1, 3.0)
SIGMA0_P3 = TWO_SIGMA0_P3 / 2.0
SIGMA0_P5 = TWO_SIGMA0_P5 / 2.0


def test_predict_noncritical_matches_exact_scaling():
    eps, lam = predict_epsilon_noncritical(P3, 8.0, WHOLE_SPACE, SIGMA0_P3)
    assert lam == pytest.approx(4.0, rel=1e-14)
    assert eps == pytest.approx(0.5, rel=1e-14)


def test_predict_noncritical_identity_point():
    eps, lam = predict_epsilon_noncritical(P3, TWO_SIGMA0_P3, INTERIOR,
                                           SIGMA0_P3)
    assert eps == pytest.approx(1.0, rel=1e-14)


def test_predict_noncritical_scaling_identity():
    # eps^{-4/(p-1)+N} = Lambda * rho exactly for the limiting Lambda
    p, N, rho = 3.0, 1, 30.0
    eps, _ = predict_epsilon_noncritical(P3, rho, INTERIOR, SIGMA0_P3)
    lhs = eps ** (-4.0 / (p - 1.0) + N)
    assert lhs == pytest.approx(rho / TWO_SIGMA0_P3, rel=1e-13)


def test_predict_endpoint_vs_interior_factor():
    rho = 40.0
    e_end, _ = predict_epsilon_noncritical(P3, rho, BOUNDARY_ENDPOINT,
                                           SIGMA0_P3)
    e_int, _ = predict_epsilon_noncritical(P3, rho, INTERIOR, SIGMA0_P3)
    p, N = 3.0, 1
    factor = 2.0 ** ((p - 1.0) / ((p - 1.0) * N - 4.0))
    assert e_end / e_int == pytest.approx(factor, rel=1e-13)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -1.0])
def test_predict_noncritical_rejects_bad_mass(rho):
    # nan gave (nan, nan), -1 a complex eps
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        predict_epsilon_noncritical(P3, rho, INTERIOR, SIGMA0_P3)


@pytest.mark.parametrize("sigma0", [math.nan, math.inf])
def test_predict_noncritical_rejects_nonfinite_sigma0(sigma0):
    # nan gave (nan, nan), and inf a ZeroDivisionError
    with pytest.raises(ValueError, match="sigma0 must be positive and finite"):
        predict_epsilon_noncritical(P3, 8.0, INTERIOR, sigma0)


def test_predict_noncritical_regime_errors():
    with pytest.raises(RegimeMismatch):
        predict_epsilon_noncritical(ProblemParams(1, 5.0), 2.0, INTERIOR,
                                    SIGMA0_P5)
    with pytest.raises(RegimeMismatch):
        # subcritical with small mass sits outside the concentration regime
        predict_epsilon_noncritical(P3, 1.0, INTERIOR, SIGMA0_P3)


def test_predict_critical_interior_expansion():
    for bc, sign in (("dirichlet", 1.0), ("neumann", -1.0)):
        pred = predict_mass_expansion_critical(INTERIOR, 0.2, bc=bc,
                                               sigma0=SIGMA0_P5)
        expect = TWO_SIGMA0_P5 - 2.0 * theta_quadrature(0.2, bc)
        assert pred == pytest.approx(expect, rel=1e-14)
        assert sign * (TWO_SIGMA0_P5 - pred) > 0


def test_predict_critical_whole_space(corr5):
    pred = predict_mass_expansion_critical(WHOLE_SPACE, 0.2, sigma0=SIGMA0_P5,
                                           m_frak=corr5.m_frak,
                                           laplacian_V=2.0)
    assert pred == pytest.approx(TWO_SIGMA0_P5 - 4.0 * corr5.m_frak * 0.2 ** 4,
                                 rel=1e-14)


def test_predict_lambda_critical_degenerate(corr5):
    eps, lam = predict_lambda_critical_schrodinger(TWO_SIGMA0_P5,
                                                   corr5.m_frak, 2.0,
                                                   SIGMA0_P5)
    assert eps == 0.0 and math.isinf(lam)


def test_predict_lambda_critical_roundtrip(corr5):
    eps0 = 0.17
    rho = TWO_SIGMA0_P5 - 2.0 * corr5.m_frak * 2.0 * eps0 ** 4
    eps, lam = predict_lambda_critical_schrodinger(rho, corr5.m_frak, 2.0,
                                                   SIGMA0_P5)
    assert eps == pytest.approx(eps0, rel=1e-13)
    assert lam == pytest.approx(eps0 ** -2.0, rel=1e-13)


def test_predict_lambda_critical_wrong_side(corr5):
    with pytest.raises(WrongSide):
        predict_lambda_critical_schrodinger(TWO_SIGMA0_P5 + 0.01,
                                            corr5.m_frak, 2.0, SIGMA0_P5)


@pytest.mark.parametrize("name, value, message", [
    ("epsilon", math.nan, "epsilon must be positive and finite"),
    ("epsilon", math.inf, "epsilon must be positive and finite"),
    ("sigma0", math.nan, "sigma0 must be positive and finite"),
    ("m_frak", math.inf, "m_frak must be finite"),
    ("laplacian_V", math.nan, "laplacian_V must be finite"),
])
def test_predict_critical_expansion_rejects_nonfinite(name, value, message):
    # epsilon = nan returned nan on the whole space
    kwargs = dict(epsilon=0.2, sigma0=SIGMA0_P5, m_frak=0.3, laplacian_V=2.0)
    kwargs[name] = value
    with pytest.raises(ValueError, match=message):
        predict_mass_expansion_critical(WHOLE_SPACE, **kwargs)


@pytest.mark.parametrize("name, value, message", [
    ("rho", math.nan, "rho must be positive and finite"),
    ("rho", math.inf, "rho must be positive and finite"),
    ("sigma0", math.inf, "sigma0 must be positive and finite"),
    ("m_frak", math.nan, "m_frak must be finite"),
    ("laplacian_V", -math.inf, "laplacian_V must be finite"),
])
def test_predict_lambda_critical_rejects_nonfinite(name, value, message):
    # rho = nan returned (nan, nan), and rho = inf raised WrongSide
    kwargs = dict(rho=TWO_SIGMA0_P5 - 0.01, m_frak=0.3, laplacian_V=2.0,
                  sigma0=SIGMA0_P5)
    kwargs[name] = value
    with pytest.raises(ValueError, match=message):
        predict_lambda_critical_schrodinger(**kwargs)


def test_fit_exact_power_law():
    eps = [0.4, 0.3, 0.2, 0.1]
    pairs = [(e, e ** 4) for e in eps]
    assert fit_convergence_order(pairs) == pytest.approx(4.0, abs=1e-6)
    assert fit_prefactor(pairs, 4.0) == pytest.approx(1.0, rel=1e-12)


def test_fit_exact_exponential_law():
    eps = [0.3, 0.25, 0.2, 0.15]
    pairs = [(e, 7.0 / e * math.exp(-2.0 / e)) for e in eps]
    slope = fit_convergence_order(pairs, law="boundary_exponential")
    assert slope == pytest.approx(1.0, abs=1e-9)
    pref = fit_prefactor(pairs, 1.0, law="boundary_exponential")
    assert pref == pytest.approx(7.0, rel=1e-9)


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        fit_convergence_order([(0.2, 1.0), (0.1, 0.5)])
    with pytest.raises(DegenerateFit):
        fit_convergence_order([(0.3, 1.0), (0.2, -0.5), (0.1, 0.2)])
    with pytest.raises(DegenerateFit):
        fit_convergence_order([(0.3, 1.0), (0.2, 2.0), (0.1, 1.5)])


def test_ansatz_residual_fifth_order(gs5, corr5):
    e_02 = ansatz_residual_l2(gs5, corr5, 0.2)
    e_01 = ansatz_residual_l2(gs5, corr5, 0.1)
    assert abs(e_02 / e_01 - 32.0) <= 0.25 * 32.0


def test_ansatz_residual_centered_degenerates(gs5, corr5):
    # exactly quadratic potential with a centered ansatz: eighth order
    e_02 = ansatz_residual_l2(gs5, corr5, 0.2, tau=0.0)
    e_01 = ansatz_residual_l2(gs5, corr5, 0.1, tau=0.0)
    assert abs(e_02 / e_01 - 256.0) < 0.1 * 256.0


def test_whole_space_prediction_equals_exact_scaling(gs3):
    # on the line with V = 0 the prediction and the scaling law coincide
    from normwave.groundstate import solve_pure_scaling
    for rho in (4.0, 8.0, 30.0, 100.0):
        _, lam_pred = predict_epsilon_noncritical(P3, rho, WHOLE_SPACE,
                                                  SIGMA0_P3)
        lam_exact = solve_pure_scaling(P3, rho, ground_state=gs3)
        assert lam_pred == pytest.approx(lam_exact, rel=1e-13)


def test_verify_unknown_id():
    with pytest.raises(ValueError):
        verify_report("spectral_gap")


def test_verify_interior_scaling_report():
    rep = verify_report("interior_scaling")
    assert rep.passed
    assert rep.observed["lambda_rel_error"] < 1e-3
    assert rep.theorem_id == "interior_scaling"


def test_verify_interior_critical_report():
    rep = verify_report("interior_critical_mass")
    assert rep.passed, rep.notes
    for bc in ("dirichlet", "neumann"):
        obs = rep.observed[bc]
        assert obs["one_sided"]
        assert 0.75 <= obs["deficit_over_2theta_at_eps_min"] <= 1.25


def test_verify_potential_critical_report():
    rep = verify_report("potential_critical_mass")
    assert rep.passed, rep.notes
    assert abs(rep.fitted_order - 4.0) <= 0.3
