import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import CATALAN, band_matrix
from normwave import radial
from normwave._numerics import CubicHermite, brentq
from normwave.corrections import (W_ZERO_XTOL, compute_m_frak,
                                  correction_profile, linearized_residual,
                                  oracle_c_prime, solve_linearized_radial,
                                  w_zero_locate)
from normwave.errors import SingularOperator, ZeroCountMismatch
from normwave.groundstate import (GroundState, ProblemParams, RadialProfile,
                                  mass_moment, solve_ground_state)

W_CENTER = -(3.0 ** 0.25) * CATALAN / 4.0  # closed-form value of W(0)


def test_zero_source_gives_zero(gs5):
    w = solve_linearized_radial(gs5, np.zeros_like(gs5.profile.nodes))
    assert np.max(np.abs(w.values)) < 1e-12


def test_algebraic_roundtrip_recovers_ground_state(gs5):
    # L U = (1-p) U^p for the linearization L around U, so the solve with
    # that source must return U itself
    p = gs5.params.p
    rhs = (1.0 - p) * np.abs(gs5.profile.values) ** p
    w = solve_linearized_radial(gs5, rhs)
    assert np.max(np.abs(w.values - gs5.profile.values)) < 1e-7


def test_linearized_residual_below_tolerance(gs5, corr5):
    rhs = gs5.profile.nodes ** 2 * gs5.profile.values
    assert linearized_residual(gs5, corr5.profile, rhs) < 1e-8


def test_w_center_catalan(corr5):
    assert abs(corr5.profile.values[0] - W_CENTER) < 1e-5


def test_inner_mass_integral(gs5, corr5):
    r = gs5.profile.nodes
    keep = r <= 2.0
    val = simpson(gs5.profile.values[keep] * corr5.profile.values[keep],
                  x=r[keep])
    assert abs(val - 0.253688) < 1e-3


def test_m_frak_positive_dim1(corr5):
    assert corr5.m_frak > 0


def test_m_frak_two_routes_agree(gs5, corr5, oracle5):
    direct = compute_m_frak(gs5, corr5.profile)
    assert abs(direct / oracle5.m_frak - 1.0) < 1e-6
    assert direct == pytest.approx(corr5.m_frak, rel=1e-14)


def test_oracle_matches_bvp_uniformly(gs5, corr5, oracle5):
    keep = gs5.profile.nodes <= 10.0
    diff = np.max(np.abs(corr5.profile.values[keep]
                         - oracle5.profile.values[keep]))
    assert diff < 1e-6


def test_oracle_c_prime_negative(gs5):
    r = np.linspace(0.1, 8.0, 50)
    assert np.all(oracle_c_prime(gs5, r) < 0)


def test_oracle_c_prime_far_field_limit(gs5):
    for r in (10.0, 15.0, 20.0):
        ratio = float(oracle_c_prime(gs5, r)[0]) / (-r * r / 2.0)
        assert abs(ratio - 1.0) < 2.5 / r  # O(1/r) approach to the limit


def test_oracle_center_value(oracle5):
    assert abs(oracle5.profile.values[0] - W_CENTER) < 1e-9


def test_w_unique_zero_in_unit_interval(corr5, oracle5):
    for prof in (corr5, oracle5):
        assert prof.w_zero is not None
        assert 0.0 < prof.w_zero < 1.0
    assert abs(corr5.w_zero - oracle5.w_zero) < 1e-7


def test_w_zero_bisection_accuracy(corr5):
    from scipy.interpolate import CubicHermiteSpline
    r0 = w_zero_locate(corr5.profile)  # to W_ZERO_XTOL = 1e-10
    spline = CubicHermiteSpline(corr5.profile.nodes, corr5.profile.values,
                                corr5.profile.dvalues)
    assert abs(float(spline(r0))) < 1e-10


def test_zero_count_mismatch(corr5):
    shifted = RadialProfile(corr5.profile.nodes,
                            corr5.profile.values + 1000.0,
                            corr5.profile.dvalues)
    with pytest.raises(ZeroCountMismatch):
        w_zero_locate(shifted)


def test_rhs_grid_mismatch(gs5):
    with pytest.raises(ValueError):
        solve_linearized_radial(gs5, np.zeros(10))


def test_parity_even_derivative_zero(corr5):
    assert corr5.profile.dvalues[0] == 0.0


def test_dim2_correction_reported(gs2d):
    corr = correction_profile(gs2d)
    # value from the full 60-step Newton polish of gs2d
    assert corr.m_frak == pytest.approx(1.736857704588057, rel=1e-10)
    rhs = gs2d.profile.nodes ** 2 * gs2d.profile.values
    assert linearized_residual(gs2d, corr.profile, rhs) < 1e-8


def test_singular_operator_detected(gs5):
    # shift the zeroth-order coefficient onto an eigenvalue of the discrete
    # operator (boundary row masked out of the generalized eigenproblem)
    from scipy.sparse import identity
    from scipy.sparse.linalg import eigs
    r = radial.uniform_grid(20.0, 1 / 50)
    q = 1.0 - 5.0 * np.abs(gs5.u_exact(r)) ** 4
    A = band_matrix(radial.radial_operator(r, q, 1))
    B = identity(A.shape[0], format="csc").tolil()
    B[-1, -1] = 0.0
    mu = eigs(A, k=1, M=B.tocsc(), sigma=0.0, v0=np.ones(A.shape[0]),
              return_eigenvectors=False)
    shift = float(np.real(mu[0]))
    with pytest.raises(SingularOperator):
        radial.solve_radial_linear(
            radial.factorise(radial.radial_operator(r, q - shift, 1)),
            np.ones_like(r))


@pytest.mark.parametrize("state", ["solved N = 2", "hand-built N = 2",
                                   "N = 1"])
def test_correction_checks_the_shared_factors_condition(monkeypatch, gs2d,
                                                         gs5, state):
    # the check runs on every correction solve, also with factors formed
    # (and their estimate taken) before the limit was lowered
    gs = {"solved N = 2": gs2d, "N = 1": gs5,
          "hand-built N = 2": GroundState(gs2d.params, gs2d.profile, 0.0,
                                          0.0)}[state]
    correction_profile(gs)
    monkeypatch.setattr(radial, "COND_LIMIT", 1.0)
    with pytest.raises(SingularOperator, match="condition estimate"):
        correction_profile(gs)


@pytest.mark.parametrize("dim, p", [(2, 2.0), (2, 3.0), (2, 4.0), (3, 2.0),
                                    (3, 2.5), (4, 1.8), (4, 2.0), (1, 5.0)])
def test_w_zero_is_the_full_grid_splines_bit_for_bit(dim, p):
    # the zero on the three nodes about the sign change against Brent's
    # method on the spline through every node, at the benchmark's pairs
    w = correction_profile(solve_ground_state(ProblemParams(dim, p))).profile
    idx = np.where(np.diff(np.sign(w.values)) != 0)[0][0]
    full = CubicHermite(w.nodes, w.values, w.dvalues)
    assert w_zero_locate(w) == brentq(full, w.nodes[idx], w.nodes[idx + 1],
                                      xtol=W_ZERO_XTOL, rtol=8.9e-16)


@pytest.mark.parametrize("root", [0.2 - 1e-9, 0.4 - 1e-10, 0.96 ** 0.5])
def test_w_zero_near_a_node_and_in_the_last_interval(root):
    # W = root^2 - r^2 on 11 nodes. A zero just left of a node makes Brent's
    # method read the spline at that node, where a spline on the two
    # bracketing nodes alone rounds differently; in the last interval only
    # two nodes remain, and the full spline evaluates that end on the last
    # cubic too
    x = np.linspace(0.0, 1.0, 11)
    w = RadialProfile(x, root ** 2 - x ** 2, -2.0 * x)
    idx = int(root * 10)
    full = CubicHermite(w.nodes, w.values, w.dvalues)
    assert w_zero_locate(w) == brentq(full, x[idx], x[idx + 1],
                                      xtol=W_ZERO_XTOL, rtol=8.9e-16)


@pytest.mark.parametrize("bad, at", [(np.nan, 0.7), (np.nan, 0.2),
                                     (np.inf, 0.9), (-np.inf, 0.1)])
def test_w_zero_rejects_a_non_finite_w(bad, at):
    # W = 0.25 - r^2: a NaN after the sign change was passed over (the zero
    # came back as 0.5), and one before it surfaced Brent's NaN message
    x = np.linspace(0.0, 1.0, 11)
    vals = 0.25 - x ** 2
    vals[int(round(at * 10))] = bad
    w = RadialProfile(x, vals, -2.0 * x)
    with pytest.raises(ValueError, match="W must be finite"):
        w_zero_locate(w)


@pytest.mark.parametrize("dim, p", [(1, 2.0), (1, 3.0), (1, 5.0), (2, 3.0),
                                    (3, 2.0), (4, 2.0), (2, 2.0)])
def test_m_frak_matches_scaling_identity(dim, p):
    # L(2U/(p-1) + y.grad U) = -2U (Weinstein 1985) gives m_frak without W:
    # m_frak = (1/2N) [(N+2)/4 - 1/(p-1)] ∫|y|^2 U^2, zero at (2, 2)
    gs = solve_ground_state(ProblemParams(dim, p))
    m_frak = correction_profile(gs).m_frak
    factor = (dim + 2) / 4.0 - 1.0 / (p - 1.0)
    expect = factor * mass_moment(gs, 1) / (2.0 * dim)
    if factor == 0.0:
        assert abs(m_frak) <= 1e-10
    else:
        assert m_frak == pytest.approx(expect, rel=1e-9)
