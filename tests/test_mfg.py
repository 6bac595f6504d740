import numpy as np
import pytest
from scipy.integrate import simpson

from normwave.bvp import DomainSpec, solve_fixed_epsilon
from normwave.errors import NonPositiveDensity
from normwave.groundstate import ProblemParams
from normwave.mfg import NU, MfgTriple, from_mfg, mfg_residuals, to_mfg

P5 = ProblemParams(1, 5.0)


@pytest.fixture(scope="module")
def neumann_sol():
    spec = DomainSpec("interval", -1, 1, "neumann")
    return solve_fixed_epsilon(spec, P5, 0.45, n_override=16000)


@pytest.fixture(scope="module")
def triple(neumann_sol):
    return to_mfg(neumann_sol)


def test_unit_mass(triple):
    assert triple.mass_defect <= 1e-10
    assert np.all(triple.m_values > 0)


def test_dictionary(neumann_sol, triple):
    p = neumann_sol.params.p
    assert triple.q == (p - 1.0) / 2.0
    assert 2.0 * NU ** 2 == pytest.approx(1.0, rel=1e-15)  # -2 nu^2 = -1
    rho = simpson(neumann_sol.v_values ** 2, x=neumann_sol.nodes)
    assert triple.alpha == pytest.approx(rho ** triple.q, rel=1e-14)
    assert triple.rho == pytest.approx(rho, rel=1e-12)


def test_gauge(triple):
    assert np.min(triple.u_values) == 0.0


def test_hjb_residual_small(triple):
    assert triple.residual_hjb < 1e-6


def test_kolmogorov_small(triple):
    assert triple.residual_kolmogorov < 1e-5


def test_residual_refinement_second_order():
    spec = DomainSpec("interval", -1, 1, "neumann")
    res = {}
    for n in (3000, 6000):
        sol = solve_fixed_epsilon(spec, P5, 0.3, n_override=n)
        t = to_mfg(sol)
        res[n] = (t.residual_hjb, t.residual_kolmogorov)
    for k in (0, 1):
        ratio = res[3000][k] / res[6000][k]
        assert abs(ratio - 4.0) <= 0.8


def test_gauge_invariance(triple):
    shift = 3.7
    shifted = MfgTriple(spec=triple.spec, nodes=triple.nodes,
                        u_values=triple.u_values + shift,
                        m_values=triple.m_values, lambda_=triple.lambda_,
                        alpha=triple.alpha, q=triple.q)
    r1 = mfg_residuals(triple)
    r2 = mfg_residuals(shifted)
    # invariant up to the h^-2 cancellation noise of differencing a constant
    h = triple.nodes[1] - triple.nodes[0]
    noise = 16 * np.finfo(float).eps * shift / h ** 2
    assert np.max(np.abs(r1[0] - r2[0])) < noise
    assert np.max(np.abs(r1[1] - r2[1])) < noise


def test_perturbed_density_detected(triple):
    bump = 1e-3 * np.exp(-((triple.nodes - 0.3) / 0.1) ** 2)
    perturbed = MfgTriple(spec=triple.spec, nodes=triple.nodes,
                          u_values=triple.u_values,
                          m_values=triple.m_values + bump,
                          lambda_=triple.lambda_, alpha=triple.alpha,
                          q=triple.q)
    _, r_kol = mfg_residuals(perturbed)
    assert np.max(np.abs(r_kol[1:-1])) > 100 * triple.residual_kolmogorov


def test_flat_equilibrium_residuals():
    spec = DomainSpec("interval", -1, 1, "neumann")
    x = np.linspace(-1, 1, 401)
    m = np.full_like(x, 0.5)          # unit mass on (-1, 1)
    u = np.zeros_like(x)
    q, alpha = 2.0, 1.3
    lam = alpha * 0.5 ** q            # HJB balance for a flat state
    triple = MfgTriple(spec=spec, nodes=x, u_values=u, m_values=m,
                       lambda_=lam, alpha=alpha, q=q)
    r_hjb, r_kol = mfg_residuals(triple)
    assert np.max(np.abs(r_hjb)) < 1e-14
    assert np.max(np.abs(r_kol)) < 1e-14


def test_roundtrip(neumann_sol, triple):
    back = from_mfg(triple)
    assert np.max(np.abs(back.v_values - neumann_sol.v_values)) < 1e-12
    assert back.lambda_ == neumann_sol.lambda_
    assert back.mass == pytest.approx(triple.rho, rel=1e-13)


def test_unit_alpha_gives_unit_mass():
    x = np.linspace(-1, 1, 201)
    m = np.full_like(x, 0.5)
    triple = MfgTriple(spec=DomainSpec("interval", -1, 1, "neumann"),
                       nodes=x, u_values=np.zeros_like(x), m_values=m,
                       lambda_=1.0, alpha=1.0, q=2.0)
    sol = from_mfg(triple)
    assert sol.mass == pytest.approx(1.0, rel=1e-12)


def test_from_mfg_refuses_odd_panel_count():
    # the mass is composite Simpson on the uniform nodes, which needs pairs
    # of panels
    x = np.linspace(-1, 1, 200)
    triple = MfgTriple(spec=DomainSpec("interval", -1, 1, "neumann"),
                       nodes=x, u_values=np.zeros_like(x),
                       m_values=np.full_like(x, 0.5), lambda_=1.0,
                       alpha=1.0, q=2.0)
    with pytest.raises(ValueError, match="even panel count"):
        from_mfg(triple)


def test_mass_critical_alpha_threshold(gs5):
    # at p = 5 the dictionary gives q = 2 and the critical coupling
    # alpha = (2 sigma0)^q
    q = 2.0
    alpha_crit = (2.0 * gs5.sigma0) ** q
    assert alpha_crit ** (1.0 / q) == pytest.approx(2.0 * gs5.sigma0,
                                                    rel=1e-14)


def test_nonpositive_density(triple):
    bad = MfgTriple(spec=triple.spec, nodes=triple.nodes,
                    u_values=triple.u_values,
                    m_values=triple.m_values - np.max(triple.m_values),
                    lambda_=triple.lambda_, alpha=triple.alpha, q=triple.q)
    with pytest.raises(NonPositiveDensity):
        from_mfg(bad)


def test_to_mfg_requires_positive_v(gs5):
    spec = DomainSpec("interval", -1, 1, "dirichlet")
    sol = solve_fixed_epsilon(spec, P5, 0.3)
    with pytest.raises(NonPositiveDensity):
        to_mfg(sol)  # Dirichlet trace vanishes on the boundary
