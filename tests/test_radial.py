import numpy as np
import pytest
from scipy.sparse import lil_matrix

from conftest import band_matrix
from normwave import groundstate, radial
from normwave.errors import NoConvergence
from normwave.groundstate import (GroundState, ProblemParams, RadialProfile,
                                  _shooting_guess, decay_constant,
                                  mass_sigma0, solve_ground_state)


def lil_reference(r, q, dim):
    """Entry-by-entry lil_matrix assembly of L[q], kept as the reference."""
    n = len(r) - 1
    h = r[1] - r[0]
    robin_const = 1.0 + (dim - 1) / (2.0 * r[-1])
    A = lil_matrix((n + 1, n + 1))
    A[0, 0] = dim * 30.0 / (12 * h * h) + q[0]
    A[0, 1] = -dim * 32.0 / (12 * h * h)
    A[0, 2] = dim * 2.0 / (12 * h * h)
    c2 = np.array([16.0, -31.0, 16.0, -1.0]) / (12 * h * h)
    c1 = np.array([-8.0, 1.0, 8.0, -1.0]) / (12 * h)
    for j in range(4):
        A[1, j] = -c2[j] - (dim - 1) / r[1] * c1[j]
    A[1, 1] += q[1]
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    for i in range(2, n - 1):
        for k, off in enumerate(range(-2, 3)):
            A[i, i + off] = -c2[k] - (dim - 1) / r[i] * c1[k] \
                + (q[i] if off == 0 else 0.0)
    A[n - 1, n - 2] = -1.0 / (h * h) + (dim - 1) / r[n - 1] / (2 * h)
    A[n - 1, n - 1] = 2.0 / (h * h) + q[n - 1]
    A[n - 1, n] = -1.0 / (h * h) - (dim - 1) / r[n - 1] / (2 * h)
    cr = np.array([25.0, -48.0, 36.0, -16.0, 3.0]) / (12 * h)
    for j, k in enumerate(range(n, n - 5, -1)):
        A[n, k] = cr[j]
    A[n, n] += robin_const
    return A.toarray()


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_operator_matches_lil_reference(dim):
    r = radial.uniform_grid(12.0, 0.1)
    q = np.random.default_rng(dim).normal(size=len(r))
    A = radial.radial_operator(r, q, dim)
    ref = lil_reference(r, q, dim)
    assert A.shape == (radial.KL + radial.KU + 1, len(r))
    assert np.array_equal(band_matrix(A).toarray(), ref)
    # nothing stored outside the matrix
    assert np.count_nonzero(A) == np.count_nonzero(ref)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_operator_is_base_plus_diagonal(dim):
    # the Newton Jacobian relies on L[q] = L[1] + diag(q - 1), Robin row untouched
    r = radial.uniform_grid(12.0, 0.1)
    q = np.random.default_rng(10 + dim).normal(size=len(r))
    shift = q - 1.0
    shift[-1] = 0.0
    expect = band_matrix(radial.radial_operator(r, np.ones_like(r), dim)) \
        .toarray() + np.diag(shift)
    A = band_matrix(radial.radial_operator(r, q, dim)).toarray()
    scale = np.max(np.abs(A))
    assert np.max(np.abs(A - expect)) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_band_products_and_solves_match_dense(dim):
    r = radial.uniform_grid(12.0, 0.1)
    q = 1.0 + np.random.default_rng(20 + dim).uniform(size=len(r))
    ab = radial.radial_operator(r, q, dim)
    A = band_matrix(ab).toarray()
    x = np.random.default_rng(30 + dim).normal(size=len(r))
    assert np.allclose(radial.band_matvec(ab, x), A @ x, rtol=0.0,
                       atol=1e-13 * np.max(np.abs(A)) * np.max(np.abs(x)))
    lu = radial.splu(ab)
    assert np.allclose(A @ lu.solve(x), x, rtol=0.0, atol=1e-9)
    assert np.allclose(A.T @ lu.solve(x, trans="T"), x, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_onenormest_matches_dense_inverse(dim):
    # Hager-Higham gives a lower bound on ||A^{-1}||_1 that is, for these
    # operators, the exact norm; on a 1/50 grid the inverse fits in memory
    r = radial.uniform_grid(20.0, 1.0 / 50.0)
    ab = radial.radial_operator(r, np.ones_like(r), dim)
    A = band_matrix(ab).toarray()
    exact = np.max(np.sum(np.abs(np.linalg.inv(A)), axis=0))
    lu = radial.splu(ab)
    est = radial.onenormest(lu.solve, lambda x: lu.solve(x, trans="T"),
                            len(r))
    assert est == pytest.approx(exact, rel=1e-10)
    # for A itself it is only a lower bound, so the condition check takes
    # ||A||_1 from the column sums of the band
    norm = np.max(np.sum(np.abs(ab), axis=0))
    assert norm == pytest.approx(np.max(np.sum(np.abs(A), axis=0)), rel=1e-15)
    assert radial.onenormest(lambda x: A @ x, lambda x: A.T @ x, len(r)) \
        <= norm * (1.0 + 1e-15)


@pytest.mark.parametrize("where", ["q", "rhs"])
def test_linear_solve_rejects_nonfinite_input(where):
    # a NaN in q failed in the sparse LU with RuntimeError "Factor is exactly
    # singular", and a NaN in rhs returned an all-NaN solution
    r = radial.uniform_grid(12.0, 0.1)
    q, rhs = np.ones_like(r), np.ones_like(r)
    {"q": q, "rhs": rhs}[where][5] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        radial.solve_radial_linear(r, q, 2, rhs)


def test_newton_raises_at_iteration_cap():
    params = ProblemParams(2, 3.0)
    r = radial.uniform_grid(40.0, 1.0 / 300.0)
    u0 = _shooting_guess(params, r)
    with pytest.raises(NoConvergence):
        radial.radial_newton(r, params.dim, params.p, u0, max_iter=1)


def test_ground_state_factorisation_count(monkeypatch):
    real_splu, calls = radial.splu, []

    def counting_splu(A):
        calls.append(A.shape)
        return real_splu(A)

    monkeypatch.setattr(radial, "splu", counting_splu)
    solve_ground_state(ProblemParams(2, 3.0), spacing=1.0 / 300.0)
    assert 1 <= len(calls) <= 4


def test_ground_state_shot_count(monkeypatch):
    # the shots only bracket U(0) to BRACKET_RTOL = 5e-4 for Newton: about
    # 14 of them, all through groundstate.solve_ivp. Only the last, from the
    # bracket's midpoint, records its path for the guess
    real_shot, paths = groundstate.solve_ivp, []

    def counting_shot(p, dim, s, path=None):
        paths.append(path)
        return real_shot(p, dim, s, path)

    monkeypatch.setattr(groundstate, "solve_ivp", counting_shot)
    solve_ground_state(ProblemParams(2, 3.0), spacing=1.0 / 300.0)
    assert 1 <= len(paths) <= 20
    assert [path is None for path in paths] == [True] * (len(paths) - 1) + [False]
    assert len(paths[-1]) > 1


def test_newton_from_perturbed_shot(gs2d):
    # Newton re-solves the grid problem, so a guess 1e-3 off in the core
    # lands on the same sigma0 and frak_c
    params, r = gs2d.params, gs2d.profile.nodes
    u0 = _shooting_guess(params, r) * (1.0 + 1e-3 * np.exp(-r * r))
    u, _ = radial.radial_newton(r, params.dim, params.p, u0)
    gs = GroundState(params, RadialProfile(r, u, gs2d.profile.dvalues), 0.0, 0.0)
    assert mass_sigma0(gs) == pytest.approx(gs2d.sigma0, rel=1e-10)
    assert decay_constant(gs) == pytest.approx(gs2d.frak_c, rel=1e-10)


@pytest.mark.parametrize("r_max, spacing", [
    (40.0, 0.0), (40.0, -0.01), (40.0, np.nan), (np.inf, 0.01),
    (-40.0, 0.01), (40.0, np.inf),
])
def test_uniform_grid_rejects_bad_extent(r_max, spacing):
    with pytest.raises(ValueError, match="positive and finite"):
        radial.uniform_grid(r_max, spacing)
