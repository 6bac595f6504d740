import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import lil_matrix
from scipy.special import kv, kve

from conftest import WORKLOAD_PAIRS, band_matrix, workload_state
from normwave import _lapack, groundstate, radial
from normwave.corrections import correction_profile
from normwave.errors import NoConvergence, SingularOperator
from normwave.groundstate import (GroundState, ProblemParams, RadialProfile,
                                  _shooting_guess, _shot_splice,
                                  decay_constant, mass_sigma0,
                                  solve_ground_state)


def robin_reference(dim, R):
    """-u'(R)/u(R) of the decaying solution r^{-nu} K_nu(r), nu = (dim-2)/2,
    from scipy's Bessel functions: e^{-r} for dim = 1, K_0 for dim = 2 and
    K_1(r)/r for dim = 4."""
    return {1: 1.0, 2: kv(1, R) / kv(0, R),
            4: kv(0, R) / kv(1, R) + 2.0 / R}[dim]


def lil_reference(r, q, dim):
    """Entry-by-entry lil_matrix assembly of L[q], kept as the reference."""
    n = len(r) - 1
    h = r[1] - r[0]
    robin_const = robin_reference(dim, r[-1])
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
    # every entry bit for bit but the Robin row's diagonal, whose constant
    # comes from the K_nu tail series here and from scipy's kv there: at
    # R = 12 they differ by 2e-13 (exactly 1 for dim = 1)
    r = radial.uniform_grid(12.0, 0.1)
    q = np.random.default_rng(dim).normal(size=len(r))
    A = radial.radial_operator(r, q, dim)
    ref = lil_reference(r, q, dim)
    assert A.shape == (radial.KL + radial.KU + 1, len(r))
    dense = band_matrix(A).toarray()
    corner, dense[-1, -1] = dense[-1, -1], ref[-1, -1]
    assert np.array_equal(dense, ref)
    assert corner == pytest.approx(ref[-1, -1], rel=0.0,
                                   abs=0.0 if dim == 1 else 1e-12)
    # nothing stored outside the matrix
    assert np.count_nonzero(A) == np.count_nonzero(ref)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("R", [13.0, 20.0, 27.0, 40.0])
def test_robin_row_is_the_decaying_solutions(dim, R):
    # u'(R) + beta u(R) = 0 for u = r^{-nu} K_nu(r): beta = K_{nu-1}(R) /
    # K_nu(R) + 2 nu / R, from scipy; 1 + 1/R for dim = 3, where u = e^{-r}/r
    nu = (dim - 2) / 2.0
    beta = float(radial.decay_rate(R, dim))
    ref = kv(nu - 1.0, R) / kv(nu, R) + 2.0 * nu / R
    assert beta == pytest.approx(ref, rel=5e-14 if R < 20 else 1e-15, abs=0.0)
    if dim == 3:
        assert beta == 1.0 + 1.0 / R


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_decay_series_matches_kve(dim):
    # S(r) = sqrt(2r/pi) e^r K_nu(r), the divisor of the decay plateau, on
    # the plateau windows of R = 20 to 40; the series is asymptotic for
    # even N, and its smallest term enters at half weight
    nu = (dim - 2) / 2.0
    r = np.linspace(13.0, 40.0, 2701)
    ref = kve(nu, r) * np.sqrt(2.0 * r / np.pi)
    assert np.max(np.abs(radial.decay_series(r, dim)[0] / ref - 1.0)) <= 1e-13
    # counted at each r alone
    each = np.array([radial.decay_series(x, dim)[0] for x in r[::30]])
    assert np.max(np.abs(each / ref[::30] - 1.0)) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_decay_s_alone_is_the_series_s(dim):
    # the plateau's divisor, S without S', bit for bit, on a plateau window
    # and at single points
    r = np.linspace(13.0, 40.0, 2701)
    assert radial._decay_s(r, dim).tobytes() \
        == radial.decay_series(r, dim)[0].tobytes()
    for x in (12.0, 20.0, 27.5):
        assert radial._decay_s(x, dim) == radial.decay_series(x, dim)[0]


@pytest.mark.parametrize("r", [np.array([np.nan, 2.0]), np.array([2.0, 0.0]),
                               np.array([-1.0, 2.0]),
                               np.array([2.0, np.inf]), 0.0, np.nan])
def test_decay_series_rejects_r_not_finite_and_positive(r):
    # a NaN made S(2) = -7.2e93 for N = 2, and r = 0 gave S = 0.5 with a
    # NaN S'
    for f in (radial.decay_series, radial.decay_rate, radial._decay_s):
        with pytest.raises(ValueError, match="finite and positive"):
            f(r, 2)


def _reference_band_matvec(ab, x):
    # the sweep of all seven stored diagonals, kept as the reference
    n = len(x)
    y = np.zeros(n)
    for d in range(radial.KL + radial.KU + 1):
        off = radial.KU - d
        if off >= 0:
            y[:n - off] += ab[d, off:] * x[off:]
        else:
            y[-off:] += ab[d, :n + off] * x[:n + off]
    return y


@pytest.mark.parametrize("dim, p", WORKLOAD_PAIRS)
def test_band_matvec_matches_seven_diagonal_sweep(dim, p):
    # on L[1] and L+ of each benchmark pair, at U and at a random vector
    gs, _ = workload_state(dim, p)
    r, u = gs.profile.nodes, gs.profile.values
    x = np.random.default_rng(dim).normal(size=len(r))
    for ab in (radial.radial_operator(r, np.ones_like(r), dim),
               radial.lplus_band(r, dim, p, u)):
        for v in (u, x):
            assert radial.band_matvec(ab, v).tobytes() \
                == _reference_band_matvec(ab, v).tobytes()


def test_bare_splu_factors_refuse_the_condition_estimate():
    # a bare splu's factors carry no norm: the estimate raised TypeError on
    # None * float
    r = radial.uniform_grid(12.0, 0.1)
    lu = radial.splu(radial.radial_operator(r, np.ones_like(r), 2).base)
    with pytest.raises(ValueError, match="factorise"):
        radial.solve_radial_linear(lu, np.ones_like(r))
    with pytest.raises(ValueError, match="factorise"):
        lu.condition()
    assert lu.cond is None


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
    lu = radial.splu(ab.base)
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
    # splu factorises in place, and ab is read again below
    lu = radial.splu(radial.radial_operator(r, np.ones_like(r), dim).base)
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
    # singular", and a NaN in rhs returned an all-NaN solution; a NaN q is
    # now refused by factorise, a NaN rhs by the solve
    r = radial.uniform_grid(12.0, 0.1)
    q, rhs = np.ones_like(r), np.ones_like(r)
    {"q": q, "rhs": rhs}[where][5] = np.nan
    message = {"q": "the radial operator", "rhs": "rhs"}[where]
    with pytest.raises(ValueError, match=f"{message} must be finite"):
        radial.solve_radial_linear(
            radial.factorise(radial.radial_operator(r, q, 2)), rhs)


def test_newton_raises_at_iteration_cap(monkeypatch):
    params = ProblemParams(2, 3.0)
    r = radial.uniform_grid(40.0, 1.0 / 300.0)
    u0 = _shooting_guess(params, r, _shot_splice(params))
    monkeypatch.setattr(radial, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="in 1 steps"):
        radial.radial_newton(r, params.dim, params.p, u0)


def test_ground_state_factorisation_count(monkeypatch):
    real_splu, calls = radial.splu, []

    def counting_splu(A):
        calls.append(A.shape)
        return real_splu(A)

    monkeypatch.setattr(radial, "splu", counting_splu)
    solve_ground_state(ProblemParams(2, 3.0), spacing=1.0 / 300.0)
    assert len(calls) == 3


def test_ground_state_and_correction_share_one_linearization(monkeypatch):
    # Newton factorises twice (the step after the second reuses its
    # factors), then J(U) is formed from Newton's L[1] and factorised once
    # more; the ground state takes their condition estimate with its defect
    # solve, and the correction solves with those factors
    counts = {"splu": 0, "radial_operator": 0, "onenormest": 0}
    for name in counts:
        def counting(*args, _real=getattr(radial, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(radial, name, counting)
    gs = solve_ground_state(ProblemParams(2, 3.0), spacing=1.0 / 300.0)
    assert counts == {"splu": 3, "radial_operator": 1, "onenormest": 1}
    correction_profile(gs)
    assert counts == {"splu": 3, "radial_operator": 1, "onenormest": 1}
    correction_profile(gs)
    assert counts == {"splu": 3, "radial_operator": 1, "onenormest": 1}


def test_correction_makes_one_band_solve(monkeypatch):
    # the ground state takes the condition estimate of L+: one block solve
    # with L+, carrying the defect estimate's right-hand side, and one with
    # its transpose, after Newton's three solves. W is then one solve of
    # its own with the checked factors, the same bits each time
    real_gbtrs, calls = _lapack.gbtrs, []

    def counting_gbtrs(*args):
        calls.append(args[-1])
        return real_gbtrs(*args)

    monkeypatch.setattr(_lapack, "gbtrs", counting_gbtrs)
    gs = solve_ground_state(ProblemParams(2, 3.0), spacing=1.0 / 300.0)
    assert calls == ["N", "N", "N", "N", "T"]
    del calls[:]
    w = correction_profile(gs).profile.values
    assert calls == ["N"]
    assert correction_profile(gs).profile.values.tobytes() == w.tobytes()
    assert calls == ["N", "N"]


def test_ground_state_checks_the_condition_of_lplus(monkeypatch):
    # the defect estimate solves with L+ only once its condition is checked
    monkeypatch.setattr(radial, "COND_LIMIT", 1.0)
    with pytest.raises(SingularOperator, match="condition estimate exceeds"):
        solve_ground_state(ProblemParams(2, 3.0), spacing=1.0 / 300.0)


def test_correction_from_shared_factors_matches_hand_built(gs2d):
    # J(U) formed from Newton's copy of L[1] and from a fresh assembly are
    # the same operator: W is the same bit for bit. dataclasses.replace
    # does not carry the factors to the new state
    copy = dataclasses.replace(gs2d)
    assert gs2d.lplus is not None and copy.lplus is None
    w = correction_profile(gs2d).profile.values
    assert correction_profile(copy).profile.values.tobytes() == w.tobytes()
    assert copy.lplus is not gs2d.lplus


def test_newton_refactorises_when_the_reused_step_is_not_at_rounding_level(
        monkeypatch):
    # each Jacobian factorised with 1e-3 added to its diagonal: the second
    # step (about 2e-6) is within sqrt(1e-10) of rounding level, so the
    # third reuses its factors; that one (about 2e-9) is not at rounding
    # level, so the fourth is factorised again
    params = ProblemParams(2, 3.0)
    r = radial.uniform_grid(40.0, 1.0 / 300.0)
    u0 = _shooting_guess(params, r, _shot_splice(params))
    exact, _ = radial.radial_newton(r, params.dim, params.p, u0)
    real_splu, real_solve, events = radial.splu, radial.BandLU.solve, []

    def shifted_splu(work):
        events.append("factorise")
        work[radial.KL + radial.KU] += 1e-3
        return real_splu(work)

    def logged_solve(self, b, trans="N"):
        events.append("solve")
        return real_solve(self, b, trans)

    monkeypatch.setattr(radial, "splu", shifted_splu)
    monkeypatch.setattr(radial.BandLU, "solve", logged_solve)
    u, _ = radial.radial_newton(r, params.dim, params.p, u0)
    assert events == ["factorise", "solve", "factorise", "solve", "solve",
                      "factorise", "solve"]
    assert np.max(np.abs(u - exact)) <= 1e-10 * np.max(np.abs(exact))


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
    u0 = _shooting_guess(params, r, _shot_splice(params))
    u0 = u0 * (1.0 + 1e-3 * np.exp(-r * r))
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


def test_d1_six_is_sixth_order_at_every_node():
    # the one-sided rows at the last three nodes converge as the centred
    # stencil does: halving h divides the error by about 2^6 (92 to 95
    # from 80 to 160 panels on e^{-r^2} over [0, 4])
    errors = []
    for n in (80, 160):
        r = np.linspace(0.0, 4.0, n + 1)
        d = radial.d1_six(np.exp(-r * r), r[1] - r[0])
        assert np.isfinite(d).all()
        errors.append(np.abs(d + 2.0 * r * np.exp(-r * r))[-3:])
    assert (errors[0] <= 1e-9).all()
    assert (errors[0] / errors[1] >= 48.0).all()


# -- the band LU layer as it was before the band was factorised in place:
# a fresh work array and LU per factorisation, a copy of L[1] per Jacobian,
# one solve per estimator probe. Kept as the reference that the in-place
# layer must match bit for bit.

class _ReferenceLU:
    def __init__(self, ab):
        work = np.zeros((2 * radial.KL + radial.KU + 1, ab.shape[1]),
                        order="F")
        work[radial.KL:] = ab
        self.lu, self.ipiv, info = _lapack.gbtrf(work, radial.KL, radial.KU)
        assert info == 0

    def solve(self, b, trans="N"):
        x, _ = _lapack.gbtrs(self.lu, radial.KL, radial.KU, self.ipiv,
                             np.array(b, dtype=float), trans)
        return x


def _reference_jacobian(base, u, p):
    shift = p * np.abs(u) ** (p - 1)
    shift[-1] = 0.0
    J = base.copy()
    J[radial.KU] -= shift
    return J


def _reference_newton(r, dim, p, u0):
    # a freshly factorised step within sqrt(1e-10) of rounding level is
    # followed by one that reuses its factors; the LU returned is J's at u
    base = radial.radial_operator(r, np.ones_like(r), dim)
    u = u0.copy()
    lu, reuse = None, False
    for _ in range(radial.NEWTON_MAX_ITER):
        F = radial.band_matvec(base, u)
        F[:-1] -= np.abs(u[:-1]) ** (p - 1) * u[:-1]
        if np.max(np.abs(F[:-1])) < radial.NEWTON_TOL \
                and abs(F[-1]) < radial.NEWTON_TOL:
            break
        if not reuse:
            lu = _ReferenceLU(_reference_jacobian(base, u, p))
        du = lu.solve(-F)
        u = u + du
        scale = max(1.0, np.max(np.abs(u)))
        if np.max(np.abs(du)) <= 1e-10 * scale:
            break
        reuse = not reuse and np.max(np.abs(du)) <= 1e-10 ** 0.5 * scale
    else:
        raise NoConvergence("reference Newton did not converge")
    return u, _ReferenceLU(_reference_jacobian(base, u, p))


def _reference_onenormest(matvec, rmatvec, n):
    itmax = 5
    v = matvec(np.full(n, 1.0 / n))
    est = float(np.sum(np.abs(v)))
    sign = np.where(v >= 0.0, 1.0, -1.0)
    j = int(np.argmax(np.abs(rmatvec(sign))))
    k = 2
    while True:
        e = np.zeros(n)
        e[j] = 1.0
        v = matvec(e)
        est_old, est = est, float(np.sum(np.abs(v)))
        new_sign = np.where(v >= 0.0, 1.0, -1.0)
        if np.array_equal(new_sign, sign) or est <= est_old:
            break
        sign = new_sign
        z = rmatvec(sign)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]) or k >= itmax:
            break
        k += 1
    i = np.arange(n)
    alt = np.where(i % 2 == 0, 1.0, -1.0) * (1.0 + i / (n - 1))
    return max(est, 2.0 * float(np.sum(np.abs(matvec(alt)))) / (3 * n))


def _reference_linear(r, u, p, dim, rhs):
    # the correction solves with J at u, formed from L[1] as Newton's are
    b = np.asarray(rhs, dtype=float).copy()
    A = _reference_jacobian(radial.radial_operator(r, np.ones_like(r), dim),
                            u, p)
    lu = _ReferenceLU(A)
    inv_norm = _reference_onenormest(
        lu.solve, lambda x: lu.solve(x, trans="T"), A.shape[1])
    assert float(np.max(np.sum(np.abs(A), axis=0))) * inv_norm \
        <= radial.COND_LIMIT
    b[-1] = 0.0
    return lu.solve(b)


@pytest.mark.parametrize("dim, p", [(2, 3.0), (3, 2.5), (4, 1.8)])
def test_band_layer_matches_reference_bit_for_bit(dim, p):
    # U, the defect correction e = -J^{-1} R6, W and m_frak, byte for byte
    params = ProblemParams(dim, p)
    r = radial.uniform_grid(40.0, 1.0 / 300.0)
    u0 = _shooting_guess(params, r, _shot_splice(params))
    u, band = radial.radial_newton(r, dim, p, u0)
    lu = radial.factorise(band)
    ref_u, ref_lu = _reference_newton(r, dim, p, u0)
    assert u.tobytes() == ref_u.tobytes()
    res = groundstate._ode_residual(params, r, u)
    res[~np.isfinite(res)] = 0.0
    assert (-lu.solve(res)).tobytes() == (-ref_lu.solve(res)).tobytes()
    assert radial.onenormest(lu.solve, lambda x: lu.solve(x, trans="T"),
                             len(r)) \
        == _reference_onenormest(ref_lu.solve,
                                 lambda x: ref_lu.solve(x, trans="T"), len(r))

    gs = GroundState(params, RadialProfile(r, u, radial.d1_six(u, r[1] - r[0])),
                     0.0, 0.0)
    corr = correction_profile(gs)
    ref_w = _reference_linear(r, u, p, dim, r ** 2 * u)
    assert corr.profile.values.tobytes() == ref_w.tobytes()
    assert corr.m_frak == radial.radial_quadrature(
        r, u * ref_w, dim, tail_decay=2.0) / (2.0 * dim)


def _logged(log, product):
    # each call's input and output, copied, as (n, k) blocks; the product
    # may overwrite its input
    def logged(x):
        x0 = np.array(x)
        y = product(x)
        log.append((x0.reshape(len(x0), -1),
                    np.array(y).reshape(len(x0), -1)))
        return y
    return logged


def _columns(log):
    return {(x[:, k].tobytes(), y[:, k].tobytes())
            for x, y in log for k in range(x.shape[1])}


def test_onenormest_probes_match_reference():
    # every product the reference takes is a column of one of the
    # estimator's blocks, bit for bit, and the estimate is the reference's.
    # On the radial operator the first step lands on e_n, so one block
    # product with B and one with B^T, solved in place, are all it takes,
    # and a riding rhs comes back as its own single solve
    r = radial.uniform_grid(20.0, 1.0 / 50.0)
    n = len(r)
    lu = radial.splu(radial.radial_operator(r, np.ones_like(r), 2).base)
    rhs = np.random.default_rng(3).normal(size=n)
    for riding in (None, rhs.copy()):
        new, ref = {"N": [], "T": []}, {"N": [], "T": []}
        est = radial.onenormest(
            _logged(new["N"], lambda x: lu.solve(x, overwrite_b=True)),
            _logged(new["T"],
                    lambda x: lu.solve(x, trans="T", overwrite_b=True)),
            n, riding)
        assert est == _reference_onenormest(
            _logged(ref["N"], lu.solve),
            _logged(ref["T"], lambda x: lu.solve(x, trans="T")), n)
        assert [x.shape for x, _ in new["N"]] \
            == [(n, 3 if riding is None else 4)]
        assert [x.shape for x, _ in new["T"]] == [(n, 2)]
        for trans in "NT":
            assert _columns(ref[trans]) <= _columns(new[trans])
    assert riding.tobytes() == lu.solve(rhs).tobytes()


# two operators on which the first step lands on e_n and the iteration goes
# on past the products taken ahead (found by a search over small integers)
_GOES_ON_PAST_E_N = ([[3, -1, 0, -2], [-3, 2, 0, 0], [0, -2, 2, -3],
                      [-3, 2, -1, 3]],
                     [[0, -3, 2, 3], [3, -1, 2, 0], [1, -3, 0, 0],
                      [0, 2, -2, 0]])


def test_onenormest_on_dense_operators_matches_reference():
    # random dense operators, on which the first step mostly lands off the
    # last column, and two on which it lands on it and goes on. The
    # estimate and every product are the reference's; the estimator takes
    # no other product but the ones taken ahead, and the alternating one
    # rides in the first block. The products are taken column by column,
    # so a block's columns are the single products' bits (a dense solve of
    # a block is not), and written over their input, as the radial solves
    # are
    rng = np.random.default_rng(11)

    def product(M, in_place):
        def f(x):
            y = np.column_stack([M @ np.ascontiguousarray(c)
                                 for c in x.T]) if x.ndim == 2 else M @ x
            if not in_place:
                return y
            x[...] = y
            return x
        return f

    operators = [rng.normal(size=(n, n)) for n in rng.integers(5, 61, 40)]
    seen = []
    for A in operators + [np.array(A, dtype=float) for A in _GOES_ON_PAST_E_N]:
        n = len(A)
        new, ref = {"N": [], "T": []}, {"N": [], "T": []}
        est = radial.onenormest(_logged(new["N"], product(A, True)),
                                _logged(new["T"], product(A.T, True)), n)
        assert est == _reference_onenormest(
            _logged(ref["N"], product(A, False)),
            _logged(ref["T"], product(A.T, False)), n)
        for trans in "NT":
            assert _columns(ref[trans]) <= _columns(new[trans])
        hit = bool(np.argmax(np.abs(ref["T"][0][1])) == n - 1)
        assert (len(new["N"]), len(new["T"])) == (
            len(ref["N"]) - 1 - hit,
            len(ref["T"]) - (hit and len(ref["T"]) > 1))
        seen.append((hit, len(new["N"]) + len(new["T"]) > 2))
    assert seen[:40].count((False, True)) >= 30
    assert seen[40:] == [(True, True)] * 2


def test_in_place_block_solves_are_single_solves():
    # the estimator's blocks, four columns with L+ and two with its
    # transpose, solved in place on the 12 001-node L+ of (3, 2.5): each
    # column is its own single solve, bit for bit
    gs = solve_ground_state(ProblemParams(3, 2.5))
    lu = gs.lplus
    n = len(gs.profile.nodes)
    assert n == 12001
    rng = np.random.default_rng(7)
    for trans, k in (("N", 4), ("T", 2)):
        block = np.asfortranarray(rng.normal(size=(n, k)))
        singles = [lu.solve(block[:, j], trans) for j in range(k)]
        x = lu.solve(block, trans, overwrite_b=True)
        assert np.shares_memory(x, block)
        for j in range(k):
            assert x[:, j].tobytes() == singles[j].tobytes()


def test_band_lu_peak_memory(gs2d):
    # counted in work arrays, the (2 KL + KU + 1, n) doubles that dgbtrf
    # factorises in place: one serves every Newton step, where a copy of
    # L[1], a fresh work array and the previous step's LU made it 3.9, and
    # 2.7 in the linear solve. gs2d has run first, so numpy's first-call
    # allocations stay out of the count
    params = ProblemParams(2, 3.0)
    tracemalloc.start()
    try:
        gs = solve_ground_state(params, spacing=1.0 / 300.0)
        gs_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        correction_profile(gs)
        corr_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    work = (2 * radial.KL + radial.KU + 1) * len(gs.profile.nodes) * 8
    assert gs_peak < 3.0 * work
    assert corr_peak < 2.5 * work


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS runs one thread on a one-core host, so "
                           "the two runs would not differ in thread count")
def test_outputs_independent_of_openblas_threads():
    # OpenBLAS splits a long ddot across its threads, which changes the
    # order of the sum; every quadrature is a numpy pairwise sum instead,
    # so sigma0, m_frak and the line's mass-law moment keep their bits
    code = (
        "from normwave.corrections import correction_profile\n"
        "from normwave.groundstate import (ProblemParams, mass_moment,\n"
        "                                  solve_ground_state)\n"
        "print(repr(float(solve_ground_state(ProblemParams(4, 1.8)).sigma0)))\n"
        "gs = solve_ground_state(ProblemParams(2, 3.0))\n"
        "print(repr(float(correction_profile(gs).m_frak)))\n"
        "gs = solve_ground_state(ProblemParams(1, 5.0))\n"
        "print(repr(float(mass_moment(gs, 1))))\n")
    src = os.path.dirname(os.path.dirname(radial.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout.splitlines())
    assert len(outs[0]) == 3
    assert outs[0] == outs[1]
