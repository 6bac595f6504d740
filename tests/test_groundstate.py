import warnings

import numpy as np
import pytest

from conftest import (FRAK_C_DIM2_P3, SIGMA0_DIM2_P3, TWO_SIGMA0_P3,
                      TWO_SIGMA0_P5)
from normwave import groundstate
from normwave.errors import (MassCriticalInfeasible, NoConvergence,
                             SolverError, TailNotResolved)
from normwave.groundstate import (ANY_LAMBDA, ProblemParams, Regime,
                                  closed_form_soliton, decay_constant,
                                  mass_sigma0, ode_residual_max,
                                  scale_solution, solve_ground_state,
                                  solve_pure_scaling)


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(1, 1.0)
    with pytest.raises(ValueError):
        ProblemParams(3, 5.0)  # Sobolev-critical
    with pytest.raises(ValueError):
        ProblemParams(0, 3.0)


@pytest.mark.parametrize("dim, p", [(1, np.nan), (1, np.inf), (2, np.nan),
                                    (1, -np.inf), (3, np.inf), (0, np.nan)])
def test_params_reject_nonfinite_exponent(dim, p):
    # checked first: nan passed every other test and inf was supercritical
    with pytest.raises(ValueError, match="exponent p must be finite"):
        ProblemParams(dim, p)


def test_regime_classification():
    assert ProblemParams(1, 5.0).regime is Regime.MASS_CRITICAL
    assert ProblemParams(2, 3.0).regime is Regime.MASS_CRITICAL
    assert ProblemParams(1, 3.0).regime is Regime.SUBCRITICAL
    assert ProblemParams(1, 7.0).regime is Regime.SUPERCRITICAL
    assert ProblemParams(1, 5.0 + 1e-13).regime is Regime.MASS_CRITICAL


def test_closed_form_p5_center_and_shape(gs5):
    # U(0) = 3^(1/4), U(x) = 3^(1/4) (cosh 2x)^(-1/2)
    assert gs5.profile.values[0] == pytest.approx(3.0 ** 0.25, rel=1e-14)
    x = np.linspace(0.0, 5.0, 101)
    expect = 3.0 ** 0.25 * np.cosh(2 * x) ** -0.5
    assert np.max(np.abs(gs5.u_exact(x) - expect)) < 1e-14


def test_closed_form_tail_does_not_overflow():
    # cosh(k x) overflows past k x = 710; there U = amp 2^m e^{-m k |x|}
    # (1.9e-174 amp at k x = 800 for p = 5), and where cosh is finite the
    # values are the cosh formula's, bit for bit
    u, du, d2u = closed_form_soliton(5.0)
    amp = 3.0 ** 0.25
    near = np.array([0.0, 0.5, 7.0, 300.0, -354.0])
    far = np.array([400.0, -400.0, 700.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [f(np.concatenate([near, far])) for f in (u, du, d2u)]
    assert np.array_equal(values[0][:5], amp * np.cosh(2.0 * near) ** -0.5)
    assert np.array_equal(values[2][:5], 0.5 * 4.0 * values[0][:5] * (
        0.5 - 1.5 * np.cosh(2.0 * near) ** -2.0))
    tail = amp * np.sqrt(2.0) * np.exp(-np.abs(far))
    assert values[0][5:] == pytest.approx(tail, rel=1e-12, abs=0.0)
    assert np.all(np.isfinite(values[1])) and np.all(np.isfinite(values[2]))


def test_closed_form_p3_residual(gs3):
    # U = sqrt(2) sech x solves -U'' + U = U^3 identically
    u, du, d2u = closed_form_soliton(3.0)
    x = gs3.profile.nodes
    assert np.max(np.abs(u(x) - np.sqrt(2) / np.cosh(x))) < 1e-14
    assert ode_residual_max(gs3) < 1e-12


def test_closed_form_p5_residual(gs5):
    assert ode_residual_max(gs5) < 1e-12


def test_monotone_decrease(gs5, gs3, gs2d):
    for gs in (gs5, gs3, gs2d):
        assert np.all(np.diff(gs.profile.values) < 0)


def test_mass_sigma0_analytic(gs5, gs3):
    assert 2 * gs5.sigma0 == pytest.approx(TWO_SIGMA0_P5, rel=1e-10)
    assert 2 * gs3.sigma0 == pytest.approx(TWO_SIGMA0_P3, rel=1e-10)
    assert gs5.sigma0 > 0 and gs3.sigma0 > 0


def test_quadrature_pair_agreement(gs5, gs3, gs2d):
    # independent trapezoid-vs-Simpson cross-check
    for gs in (gs5, gs3, gs2d):
        a = mass_sigma0(gs, rule="simpson")
        b = mass_sigma0(gs, rule="trapezoid")
        assert abs(a / b - 1.0) < 1e-8


def test_decay_constants(gs5, gs3):
    # exponential prefactors of the explicit solitons
    assert gs5.frak_c == pytest.approx(12.0 ** 0.25, rel=1e-8)
    assert gs3.frak_c == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-8)


def test_decay_plateau_spread_p3(gs3):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # spread below 1e-3 must not warn
        decay_constant(gs3)


def test_decay_plateau_flat_for_dim2(monkeypatch, gs2d):
    # with the K_nu tail terms divided out the N = 2 plateau is flat to 1e-4
    # at R = 40, and the constant does not move when the grid grows to R = 60
    import warnings
    with warnings.catch_warnings(), monkeypatch.context() as m:
        warnings.simplefilter("error")
        m.setattr(groundstate, "DECAY_SPREAD_TOL", 1e-4)
        assert decay_constant(gs2d) == gs2d.frak_c
    far = solve_ground_state(ProblemParams(2, 3.0), r_max=60.0)
    assert far.frak_c == pytest.approx(gs2d.frak_c, rel=1e-5)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_unresolved_decay_plateau_is_refused(dim):
    # at p = 1.05 the state is so wide that r_max = 40 shows no plateau
    # (spread 5.5 to 6.2 of the median), and frak_c came out as 1e10 to 1e14
    # with only a warning; whichever gate refuses it, no result is returned
    with pytest.raises(SolverError):
        solve_ground_state(ProblemParams(dim, 1.05))


def test_decay_short_grid_raises(gs3):
    from normwave.groundstate import GroundState, RadialProfile
    keep = gs3.profile.nodes <= 6.0
    short = RadialProfile(gs3.profile.nodes[keep], gs3.profile.values[keep],
                          gs3.profile.dvalues[keep])
    crippled = GroundState(gs3.params, short, gs3.sigma0, gs3.frak_c)
    with pytest.raises(TailNotResolved):
        decay_constant(crippled)


def test_shooting_dim2_residual(gs2d):
    assert ode_residual_max(gs2d) < 1e-8


def test_shooting_dim2_variational_identities(gs2d):
    # (∫|∇U|^2, ∫U^2, ∫U^{p+1}) satisfy the multiplier and dilation identities
    from normwave import radial
    prof = gs2d.profile
    p, dim = gs2d.params.p, gs2d.params.dim
    grad2 = radial.radial_quadrature(prof.nodes, prof.dvalues ** 2, dim)
    mass = radial.radial_quadrature(prof.nodes, prof.values ** 2, dim)
    pw = radial.radial_quadrature(prof.nodes,
                                  np.abs(prof.values) ** (p + 1), dim)
    assert grad2 + mass - pw == pytest.approx(0.0, abs=1e-7)
    pohozaev = (dim - 2) / 2 * grad2 + dim / 2 * mass - dim / (p + 1) * pw
    assert pohozaev == pytest.approx(0.0, abs=1e-7)


# N = 2 to 5, p from 1.05 to 0.05 below the Sobolev bound
SIGN_SHOT_PAIRS = [(2, 3.0), (5, 1.8), (3, 1.05), (4, 2.95), (4, 1.2875),
                   (5, 7.0 / 3.0 - 0.05)]


@pytest.mark.parametrize("dim, p", SIGN_SHOT_PAIRS)
def test_sign_shots_bisect_as_at_shot_rtol(monkeypatch, dim, p):
    # the bisection reads only the sign of a shot, so its loose tolerance
    # must take every decision a tight one takes: the same U(0) to the bit.
    # At rtol 1e-3 the last four pairs bisect to another U(0)
    s, _ = groundstate._shoot_ground_state(p, dim)
    monkeypatch.setattr(groundstate, "SHOT_RTOL", 3e-9)
    assert groundstate._shoot_ground_state(p, dim)[0] == s


def scipy_shot(p, dim, s, rtol, dense_output=False):
    """scipy's DOP853 shot from U(0) = s with the terminal events U = 0
    (downward) and U' = 0 (upward): the reference for the in-house shots."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    q, c = p - 1.0, dim - 1.0

    def rhs(t, y):
        u, v = y.tolist()
        return [v, u - abs(u) ** q * u - c * v / t]

    cross = lambda t, y: y[0]
    cross.terminal, cross.direction = True, -1
    turn = lambda t, y: y[1]
    turn.terminal, turn.direction = True, 1
    return scipy_solve_ivp(
        rhs, (groundstate.SHOT_START, groundstate.SHOT_STOP),
        list(groundstate._series(p, dim, s, groundstate.SHOT_START)),
        method="DOP853", rtol=rtol, atol=1e-13, events=[cross, turn],
        dense_output=dense_output)


@pytest.mark.parametrize("dim, p", SIGN_SHOT_PAIRS)
def test_sign_shots_match_scipy_dop853(monkeypatch, dim, p):
    # the in-house DOP853 must take scipy's sign on every shot; scipy's
    # solve_ivp, at the same tolerances and events, is the reference
    real_shot, shots = groundstate.solve_ivp, []

    def both(p_, dim_, s, path=None):
        sign = real_shot(p_, dim_, s, path)
        sol = scipy_shot(p, dim, s, groundstate.SHOT_RTOL)
        ref = -1 if sol.t_events[0].size else int(sol.t_events[1].size > 0)
        shots.append((s, sign, ref))
        return sign

    monkeypatch.setattr(groundstate, "solve_ivp", both)
    groundstate._shoot_ground_state(p, dim)
    assert len(shots) >= 12
    assert [sign for _, sign, _ in shots] == [ref for _, _, ref in shots]


@pytest.mark.parametrize("dim, p", [(2, 3.0), (5, 1.8), (6, 1.5)])
def test_shooting_guess_follows_scipy_dense_shot(dim, p):
    # the guess samples the recorded steps of a shot at rtol 1e-6 by cubic
    # Hermite; up to the splice it stays within 1e-3 U(0) of scipy's DOP853
    # dense output at 3e-9 from the same U(0) (1.7e-4, 6.7e-5 and 4.7e-5)
    s, path = groundstate._shoot_ground_state(p, dim)
    sol = scipy_shot(p, dim, s, 3e-9, dense_output=True)
    r = groundstate.radial.uniform_grid(40.0, 1.0 / 600.0)
    guess = groundstate._shooting_guess(ProblemParams(dim, p), r)
    shot = (r >= groundstate.SHOT_START) & (r <= min(12.0, path[-1][0] - 1.0))
    assert np.count_nonzero(shot) > 1000
    assert np.max(np.abs(guess[shot] - sol.sol(r[shot])[0])) <= 1e-3 * s


def test_shooting_dim2_constants(gs2d):
    # a polish stopped at its rounding floor from a looser shot must not
    # move the pins
    assert gs2d.sigma0 == pytest.approx(SIGMA0_DIM2_P3, rel=1e-10)
    assert gs2d.frak_c == pytest.approx(FRAK_C_DIM2_P3, rel=1e-10)


def test_shooting_dim3():
    gs = solve_ground_state(ProblemParams(3, 7.0 / 3.0), r_max=30.0)
    assert ode_residual_max(gs) < 1e-8
    assert gs.sigma0 > 0


def test_shooting_dim5_mass_critical():
    # the critical mass 2*sigma0 at p = 1 + 4/N for N = 5, where U(0) = 19.13
    # puts the sixth-order residual at its rounding floor, near 1e-8; the
    # error estimate of sigma0 is far below its gate
    gs = solve_ground_state(ProblemParams(5, 1.8))
    assert gs.sigma0_rel_err <= 1e-10
    assert gs.sigma0 == pytest.approx(1481.9294824940841, rel=1e-10)


@pytest.mark.parametrize("dim, p, spacing", [(3, 4.0, 1.0 / 300.0),
                                             (3, 4.0, 1.0 / 600.0),
                                             (3, 3.0, 1.0 / 300.0)])
def test_sigma0_estimate_rejects_truncation(dim, p, spacing):
    # sigma0 errors of 2.8e-7, 1.8e-8 and 2.0e-9 relative
    with pytest.raises(NoConvergence, match="sigma0 error estimate"):
        solve_ground_state(ProblemParams(dim, p), spacing=spacing)


@pytest.mark.parametrize("dim, p", [(3, 3.0), (2, 5.0), (4, 2.5)])
def test_truncation_bound_pairs_pass_with_estimate(dim, p):
    # their sixth-order residuals (4e-8 to 6e-7) failed the old 1e-8 gate at
    # the default spacing, where sigma0 is good to about 3e-10
    gs = solve_ground_state(ProblemParams(dim, p))
    assert 0.0 < gs.sigma0_rel_err <= groundstate.SIGMA0_RTOL
    assert 0.0 < gs.frak_c_rel_err < 1e-8
    assert ode_residual_max(gs) > 1e-8


@pytest.mark.parametrize("dim, p, spacing", [(3, 3.0, 1.0 / 300.0),
                                             (3, 4.0, 1.0 / 600.0)])
def test_sigma0_estimate_matches_richardson(monkeypatch, dim, p, spacing):
    # the fourth-order two-grid error (sigma0(h/2) - sigma0(h)) * 16/15
    monkeypatch.setattr(groundstate, "SIGMA0_RTOL", np.inf)
    coarse = solve_ground_state(ProblemParams(dim, p), spacing=spacing)
    fine = solve_ground_state(ProblemParams(dim, p), spacing=spacing / 2.0)
    richardson = abs(fine.sigma0 - coarse.sigma0) * 16.0 / 15.0 / coarse.sigma0
    assert coarse.sigma0_rel_err == pytest.approx(richardson, rel=0.25)


def test_shooting_budget_error(monkeypatch):
    monkeypatch.setattr(groundstate, "MAX_DOUBLINGS", 0)
    with pytest.raises(NoConvergence):
        solve_ground_state(ProblemParams(2, 3.0))


@pytest.mark.parametrize("p", [20.0, 30.0, 50.0, 100.0])
def test_overflowing_shot_raises_no_convergence(p):
    # |u|^{p-1} u on Python floats raised a bare OverflowError out of the
    # shot's right-hand side
    with pytest.raises(NoConvergence, match=r"shot from U\(0\) = .* overflow"):
        solve_ground_state(ProblemParams(2, p))


def test_scale_identity(gs3):
    prof, mass = scale_solution(gs3, 1.0)
    assert np.max(np.abs(prof.values - gs3.profile.values)) == 0.0
    assert mass == pytest.approx(TWO_SIGMA0_P3, rel=1e-10)


def test_scale_p3_lambda4(gs3):
    _, mass = scale_solution(gs3, 4.0)
    assert mass == pytest.approx(8.0, rel=1e-10)


def test_scale_mass_critical_independence(gs5):
    for lam in (0.3, 1.7, 6.0):
        _, mass = scale_solution(gs5, lam)
        assert mass == pytest.approx(TWO_SIGMA0_P5, rel=1e-10)


def test_scale_measured_mass_matches_closed_form(gs3):
    rng = np.random.default_rng(20260810)
    p, dim = gs3.params.p, gs3.params.dim
    for lam in rng.uniform(0.1, 10.0, size=10):
        _, mass = scale_solution(gs3, lam)
        expect = lam ** (2 / (p - 1) - dim / 2) * TWO_SIGMA0_P3
        assert mass == pytest.approx(expect, rel=1e-10)


def test_pure_scaling_roundtrip(gs3):
    params = gs3.params
    assert solve_pure_scaling(params, 8.0, ground_state=gs3) \
        == pytest.approx(4.0, rel=1e-10)
    assert solve_pure_scaling(params, TWO_SIGMA0_P3, ground_state=gs3) \
        == pytest.approx(1.0, rel=1e-10)
    rng = np.random.default_rng(7)
    for lam in rng.uniform(0.1, 10.0, size=10):
        _, mass = scale_solution(gs3, lam)
        back = solve_pure_scaling(params, mass, ground_state=gs3)
        assert back == pytest.approx(lam, rel=1e-10)


@pytest.mark.parametrize("rho", [np.inf, np.nan])
def test_pure_scaling_rejects_nonfinite_mass(monkeypatch, rho):
    # inf returned inf and nan returned nan; rejected before the ground state
    def no_ground_state(*args, **kwargs):
        raise AssertionError("ground state solved before rho was checked")

    monkeypatch.setattr(groundstate, "solve_ground_state", no_ground_state)
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        solve_pure_scaling(ProblemParams(1, 3.0), rho)


@pytest.mark.parametrize("lam", [np.inf, np.nan])
def test_scale_solution_rejects_nonfinite_lambda(monkeypatch, gs3, lam):
    # was "radial grid must start at r = 0" (nan) or "... strictly
    # increasing" (inf) from the quadrature of the scaled grid
    def no_quadrature(*args, **kwargs):
        raise AssertionError("scaled profile integrated before lam was checked")

    monkeypatch.setattr(groundstate.radial, "radial_quadrature", no_quadrature)
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        scale_solution(gs3, lam)


def test_pure_scaling_critical(gs5, gs2d):
    assert solve_pure_scaling(gs5.params, 2 * gs5.sigma0,
                              ground_state=gs5) is ANY_LAMBDA
    with pytest.raises(MassCriticalInfeasible):
        solve_pure_scaling(gs2d.params, 2 * gs2d.sigma0 + 0.5,
                           ground_state=gs2d)


def test_profile_tail_model(gs3):
    # beyond the grid the declared exponential model takes over
    R = gs3.profile.nodes[-1]
    val = gs3.profile(R + 1.0)
    assert val == pytest.approx(gs3.profile.values[-1] * np.exp(-1.0), rel=1e-12)
