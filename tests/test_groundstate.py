import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (FRAK_C_DIM2_P3, SIGMA0_DIM2_P3, TWO_SIGMA0_P3,
                      TWO_SIGMA0_P5)
from normwave import groundstate
from normwave.corrections import correction_profile
from normwave.errors import (MassCriticalInfeasible, NoConvergence,
                             SolverError, TailNotResolved)
from normwave.groundstate import (ANY_LAMBDA, ProblemParams, Regime,
                                  closed_form_soliton, decay_constant,
                                  mass_moment, mass_sigma0, ode_residual_max,
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
    # with the whole K_nu tail series divided out the N = 2 plateau is flat
    # to 1e-8 (4e-10) at the default R = 20, and the constant does not move
    # when the grid grows to R = 60 (5.6e-12); with two terms of the series
    # the spread was 3.8e-5 and frak_c 2.2e-6 low
    import warnings
    with warnings.catch_warnings(), monkeypatch.context() as m:
        warnings.simplefilter("error")
        m.setattr(groundstate, "DECAY_SPREAD_TOL", 1e-8)
        assert decay_constant(gs2d) == gs2d.frak_c
    far = solve_ground_state(ProblemParams(2, 3.0), r_max=60.0)
    assert far.frak_c == pytest.approx(gs2d.frak_c, rel=1e-10)


# the pairs of the radial benchmark and (5, 1.8), with the radius each
# solves on by default
DEFAULT_RADII = {(2, 2.0): 27.0, (2, 3.0): 20.0, (2, 4.0): 20.0,
                 (3, 2.0): 26.0, (3, 2.5): 20.0, (4, 1.8): 31.0,
                 (4, 2.0): 24.0, (5, 1.8): 31.0}


@functools.lru_cache(maxsize=None)
def solved(dim, p, r_max=None):
    """The ground state of (dim, p) on [0, r_max], with its correction."""
    gs = solve_ground_state(ProblemParams(dim, p), r_max=r_max)
    return gs, correction_profile(gs)


@pytest.mark.parametrize("dim, p, radius", [
    *((dim, p, radius) for (dim, p), radius in DEFAULT_RADII.items()),
    (6, 1.5, 40.0), (2, 1.05, 40.0), (4, 1.05, 40.0)])
def test_default_radius_is_pinned(dim, p, radius):
    # the smallest whole R >= 20 at which p U^{p-1} of the shot's tail is at
    # most 5e-8 where the plateau starts, 2R/3, and never above 40: a change
    # that grows the grid fails here rather than in the benchmark's timings
    params = ProblemParams(dim, p)
    c = groundstate._shot_splice(params)[3]
    assert groundstate._tail_radius(params, c) == radius
    if (dim, p) in DEFAULT_RADII:
        assert solved(dim, p)[0].profile.nodes[-1] == radius


@pytest.mark.parametrize("dim, p", DEFAULT_RADII)
def test_default_radius_matches_r60(dim, p):
    # at the default radius the plateau is flat (spread at most 1.5e-8), and
    # frak_c, sigma0 and m_frak are those of R = 60. With two terms of the
    # K_nu series frak_c lay 2.2e-6 (N = 2) and 3.2e-6 (N = 4) off. m_frak
    # is held to 1e-10 relative to max(1, |m_frak|): (4, 2), where m_frak is
    # 58, reads 8.4e-10 absolute, the spread of Newton's rounding floor
    # (R = 30 reads 9.1e-10, and further Newton steps at one R move it by
    # as much)
    gs, corr = solved(dim, p)
    far, far_corr = solved(dim, p, 60.0)
    r = gs.profile.nodes
    g = groundstate._decay_plateau(r, dim)(gs.profile.values)
    assert (np.max(g) - np.min(g)) / gs.frak_c <= 2e-8
    assert gs.frak_c == pytest.approx(far.frak_c, rel=1e-9)
    assert gs.sigma0 == pytest.approx(far.sigma0, rel=1e-11)
    assert corr.m_frak == pytest.approx(
        far_corr.m_frak, rel=0.0, abs=1e-10 * max(1.0, abs(far_corr.m_frak)))


@pytest.mark.parametrize("dim, p", DEFAULT_RADII)
def test_converged_nonlinearity_at_the_plateau_start(dim, p):
    # _tail_radius bounds p U^{p-1} at 2R/3 on the shot's tail, whose c is
    # 0.39 to 2.0 times frak_c; on the converged profile it reads up to
    # 7.75e-8 (at (2, 2)), above that 5e-8. Held at 1e-7, so that a change
    # that shrinks R fails here
    gs, _ = solved(dim, p)
    r = gs.profile.nodes
    i = np.searchsorted(r, 2.0 * r[-1] / 3.0)
    assert p * gs.profile.values[i] ** (p - 1) <= 1e-7


@pytest.mark.parametrize("dim, p", [*DEFAULT_RADII, (1, 5.0)])
def test_last_derivatives_meet_the_robin_row(dim, p):
    # U' and W' at R, from d1_six's one-sided rows, are the Robin row's
    # -beta(R) times the value (to 1.1e-10 and 8e-11): the tail model
    # W' = -W written there before read 1.8e-2 to 6.2e-2 off for N >= 2
    gs, corr = solved(dim, p)
    beta = float(groundstate.radial.decay_rate(gs.profile.nodes[-1], dim))
    for prof in (gs.profile, corr.profile):
        assert prof.dvalues[-1] == pytest.approx(-beta * prof.values[-1],
                                                 rel=1e-9)


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
# the README's sweep: N = 2 to 6, nine p each from 1.05 up to 0.05 below
# the Sobolev bound, or up to 10 for N = 2
SWEEP_PAIRS = [(dim, 1.05 + k / 8.0 * (top - 1.05))
               for dim, top in [(2, 10.0)] + [(n, (n + 2) / (n - 2) - 0.05)
                                              for n in range(3, 7)]
               for k in range(9)]
# N = 2 exponents whose first shot, from U(0) = 2, overflows
OVERFLOW_PS = [20.0, 30.0, 50.0, 100.0]


def _bisection_outcome(p, dim):
    """The bisected U(0) (float.hex), or the refusal's type and message."""
    try:
        return groundstate._shoot_ground_state(p, dim)[0].hex()
    except NoConvergence as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("dim, p", sorted(set(SIGN_SHOT_PAIRS + SWEEP_PAIRS))
                         + [(2, p) for p in OVERFLOW_PS])
def test_sign_shots_bisect_as_at_shot_rtol(monkeypatch, dim, p):
    # the bisection reads only the sign of a shot, so its loose tolerance
    # must take every decision a tight one takes: the same U(0) to the bit,
    # or the same refusal
    outcome = _bisection_outcome(p, dim)
    monkeypatch.setattr(groundstate, "SIGN_RTOL", 3e-9)
    assert _bisection_outcome(p, dim) == outcome


@pytest.mark.parametrize("dim, p", [(3, 1.05), (4, 1.2875), (4, 2.95),
                                    (5, 7.0 / 3.0 - 0.05)])
def test_sign_rtol_steers_the_bisection(monkeypatch, dim, p):
    # every shot but the last runs at SIGN_RTOL: a decade above it, 1e-3,
    # these pairs bisect to another U(0); SHOT_RTOL, the last shot's, does
    # not move it
    s = _bisection_outcome(p, dim)
    monkeypatch.setattr(groundstate, "SHOT_RTOL", 1e-3)
    assert _bisection_outcome(p, dim) == s
    monkeypatch.setattr(groundstate, "SIGN_RTOL", 1e-3)
    assert _bisection_outcome(p, dim) != s


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
    # solve_ivp, at the same tolerances and events, is the reference: a
    # shot that records no path runs at SIGN_RTOL, the last at SHOT_RTOL
    real_shot, shots = groundstate.solve_ivp, []

    def both(p_, dim_, s, path=None):
        sign = real_shot(p_, dim_, s, path)
        sol = scipy_shot(p, dim, s, groundstate.SIGN_RTOL if path is None
                         else groundstate.SHOT_RTOL)
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
    params = ProblemParams(dim, p)
    guess = groundstate._shooting_guess(params, r,
                                        groundstate._shot_splice(params))
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


@pytest.mark.parametrize("p", OVERFLOW_PS)
def test_overflowing_shot_raises_no_convergence(p):
    # |u|^{p-1} u on Python floats raised a bare OverflowError out of the
    # shot's right-hand side
    with pytest.raises(NoConvergence, match=r"shot from U\(0\) = .* overflow"):
        solve_ground_state(ProblemParams(2, p))


# -- the shot's DOP853 step against a plain reference copy ---------------------

def _reference_shot_rhs(p, dim):
    q, c = p - 1.0, dim - 1.0
    return lambda t, u, v: u - abs(u) ** q * u - c * v / t


def _reference_weighted_sums(w, ku, kv):
    su = sv = 0.0
    for wi, x, y in zip(w, ku, kv):
        su += wi * x
        sv += wi * y
    return su, sv


def _reference_solve_ivp(p, dim, s, path=None):
    """groundstate.solve_ivp as it was before its step was written out stage
    by stage: each stage sum zips a tableau row, and the right-hand side is
    a closure. Kept as the reference for the written-out step; it takes the
    code's tolerances, SHOT_RTOL with a path and SIGN_RTOL without."""
    accel = _reference_shot_rhs(p, dim)
    rtol = groundstate.SIGN_RTOL if path is None else groundstate.SHOT_RTOL
    atol = groundstate.SHOT_ATOL
    stop = groundstate.SHOT_STOP
    sq = lambda x, y: x * x + y * y
    rms = lambda x, y: math.sqrt(sq(x, y)) / 2.0 ** 0.5
    t = groundstate.SHOT_START
    u, v = groundstate._series(p, dim, s, t)
    a = accel(t, u, v)
    if path is not None:
        path.append((t, u, v))
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = rms(u / su, v / sv), rms(v / su, a / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, stop - t)
    u1, v1 = u + h0 * v, v + h0 * a
    d2 = rms((v1 - v) / su, (accel(t + h0, u1, v1) - a) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, stop - t)
    while t < stop:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return 0
            t_new = min(t + h_abs, stop)
            h = h_abs = t_new - t
            ku, kv = [v], [a]
            for c, row in zip(groundstate._DOP853_C, groundstate._DOP853_A):
                du, dv = _reference_weighted_sums(row, ku, kv)
                us, vs = u + du * h, v + dv * h
                ku.append(vs)
                kv.append(accel(t + c * h, us, vs))
            du, dv = _reference_weighted_sums(groundstate._DOP853_B, ku, kv)
            u_new, v_new = u + h * du, v + h * dv
            a_new = accel(t + h, u_new, v_new)
            ku.append(v_new)
            kv.append(a_new)
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            e5u, e5v = _reference_weighted_sums(groundstate._DOP853_E5, ku, kv)
            e3u, e3v = _reference_weighted_sums(groundstate._DOP853_E3, ku, kv)
            e5, e3 = sq(e5u / su, e5v / sv), sq(e3u / su, e3v / sv)
            err = 0.0 if e5 == 0 and e3 == 0 else (
                h * e5 / math.sqrt((e5 + 0.01 * e3) * 2))
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
        if path is not None:
            path.append((t_new, u_new, v_new))
        crossed, turned = u >= 0.0 >= u_new, v <= 0.0 <= v_new
        if crossed and turned:
            raise NoConvergence(f"shot from U(0) = {s!r} crossed zero and "
                                f"turned upward in one step")
        if crossed or turned:
            return -1 if crossed else 1
        t, u, v, a = t_new, u_new, v_new, a_new
    return 0


def _shot_record(shot, p, dim, s, sign=False):
    """What a shot returns or raises (type and message), and its path with
    every float as float.hex, so that signed zeros count. A sign shot
    (sign=True) records no path of its own, so its steps are recorded here
    with SHOT_RTOL set to SIGN_RTOL: the shot it runs, step for step."""
    path = []
    with pytest.MonkeyPatch.context() as mp:
        if sign:
            mp.setattr(groundstate, "SHOT_RTOL", groundstate.SIGN_RTOL)
        try:
            outcome = shot(p, dim, s, path)
        except Exception as exc:
            outcome = (type(exc), str(exc))
    return outcome, [tuple(map(float.hex, point)) for point in path]


def _checked_bisection(monkeypatch, p, dim):
    """Run _shoot_ground_state with every shot checked against the reference
    at its own tolerance (SIGN_RTOL for a shot that records no path);
    returns the records of the shots checked."""
    real_shot, checked = groundstate.solve_ivp, []

    def both(p_, dim_, s, path=None):
        record = _shot_record(real_shot, p_, dim_, s, path is None)
        assert record == _shot_record(_reference_solve_ivp, p_, dim_, s,
                                      path is None)
        checked.append(record)
        outcome = real_shot(p_, dim_, s, path)
        assert outcome == record[0]
        return outcome

    monkeypatch.setattr(groundstate, "solve_ivp", both)
    groundstate._shoot_ground_state(p, dim)
    return checked


# the radial_ground_states pairs of the benchmark (bench/workloads.py)
RADIAL_PAIRS = [(2, 2.0), (2, 3.0), (2, 4.0), (3, 2.0), (3, 2.5), (4, 1.8),
                (4, 2.0)]


@pytest.mark.parametrize("dim, p", sorted(set(RADIAL_PAIRS + SIGN_SHOT_PAIRS)))
def test_shot_step_matches_reference_bit_for_bit(monkeypatch, dim, p):
    # every shot of the bisection returns the reference's sign and records
    # the reference's path, float for float
    checked = _checked_bisection(monkeypatch, p, dim)
    assert len(checked) >= 12
    assert all(outcome in (-1, 0, 1) for outcome, _ in checked)
    assert len(checked[-1][1]) > 10


@pytest.mark.parametrize("p", OVERFLOW_PS)
def test_overflowing_shot_matches_reference(monkeypatch, p):
    # the shot that overflows raises the reference's OverflowError, with its
    # message and after the same accepted steps
    with pytest.raises(NoConvergence, match="overflow"):
        _checked_bisection(monkeypatch, p, 2)


def _below_sobolev(dim, frac):
    """p from 1.05 up to just below the Sobolev bound (N + 2)/(N - 2), or up
    to 10 for N = 2."""
    top = 10.0 if dim == 2 else (dim + 2) / (dim - 2)
    return 1.05 + frac * (top - 1.05)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 6), frac=st.floats(0.0, 1.0, exclude_max=True),
       s=st.floats(1.0, 64.0))
def test_shot_matches_reference_on_random_starts(dim, frac, s):
    p = _below_sobolev(dim, frac)
    for sign in (False, True):
        assert _shot_record(groundstate.solve_ivp, p, dim, s, sign) \
            == _shot_record(_reference_solve_ivp, p, dim, s, sign)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 6), frac=st.floats(0.0, 1.0, exclude_max=True))
def test_ground_state_contract(dim, frac):
    # a documented refusal, or a strictly decreasing profile with finite
    # constants whose sigma0 estimate meets the gate; no RuntimeWarning on
    # the way, only the plateau's UserWarning
    params = ProblemParams(dim, _below_sobolev(dim, frac))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "decay plateau spread", UserWarning)
        try:
            gs = solve_ground_state(params)
        except (NoConvergence, TailNotResolved):
            return
    assert np.all(np.diff(gs.profile.values) < 0)
    assert np.isfinite(gs.sigma0) and np.isfinite(gs.frak_c)
    assert 0.0 <= gs.sigma0_rel_err <= groundstate.SIGMA0_RTOL


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


@pytest.mark.parametrize("dim, p", [(1, 5.0), (2, 3.0)])
def test_mass_moment_is_taken_once_per_ground_state(monkeypatch, dim, p):
    # every solve_normalized on a line with a potential reads it; a second
    # call reads the first one's bits and does no quadrature
    gs = solve_ground_state(ProblemParams(dim, p))
    prof = gs.profile
    direct = groundstate.radial.radial_quadrature(
        prof.nodes, prof.nodes ** 2 * prof.values ** 2, dim, tail_decay=2.0)
    first = mass_moment(gs, 1)
    assert repr(first) == repr(direct)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the moment was integrated again")

    monkeypatch.setattr(groundstate.radial, "radial_quadrature",
                        no_quadrature)
    assert repr(mass_moment(gs, 1)) == repr(first)
    assert "moments" not in repr(gs)
