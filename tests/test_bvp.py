import dataclasses
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from conftest import TWO_SIGMA0_P5
from normwave import bvp
from normwave.bvp import (DomainSpec, MassEvaluator, NormalizedSolution,
                          assemble_residual, solve_fixed_epsilon,
                          solve_normalized, trace_branch)
from normwave.errors import (BracketFailed, NewtonDiverged, NonPositive,
                             NoSolutionInRegime)
from normwave.groundstate import (ProblemParams, closed_form_soliton,
                                  solve_ground_state)

P3 = ProblemParams(1, 3.0)
P5 = ProblemParams(1, 5.0)
LINE_X2 = DomainSpec("realline", potential=(1.0,))
LINE_X4 = DomainSpec("realline", potential=(0.0, 1.0))


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec("interval", -1, 1, None)
    with pytest.raises(ValueError):
        DomainSpec("interval", -1, 1, "dirichlet", potential=(1.0,))
    with pytest.raises(ValueError):
        DomainSpec("realline", bc="neumann")
    with pytest.raises(ValueError):
        DomainSpec("disk")
    for bad in (dict(a=0.0), dict(b=5.0)):
        with pytest.raises(ValueError, match="the real line takes no ends"):
            DomainSpec("realline", **bad)
    for kind, bad in (("interval", dict(b=np.inf, bc="dirichlet")),
                      ("interval", dict(a=np.nan, bc="neumann")),
                      ("realline", dict(potential=(1.0, np.nan)))):
        with pytest.raises(ValueError, match="must be finite"):
            DomainSpec(kind, **bad)


@pytest.mark.parametrize("eps_min", [np.nan, np.inf, 0.0, -0.1, 0.5])
def test_solve_normalized_rejects_eps_min(monkeypatch, eps_min):
    def no_ground_state(*args, **kwargs):
        raise AssertionError("ground state solved before eps_min was checked")

    monkeypatch.setattr(bvp, "solve_ground_state", no_ground_state)
    with pytest.raises(ValueError, match="eps_min"):
        solve_normalized(DomainSpec("realline"), P3, 8.0, eps_min=eps_min)


def test_residual_zero_solution():
    spec = DomainSpec("interval", -1, 1, "dirichlet")
    x = np.linspace(-1, 1, 501)
    res = assemble_residual(spec, P5, 0.3, x, np.zeros_like(x))
    assert np.max(np.abs(res)) == 0.0


def test_residual_neumann_constant_row():
    # flat profile has zero flux: boundary row reduces to (1 - u^{p-1}) u
    spec = DomainSpec("interval", -1, 1, "neumann")
    x = np.linspace(-1, 1, 201)
    c = 0.7
    res = assemble_residual(spec, P5, 0.3, x, np.full_like(x, c))
    expect = (1.0 - c ** 4) * c
    assert res[0] == pytest.approx(expect, rel=1e-14)
    assert res[-1] == pytest.approx(expect, rel=1e-14)


def test_residual_discretization_order_exact_soliton():
    # Numerov rows are fourth order: halving h divides the residual by ~16
    spec = DomainSpec("realline")
    u_exact, _, _ = closed_form_soliton(3.0)
    norms = {}
    for n in (2000, 4000):
        x = np.linspace(-20, 20, n + 1)
        res = assemble_residual(spec, P3, 1.0, x, u_exact(x))
        norms[n] = np.max(np.abs(res))
    ratio = norms[2000] / norms[4000]
    assert abs(ratio - 16.0) < 0.6


def test_mass_discretization_order_exact_case():
    # realline p=3 at eps=0.5 has exact mass 8; Numerov rows and Simpson's
    # rule make the mass fourth order
    spec = DomainSpec("realline")
    errs = {}
    for n in (4800, 9600):
        sol = solve_fixed_epsilon(spec, P3, 0.5, n_override=n)
        errs[n] = abs(sol.mass - 8.0)
    ratio = errs[4800] / errs[9600]
    assert abs(ratio - 16.0) < 0.6


def test_fixed_epsilon_dirichlet_center_value(gs5):
    spec = DomainSpec("interval", -1, 1, "dirichlet")
    sol = solve_fixed_epsilon(spec, P5, 0.2)
    assert sol.concentration_point == pytest.approx(0.0, abs=1e-12)
    mid = len(sol.nodes) // 2
    assert abs(sol.u_values[mid] / gs5.profile.values[0] - 1.0) < 0.02
    assert sol.residual_inf < 1e-9


def test_fixed_epsilon_realline_matches_soliton():
    spec = DomainSpec("realline")
    eps = 0.4
    sol = solve_fixed_epsilon(spec, P3, eps)
    u_exact, _, _ = closed_form_soliton(3.0)
    diff = np.max(np.abs(sol.u_values - u_exact(sol.nodes / eps)))
    assert diff < 5e-5  # discretization-level agreement


def test_unknown_conventions_consistency():
    sol = solve_fixed_epsilon(DomainSpec("realline"), P3, 0.4)
    a = simpson(sol.v_values ** 2, x=sol.nodes)
    p = sol.params.p
    b = sol.epsilon ** (-4 / (p - 1)) * simpson(sol.u_values ** 2, x=sol.nodes)
    assert a == pytest.approx(b, rel=1e-13)
    assert np.allclose(sol.v_values,
                       sol.epsilon ** (-2 / (p - 1)) * sol.u_values, rtol=1e-14)


def test_one_sided_masses(gs5):
    sd = solve_fixed_epsilon(DomainSpec("interval", -1, 1, "dirichlet"), P5, 0.2)
    sn = solve_fixed_epsilon(DomainSpec("interval", -1, 1, "neumann"), P5, 0.2)
    assert sd.mass < TWO_SIGMA0_P5
    assert sn.mass > TWO_SIGMA0_P5


def test_endpoint_concentration(gs5):
    spec = DomainSpec("interval", -1, 1, "neumann")
    sol = solve_fixed_epsilon(spec, P5, 0.2, init="endpoint")
    assert sol.concentration_point == pytest.approx(1.0)
    assert abs(sol.mass / gs5.sigma0 - 1.0) < 0.05
    # half of the interior bump on the doubled interval (up to the tiny
    # translation-mode defect of the doubled solve)
    doubled = DomainSpec("interval", -1, 3, "neumann")
    inner = solve_fixed_epsilon(doubled, P5, 0.2)
    assert inner.concentration_point == pytest.approx(1.0, abs=1e-12)
    assert sol.mass == pytest.approx(inner.mass / 2.0, rel=1e-5)


def test_endpoint_requires_neumann():
    with pytest.raises(ValueError):
        solve_fixed_epsilon(DomainSpec("interval", -1, 1, "dirichlet"), P5,
                            0.2, init="endpoint")


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("a", [0.0, 1.0])
def test_interior_solves_start_at_the_centre(bc, a):
    # the ansatz sat at 0 on every interval: on (0, 2) Dirichlet diverged
    # and Neumann returned the endpoint half-bump, and on (1, 3) 0 is
    # outside and every solve was NonPositive. Each solve is now the
    # (-1, 1) one translated
    spec = DomainSpec("interval", a, a + 2.0, bc)
    centred = DomainSpec("interval", -1.0, 1.0, bc)
    for solve in (lambda s: solve_fixed_epsilon(s, P3, 0.3),
                  lambda s: solve_fixed_epsilon(s, P3, 0.1),
                  lambda s: solve_normalized(s, P3, 20.0)):
        sol, ref = solve(spec), solve(centred)
        assert sol.concentration_point == pytest.approx(a + 1.0, abs=1e-12)
        assert sol.mass == pytest.approx(ref.mass, rel=1e-11)
    eps_list = [0.3, 0.25, 0.2, 0.15]
    rows = trace_branch(spec, P3, eps_list)
    ref_rows = trace_branch(centred, P3, eps_list)
    for (_, mass, _), (_, ref_mass, _) in zip(rows, ref_rows):
        assert mass == pytest.approx(ref_mass, rel=1e-11)


def test_positivity_single_peak(gs5):
    sol = solve_fixed_epsilon(DomainSpec("interval", -1, 1, "neumann"), P5, 0.3)
    assert np.min(sol.u_values) > 0
    du = np.diff(sol.u_values)
    flips = np.count_nonzero(np.diff(np.sign(du[np.abs(du) > 1e-12])))
    assert flips <= 1


def _full_grid_checks(bc, u):
    """The profile checks as they ran on the whole mirrored grid before
    they moved onto the solved half: the error they raise, or None."""
    umax, umin = u.max(), u.min()
    interior_min = u[1:-1].min() if bc == "dirichlet" else umin
    floor = 1e-12 * max(umax, -umin)
    if umax <= 0 or interior_min < -floor or umax < 0.5:
        return NonPositive
    du = np.diff(u)
    signs = np.sign(du[np.abs(du) > floor])
    return NewtonDiverged if np.count_nonzero(np.diff(signs)) > 1 else None


def _set(values, i, value):
    out = values.copy()
    out[i] = value
    return out


def _bump(x):
    return 2.0 * np.exp(-(x / 0.3) ** 2)


HALF_PROFILES = {
    "bump": _bump,
    "twin_peaks": lambda x: 2.0 * np.exp(-((x - 0.5) / 0.2) ** 2),
    "centre_valley": lambda x: 1.0 + x ** 2,
    "negative_interior": lambda x: _set(_bump(x), 5, -0.1),
    "negative_centre": lambda x: _set(_bump(x), 0, -0.1),
    "zero_end": lambda x: _set(_bump(x), -1, 0.0),
    "negative_end": lambda x: _set(_bump(x), -1, -1e-3),
    "zero_end_negative_before":
        lambda x: _set(_set(_bump(x), -1, 0.0), -2, -1e-3),
    "trivial": lambda x: 0.1 * _bump(x),
    "constant": np.ones_like,
}


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", sorted(HALF_PROFILES))
@pytest.mark.parametrize("half_panels", [10, 11])
def test_half_grid_checks_match_full_grid_rule(bc, name, half_panels):
    # a mirrored profile is checked on the half Newton solved: the same
    # verdict as the full-grid rule, whose sign changes are 2c + 1 for c on
    # the half, and the same first maximum as the concentration point. Its
    # mass is Simpson's over the whole grid, summed on the half when the
    # half's panel count is even
    x = np.linspace(-1.0, 1.0, 2 * half_panels + 1)
    half = HALF_PROFILES[name](x[half_panels:])
    u = np.concatenate([half[::-1], half[1:]])
    spec = DomainSpec("interval", -1, 1, bc)
    expected = _full_grid_checks(bc, u)
    if expected is not None:
        with pytest.raises(expected):
            bvp._package(spec, P5, 0.2, x, half, 0, 0.0, mirrored=True)
        return
    sol = bvp._package(spec, P5, 0.2, x, half, 0, 0.0, mirrored=True)
    assert sol.u_values.tobytes() == u.tobytes()
    assert sol.concentration_point == x[u.argmax()]
    assert sol.mass == pytest.approx(0.2 ** -1.0 * simpson(u ** 2, x=x),
                                     rel=1e-14)
    if name == "constant":
        assert sol.concentration_point == -1.0


def test_zero_init_raises_nonpositive():
    spec = DomainSpec("interval", -1, 1, "dirichlet")
    n = 2000
    with pytest.raises(NonPositive):
        solve_fixed_epsilon(spec, P5, 0.3, u0=np.zeros(n + 1),
                            n_override=n)


def test_huge_init_raises_diverged():
    spec = DomainSpec("interval", -1, 1, "dirichlet")
    n = 2000
    with np.errstate(over="ignore"):  # the overflow is the point
        with pytest.raises(NewtonDiverged):
            solve_fixed_epsilon(spec, P5, 0.3, u0=np.full(n + 1, 1e160),
                                n_override=n)


def test_collapse_to_trivial_solution_raises_nonpositive():
    # p = 1.1: the bump is wider than (-1, 1), and Newton from the ansatz
    # at eps = 0.35 decays onto u = 0 (max u 2.4e-9, which was returned
    # with residual 2.9e-9 and mass 9.7)
    with pytest.raises(NonPositive, match="trivial solution"):
        solve_fixed_epsilon(DomainSpec("interval", -1, 1, "dirichlet"),
                            ProblemParams(1, 1.1), 0.35)


@pytest.mark.parametrize("p, eps", [(1.01, 0.1), (1.0001, 0.5)])
def test_overflowing_mass_scale_is_refused(monkeypatch, p, eps):
    # eps^{-4/(p-1)} overflows; this was an OverflowError after Newton
    def no_newton(*args, **kwargs):
        raise AssertionError("Newton ran before the mass scale was checked")

    monkeypatch.setattr(bvp, "solve_banded", no_newton)
    with pytest.raises(ValueError, match="mass scale"):
        solve_fixed_epsilon(DomainSpec("realline"), ProblemParams(1, p), eps)


def test_epsilon_validation():
    with pytest.raises(ValueError):
        solve_fixed_epsilon(DomainSpec("realline"), P3, 0.7)


def test_trace_branch_masses_increase(gs5):
    spec = DomainSpec("interval", -1, 1, "dirichlet")
    rows = trace_branch(spec, P5, [0.3, 0.25, 0.2, 0.15])
    masses = [m for _, m, _ in rows]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert all(m < TWO_SIGMA0_P5 for m in masses)


def test_trace_branch_single_entry_matches_fixed():
    spec = DomainSpec("interval", -1, 1, "dirichlet")
    rows = trace_branch(spec, P5, [0.25])
    sol = solve_fixed_epsilon(spec, P5, 0.25)
    assert rows[0][1] == pytest.approx(sol.mass, rel=1e-13)


def test_trace_branch_requires_decreasing():
    with pytest.raises(ValueError):
        trace_branch(DomainSpec("interval", -1, 1, "dirichlet"), P5,
                     [0.2, 0.25])


@pytest.mark.parametrize("eps_list", [[0.3, np.nan], [np.nan], [np.inf, 0.3],
                                      [0.3, -0.2], [0.3, 0.0], [0.6, 0.3]])
def test_trace_branch_refuses_bad_epsilon_before_solving(monkeypatch,
                                                         eps_list):
    # [0.3, nan] solved 0.3, then failed in the grid sizing with "cannot
    # convert float NaN to integer"; [0.3, -0.2] solved 0.3 first
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the eps list was checked")

    monkeypatch.setattr(bvp, "solve_fixed_epsilon", no_solve)
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 0.5\]"):
        trace_branch(DomainSpec("interval", -1, 1, "neumann"), P5, eps_list)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_trace_branch_warm_starts_only_within_warm_range(bc):
    # 0.2 -> 0.1 is a jump by 0.5: warm-started from the unscaled eps = 0.2
    # bump, Newton diverged (Dirichlet) or left a profile that is not
    # single-peaked (Neumann), and the bump rescaled to eps = 0.1 takes 2
    # or 3 Newton steps where the ansatz takes 1
    spec = DomainSpec("interval", -1, 1, bc)
    rows = trace_branch(spec, P3, [0.3, 0.2, 0.1])
    assert rows[-1][1] == solve_fixed_epsilon(spec, P3, 0.1).mass


def test_solve_normalized_exact_scaling():
    sol = solve_normalized(DomainSpec("realline"), P3, 8.0)
    assert abs(sol.lambda_ / 4.0 - 1.0) < 1e-6


@pytest.mark.parametrize("spec, params, rho", [
    (DomainSpec("realline"), P3, 8.0),
    (DomainSpec("interval", -1, 1, "dirichlet"), P5, TWO_SIGMA0_P5 - 0.01),
])
def test_solve_normalized_returns_matched_mass(monkeypatch, spec, params, rho):
    # the returned mass is the one the root-find compared with rho
    matched = {}
    call = MassEvaluator.__call__

    def recording(self, eps):
        matched[eps] = call(self, eps)
        return matched[eps]

    monkeypatch.setattr(MassEvaluator, "__call__", recording)
    sol = solve_normalized(spec, params, rho)
    assert sol.mass == matched[sol.epsilon]
    assert abs(sol.mass - rho) <= bvp.MASS_RTOL * rho


def test_solve_normalized_dirichlet_branch(gs5):
    rho = TWO_SIGMA0_P5 - 0.01
    sol = solve_normalized(DomainSpec("interval", -1, 1, "dirichlet"), P5,
                           rho, ground_state=gs5)
    assert sol.lambda_ > 10.0
    assert abs(sol.mass - rho) < 1e-4 * rho


def test_solve_normalized_forbidden_sides(gs5):
    spec_d = DomainSpec("interval", -1, 1, "dirichlet")
    with pytest.raises(NoSolutionInRegime):
        solve_normalized(spec_d, P5, TWO_SIGMA0_P5 + 0.01, ground_state=gs5)
    spec_n = DomainSpec("interval", -1, 1, "neumann")
    with pytest.raises(NoSolutionInRegime):
        solve_normalized(spec_n, P5, TWO_SIGMA0_P5 - 0.01, ground_state=gs5)
    with pytest.raises(NoSolutionInRegime):
        solve_normalized(DomainSpec("realline"), P5, TWO_SIGMA0_P5 - 0.01,
                         ground_state=gs5)


@pytest.mark.parametrize("potential", [(1.0,), (0.0, 1.0)])
def test_potential_line_refuses_mass_at_or_above_two_sigma0(monkeypatch, gs5,
                                                            potential):
    # with a_k > 0 the law 2 sigma0 - mass = k a_k eps^{2k+2} ∫y^{2k}U^2
    # puts every mass below 2 sigma0, and the masses over [EPS_MIN,
    # EPS_START] bear it out. rho = 2 sigma0 + 1e-3 on V = x^2 once walked
    # 13 solves down to eps_min before it raised BracketFailed
    spec = DomainSpec("realline", potential=potential)
    two_sigma0 = 2.0 * gs5.sigma0
    ev = MassEvaluator(spec, P5)
    masses = [ev(eps) for eps in np.geomspace(bvp.EPS_MIN, bvp.EPS_START, 5)]
    assert max(masses) < two_sigma0
    misses = _count_misses(monkeypatch)
    for rho in (two_sigma0, two_sigma0 + 1e-3, 2.0 * two_sigma0):
        with pytest.raises(NoSolutionInRegime, match="strictly below"):
            solve_normalized(spec, P5, rho, ground_state=gs5)
    assert misses == []


def test_negative_potential_line_refuses_mass_at_or_below_two_sigma0(
        monkeypatch, gs5):
    # with a_k < 0 the same law puts every mass above 2 sigma0. On V = -x^2,
    # rho = 2 sigma0 - 1e-3 once solved at eps = 0.5 and raised NonPositive
    spec = DomainSpec("realline", potential=(-1.0,))
    two_sigma0 = 2.0 * gs5.sigma0

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the side was refused")

    with monkeypatch.context() as m:
        m.setattr(bvp, "solve_fixed_epsilon", no_solve)
        for rho in (two_sigma0, two_sigma0 - 1e-3, 0.5 * two_sigma0):
            with pytest.raises(NoSolutionInRegime, match="strictly above"):
                solve_normalized(spec, P5, rho, ground_state=gs5)
    misses = _count_misses(monkeypatch)
    rho = two_sigma0 + 1e-4
    sol = solve_normalized(spec, P5, rho, ground_state=gs5)
    assert abs(sol.mass - rho) <= bvp.MASS_RTOL * rho
    assert sol.epsilon == pytest.approx(0.0879, rel=1e-3)
    assert len(misses) == 1


@pytest.mark.parametrize("potential", [(0.0,), (0.0, 0.0)])
@pytest.mark.parametrize("delta", [-1e-3, 1e-3])
def test_all_zero_potential_line_is_refused_as_v_zero(monkeypatch, gs5,
                                                      potential, delta):
    # an all-zero V is V = 0. V = (0.0,), which --potential 0 gives, once
    # walked 13 mass solves at rho = 2 sigma0 + 1e-3 and then raised
    # BracketFailed, where V = () is refused before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before V = 0 was refused")

    monkeypatch.setattr(bvp, "solve_fixed_epsilon", no_solve)
    with pytest.raises(NoSolutionInRegime,
                       match=r"V = 0 is solvable only at rho = 2\*sigma0"):
        solve_normalized(DomainSpec("realline", potential=potential), P5,
                         TWO_SIGMA0_P5 + delta, ground_state=gs5)


@pytest.mark.parametrize("delta, eps", [(-1e-2, 0.2777), (-1e-3, 0.2100),
                                        (1e-4, 0.09540)])
def test_mixed_sign_potential_line_is_not_refused(gs5, delta, eps):
    # on V = -x^2 + 5x^4 the law's offset mass - 2 sigma0 = eps^4 M1 -
    # 10 eps^6 M2 changes sign near eps = 0.2, so masses on both sides of
    # 2 sigma0 exist. A rule on the first coefficient alone refused every
    # rho <= 2 sigma0 here before any solve
    spec = DomainSpec("realline", potential=(-1.0, 5.0))
    two_sigma0 = 2.0 * gs5.sigma0
    for potential in ((-1.0, 5.0), (1.0, -5.0)):
        for rho in (two_sigma0 - 1e-3, two_sigma0, two_sigma0 + 1e-3):
            assert bvp._mass_law(DomainSpec("realline", potential=potential),
                                 P5, rho, gs5).refusal() is None
    rho = two_sigma0 + delta
    sol = solve_normalized(spec, P5, rho, ground_state=gs5)
    assert abs(sol.mass - rho) <= bvp.MASS_RTOL * rho
    assert sol.epsilon == pytest.approx(eps, rel=1e-3)


def test_stop_tolerance_is_floored_at_two_sigma0(monkeypatch, gs5):
    # at rho = 2 sigma0 exactly, CRITICAL_STOP * |rho - 2 sigma0| is 0, and
    # with no floor under it Brent ran to its xtol on log eps: 28 solves
    misses = _count_misses(monkeypatch)
    rho = 2.0 * gs5.sigma0
    sol = solve_normalized(DomainSpec("realline", potential=(-1.0, 5.0)), P5,
                           rho, ground_state=gs5)
    assert len(misses) <= 14
    assert abs(sol.mass - rho) <= bvp.STOP_FLOOR * bvp.MASS_RTOL * rho


def test_mixed_sign_potential_first_step_keeps_the_law_slope(monkeypatch,
                                                             gs5):
    # on V = -x^2 + 5x^4 the law (side None) can be far from the masses:
    # from its start the law's slope takes 7 solves to 2 sigma0 - 1e-2,
    # the local dm/deps 10
    misses = _count_misses(monkeypatch)
    rho = 2.0 * gs5.sigma0 - 1e-2
    sol = solve_normalized(DomainSpec("realline", potential=(-1.0, 5.0)), P5,
                           rho, ground_state=gs5)
    assert abs(sol.mass - rho) <= bvp.MASS_RTOL * rho
    assert len(misses) <= 7


@pytest.mark.parametrize("spec, p, eps", [
    (DomainSpec("interval", -1, 1, "dirichlet"), 3.0, 0.2),
    (DomainSpec("interval", -1, 1, "neumann"), 5.0, 0.15),
    (DomainSpec("interval", -1, 1, "dirichlet"), 5.0, 0.1),
    (LINE_X2, 5.0, 0.2),
    (DomainSpec("realline"), 3.0, 0.3),
])
def test_mass_slope_matches_central_difference(spec, p, eps):
    # dm/deps by one Jacobian solve at the solution, against a central
    # difference of solves
    params = ProblemParams(1, p)
    evaluate = MassEvaluator(spec, params)
    evaluate(eps)

    def mass(k, d):
        return solve_fixed_epsilon(spec, params, eps + k * d).mass

    if spec.bc == "dirichlet" and p == 5.0:
        # the slope is -4.9e-5 on a mass of 2.7: one ulp of one mass moves
        # the two-point difference at 1e-5 eps by 4.5e-6, so four points
        # at 1e-3 eps
        d = 1e-3 * eps
        central = (8.0 * (mass(1, d) - mass(-1, d))
                   - (mass(2, d) - mass(-2, d))) / (12.0 * d)
    else:
        d = 1e-5 * eps
        central = (mass(1, d) - mass(-1, d)) / (2.0 * d)
    assert evaluate.slope(eps) == pytest.approx(central, rel=1e-6)


@pytest.mark.parametrize("spec", [DomainSpec("interval", -1, 1, "dirichlet"),
                                  DomainSpec("interval", -1, 1, "neumann"),
                                  LINE_X2],
                         ids=["dirichlet", "neumann", "line_x2"])
@pytest.mark.parametrize("eps0", [0.1, 0.2])
def test_warm_start_follows_the_bump(spec, eps0):
    # the previous bump rescaled to the new width: at most 2 Newton steps
    # per jump within WARM_RANGE, where the unscaled bump took 3-4 at p = 5.
    # Not compared with the cold start jump by jump: at eps = 0.1 on an
    # interval the ansatz takes 1 step
    prev = solve_fixed_epsilon(spec, P5, eps0)
    for factor in (0.85, 0.95, 1.05, 1.15):
        eps = factor * eps0
        warm = bvp._solve_from(prev, spec, P5, eps)
        assert warm.newton_iterations <= 2
        cold = solve_fixed_epsilon(spec, P5, eps)
        assert warm.mass == pytest.approx(cold.mass, rel=1e-10, abs=0.0)


def test_failed_solve_inside_the_walk_raises_its_error(monkeypatch, gs5):
    # V = x^2 - 5x^4 falls to -inf, and the first solve of the walk, at
    # the law's start, returns a profile that crosses zero. The root-find
    # does not step away from it: the solve's NonPositive is raised
    misses = _count_misses(monkeypatch)
    with pytest.raises(NonPositive,
                       match="solution is not positive at interior nodes"):
        solve_normalized(DomainSpec("realline", potential=(1.0, -5.0)), P5,
                         2.0 * gs5.sigma0 - 1e-3, ground_state=gs5)
    assert len(misses) == 1


@pytest.mark.parametrize("rho", [np.inf, np.nan])
def test_solve_normalized_rejects_nonfinite_mass(rho):
    with pytest.raises(ValueError):
        solve_normalized(DomainSpec("realline"), P3, rho)


def test_solve_normalized_rejects_dim2_before_ground_state(monkeypatch):
    def no_ground_state(*args, **kwargs):
        raise AssertionError("ground state solved before the dimension check")

    monkeypatch.setattr(bvp, "solve_ground_state", no_ground_state)
    with pytest.raises(ValueError):
        solve_normalized(DomainSpec("realline"), ProblemParams(2, 3.0), 1.0)


def test_solve_normalized_bracket_failure(gs5):
    # Dirichlet masses at p=5 never drop to 1.0 on the traced branch
    with pytest.raises(BracketFailed):
        solve_normalized(DomainSpec("interval", -1, 1, "dirichlet"), P5, 1.0,
                         ground_state=gs5, eps_min=0.2)


def _count_misses(monkeypatch):
    """eps values at which a MassEvaluator solves (cache misses)."""
    misses = []
    call = MassEvaluator.__call__

    def counting(self, eps):
        if eps not in self.cache:
            misses.append(eps)
        return call(self, eps)

    monkeypatch.setattr(MassEvaluator, "__call__", counting)
    return misses


def test_solve_normalized_critical_resolves_distance_to_two_sigma0(gs5):
    # within mass_rtol * rho (1.4e-7) of rho is no answer 1e-7 below
    # 2 sigma0: at eps = 0.0838 the Theta law puts the deficit at 7.2e-9.
    # The root of the extrapolated mass is 0.0953296355.
    sol = solve_normalized(DomainSpec("interval", -1, 1, "dirichlet"), P5,
                           TWO_SIGMA0_P5 - 1e-7, ground_state=gs5)
    assert sol.epsilon == pytest.approx(0.0953296355, rel=1e-2)


def test_solve_normalized_flat_critical_mass_cost(monkeypatch, gs5):
    # the mass curve is flat here: a root-find to xtol 1e-12 on log eps
    # needs about 20 solves
    misses = _count_misses(monkeypatch)
    rho = TWO_SIGMA0_P5 - 1.03e-4
    sol = solve_normalized(DomainSpec("realline", potential=(1.0,)), P5, rho,
                           ground_state=gs5)
    assert len(misses) <= 8
    assert abs(sol.mass - rho) < 1e-4 * rho


@pytest.mark.parametrize("rho", [8.0, 20.0])
def test_solve_normalized_exact_law_cost(monkeypatch, gs3, rho):
    # mass = 4 / eps on the line at p = 3: the law step lands on the root
    misses = _count_misses(monkeypatch)
    sol = solve_normalized(DomainSpec("realline"), P3, rho, ground_state=gs3)
    assert len(misses) <= 4
    assert sol.lambda_ == pytest.approx((rho / 4.0) ** 2, rel=1e-6)


@pytest.mark.parametrize("spec, params, rho, budget", [
    # mass about 4/eps: the law's start is within 1e-3 of the root
    (DomainSpec("interval", -1, 1, "dirichlet"), P3, 56.56, 2),
    (DomainSpec("interval", -1, 1, "dirichlet"), P5, TWO_SIGMA0_P5 - 1e-6, 3),
    # on the line at p = 5 the mass is 2 sigma0 - k a_k eps^{2k+2} ∫y^{2k}U^2
    # for V = a_k x^{2k} + ...: V = x^2 took 6 and 4 misses from eps = 0.5,
    # V = x^4 took 7, 10 and 10 with an eps^4 law
    (LINE_X2, P5, TWO_SIGMA0_P5 - 1e-2, 3),
    (LINE_X2, P5, TWO_SIGMA0_P5 - 1e-3, 2),
    (LINE_X4, P5, TWO_SIGMA0_P5 - 1e-2, 4),
    (LINE_X4, P5, TWO_SIGMA0_P5 - 1e-3, 3),
    (LINE_X4, P5, TWO_SIGMA0_P5 - 1e-4, 3),
])
def test_solve_normalized_starts_at_law_prediction(monkeypatch, gs3, gs5,
                                                   spec, params, rho, budget):
    misses = _count_misses(monkeypatch)
    gs = gs3 if params.p == 3.0 else gs5
    sol = solve_normalized(spec, params, rho, ground_state=gs)
    assert len(misses) <= budget
    assert abs(sol.mass - rho) <= bvp.MASS_RTOL * rho


@pytest.mark.parametrize("p, rho", [(2.0, 1000.0), (3.0, 20.0), (7.0, 1.2)])
def test_law_start_is_interior_prediction(p, rho):
    # off p = 1 + 4/N the start is the asymptotic interior-bump eps
    from normwave.asymptotics import INTERIOR, predict_epsilon_noncritical
    params = ProblemParams(1, p)
    gs = solve_ground_state(params)
    start = bvp._mass_law(DomainSpec("interval", -1, 1, "neumann"), params,
                          rho, gs).start()
    expect, _ = predict_epsilon_noncritical(params, rho, INTERIOR, gs.sigma0)
    assert start == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("potential", [(1.0,), (0.0, 1.0), (0.0, 0.0, 2.0)])
@pytest.mark.parametrize("delta", [1e-3, 1e-4])
def test_potential_law_start_is_near_root(gs5, potential, delta):
    # the first non-zero coefficient a_k of V sets the law's exponent
    # 2k + 2 and its constant k a_k ∫y^{2k}U^2; an eps^4 law put the start
    # for V = x^4 at 0.1700 and 0.0956, where the roots are 0.2150 and 0.1460.
    # The law is leading order: V = 2x^6 at rho = 2 sigma0 - 1e-3 starts
    # 1.3 % below its root 0.2162
    spec = DomainSpec("realline", potential=potential)
    rho = TWO_SIGMA0_P5 - delta
    sol = solve_normalized(spec, P5, rho, ground_state=gs5)
    assert bvp._mass_law(spec, P5, rho, gs5).start() \
        == pytest.approx(sol.epsilon, rel=2e-2)


@pytest.mark.parametrize("potential", [(0.0,), (-1.0,)])
def test_potential_law_start_without_law(gs5, potential):
    # V = 0 has no law; V = -x^2 puts the mass above 2 sigma0, not at rho
    spec = DomainSpec("realline", potential=potential)
    assert bvp._mass_law(spec, P5, TWO_SIGMA0_P5 - 1e-3, gs5).start() \
        == bvp.EPS_START


@pytest.mark.parametrize("spec, p, rho", [
    *((DomainSpec("interval", -1, 1, "neumann"), p, rho)
      for p, rho in ((2.0, 1000.0), (3.0, 20.0), (7.0, 1.2))),
    *((DomainSpec("interval", -d, d, bc), 5.0, TWO_SIGMA0_P5 + offset)
      for d in (0.5, 1.0, 2.0)
      for bc, offset in (("dirichlet", -1e-3), ("neumann", 1e-3))),
    (LINE_X2, 5.0, TWO_SIGMA0_P5 - 1e-3),
    (LINE_X4, 5.0, TWO_SIGMA0_P5 - 1e-3),
])
def test_mass_law_start_lies_on_the_law(spec, p, rho):
    # the anchor and (start, rho) lie on one line of the law's slope in its
    # coordinates, and the law refuses a mass exactly when it is not on the
    # law's side of the origin (0 off p = 1 + 4/N, where every rho > 0 is)
    params = ProblemParams(1, p)
    gs = solve_ground_state(params)
    law = bvp._mass_law(spec, params, rho, gs)
    (x0, y0), (x1, y1) = (law.coordinates(*law.anchor),
                          law.coordinates(law.start(), rho))
    assert (y1 - y0) / (x1 - x0) == pytest.approx(law.slope, rel=1e-12)
    origin = law.origin
    for target in (rho, origin, 2.0 * origin - rho) if origin else (rho,):
        refusal = bvp._mass_law(spec, params, target, gs).refusal()
        assert (refusal is None) == ((target - origin) * law.side > 0.0)


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("bc, offset", [("dirichlet", -1e-3),
                                        ("neumann", 1e-3)])
def test_critical_interval_law_scales_with_half_width(monkeypatch, gs5, d, bc,
                                                      offset):
    # at p = 5 the mass on (-d, d) depends on eps/d only, so the root on
    # (-1, 1), eps = 0.18107, scales with d; a law in 1/eps instead of d/eps
    # misses it on (-0.5, 0.5) and takes 9 misses on (-2, 2)
    misses = _count_misses(monkeypatch)
    sol = solve_normalized(DomainSpec("interval", -d, d, bc), P5,
                           TWO_SIGMA0_P5 + offset, ground_state=gs5)
    assert sol.epsilon == pytest.approx(0.18107 * d, rel=1e-3)
    assert np.max(sol.u_values) - np.min(sol.u_values) > 0.5
    assert len(misses) <= 3


@pytest.mark.parametrize("spec, params", [
    (DomainSpec("realline"), P3),
    (DomainSpec("realline", potential=(1.0,)), P5),
])
def test_realline_truncation_keeps_mass(monkeypatch, spec, params):
    # the line is cut at REALLINE_WIDTHS = 20 eps-widths; a fixed
    # half-width 20 gives the same masses at the same spacing eps/80. Each
    # eps puts a whole number of cut grids into [0, 20], so the spacings are
    # equal: at eps = 0.06 the wide grid rounds to 333 widths, 26640 panels
    # a half, and the 1e-3 change in h alone moves the mass by up to 1.3e-11.
    eps_list = (0.4, 0.1, 0.0625)
    cut = [MassEvaluator(spec, params) for _ in eps_list]
    masses = [ev(e) for ev, e in zip(cut, eps_list)]
    monkeypatch.setattr(bvp, "_realline_halfwidth", lambda eps: 20.0)
    wide = [MassEvaluator(spec, params) for _ in eps_list]
    assert [ev(e) for ev, e in zip(wide, eps_list)] \
        == pytest.approx(masses, rel=1e-13)
    for ev_cut, ev_wide, e in zip(cut, wide, eps_list):
        assert ev_cut.solution(e).nodes[-1] == bvp.REALLINE_WIDTHS * e
        assert ev_wide.solution(e).nodes[-1] == 20.0


def test_solve_normalized_neumann_returns_concentrated_bump(gs3):
    # Newton from the ansatz at eps = 0.5 lands on the constant solution
    # u = 1, whose mass 2/eps^2 is 20 at eps = 10^-1/2; the answer is the
    # concentrated bump, mass about 2 sigma0 / eps = 20 at eps = 0.2
    sol = solve_normalized(DomainSpec("interval", -1, 1, "neumann"), P3, 20.0,
                           ground_state=gs3)
    assert sol.epsilon == pytest.approx(0.2, rel=1e-2)
    assert np.min(sol.u_values) < 0.1 * np.max(sol.u_values)


def test_solve_normalized_refuses_constant_solution(gs3):
    # the mass 2/eps^2 of u = 1 is 9 at eps = 0.4714, where Newton from the
    # ansatz lands on it; that profile does not concentrate
    spec = DomainSpec("interval", -1, 1, "neumann")
    with pytest.raises(BracketFailed, match="constant solution u = 1"):
        solve_normalized(spec, P3, 9.0, ground_state=gs3)


@pytest.mark.parametrize("rho", [8.0, 9.5])
def test_solve_normalized_neumann_no_bump_below_branch_point(gs3, rho):
    # the bump branch leaves u = 1 at eps = 0.450, mass 9.87; below that
    # mass there is no bump, and the root-find ends on u = 1
    spec = DomainSpec("interval", -1, 1, "neumann")
    with pytest.raises(BracketFailed, match="constant solution u = 1"):
        solve_normalized(spec, P3, rho, ground_state=gs3)


@pytest.mark.parametrize("rho, eps, depth", [(10.0, 0.44147, 0.28),
                                             (9.9, 0.44809, 0.14)])
def test_solve_normalized_neumann_bumps_near_branch_point(gs3, rho, eps,
                                                          depth):
    # just above the branch point at mass 9.87 a start at eps = 0.5 ended
    # on u = 1 (mass 2/eps^2); the law's start at 4/rho reaches the bump,
    # which is shallow there: max - min is depth * max
    sol = solve_normalized(DomainSpec("interval", -1, 1, "neumann"), P3, rho,
                           ground_state=gs3)
    assert sol.epsilon == pytest.approx(eps, rel=1e-4)
    assert sol.concentration_point == pytest.approx(0.0, abs=1e-12)
    u = sol.u_values
    assert np.max(u) - np.min(u) == pytest.approx(depth * np.max(u), rel=0.1)


@pytest.mark.parametrize("rho", [9.9, 10.0, 10.5, 12.0])
def test_solve_normalized_neumann_branch_point_cost(monkeypatch, gs3, rho):
    # near the branch point at mass 9.87 the bump's mass is flatter in eps
    # than the law's 4/eps, so law steps alone crept up on the root from one
    # side in 9 to 14 misses; secant steps along the law fit the flattening
    misses = _count_misses(monkeypatch)
    sol = solve_normalized(DomainSpec("interval", -1, 1, "neumann"), P3, rho,
                           ground_state=gs3)
    assert len(misses) <= 6
    assert abs(sol.mass - rho) <= bvp.MASS_RTOL * rho


@pytest.mark.parametrize("rho, eps", [(20.0, 0.2003), (12.0, 0.3469)])
def test_solve_normalized_neumann_bumps_past_constant(gs3, rho, eps):
    # rho = 20 evaluated the constant solution at eps = 0.5 on its way to
    # the bump; only the returned solution is checked
    sol = solve_normalized(DomainSpec("interval", -1, 1, "neumann"), P3, rho,
                           ground_state=gs3)
    assert sol.epsilon == pytest.approx(eps, rel=1e-3)
    assert sol.concentration_point == pytest.approx(0.0, abs=1e-12)
    u = sol.u_values
    assert np.max(u) - np.min(u) > 0.5 * np.max(u)


def test_mass_evaluator_exact_line_mass():
    # one solve on the default grid: mass 8 at eps = 0.5 to 5.3e-10
    # relative, within the 6.2e-10 of the former Richardson pair
    ev = MassEvaluator(DomainSpec("realline"), P3)
    assert abs(ev(0.5) - 8.0) <= 6.2e-10 * 8.0


@pytest.mark.parametrize("spec, richardson_error", [
    (DomainSpec("interval", -1, 1, "dirichlet"), 5.28e-10),
    (DomainSpec("interval", -1, 1, "neumann"), 5.28e-10),
    (DomainSpec("realline", potential=(1.0,)), 4.08e-9),
])
def test_default_grid_mass_error(spec, richardson_error):
    # p = 5, eps = 0.1: against 8x the panels, the default-grid mass is no
    # further off than the former Richardson mass over h and h/2 was
    n = len(bvp._grid(spec, 0.1, None)) - 1
    ref = solve_fixed_epsilon(spec, P5, 0.1, n_override=8 * n).mass
    mass = solve_fixed_epsilon(spec, P5, 0.1).mass
    assert abs(mass / ref - 1.0) <= richardson_error


def test_trace_branch_realline_warm_starts():
    spec = DomainSpec("realline", potential=(1.0,))
    rows = trace_branch(spec, P5, [0.35, 0.3, 0.25])
    masses = [m for _, m, _ in rows]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert all(m < TWO_SIGMA0_P5 for m in masses)


def test_solve_normalized_supercritical_small_mass(gs3):
    # p = 7 on the line: mass = eps^{1/3} * 2 sigma0; the root can sit just
    # above the eps floor, which must still be evaluated before giving up
    from normwave.groundstate import solve_pure_scaling
    p7 = ProblemParams(1, 7.0)
    sol = solve_normalized(DomainSpec("realline"), p7, 0.8, eps_min=0.046)
    lam_exact = solve_pure_scaling(p7, 0.8)
    assert abs(sol.lambda_ / lam_exact - 1.0) < 1e-6


def test_mass_evaluator_one_solve_per_miss(monkeypatch):
    # each new eps is one solve on the default grid; a repeated eps none
    spec = DomainSpec("realline", potential=(1.0,))
    calls = []

    def recording(*args, **kwargs):
        sol = solve_fixed_epsilon(*args, **kwargs)
        calls.append(sol.nodes)
        return sol

    monkeypatch.setattr(bvp, "solve_fixed_epsilon", recording)
    ev = MassEvaluator(spec, P5)
    for eps in (0.35, 0.3, 0.35):
        ev(eps)
    assert len(calls) == 2
    for nodes, eps in zip(calls, (0.35, 0.3)):
        assert np.array_equal(nodes, bvp._grid(spec, eps, None))
        assert ev.solution(eps).nodes is nodes


def test_solve_normalized_releases_cached_solutions():
    # the root-find must leave no reference cycle holding the evaluator:
    # with the cyclic collector off, only the returned solution may stay alive
    def live():
        return {id(o) for o in gc.get_objects()
                if isinstance(o, NormalizedSolution)}

    gc.collect()
    gc.disable()
    try:
        before = live()
        sol = solve_normalized(DomainSpec("realline"), P3, 10.0)
        after = live()
    finally:
        gc.enable()
    assert sol.lambda_ == pytest.approx(6.25, rel=1e-6)
    assert after - before == {id(sol)}


@pytest.mark.parametrize("spec, eps, n, init", [
    (DomainSpec("interval", -1, 1, "dirichlet"), 0.2, 3, "interior"),
    (DomainSpec("interval", -1, 1, "neumann"), 0.2, 99, "interior"),
    # n counts panels on (-1, 1) also when the solve runs on (-1, 3)
    (DomainSpec("interval", -1, 1, "neumann"), 0.2, 99, "endpoint"),
    # the line at eps = 0.5 is [-10, 10]: 399 panels are just under 10
    # nodes per eps-width
    (DomainSpec("realline"), 0.5, 399, "interior"),
])
def test_grid_resolution_floor(monkeypatch, spec, eps, n, init):
    # fewer than 10 nodes per eps-width is rejected before Newton runs
    def no_newton(*args, **kwargs):
        raise AssertionError("Newton ran on an under-resolved grid")

    monkeypatch.setattr(bvp, "solve_banded", no_newton)
    with pytest.raises(ValueError, match="nodes per eps-width"):
        solve_fixed_epsilon(spec, P5, eps, init=init, n_override=n)


@pytest.mark.parametrize("kwargs, message", [
    (dict(init="endpoint", u0=np.ones(401)),
     "u0 cannot be combined with init='endpoint'"),
    (dict(init="custom", u0=np.ones(401)), "init must be"),
])
def test_start_conflicts_are_refused(monkeypatch, kwargs, message):
    # a given u0 is the start; init only shapes the ansatz
    def no_newton(*args, **kwargs):
        raise AssertionError("Newton ran on a refused start")

    monkeypatch.setattr(bvp, "solve_banded", no_newton)
    spec = DomainSpec("interval", -1, 1, "neumann")
    with pytest.raises(ValueError, match=message):
        solve_fixed_epsilon(spec, P5, 0.2, n_override=400, **kwargs)


def test_endpoint_grid_override_matches_interior():
    # --grid-n n means n panels on the returned interval for both inits
    spec = DomainSpec("interval", -1, 1, "neumann")
    for init in ("interior", "endpoint"):
        sol = solve_fixed_epsilon(spec, P5, 0.2, init=init, n_override=400)
        assert len(sol.nodes) == 401
        assert np.diff(sol.nodes) == pytest.approx(0.005, rel=1e-12)


# -- the damped Newton against a plain reference loop --------------------------

def _reference_rows(u, b, d, p, h, eps, left, right):
    g = b * u - d * np.abs(u) ** (p - 1) * u
    r = np.empty_like(u)
    r[1:-1] = -1.0 * (u[:-2] - 2 * u[1:-1] + u[2:]) \
        + (g[:-2] + 10.0 * g[1:-1] + g[2:]) / 12.0
    for side, i, j in ((left, 0, 1), (right, -1, -2)):
        if side == "dirichlet":
            r[i] = u[i]
        else:
            ghost = 2 * h * u[i] / eps if side == "decay" else 0.0
            r[i] = -1.0 * (2 * u[j] - 2 * u[i] - ghost) \
                + (2.0 * g[j] + 10.0 * g[i]) / 12.0
    return r


def _reference_jacobian(u, b, d, p, h, eps, left, right):
    dg = b - d * p * np.abs(u) ** (p - 1)
    ab = np.zeros((3, len(u)))
    ab[0, 1:] = -1.0 + dg[1:] / 12.0
    ab[1, :] = 2.0 * 1.0 + 10.0 * dg / 12.0
    ab[2, :-1] = -1.0 + dg[:-1] / 12.0
    for side, i, off in ((left, 0, (0, 1)), (right, -1, (2, -2))):
        if side == "dirichlet":
            ab[1, i] = 1.0
            ab[off] = 0.0
        else:
            ab[off] *= 2.0
            if side == "decay":
                ab[1, i] += 2.0 * 1.0 * h / eps
    return ab


def _reference_newton(x, u0, eps, p, Vx, left, right):
    """The damped Newton of bvp._newton written plainly: every |u|^{p-1},
    max |u| and u + t d formed where it is used. Returns u, the iteration
    count, the unscaled residual and the number of halvings of t."""
    h = x[1] - x[0]
    s = h * h / (eps * eps)
    w = s * (eps * eps * Vx + 1.0)

    def F(u):
        return _reference_rows(u, w, s, p, h, eps, left, right)

    def step(u, r):
        return bvp.solve_banded(
            _reference_jacobian(u, w, s, p, h, eps, left, right), -r)

    u = u0.copy()
    halvings = 0
    converged = False
    r = F(u)
    for it in range(bvp.NEWTON_MAX_ITER):
        rn = np.max(np.abs(r))
        if not np.isfinite(rn):
            raise NewtonDiverged("residual is not finite")
        if converged or rn < 1e-15 * max(1.0, np.max(np.abs(u))):
            return u, it, rn / s, halvings
        if rn < bvp.NEWTON_TOL * max(1.0, np.max(np.abs(u))):
            converged = True
            u = u + step(u, r)
            r = F(u)
            continue
        d = step(u, r)
        t = 1.0
        for _ in range(bvp.NEWTON_MAX_BACKTRACK):
            rt = F(u + t * d)
            if (np.all(np.isfinite(rt))
                    and np.max(np.abs(rt)) <= rn * (1 - 0.25 * t)):
                break
            t *= 0.5
            halvings += 1
        else:
            if rn < 1e-9 * max(1.0, np.max(np.abs(u))):
                return u, it, rn / s, halvings
            raise NewtonDiverged("backtracking budget exhausted")
        u = u + t * d
        r = rt
        if np.max(np.abs(t * d)) < 1e-15 * max(1.0, np.max(np.abs(u))):
            rn = np.max(np.abs(r))
            if rn < 1e-9 * max(1.0, np.max(np.abs(u))):
                return u, it, rn / s, halvings
            raise NewtonDiverged("step collapsed before convergence")
    raise NewtonDiverged(f"no convergence in {bvp.NEWTON_MAX_ITER} iterations")


def _newton_case(kind, p, eps, start):
    """_newton's arguments as solve_fixed_epsilon passes them: the right
    half with a symmetry row, or the whole grid for "shifted". start is a
    factor of the centred ansatz, "warm" (the eps = 1.1 eps solution
    interpolated) or "shifted" (the ansatz moved off the centre)."""
    spec = NEWTON_SPECS[kind]
    x = bvp._grid(spec, eps, None)
    side = spec.bc or "decay"
    if start == "warm":
        prev = solve_fixed_epsilon(spec, ProblemParams(1, p), 1.1 * eps)
        guess = np.interp(x, prev.nodes, prev.u_values)
    else:
        shift = 0.2 if start == "shifted" else 0.0
        factor = 1.0 if isinstance(start, str) else start
        guess = factor * closed_form_soliton(p)[0]((x - shift) / eps)
    if spec.bc == "dirichlet":
        guess[0] = guess[-1] = 0.0
    if start == "shifted":
        return x, guess, eps, p, spec.V(x), side, side
    half = len(x) // 2
    return (x[half:], guess[half:], eps, p, spec.V(x[half:]), "neumann",
            side)


NEWTON_SPECS = {"dirichlet": DomainSpec("interval", -1, 1, "dirichlet"),
                "neumann": DomainSpec("interval", -1, 1, "neumann"),
                "line_x2": LINE_X2}


@pytest.mark.parametrize("kind, p, eps, start, backtracks", [
    ("dirichlet", 2.0, 0.1, 0.6, True),
    ("dirichlet", 5.0, 0.3, 1.0, False),
    ("dirichlet", 3.0, 0.3, "shifted", None),
    ("neumann", 3.0, 0.3, 0.6, True),
    ("neumann", 7.0, 0.1, 1.0, False),
    ("line_x2", 2.0, 0.5, 1.0, False),
    ("line_x2", 5.0, 0.3, 1.0, False),
    ("line_x2", 7.0, 0.2, "warm", None),
])
def test_newton_matches_reference_loop(kind, p, eps, start, backtracks):
    # bvp._newton forms each |u|^{p-1}, max |u| and trial once; the
    # arithmetic is the reference's, so u, the count and the residual are
    # the same bits
    args = _newton_case(kind, p, eps, start)
    u, iters, residual = bvp._newton(*args)
    ref_u, ref_iters, ref_residual, halvings = _reference_newton(*args)
    assert u.tobytes() == ref_u.tobytes()
    assert (iters, residual) == (ref_iters, ref_residual)
    assert residual <= 1e-9
    if backtracks is not None:
        assert (halvings > 0) == backtracks


def test_newton_failure_matches_reference_loop():
    # from 0.6 of the ansatz at p = 2, eps = 0.5 every step backtracks,
    # until a step's 40 halvings all fail
    args = _newton_case("dirichlet", 2.0, 0.5, 0.6)
    for newton in (bvp._newton, _reference_newton):
        with pytest.raises(NewtonDiverged,
                           match="backtracking budget exhausted"):
            newton(*args)


SPECS = {"dirichlet": DomainSpec("interval", -1, 1, "dirichlet"),
         "neumann": DomainSpec("interval", -1, 1, "neumann"),
         "line": DomainSpec("realline")}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(p=st.floats(1.0, 9.0, exclude_min=True), eps=st.floats(0.06, 0.5),
       kind=st.sampled_from(sorted(SPECS)), c=st.floats(-5.0, 5.0))
def test_fixed_epsilon_contract(p, eps, kind, c):
    # a documented error, or a converged, positive, single-peaked profile
    # whose mass is its own ∫v^2; the intervals are (c - 1, c + 1), and
    # there the peak sits at the centre c
    spec = SPECS[kind]
    if spec.kind == "interval":
        spec = DomainSpec("interval", c - 1.0, c + 1.0, spec.bc)
    try:
        sol = solve_fixed_epsilon(spec, ProblemParams(1, p), eps)
    except ValueError as exc:
        assert "mass scale" in str(exc)
        return
    except (NewtonDiverged, NonPositive):
        return
    u = sol.u_values
    assert sol.residual_inf <= 1e-9
    inner = u[1:-1] if kind == "dirichlet" else u
    assert np.min(inner) > 0.0
    du = np.diff(u)
    du = du[np.abs(du) > 1e-12 * np.max(u)]
    assert np.count_nonzero(np.diff(np.sign(du))) <= 1
    assert sol.mass == pytest.approx(simpson(sol.v_values ** 2, x=sol.nodes),
                                     rel=1e-12)
    if spec.kind == "interval":
        mid = len(u) // 2
        assert sol.nodes[mid] == pytest.approx(c, abs=1e-12)
        # the peak, or a constant solution (flat to bvp.FLAT_RTOL)
        assert np.max(u) - u[mid] <= bvp.FLAT_RTOL * np.max(u)


NORMALIZED_SPECS = {**SPECS, "line_x2": LINE_X2}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(NORMALIZED_SPECS)),
       p=st.sampled_from([3.0, 5.0, 7.0]), sign=st.sampled_from([-1.0, 1.0]),
       log_eps=st.floats(-1.5, -0.2), log_offset=st.floats(-5.0, -0.5))
def test_normalized_contract(kind, p, sign, log_eps, log_offset):
    # off p = 5, rho is the law's mass 2 sigma0 eps^{1 - 4/(p-1)} at
    # eps = 10^log_eps, so some roots lie outside [EPS_MIN, EPS_START]; at
    # p = 5, rho = 2 sigma0 ± 10^log_offset, on either side. Each case is a
    # documented error, or a positive single-peaked profile whose mass is
    # within the documented tol of rho
    params = ProblemParams(1, p)
    two_sigma0 = 2.0 * solve_ground_state(params).sigma0
    if p == 5.0:
        rho = two_sigma0 + sign * 10.0 ** log_offset
    else:
        rho = two_sigma0 * 10.0 ** (log_eps * (1.0 - 4.0 / (p - 1.0)))
    try:
        sol = solve_normalized(NORMALIZED_SPECS[kind], params, rho)
    except (BracketFailed, NoSolutionInRegime, ValueError):
        return
    tol = bvp.MASS_RTOL * rho
    if p == 5.0:
        tol = min(tol, bvp.CRITICAL_STOP * abs(rho - two_sigma0))
    assert abs(sol.mass - rho) <= tol
    u = sol.u_values
    inner = u[1:-1] if kind == "dirichlet" else u
    assert np.min(inner) > 0.0
    du = np.diff(u)
    du = du[np.abs(du) > 1e-12 * np.max(u)]
    assert np.count_nonzero(np.diff(np.sign(du))) <= 1


def _step_sixty(law, eps, mass, slope):
    """_MassLaw.step on an interval as it was: always 60 passes."""
    ratio = (law.rho - law.origin) / (mass - law.origin)
    s = law.d / eps
    c = math.log(ratio) + slope * s + math.log(s)
    for _ in range(60):
        s = max((c - math.log(s)) / slope, 1.0)
    return law.d / s


def test_interval_law_step_stops_at_its_fixed_point(gs5):
    # the fixed-point loop stops where s' == s, which every seed-1 step
    # reaches after 12-18 passes; the 60 passes it used to take return
    # the same bits
    two_sigma0 = 2.0 * gs5.sigma0
    for bc in ("dirichlet", "neumann"):
        spec = DomainSpec("interval", -1, 1, bc)
        sign = -1.0 if bc == "dirichlet" else 1.0
        for delta in (1e-8, 1e-5, 1e-3, 1e-1):
            law = bvp._mass_law(spec, P5, two_sigma0 + sign * delta, gs5)
            for eps in np.geomspace(0.05, 0.5, 7):
                for offset in (1e-9, 1e-6, 1e-4, 1e-2):
                    mass = two_sigma0 + sign * offset
                    for slope in (-4.0, -2.5, -2.0, -1.5, -1.0):
                        assert law.step(eps, mass, slope) \
                            == _step_sixty(law, eps, mass, slope)


def test_mixed_sign_line_stops_once_the_masses_turn_away(monkeypatch, gs5):
    # on V = -x^2 + 5x^4 no mass on [0.05, 0.5] exceeds 2 sigma0 + 2.6e-4
    # (near eps = 0.14). rho = 2 sigma0 + 1e-3 and + 1e-2 each walked 17
    # mass solves before BracketFailed; the walk now stops once a mass at
    # a larger eps lies farther from rho than the nearest one on its side
    spec = DomainSpec("realline", potential=(-1.0, 5.0))
    two_sigma0 = 2.0 * gs5.sigma0
    masses = {}
    call = MassEvaluator.__call__

    def recording(self, eps):
        masses[eps] = call(self, eps)
        return masses[eps]

    monkeypatch.setattr(MassEvaluator, "__call__", recording)
    for delta in (1e-3, 1e-2):
        masses.clear()
        rho = two_sigma0 + delta
        with pytest.raises(BracketFailed) as info:
            solve_normalized(spec, P5, rho, ground_state=gs5)
        assert len(masses) <= 4
        nearest = max(m for m in masses.values() if m < rho)
        assert two_sigma0 < nearest < two_sigma0 + 2.7e-4
        assert str(info.value) == (
            f"mass {rho:.12g} not bracketed for eps in [{bvp.EPS_MIN}, "
            f"{bvp.EPS_START}]: the masses on its side of 2*sigma0 turn "
            f"away from it; the nearest met is {nearest:.12g}")


def test_turned_away_reads_only_a_mixed_sign_law():
    law = bvp._MassLaw(1.0, 4.0, 0.0, None, (1.0, 0.0), None)
    # rising toward rho with eps: no turn yet
    assert law.turned_away([(0.1, 0.5), (0.2, 0.8)]) is None
    # a mass at a larger eps farther from rho, on either side of the origin
    assert law.turned_away([(0.1, 0.5), (0.2, 0.8), (0.3, 0.6)]) == 0.8
    assert law.turned_away([(0.2, 0.8), (0.3, -0.1)]) == 0.8
    # a mass past rho: the bracket decides, not this rule
    assert law.turned_away([(0.2, 1.2), (0.3, 0.1)]) is None
    # no mass on rho's side, or rho at the origin
    assert law.turned_away([(0.2, -0.5), (0.3, -0.9)]) is None
    assert dataclasses.replace(law, rho=0.0).turned_away(
        [(0.1, 0.5), (0.2, 0.1)]) is None
    # a V of one sign keeps its masses on the law's side
    assert dataclasses.replace(law, side=1.0).turned_away(
        [(0.1, 0.5), (0.2, 0.8), (0.3, 0.6)]) is None
