"""Acceptance suite.

One test per acceptance criterion, each enforced at its stated tolerance and
runtime budget; every test prints a single PASS line with the measured
numbers (run with ``pytest -s`` to see them).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from normwave.asymptotics import (ansatz_residual_l2, fit_convergence_order,
                                  fit_prefactor)
from normwave.boundary_layer import theta_asymptotic, theta_quadrature
from normwave.bvp import (DomainSpec, MassEvaluator, solve_fixed_epsilon,
                          solve_normalized)
from normwave.corrections import (correction_profile, factorization_oracle_1d)
from normwave.errors import NoSolutionInRegime
from normwave.groundstate import (ProblemParams, ode_residual_max,
                                  mass_sigma0, solve_ground_state)
from normwave.mfg import to_mfg

G_CATALAN = 0.9159655941
TWO_SIGMA0_P5 = math.sqrt(3.0) * math.pi / 2.0
P5 = ProblemParams(1, 5.0)
P3 = ProblemParams(1, 3.0)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.perf_counter()

    def done(self, criterion, detail):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit, \
            f"criterion {criterion} exceeded {self.limit}s ({elapsed:.1f}s)"
        print(f"\nACCEPTANCE {criterion}: PASS [{elapsed:.1f}s < "
              f"{self.limit}s] {detail}")


def test_criterion_01_exact_scaling_law(tmp_path):
    budget = Budget(5.0)
    out = subprocess.run(
        [sys.executable, "-m", "normwave.cli", "solve", "--domain",
         "realline", "--p", "3", "--rho", "8", "--n", "1",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    doc = json.loads((tmp_path / "solution_scalars.json").read_text())
    lam = doc["lambda"]
    assert abs(lam / 4.0 - 1.0) <= 1e-6
    budget.done(1, f"lambda = {lam:.9f} (target 4, rel err "
                   f"{abs(lam / 4 - 1):.1e})")


def test_criterion_02_mass_critical_constants():
    budget = Budget(5.0)
    gs = solve_ground_state(P5)
    corr = correction_profile(gs)
    target = -(3.0 ** 0.25) * G_CATALAN / 4.0
    w0 = float(corr.profile.values[0])
    assert abs(w0 - target) <= 1e-4
    r = gs.profile.nodes
    keep = r <= 2.0
    inner = float(simpson(gs.profile.values[keep] * corr.profile.values[keep],
                          x=r[keep]))
    assert abs(inner - 0.253688) <= 1e-3
    assert corr.w_zero is not None and 0.0 < corr.w_zero < 1.0
    signs = np.sign(corr.profile.values[np.abs(corr.profile.values) > 1e-13])
    assert np.count_nonzero(np.diff(signs)) == 1
    budget.done(2, f"W(0) = {w0:.7f} (target {target:.7f}); "
                   f"int_0^2 UW = {inner:.6f}; zero at r0 = {corr.w_zero:.4f}")


def test_criterion_03_oracle_equivalence():
    budget = Budget(5.0)
    gs = solve_ground_state(P5)
    bvp_route = correction_profile(gs)
    oracle = factorization_oracle_1d(gs)
    keep = gs.profile.nodes <= 10.0
    diff = float(np.max(np.abs(bvp_route.profile.values[keep]
                               - oracle.profile.values[keep])))
    assert diff <= 1e-6
    budget.done(3, f"max |BVP - oracle| on [0,10] = {diff:.2e}")


def test_criterion_04_boundary_layer_constant():
    budget = Budget(10.0)
    ratios = []
    for eps in (0.3, 0.2, 0.15):
        ratios.append(theta_quadrature(eps, "dirichlet")
                      / theta_asymptotic(eps, "dirichlet"))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))  # monotone to 1
    assert abs(ratios[-1] - 1.0) <= 0.25
    budget.done(4, "theta/asymptotic at eps=0.3,0.2,0.15: "
                   + ", ".join(f"{r:.4f}" for r in ratios))


def test_criterion_05_critical_one_sidedness():
    budget = Budget(60.0)
    eps_list = (0.3, 0.25, 0.2, 0.15)
    gs = solve_ground_state(P5)
    masses_d = []
    for bc, record in (("dirichlet", masses_d), ("neumann", [])):
        spec = DomainSpec("interval", -1.0, 1.0, bc)
        prev = None
        for eps in eps_list:
            m = solve_fixed_epsilon(spec, P5, eps).mass
            if bc == "dirichlet":
                assert m < TWO_SIGMA0_P5
                if prev is not None:
                    assert m > prev  # approaches the threshold from below
                record.append(m)
            else:
                assert m > TWO_SIGMA0_P5
            prev = m
    with pytest.raises(NoSolutionInRegime):
        solve_normalized(DomainSpec("interval", -1.0, 1.0, "dirichlet"), P5,
                         TWO_SIGMA0_P5 + 0.01, ground_state=gs)
    budget.done(5, "dirichlet masses "
                   + ", ".join(f"{m:.6f}" for m in masses_d)
                   + f" < 2*sigma0 = {TWO_SIGMA0_P5:.6f}; neumann above; "
                     "forbidden side rejected")


def test_criterion_06_schrodinger_critical_expansion():
    budget = Budget(60.0)
    gs = solve_ground_state(P5)
    corr = correction_profile(gs)
    spec = DomainSpec("realline", potential=(1.0,))
    evaluator = MassEvaluator(spec, P5)
    pairs = []
    for eps in (0.35, 0.3, 0.25, 0.2):
        pairs.append((eps, TWO_SIGMA0_P5 - evaluator(eps)))
    slope = fit_convergence_order(pairs, law="power")
    prefactor = fit_prefactor(pairs, 4.0, law="power")
    target = 4.0 * corr.m_frak
    assert abs(slope - 4.0) <= 0.3
    assert abs(prefactor / target - 1.0) <= 0.10
    budget.done(6, f"deficit slope = {slope:.3f} (4 +- 0.3); prefactor = "
                   f"{prefactor:.4f} vs 4*m_frak = {target:.4f} "
                   f"({abs(prefactor / target - 1) * 100:.1f}%)")


def test_criterion_07_ansatz_residual_order():
    budget = Budget(10.0)
    gs = solve_ground_state(P5)
    corr = correction_profile(gs)
    e_02 = ansatz_residual_l2(gs, corr, 0.2)
    e_01 = ansatz_residual_l2(gs, corr, 0.1)
    ratio = e_02 / e_01
    assert abs(ratio - 32.0) <= 0.25 * 32.0
    budget.done(7, f"L2 residual ratio eps=0.2 vs 0.1: {ratio:.2f} "
                   f"(2^5 = 32 +- 25%)")


def test_criterion_08_endpoint_vs_interior_mass():
    budget = Budget(30.0)
    spec = DomainSpec("interval", -1.0, 1.0, "neumann")
    sol = solve_fixed_epsilon(spec, P5, 0.2, init="endpoint")
    half_mass = sol.mass
    sigma0 = TWO_SIGMA0_P5 / 2.0
    assert abs(half_mass / sigma0 - 1.0) <= 0.05
    doubled = DomainSpec("interval", -1.0, 3.0, "neumann")
    full_mass = solve_fixed_epsilon(doubled, P5, 0.2).mass
    assert abs(half_mass / (full_mass / 2.0) - 1.0) <= 1e-6
    budget.done(8, f"endpoint mass = {half_mass:.6f} vs sigma0 = "
                   f"{sigma0:.6f}; interior bump = {full_mass:.6f}")


def test_criterion_09_mfg_residuals():
    budget = Budget(30.0)
    spec = DomainSpec("interval", -1.0, 1.0, "neumann")
    res = {}
    for n in (3000, 6000):
        triple = to_mfg(solve_fixed_epsilon(spec, P5, 0.3, n_override=n))
        assert triple.mass_defect <= 1e-10
        res[n] = (triple.residual_hjb, triple.residual_kolmogorov)
    ratio_hjb = res[3000][0] / res[6000][0]
    ratio_kol = res[3000][1] / res[6000][1]
    assert abs(ratio_hjb - 4.0) <= 0.8
    assert abs(ratio_kol - 4.0) <= 0.8
    budget.done(9, f"refinement ratios: HJB {ratio_hjb:.2f}, "
                   f"Kolmogorov {ratio_kol:.2f} (4 +- 20%); mass defect "
                   f"<= 1e-10")


def test_criterion_10_property_suites(tmp_path):
    budget = Budget(60.0)
    gs5 = solve_ground_state(P5)
    gs3 = solve_ground_state(P3)
    gs2 = solve_ground_state(ProblemParams(2, 3.0))
    # ODE residuals at the declared tolerances
    assert ode_residual_max(gs5) < 1e-12
    assert ode_residual_max(gs3) < 1e-12
    assert ode_residual_max(gs2) < 1e-8
    # monotonicity
    for gs in (gs5, gs3, gs2):
        assert np.all(np.diff(gs.profile.values) < 0)
    # quadrature cross-checks
    for gs in (gs5, gs3, gs2):
        a = mass_sigma0(gs, rule="simpson")
        b = mass_sigma0(gs, rule="trapezoid")
        assert abs(a / b - 1.0) < 1e-8
    # CLI determinism, byte for byte
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        out = subprocess.run(
            [sys.executable, "-m", "normwave.cli", "solve", "--domain",
             "interval", "--bc", "neumann", "--p", "5", "--n", "1",
             "--epsilon", "0.3", "--out-dir", str(d)],
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
    for name in ("solution_profile.csv", "solution_scalars.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    budget.done(10, "ground-state residuals, monotonicity, quadrature "
                    "cross-checks, CLI byte determinism")
