"""Tests of the benchmark itself: every check rejects a corrupted output,
and a small input runs each workload's code path in seconds.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checks
import run
import tracing
import worker
import workloads
from normwave import corrections, groundstate

BENCH = Path(__file__).resolve().parents[1]


# -- run.py ----------------------------------------------------------------------

def test_tail_is_the_median_below_forty_samples():
    assert run.tail([3.0, 1.0, 2.0, 9.0]) == (50.0, 2.5)


def test_tail_leaves_ten_samples_beyond_it():
    samples = list(range(1, 101))
    q, value = run.tail(samples)
    assert (q, value) == (90.0, 90)
    assert sum(s > value for s in samples) == 10


def test_op_metrics_take_the_median_of_each_operations_repeats():
    rounds = [{"times": [1.0, None, 3.0], "total": 4.0},
              {"times": [2.0, 5.0, 4.0], "total": 11.0},
              {"times": [9.0, 6.0, 3.5], "total": 18.5}]
    e2e = run.end_to_end({"rounds": rounds, "peak_rss_mb": 1.0,
                          "speed_factor": 0.5}, [0.5])
    # per operation: 2.0, 5.5, 3.5; operation times are scaled by the factor
    assert e2e["op_p50_s"]["value"] == 3.5 * 0.5
    assert e2e["op_tail_s"]["value"] == 3.5 * 0.5  # no tail below 40
    assert e2e["wall_s"]["value"] == 11.0 * 0.5
    assert e2e["setup_s"]["value"] == 0.5


def test_reference_samples_once_per_interval():
    ref = calibrate.Reference(interval=3600.0)
    for _ in range(5):
        ref.maybe_sample()
    assert ref.samples == []
    assert ref.speed_factor() > 0 and len(ref.samples) == 1
    ref = calibrate.Reference(interval=0.0)
    for _ in range(3):
        ref.maybe_sample()
    assert len(ref.samples) == 3
    ref.samples = [0.004, 0.001, 0.002]
    assert ref.speed_factor() == calibrate.REFERENCE_S / 0.002


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "normalized_solves",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_what_run_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end({"rounds": [{"times": [1.0, 2.0], "total": 3.0}],
                          "peak_rss_mb": 100.0, "speed_factor": 1.0}, [0.5])
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (name, m["unit"]) for name, m in e2e.items()]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        tracing.metric_names()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)


def test_a_failed_operation_is_counted_not_fatal():
    class Flaky(workloads.Workload):
        ops = [workloads.Op("ok"), workloads.Op("bad")]

        def run(self, op):
            if op.label == "bad":
                raise workloads.OperationFailed("exit code 2")
            return op.label

        def check(self, op, result):
            return None, []

    messages = []
    out = worker.run_round(Flaky(), messages.append)
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert out["times"][1] is None and out["total"] == out["times"][0]
    assert messages and "bad" in messages[0]


def test_rounds_stop_before_running_past_the_seconds():
    class Sleepy(workloads.Workload):
        ops = [workloads.Op("nap")]

        def run(self, op):
            time.sleep(0.2)

        def check(self, op, result):
            return None, []

    # 0.2 s rounds: a second one ends at 0.4 s, a third would end at 0.6 s.
    rounds, _, factor = worker.run_rounds(Sleepy(), 0.5, print)
    assert len(rounds) == 2 and factor > 0
    # A round longer than the run still runs once.
    rounds, _, _ = worker.run_rounds(Sleepy(), 0.1, print)
    assert len(rounds) == 1


# -- radial_ground_states --------------------------------------------------------

@pytest.fixture(scope="module")
def soliton():
    gs = groundstate.solve_ground_state(groundstate.ProblemParams(1, 5.0))
    return gs, corrections.correction_profile(gs)


def _radial_problems(gs, m_frak, values=None, sigma0=None):
    prof = gs.profile
    return checks.ground_state_problems(
        gs.params.dim, gs.params.p, prof.nodes,
        prof.values if values is None else values,
        gs.sigma0 if sigma0 is None else sigma0, m_frak)


def test_radial_checks_pass_on_the_soliton(soliton):
    gs, corr = soliton
    assert _radial_problems(gs, corr.m_frak) == []


@pytest.mark.parametrize("corrupt", ["m_frak", "sigma0", "scale", "bump"])
def test_radial_checks_reject_corruption(soliton, corrupt):
    gs, corr = soliton
    u = gs.profile.values.copy()
    kwargs = {}
    m_frak = corr.m_frak
    if corrupt == "m_frak":
        m_frak *= 1.0 + 1e-4
    elif corrupt == "sigma0":
        kwargs["sigma0"] = gs.sigma0 * (1.0 + 1e-4)
    elif corrupt == "scale":  # breaks Nehari and Pohozaev
        kwargs["values"] = u * (1.0 + 1e-6)
    else:  # no longer decreasing
        u[100] = u[99] * 1.0001
        kwargs["values"] = u
    assert _radial_problems(gs, m_frak, **kwargs)


def test_radial_smoke_runs_shooting_and_newton():
    wl = workloads.RadialGroundStates(0, pairs=((2, 3.0),), spacing=1.0 / 300.0)
    out = worker.run_round(wl, print)
    assert out["failed"] == 0 and out["problems"] == []


def test_townes_mass_is_checked():
    r = np.linspace(0.0, 40.0, 12001)
    u = np.sqrt(2.0) / np.cosh(r)  # a stand-in profile, far from Townes
    problems = checks.ground_state_problems(2, 3.0, r, u, 1.0, 0.0)
    assert any("Townes" in p for p in problems)


# -- normalized_solves -----------------------------------------------------------

@pytest.fixture(scope="module")
def small_round():
    wl = workloads.NormalizedSolves(3, per_family=2)
    results = [(op, wl.run(op)) for op in wl.ops]
    return wl, results


def test_normalized_smoke_passes(small_round):
    wl, results = small_round
    summaries, problems = [], []
    for op, sol in results:
        summary, found = wl.check(op, sol)
        summaries.append(summary)
        problems += found
    assert problems + wl.check_round(summaries) == []
    assert len(results) == 2 * len(workloads.NORMALIZED_FAMILIES)


def test_masses_depend_only_on_the_seed():
    labels = [op.label for op in workloads.draw_masses(5)]
    assert labels == [op.label for op in workloads.draw_masses(5)]
    assert labels != [op.label for op in workloads.draw_masses(6)]


def _summaries(wl, results):
    return [wl.check(op, sol)[0] for op, sol in results]


def test_lambda_off_by_1e4_is_rejected(small_round):
    wl, results = small_round
    op, sol = results[0]
    bad = dataclasses.replace(sol, lambda_=sol.lambda_ * (1.0 + 1e-4))
    assert wl.check(op, bad)[1]


def test_mass_off_is_rejected(small_round):
    wl, results = small_round
    op, sol = results[0]
    bad = dataclasses.replace(sol, v_values=sol.v_values * (1.0 + 1e-3))
    assert wl.check(op, bad)[1]


@pytest.mark.parametrize("family,sign", [("dirichlet_p5", 1.0),
                                         ("neumann_p5", -1.0)])
def test_flipped_deficit_is_rejected(small_round, family, sign):
    wl, results = small_round
    fam = [s for s in _summaries(wl, results) if s["family"] == family]
    assert checks.critical_interval_problems(fam, sign) == []
    two_s0 = checks.two_sigma0_1d(5.0)
    flipped = [dict(s, rho=2.0 * two_s0 - s["rho"]) for s in fam]
    assert checks.critical_interval_problems(flipped, sign)


def test_deficit_ratio_must_rise_as_the_deficit_falls():
    two_s0 = checks.two_sigma0_1d(5.0)

    def fam(ratios):  # deficits 1e-3 > 1e-4 at eps 0.2 > 0.15
        return [{"family": "dirichlet_p5", "eps": e,
                 "rho": two_s0 - r * 2.0 * checks.theta_rate(e)}
                for e, r in zip((0.2, 0.15), ratios)]

    assert checks.critical_interval_problems(fam((0.80, 0.85)), 1.0) == []
    assert checks.critical_interval_problems(fam((0.85, 0.80)), 1.0)


def test_wrong_potential_order_is_rejected(small_round):
    wl, results = small_round
    fam = [s for s in _summaries(wl, results) if s["family"] == "line_x2_p5"]
    assert checks.potential_order_problems(fam) == []
    cubic = [dict(s, eps=s["eps"] ** (4.0 / 3.0)) for s in fam]
    assert checks.potential_order_problems(cubic)


def test_growing_scaling_error_is_rejected():
    fam = [{"family": "dirichlet_p3", "p": 3.0, "rho": 20.0, "eps": e,
            "lam": 25.0 * (1.0 + err)}
           for e, err in ((0.3, 1e-4), (0.2, 1e-3))]
    assert checks.scaling_problems(fam)


# -- cli_subcommands -------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    wl = workloads.CliSubcommands(0, root, in_process=True)
    return wl, {op.label: wl.run(op) for op in wl.ops}


def test_cli_outputs_pass(cli_outputs):
    wl, dirs = cli_outputs
    for op in wl.ops:
        assert wl.check(op, dirs[op.label])[1] == [], op.label


def _edit(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    if name.endswith(".json"):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    else:
        header, data = checks.read_csv(path)
        edit(header, data)
        np.savetxt(path, data, delimiter=",", header=",".join(header),
                   comments="", fmt="%.17g")
    return dst


def _scale_column(name, factor):
    def edit(header, data):
        data[:, header.index(name)] *= factor
    return edit


CORRUPTIONS = [
    ("solve --n 1 --p 3 --domain realline --rho 8", "solution_scalars.json",
     lambda d: d.update({"lambda": d["lambda"] * (1.0 + 1e-4)})),
    ("ground-state --n 1 --p 5", "ground_state_scalars.json",
     lambda d: d.update({"two_sigma0": d["two_sigma0"] * (1.0 + 1e-8)})),
    ("correction --n 1 --p 5", "correction_scalars.json",
     lambda d: d.update({"w_center": d["w_center"] + 1e-3})),
    ("boundary-layer --sweep 0.3,0.2,0.15 --bc dirichlet",
     "boundary_layer_sweep.csv", _scale_column("theta", 1.0 + 1e-6)),
    ("verify --theorem interior_scaling", "verify_interior_scaling.json",
     lambda d: d.update({"passed": False})),
    ("mfg --n 1 --p 5 --domain interval --bc neumann --epsilon 0.4",
     "mfg_profile.csv", _scale_column("m", 1.0 + 1e-6)),
    ("trace --n 1 --p 5 --domain interval --bc dirichlet "
     "--eps-list 0.3,0.25,0.2,0.15", "trace_branch.csv",
     _scale_column("mass", 1.01)),
    ("solve --n 1 --p 5 --domain interval --bc dirichlet --epsilon 0.2",
     "solution_profile.csv", _scale_column("v", -1.0)),
]


@pytest.mark.parametrize("label,name,edit", CORRUPTIONS,
                         ids=[c[1] for c in CORRUPTIONS])
def test_cli_checks_reject_corruption(cli_outputs, tmp_path, label, name, edit):
    wl, dirs = cli_outputs
    op = next(op for op in wl.ops if op.label == label)
    bad = _edit(dirs[label], tmp_path / "bad", name, edit)
    assert wl.check(op, bad)[1]


def test_cli_missing_output_is_rejected(cli_outputs, tmp_path):
    wl, _ = cli_outputs
    op = wl.ops[0]
    assert wl.check(op, tmp_path)[1]


def test_cli_subprocess_path_and_nonzero_exit(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(BENCH.parent / "src"))
    commands = (("boundary-layer --sweep 0.3,0.2,0.15 --bc dirichlet",
                 workloads.CLI_COMMANDS[2][1]),
                ("solve --n 1 --p 3 --domain realline --rho -1", None))
    wl = workloads.CliSubcommands(0, tmp_path, commands=commands)
    good = next(op for op in wl.ops if op.label.startswith("boundary"))
    assert wl.check(good, wl.run(good))[1] == []
    bad = next(op for op in wl.ops if op.label.startswith("solve"))
    with pytest.raises(workloads.OperationFailed, match="exit code"):
        wl.run(bad)


# -- tracing ---------------------------------------------------------------------

def _traced_round(wl):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        worker.run_round(wl, print)
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_traced_counts_repeat_and_wrappers_come_off():
    from normwave import bvp
    before = (bvp.solve_fixed_epsilon, bvp.MassEvaluator.__call__)
    wl = workloads.NormalizedSolves(1, per_family=2)
    first, second = _traced_round(wl), _traced_round(wl)
    assert (bvp.solve_fixed_epsilon, bvp.MassEvaluator.__call__) == before
    names = {name for name, _ in tracing.metric_names()}
    assert names - {"import.normwave.s", "trace.overhead_s"} == set(first)
    counts = [n for n, unit in tracing.metric_names() if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["bvp.solve_normalized.calls"] == len(wl.ops)
    assert 0 < first["bvp.MassEvaluator.misses"] <= first["bvp.MassEvaluator.calls"]
    assert first["bvp.newton_iterations"] > 0
    assert first["radial.radial_operator.calls"] == 0


def test_trace_sees_radial_newton_steps():
    wl = workloads.RadialGroundStates(0, pairs=((2, 3.0),), spacing=1.0 / 300.0)
    layers = _traced_round(wl)
    assert layers["radial.radial_newton.calls"] == 1
    assert layers["radial.radial_newton.iterations"] >= 1
    assert layers["radial.splu.calls"] == layers["radial.radial_newton.iterations"] + 1
    assert layers["groundstate.solve_ivp.calls"] > 0
