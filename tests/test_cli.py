import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import FRAK_C_DIM2_P3, SIGMA0_DIM2_P3, TWO_SIGMA0_P5
from normwave import cli, mfg
from normwave import groundstate as gsmod


def run_cli(*args, cwd=None):
    """A fresh `python -m normwave.cli` process: exit codes, tracebacks."""
    return subprocess.run([sys.executable, "-m", "normwave.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture
def run_main(capsys):
    """cli.main in this process, with its return code and captured output."""
    def run(*args):
        rc = cli.main(list(args))
        out = capsys.readouterr()
        return subprocess.CompletedProcess(args, rc, out.out, out.err)
    return run


def test_ground_state_p5(run_main, tmp_path):
    out = run_main("ground-state", "--n", "1", "--p", "5",
                   "--out-dir", str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "ground_state_scalars.json").read_text())
    assert doc["sigma0"] == pytest.approx(1.360350, abs=1e-5)
    assert doc["version"]
    assert doc["config"]["p"] == 5.0
    header = (tmp_path / "ground_state_profile.csv").read_text().splitlines()[0]
    assert header == "r,U,dU"


def test_ground_state_p3(run_main, tmp_path):
    out = run_main("ground-state", "--n", "1", "--p", "3",
                   "--out-dir", str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "ground_state_scalars.json").read_text())
    assert doc["sigma0"] == pytest.approx(2.0, rel=1e-9)
    # the exact N = 1 profile carries no error estimate
    assert doc["sigma0_rel_err"] == doc["frak_c_rel_err"] == 0.0


def test_ground_state_dim2_pins_and_rerun(run_main, tmp_path, gs2d):
    # the shooting and Newton path: the pins of the library test, and the
    # same bytes from a second, fresh process
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_main("ground-state", "--n", "2", "--p", "3",
                    "--out-dir", str(a)).returncode == 0
    doc = json.loads((a / "ground_state_scalars.json").read_text())
    assert doc["sigma0"] == pytest.approx(SIGMA0_DIM2_P3, rel=1e-10)
    assert doc["frak_c"] == pytest.approx(FRAK_C_DIM2_P3, rel=1e-10)
    # the defect-correction error estimates, as the library gives them
    assert doc["sigma0_rel_err"] == gs2d.sigma0_rel_err
    assert doc["frak_c_rel_err"] == gs2d.frak_c_rel_err
    assert 0.0 < doc["sigma0_rel_err"] <= gsmod.SIGMA0_RTOL
    assert run_cli("ground-state", "--n", "2", "--p", "3",
                   "--out-dir", str(b)).returncode == 0
    for name in ("ground_state_profile.csv", "ground_state_scalars.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("n, p, radius", [("2", "3", 20.0), ("1", "5", 40.0)])
def test_ground_state_records_its_radius(run_main, tmp_path, n, p, radius):
    # --r-max defaults to the library's choice, null in the config, and the
    # JSON records the radius used: the last r of the CSV
    assert run_main("ground-state", "--n", n, "--p", p,
                    "--out-dir", str(tmp_path)).returncode == 0
    doc = json.loads((tmp_path / "ground_state_scalars.json").read_text())
    assert doc["r_max"] == radius
    assert doc["config"]["r_max"] is None
    table = np.loadtxt(tmp_path / "ground_state_profile.csv", delimiter=",",
                       skiprows=1)
    assert table[-1, 0] == radius and len(table) == 600 * radius + 1


@pytest.mark.parametrize("command", ["ground-state", "correction"])
def test_dim1_default_radius_is_forty(run_main, tmp_path, command):
    # N = 1 keeps R = 40: its outputs are those of --r-max 40, byte for
    # byte, but for the config's r_max
    a, b = tmp_path / "a", tmp_path / "b"
    for out, extra in ((a, ()), (b, ("--r-max", "40"))):
        assert run_main(command, "--n", "1", "--p", "5", *extra,
                        "--out-dir", str(out)).returncode == 0
    names = sorted(path.name for path in a.iterdir())
    assert len(names) == 2
    assert names == sorted(path.name for path in b.iterdir())
    for name in names:
        got, want = (a / name).read_text(), (b / name).read_text()
        if name.endswith(".json"):
            assert got.count('"r_max": null') == 1
            got = got.replace('"r_max": null', '"r_max": 40.0')
        assert got == want


def test_missing_required_flag_is_usage_error(tmp_path):
    out = run_cli("ground-state", "--n", "1", "--out-dir", str(tmp_path))
    assert out.returncode == 1


def test_unknown_command_is_usage_error():
    assert run_cli("frobnicate").returncode == 1


def test_solve_exact_scaling(run_main, tmp_path):
    out = run_main("solve", "--domain", "realline", "--p", "3", "--rho", "8",
                   "--n", "1", "--out-dir", str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "solution_scalars.json").read_text())
    assert abs(doc["lambda"] / 4.0 - 1.0) < 1e-6
    # the mass the root-find matched to 5e-8 rho, not the raw mass of a
    # finer grid (7.999945986424066 before)
    assert abs(doc["mass"] - 8.0) <= 5e-8 * 8.0


def test_solve_forbidden_side_exits_2(tmp_path):
    rho = TWO_SIGMA0_P5 + 0.01
    out = run_cli("solve", "--domain", "interval", "--bc", "dirichlet",
                  "--p", "5", "--n", "1", "--rho", f"{rho:.17g}",
                  "--out-dir", str(tmp_path))
    assert out.returncode == 2
    assert "NoSolutionInRegime" in out.stderr


def test_solve_all_zero_potential_exits_2(tmp_path):
    # --potential 0 is V = 0: it once walked 13 mass solves and raised
    # BracketFailed
    out = run_cli("solve", "--n", "1", "--p", "5", "--domain", "realline",
                  "--potential", "0", "--rho", "2.7",
                  "--out-dir", str(tmp_path))
    assert out.returncode == 2
    assert out.stderr.startswith(
        "NoSolutionInRegime: critical scaling on the line with V = 0 is "
        "solvable only at rho = 2*sigma0")


def test_ground_state_overflowing_shot_exits_2(tmp_path):
    # died with a traceback from an OverflowError in the shot
    out = run_cli("ground-state", "--n", "2", "--p", "20",
                  "--out-dir", str(tmp_path))
    assert out.returncode == 2
    assert out.stderr.startswith("NoConvergence: shot from U(0) = ")
    assert len(out.stderr.splitlines()) == 1


def test_ground_state_without_decay_plateau_exits_2(tmp_path):
    # wrote frak_c = 1.41e10 and exited 0 after a warning of spread 5.5
    out = run_cli("ground-state", "--n", "2", "--p", "1.05",
                  "--out-dir", str(tmp_path))
    assert out.returncode == 2
    assert out.stderr.startswith("TailNotResolved: decay plateau spread ")
    assert "r_max = 40" in out.stderr
    assert len(out.stderr.splitlines()) == 1


def test_solve_infinite_mass_exits_nonzero(tmp_path):
    out = run_cli("solve", "--domain", "realline", "--p", "3", "--n", "1",
                  "--rho", "inf", "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "solution_scalars.json").exists()


def test_wide_interval_ansatz_runs_under_warnings_as_errors(tmp_path):
    # the ansatz on (-20, 20) at eps = 0.05 reaches k x / eps = 800, where
    # cosh overflowed and the warning killed the run
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "normwave.cli",
         "solve", "--n", "1", "--p", "5", "--domain", "interval", "--a", "-20",
         "--b", "20", "--bc", "neumann", "--epsilon", "0.05",
         "--out-dir", str(tmp_path)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


SOLVE_P5 = ("solve", "--n", "1", "--p", "5")
GROUND_P5 = ("ground-state", "--n", "1", "--p", "5")


@pytest.mark.parametrize("args", [
    (*SOLVE_P5, "--domain", "interval", "--rho", "2.5"),
    (*SOLVE_P5, "--domain", "interval", "--bc", "dirichlet", "--epsilon",
     "0.2", "--grid-n", "3"),
    (*SOLVE_P5, "--domain", "realline", "--potential", "1.0", "--epsilon",
     "0"),
    (*SOLVE_P5, "--domain", "realline", "--potential", "1.0", "--rho", "0"),
    # each of these died with a traceback or exited 0
    (*GROUND_P5, "--spacing", "0"),
    (*GROUND_P5, "--r-max", "inf"),
    (*SOLVE_P5, "--domain", "interval", "--bc", "dirichlet", "--b", "inf",
     "--epsilon", "0.2"),
    (*SOLVE_P5, "--domain", "realline", "--potential", "nan", "--epsilon",
     "0.3"),
    ("solve", "--n", "1", "--p", "3", "--domain", "realline", "--rho", "8",
     "--eps-min", "nan"),
    ("solve", "--n", "1", "--p", "3", "--domain", "realline", "--rho", "8",
     "--eps-min", "0.5"),
])
def test_invalid_input_is_usage_error(run_main, tmp_path, args):
    out = run_main(*args, "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.count("\n") == 1 and "error:" in out.stderr
    assert not list(tmp_path.iterdir())


def test_trace_nonfinite_epsilon_is_usage_error(run_main, tmp_path):
    # exited 1 with "cannot convert float NaN to integer" from the grid
    # sizing, after solving eps = 0.3
    out = run_main("trace", "--n", "1", "--p", "5", "--domain", "interval",
                   "--bc", "neumann", "--eps-list", "0.3,nan",
                   "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr == "normwave: error: epsilon must lie in (0, 0.5]\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (("trace", "--n", "1", "--p", "5", "--domain", "interval", "--bc",
      "neumann", "--eps-list", ","), "epsilon list must not be empty"),
    (("boundary-layer", "--sweep", ","),
     "--sweep epsilon list must not be empty"),
])
def test_empty_epsilon_list_is_usage_error(run_main, tmp_path, args, message):
    # exited 1 with "not enough values to unpack (expected 3, got 0)" and
    # "need at least one array to concatenate"
    out = run_main(*args, "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr == f"normwave: error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ("ground-state", "--n", "2", "--p", "nan"),
    ("ground-state", "--n", "1", "--p", "inf"),
    ("solve", "--n", "1", "--p", "nan", "--domain", "realline", "--rho", "8"),
])
def test_nonfinite_exponent_is_usage_error(run_main, tmp_path, args):
    out = run_main(*args, "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert "error: exponent p must be finite" in out.stderr
    assert not list(tmp_path.iterdir())


def test_solve_requires_rho_or_epsilon(run_main, tmp_path):
    out = run_main("solve", "--domain", "realline", "--p", "3", "--n", "1",
                   "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert "error: exactly one of --rho and --epsilon" in out.stderr
    assert not list(tmp_path.iterdir())


NEUMANN_P5 = ("--n", "1", "--p", "5", "--domain", "interval", "--bc",
              "neumann")
LINE_P3 = ("--n", "1", "--p", "3", "--domain", "realline")


ONE_OF = "exactly one of --rho and --epsilon"
START_CSV = "<start profile csv>"  # a real file, written by the test


@pytest.mark.parametrize("args, message", [
    pytest.param(("mfg", *NEUMANN_P5), ONE_OF, id="mfg-neither"),
    pytest.param(("solve", *LINE_P3, "--rho", "8", "--epsilon", "0.5"),
                 ONE_OF, id="solve-both"),
    pytest.param(("mfg", *NEUMANN_P5, "--rho", "2.75", "--epsilon", "0.4"),
                 ONE_OF, id="mfg-both"),
    pytest.param(("solve", *LINE_P3, "--rho", "8", "--grid-n", "5000"),
                 "--grid-n needs --epsilon", id="solve-rho-grid-n"),
    pytest.param(("solve", *NEUMANN_P5, "--rho", "2.75", "--init", "endpoint"),
                 "--init endpoint needs --epsilon", id="solve-rho-endpoint"),
    pytest.param(("solve", *LINE_P3, "--rho", "8", "--init-csv", "u.csv"),
                 "--init-csv needs --epsilon", id="solve-rho-init-csv"),
    pytest.param(("mfg", *NEUMANN_P5, "--rho", "2.75", "--grid-n", "4000"),
                 "--grid-n needs --epsilon", id="mfg-rho-grid-n"),
    # --eps-min only bounds the root-find; nan once reached the JSON as NaN
    pytest.param(("solve", *NEUMANN_P5, "--epsilon", "0.3", "--eps-min",
                  "nan"), "--eps-min needs --rho", id="solve-epsilon-eps-min"),
    pytest.param(("solve", *NEUMANN_P5, "--epsilon", "0.3", "--eps-min",
                  "0.1"), "--eps-min needs --rho",
                 id="solve-epsilon-eps-min-finite"),
    # domain flags the domain does not take
    pytest.param(("solve", *NEUMANN_P5, "--potential", "1.0", "--epsilon",
                  "0.3"), "potential is only supported on the real line",
                 id="interval-potential"),
    pytest.param(("solve", *LINE_P3, "--bc", "dirichlet", "--epsilon", "0.3"),
                 "real line uses decay conditions", id="realline-bc"),
    pytest.param(("solve", *LINE_P3, "--a", "0", "--b", "5", "--epsilon",
                  "0.3"), "the real line takes no ends", id="realline-a-b"),
    pytest.param(("mfg", *LINE_P3, "--b", "5", "--rho", "8"),
                 "the real line takes no ends", id="mfg-realline-b"),
    # start-profile flags that exclude each other
    pytest.param(("solve", *NEUMANN_P5, "--epsilon", "0.3", "--init",
                  "endpoint", "--init-csv", START_CSV),
                 "u0 cannot be combined with init='endpoint'",
                 id="endpoint-init-csv"),
])
def test_rho_or_epsilon_selection_is_usage_error(run_main, tmp_path_factory,
                                                 tmp_path, args, message):
    # neither flag, both, a fixed-eps flag with --rho, or flags that the
    # library refuses together: one error line, no file
    start = tmp_path_factory.mktemp("start") / "u.csv"
    start.write_text("x,v,u\n0,1,1\n")
    args = [str(start) if a == START_CSV else a for a in args]
    out = run_main(*args, "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert f"error: {message}" in out.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, flag", [
    (("trace", "--n", "1", "--p", "5", "--domain", "interval", "--bc",
      "dirichlet", "--eps-list", "0.3,0.25"), "--grid-n 7"),
    (("mfg", *NEUMANN_P5, "--epsilon", "0.4"), "--nu 0.5"),
    (("solve", *NEUMANN_P5, "--epsilon", "0.3"), "--xi 0.5"),
])
def test_removed_flag_is_usage_error(capsys, tmp_path, args, flag):
    # trace never read --grid-n; nu other than sqrt(2)/2 is no equilibrium;
    # an interior solve starts at the centre of its domain. A stale config
    # key is refused too, not silently accepted
    name, value = flag.split()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name[2:]} = {value}\n")
    out_dir = tmp_path / "out"
    for extra in ((name, value), ("--config", str(cfg))):
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, *extra, "--out-dir", str(out_dir)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] \
            == [f"normwave: error: unrecognized arguments: {flag}"]
        assert not out_dir.exists()


def test_off_centre_interval_solve_is_the_centred_bump(run_main, tmp_path):
    # the ansatz sat at 0, so this returned the endpoint half-bump: peak at
    # 0.0, half the mass
    out = run_main("solve", "--n", "1", "--p", "3", "--domain", "interval",
                   "--bc", "neumann", "--a", "0", "--b", "2", "--epsilon",
                   "0.3", "--out-dir", str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "solution_scalars.json").read_text())
    assert doc["concentration_point"] == pytest.approx(1.0, abs=1e-12)


def test_accuracy_is_not_an_option(capsys, tmp_path):
    # the ground-state tolerances are fixed: Newton 1e-12, residual gate 1e-8
    cfg = tmp_path / "run.cfg"
    cfg.write_text("accuracy = 1e-7\n")
    out_dir = tmp_path / "out"
    for extra in (("--accuracy", "1e-7"), ("--config", str(cfg))):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ground-state", "--n", "3", "--p", "3", *extra,
                      "--out-dir", str(out_dir)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --accuracy" in capsys.readouterr().err
        assert not out_dir.exists()


def test_determinism_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        out = run_cli("boundary-layer", "--sweep", "0.3,0.2,0.15",
                      "--bc", "dirichlet", "--out-dir", str(d))
        assert out.returncode == 0
    for name in ("boundary_layer_sweep.csv", "boundary_layer_scalars.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_determinism(run_main, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        out = run_main("solve", "--domain", "interval", "--bc", "neumann",
                       "--p", "5", "--n", "1", "--epsilon", "0.3",
                       "--out-dir", str(d))
        assert out.returncode == 0
    assert (a / "solution_profile.csv").read_bytes() \
        == (b / "solution_profile.csv").read_bytes()


def test_trace_csv(run_main, tmp_path):
    out = run_main("trace", "--n", "1", "--p", "5", "--domain", "interval",
                   "--bc", "dirichlet", "--eps-list", "0.3,0.25,0.2",
                   "--out-dir", str(tmp_path))
    assert out.returncode == 0
    rows = (tmp_path / "trace_branch.csv").read_text().splitlines()
    assert rows[0] == "epsilon,mass,residual_inf"
    masses = [float(r.split(",")[1]) for r in rows[1:]]
    assert masses == sorted(masses)


def test_config_file_and_override(run_main, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 0.3\nbc = dirichlet\n")
    out = run_main("boundary-layer", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "c1"))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "c1/boundary_layer_scalars.json").read_text())
    assert doc["epsilon"] == 0.3
    # explicit flag wins over the config value
    out = run_main("boundary-layer", "--config", str(cfg), "--epsilon", "0.2",
                   "--out-dir", str(tmp_path / "c2"))
    doc = json.loads((tmp_path / "c2/boundary_layer_scalars.json").read_text())
    assert doc["epsilon"] == 0.2


def test_potential_starting_with_a_minus_sign(run_main, tmp_path, capsys):
    # V = -x^2 + 5x^4: after a space argparse takes "-1,5" for an option,
    # so --potential's help and the README give the = form, and a config
    # file's value is passed in that form too
    solve = ("solve", "--n", "1", "--p", "5", "--domain", "realline",
             "--epsilon", "0.25")
    out = run_main(*solve, "--potential=-1,5", "--out-dir",
                   str(tmp_path / "flag"))
    assert out.returncode == 0, out.err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("potential = -1,5\n")
    out = run_main(*solve, "--config", str(cfg), "--out-dir",
                   str(tmp_path / "cfg"))
    assert out.returncode == 0, out.err
    docs = [json.loads((tmp_path / d / "solution_scalars.json").read_text())
            for d in ("flag", "cfg")]
    assert docs[0] == docs[1]
    assert docs[0]["config"]["potential"] == "-1,5"
    with pytest.raises(SystemExit) as exc:
        cli.main([*solve, "--potential", "-1,5", "--out-dir",
                  str(tmp_path / "space")])
    assert exc.value.code == 1
    assert "--potential: expected one argument" in capsys.readouterr().err
    assert "--potential=-1,5" in _option(_subparsers()["solve"],
                                         "potential").help


def test_mfg_command(run_main, tmp_path):
    out = run_main("mfg", "--n", "1", "--p", "5", "--domain", "interval",
                   "--bc", "neumann", "--epsilon", "0.4", "--out-dir",
                   str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "mfg_scalars.json").read_text())
    assert doc["mass_defect"] <= 1e-10
    assert doc["q"] == 2.0
    assert doc["nu"] == mfg.NU and "nu" not in doc["config"]
    data = np.loadtxt(tmp_path / "mfg_profile.csv", delimiter=",", skiprows=1)
    assert np.all(data[:, 2] > 0)


def test_mfg_command_prescribed_mass(run_main, tmp_path):
    rho = TWO_SIGMA0_P5 + 0.01  # supercritical coupling side for Neumann
    out = run_main("mfg", "--n", "1", "--p", "5", "--domain", "interval",
                   "--bc", "neumann", "--rho", f"{rho:.17g}",
                   "--out-dir", str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "mfg_scalars.json").read_text())
    # alpha is built from the measured mass of the stored profile, which
    # carries the O(h^2) quadrature offset from the extrapolated target
    assert doc["alpha"] == pytest.approx(rho ** 2, rel=1e-4)


def test_correction_oracle_route(run_main, tmp_path):
    out = run_main("correction", "--n", "1", "--p", "5", "--oracle",
                   "--out-dir", str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "correction_scalars.json").read_text())
    assert doc["route"] == "factorization_oracle"
    assert doc["w_center"] == pytest.approx(-0.3013696288, abs=1e-6)


def test_verify_command(run_main, tmp_path):
    out = run_main("verify", "--theorem", "interior_scaling",
                   "--out-dir", str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "verify_interior_scaling.json").read_text())
    assert doc["passed"] is True
    assert (tmp_path / "verify_interior_scaling_sweep.csv").exists()


def test_verify_interior_critical_serializes(run_main, tmp_path):
    out = run_main("verify", "--theorem", "interior_critical_mass",
                   "--out-dir", str(tmp_path))
    assert out.returncode == 0, out.stderr
    doc = json.loads(
        (tmp_path / "verify_interior_critical_mass.json").read_text())
    assert doc["passed"] is True
    assert doc["observed"]["dirichlet"]["one_sided"] is True


@pytest.mark.parametrize("args", [
    ("solve", *NEUMANN_P5, "--epsilon", "0.3", "--init-csv", "missing.csv"),
    ("ground-state", "--n", "1", "--p", "5", "--config", "missing.cfg"),
])
def test_missing_input_file_is_usage_error(run_main, tmp_path, args):
    # a missing file is one error line, not a FileNotFoundError traceback
    args = [str(tmp_path / a) if a.startswith("missing.") else a for a in args]
    out_dir = tmp_path / "out"
    out = run_main(*args, "--out-dir", str(out_dir))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1 and "error:" in out.stderr
    assert "missing." in out.stderr
    assert not out_dir.exists()


def test_solve_init_csv_roundtrip(run_main, tmp_path):
    out = run_main("solve", "--domain", "interval", "--bc", "neumann",
                   "--p", "5", "--n", "1", "--epsilon", "0.3",
                   "--out-dir", str(tmp_path / "first"))
    assert out.returncode == 0
    out = run_main("solve", "--domain", "interval", "--bc", "neumann",
                   "--p", "5", "--n", "1", "--epsilon", "0.29",
                   "--init-csv", str(tmp_path / "first/solution_profile.csv"),
                   "--out-dir", str(tmp_path / "second"))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "second/solution_scalars.json").read_text())
    assert doc["epsilon"] == 0.29


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", ["0.002", "0.001"])
def test_boundary_layer_tiny_epsilon_is_usage_error(run_main, tmp_path, eps):
    # e^{-2/eps} underflows: one error line, no traceback or warning, no file
    out = run_main("boundary-layer", "--epsilon", eps,
                   "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert "error: epsilon must be at least" in out.stderr
    assert not list(tmp_path.iterdir())


def _write_csv_per_value(path, header, columns):
    """The per-value writer that write_csv replaced, as its reference."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format(float(v), ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


def _csv_tables():
    special = [-0.0, 5e-324, 1e308, np.inf, np.nan, -np.inf, 0.1, 1.0 / 3.0]
    yield "special", ["x"], [special]
    yield "mixed", ["a", "b", "c", "d"], [
        np.array(special), np.linspace(-1.0, 7.0, 8, dtype=np.float32),
        np.arange(-3, 5), tuple(float(v) * 1e-7 for v in range(8))]
    yield "ints", ["i", "j"], [np.arange(5), (1, 2, 3, 4, 2 ** 60)]
    yield "float32", ["f"], [np.float32([1e-30, 3.1415927, -2.5e30])]
    yield "one_row", ["x", "y", "z"], [(0.2,), (-1e-300,), (np.float64(7),)]
    prof = gsmod.solve_ground_state(gsmod.ProblemParams(1, 5.0)).profile
    yield "ground_state", ["r", "U", "dU"], [prof.nodes, prof.values,
                                             prof.dvalues]


def test_write_csv_matches_per_value_format(tmp_path):
    for name, header, columns in _csv_tables():
        cli.write_csv(str(tmp_path / f"{name}.csv"), header, columns)
        _write_csv_per_value(tmp_path / f"{name}.ref", header, columns)
        assert (tmp_path / f"{name}.csv").read_bytes() \
            == (tmp_path / f"{name}.ref").read_bytes(), name


def _subparsers() -> dict:
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _option(parser, dest):
    return next(a for a in parser._actions if a.dest == dest)


def test_parser_literals_match_their_modules():
    # the parser writes out bvp.EPS_MIN and asymptotics.REPORT_IDS so that
    # building it imports neither module
    from normwave import asymptotics, bvp

    theorem = _option(_subparsers()["verify"], "theorem")
    assert tuple(theorem.choices) == asymptotics.REPORT_IDS
    eps_min = _option(_subparsers()["solve"], "eps_min")
    assert eps_min.help.endswith(f"(--rho only; default {bvp.EPS_MIN:g})")


# a fresh interpreter runs `python -m normwave ARGS` and prints every module
# it then holds
_MODULES_AFTER = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('normwave', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    assert not exc.code, exc.code\n"
    "print(*sorted(sys.modules))\n")


def _modules_after(args, out_dir):
    out = subprocess.run([sys.executable, "-c", _MODULES_AFTER, *args.split(),
                          "--out-dir", str(out_dir)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


@pytest.mark.parametrize("args, used, unused", [
    ("ground-state --n 1 --p 5", ["groundstate"],
     ["bvp", "asymptotics", "boundary_layer", "corrections", "mfg",
      "numpy.ma", "numpy.polynomial"]),
    ("boundary-layer --sweep 0.3,0.2,0.15", ["boundary_layer"],
     ["groundstate", "bvp", "radial", "numpy.ma", "numpy.polynomial"]),
    ("solve --n 1 --p 3 --domain realline --rho 8", ["bvp", "groundstate"],
     ["asymptotics", "corrections", "boundary_layer", "mfg", "numpy.ma"]),
], ids=["ground-state", "boundary-layer", "solve"])
def test_subcommand_loads_only_its_modules(tmp_path, args, used, unused):
    # each command imports its own modules when it runs, one interpreter
    # per command; numpy.ma comes with np.median and numpy.polynomial with
    # leggauss, so no command may call either
    def name(m):
        return m if m.startswith("numpy") else f"normwave.{m}"

    loaded = _modules_after(args, tmp_path)
    assert {name(m) for m in used} <= loaded
    assert not {name(m) for m in unused} & loaded


def test_bare_import_loads_no_submodule():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, normwave; "
         "print(*sorted(m for m in sys.modules if m.startswith('normwave')))"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["normwave"]


def _readme_examples():
    """The `normwave ...` lines of the README, without --out-dir."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text().splitlines():
        if line.startswith("normwave "):
            args = line.split("#")[0].split()[1:]
            yield " ".join(args[:args.index("--out-dir")])


README_EXAMPLES = list(_readme_examples())


def test_readme_examples_cover_every_subcommand():
    assert len(README_EXAMPLES) == 11
    assert {line.split()[0] for line in README_EXAMPLES} == set(_subparsers())


@pytest.mark.parametrize("args", README_EXAMPLES)
def test_readme_example_runs_in_its_own_process(tmp_path, args):
    # a module that a command uses but does not import would fail here,
    # where no earlier command in the same interpreter has loaded it
    out = subprocess.run([sys.executable, "-m", "normwave", *args.split(),
                          "--out-dir", str(tmp_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert any(tmp_path.glob("*.json"))
