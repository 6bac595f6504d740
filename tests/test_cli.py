import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import TWO_SIGMA0_P5
from normwave import cli


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


def test_solve_forbidden_side_exits_2(tmp_path):
    rho = TWO_SIGMA0_P5 + 0.01
    out = run_cli("solve", "--domain", "interval", "--bc", "dirichlet",
                  "--p", "5", "--n", "1", "--rho", f"{rho:.17g}",
                  "--out-dir", str(tmp_path))
    assert out.returncode == 2
    assert "NoSolutionInRegime" in out.stderr


def test_solve_infinite_mass_exits_nonzero(tmp_path):
    out = run_cli("solve", "--domain", "realline", "--p", "3", "--n", "1",
                  "--rho", "inf", "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "solution_scalars.json").exists()


@pytest.mark.parametrize("args", [
    ("--domain", "interval", "--rho", "2.5"),
    ("--domain", "interval", "--bc", "dirichlet", "--epsilon", "0.2",
     "--grid-n", "3"),
    ("--domain", "realline", "--potential", "1.0", "--epsilon", "0.25",
     "--xi", "0.5"),
    ("--domain", "realline", "--potential", "1.0", "--rho", "2.7",
     "--xi", "0.5"),
])
def test_invalid_input_is_usage_error(run_main, tmp_path, args):
    out = run_main("solve", "--n", "1", "--p", "5", *args,
                   "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.count("\n") == 1 and "error:" in out.stderr
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
])
def test_rho_or_epsilon_selection_is_usage_error(run_main, tmp_path, args,
                                                 message):
    # neither flag, both, or a fixed-eps flag with --rho: one error line
    out = run_main(*args, "--out-dir", str(tmp_path))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert f"error: {message}" in out.stderr
    assert not list(tmp_path.iterdir())


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


def test_mfg_command(run_main, tmp_path):
    out = run_main("mfg", "--n", "1", "--p", "5", "--domain", "interval",
                   "--bc", "neumann", "--epsilon", "0.4", "--out-dir",
                   str(tmp_path))
    assert out.returncode == 0
    doc = json.loads((tmp_path / "mfg_scalars.json").read_text())
    assert doc["mass_defect"] <= 1e-10
    assert doc["q"] == 2.0
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
