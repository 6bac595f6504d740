"""The benchmark's three workloads: inputs from a seed, operations, checks.

A workload holds a fixed list of operations built from ``--seed``. The
worker runs that list in whole rounds; ``run`` performs one operation (the
timed part) and ``check``/``check_round`` judge its output with the
independent code in ``checks``. Operations look normwave functions up on
their modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from normwave import bvp, cli, corrections, groundstate

WORKLOADS = ("radial_ground_states", "normalized_solves", "cli_subcommands")


class OperationFailed(RuntimeError):
    """An operation did not produce an output (raised, or a non-zero exit)."""


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple = ()
    extra: dict = field(default_factory=dict, compare=False)


def _order(ops: list[Op], seed: int) -> list[Op]:
    perm = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in perm]


class Workload:
    """Defaults for the hooks a workload may leave out."""

    def prepare(self, op: Op) -> None:
        """Runs before each operation, outside its timing."""

    def check_round(self, summaries) -> list[str]:
        """Checks that need a whole round's outputs."""
        return []

    def close(self) -> None:
        """Releases what the workload created on disk."""


# -- radial_ground_states --------------------------------------------------------

# (N, p) at and on both sides of the mass-critical exponent 1 + 4/N. Pairs on
# which solve_ground_state raises NoConvergence today, such as (3, 3), are
# left out: see the FOUND lines in CHANGES.md.
RADIAL_PAIRS = ((2, 2.0), (2, 3.0), (2, 4.0), (3, 2.0), (3, 2.5), (4, 1.8),
                (4, 2.0))


class RadialGroundStates(Workload):
    """One operation: solve_ground_state plus correction_profile for (N, p)."""

    def __init__(self, seed: int, pairs=RADIAL_PAIRS,
                 spacing: float = 1.0 / 600.0):
        self.spacing = spacing
        self.ops = _order([Op(f"N={n} p={p}", (n, p)) for n, p in pairs], seed)

    def run(self, op: Op):
        gs = groundstate.solve_ground_state(groundstate.ProblemParams(*op.args),
                                            spacing=self.spacing)
        return gs, corrections.correction_profile(gs)

    def check(self, op: Op, result):
        gs, corr = result
        prof = gs.profile
        return None, checks.ground_state_problems(
            *op.args, prof.nodes, prof.values, gs.sigma0, corr.m_frak)


# -- normalized_solves -----------------------------------------------------------

# name, domain, p, how rho is drawn, log-uniform range of rho or of delta.
# "rho": rho itself; "below"/"above": rho = 2 sigma0 -/+ delta.
NORMALIZED_FAMILIES = (
    ("line_p3", ("realline", None, ()), 3.0, "rho", (8.5, 60.0)),
    ("dirichlet_p3", ("interval", "dirichlet", ()), 3.0, "rho", (10.0, 70.0)),
    ("dirichlet_p2", ("interval", "dirichlet", ()), 2.0, "rho", (400.0, 6000.0)),
    ("neumann_p7", ("interval", "neumann", ()), 7.0, "rho", (0.88, 1.64)),
    ("dirichlet_p5", ("interval", "dirichlet", ()), 5.0, "below", (1e-5, 1e-2)),
    ("neumann_p5", ("interval", "neumann", ()), 5.0, "above", (1e-5, 1e-2)),
    ("line_x2_p5", ("realline", None, (1.0,)), 5.0, "below", (1e-4, 3e-2)),
)
SOLVES_PER_FAMILY = 16


def draw_masses(seed: int, per_family: int = SOLVES_PER_FAMILY) -> list[Op]:
    """Per family: both ends of its range, and one log-uniform draw in each
    of per_family - 2 equal strata between them.

    The fixed ends keep the largest grid (peak memory, slowest solve) the
    same for every seed; the strata keep each round's work nearly
    seed-independent while the seed still moves every interior mass.
    """
    rng = np.random.default_rng(seed)
    strata = per_family - 2
    ops = []
    for name, domain, p, kind, (lo, hi) in NORMALIZED_FAMILIES:
        a, b = math.log(lo), math.log(hi)
        logs = [a, b] + [a + (b - a) * (i + rng.uniform()) / strata
                         for i in range(strata)]
        two_s0 = checks.two_sigma0_1d(p)
        for t in logs:
            draw = math.exp(t)
            rho = {"rho": draw, "below": two_s0 - draw,
                   "above": two_s0 + draw}[kind]
            ops.append(Op(f"{name} rho={rho:.12g}", (name, domain, p, rho)))
    return _order(ops, seed + 1)


class NormalizedSolves(Workload):
    """One operation: one solve_normalized with N = 1."""

    def __init__(self, seed: int, per_family: int = SOLVES_PER_FAMILY):
        self.ops = draw_masses(seed, per_family)
        self.ground_states = {
            p: groundstate.solve_ground_state(groundstate.ProblemParams(1, p))
            for p in sorted({f[2] for f in NORMALIZED_FAMILIES})}

    def run(self, op: Op):
        _, (kind, bc, potential), p, rho = op.args
        if kind == "interval":
            spec = bvp.DomainSpec("interval", -1.0, 1.0, bc)
        else:
            spec = bvp.DomainSpec("realline", potential=potential)
        return bvp.solve_normalized(spec, groundstate.ProblemParams(1, p), rho,
                                    ground_state=self.ground_states[p])

    def check(self, op: Op, sol):
        family, _, p, rho = op.args
        summary = checks.solution_summary(family, p, rho, sol.epsilon,
                                          sol.lambda_, sol.nodes, sol.v_values)
        return summary, checks.solution_problems(summary)

    def check_round(self, summaries) -> list[str]:
        by_family: dict[str, list[dict]] = {}
        for s in summaries:
            by_family.setdefault(s["family"], []).append(s)
        out = []
        for name in ("dirichlet_p3", "dirichlet_p2", "neumann_p7"):
            out += checks.scaling_problems(by_family.get(name, []))
        out += checks.critical_interval_problems(
            by_family.get("dirichlet_p5", []), 1.0)
        out += checks.critical_interval_problems(
            by_family.get("neumann_p5", []), -1.0)
        out += checks.potential_order_problems(by_family.get("line_x2_p5", []))
        return out


# -- cli_subcommands -------------------------------------------------------------

def _load(outdir: Path, stem: str):
    with open(outdir / f"{stem}.json") as f:
        return json.load(f)


def _csv(outdir: Path, stem: str):
    return checks.read_csv(outdir / f"{stem}.csv")


def _check_ground_state(d):
    return checks.cli_ground_state_problems(_load(d, "ground_state_scalars"),
                                            *_csv(d, "ground_state_profile"))


def _check_correction(d):
    _csv(d, "correction_profile")
    return checks.cli_correction_problems(_load(d, "correction_scalars"))


def _check_boundary_layer(d):
    _load(d, "boundary_layer_scalars")
    return checks.cli_boundary_layer_problems("dirichlet",
                                              *_csv(d, "boundary_layer_sweep"))


def _check_solve(**expect):
    def check(d):
        return checks.cli_solution_problems(_load(d, "solution_scalars"),
                                            *_csv(d, "solution_profile"),
                                            **expect)
    return check


def _check_trace(d):
    _load(d, "trace_scalars")
    return checks.cli_trace_problems(*_csv(d, "trace_branch"))


def _check_verify(theorem):
    def check(d):
        _csv(d, f"verify_{theorem}_sweep")
        return checks.cli_verify_problems(_load(d, f"verify_{theorem}"))
    return check


def _check_mfg(d):
    return checks.cli_mfg_problems(_load(d, "mfg_scalars"),
                                   *_csv(d, "mfg_profile"), lam=6.25)


# The README's CLI examples: all seven subcommands, all three verify theorems.
CLI_COMMANDS = (
    ("ground-state --n 1 --p 5", _check_ground_state),
    ("correction --n 1 --p 5", _check_correction),
    ("boundary-layer --sweep 0.3,0.2,0.15 --bc dirichlet", _check_boundary_layer),
    ("solve --n 1 --p 3 --domain realline --rho 8",
     _check_solve(lam=4.0, rho=8.0)),
    ("solve --n 1 --p 5 --domain interval --bc dirichlet --epsilon 0.2",
     _check_solve(lam=25.0, below_two_sigma0=True)),
    ("solve --n 1 --p 5 --domain realline --potential 1.0 --epsilon 0.25",
     _check_solve(lam=16.0, below_two_sigma0=True)),
    ("trace --n 1 --p 5 --domain interval --bc dirichlet "
     "--eps-list 0.3,0.25,0.2,0.15", _check_trace),
    ("verify --theorem interior_critical_mass",
     _check_verify("interior_critical_mass")),
    ("verify --theorem potential_critical_mass",
     _check_verify("potential_critical_mass")),
    ("verify --theorem interior_scaling",
     _check_verify("interior_scaling")),
    ("mfg --n 1 --p 5 --domain interval --bc neumann --epsilon 0.4", _check_mfg),
)


class CliSubcommands(Workload):
    """One operation: one ``python -m normwave`` run of a README example.

    With in_process=True the same argument lists go to cli.main in this
    process instead, which is how the traced run sees inside the CLI.
    """

    def __init__(self, seed: int, out_root: Path, commands=CLI_COMMANDS,
                 in_process: bool = False):
        self.out_root = Path(out_root)
        self.in_process = in_process
        ops = []
        for i, (line, check) in enumerate(commands):
            outdir = self.out_root / f"{i:02d}-{line.split()[0]}"
            argv = tuple(line.split()) + ("--out-dir", str(outdir))
            ops.append(Op(line, argv, {"outdir": outdir, "check": check}))
        self.ops = _order(ops, seed)

    def run(self, op: Op):
        outdir = op.extra["outdir"]
        if self.in_process:
            try:
                rc = cli.main(list(op.args))
            except SystemExit as exc:  # argparse exits on a usage error
                rc = exc.code
            err = ""
        else:
            proc = subprocess.run([sys.executable, "-m", "normwave", *op.args],
                                  capture_output=True, text=True)
            rc, err = proc.returncode, proc.stderr
        if rc != 0:
            raise OperationFailed(f"exit code {rc}: {err.strip()[-300:]}")
        return outdir

    def prepare(self, op: Op) -> None:
        """Remove the previous round's output so stale files cannot pass."""
        shutil.rmtree(op.extra["outdir"], ignore_errors=True)

    def check(self, op: Op, outdir: Path):
        try:
            return None, op.extra["check"](Path(outdir))
        except (OSError, ValueError, KeyError) as exc:
            return None, [f"{op.label}: unreadable output ({exc})"]

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)


def build(name: str, seed: int, out_root: Path, in_process: bool = False):
    if name == "radial_ground_states":
        return RadialGroundStates(seed)
    if name == "normalized_solves":
        return NormalizedSolves(seed)
    if name == "cli_subcommands":
        return CliSubcommands(seed, out_root, in_process=in_process)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
