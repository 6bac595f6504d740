"""Batch command-line front-end.

Subcommands: ground-state, correction, boundary-layer, solve, trace, verify,
mfg. Every run emits a CSV profile (17-significant-digit floats) and a JSON
scalar file embedding the fully resolved configuration and package version,
written atomically. Exit codes: 0 ok, 1 usage error, 2 computational failure.

Options may be preloaded from a flat key=value config file (--config);
explicit command-line flags take precedence.

Each subcommand imports the modules it uses when it runs, so a run loads
only those: ground-state only groundstate (and the radial layer under it),
boundary-layer only boundary_layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .errors import SolverError

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-normwave-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Header, then one row per entry of the equal-length columns, each value
    as a float with 17 significant digits (one %-format over the table)."""
    table = np.column_stack(columns)
    n, k = table.shape
    row = ",".join(["%.17g"] * k) + "\n"
    body = (row * n) % tuple(table.ravel().tolist())
    _atomic_write(path, ",".join(header) + "\n" + body)


def write_json(path: str, payload: dict, config: dict) -> None:
    doc = dict(payload)
    doc["config"] = {k: config[k] for k in sorted(config)}
    doc["version"] = __version__
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _out(args, stem: str, ext: str) -> str:
    return os.path.join(args.out_dir, f"{stem}.{ext}")


def _resolved(args) -> dict:
    # out_dir and the config-file path are not semantic run parameters;
    # excluding them keeps output bytes identical across destinations
    skip = {"func", "config", "out_dir"}
    out = {}
    for k, v in vars(args).items():
        if k in skip:
            continue
        out[k] = v
    return out


# -- subcommands -----------------------------------------------------------------

def cmd_ground_state(args) -> int:
    from . import groundstate as gsmod

    params = gsmod.ProblemParams(args.n, args.p)
    gs = gsmod.solve_ground_state(params, r_max=args.r_max,
                                  spacing=args.spacing)
    prof = gs.profile
    write_csv(_out(args, "ground_state_profile", "csv"), ["r", "U", "dU"],
              [prof.nodes, prof.values, prof.dvalues])
    write_json(_out(args, "ground_state_scalars", "json"), {
        "sigma0": gs.sigma0,
        "two_sigma0": 2.0 * gs.sigma0,
        "frak_c": gs.frak_c,
        "center_value": float(prof.values[0]),
        "regime": params.regime.value,
        "ode_residual_inf": gsmod.ode_residual_max(gs),
        "sigma0_rel_err": gs.sigma0_rel_err,
        "frak_c_rel_err": gs.frak_c_rel_err,
        "r_max": float(prof.nodes[-1]),
    }, _resolved(args))
    return 0


def cmd_correction(args) -> int:
    from . import corrections
    from . import groundstate as gsmod

    params = gsmod.ProblemParams(args.n, args.p)
    gs = gsmod.solve_ground_state(params, r_max=args.r_max,
                                  spacing=args.spacing)
    if args.oracle:
        corr = corrections.factorization_oracle_1d(gs)
    else:
        corr = corrections.correction_profile(gs)
    prof = corr.profile
    write_csv(_out(args, "correction_profile", "csv"), ["r", "W", "dW"],
              [prof.nodes, prof.values, prof.dvalues])
    write_json(_out(args, "correction_scalars", "json"), {
        "m_frak": corr.m_frak,
        "w_center": float(prof.values[0]),
        "w_zero": corr.w_zero,
        "route": "factorization_oracle" if args.oracle else "linearized_bvp",
    }, _resolved(args))
    return 0


def cmd_boundary_layer(args) -> int:
    from . import boundary_layer

    eps_list = _floats(args.sweep) if args.sweep else [args.epsilon]
    if not eps_list:
        raise ValueError("--sweep epsilon list must not be empty")
    rows = []
    for eps in eps_list:
        layer = boundary_layer.make_boundary_layer(eps, args.bc)
        rows.append((eps, layer.center_value, layer.theta,
                     boundary_layer.theta_asymptotic(eps, args.bc),
                     boundary_layer.viscosity_rate(eps, args.bc)))
    cols = list(zip(*rows))
    write_csv(_out(args, "boundary_layer_sweep", "csv"),
              ["epsilon", "phi_center", "theta", "theta_asymptotic",
               "viscosity_rate"], cols)
    last = rows[-1]
    write_json(_out(args, "boundary_layer_scalars", "json"), {
        "epsilon": last[0], "phi_center": last[1], "theta": last[2],
        "theta_asymptotic": last[3], "viscosity_rate": last[4],
        "theta_rate_constant": boundary_layer.THETA_RATE_CONSTANT,
    }, _resolved(args))
    return 0


def _domain_from_args(args) -> bvp.DomainSpec:
    from . import bvp

    # DomainSpec refuses the flags that the domain does not take
    return bvp.DomainSpec(args.domain, args.a, args.b, args.bc,
                          tuple(_floats(args.potential)))


def _direct_solve(args) -> bvp.NormalizedSolution:
    """The solve that exactly one of --rho and --epsilon selects (solve, mfg).

    --grid-n, --init endpoint and --init-csv apply to --epsilon only, and
    --eps-min to --rho only; any other pairing is a usage error (ValueError),
    as is neither or both.
    """
    from . import bvp
    from . import groundstate as gsmod

    params = gsmod.ProblemParams(args.n, args.p)
    spec = _domain_from_args(args)
    init = getattr(args, "init", "interior")
    init_csv = getattr(args, "init_csv", None)
    eps_min = getattr(args, "eps_min", None)
    if (args.rho is None) == (args.epsilon is None):
        raise ValueError("exactly one of --rho and --epsilon is required")
    if args.epsilon is not None and eps_min is not None:
        raise ValueError("--eps-min needs --rho, not --epsilon")
    if args.rho is not None:
        fixed_eps_only = [flag for flag, given in (
            ("--grid-n", args.grid_n is not None),
            ("--init endpoint", init == "endpoint"),
            ("--init-csv", bool(init_csv))) if given]
        if fixed_eps_only:
            raise ValueError(f"{', '.join(fixed_eps_only)} needs --epsilon, "
                             f"not --rho")
        return bvp.solve_normalized(
            spec, params, args.rho,
            eps_min=bvp.EPS_MIN if eps_min is None else eps_min)
    u0 = None
    if init_csv:
        # after the header, the last column is the rescaled unknown u
        u0 = np.atleast_2d(np.loadtxt(init_csv, delimiter=",",
                                      skiprows=1))[:, -1]
    return bvp.solve_fixed_epsilon(spec, params, args.epsilon, init=init,
                                   u0=u0, n_override=args.grid_n)


def cmd_solve(args) -> int:
    sol = _direct_solve(args)
    write_csv(_out(args, "solution_profile", "csv"), ["x", "v", "u"],
              [sol.nodes, sol.v_values, sol.u_values])
    write_json(_out(args, "solution_scalars", "json"), {
        "lambda": sol.lambda_, "epsilon": sol.epsilon, "mass": sol.mass,
        "residual_inf": sol.residual_inf,
        "concentration_point": sol.concentration_point,
    }, _resolved(args))
    return 0


def cmd_trace(args) -> int:
    from . import bvp
    from . import groundstate as gsmod

    params = gsmod.ProblemParams(args.n, args.p)
    spec = _domain_from_args(args)
    rows = bvp.trace_branch(spec, params, _floats(args.eps_list))
    eps, mass, res = zip(*rows)
    write_csv(_out(args, "trace_branch", "csv"),
              ["epsilon", "mass", "residual_inf"], [eps, mass, res])
    write_json(_out(args, "trace_scalars", "json"),
               {"entries": len(rows), "mass_first": mass[0],
                "mass_last": mass[-1]}, _resolved(args))
    return 0


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    return list(obj)


def cmd_verify(args) -> int:
    from . import asymptotics

    report = asymptotics.verify_report(args.theorem)
    payload = {
        "theorem_id": report.theorem_id,
        "predicted": report.predicted,
        "observed": report.observed,
        "fitted_order": report.fitted_order,
        "passed": report.passed,
        "notes": report.notes,
        "tolerances": report.tolerances,
    }
    write_json(_out(args, f"verify_{args.theorem}", "json"),
               json.loads(json.dumps(payload, default=_jsonable)),
               _resolved(args))
    if report.sweep:
        es, ms = zip(*report.sweep)
        write_csv(_out(args, f"verify_{args.theorem}_sweep", "csv"),
                  ["epsilon", "mass"], [es, ms])
    return 0


def cmd_mfg(args) -> int:
    from . import mfg

    triple = mfg.to_mfg(_direct_solve(args))
    write_csv(_out(args, "mfg_profile", "csv"), ["x", "u", "m"],
              [triple.nodes, triple.u_values, triple.m_values])
    write_json(_out(args, "mfg_scalars", "json"), {
        "lambda": triple.lambda_, "alpha": triple.alpha, "q": triple.q,
        "nu": mfg.NU, "residual_hjb": triple.residual_hjb,
        "residual_kolmogorov": triple.residual_kolmogorov,
        "mass_defect": triple.mass_defect,
    }, _resolved(args))
    return 0


# -- parser ------------------------------------------------------------------------

def _bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


# Each flag group is defined once; a subcommand lists the groups it takes.
def _add_problem(sp) -> None:
    sp.add_argument("--n", type=int, required=True, help="space dimension")
    sp.add_argument("--p", type=float, required=True,
                    help="nonlinearity exponent")


def _add_radial_grid(sp) -> None:
    # None is the library's choice (groundstate.solve_ground_state): 40 for
    # N = 1, and the radius the shot's tail asks for, 20 to 40, for N >= 2
    sp.add_argument("--r-max", type=float, default=None,
                    help="radius of the radial grid (default: 40 for N = 1, "
                         "20 to 40 from the shot's tail for N >= 2)")
    sp.add_argument("--spacing", type=float, default=1.0 / 600.0)


def _add_domain(sp) -> None:
    sp.add_argument("--domain", choices=["interval", "realline"],
                    default="interval")
    sp.add_argument("--a", type=float, default=-1.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--bc", choices=["dirichlet", "neumann"], default=None)
    sp.add_argument("--potential", default="",
                    help="even-polynomial coefficients a1,a2,... for "
                         "V = a1 x^2 + a2 x^4 + ... (real line only); a "
                         "list that starts with a minus sign takes the = "
                         "form, --potential=-1,5")


def _add_direct(sp) -> None:
    """The flags that _direct_solve reads in both solve and mfg."""
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--grid-n", type=int, default=None,
                    help="override the automatic grid size (--epsilon only)")
    _add_domain(sp)


def _command(sub, name: str, func, help_: str, *groups):
    """A subcommand with the given flag groups, --out-dir and --config."""
    sp = sub.add_parser(name, help=help_)
    for add in groups:
        add(sp)
    sp.add_argument("--out-dir", default=".", help="output directory")
    sp.add_argument("--config", default=None,
                    help="flat key=value config file (flags take precedence)")
    sp.set_defaults(func=func)
    return sp


def build_parser() -> _Parser:
    parser = _Parser(prog="normwave",
                     description="mass-normalized concentrating waves: "
                                 "solvers, asymptotics checks, MFG bridge")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "ground-state", cmd_ground_state, "radial ground state",
             _add_problem, _add_radial_grid)
    sp = _command(sub, "correction", cmd_correction,
                  "linearized correction profile W",
                  _add_problem, _add_radial_grid)
    sp.add_argument("--oracle", action="store_true",
                    help="use the 1D factorization route instead of the BVP")
    sp = _command(sub, "boundary-layer", cmd_boundary_layer,
                  "explicit 1D boundary layers")
    sp.add_argument("--epsilon", type=float, default=0.2)
    sp.add_argument("--bc", choices=["dirichlet", "neumann"],
                    default="dirichlet")
    sp.add_argument("--sweep", default="",
                    help="comma-separated epsilon list (overrides --epsilon)")
    sp = _command(sub, "solve", cmd_solve,
                  "direct solve (fixed eps or fixed mass)",
                  _add_problem, _add_direct)
    # the default is bvp.EPS_MIN, written out (as are the theorems of
    # verify, asymptotics.REPORT_IDS) so that building the parser imports
    # neither module; tests/test_cli.py pins both
    sp.add_argument("--eps-min", type=float, default=None,
                    help="smallest eps of the root-find (--rho only; "
                         "default 0.05)")
    sp.add_argument("--init", choices=["interior", "endpoint"],
                    default="interior")
    sp.add_argument("--init-csv", default=None,
                    help="profile CSV whose last column starts Newton")
    sp = _command(sub, "trace", cmd_trace,
                  "warm-started continuation in epsilon",
                  _add_problem, _add_domain)
    sp.add_argument("--eps-list", required=True,
                    help="strictly decreasing comma-separated epsilons")
    sp = _command(sub, "verify", cmd_verify, "prediction-vs-solver reports")
    sp.add_argument("--theorem", required=True,
                    choices=["interior_scaling", "interior_critical_mass",
                             "potential_critical_mass"])
    _command(sub, "mfg", cmd_mfg, "Hopf-Cole transform of a direct solve",
             _add_problem, _add_direct)
    return parser


_STORE_TRUE_KEYS = {"oracle"}


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file options in after the subcommand.

    Later command-line occurrences win under argparse, which gives explicit
    flags precedence over the config file.
    """
    cfg_path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
        elif a.startswith("--config="):
            cfg_path = a.split("=", 1)[1]
    cfg = _load_config(cfg_path)
    if not cfg or not argv:
        return argv
    extra: list[str] = []
    for key in sorted(cfg):
        flag = "--" + key.replace("_", "-")
        if key in _STORE_TRUE_KEYS:
            if _bool(cfg[key]):
                extra.append(flag)
        elif cfg[key].startswith("-"):  # argparse reads "-1,5" as an option
            extra.append(f"{flag}={cfg[key]}")
        else:
            extra.extend([flag, cfg[key]])
    return [argv[0]] + extra + argv[1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_inject_config(argv))
        return args.func(args)
    except SolverError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # invalid input, unreadable file
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
