"""Batch command-line front-end.

Subcommands: ground-state, correction, boundary-layer, solve, trace, verify,
mfg. Every run emits a CSV profile (17-significant-digit floats) and a JSON
scalar file embedding the fully resolved configuration and package version,
written atomically. Exit codes: 0 ok, 1 usage error, 2 computational failure.

Options may be preloaded from a flat key=value config file (--config);
explicit command-line flags take precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional, Sequence

import numpy as np

from . import __version__, asymptotics, boundary_layer, bvp, corrections, mfg
from . import groundstate as gsmod
from .errors import SolverError

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    return format(float(x), ".17g")


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
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict, config: dict) -> None:
    doc = dict(payload)
    doc["config"] = {k: config[k] for k in sorted(config)}
    doc["version"] = __version__
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_profile_csv(path: str):
    with open(path) as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",")
    return header, np.atleast_2d(data)


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
    }, _resolved(args))
    return 0


def cmd_correction(args) -> int:
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
    eps_list = _floats(args.sweep) if args.sweep else [args.epsilon]
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
    if args.domain == "interval":
        return bvp.DomainSpec("interval", args.a, args.b, args.bc)
    potential = tuple(_floats(args.potential)) if args.potential else ()
    return bvp.DomainSpec("realline", potential=potential)


def _direct_solve(args) -> bvp.NormalizedSolution:
    """The solve that exactly one of --rho and --epsilon selects (solve, mfg).

    --grid-n, --init endpoint and --init-csv apply to --epsilon only; with
    --rho they are usage errors (ValueError), as is neither or both.
    """
    params = gsmod.ProblemParams(args.n, args.p)
    spec = _domain_from_args(args)
    init = getattr(args, "init", "interior")
    init_csv = getattr(args, "init_csv", None)
    if (args.rho is None) == (args.epsilon is None):
        raise ValueError("exactly one of --rho and --epsilon is required")
    if args.rho is not None:
        fixed_eps_only = [flag for flag, given in (
            ("--grid-n", args.grid_n is not None),
            ("--init endpoint", init == "endpoint"),
            ("--init-csv", bool(init_csv))) if given]
        if fixed_eps_only:
            raise ValueError(f"{', '.join(fixed_eps_only)} needs --epsilon, "
                             f"not --rho")
        return bvp.solve_normalized(
            spec, params, args.rho, xi=args.xi,
            eps_min=getattr(args, "eps_min", bvp.EPS_MIN))
    u0 = None
    if init_csv:
        _, data = read_profile_csv(init_csv)
        u0 = data[:, -1]  # last column is the rescaled unknown u
        init = "custom"
    return bvp.solve_fixed_epsilon(spec, params, args.epsilon, init=init,
                                   xi=args.xi, u0=u0, n_override=args.grid_n)


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
    params = gsmod.ProblemParams(args.n, args.p)
    spec = _domain_from_args(args)
    rows = bvp.trace_branch(spec, params, _floats(args.eps_list), args.xi)
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
    triple = mfg.to_mfg(_direct_solve(args), nu=args.nu)
    write_csv(_out(args, "mfg_profile", "csv"), ["x", "u", "m"],
              [triple.nodes, triple.u_values, triple.m_values])
    write_json(_out(args, "mfg_scalars", "json"), {
        "lambda": triple.lambda_, "alpha": triple.alpha, "q": triple.q,
        "nu": triple.nu, "residual_hjb": triple.residual_hjb,
        "residual_kolmogorov": triple.residual_kolmogorov,
        "mass_defect": triple.mass_defect,
    }, _resolved(args))
    return 0


# -- parser ------------------------------------------------------------------------

def _add_common(sp) -> None:
    sp.add_argument("--out-dir", default=".", help="output directory")
    sp.add_argument("--config", default=None,
                    help="flat key=value config file (flags take precedence)")


def _bool(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


def _add_domain(sp) -> None:
    sp.add_argument("--domain", choices=["interval", "realline"],
                    default="interval")
    sp.add_argument("--a", type=float, default=-1.0)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--bc", choices=["dirichlet", "neumann"], default=None)
    sp.add_argument("--potential", default="",
                    help="even-polynomial coefficients a1,a2,... for "
                         "V = a1 x^2 + a2 x^4 + ... (real line only)")
    sp.add_argument("--xi", type=float, default=0.0,
                    help="concentration point of the initial ansatz")
    sp.add_argument("--grid-n", type=int, default=None,
                    help="override the automatic grid size")


def build_parser() -> _Parser:
    parser = _Parser(prog="normwave",
                     description="mass-normalized concentrating waves: "
                                 "solvers, asymptotics checks, MFG bridge")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ground-state", help="radial ground state")
    sp.add_argument("--n", type=int, required=True, help="space dimension")
    sp.add_argument("--p", type=float, required=True, help="nonlinearity exponent")
    sp.add_argument("--r-max", type=float, default=40.0)
    sp.add_argument("--spacing", type=float, default=1.0 / 600.0)
    _add_common(sp)
    sp.set_defaults(func=cmd_ground_state)

    sp = sub.add_parser("correction", help="linearized correction profile W")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--r-max", type=float, default=40.0)
    sp.add_argument("--spacing", type=float, default=1.0 / 600.0)
    sp.add_argument("--oracle", action="store_true",
                    help="use the 1D factorization route instead of the BVP")
    _add_common(sp)
    sp.set_defaults(func=cmd_correction)

    sp = sub.add_parser("boundary-layer", help="explicit 1D boundary layers")
    sp.add_argument("--epsilon", type=float, default=0.2)
    sp.add_argument("--bc", choices=["dirichlet", "neumann"],
                    default="dirichlet")
    sp.add_argument("--sweep", default="",
                    help="comma-separated epsilon list (overrides --epsilon)")
    _add_common(sp)
    sp.set_defaults(func=cmd_boundary_layer)

    sp = sub.add_parser("solve", help="direct solve (fixed eps or fixed mass)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--eps-min", type=float, default=bvp.EPS_MIN)
    sp.add_argument("--init", choices=["interior", "endpoint"],
                    default="interior")
    sp.add_argument("--init-csv", default=None,
                    help="profile CSV used as a custom initial guess")
    _add_domain(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("trace", help="warm-started continuation in epsilon")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--eps-list", required=True,
                    help="strictly decreasing comma-separated epsilons")
    _add_domain(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("verify", help="prediction-vs-solver reports")
    sp.add_argument("--theorem", required=True,
                    choices=list(asymptotics.REPORT_IDS))
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("mfg", help="Hopf-Cole transform of a direct solve")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--nu", type=float, default=mfg.DEFAULT_NU)
    _add_domain(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_mfg)
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
    except ValueError as exc:  # invalid input rejected by the library
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
