"""Independent correctness checks for the benchmark's outputs.

Every check recomputes its reference with this file's own numpy code
(quadrature, difference stencils, closed forms) and returns a list of
problems; an empty list means the output passed. Nothing here calls into
normwave, so a fault in the library cannot hide a fault in its output.
"""

from __future__ import annotations

import math

import numpy as np

CATALAN = 0.915965594177219015054603514932384110774
TOWNES_TWO_SIGMA0 = 11.70089652  # ∫ U^2 of the N = 2, p = 3 ground state
THETA_RATE = 4.0 * math.sqrt(3.0)  # |Theta(eps)| ~ THETA_RATE / eps e^{-2/eps}
# solve_normalized's default mass_rtol: it may return any eps whose mass is
# within MASS_RTOL * rho of rho, so trends between two close masses are only
# checked beyond the error that tolerance allows each of them.
MASS_RTOL = 5e-8


# -- numerics of our own ---------------------------------------------------------

def simpson(f: np.ndarray, h: float) -> float:
    """Composite Simpson rule on a uniform grid with an even panel count."""
    if len(f) % 2 == 0:
        raise ValueError("simpson needs an odd number of nodes")
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


def uniform_step(x: np.ndarray) -> float:
    h = float(x[1] - x[0])
    if not np.allclose(np.diff(x), h, rtol=1e-9, atol=0.0):
        raise ValueError("grid is not uniform")
    return h


def d1_even(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative of an even radial function.

    The origin is padded by reflection; the last two nodes, deep in the
    exponential tail, use the decay law w' = -w.
    """
    g = np.concatenate([vals[2:0:-1], vals])
    out = np.empty_like(vals)
    m = len(vals) - 2
    out[:m] = (g[0:m] - 8.0 * g[1:m + 1] + 8.0 * g[3:m + 3] - g[4:m + 4]) / (12.0 * h)
    out[m:] = -vals[m:]
    out[0] = 0.0
    return out


def sphere_area(dim: int) -> float:
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def radial_integral(r: np.ndarray, f: np.ndarray, dim: int) -> float:
    """∫_{R^dim} f(|x|) dx on the sampled interval [0, R]."""
    return sphere_area(dim) * simpson(f * r ** (dim - 1), uniform_step(r))


def two_sigma0_1d(p: float) -> float:
    """∫ U^2 of U = A sech^{2/(p-1)}(k x), by the Beta-function closed form."""
    m = 2.0 / (p - 1.0)
    k = (p - 1.0) / 2.0
    amp2 = ((p + 1.0) / 2.0) ** (2.0 / (p - 1.0))
    return amp2 / k * math.sqrt(math.pi) * math.gamma(m) / math.gamma(m + 0.5)


def scaling_lambda(p: float, rho: float) -> float:
    """Invert rho = lambda^{2/(p-1) - 1/2} * 2 sigma0 (N = 1, whole line)."""
    return (rho / two_sigma0_1d(p)) ** (1.0 / (2.0 / (p - 1.0) - 0.5))


def theta_rate(eps: float) -> float:
    return THETA_RATE / eps * math.exp(-2.0 / eps)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# -- radial_ground_states -------------------------------------------------------

def ground_state_problems(dim: int, p: float, r: np.ndarray, u: np.ndarray,
                          sigma0: float, m_frak: float) -> list[str]:
    """Nehari, Pohozaev, m_frak, mass and shape checks of one ground state."""
    tag = f"(N={dim}, p={p})"
    out = []
    if not (np.all(u > 0.0) and np.all(np.diff(u) < 0.0)):
        out.append(f"{tag}: U is not positive and strictly decreasing")
        return out
    h = uniform_step(r)
    du = d1_even(u, h)
    grad2 = radial_integral(r, du * du, dim)
    mass = radial_integral(r, u * u, dim)
    pot = radial_integral(r, u ** (p + 1.0), dim)
    nehari = (grad2 + mass - pot) / pot
    if abs(nehari) > 1e-9:
        out.append(f"{tag}: Nehari identity off by {nehari:.2e}")
    pohozaev = ((dim - 2) / 2.0 * grad2 + dim / 2.0 * mass
                - dim / (p + 1.0) * pot) / pot
    if abs(pohozaev) > 1e-9:
        out.append(f"{tag}: Pohozaev identity off by {pohozaev:.2e}")
    if _rel(2.0 * sigma0, mass) > 1e-10:
        out.append(f"{tag}: 2 sigma0 = {2 * sigma0!r} but ∫U^2 = {mass!r}")
    # L(2U/(p-1) + rU') = -2U, so (1/2N)∫U W = -(1/4N)∫ r^2 U (2U/(p-1) + rU')
    expected = -radial_integral(r, r * r * u * (2.0 * u / (p - 1.0) + r * du),
                                dim) / (4.0 * dim)
    if abs(m_frak - expected) > 1e-9 * max(1.0, abs(expected)):
        out.append(f"{tag}: m_frak = {m_frak!r}, expected {expected!r}")
    if (dim, p) == (2, 3.0) and abs(mass - TOWNES_TWO_SIGMA0) > 1e-6:
        out.append(f"{tag}: Townes mass {mass!r}, expected {TOWNES_TWO_SIGMA0}")
    return out


# -- normalized_solves ----------------------------------------------------------

def solution_summary(family: str, p: float, rho: float, eps: float, lam: float,
                     x: np.ndarray, v: np.ndarray) -> dict:
    """Reduce one normalized solution to the numbers the checks need."""
    h = uniform_step(x)
    return {"family": family, "p": p, "rho": rho, "eps": eps, "lam": lam,
            "nodes": len(x), "mass": simpson(v * v, h),
            "v_min": float(np.min(v[1:-1])), "v_max": float(np.max(v))}


def solution_problems(s: dict) -> list[str]:
    """Checks that hold for every normalized solution on its own."""
    tag = f"{s['family']} rho={s['rho']!r}"
    out = []
    if _rel(s["lam"], s["eps"] ** -2.0) > 1e-12:
        out.append(f"{tag}: lambda {s['lam']!r} != eps^-2 = {s['eps'] ** -2.0!r}")
    if _rel(s["mass"], s["rho"]) > 1e-4:
        out.append(f"{tag}: ∫v^2 = {s['mass']!r} against rho")
    if s["v_min"] < -1e-12 * s["v_max"]:
        out.append(f"{tag}: v is negative inside the domain")
    if s["family"] == "line_p3" and _rel(s["lam"], (s["rho"] / 4.0) ** 2) > 1e-6:
        out.append(f"{tag}: lambda {s['lam']!r} != (rho/4)^2")
    return out


def scaling_problems(family: list[dict]) -> list[str]:
    """Pure-scaling law on an interval: error below 1/2, shrinking as eps -> 0.

    rho ~ lambda^e moves lambda by MASS_RTOL/|e| within the mass tolerance,
    so two errors may differ by twice that without a trend.
    """
    if not family:
        return []
    p = family[0]["p"]
    slack = 2.0 * MASS_RTOL / abs(2.0 / (p - 1.0) - 0.5)
    errs = sorted(((s["eps"], abs(s["lam"] / scaling_lambda(p, s["rho"]) - 1.0))
                   for s in family), reverse=True)
    out = []
    for (e0, r0), (e1, r1) in zip(errs, errs[1:]):
        if r1 > r0 + slack:
            out.append(f"{family[0]['family']}: scaling error grows from "
                       f"{r0:.2e} (eps={e0:.4g}) to {r1:.2e} (eps={e1:.4g})")
    if errs[0][1] > 0.5:
        out.append(f"{family[0]['family']}: scaling error {errs[0][1]:.2e}")
    return out


def critical_interval_problems(family: list[dict], sign: float) -> list[str]:
    """p = 5 on an interval: one-sided deficit of 2 Theta(eps), rising as
    the distance to 2 sigma0 falls. sign is +1 for Dirichlet, -1 for Neumann.

    Each ratio may be off by MASS_RTOL * rho / (2 Theta), about 1 % at a
    deficit of 1e-5; the checks allow exactly that.
    """
    two_s0 = two_sigma0_1d(5.0)
    rows = sorted((sign * (two_s0 - s["rho"]),
                   sign * (two_s0 - s["rho"]) / (2.0 * theta_rate(s["eps"])),
                   MASS_RTOL * s["rho"] / (2.0 * theta_rate(s["eps"])))
                  for s in family)
    out = []
    for delta, ratio, tol in rows:
        if not 0.7 - tol <= ratio <= 1.0 + tol:
            out.append(f"{family[0]['family']}: deficit/2Theta = {ratio:.4f} "
                       f"at |2 sigma0 - rho| = {delta:.3e}")
    for (d0, r0, t0), (d1, r1, t1) in zip(rows, rows[1:]):
        if r1 > r0 + t0 + t1:
            out.append(f"{family[0]['family']}: deficit/2Theta falls from "
                       f"{r1:.4f} to {r0:.4f} as the deficit shrinks")
    return out


def potential_order_problems(family: list[dict]) -> list[str]:
    """V = x^2 at p = 5: deficit 2 sigma0 - rho > 0 of fitted order 4 +- 0.3."""
    two_s0 = two_sigma0_1d(5.0)
    deficit = np.array([two_s0 - s["rho"] for s in family])
    eps = np.array([s["eps"] for s in family])
    if np.any(deficit <= 0.0):
        return ["line_x2_p5: mass at or above 2 sigma0"]
    if len(family) < 2 or np.ptp(np.log(eps)) < 1e-3:
        return []
    order = np.polyfit(np.log(eps), np.log(deficit), 1)[0]
    if abs(order - 4.0) > 0.3:
        return [f"line_x2_p5: fitted deficit order {order:.3f}, expected 4"]
    return []


# -- cli_subcommands ------------------------------------------------------------

def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: malformed or non-finite CSV")
    return header, data


def column(header: list[str], data: np.ndarray, name: str) -> np.ndarray:
    return data[:, header.index(name)]


def cli_ground_state_problems(doc: dict, header, data) -> list[str]:
    out = []
    if _rel(doc["two_sigma0"], math.sqrt(3.0) * math.pi / 2.0) > 1e-10:
        out.append(f"ground-state: 2 sigma0 = {doc['two_sigma0']!r}, "
                   f"expected sqrt(3) pi / 2")
    r = column(header, data, "r")
    u = column(header, data, "U")
    exact = 3.0 ** 0.25 / np.sqrt(np.cosh(2.0 * r))
    if np.max(np.abs(u - exact)) > 1e-12:
        out.append("ground-state: profile differs from 3^{1/4} sech^{1/2}(2r)")
    return out


def cli_correction_problems(doc: dict) -> list[str]:
    expected = -3.0 ** 0.25 * CATALAN / 4.0
    if abs(doc["w_center"] - expected) > 1e-4:
        return [f"correction: W(0) = {doc['w_center']!r}, expected {expected!r}"]
    return []


def cli_boundary_layer_problems(bc: str, header, data) -> list[str]:
    """Theta(eps) = phi(0) ∫ cosh(y) U5(y) dy over |y| < 1/eps, with the
    closed form ∫_{-y}^{y} cosh t (cosh 2t)^{-1/2} dt = sqrt2 asinh(sqrt2 sinh y)."""
    out = []
    sign = 1.0 if bc == "dirichlet" else -1.0
    for eps, phi0, theta in zip(column(header, data, "epsilon"),
                                column(header, data, "phi_center"),
                                column(header, data, "theta")):
        y = 1.0 / eps
        closed = phi0 * 3.0 ** 0.25 * math.sqrt(2.0) \
            * math.asinh(math.sqrt(2.0) * math.sinh(y))
        if _rel(theta, closed) > 1e-8:
            out.append(f"boundary-layer: Theta({eps}) = {theta!r}, "
                       f"closed form {closed!r}")
        if not 0.75 <= sign * theta / theta_rate(eps) <= 1.25:
            out.append(f"boundary-layer: Theta({eps}) far from its rate")
    return out


def cli_solution_problems(doc: dict, header, data, *, lam=None, rho=None,
                          below_two_sigma0=False) -> list[str]:
    out = []
    x = column(header, data, "x")
    v = column(header, data, "v")
    mass = simpson(v * v, uniform_step(x))
    if _rel(doc["lambda"], doc["epsilon"] ** -2.0) > 1e-12:
        out.append("solve: lambda != eps^-2")
    if lam is not None and abs(doc["lambda"] - lam) > 1e-6 * lam:
        out.append(f"solve: lambda = {doc['lambda']!r}, expected {lam}")
    if _rel(mass, doc["mass"]) > 1e-9:
        out.append(f"solve: ∫v^2 = {mass!r} but reported mass {doc['mass']!r}")
    if rho is not None and _rel(mass, rho) > 1e-4:
        out.append(f"solve: ∫v^2 = {mass!r}, expected {rho}")
    if below_two_sigma0 and not mass < two_sigma0_1d(5.0):
        out.append("solve: critical mass is not below 2 sigma0")
    if np.min(v[1:-1]) < -1e-12 * np.max(v):
        out.append("solve: v is negative inside the domain")
    return out


def cli_trace_problems(header, data) -> list[str]:
    """Dirichlet p = 5 branch: masses below 2 sigma0, rising toward it as
    eps falls, each solve converged."""
    eps = column(header, data, "epsilon")
    deficit = two_sigma0_1d(5.0) - column(header, data, "mass")
    out = []
    if not (np.all(deficit > 0) and np.all(np.diff(deficit) < 0)
            and np.all(np.diff(eps) < 0)):
        out.append("trace: Dirichlet masses do not rise toward 2 sigma0 from below")
    if np.max(column(header, data, "residual_inf")) > 1e-9:
        out.append("trace: a branch point did not converge")
    return out


def cli_verify_problems(doc: dict) -> list[str]:
    if doc.get("passed") is not True:
        return [f"verify {doc.get('theorem_id')}: passed = {doc.get('passed')!r}"]
    return []


def cli_mfg_problems(doc: dict, header, data, lam: float) -> list[str]:
    out = []
    x = column(header, data, "x")
    m = column(header, data, "m")
    total = simpson(m, uniform_step(x))
    if abs(total - 1.0) > 1e-10:
        out.append(f"mfg: ∫m = {total!r}, expected 1")
    if np.min(m) <= 0.0:
        out.append("mfg: density is not positive")
    if _rel(doc["lambda"], lam) > 1e-12:
        out.append(f"mfg: lambda = {doc['lambda']!r}, expected {lam}")
    return out
