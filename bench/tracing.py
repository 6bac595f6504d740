"""Spans and counts at normwave's layer boundaries, without touching src/.

``Tracer.install`` replaces each target function by a wrapper at the
attribute where callers look it up: every ``normwave.*`` module binding of a
normwave function (``bvp.solve_normalized`` is also bound in
``asymptotics`` and the package), and for a third-party function only the
one module named here (``radial.splu``, not scipy's own). Spans
(name, start, end, parent) and counts stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

# (module, attribute) of every wrapped function; a span is named
# "<module>.<attribute>" with a trailing ".__call__" dropped.
TARGETS = (
    ("radial", "radial_operator"),
    ("radial", "splu"),
    ("radial", "onenormest"),
    ("radial", "solve_radial_linear"),
    ("radial", "radial_newton"),
    ("groundstate", "solve_ivp"),
    ("groundstate", "solve_ground_state"),
    ("corrections", "correction_profile"),
    ("bvp", "solve_normalized"),
    ("bvp", "MassEvaluator.__call__"),
    ("bvp", "solve_fixed_epsilon"),
    ("bvp", "solve_banded"),
    ("bvp", "brentq"),
    ("cli", "main"),
    ("cli", "write_csv"),
    ("asymptotics", "verify_report"),
    ("boundary_layer", "theta_quadrature"),
    ("mfg", "to_mfg"),
)

# Counts beyond calls and times, each filled by a hook below.
EXTRA_COUNTS = (
    "radial.radial_newton.iterations",
    "bvp.MassEvaluator.misses",
    "bvp.solve_fixed_epsilon.nodes",
    "bvp.newton_iterations",
    "cli.write_csv.bytes",
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__call__')}"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for module, attr in TARGETS:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                (f"{name}.self_s", "s")]
    out += [(name, "count") for name in EXTRA_COUNTS]
    out += [("import.normwave.s", "s"), ("trace.overhead_s", "s"),
            ("trace.spans", "count")]
    return out


def _before_mass_evaluator(tracer, args, kwargs):
    evaluator, eps = args[0], args[1]
    if eps not in evaluator.cache:
        tracer.counts["bvp.MassEvaluator.misses"] += 1


def _after_solve_fixed_epsilon(tracer, result, args, kwargs):
    tracer.counts["bvp.solve_fixed_epsilon.nodes"] += len(result.nodes)
    tracer.counts["bvp.newton_iterations"] += result.newton_iterations


def _after_write_csv(tracer, result, args, kwargs):
    tracer.counts["cli.write_csv.bytes"] += os.path.getsize(args[0])


HOOKS = {
    "bvp.MassEvaluator": (_before_mass_evaluator, None),
    "bvp.solve_fixed_epsilon": (None, _after_solve_fixed_epsilon),
    "cli.write_csv": (None, _after_write_csv),
}


class Tracer:
    """In-memory spans and counts for the calls into each target."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def _wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            if before is not None:
                before(self, args, kwargs)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module, attr in TARGETS:
            mod = importlib.import_module(f"normwave.{module}")
            name = span_name(module, attr)
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(name, fn)
            if not getattr(fn, "__module__", "").startswith("normwave"):
                self._set(mod, attr, wrapper)
                continue
            for mod_name, other in list(sys.modules.items()):
                if mod_name != "normwave" and not mod_name.startswith("normwave."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is fn:
                        self._set(other, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        """calls, inclusive and self seconds per target, plus the counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        newton_steps = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i]
            if (name == "radial.splu" and parent >= 0
                    and self.spans[parent][0] == "radial.radial_newton"):
                newton_steps += 1
        counts = Counter(self.counts)
        counts["radial.radial_newton.iterations"] = newton_steps
        out = {}
        for module, attr in TARGETS:
            name = span_name(module, attr)
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in EXTRA_COUNTS:
            out[name] = counts[name]
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        """Write spans (start and end relative to the tracer's creation)."""
        o = self.origin
        doc = {"spans": [[n, s - o, e - o, p] for n, s, e, p in self.spans],
               "counts": dict(self.counts)}
        with open(path, "w") as f:
            json.dump(doc, f)
