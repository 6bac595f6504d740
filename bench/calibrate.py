"""The host's speed during a run, from a fixed computation run between operations.

The benchmark's host is shared, and its speed changes by 10-30 % for minutes
at a time: a whole run is fast or slow, and every operation with it. A run
cannot outlast those spells, so ``Reference`` also times a fixed computation,
independent of normwave, between the operations (once every ``INTERVAL_S``
at most, about 2 % of the run). run.py scales the operation times of the run
by ``REFERENCE_S`` over the median of those samples: a change to normwave
moves the scaled times in full, a slow spell of the host mostly cancels.

The computation is the kind of work normwave's solvers do: two banded
tridiagonal solves on 40 000 points (``bvp``) and a sparse LU factorisation
and solve of 4 000 unknowns (``radial``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu

# Median time of one ``kernel()`` between operations on the machine of the
# reference figures in README.md (2-vCPU Intel Xeon VM at 2.1 GHz, Python
# 3.11, numpy 2.4, scipy 1.17). It only sets the unit: scaled times are
# seconds on that machine at that speed.
REFERENCE_S = 0.0046
INTERVAL_S = 0.5

_N = 40_000
_RHS = np.linspace(0.0, 1.0, _N)
_BANDS = np.vstack([np.full(_N, -1.0), np.full(_N, 2.5), np.full(_N, -1.0)])
_LAP = sparse.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(4_000, 4_000),
                    format="csc")


def prelude() -> None:
    """Untimed work before each sample, so that the sample does not depend
    on what the operation before it left in the caches."""
    table: dict[int, list[float]] = {}
    for i in range(20_000):
        table.setdefault(i % 97, []).append(i * 0.5)
    y = _RHS
    for _ in range(14):
        y = np.sqrt(y * y + 1.0) - 0.5 * y


def kernel() -> float:
    """One fixed computation; returns a value so that none of it is skipped."""
    z = solve_banded((1, 1), _BANDS, _RHS)
    z = solve_banded((1, 1), _BANDS, z)
    return float(splu(_LAP).solve(z[:4_000])[0])


class Reference:
    """Kernel times sampled between operations."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Time the kernel if ``interval`` has passed since the last time."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def sample(self) -> None:
        """Time the kernel after the same untimed prelude every time."""
        prelude()
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def speed_factor(self) -> float:
        """REFERENCE_S over the median sample: below 1 in a slow spell."""
        if not self.samples:  # a run shorter than one interval
            self.sample()
        return REFERENCE_S / statistics.median(self.samples)
