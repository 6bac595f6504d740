import functools

import numpy as np
import pytest

from normwave import radial
from normwave.corrections import correction_profile, factorization_oracle_1d
from normwave.groundstate import ProblemParams, solve_ground_state

# Catalan constant, fixed test fixture (appears in the closed-form W(0))
CATALAN = 0.9159655941772190

# analytic masses of the explicit N=1 states
TWO_SIGMA0_P5 = np.sqrt(3.0) * np.pi / 2.0
TWO_SIGMA0_P3 = 4.0
# pins of the N = 2, p = 3 ground state at the default grid, relative 1e-10:
# sigma0 of the full 60-step Newton polish from a shot bisected to 1e-13,
# and frak_c, the plateau divided by the whole K_nu tail series, at the
# default R = 20 (R = 60 reads 3.518062198024267, 5.6e-12 above; the pin of
# the two-term divisor, 3.518054298900576, lay 2.2e-6 below both)
SIGMA0_DIM2_P3 = 5.850448262226631
FRAK_C_DIM2_P3 = 3.5180621980047233


# the benchmark's radial_ground_states pairs (N, p)
WORKLOAD_PAIRS = [(2, 2.0), (2, 3.0), (2, 4.0), (3, 2.0), (3, 2.5), (4, 1.8),
                  (4, 2.0)]


@functools.lru_cache(maxsize=None)
def workload_state(dim, p):
    """The default ground state of (dim, p) and its correction profile,
    solved once per test run."""
    gs = solve_ground_state(ProblemParams(dim, p))
    return gs, correction_profile(gs)


def band_matrix(ab):
    """The sparse matrix held in radial_operator's band storage."""
    from scipy.sparse import dia_matrix
    n = ab.shape[1]
    offsets = radial.KU - np.arange(ab.shape[0])  # column minus row
    return dia_matrix((ab, offsets), shape=(n, n)).tocsc()


@pytest.fixture(scope="session")
def gs5():
    return solve_ground_state(ProblemParams(1, 5.0))


@pytest.fixture(scope="session")
def gs3():
    return solve_ground_state(ProblemParams(1, 3.0))


@pytest.fixture(scope="session")
def gs2d():
    return solve_ground_state(ProblemParams(2, 3.0))


@pytest.fixture(scope="session")
def corr5(gs5):
    return correction_profile(gs5)


@pytest.fixture(scope="session")
def oracle5(gs5):
    return factorization_oracle_1d(gs5)
