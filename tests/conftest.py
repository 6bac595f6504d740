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
