import sys

import numpy as np
import pytest

from normwave import _lapack, bvp, radial
from normwave.bvp import DomainSpec, solve_fixed_epsilon
from normwave.errors import SingularOperator
from normwave.groundstate import ProblemParams, solve_ground_state


@pytest.fixture
def scipy_path(monkeypatch):
    """The routines as they run where numpy bundles no usable OpenBLAS."""
    monkeypatch.setattr(_lapack, "_locate", lambda: None)
    _lapack._routines.cache_clear()
    yield
    _lapack._routines.cache_clear()


@pytest.fixture(params=["openblas", "scipy"])
def each_path(request):
    if request.param == "scipy":
        request.getfixturevalue("scipy_path")
    elif _lapack._locate() is None:
        pytest.skip("numpy bundles no OpenBLAS with LAPACK here")
    assert _lapack.backend() == request.param
    return request.param


@pytest.fixture(scope="module")
def both():
    lib = _lapack._locate()
    if lib is None:
        pytest.skip("numpy bundles no OpenBLAS with LAPACK here")
    return _lapack._OpenBLAS(lib), _lapack._SciPy()


@pytest.fixture(scope="module")
def jacobian33():
    """The radial Newton Jacobian of the (3, 3) ground state, h = 1/600."""
    gs = solve_ground_state(ProblemParams(3, 3.0))
    r = gs.profile.nodes
    jac = radial.radial_operator(r, np.ones_like(r), 3).copy()
    shift = 3.0 * np.abs(gs.profile.values) ** 2.0
    shift[-1] = 0.0  # the Robin row carries no potential
    jac[radial.KU] -= shift
    return jac


def _band_work(ab):
    work = np.zeros((2 * radial.KL + radial.KU + 1, ab.shape[1]), order="F")
    work[radial.KL:] = ab
    return work


def test_gtsv_bit_equal_on_both_paths(both):
    rng = np.random.default_rng(7)
    n = 6401
    ab = rng.normal(size=(3, n))
    ab[1] += 4.0
    b = rng.normal(size=n)
    (x, info), (ref, ref_info) = (path.gtsv(ab.copy(), b.copy())
                                  for path in both)
    assert info == ref_info == 0
    assert np.array_equal(x, ref)


def test_band_lu_bit_equal_on_both_paths(both, jacobian33):
    n = jacobian33.shape[1]
    (lu, ipiv, info), (ref_lu, ref_ipiv, ref_info) = (
        path.gbtrf(_band_work(jacobian33), radial.KL, radial.KU)
        for path in both)
    assert info == ref_info == 0
    assert np.array_equal(lu, ref_lu)
    assert np.array_equal(ipiv, ref_ipiv)
    b = np.random.default_rng(8).normal(size=n)
    for trans in "NT":
        x, _ = both[0].gbtrs(lu, radial.KL, radial.KU, ipiv, b.copy(), trans)
        ref, _ = both[1].gbtrs(ref_lu, radial.KL, radial.KU, ref_ipiv,
                               b.copy(), trans)
        assert np.array_equal(x, ref)


@pytest.mark.parametrize("nrhs", [2, 3])
def test_band_solve_of_a_block_is_columnwise(both, jacobian33, nrhs):
    # one dgbtrs call on an (n, nrhs) block solves each column as a single
    # solve does, bit for bit
    n = jacobian33.shape[1]
    block = np.asfortranarray(
        np.random.default_rng(10 + nrhs).normal(size=(n, nrhs)))
    for path in both:
        lu, ipiv, _ = path.gbtrf(_band_work(jacobian33), radial.KL, radial.KU)
        for trans in "NT":
            x, info = path.gbtrs(lu, radial.KL, radial.KU, ipiv,
                                 block.copy(order="F"), trans)
            assert info == 0 and x.shape == (n, nrhs)
            for k in range(nrhs):
                col, _ = path.gbtrs(lu, radial.KL, radial.KU, ipiv,
                                    block[:, k].copy(), trans)
                assert x[:, k].tobytes() == col.tobytes()


def test_splu_factorises_work_in_place(each_path):
    # the work array behind radial_operator's band is factorised where it
    # lies
    r = radial.uniform_grid(12.0, 0.1)
    ab = radial.radial_operator(r, np.ones_like(r), 3)
    assert ab.base.shape == (2 * radial.KL + radial.KU + 1, len(r))
    assert np.shares_memory(radial.splu(ab.base).lu, ab)


def test_band_lu_pivots_are_one_based(each_path, jacobian33):
    # row i (1-based) swaps with a row among i .. i + KL, and the solves
    # undo the factorisation on both paths, leaving b as it was
    lu = radial.splu(_band_work(jacobian33))
    n = jacobian33.shape[1]
    i = np.arange(1, n + 1)
    assert lu.ipiv.dtype == np.int64
    assert np.all((lu.ipiv >= i) & (lu.ipiv <= np.minimum(i + radial.KL, n)))
    assert np.any(lu.ipiv > i)
    x = np.random.default_rng(9).normal(size=n)
    b = radial.band_matvec(jacobian33, x)
    kept = b.copy()
    assert np.max(np.abs(lu.solve(b) - x)) < 1e-10
    assert np.array_equal(b, kept)


def test_solve_banded_refuses_non_finite(each_path):
    ab = np.ones((3, 5))
    ab[1, 2] = np.nan
    with pytest.raises(ValueError):
        bvp.solve_banded(ab, np.ones(5))


def test_solve_banded_singular(each_path):
    ab = np.zeros((3, 5))
    with pytest.raises(np.linalg.LinAlgError):
        bvp.solve_banded(ab, np.ones(5))


def test_splu_singular(each_path, jacobian33):
    ab = jacobian33.copy()
    ab[:, 100] = 0.0  # a zero column: U[100, 100] is exactly zero
    with pytest.raises(SingularOperator):
        radial.splu(_band_work(ab))


def test_illegal_argument_raises(each_path):
    # LDAB below 2 KL + KU + 1: LAPACK's info = -6
    with pytest.raises(ValueError, match="illegal value"):
        _lapack.gbtrf(np.zeros((3, 10), order="F"), radial.KL, radial.KU)


def test_fallback_gives_the_same_numbers(monkeypatch):
    # the same fixed-eps solve and N = 2 ground state, bit for bit, with
    # the locator failing
    spec = DomainSpec("interval", -1.0, 1.0, "dirichlet")
    params = ProblemParams(1, 5.0)

    def run():
        sol = solve_fixed_epsilon(spec, params, 0.2)
        gs = solve_ground_state(ProblemParams(2, 3.0))
        return sol.u_values, sol.mass, gs.profile.values, gs.sigma0, gs.frak_c

    _lapack._routines.cache_clear()
    first = run()
    with monkeypatch.context() as m:
        m.setattr(_lapack, "_locate", lambda: None)
        _lapack._routines.cache_clear()
        fallback = run()
        assert _lapack.backend() == "scipy"
    _lapack._routines.cache_clear()
    for a, b in zip(first, fallback):
        assert np.array_equal(a, b)


def test_no_lapack_raises_one_error_naming_both(monkeypatch):
    # without numpy's library and without scipy, the first call says where
    # either comes from, not just that scipy is missing
    monkeypatch.setattr(_lapack, "_locate", lambda: None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    _lapack._routines.cache_clear()
    try:
        with pytest.raises(ImportError, match=r"(?s)libscipy_openblas64_.*"
                           r"numpy\.libs.*normwave\[fallback\]") as info:
            _lapack.backend()
        assert info.value.__cause__ is None
        assert info.value.__suppress_context__
    finally:
        _lapack._routines.cache_clear()
