import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import simpson as scipy_simpson
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq as scipy_brentq

from normwave._numerics import (CubicHermite, brentq, cumulative_simpson,
                                median, simpson)


def _grids(rng):
    for n in (3, 4, 5, 6, 7, 100, 101, 2000, 2001):
        yield np.linspace(-1.0, 3.0, n)
        yield np.sort(rng.uniform(-2.0, 5.0, n))
        yield np.concatenate([[0.0], np.cumsum(rng.exponential(0.1, n - 1))])


def test_simpson_exact_on_cubics():
    # the rule's error is a multiple of h^4 times the fourth derivative
    rng = np.random.default_rng(1)
    for panels in (2, 4, 10, 100, 2000):
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        c = rng.normal(size=4)
        exact = np.polyval(np.polyint(c), b) - np.polyval(np.polyint(c), a)
        x = np.linspace(a, b, panels + 1)
        assert simpson(np.polyval(c, x), (b - a) / panels) \
            == pytest.approx(exact, rel=1e-13, abs=1e-14)


def test_simpson_matches_scipy_on_uniform_grids():
    rng = np.random.default_rng(4)
    for panels in (2, 4, 6, 100, 2000, 24000):
        x = np.linspace(-1.0, 3.0, panels + 1)
        for y in (np.exp(-x ** 2) * np.cos(3 * x) + 1.0, 2.0 + np.sin(x),
                  rng.uniform(0.5, 1.5, panels + 1)):
            assert simpson(y, 4.0 / panels) \
                == pytest.approx(scipy_simpson(y, x=x), rel=1e-14)


@pytest.mark.parametrize("nodes", [0, 1, 2, 4, 2000])
def test_simpson_needs_an_even_panel_count(nodes):
    with pytest.raises(ValueError, match="even panel count"):
        simpson(np.ones(nodes), 0.1)


def _recording(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("xtol", [1e-12, 1e-10])
def test_brentq_bit_equal_to_scipy(xtol):
    rng = np.random.default_rng(2)
    funcs = [
        lambda r: (lambda x: math.tanh(4.0 * (x - r)) + 0.1 * (x - r) ** 3),
        lambda r: (lambda x: math.exp(x) - math.exp(r)),
        lambda r: (lambda x: (x - r) * (1.0 + (x - r) ** 2) * 1e-7),
        lambda r: (lambda x: np.float64(math.atan(x - r) - 1e-3 * (x - r) ** 2)),
    ]
    for _ in range(50):
        a = rng.uniform(-3.0, 0.0)
        b = a + rng.uniform(0.1, 4.0)
        r = rng.uniform(a, b)
        for make in funcs:
            ours, ours_calls = _recording(make(r))
            ref, ref_calls = _recording(make(r))
            root = brentq(ours, a, b, xtol=xtol, rtol=8.9e-16)
            assert root == scipy_brentq(ref, a, b, xtol=xtol, rtol=8.9e-16)
            assert ours_calls == ref_calls
            assert type(root) is float


@pytest.mark.parametrize("ftol", [1e-3, 1e-6, 1e-9])
def test_brentq_ftol_stops_at_first_point_within_it(ftol):
    # the same path as ftol = 0, cut at the first |f| <= ftol
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(-3.0, 0.0)
        b = a + rng.uniform(0.1, 4.0)
        r = rng.uniform(a, b)

        def f(x):
            return math.tanh(4.0 * (x - r)) + 0.1 * (x - r) ** 3

        full, full_calls = _recording(f)
        brentq(full, a, b, xtol=1e-12, rtol=8.9e-16)
        cut, cut_calls = _recording(f)
        root = brentq(cut, a, b, xtol=1e-12, rtol=8.9e-16, ftol=ftol)
        first = next(i for i, x in enumerate(full_calls) if abs(f(x)) <= ftol)
        assert cut_calls == full_calls[:first + 1]
        assert root == cut_calls[-1]


def test_brentq_root_at_an_end():
    assert brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0


@pytest.mark.parametrize("f, a, b, kw", [
    (lambda x: x * x + 1.0, 0.0, 1.0, {}),
    (lambda x: math.nan, 0.0, 1.0, {}),
    (lambda x: x - 0.3 if x < 0.5 else math.nan, 0.0, 1.0, {}),
    # NaN at the first secant point, inside the bracket
    (lambda x: x - 0.3 if abs(x - 0.3) > 0.05 else math.nan, 0.0, 1.0, {}),
    (lambda x: math.cos(x) - x, 0.0, 1.0, {"maxiter": 3}),
])
def test_brentq_errors_match_scipy(f, a, b, kw):
    with pytest.raises((ValueError, RuntimeError)) as ref:
        scipy_brentq(f, a, b, **kw)
    with pytest.raises(ref.type) as ours:
        brentq(f, a, b, **kw)
    assert str(ours.value) == str(ref.value)


def test_hermite_bit_equal_to_scipy():
    rng = np.random.default_rng(3)
    for n in (2, 3, 10, 500):
        x = np.sort(rng.uniform(0.0, 10.0, n))
        y, dydx = rng.normal(size=n), rng.normal(size=n)
        ours = CubicHermite(x, y, dydx)
        ref = CubicHermiteSpline(x, y, dydx)
        # nodes, points between them and points beyond both ends
        xp = np.concatenate([x, rng.uniform(-3.0, 13.0, 1000), [-1e3, 1e3]])
        assert np.array_equal(ours(xp), ref(xp))
        for v in xp[::97]:
            assert float(ours(v)) == float(ref(v))


def test_cumulative_simpson_bit_equal_to_scipy():
    rng = np.random.default_rng(6)
    count = 0
    for x in _grids(rng):
        for y in (np.exp(-x ** 2) * np.cos(3 * x), rng.normal(size=len(x))):
            assert np.array_equal(cumulative_simpson(y, x=x),
                                  scipy_cumulative_simpson(y, x=x))
            count += 1
    assert count == 54


@pytest.mark.parametrize("y, x", [([1.0, 2.0], [0.0, 1.0]),
                                  ([1.0, 2.0, 3.0], [0.0, 1.0, 1.0])])
def test_cumulative_simpson_refuses_short_or_unordered_nodes(y, x):
    with pytest.raises(ValueError):
        cumulative_simpson(y, x=x)


def test_startup_leaves_out_heavy_scipy(tmp_path):
    # importing scipy's LAPACK wrappers costs about twice numpy's own import,
    # scipy.integrate, .optimize, .interpolate and .special more. No command
    # needs any of them: the 1D solver and the radial band LU call LAPACK in
    # numpy's OpenBLAS, and quadratures, root-finds, interpolants and the
    # N >= 2 shots are in-house. The commands share one interpreter, so a
    # row reads False only if no command up to it loaded scipy
    code = (
        "import sys\n"
        "import normwave.cli\n"
        "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.interpolate',"
        " 'scipy.special', 'scipy.sparse')\n"
        "def loaded():\n"
        "    return 'scipy' in sys.modules, sorted(m for m in heavy"
        " if m in sys.modules)\n"
        "print(*loaded())\n"
        "for line in ('ground-state --n 1 --p 5',"
        " 'boundary-layer --sweep 0.3,0.2,0.15',"
        " 'solve --n 1 --p 5 --bc dirichlet --epsilon 0.3',"
        " 'trace --n 1 --p 5 --domain interval --bc dirichlet"
        " --eps-list 0.3,0.25,0.2,0.15',"
        " 'mfg --n 1 --p 5 --domain interval --bc neumann --epsilon 0.4',"
        " 'verify --theorem interior_critical_mass',"
        " 'verify --theorem interior_scaling',"
        " 'correction --n 1 --p 5',"
        " 'correction --n 1 --p 5 --oracle',"
        " 'verify --theorem potential_critical_mass',"
        " 'ground-state --n 2 --p 3',"
        " 'correction --n 2 --p 3'):\n"
        "    rc = normwave.cli.main(line.split() + ['--out-dir', sys.argv[1]])\n"
        "    print(rc, *loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False []"] + ["0 False []"] * 12


def _same_bits(a: float, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=40),
       st.integers(0, 3))
def test_median_is_numpys_bit_for_bit(values, repeats):
    # odd and even counts, and repeated values, which the partition must
    # not reorder into a different pair; -0.0 reads 0.0 in both
    values = values + values[:repeats]
    with np.errstate(over="ignore"):  # the middle two may sum past 1e308
        assert _same_bits(median(values), np.median(values))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=20))
def test_median_is_nan_where_numpys_is(values):
    # any NaN makes both NaN; infinities of both signs give NaN or inf
    with np.errstate(invalid="ignore", over="ignore"):
        expect = np.median(values)
        got = median(values)
    if math.isnan(expect):
        assert math.isnan(got)
    else:
        assert _same_bits(got, expect)
