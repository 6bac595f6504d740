"""LAPACK's dgtsv, dgbtrf and dgbtrs, from the OpenBLAS that numpy bundles.

The 1D Newton solver needs dgtsv, the radial band LU dgbtrf and dgbtrs.
numpy's wheels ship OpenBLAS with LAPACK inside, under the symbols
``scipy_<routine>_64_`` (64-bit integers by reference; dgbtrs also takes the
hidden ``size_t`` length of its character argument). Called there through
ctypes, a command-line run needs no scipy at all: importing
scipy.linalg.lapack costs about twice numpy's own import.

The wheel layout is not numpy API, and conda or distribution builds link
other libraries. Where the library or one of the three symbols is missing,
the routines come from scipy.linalg.lapack instead (the ``fallback`` extra);
with neither, the first call raises ImportError naming both. The choice is
made once, at the first call, from what ``_locate`` finds; ``backend()``
names it.

Each routine works in place on writable float64 arrays and returns LAPACK's
info, except that info < 0 (an illegal argument) raises ValueError. Pivots
are LAPACK's own, 1-based, on both paths.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from ctypes import addressof, c_char_p, c_double, c_int64, c_size_t, c_void_p

import numpy as np

__all__ = ["backend", "gtsv", "gbtrf", "gbtrs"]

_SYMBOLS = ("scipy_dgtsv_64_", "scipy_dgbtrf_64_", "scipy_dgbtrs_64_")
_FLOAT = np.dtype(np.float64)
_INT = np.dtype(np.int64)
_INTS = c_int64 * 6  # a call's integer arguments, in one fresh array
_ONE = {_FLOAT: c_double * 1, _INT: c_int64 * 1}  # from_buffer views


def _locate() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, in numpy.libs beside the numpy package as
    numpy's Linux wheels place it, if it exports all three routines."""
    folder = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(folder,
                                              "libscipy_openblas64_*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(lib, name) for name in _SYMBOLS):
            return lib
    return None


def _checked(info: int, routine: str) -> int:
    if info < 0:
        raise ValueError(f"{routine}: argument {-info} has an illegal value")
    return info


def _address(a: np.ndarray, dtype: np.dtype = _FLOAT) -> int:
    """The data address of a writable C-contiguous array of the given
    dtype; anything else raises, so LAPACK never reads a wrong type or
    strides. (ctypes' from_buffer checks the layout, at about half the
    cost of a.ctypes.data.)"""
    if a.dtype != dtype:
        raise TypeError(f"expected a {dtype} array, got {a.dtype}")
    return addressof(_ONE[dtype].from_buffer(a))


class _OpenBLAS:
    """The routines called in the library by ctypes, every pointer passed
    as an address. The caller's arrays, and the call's own integer array,
    stay referenced for the length of the call."""

    name = "openblas"

    def __init__(self, lib: ctypes.CDLL):
        def declare(symbol, argtypes):
            fn = getattr(lib, symbol)
            fn.argtypes = argtypes
            fn.restype = None
            return fn

        self._gtsv = declare("scipy_dgtsv_64_", [c_void_p] * 8)
        self._gbtrf = declare("scipy_dgbtrf_64_", [c_void_p] * 8)
        self._gbtrs = declare("scipy_dgbtrs_64_",
                              [c_char_p] + [c_void_p] * 10 + [c_size_t])

    def gtsv(self, ab, b):
        n = b.shape[0]
        if b.ndim != 1 or ab.shape != (3, n):
            raise ValueError("gtsv needs ab of shape (3, n) and b of shape (n,)")
        ints = _INTS(n, 1)  # N (also LDB), NRHS, INFO
        i = addressof(ints)
        a = _address(ab)  # rows: super-, main and sub-diagonal
        self._gtsv(i, i + 8, a + 16 * n, a + 8 * n, a + 8, _address(b), i,
                   i + 16)
        return b, _checked(ints[2], "dgtsv")

    def gbtrf(self, ab, kl, ku):
        ldab, n = ab.shape
        ipiv = np.empty(n, dtype=_INT)
        ints = _INTS(n, kl, ku, ldab)  # M = N, KL, KU, LDAB, INFO
        i = addressof(ints)
        self._gbtrf(i, i, i + 8, i + 16, _address(ab.T), i + 24,
                    _address(ipiv, _INT), i + 32)
        return ab, ipiv, _checked(ints[4], "dgbtrf")

    def gbtrs(self, lu, kl, ku, ipiv, b, trans):
        ldab, n = lu.shape
        if b.ndim not in (1, 2) or b.shape[0] != n or ipiv.shape != (n,):
            raise ValueError("gbtrs needs ipiv of shape (n,) and b of shape "
                             "(n,) or (n, nrhs)")
        # N (also LDB), KL, KU, NRHS, LDAB, INFO
        ints = _INTS(n, kl, ku, 1 if b.ndim == 1 else b.shape[1], ldab)
        i = addressof(ints)
        self._gbtrs(trans.encode(), i, i + 8, i + 16, i + 24, _address(lu.T),
                    i + 32, _address(ipiv, _INT), _address(b.T), i, i + 40,
                    1)
        return b, _checked(ints[5], "dgbtrs")


class _SciPy:
    """The same routines from scipy.linalg.lapack, whose wrappers take and
    return 0-based pivots."""

    name = "scipy"

    def __init__(self):
        from scipy.linalg import lapack
        self._lapack = lapack

    def gtsv(self, ab, b):
        *_, x, info = self._lapack.dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b,
                                         1, 1, 1, 1)
        return x, _checked(info, "dgtsv")

    def gbtrf(self, ab, kl, ku):
        lu, ipiv, info = self._lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
        return lu, ipiv.astype(_INT) + 1, _checked(info, "dgbtrf")

    def gbtrs(self, lu, kl, ku, ipiv, b, trans):
        x, info = self._lapack.dgbtrs(lu, kl, ku, b, ipiv - 1,
                                      trans={"N": 0, "T": 1}[trans],
                                      overwrite_b=1)
        return x, _checked(info, "dgbtrs")


@functools.cache
def _routines() -> _OpenBLAS | _SciPy:
    lib = _locate()
    if lib is not None:
        return _OpenBLAS(lib)
    try:
        return _SciPy()
    except ImportError:
        raise ImportError(
            "normwave found no LAPACK: neither numpy's bundled OpenBLAS "
            "(libscipy_openblas64_ with dgtsv, dgbtrf and dgbtrs, in "
            "numpy.libs beside numpy) nor scipy.linalg. Install numpy from "
            "a PyPI wheel (verified: numpy 2.4.6 on Linux), or scipy with "
            "pip install 'normwave[fallback]'") from None


def backend() -> str:
    """"openblas" (numpy's bundled library) or "scipy" (the fallback)."""
    return _routines().name


def gtsv(ab: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """dgtsv on the tridiagonal system held in (1, 1) banded storage, the
    C-contiguous (3, n) ab: ab[0, 1:] the super-, ab[1] the main and
    ab[2, :-1] the sub-diagonal. Returns (x, info); x is b's memory, and ab
    is overwritten. info = k > 0: the k-th pivot is exactly zero."""
    return _routines().gtsv(ab, b)


def gbtrf(ab: np.ndarray, kl: int, ku: int
          ) -> tuple[np.ndarray, np.ndarray, int]:
    """dgbtrf on the Fortran-ordered (2 kl + ku + 1, n) general band
    storage ab, factorised in place. Returns (lu, ipiv, info): lu is ab,
    ipiv 1-based int64, info = k > 0 when U[k, k] is exactly zero."""
    return _routines().gbtrf(ab, kl, ku)


def gbtrs(lu: np.ndarray, kl: int, ku: int, ipiv: np.ndarray, b: np.ndarray,
          trans: str = "N") -> tuple[np.ndarray, int]:
    """dgbtrs with gbtrf's factors: A^{-1} b, or A^{-T} b for trans="T",
    written over b, of shape (n,) or a Fortran-ordered (n, nrhs). Returns
    (x, info); x is b's memory."""
    return _routines().gbtrs(lu, kl, ku, ipiv, b, trans)
