"""Thread-invariant dense SPD solve: LAPACK Cholesky on one OpenBLAS thread.

The LAPACK is the one bundled with scipy.  Its ``linalg/_flapack``
extension is located with ``importlib`` and opened with ``ctypes`` when
this module is imported, without importing any scipy module
(``scipy.linalg`` would cost each process about 0.3 s and 25 MB), so a
missing library fails the import, not a solve.  ``dpotrf``/``dpotrs`` are
called on the same data as scipy's own wrappers call them, so the bits are
scipy's.

Trajectories must be bit-identical whatever the BLAS thread count, but the
blocked ``dpotrf`` reduces in an order that follows that count.  So each
solve sets that OpenBLAS (numpy may load another copy) to one thread and
restores the count it found.  This guarantees bit-identity across thread
counts for OpenBLAS builds of scipy, which the scipy wheels are; another
BLAS gets no pin.  The count is process-wide, so the pinned section holds
a lock.  The library is opened with ``ctypes.CDLL``, so the GIL is
released during each call (scipy's f2py wrappers held it): other threads,
such as family members, run Python while one factorizes.  On the
two-thread eps family benchmark this took the median operation from
0.164 s (``ctypes.PyDLL``, which holds the GIL) to 0.146 s.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import threading
from typing import Callable, NamedTuple

import numpy as np

_INT = ctypes.c_int32  # scipy's _flapack is LP64
_INTP, _DATA = ctypes.POINTER(_INT), ctypes.c_void_p
# the trailing size_t is the hidden length of the Fortran character argument
_POTRF_ARGS = [ctypes.c_char_p, _INTP, _DATA, _INTP, _INTP, ctypes.c_size_t]
_POTRS_ARGS = [ctypes.c_char_p, _INTP, _INTP, _DATA, _INTP, _DATA, _INTP, _INTP, ctypes.c_size_t]


class _Lapack(NamedTuple):
    path: str
    potrf: Callable
    potrs: Callable
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _flapack_path() -> str:
    """scipy's linalg/_flapack extension, located without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("nlstefan needs scipy's LAPACK, but scipy is not installed")
    stem = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            return stem + suffix
    raise ImportError(f"scipy's LAPACK extension {stem}* not found")


def _symbol(lib, names, argtypes, restype):
    """The first of names that lib exports, typed; None if it has none."""
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            return fn
    return None


def _load() -> _Lapack:
    path = _flapack_path()
    lib = ctypes.CDLL(path)
    potrf = _symbol(lib, ("scipy_dpotrf_", "dpotrf_"), _POTRF_ARGS, None)
    potrs = _symbol(lib, ("scipy_dpotrs_", "dpotrs_"), _POTRS_ARGS, None)
    if potrf is None or potrs is None:
        raise ImportError(f"{path} exports no dpotrf/dpotrs")
    for name in ("scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_",
                 "openblas_{}_num_threads", "openblas_{}_num_threads64_"):
        get = _symbol(lib, (name.format("get"),), [], ctypes.c_int)
        put = _symbol(lib, (name.format("set"),), [ctypes.c_int], None)
        if get is not None and put is not None:
            return _Lapack(path, potrf, potrs, get, put)
    return _Lapack(path, potrf, potrs, lambda: 1, lambda count: None)


_LAPACK = _load()
_PIN_LOCK = threading.Lock()


def solve_spd(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs for symmetric positive definite a, given by its upper
    triangle; writes into neither argument.

    Raises np.linalg.LinAlgError when the factorization breaks down.
    """
    # a C-ordered copy of a is a.T to Fortran, so the lower factor reads
    # a's upper triangle
    factor = np.array(a, dtype=float, order="C")
    x = np.array(rhs, dtype=float)
    n = x.shape[0] if x.ndim == 1 else -1
    if factor.shape != (n, n):
        raise ValueError(f"solve_spd: shapes {factor.shape} and {x.shape} do not match")
    dim, lead, one, info = _INT(n), _INT(max(n, 1)), _INT(1), _INT(0)
    data = factor.ctypes.data
    with _PIN_LOCK:
        saved = _LAPACK.get_threads()
        _LAPACK.set_threads(1)
        try:
            _LAPACK.potrf(b"L", dim, data, lead, info, 1)
            if info.value != 0:
                raise np.linalg.LinAlgError(
                    f"matrix is not positive definite (dpotrf info {info.value})")
            # dpotrs reports only illegal arguments, which cannot occur here
            _LAPACK.potrs(b"L", dim, one, data, lead, x.ctypes.data, lead, info, 1)
        finally:
            _LAPACK.set_threads(saved)
    return x
