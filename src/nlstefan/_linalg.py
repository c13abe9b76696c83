"""Thread-invariant dense SPD solve: LAPACK Cholesky on one OpenBLAS thread.

Trajectories must be bit-identical whatever the BLAS thread count, but the
blocked ``dpotrf`` reduces in an order that follows that count.  So each
solve sets the OpenBLAS of ``scipy.linalg.lapack`` (numpy may load another
copy) to one thread and restores the count it found.  This guarantees
bit-identity across thread counts for OpenBLAS builds of scipy, which the
scipy wheels are; another BLAS gets no pin.  The count is process-wide, so
the pinned section holds a lock, at no cost: f2py's LAPACK wrappers hold
the GIL, and two threads each running ten ``dpotrf`` calls at n = 800 took
0.098 s, one thread running all twenty 0.096 s.
"""

from __future__ import annotations

import ctypes
import threading
from functools import lru_cache

import numpy as np
from scipy.linalg import _flapack
from scipy.linalg.lapack import dpotrf, dpotrs

_PIN_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _blas_threads():
    """(get, set) of the thread count of scipy's OpenBLAS; no-ops without it."""
    lib = ctypes.CDLL(_flapack.__file__)
    for name in ("scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_",
                 "openblas_{}_num_threads", "openblas_{}_num_threads64_"):
        get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return (lambda: 1), (lambda count: None)


def solve_spd(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs for symmetric positive definite a, given by its upper
    triangle; writes into neither argument.

    Raises np.linalg.LinAlgError when the factorization breaks down.
    """
    get, put = _blas_threads()
    with _PIN_LOCK:
        saved = get()
        put(1)
        try:
            # dpotrf copies a.T, Fortran-ordered for C-ordered a, as it stands
            low, info = dpotrf(np.asarray(a, dtype=float).T, lower=1, clean=0)
            if info != 0:
                raise np.linalg.LinAlgError(f"matrix is not positive definite (dpotrf info {info})")
            # dpotrs reports only illegal arguments, which cannot occur here
            return dpotrs(low, rhs, lower=1)[0]
        finally:
            put(saved)
