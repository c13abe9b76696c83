"""Thread-invariant dense SPD solve on LAPACK's packed Cholesky.

Trajectory files must be bit-identical whatever the BLAS thread count.
Dense ``dpotrf`` (``scipy.linalg.cho_factor``) is blocked: its panel
updates go through threaded level-3 BLAS, whose reduction order follows
the thread count, so factor bits (and the fields of a long melt1d solve)
differ between ``OPENBLAS_NUM_THREADS=1`` and ``=2``.  The packed lower
factorization ``dpptrf`` works column by column with ``dscal`` and the
rank-1 update ``dspr``, both elementwise with no reductions, and
``dpptrs`` solves with the triangular ``dtpsv``; neither depends on the
thread count.  This module hides the packed storage from the solver.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpptrf, dpptrs


@lru_cache(maxsize=8)
def _upper_triangle(n: int):
    """Row-major upper triangle indices of an n x n matrix (read-only)."""
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def solve_spd(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a x = rhs for symmetric positive definite a.

    Raises np.linalg.LinAlgError when the factorization breaks down.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    # row-major upper triangle == column-major packed lower triangle
    low, info = dpptrf(n, a[_upper_triangle(n)], lower=1, overwrite_ap=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"matrix is not positive definite (dpptrf info {info})")
    # dpptrs reports only illegal arguments, which cannot occur here
    return dpptrs(n, low, np.asarray(rhs, dtype=float), lower=1)[0]
