"""Packed Cholesky solve: accuracy, breakdown, thread-count invariance."""

import os
import subprocess
import sys

import numpy as np
import pytest

from nlstefan._linalg import solve_spd

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# builds the system with elementwise numpy only (a matrix product would
# itself go through threaded BLAS) and prints the solution bytes
THREAD_PROBE = """
import sys
import numpy as np
from nlstefan._linalg import solve_spd
rng = np.random.default_rng(7)
m = rng.standard_normal((300, 300))
sym = m + m.T
a = sym + np.diag(np.sum(np.abs(sym), axis=1))
sys.stdout.write(solve_spd(a, rng.standard_normal(300)).tobytes().hex())
"""


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T / n + np.eye(n), rng.standard_normal(n)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 255, 361])
def test_solve_spd_matches_dense_solve(n):
    a, rhs = random_spd(n, seed=n)
    x = solve_spd(a, rhs)
    ref = np.linalg.solve(a, rhs)
    assert x.shape == (n,)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_solve_spd_rejects_an_indefinite_matrix():
    a = np.diag([2.0, 1.0, -0.5, 3.0])
    a[0, 1] = a[1, 0] = 0.3
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        solve_spd(a, np.ones(4))


def test_solve_spd_is_thread_count_invariant():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.update({var: threads for var in THREAD_VARS})
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert len(outputs[0]) == 2 * 8 * 300
    assert outputs[0] == outputs[1]
