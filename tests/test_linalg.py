"""Pinned dense Cholesky solve: scipy's LAPACK without scipy's modules,
accuracy, breakdown, untouched inputs, the OpenBLAS thread pin, and
thread-count invariance."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from nlstefan._linalg import _LAPACK, _PIN_LOCK, solve_spd

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


def test_the_loaded_library_is_scipys_lapack_extension():
    from scipy.linalg import _flapack

    assert os.path.samefile(_LAPACK.path, _flapack.__file__)


@pytest.mark.parametrize("n", [1, 2, 65, 257, 441])
def test_solve_spd_matches_scipys_lapack_bit_for_bit(n):
    # scipy's own wrappers are the oracle, run on the one thread solve_spd
    # pins; solve_spd reads only the upper triangle, so NaN below it is inert
    from scipy.linalg.lapack import dpotrf, dpotrs

    a, rhs = random_spd(n, seed=n)
    with _PIN_LOCK:
        saved = _LAPACK.get_threads()
        _LAPACK.set_threads(1)
        try:
            low, info = dpotrf(a.T, lower=1, clean=0)
            want = dpotrs(low, rhs, lower=1)[0]
        finally:
            _LAPACK.set_threads(saved)
    assert info == 0
    assert solve_spd(a, rhs).tobytes() == want.tobytes()
    upper = np.triu(a) + np.tril(np.full_like(a, np.nan), -1)
    assert solve_spd(upper, rhs).tobytes() == want.tobytes()


def test_package_import_and_a_solve_leave_scipy_out():
    probe = ("import sys, nlstefan, nlstefan.cli\n"
             "from nlstefan import SolverConfig, load_preset, solve\n"
             "pre = load_preset('melt1d', n_nodes=33, horizon=0.01)\n"
             "traj = solve(pre.problem, SolverConfig(dt=0.005))\n"
             "print(sum(d.newton_iterations for d in traj.diagnostics))\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    iterations, modules = proc.stdout.split("\n")[:2]
    assert int(iterations) > 0 and modules == "[]"


def test_solve_spd_rejects_mismatched_shapes():
    a, rhs = random_spd(4, seed=0)
    for bad_a, bad_rhs in ((a[:3], rhs), (a, rhs[:3]), (a, np.ones((4, 1))), (a[0], rhs[0])):
        with pytest.raises(ValueError, match="do not match"):
            solve_spd(bad_a, bad_rhs)


def test_solve_spd_rejects_an_indefinite_matrix():
    a = np.diag([2.0, 1.0, -0.5, 3.0])
    a[0, 1] = a[1, 0] = 0.3
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        solve_spd(a, np.ones(4))


@pytest.mark.parametrize("n, order", [(1, "C"), (65, "C"), (65, "F")])
def test_solve_spd_leaves_its_inputs_unchanged(n, order):
    a, rhs = random_spd(n, seed=n)
    a = np.array(a, order=order)
    a_before, rhs_before = a.copy(), rhs.copy()
    solve_spd(a, rhs)
    assert np.array_equal(a, a_before) and np.array_equal(rhs, rhs_before)


@pytest.fixture
def scipy_blas_threads():
    get, put = _LAPACK.get_threads, _LAPACK.set_threads
    saved = get()
    yield get, put
    put(saved)


def test_thread_setter_resolves(scipy_blas_threads):
    # the fallback pair ignores the setter, so a count that reads back
    # shows that the pin reaches scipy's OpenBLAS
    get, put = scipy_blas_threads
    for count in (2, 1):
        put(count)
        assert get() == count


def test_solve_spd_restores_the_thread_count(scipy_blas_threads):
    get, put = scipy_blas_threads
    put(2)
    a, rhs = random_spd(65, seed=3)
    solve_spd(a, rhs)
    assert get() == 2
    with pytest.raises(np.linalg.LinAlgError):
        solve_spd(-a, rhs)
    assert get() == 2


def test_concurrent_solves_keep_the_thread_count_and_the_bits(scipy_blas_threads):
    # more workers than cores and a short switch interval; without the
    # lock one worker saves another's pinned count and restores 1
    get, put = scipy_blas_threads
    put(2)
    a, rhs = random_spd(32, seed=5)
    expected = solve_spd(a, rhs).tobytes()
    mismatches = []

    def work():
        for _ in range(1000):
            if solve_spd(a, rhs).tobytes() != expected:
                mismatches.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(2 * os.cpu_count())]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert mismatches == [] and get() == 2


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
