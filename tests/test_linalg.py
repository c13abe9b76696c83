"""Matrix-free Newton solve: agreement with a dense solve on random and
captured Newton systems, untouched inputs, breakdown, thread-count
invariance, concurrent solves, typed failures, and a runtime without
scipy."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from nlstefan import _linalg, load_preset, solver
from nlstefan.config import parse_run_config, realize
from nlstefan.errors import NewtonDivergenceError
from nlstefan.solver import SolverConfig, solve

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a 129-node melt with a backtracking first step; prints the linear
# iteration total and the bytes of every stored level
THREAD_PROBE = """
import sys
import numpy as np
from nlstefan import load_preset, solve
pre = load_preset('melt1d', n_nodes=129, horizon=0.02, n_steps=8, eps=0.025)
traj = solve(pre.problem, pre.solver)
print(sum(d.linear_iterations for d in traj.diagnostics))
sys.stdout.write(np.asarray(traj.states).tobytes().hex())
"""

MELT2D_21 = {
    "problem": {
        "s": 0.5, "p": 3.0, "eps": 0.05, "horizon": 0.02,
        "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "nodes": [21, 21], "r_infinity": 3.0},
        "unknown": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
        "datum": {"type": "constant", "value": 1.0},
        "initial": {"type": "constant", "value": -1.0},
    },
    "solver": {"dt": 0.01},
}


def benchmark_problem(name):
    if name == "melt1d":
        pre = load_preset("melt1d", n_nodes=257, horizon=0.02, n_steps=16)
        return pre.problem, pre.solver
    return realize(parse_run_config(MELT2D_21))[1:]


def tiny_melt():
    pre = load_preset("melt1d", n_nodes=33, horizon=0.025, eps=0.2, n_steps=1)
    return pre.problem, SolverConfig(dt=0.025)


def dense(diagonal, coupling, conductance, mask):
    a = -coupling * conductance[np.ix_(mask, mask)]
    a[np.diag_indices_from(a)] = diagonal
    return a


def random_newton_system(n, seed, order="C"):
    """(diagonal, coupling, conductance, mask, rhs) of a Newton system on n
    unknowns of an (n + 3)-node box: a symmetric conductance >= 0 of row
    sums below 1, and a diagonal past 1 + coupling times those row sums,
    so A is SPD and well conditioned, as a step's Newton matrix is."""
    rng = np.random.default_rng(seed)
    m = n + 3
    k = rng.random((m, m)) / m
    k = np.array((k + k.T) / 2, order=order)
    k[np.diag_indices_from(k)] = 0.0
    mask = np.zeros(m, dtype=bool)
    mask[rng.choice(m, n, replace=False)] = True
    coupling = 0.5
    diagonal = 1.0 + rng.random(n) + coupling * k[mask].sum(axis=1)
    return diagonal, coupling, k, mask, rng.standard_normal(n)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 255, 361])
def test_solve_spd_matches_dense_solve(n):
    system = random_newton_system(n, seed=n)
    x, iterations = _linalg.newton_cg(*system, 1e-13)
    ref = np.linalg.solve(dense(*system[:4]), system[4])
    assert x.shape == (n,) and 0 < iterations <= 40
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_solve_spd_rejects_an_indefinite_matrix():
    # A = diag(a) - K: one negative diagonal entry, then an indefinite A
    # whose diagonal is positive, seen only through the curvature
    conductance = np.zeros((4, 4))
    conductance[0, 1] = conductance[1, 0] = -0.3
    cases = [(np.array([2.0, 1.0, -0.5, 3.0]), conductance, np.ones(4, dtype=bool))]
    cases.append((np.ones(2), np.array([[0.0, 2.0], [2.0, 0.0]]), np.ones(2, dtype=bool)))
    for diagonal, k, mask in cases:
        with pytest.raises(np.linalg.LinAlgError, match="not finite and positive definite"):
            _linalg.newton_cg(diagonal, 1.0, k, mask, np.ones(mask.size), 1e-10)


@pytest.mark.parametrize("n, order", [(1, "C"), (65, "C"), (65, "F")])
def test_solve_spd_leaves_its_inputs_unchanged(n, order):
    # the conductance is the evaluation's buffer, read in place
    system = random_newton_system(n, seed=n, order=order)
    before = [np.copy(item) for item in system]
    x, _ = _linalg.newton_cg(*system, 1e-12)
    for item, saved in zip(system, before):
        assert np.array_equal(item, saved)
    assert system[2].flags[f"{order}_CONTIGUOUS"]
    assert np.max(np.abs(x - np.linalg.solve(dense(*system[:4]), system[4]))) < 1e-10


@pytest.mark.parametrize("name", ["melt1d", "melt2d"])
def test_newton_cg_matches_a_dense_solve_on_newton_systems(monkeypatch, name):
    # every Newton system of the benchmark-size solve, made dense before
    # the next evaluation overwrites the conductance buffer
    systems = []

    def capturing(*args):
        x, iterations = _linalg.newton_cg(*args)
        systems.append((dense(*args[:4]),) + args[4:] + (x,))
        return x, iterations

    monkeypatch.setattr(solver, "newton_cg", capturing)
    solve(*benchmark_problem(name))
    assert len(systems) > 10
    for a, rhs, rtol, x in systems:
        want = np.linalg.solve(a, rhs)
        # the recursive residual CG stops on equals the true one up to rounding
        slack = 1e-12 * np.linalg.norm(rhs)
        assert np.linalg.norm(a @ x - rhs) <= rtol * np.linalg.norm(rhs) + slack
        assert (np.linalg.norm(x - want)
                <= np.linalg.cond(a) * rtol * np.linalg.norm(want) + slack)


def test_solve_spd_is_thread_count_invariant():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.update({var: threads for var in THREAD_VARS})
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    iterations, states = outputs[0].split("\n")
    assert int(iterations) > 0 and len(states) == 2 * 8 * 129 * 9
    assert outputs[0] == outputs[1]


def test_concurrent_solves_keep_the_thread_count_and_the_bits():
    # more workers than cores and a short switch interval: the CG holds no
    # shared state and sets no thread count, so every worker gets the
    # serial bits and iteration count, and every worker returns
    system = random_newton_system(32, seed=5)
    x, iterations = _linalg.newton_cg(*system, 1e-12)
    expected = (x.tobytes(), iterations)
    mismatches = []

    def work():
        for _ in range(300):
            x, iterations = _linalg.newton_cg(*system, 1e-12)
            if (x.tobytes(), iterations) != expected:
                mismatches.append(1)

    threads_before = threading.active_count()
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
    assert mismatches == [] and threading.active_count() == threads_before


def _negated_diagonal(diagonal, coupling, conductance):
    return -diagonal, coupling, conductance


def _strong_coupling(diagonal, coupling, conductance):
    # the diagonal stays positive, so only the curvature shows A is indefinite
    return diagonal, 1e6 * coupling, conductance


def _nan_diagonal(diagonal, coupling, conductance):
    diagonal = diagonal.copy()
    diagonal[len(diagonal) // 2] = np.nan
    return diagonal, coupling, conductance


def _inf_conductance(diagonal, coupling, conductance):
    return diagonal, coupling, np.full_like(conductance, np.inf)


@pytest.mark.parametrize("damage, curvature", [
    (_negated_diagonal, "-"), (_strong_coupling, "-"), (_nan_diagonal, "nan"),
    (_inf_conductance, "nan"),
], ids=["negative-diagonal", "indefinite", "nan-diagonal", "inf-conductance"])
def test_a_failed_linear_solve_is_a_newton_divergence(monkeypatch, damage, curvature):
    monkeypatch.setattr(solver, "newton_cg", lambda *args: _linalg.newton_cg(
        *damage(*args[:3]), *args[3:]))
    problem, config = tiny_melt()
    with pytest.raises(NewtonDivergenceError, match=(
            f"linear solve failed.*curvature p\\^T A p = {curvature}.*not finite and "
            "positive definite")) as exc:
        solve(problem, config)
    assert exc.value.residuals and exc.value.residuals[0] > 0.0
    assert exc.value.last_iterate.shape == (problem.grid.n_nodes,)


def test_a_linear_solve_past_the_iteration_bound_is_a_newton_divergence(monkeypatch):
    monkeypatch.setattr(_linalg, "MAX_ITERATIONS", 1)
    with pytest.raises(NewtonDivergenceError, match="linear solve failed.*CG reached 1 "):
        solve(*tiny_melt())


def test_package_import_and_a_solve_leave_scipy_out():
    # scipy is blocked, so any import of it, direct or through numpy, fails
    probe = ("import sys\n"
             "sys.modules['scipy'] = None\n"
             "import nlstefan, nlstefan.cli\n"
             "from nlstefan import SolverConfig, load_preset, solve\n"
             "pre = load_preset('melt1d', n_nodes=33, horizon=0.01)\n"
             "traj = solve(pre.problem, SolverConfig(dt=0.005))\n"
             "print(sum(d.linear_iterations for d in traj.diagnostics))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(proc.stdout) > 0
