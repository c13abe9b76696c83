import numpy as np
import pytest

from nlstefan import load_preset
from nlstefan.solver import SolverConfig, solve


@pytest.fixture(scope="session")
def melt_run():
    """Full melting benchmark (257 nodes, 400 steps), solved once.

    Returns (preset, trajectory, wall_seconds); shared by the solver
    contract and oscillation-decay acceptance checks.
    """
    import time

    preset = load_preset("melt1d")
    t0 = time.time()
    traj = solve(preset.problem, preset.solver)
    return preset, traj, time.time() - t0


@pytest.fixture(scope="session")
def small_melt_traj():
    """Coarse, short melting run for cheap module-level checks."""
    preset = load_preset("melt1d", n_nodes=65, horizon=0.1, eps=0.2, n_steps=20)
    return preset, solve(preset.problem, preset.solver)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
