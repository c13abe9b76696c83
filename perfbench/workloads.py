"""Benchmark workloads: seeded inputs, the timed user operation, and the
untimed output checks.

Each workload keeps the spatial size, regularization and time step of the
canonical problem it stands for, so the Newton work per step and the
split across layers are the ones a user sees, but marches a shorter
horizon so that one operation takes one to three seconds and a
30-second run holds about ten of them or more.  The shortened melt1d
and eps-family runs keep the canonical backtracks: 4 on melt1d, and
0, 0, 1, 10 across the eps family, all taken in the first steps.

Seed 0 gives the canonical inputs for every operation.  Any other seed
adds, per operation, a smooth bump of amplitude at most 0.1 to the
initial value on the unknown set; the datum is unchanged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

import nlstefan as N
from nlstefan import fileio

ENERGY_SLACK = 1e-12          # relative rounding allowance for energy decay
BUMP_AMPLITUDE = (0.05, 0.1)

# Sizes per scale.  "full" is what the benchmark measures; "tiny" only
# serves the self-test.  The full melt1d and eps-family horizons keep the
# canonical time steps 0.5/400 and 0.5/200.
SIZES = {
    "full": {
        "melt1d": {"n_nodes": 257, "n_steps": 16, "horizon": 16 * 0.5 / 400},
        "eps-family": {"n_nodes": 129, "n_steps": 8, "horizon": 8 * 0.5 / 200},
        "melt2d": {"nodes": 21, "r_infinity": 3.0, "n_steps": 2},
    },
    "tiny": {
        "melt1d": {"n_nodes": 33, "n_steps": 3},
        "eps-family": {"n_nodes": 17, "n_steps": 2},
        "melt2d": {"nodes": 5, "r_infinity": 3.0, "n_steps": 1},
    },
}
EPS_SCHEDULE = (0.2, 0.1, 0.05, 0.025)
FAMILY_THREADS = 2
MELT2D_EPS = 0.05
MELT2D_HORIZON = 0.02


def smooth_bump(coords: np.ndarray, seed: int, op: int, lo: float, hi: float) -> np.ndarray:
    """Seeded C-infinity bump supported in a ball inside the box [lo, hi]^n.

    Zero for seed 0.  The ball never reaches the box faces, so pinned
    nodes on the faces keep the datum.
    """
    if seed == 0:
        return np.zeros(coords.shape[0])
    rng = np.random.default_rng([seed, op])
    amp = rng.uniform(*BUMP_AMPLITUDE)
    radius = rng.uniform(0.2, 0.5) * (hi - lo) / 2.0
    center = rng.uniform(lo + radius, hi - radius, size=coords.shape[1])
    r2 = np.sum((coords - center[None, :]) ** 2, axis=1) / radius ** 2
    out = np.zeros(coords.shape[0])
    inside = r2 < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def _with_bump(problem, bump):
    return replace(problem, initial=problem.initial + bump)


def _steps_converged(traj, config, expected_steps: int, label: str) -> List[str]:
    fails = []
    if len(traj.diagnostics) != expected_steps:
        fails.append(f"{label}: {len(traj.diagnostics)} steps, expected {expected_steps}")
    worst = max(d.residual_norm for d in traj.diagnostics)
    if not worst <= config.newton_tol:
        fails.append(f"{label}: step residual {worst:.3e} above newton_tol")
    return fails


def _energy_nonincreasing(energy: np.ndarray, label: str) -> List[str]:
    slack = ENERGY_SLACK * float(np.max(np.abs(energy)))
    rise = float(np.max(np.diff(energy), initial=0.0))
    if not (np.all(np.isfinite(energy)) and rise <= slack):
        return [f"{label}: energy rises by {rise:.3e}"]
    return []


# -- melt1d -----------------------------------------------------------------

def segment_inputs(size: dict, seed: int, op: int) -> dict:
    """Inputs of the melt1d preset at the given size (melt1d, eps-family)."""
    preset = N.load_preset("melt1d", **size)
    return {"size": size,
            "bump": smooth_bump(preset.problem.grid.coordinates(), seed, op, -1.0, 1.0)}


def melt1d_run(inp: dict, workdir: str) -> dict:
    """The analyze-modulus run plus the audits and the trajectory dump."""
    preset = N.load_preset("melt1d", **inp["size"])
    problem = _with_bump(preset.problem, inp["bump"])
    traj = N.solve(problem, preset.solver)
    maxp = N.max_principle_check(traj)
    levels, omega0 = N.modulus_ladder(traj, preset.anchor, preset.rho0,
                                      n_levels=preset.ladder_levels,
                                      shrink=preset.ladder_shrink)
    fit = N.fit_log_modulus(levels, problem.eps, preset.rho0)
    params = N.IterationParams(s=problem.s, p=problem.p, eps=problem.eps,
                               omega0=omega0, rho0=preset.rho0)
    seq = N.interior_sequences(params, n_levels=preset.ladder_levels)
    tail_rows = N.sequence_tail_report(traj, seq, preset.anchor)
    energy = N.energy_history(traj)
    weak = N.weak_residual(traj, N.space_time_bump((0.0,), 0.5, (0.0, problem.horizon)))
    out = os.path.join(workdir, "melt1d")
    fileio.write_trajectory(out, traj)
    return {"trajectories": [traj], "config": preset.solver, "maxp": [maxp],
            "fit": fit, "tail_rows": tail_rows, "energy": energy, "weak": weak,
            "out": out}


def melt1d_check(res: dict, size: dict) -> List[str]:
    traj = res["trajectories"][0]
    fails = _steps_converged(traj, res["config"], size["n_steps"], "melt1d")
    if not res["maxp"][0].passed:
        fails.append(f"melt1d: max principle defect {res['maxp'][0].defect:.3e}")
    fails += _energy_nonincreasing(res["energy"], "melt1d")
    fit = res["fit"]
    if not (math.isfinite(fit.c) and math.isfinite(fit.varsigma) and fit.n_samples >= 3):
        fails.append("melt1d: modulus fit is not finite")
    if not all(math.isfinite(r.ratio) for r in res["tail_rows"]):
        fails.append("melt1d: sequence tail ratio is not finite")
    if not math.isfinite(res["weak"]):
        fails.append("melt1d: weak residual is not finite")
    _, times, states = fileio.load_trajectory_states(res["out"])
    if times != list(traj.times) or any(
            not np.array_equal(a, b) for a, b in zip(states, traj.states)):
        fails.append("melt1d: written trajectory does not round-trip")
    return fails


# -- eps-family -------------------------------------------------------------

def family_run(inp: dict, workdir: str) -> dict:
    """A vanishing-regularization family solved on two worker threads."""
    preset = N.load_preset("melt1d", **inp["size"])
    problem = _with_bump(preset.problem, inp["bump"])
    family = N.run_family(problem, EPS_SCHEDULE, preset.solver, threads=FAMILY_THREADS)
    pair = N.limit_pair(family, preset.delta_resolve)
    report = N.convergence_report(family)
    return {"family": family, "config": preset.solver, "pair": pair, "report": report,
            "trajectories": [e.trajectory for e in family.entries]}


def family_check(res: dict, size: dict) -> List[str]:
    fails = []
    for entry in res["family"].entries:
        label = f"eps-family eps={entry.eps:g}"
        if not entry.ok:
            fails.append(f"{label}: {entry.error}")
            continue
        fails += _steps_converged(entry.trajectory, res["config"], size["n_steps"], label)
        maxp = N.max_principle_check(entry.trajectory)
        if not maxp.passed:
            fails.append(f"{label}: max principle defect {maxp.defect:.3e}")
    report = res["report"]
    dists = report.successive_distances
    if not (report.consistent and report.monotone and all(math.isfinite(d) for d in dists)):
        fails.append(f"eps-family: successive distances do not shrink: {dists}")
    if not 0.0 <= res["pair"].band_fraction <= 0.5:
        fails.append("eps-family: limit band fraction out of range")
    return fails


# -- melt2d -----------------------------------------------------------------

def melt2d_config(size: dict) -> dict:
    return {
        "problem": {
            "s": 0.5, "p": 3.0, "eps": MELT2D_EPS, "horizon": MELT2D_HORIZON,
            "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0],
                    "nodes": [size["nodes"], size["nodes"]],
                    "r_infinity": size["r_infinity"]},
            "unknown": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            "datum": {"type": "constant", "value": 1.0},
            "initial": {"type": "constant", "value": -1.0},
        },
        "solver": {"dt": MELT2D_HORIZON / size["n_steps"]},
    }


def melt2d_inputs(size: dict, seed: int, op: int) -> dict:
    config = melt2d_config(size)
    grid = N.realize(N.parse_run_config(config))[1].grid
    return {"size": size, "config": config,
            "bump": smooth_bump(grid.coordinates(), seed, op, -1.0, 1.0)}


def melt2d_run(inp: dict, workdir: str) -> dict:
    """A small 2D melt from an inline run config."""
    cfg = N.parse_run_config(inp["config"])
    _, problem, solver_cfg = N.realize(cfg)
    problem = _with_bump(problem, inp["bump"])
    traj = N.solve(problem, solver_cfg)
    maxp = N.max_principle_check(traj)
    energy = N.energy_history(traj)
    return {"trajectories": [traj], "config": solver_cfg, "maxp": [maxp],
            "energy": energy}


def melt2d_check(res: dict, size: dict) -> List[str]:
    traj = res["trajectories"][0]
    fails = _steps_converged(traj, res["config"], size["n_steps"], "melt2d")
    if not res["maxp"][0].passed:
        fails.append(f"melt2d: max principle defect {res['maxp'][0].defect:.3e}")
    fails += _energy_nonincreasing(res["energy"], "melt2d")
    return fails


# -- registry ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[dict, int, int], dict]
    run: Callable[[dict, str], dict]
    check: Callable[[dict, dict], List[str]]

    def size(self, scale: str) -> dict:
        return SIZES[scale][self.name]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("melt1d", segment_inputs, melt1d_run, melt1d_check),
        Workload("eps-family", segment_inputs, family_run, family_check),
        Workload("melt2d", melt2d_inputs, melt2d_run, melt2d_check),
    )
}


def final_states(res: dict) -> List[Optional[np.ndarray]]:
    """Final state of each trajectory; None for a failed family member."""
    return [None if t is None else t.final for t in res["trajectories"]]


def reference_drift(res: dict, reference: List[List[float]]) -> float:
    """Sup distance of the final state(s) from a stored reference."""
    states = final_states(res)
    if len(states) != len(reference):
        return math.inf
    drift = 0.0
    for state, ref in zip(states, reference):
        ref = np.asarray(ref, dtype=float)
        if state is None or ref.shape != state.shape:
            return math.inf
        drift = max(drift, float(np.max(np.abs(state - ref))))
    return drift
