"""Canonical problem setups used by the command line tools and tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .errors import InvalidParamsError
from .lattice import Grid
from .solver import LatticeProblem, SolverConfig


@dataclass
class Preset:
    """A ready-to-run problem plus the knobs analysis tools read.

    The anchor defaults to the box centre at the horizon and the boundary
    point to the box's lower corner at t = 0.
    """

    name: str
    problem: LatticeProblem
    solver: SolverConfig
    anchor: Optional[tuple] = None     # (x0, t0) for oscillation ladders
    rho0: float = 0.25                 # base ladder radius
    ladder_levels: int = 8
    ladder_shrink: float = 0.65
    delta_resolve: float = 0.05
    boundary_point: Optional[tuple] = None
    boundary_modulus: Optional[Callable] = None

    def __post_init__(self):
        grid = self.problem.grid
        if self.anchor is None:
            center = tuple(o + 0.5 * (n - 1) * grid.spacing
                           for o, n in zip(grid.origin, grid.shape))
            self.anchor = (center, self.problem.horizon)
        if self.boundary_point is None:
            self.boundary_point = (tuple(grid.origin), 0.0)


def _interval_grid(lo: float, hi: float, n_nodes: int, r_infinity: float) -> Grid:
    # fewer than two nodes reach Grid's own check instead of dividing by zero
    spacing = (hi - lo) / max(n_nodes - 1, 1)
    return Grid(spacing=spacing, shape=(n_nodes,), origin=(lo,), r_infinity=r_infinity)


def _interior_mask(grid: Grid, lo: float, hi: float) -> np.ndarray:
    x = grid.coordinates()[:, 0]
    return (x > lo + 1e-12) & (x < hi - 1e-12)


def melt1d(n_nodes: int = 257, horizon: float = 0.5, eps: float = 0.05,
           n_steps: int = 400) -> Preset:
    """Melting of a uniformly undercooled segment.

    The segment starts at u = -1 and the exterior is held at +1, so a
    melting front moves in from both ends.  The ladder anchor sits in
    the warm region between the final front position and the boundary,
    where the solution varies smoothly at every ladder scale.
    """
    grid = _interval_grid(-1.0, 1.0, n_nodes, r_infinity=4.0)
    mask = _interior_mask(grid, -1.0, 1.0)
    g = lambda x, t: np.ones(np.atleast_2d(x).shape[0])
    initial = np.where(mask, -1.0, 1.0)
    problem = LatticeProblem(
        s=0.5, p=3.0, grid=grid, unknown_mask=mask,
        dirichlet=g, far_value=1.0, initial=initial, horizon=horizon, eps=eps)
    solver = SolverConfig(dt=horizon / n_steps, dt_policy="fixed")
    return Preset(name="melt1d", problem=problem, solver=solver,
                  anchor=((0.5,), horizon), rho0=0.3, ladder_shrink=0.85)


def twophase1d(n_nodes: int = 257, horizon: float = 0.5, eps: float = 0.05,
               n_steps: int = 400) -> Preset:
    """Sign-changing initial data: a warm core inside a cold segment with
    a cold exterior, so both phases are present from the start."""
    grid = _interval_grid(-1.0, 1.0, n_nodes, r_infinity=4.0)
    mask = _interior_mask(grid, -1.0, 1.0)
    x = grid.coordinates()[:, 0]
    g = lambda xx, t: -np.ones(np.atleast_2d(xx).shape[0])
    initial = np.where(mask, np.where(np.abs(x) < 0.5, 1.0, -1.0), -1.0)
    problem = LatticeProblem(
        s=0.5, p=3.0, grid=grid, unknown_mask=mask,
        dirichlet=g, far_value=-1.0, initial=initial, horizon=horizon, eps=eps)
    solver = SolverConfig(dt=horizon / n_steps, dt_policy="fixed")
    return Preset(name="twophase1d", problem=problem, solver=solver,
                  anchor=((0.0,), horizon), rho0=0.4)


def _log_modulus(c_g: float, delta: float, r_scale: float) -> Callable:
    def omega_g(r: float) -> float:
        r = min(max(float(r), 1e-300), r_scale)
        return c_g * (1.0 + math.log(r_scale / r)) ** (-delta)
    return omega_g


def logbdy(n_nodes: int = 257, horizon: float = 0.5, eps: float = 0.01,
           n_steps: int = 400, c_g: float = 0.5, delta: float = 0.9) -> Preset:
    """Exterior datum with a logarithmic modulus of continuity at the
    boundary point x = 0 of the unknown interval (0, 1)."""
    grid = _interval_grid(-0.5, 1.5, n_nodes, r_infinity=4.0)
    mask = _interior_mask(grid, 0.0, 1.0)
    r_scale = 1.0
    modulus = _log_modulus(c_g, delta, r_scale)
    sp = 0.5 * 3.0

    def g(x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.abs(x[:, 0]) + max(float(t), 0.0) ** (1.0 / sp)
        r = np.clip(r, 1e-300, r_scale)
        return c_g * (1.0 + np.log(r_scale / r)) ** (-delta)

    initial = g(grid.coordinates(), 0.0)
    problem = LatticeProblem(
        s=0.5, p=3.0, grid=grid, unknown_mask=mask,
        dirichlet=g, far_value=c_g, initial=initial, horizon=horizon, eps=eps)
    solver = SolverConfig(dt=horizon / n_steps, dt_policy="fixed")
    return Preset(name="logbdy", problem=problem, solver=solver,
                  anchor=((0.5,), horizon), rho0=0.3,
                  boundary_point=((0.0,), 0.0), boundary_modulus=modulus)


def const1d(n_nodes: int = 65, horizon: float = 0.1, eps: float = 0.05,
            n_steps: int = 20, value: float = 0.3) -> Preset:
    """Constant compatible data; the exact solution is the constant, which
    makes every defect identically zero."""
    grid = _interval_grid(-1.0, 1.0, n_nodes, r_infinity=4.0)
    mask = _interior_mask(grid, -1.0, 1.0)
    g = lambda x, t, v=value: np.full(np.atleast_2d(x).shape[0], v)
    initial = np.full(grid.n_nodes, value)
    problem = LatticeProblem(
        s=0.5, p=3.0, grid=grid, unknown_mask=mask,
        dirichlet=g, far_value=value, initial=initial, horizon=horizon, eps=eps)
    solver = SolverConfig(dt=horizon / n_steps, dt_policy="fixed")
    return Preset(name="const1d", problem=problem, solver=solver,
                  anchor=((0.0,), horizon), rho0=0.4)


CATALOG: Dict[str, Callable[..., Preset]] = {
    "melt1d": melt1d,
    "twophase1d": twophase1d,
    "logbdy": logbdy,
    "const1d": const1d,
}


def load_preset(name: str, **overrides) -> Preset:
    if name not in CATALOG:
        raise InvalidParamsError(
            f"unknown preset '{name}'; available: {', '.join(sorted(CATALOG))}")
    return CATALOG[name](**overrides)
