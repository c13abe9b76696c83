"""Implicit time stepping for the regularized nonlocal two-phase problem.

Each step solves the backward Euler system

    b(v_i) - b(u^m_i) + dt * (L v)_i = 0   on the unknown nodes,

where b(xi) = xi + beta_eps(xi) is the enthalpy change of variable and L
the lattice p-growth operator.  Nodes outside the unknown set are pinned
to the exterior datum at the new time level, as are the virtual nodes
beyond the box.  The system is the gradient of the strictly convex
functional

    F(v) = sum_i [B(v_i) - b(u^m_i) v_i] h^n + dt * E(v),

with B the enthalpy potential and E the pairwise p-energy, so a damped
Newton iteration with an SPD Jacobian and an Armijo line search is
globally convergent.  _linalg solves the Newton systems by a Cholesky
pinned to one BLAS thread, so trajectories do not depend on the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from ._linalg import solve_spd
from .enthalpy import RegularizedEnthalpy
from .errors import (DegenerateCutoffError, EmptyCylinderError,
                     InvalidParamsError, NewtonDivergenceError)
from .lattice import Grid, OperatorWorkspace, check_exponents


@dataclass
class LatticeProblem:
    """Initial-exterior value problem on a lattice box.

    Parameters
    ----------
    s, p : float
        Differentiability and growth exponents, 0 < s < 1 < 2 < p.
    grid : Grid
        Box lattice; its r_infinity truncates the explicit exterior.
    unknown_mask : ndarray of bool
        True at nodes evolved by the scheme; the complement is pinned to
        the datum.  Both parts must be nonempty.
    dirichlet : callable (coords, t) -> values
        Exterior and initial-boundary datum g, one value per coordinate
        row; read through datum and exterior_values.
    far_value : float
        Constant representing g beyond r_infinity.
    initial : ndarray
        Initial field on every box node; must match the datum on the
        pinned nodes at t = 0.
    horizon : float
        Final time T.
    eps : float
        Regularization width of the enthalpy.
    kernel_scale : float
        Value of the constant kernel; it multiplies the operator.
    """

    s: float
    p: float
    grid: Grid
    unknown_mask: np.ndarray
    dirichlet: Callable
    far_value: float
    initial: np.ndarray
    horizon: float
    eps: float
    kernel_scale: float = 1.0
    enthalpy: object = None

    def __post_init__(self):
        check_exponents(self.s, self.p)
        self.unknown_mask = np.asarray(self.unknown_mask, dtype=bool)
        self.initial = np.asarray(self.initial, dtype=float)
        n_nodes = self.grid.n_nodes
        if self.unknown_mask.shape != (n_nodes,):
            raise InvalidParamsError("unknown_mask must match the grid size")
        if self.initial.shape != (n_nodes,):
            raise InvalidParamsError("initial field must match the grid size")
        if not np.all(np.isfinite(self.initial)):
            raise InvalidParamsError("initial field must be finite")
        if not self.unknown_mask.any():
            raise InvalidParamsError("unknown set is empty")
        if self.unknown_mask.all():
            raise InvalidParamsError("pinned complement inside the box is empty")
        if not self.horizon > 0.0:
            raise InvalidParamsError("horizon must be positive")
        if not self.eps > 0.0:
            raise InvalidParamsError("eps must be positive")
        if not self.kernel_scale > 0.0:
            raise InvalidParamsError("kernel scale must be positive")
        if self.enthalpy is None:
            self.enthalpy = RegularizedEnthalpy(self.eps)
        datum0, ext0 = self.datum(0.0)
        if not all(np.all(np.isfinite(a)) for a in (datum0, ext0, self.far_value)):
            raise InvalidParamsError("far_value and the datum on pinned and exterior "
                                     "nodes at t = 0 must be finite")
        if np.max(np.abs(self.initial[~self.unknown_mask] - datum0)) > 1e-9:
            raise InvalidParamsError("initial field disagrees with the datum on pinned nodes")

    def _datum_at(self, coords: np.ndarray, t: float) -> np.ndarray:
        values = np.asarray(self.dirichlet(coords, t), dtype=float)
        if values.shape != coords.shape[:1]:
            raise InvalidParamsError(
                f"the datum must give one value per node: shape {values.shape} "
                f"for {coords.shape[0]} nodes")
        return values

    def datum(self, t: float):
        """Datum values at time t on the pinned box nodes and on the
        exterior nodes."""
        pinned = self.grid.coordinates()[~self.unknown_mask]
        return self._datum_at(pinned, t), self.exterior_values(t)

    def exterior_values(self, t: float) -> np.ndarray:
        """Datum values at time t on grid.exterior_coordinates()."""
        return self._datum_at(self.grid.exterior_coordinates(), t)


@dataclass(frozen=True)
class SolverConfig:
    """Time stepping and Newton controls.

    dt_policy "fixed" uses the given dt; "intrinsic" rescales the step to
    the running oscillation, dt = dt_factor * h^{sp} * (osc/4)^{2-p},
    which compensates the degeneracy of the operator for p > 2.
    """

    dt: Optional[float] = None
    dt_policy: str = "fixed"
    dt_factor: float = 1.0
    newton_tol: float = 1e-10
    newton_max: int = 40
    damping: float = 0.5
    max_backtracks: int = 40
    store_every: int = 1

    def __post_init__(self):
        if self.dt_policy not in ("fixed", "intrinsic"):
            raise InvalidParamsError("dt_policy must be 'fixed' or 'intrinsic'")
        if self.dt_policy == "fixed" and (self.dt is None or not self.dt > 0.0):
            raise InvalidParamsError("fixed policy needs a positive dt")
        if self.dt_policy == "intrinsic" and not self.dt_factor > 0.0:
            raise InvalidParamsError("intrinsic policy needs a positive dt_factor")
        if not 0.0 < self.damping < 1.0:
            raise InvalidParamsError("damping must lie in (0, 1)")
        if self.newton_max < 1 or self.store_every < 1:
            raise InvalidParamsError("newton_max and store_every must be >= 1")


@dataclass
class StepDiagnostics:
    t: float
    dt: float
    newton_iterations: int
    residual_norm: float
    objective_drop: float
    backtracks: int


@dataclass
class Trajectory:
    """Stored time levels of one solve (t = 0 first)."""

    problem: LatticeProblem
    times: List[float]
    states: List[np.ndarray]
    diagnostics: List[StepDiagnostics]

    def samples(self):
        """(t, values, ext_values, far_value) at every stored level, the
        form tail accepts."""
        problem = self.problem
        return [(t, v, problem.exterior_values(t), problem.far_value)
                for t, v in zip(self.times, self.states)]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


class _Stepper:
    """One problem's assembled workspace plus the Newton kernel."""

    def __init__(self, problem: LatticeProblem, config: SolverConfig):
        self.problem = problem
        self.config = config
        self.ws = OperatorWorkspace(problem.grid, problem.s, problem.p, problem.kernel_scale)
        self.mask = problem.unknown_mask
        self.hn = problem.grid.spacing ** problem.grid.dimension

    def datum(self, t: float):
        return self.problem.datum(t)

    def compose(self, v_unknown: np.ndarray, pinned_vals: np.ndarray) -> np.ndarray:
        full = np.empty(self.problem.grid.n_nodes)
        full[self.mask] = v_unknown
        full[~self.mask] = pinned_vals
        return full

    def residual(self, full: np.ndarray, b_prev: np.ndarray, dt: float,
                 ext_vals: np.ndarray) -> np.ndarray:
        enth = self.problem.enthalpy
        lv = self.ws.apply(full, ext_vals, self.problem.far_value)
        return (enth.b(full[self.mask]) - b_prev) + dt * lv[self.mask]

    def jacobian(self, full: np.ndarray, dt: float, ext_vals: np.ndarray) -> np.ndarray:
        p = self.problem.p
        w_band, g_band, w_fold = self.ws.exterior(ext_vals, self.problem.far_value)
        dphi_box = (p - 1.0) * np.abs(full[:, None] - full[None, :]) ** (p - 2.0) * self.ws.w_box
        row = np.sum(dphi_box, axis=1)
        row += np.sum((p - 1.0) * np.abs(full[:, None] - g_band[None, :]) ** (p - 2.0)
                      * w_band, axis=1)
        row += (p - 1.0) * np.abs(full - self.problem.far_value) ** (p - 2.0) * w_fold
        m = self.mask
        dt_k = dt * self.ws.scale
        # dphi_box has a zero diagonal, so this leaves the diagonal empty
        jac = -dt_k * dphi_box[np.ix_(m, m)]
        jac[np.diag_indices_from(jac)] = (
            self.problem.enthalpy.b_prime(full[m]) + dt_k * row[m])
        return jac

    def objective(self, full: np.ndarray, b_prev: np.ndarray, dt: float,
                  ext_vals: np.ndarray) -> float:
        enth = self.problem.enthalpy
        vm = full[self.mask]
        bulk = np.sum(enth.potential(vm) - b_prev * vm) * self.hn
        return float(bulk) + dt * self.ws.pair_energy(full, ext_vals, self.problem.far_value)

    def step(self, u_prev: np.ndarray, t_next: float, dt: float):
        cfg = self.config
        enth = self.problem.enthalpy
        pinned_vals, ext_vals = self.datum(t_next)
        b_prev = enth.b(u_prev[self.mask])
        v = u_prev[self.mask].copy()
        full = self.compose(v, pinned_vals)
        history = []
        f_start = None
        backtracks = 0
        r = self.residual(full, b_prev, dt, ext_vals)
        for iteration in range(cfg.newton_max + 1):
            r_norm = float(np.max(np.abs(r)))
            history.append(r_norm)
            if not math.isfinite(r_norm):
                raise NewtonDivergenceError(
                    f"non-finite residual at t={t_next:.6g}, Newton iteration {iteration}",
                    last_iterate=full, residuals=history)
            if r_norm <= cfg.newton_tol:
                drop = 0.0
                if f_start is not None:
                    drop = f_start - self.objective(full, b_prev, dt, ext_vals)
                diag = StepDiagnostics(
                    t=t_next, dt=dt, newton_iterations=iteration,
                    residual_norm=r_norm, objective_drop=drop, backtracks=backtracks)
                return full, diag
            if iteration == cfg.newton_max:
                break
            jac = self.jacobian(full, dt, ext_vals)
            try:
                delta = solve_spd(jac, -r)
            except np.linalg.LinAlgError as exc:
                raise NewtonDivergenceError(
                    f"Newton linear solve failed at t={t_next:.6g}: {exc}",
                    last_iterate=full, residuals=history) from exc
            if f_start is None:
                f_start = self.objective(full, b_prev, dt, ext_vals)
            # local phase: the full step stands on its own whenever it
            # shrinks the residual; the objective is flat to rounding near
            # the minimizer and cannot arbitrate there
            trial = self.compose(v + delta, pinned_vals)
            r_trial = self.residual(trial, b_prev, dt, ext_vals)
            if float(np.max(np.abs(r_trial))) <= 0.9 * r_norm:
                v = v + delta
                full = trial
                r = r_trial
                continue
            f0 = f_start if iteration == 0 else self.objective(full, b_prev, dt, ext_vals)
            slope = self.hn * float(np.sum(r * delta))
            alpha = 1.0
            f_trial = self.objective(trial, b_prev, dt, ext_vals)
            nb = 0
            while f_trial > f0 + 1e-4 * alpha * slope and nb < cfg.max_backtracks:
                alpha *= cfg.damping
                nb += 1
                trial = self.compose(v + alpha * delta, pinned_vals)
                f_trial = self.objective(trial, b_prev, dt, ext_vals)
            backtracks += nb
            v = v + alpha * delta
            full = self.compose(v, pinned_vals)
            r = r_trial if nb == 0 else self.residual(full, b_prev, dt, ext_vals)
        raise NewtonDivergenceError(
            f"Newton stalled at t={t_next:.6g} with residual {history[-1]:.3e}",
            last_iterate=full, residuals=history)


def implicit_step(problem: LatticeProblem, u_prev: np.ndarray, t_next: float,
                  dt: float, config: SolverConfig = None):
    """Advance one backward Euler step; returns (state, diagnostics)."""
    if config is None:
        config = SolverConfig(dt=dt)
    stepper = _Stepper(problem, config)
    return stepper.step(np.asarray(u_prev, dtype=float), t_next, dt)


def _intrinsic_dt(problem: LatticeProblem, state: np.ndarray, factor: float) -> float:
    osc = float(np.max(state[problem.unknown_mask]) - np.min(state[problem.unknown_mask]))
    osc = max(osc, 4.0 * problem.eps)
    sp = problem.s * problem.p
    return factor * problem.grid.spacing ** sp * (osc / 4.0) ** (2.0 - problem.p)


def solve(problem: LatticeProblem, config: SolverConfig) -> Trajectory:
    """March the implicit scheme from t = 0 to the horizon.

    Stores every store_every-th level plus the final one.  The last step
    is shortened to land exactly on the horizon.
    """
    stepper = _Stepper(problem, config)
    state = problem.initial.copy()
    times = [0.0]
    states = [state.copy()]
    diags: List[StepDiagnostics] = []
    if config.dt_policy == "fixed":
        n_steps = max(1, int(math.ceil(problem.horizon / config.dt - 1e-9)))
        level_times = [min((k + 1) * config.dt, problem.horizon) for k in range(n_steps)]
        level_times[-1] = problem.horizon
    else:
        level_times = None
    t = 0.0
    step_count = 0
    while t < problem.horizon - 1e-12 * problem.horizon:
        if level_times is not None:
            t_next = level_times[step_count]
        else:
            dt = _intrinsic_dt(problem, state, config.dt_factor)
            t_next = min(t + dt, problem.horizon)
        state, diag = stepper.step(state, t_next, t_next - t)
        diags.append(diag)
        step_count += 1
        t = t_next
        at_end = t >= problem.horizon - 1e-12 * problem.horizon
        if step_count % config.store_every == 0 or at_end:
            times.append(t)
            states.append(state.copy())
    return Trajectory(problem=problem, times=times, states=states, diagnostics=diags)


def normalize(problem: LatticeProblem, m: float, z0=None) -> LatticeProblem:
    """Rescale by 1/m and recenter at z0 = (x0, 0).

    The transformed problem has data and initial values divided by m, the
    kernel multiplied by m^{p-2} and the enthalpy replaced by
    beta_eps(m xi)/m, the layer of width eps/m and latent heat L/m, so m
    times its solution reproduces the original one.  Only t0 = 0 is
    meaningful for an initial value problem.
    """
    if not m > 0.0:
        raise InvalidParamsError("normalization scale must be positive")
    dim = problem.grid.dimension
    if z0 is None:
        x0 = np.zeros(dim)
        t0 = 0.0
    else:
        x0 = np.asarray(z0[0], dtype=float).reshape(dim)
        t0 = float(z0[1])
    if t0 != 0.0:
        raise InvalidParamsError("time recentering of an initial value problem "
                                 "requires t0 = 0")
    base = problem.enthalpy
    scaled = RegularizedEnthalpy(base.eps / m, base.mollifier, base.latent_heat / m)
    g_old = problem.dirichlet
    new_dirichlet = lambda x, t, _g=g_old, _x0=x0, _m=m: np.asarray(_g(x + _x0, t), dtype=float) / _m
    return LatticeProblem(
        s=problem.s, p=problem.p,
        grid=problem.grid.translate(x0),
        unknown_mask=problem.unknown_mask.copy(),
        dirichlet=new_dirichlet,
        far_value=problem.far_value / m,
        initial=problem.initial / m,
        horizon=problem.horizon,
        eps=scaled.eps,
        kernel_scale=problem.kernel_scale * m ** (problem.p - 2.0),
        enthalpy=scaled)


@dataclass
class MaxPrincipleReport:
    bound: float
    defect: float
    worst_time: float
    passed: bool


def max_principle_check(traj: Trajectory, tol: float = 1e-9) -> MaxPrincipleReport:
    """Compare sup |u| against the sup of |datum| over exterior and
    initial values; reports the positive part of the excess."""
    problem = traj.problem
    bound = float(np.max(np.abs(problem.initial)))
    bound = max(bound, abs(problem.far_value))
    for t in traj.times:
        for values in problem.datum(t):
            bound = max(bound, float(np.max(np.abs(values))))
    defect = 0.0
    worst_time = traj.times[0]
    for t, state in zip(traj.times, traj.states):
        d = float(np.max(np.abs(state)) - bound)
        if d > defect:
            defect = d
            worst_time = t
    defect = max(defect, 0.0)
    return MaxPrincipleReport(bound=bound, defect=defect, worst_time=worst_time,
                              passed=defect <= tol)


def structural_audit(traj: Trajectory, config: SolverConfig) -> dict:
    """Maximum principle, comparison and normalization checks of a solve.

    traj is the solve of its problem under config.  The comparison check
    raises the initial value on the unknown set by 0.5 exp(-|x - c|^2 /
    0.09), c the centroid of the unknown set, and requires the new
    solution to stay above traj at every stored level; the normalization
    check requires twice the solution of normalize(problem, 2) to
    reproduce traj.  Each check passes within 1e-9.  Returns the figures
    and verdict of each check, keyed by check name.
    """
    tol = 1e-9
    problem = traj.problem
    mp = max_principle_check(traj, tol=tol)
    x = problem.grid.coordinates()
    mask = problem.unknown_mask
    center = x[mask].mean(axis=0)
    r2 = np.sum((x - center[None, :]) ** 2, axis=1)
    raised = np.where(mask, problem.initial + 0.5 * np.exp(-r2 / 0.09), problem.initial)
    upper = solve(replace(problem, initial=raised), config)
    margin = min(float(np.min(b - a)) for a, b in zip(traj.states, upper.states))
    half = solve(normalize(problem, 2.0), config)
    defect = max(float(np.max(np.abs(2.0 * b - a)))
                 for a, b in zip(traj.states, half.states))
    return {
        "max_principle": {"bound": mp.bound, "defect": mp.defect, "passed": mp.passed},
        "comparison": {"min_margin": margin, "passed": margin >= -tol},
        "normalization": {"defect": defect, "passed": defect <= tol},
    }


def space_time_bump(center, radius: float, t_window) -> Callable:
    """Smooth test function supported in B_radius(center) x (t_lo, t_hi)."""
    t_lo, t_hi = t_window

    def bump(r2):
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    def value(coords, t):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        c = np.asarray(center, dtype=float)
        r2 = np.sum((coords - c[None, :]) ** 2, axis=1) / radius ** 2
        if not t_lo < t < t_hi:
            return np.zeros(coords.shape[0])
        tau = (2.0 * t - t_lo - t_hi) / (t_hi - t_lo)
        return bump(r2) * float(bump(np.asarray([tau * tau]))[0])

    return value


def weak_residual(traj: Trajectory, test_fn: Callable) -> float:
    """Defect of the discrete space-time weak identity against a test
    function supported in the unknown region and (0, T).

    The time part pairs the stored enthalpy w = u + beta_eps(u) with
    backward differences of the test function (summation by parts); the
    space part integrates the symmetric pairing with the trapezoid rule
    in the test function.  The scheme itself samples the test function
    at right endpoints only, so the defect measures the backward-Euler
    weak-form error: O(dt) for smooth trajectories, rounding-level for
    constant ones and exactly zero for a vanishing test function.
    """
    problem = traj.problem
    ws = OperatorWorkspace(problem.grid, problem.s, problem.p, problem.kernel_scale)
    coords = problem.grid.coordinates()
    hn = problem.grid.spacing ** problem.grid.dimension
    enth = problem.enthalpy
    times = traj.times
    phi_vals = [np.asarray(test_fn(coords, t), dtype=float) for t in times]
    total = 0.0
    for m in range(len(times) - 1):
        dt = times[m + 1] - times[m]
        u = traj.states[m]
        w = u + enth.beta_eps(u)
        total -= float(np.sum(w * (phi_vals[m + 1] - phi_vals[m]))) * hn
        ext_vals = problem.exterior_values(times[m + 1])
        phi_mid = 0.5 * (phi_vals[m] + phi_vals[m + 1])
        total += dt * ws.test_pairing(traj.states[m + 1], ext_vals, problem.far_value,
                                      phi_mid)
    return abs(total)


def energy_history(traj: Trajectory) -> np.ndarray:
    """Pairwise p-energy at every stored level; nonincreasing in time for
    a time-constant datum (the scheme is the implicit step of a monotone
    flow)."""
    problem = traj.problem
    ws = OperatorWorkspace(problem.grid, problem.s, problem.p, problem.kernel_scale)
    out = []
    for t, state in zip(traj.times, traj.states):
        out.append(ws.pair_energy(state, problem.exterior_values(t), problem.far_value))
    return np.asarray(out)


@dataclass(frozen=True)
class RadialCutoff:
    """Radial profile for localization; the default is (1 - r^2)_+^2."""

    radius: float
    profile: Callable = None
    gradient: Callable = None

    def values(self, dist: np.ndarray):
        r = dist / self.radius
        if self.profile is not None:
            return np.asarray(self.profile(r), dtype=float)
        return np.clip(1.0 - r * r, 0.0, None) ** 2

    def gradient_magnitude(self, dist: np.ndarray):
        r = dist / self.radius
        if self.gradient is not None:
            return np.abs(np.asarray(self.gradient(r), dtype=float)) / self.radius
        return 4.0 * r * np.clip(1.0 - r * r, 0.0, None) / self.radius


@dataclass
class CaccioppoliReport:
    level: float
    sign: str
    sup_term: float
    seminorm_term: float
    mixed_term: float
    gradient_term: float
    tail_term: float
    initial_term: float
    lhs: float
    rhs: float
    ratio: float
    passed: Optional[bool]


def caccioppoli_audit(traj: Trajectory, level: float, sign: str, cylinder,
                      cutoff: RadialCutoff = None,
                      c_audit: Optional[float] = None) -> CaccioppoliReport:
    """Evaluate both sides of the truncated energy estimate on stored data.

    The left side collects the sup-in-time truncated energy (including
    the latent part), the p-seminorm of the cut truncation and the mixed
    positive term; the right side the gradient-of-cutoff bulk term, the
    exterior tail term and the initial slice.  The reported ratio
    lhs/rhs is the empirical constant of the estimate; with |level| >=
    eps the latent contributions vanish identically.
    """
    if sign not in ("+", "-"):
        raise InvalidParamsError("sign must be '+' or '-'")
    problem = traj.problem
    sp = problem.s * problem.p
    n = problem.grid.dimension
    x0 = np.asarray(cylinder.x0, dtype=float)
    coords = problem.grid.coordinates()
    dist = np.sqrt(np.sum((coords - x0[None, :]) ** 2, axis=1))
    in_ball = dist <= cylinder.rho * (1.0 + 1e-12)
    if not in_ball.any():
        raise EmptyCylinderError("cylinder ball contains no lattice nodes")
    if cutoff is None:
        cutoff = RadialCutoff(radius=0.8 * cylinder.rho)
    phi = np.where(in_ball, cutoff.values(dist), 0.0)
    if float(np.max(phi[in_ball], initial=0.0)) <= 0.0:
        raise DegenerateCutoffError("cutoff vanishes at every node of the ball")
    t_lo = cylinder.t0 - cylinder.theta * cylinder.rho ** sp
    t_sel = [i for i, t in enumerate(traj.times)
             if t_lo - 1e-12 < t <= cylinder.t0 + 1e-12]
    if not t_sel:
        raise EmptyCylinderError("cylinder window contains no stored times")

    enth = problem.enthalpy
    p = problem.p
    grid = problem.grid
    hn = grid.spacing ** n
    ball_idx = np.nonzero(in_ball)[0]
    phi_b = phi[ball_idx]
    out_box_idx = np.nonzero(~in_ball)[0]
    # the geometry alone, cached per grid: the estimate carries no kernel scale
    ws = OperatorWorkspace(grid, problem.s, p)
    pair_w = hn * ws.w_box[np.ix_(ball_idx, ball_idx)]
    w_out = ws.w_box[np.ix_(ball_idx, out_box_idx)]

    def truncate(vals):
        if sign == "+":
            return np.clip(vals - level, 0.0, None)
        return np.clip(level - vals, 0.0, None)

    sup_term = 0.0
    seminorm = 0.0
    mixed = 0.0
    grad_term = 0.0
    tail_term = 0.0
    grad_phi = np.where(in_ball, cutoff.gradient_magnitude(dist), 0.0)[ball_idx]
    far_w = truncate(np.asarray([problem.far_value]))[0]

    prev_t = traj.times[t_sel[0]]
    for pos, idx in enumerate(t_sel):
        t = traj.times[idx]
        u = traj.states[idx]
        w_ball = truncate(u[ball_idx])
        w_opp = truncate_opposite(u[ball_idx], level, sign)
        latent = enth.truncation_energy(u[ball_idx], level, sign)
        slice_energy = float(np.sum((w_ball ** 2 + latent) * phi_b ** p)) * hn
        sup_term = max(sup_term, slice_energy)
        if pos == 0:
            initial_term = slice_energy
            prev_t = t
            continue
        dt = t - prev_t
        prev_t = t
        cut = w_ball * phi_b
        seminorm += dt * float(np.sum(pair_w * np.abs(cut[:, None] - cut[None, :]) ** p))
        mixed += dt * float(np.sum(pair_w * (w_opp ** (p - 1.0))[None, :]
                                   * (w_ball * phi_b ** p)[:, None]))
        grad_term += dt * float(np.sum((w_ball ** p) * (grad_phi ** p))) * hn
        # exterior supremum over the cutoff support of the truncated tail
        support = phi_b > 0.0
        u_out = truncate(u[out_box_idx])
        g_ext = truncate(problem.exterior_values(t))
        # exterior columns where the truncated datum equals the far value fold into w_fold
        w_band, g_band, w_fold = ws.exterior(g_ext, far_w)
        y_sum = (np.sum(w_out * (u_out ** (p - 1.0))[None, :], axis=1)
                 + np.sum(w_band[ball_idx] * (g_band ** (p - 1.0))[None, :], axis=1)
                 + w_fold[ball_idx] * far_w ** (p - 1.0))
        sup_y = float(np.max(y_sum[support], initial=0.0))
        tail_term += dt * sup_y * float(np.sum(w_ball * phi_b ** p)) * hn

    rs = cylinder.rho ** (p * (1.0 - problem.s))
    rhs = rs * grad_term + tail_term + initial_term
    lhs = sup_term + seminorm + mixed
    ratio = 0.0 if rhs == 0.0 and lhs == 0.0 else (math.inf if rhs == 0.0 else lhs / rhs)
    return CaccioppoliReport(
        level=level, sign=sign, sup_term=sup_term, seminorm_term=seminorm,
        mixed_term=mixed, gradient_term=rs * grad_term, tail_term=tail_term,
        initial_term=initial_term, lhs=lhs, rhs=rhs, ratio=ratio,
        passed=None if c_audit is None else ratio <= c_audit)


def truncate_opposite(vals, level, sign):
    """Truncation of the opposite sign, used by the mixed term."""
    if sign == "+":
        return np.clip(level - vals, 0.0, None)
    return np.clip(vals - level, 0.0, None)
