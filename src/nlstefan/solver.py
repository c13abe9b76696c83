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
globally convergent.  _linalg solves each Newton system matrix-free by
CG to an Eisenstat-Walker forcing term, eta_k = min(1e-3, 0.9 (|r_k| /
|r_{k-1}|)^2) and eta_0 = 1e-3, floored at 0.01 newton_tol / |r_k|
(2-norms), never through BLAS, so trajectories do not depend on the BLAS
thread count.  The outer test on max |r| is unchanged.

Newton starts the first step from u^0.  Every later step starts from the
enthalpy extrapolated over the last two levels,

    v_start = b^{-1}( b(u^m) + (dt_{m+1} / dt_m) (b(u^m) - b(u^{m-1})) ),

b^{-1} being the chord estimate RegularizedEnthalpy.b_inverse_chord, and
from u^m itself wherever b did not move over the last step.  Across the
latent layer u stalls while b(u) keeps moving smoothly, so b predicts
the front where u cannot.  Only the start is evaluated, so a step makes
1 + Newton iterations + backtracks pair evaluations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from ._linalg import newton_cg
from .analysis import cylinder_samples
from .enthalpy import RegularizedEnthalpy
from .errors import DegenerateCutoffError, InvalidParamsError, NewtonDivergenceError
from .lattice import (Grid, OperatorWorkspace, PairSums, check_exponents, check_reals,
                      pair_geometry)


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
    latent_heat : float
        Jump of the latent-heat graph.  The enthalpy is built from eps and
        latent_heat, so a replaced eps replaces the layer.
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
    latent_heat: float = 1.0
    enthalpy: RegularizedEnthalpy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_reals(s=self.s, p=self.p, horizon=self.horizon, eps=self.eps,
                    kernel_scale=self.kernel_scale, latent_heat=self.latent_heat,
                    far_value=self.far_value)
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
        if not 0.0 < self.horizon < math.inf:
            raise InvalidParamsError("horizon must be positive and finite")
        if not 0.0 < self.kernel_scale < math.inf:
            raise InvalidParamsError("kernel scale must be positive and finite")
        self.enthalpy = RegularizedEnthalpy(self.eps, self.latent_heat)
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


# line-search steps one Newton step may take, each scaling the trial by DAMPING
MAX_BACKTRACKS = 40
DAMPING = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Time step and Newton controls.

    Every solve steps by dt, the last step shortened to land on the
    horizon, and stores every level, so its time grid is known before it
    runs (stored_times).
    """

    dt: Optional[float] = None
    newton_tol: float = 1e-10
    newton_max: int = 40

    def __post_init__(self):
        check_reals(newton_tol=self.newton_tol, **({} if self.dt is None else {"dt": self.dt}))
        try:  # a float count would iterate a fractional number of times
            object.__setattr__(self, "newton_max", operator.index(self.newton_max))
        except TypeError:
            raise InvalidParamsError("newton_max must be an integer") from None
        if self.dt is None or not 0.0 < self.dt < math.inf:
            raise InvalidParamsError("the solver needs a finite positive dt")
        if not 0.0 < self.newton_tol < math.inf:
            raise InvalidParamsError("newton_tol must be positive and finite")
        if self.newton_max < 1:
            raise InvalidParamsError("newton_max must be >= 1")


@dataclass
class StepDiagnostics:
    t: float
    dt: float
    newton_iterations: int
    residual_norm: float
    objective_drop: float
    backtracks: int
    linear_iterations: int
    evaluations: int
    residual_history: List[float]


@dataclass
class Trajectory:
    """Stored time levels of one solve (t = 0 first): states is one float64
    array of shape (len(times), grid.n_nodes); a list of fields is stacked."""

    problem: LatticeProblem
    times: List[float]
    states: np.ndarray
    diagnostics: List[StepDiagnostics]

    def __post_init__(self):
        shape = (len(self.times), self.problem.grid.n_nodes)
        try:  # ragged rows make no array
            self.states = np.asarray(self.states, dtype=float)
        except ValueError:
            self.states = None
        if np.shape(self.states) != shape:
            raise InvalidParamsError(f"states must have shape {shape}, one row per time")

    def exterior_states(self, times) -> np.ndarray:
        """The datum on grid.exterior_coordinates(), one row per entry of times."""
        return np.asarray([self.problem.exterior_values(t) for t in times])

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

    def residual(self, full: np.ndarray, b_prev: np.ndarray, dt: float, exterior):
        """(r, sums): the residual at full over the step's ws.exterior and the
        pair sums it comes from, which jacobian and objective at full read."""
        enth = self.problem.enthalpy
        sums = self.ws.evaluate(full, exterior)
        lv = self.ws.scale * sums.flux
        return (enth.b(full[self.mask]) - b_prev) + dt * lv[self.mask], sums

    def jacobian(self, full: np.ndarray, dt: float, sums: PairSums):
        """(diagonal, coupling) of the Newton matrix at full, whose
        off-diagonal part is -coupling sums.conductance on the unknown nodes."""
        dt_k = dt * self.ws.scale * (self.problem.p - 1.0)
        # the conductance has a zero diagonal, so rows alone make the diagonal
        return self.problem.enthalpy.b_prime(full[self.mask]) + dt_k * sums.rows[self.mask], dt_k

    def objective(self, full: np.ndarray, b_prev: np.ndarray, dt: float,
                  sums: PairSums) -> float:
        """The step's functional F at full, its energy read from full's sums."""
        enth = self.problem.enthalpy
        vm = full[self.mask]
        bulk = np.sum(enth.potential(vm) - b_prev * vm) * self.hn
        return float(bulk) + dt * (self.ws.scale * self.hn * sums.energy)

    def step(self, b_prev: np.ndarray, start: np.ndarray, t_next: float, dt: float):
        """(full, diagnostics): the level at t_next, Newton started from start
        on the unknown set, b_prev the enthalpy of the last level there."""
        cfg = self.config
        pinned_vals, ext_vals = self.datum(t_next)
        exterior = self.ws.exterior(ext_vals, self.problem.far_value)
        v = start
        full = self.compose(v, pinned_vals)
        history = []
        f_start = None
        backtracks, linear_iterations, evaluations = 0, 0, 1
        r2 = None
        r, sums = self.residual(full, b_prev, dt, exterior)
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
                    drop = f_start - self.objective(full, b_prev, dt, sums)
                diag = StepDiagnostics(
                    t=t_next, dt=dt, newton_iterations=iteration,
                    residual_norm=r_norm, objective_drop=drop, backtracks=backtracks,
                    linear_iterations=linear_iterations, evaluations=evaluations,
                    residual_history=history)
                return full, diag
            if iteration == cfg.newton_max:
                break
            # Eisenstat-Walker; the first ratio is 1, so eta_0 = 1e-3
            r2_prev, r2 = r2, math.sqrt(np.einsum("i,i", r, r))
            eta = max(min(1e-3, 0.9 * (r2 / (r2_prev or r2)) ** 2), 0.01 * cfg.newton_tol / r2)
            try:
                delta, cg_iterations = newton_cg(*self.jacobian(full, dt, sums), sums.conductance,
                                                 self.mask, -r, eta)
            except np.linalg.LinAlgError as exc:
                raise NewtonDivergenceError(
                    f"Newton linear solve failed at t={t_next:.6g}: {exc}",
                    last_iterate=full, residuals=history) from exc
            linear_iterations += cg_iterations
            if f_start is None:
                f_start = self.objective(full, b_prev, dt, sums)
            # local phase: the full step stands on its own whenever it
            # shrinks the residual; the objective is flat to rounding near
            # the minimizer and cannot arbitrate there
            trial = self.compose(v + delta, pinned_vals)
            r_trial, sums_trial = self.residual(trial, b_prev, dt, exterior)
            evaluations += 1
            alpha = 1.0
            if float(np.max(np.abs(r_trial))) > 0.9 * r_norm:
                f0 = f_start if iteration == 0 else self.objective(full, b_prev, dt, sums)
                slope = self.hn * float(np.sum(r * delta))
                f_trial = self.objective(trial, b_prev, dt, sums_trial)
                nb = 0
                while f_trial > f0 + 1e-4 * alpha * slope and nb < MAX_BACKTRACKS:
                    alpha *= DAMPING
                    nb += 1
                    trial = self.compose(v + alpha * delta, pinned_vals)
                    r_trial, sums_trial = self.residual(trial, b_prev, dt, exterior)
                    evaluations += 1
                    f_trial = self.objective(trial, b_prev, dt, sums_trial)
                backtracks += nb
            # the accepted point was evaluated last, so its sums are current
            v = v + alpha * delta
            full, r, sums = trial, r_trial, sums_trial
        raise NewtonDivergenceError(
            f"Newton stalled at t={t_next:.6g} with residual {history[-1]:.3e}",
            last_iterate=full, residuals=history)


def stored_times(horizon: float, config: SolverConfig) -> List[float]:
    """The times a solve stores, t = 0 first, known before it runs: one
    level per step, up to the first that reaches the horizon."""
    n_steps = max(1, int(math.ceil(horizon / config.dt - 1e-9)))
    levels = [0.0] + [min(k * config.dt, horizon) for k in range(1, n_steps + 1)]
    levels[-1] = horizon
    return levels[:next(k for k, t in enumerate(levels, 1) if t >= horizon - 1e-12 * horizon)]


def solve(problem: LatticeProblem, config: SolverConfig) -> Trajectory:
    """March the implicit scheme from t = 0 to the horizon, storing every
    level.

    The last step is shortened to land exactly on the horizon.  Every step
    after the first starts Newton from the extrapolated enthalpy (module
    docstring).
    """
    stepper = _Stepper(problem, config)
    enth, mask = problem.enthalpy, problem.unknown_mask
    state = problem.initial
    times = stored_times(problem.horizon, config)
    states = [state]
    diags: List[StepDiagnostics] = []
    t, dt_last = 0.0, None
    b_now = enth.b(state[mask])
    for t_next in times[1:]:
        dt = t_next - t
        start = state[mask]
        if dt_last is not None:
            # u^m bit for bit where b did not move: b^{-1}(b(u)) may be an ulp off
            start = np.where(b_now != b_last, enth.b_inverse_chord(
                b_now + dt / dt_last * (b_now - b_last)), start)
        state, diag = stepper.step(b_now, start, t_next, dt)
        diags.append(diag)
        states.append(state)  # each step returns a new field
        b_now, b_last = enth.b(state[mask]), b_now
        t, dt_last = t_next, dt
    return Trajectory(problem=problem, times=times, states=states, diagnostics=diags)


def normalize(problem: LatticeProblem, m: float) -> LatticeProblem:
    """Rescale by 1/m.

    The transformed problem has data and initial values divided by m, the
    kernel multiplied by m^{p-2} and the enthalpy replaced by
    beta_eps(m xi)/m, the layer of width eps/m and latent heat L/m, so m
    times its solution reproduces the original one.  Grid, unknown set
    and horizon are unchanged.
    """
    if not m > 0.0:
        raise InvalidParamsError("normalization scale must be positive")
    return replace(
        problem,
        dirichlet=lambda x, t, g=problem.dirichlet: np.asarray(g(x, t), dtype=float) / m,
        far_value=problem.far_value / m,
        initial=problem.initial / m,
        eps=problem.eps / m,
        kernel_scale=problem.kernel_scale * m ** (problem.p - 2.0),
        latent_heat=problem.latent_heat / m)


@dataclass
class MaxPrincipleReport:
    bound: float
    defect: float
    worst_time: float
    passed: bool


# the slack of every structural check
AUDIT_TOL = 1e-9


def max_principle_check(traj: Trajectory) -> MaxPrincipleReport:
    """Compare sup |u| against the sup of |datum| over exterior and
    initial values; reports the positive part of the excess, which passes
    within AUDIT_TOL."""
    problem = traj.problem
    bound = float(np.max(np.abs(problem.initial)))
    bound = max(bound, abs(problem.far_value))
    for t in traj.times:
        for values in problem.datum(t):
            bound = max(bound, float(np.max(np.abs(values))))
    sup = np.max(np.abs(traj.states), axis=1)
    worst = int(np.argmax(sup))  # the first level at the largest sup
    defect = max(float(sup[worst] - bound), 0.0)
    worst_time = traj.times[worst if defect > 0.0 else 0]
    return MaxPrincipleReport(bound=bound, defect=defect, worst_time=worst_time,
                              passed=defect <= AUDIT_TOL)


def structural_audit(traj: Trajectory, config: SolverConfig) -> dict:
    """Maximum principle, comparison and normalization checks of a solve.

    traj is the solve of its problem under config.  The comparison check
    raises the initial value on the unknown set by 0.5 exp(-|x - c|^2 /
    0.09), c the centroid of the unknown set, and requires the new
    solution to stay above traj at every stored level; the normalization
    check requires twice the solution of normalize(problem, 2) to
    reproduce traj.  Each check passes within AUDIT_TOL.  Returns the
    figures and verdict of each check, keyed by check name.  The three
    solves share config's time grid, so the checks compare them level by
    level.
    """
    problem = traj.problem
    mp = max_principle_check(traj)
    x = problem.grid.coordinates()
    mask = problem.unknown_mask
    center = x[mask].mean(axis=0)
    r2 = np.sum((x - center[None, :]) ** 2, axis=1)
    raised = np.where(mask, problem.initial + 0.5 * np.exp(-r2 / 0.09), problem.initial)
    upper = solve(replace(problem, initial=raised), config)
    margin = float(np.min(upper.states - traj.states))
    half = solve(normalize(problem, 2.0), config)
    defect = float(np.max(np.abs(2.0 * half.states - traj.states)))
    return {
        "max_principle": {"bound": mp.bound, "defect": mp.defect, "passed": mp.passed},
        "comparison": {"min_margin": margin, "passed": margin >= -AUDIT_TOL},
        "normalization": {"defect": defect, "passed": defect <= AUDIT_TOL},
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
    w = traj.states + enth.beta_eps(traj.states)
    total = 0.0
    for m in range(len(times) - 1):
        dt = times[m + 1] - times[m]
        total -= float(np.sum(w[m] * (phi_vals[m + 1] - phi_vals[m]))) * hn
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
    return np.asarray([ws.pair_energy(state, problem.exterior_values(t), problem.far_value)
                       for t, state in zip(traj.times, traj.states)])


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


def caccioppoli_audit(traj: Trajectory, level: float, sign: str, cylinder) -> CaccioppoliReport:
    """Evaluate both sides of the truncated energy estimate on stored data.

    The left side collects the sup-in-time truncated energy (including
    the latent part), the p-seminorm of the cut truncation and the mixed
    positive term; the right side the gradient-of-cutoff bulk term, the
    exterior tail term and the initial slice, all under the cutoff
    (1 - (d/0.8 rho)^2)_+^2, d the distance to x0.  The reported ratio
    lhs/rhs is the empirical constant of the estimate; with |level| >=
    eps the latent contributions vanish identically.
    """
    if sign not in ("+", "-"):
        raise InvalidParamsError("sign must be '+' or '-'")
    problem = traj.problem
    dist, in_ball, times, states = cylinder_samples(traj, cylinder)
    q = dist[in_ball] / (0.8 * cylinder.rho)
    phi_b = np.clip(1.0 - q * q, 0.0, None) ** 2
    grad_phi = 4.0 * q * np.clip(1.0 - q * q, 0.0, None) / (0.8 * cylinder.rho)
    if float(np.max(phi_b)) <= 0.0:
        raise DegenerateCutoffError("cutoff vanishes at every node of the ball")

    enth = problem.enthalpy
    p = problem.p
    grid = problem.grid
    hn = grid.spacing ** grid.dimension
    ball_idx = np.nonzero(in_ball)[0]
    out_box_idx = np.nonzero(~in_ball)[0]
    # the geometry alone: the estimate carries no kernel scale
    ws = OperatorWorkspace(grid, problem.s, p)
    x = grid.coordinates()
    pair_w = hn * pair_geometry(grid, problem.s, p, x[ball_idx], x[ball_idx])[1]
    w_out = pair_geometry(grid, problem.s, p, x[ball_idx], x[out_box_idx])[1]
    # (u - level)_+ for sign '+', (level - u)_+ = (-(u - level))_+ for '-'
    side = 1.0 if sign == "+" else -1.0

    def truncate(vals, side=side):
        return np.clip(side * (vals - level), 0.0, None)

    sup_term = seminorm = mixed = grad_term = tail_term = 0.0
    support = phi_b > 0.0
    far_w = truncate(np.asarray([problem.far_value]))[0]

    for pos, (t, u) in enumerate(zip(times, states)):
        u_ball = u[ball_idx]
        w_ball = truncate(u_ball)
        w_opp = truncate(u_ball, -side)
        latent = enth.truncation_energy(u_ball, level, sign)
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
        u_out = truncate(u[out_box_idx])
        g_ext = truncate(problem.exterior_values(t))
        # the band's columns and the fold, where the truncated datum is the far value
        w_ends, ends = ws.exterior(g_ext, far_w)
        y_sum = (np.sum(w_out * (u_out ** (p - 1.0))[None, :], axis=1)
                 + np.sum(w_ends[ball_idx] * (ends ** (p - 1.0))[None, :], axis=1))
        sup_y = float(np.max(y_sum[support], initial=0.0))
        tail_term += dt * sup_y * float(np.sum(w_ball * phi_b ** p)) * hn

    rs = cylinder.rho ** (p * (1.0 - problem.s))
    rhs = rs * grad_term + tail_term + initial_term
    lhs = sup_term + seminorm + mixed
    ratio = 0.0 if rhs == 0.0 and lhs == 0.0 else (math.inf if rhs == 0.0 else lhs / rhs)
    return CaccioppoliReport(
        level=level, sign=sign, sup_term=sup_term, seminorm_term=seminorm,
        mixed_term=mixed, gradient_term=rs * grad_term, tail_term=tail_term,
        initial_term=initial_term, lhs=lhs, rhs=rhs, ratio=ratio)

