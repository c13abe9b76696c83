"""Implicit stepping: Newton contract, comparison, scaling, weak form, audits."""

import json

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from nlstefan import (
    Cylinder,
    DegenerateCutoffError,
    EmptyCylinderError,
    InvalidParamsError,
    LatticeProblem,
    NewtonDivergenceError,
    OperatorWorkspace,
    SolverConfig,
    Trajectory,
    caccioppoli_audit,
    cli,
    energy_history,
    intrinsic_theta,
    load_preset,
    max_principle_check,
    normalize,
    parse_run_config,
    realize,
    run_family,
    solve,
    space_time_bump,
    weak_residual,
)
from nlstefan import fileio
from nlstefan.lattice import Grid, pair_geometry
from nlstefan.solver import _Stepper, stored_times


def tiny_melt(n_nodes=33, horizon=0.05, eps=0.2, n_steps=10):
    return load_preset("melt1d", n_nodes=n_nodes, horizon=horizon, eps=eps, n_steps=n_steps)


# ---------------------------------------------------------------- validation


def test_solver_config_validation():
    with pytest.raises(InvalidParamsError, match="positive dt"):
        SolverConfig()
    with pytest.raises(InvalidParamsError, match="positive dt"):
        SolverConfig(dt=-0.1)
    # an infinite dt used to take one step straight to the horizon
    for dt in (np.inf, np.nan):
        with pytest.raises(InvalidParamsError, match="finite positive dt"):
            SolverConfig(dt=dt)
    with pytest.raises(InvalidParamsError, match="newton_max"):
        SolverConfig(dt=0.1, newton_max=0)


@pytest.mark.parametrize("controls", [
    {"newton_tol": -1.0}, {"newton_tol": 0.0}, {"newton_tol": np.inf},
    {"newton_tol": np.nan}])
def test_solver_config_rejects_unusable_newton_controls(controls):
    # a negative newton_tol used to run newton_max iterations and then
    # report a stall at a residual of 2e-16
    with pytest.raises(InvalidParamsError, match=next(iter(controls))):
        SolverConfig(dt=0.1, **controls)


@pytest.mark.parametrize("controls,match", [
    ({"dt": "0.1"}, "dt must be real numbers"),
    ({"dt": 0.1, "newton_tol": None}, "newton_tol must be real numbers"),
    ({"dt": 0.1, "newton_max": 2.5}, "newton_max must be an integer"),
    ({"dt": 0.1, "newton_max": 3.0}, "newton_max must be an integer"),
    ({"dt": 0.1, "newton_max": "2"}, "newton_max must be an integer")])
def test_solver_config_rejects_controls_of_the_wrong_type(controls, match):
    # a string dt used to fail with a raw TypeError; newton_max=2.5 was
    # accepted and failed in the solve, and a whole float is no count either
    with pytest.raises(InvalidParamsError, match=match):
        SolverConfig(**controls)


def test_solver_config_keeps_integer_controls_as_ints():
    cfg = SolverConfig(dt=0.01, newton_max=np.int64(7))
    assert type(cfg.newton_max) is int
    assert stored_times(0.03, cfg) == [0.0, 0.01, 0.02, 0.03]


@pytest.mark.parametrize("field,value", [
    ("horizon", "1"), ("eps", None), ("kernel_scale", "2"), ("latent_heat", "1"),
    ("far_value", "1")])
def test_problem_rejects_parameters_that_are_not_numbers(field, value):
    # these used to fail in a comparison with a raw TypeError
    with pytest.raises(InvalidParamsError, match=f"{field} must be real numbers"):
        replace(tiny_melt().problem, **{field: value})


@pytest.mark.parametrize("policy", [{"dt": 0.01}])
def test_problem_rejects_an_infinite_horizon(policy):
    # it used to raise OverflowError
    prob = tiny_melt().problem
    with pytest.raises(InvalidParamsError, match="horizon"):
        solve(replace(prob, horizon=np.inf), SolverConfig(**policy))


def test_problem_validation():
    pre = tiny_melt()
    prob = pre.problem
    with pytest.raises(InvalidParamsError, match="unknown set is empty"):
        replace(prob, unknown_mask=np.zeros(prob.grid.n_nodes, dtype=bool))
    with pytest.raises(InvalidParamsError, match="pinned complement"):
        replace(prob, unknown_mask=np.ones(prob.grid.n_nodes, dtype=bool))
    with pytest.raises(InvalidParamsError, match="match the grid"):
        replace(prob, unknown_mask=np.ones(3, dtype=bool))
    with pytest.raises(InvalidParamsError, match="horizon"):
        replace(prob, horizon=0.0)
    with pytest.raises(InvalidParamsError, match="eps"):
        replace(prob, eps=-0.1)
    for scale in (0.0, np.inf):
        with pytest.raises(InvalidParamsError, match="kernel scale must be positive and finite"):
            replace(prob, kernel_scale=scale)
    with pytest.raises(InvalidParamsError, match="disagrees with the datum"):
        replace(prob, initial=prob.initial + 1.0)
    bad = prob.initial.copy()
    bad[np.nonzero(prob.unknown_mask)[0][0]] = np.nan
    with pytest.raises(InvalidParamsError, match="finite"):
        replace(prob, initial=bad)


def test_replaced_eps_replaces_the_enthalpy_layer():
    # the enthalpy used to be a separate field that replace kept, so the
    # solve ran the old layer while the 4 eps fit floor read the new eps
    prob = tiny_melt().problem
    for eps in (0.3, 0.01):
        member = replace(prob, eps=eps)
        assert member.enthalpy.eps == eps
        assert member.enthalpy.latent_heat == prob.latent_heat == 1.0
    assert replace(prob, latent_heat=0.5).enthalpy.latent_heat == 0.5
    for latent_heat in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidParamsError, match="latent heat"):
            replace(prob, latent_heat=latent_heat)
    # an infinite eps used to solve with a NaN objective
    with pytest.raises(InvalidParamsError, match="eps must be positive and finite"):
        replace(prob, eps=np.inf)


def test_non_finite_far_value_is_rejected():
    prob = tiny_melt().problem
    for far in (np.nan, np.inf):
        with pytest.raises(InvalidParamsError, match="far_value and the datum .* must be finite"):
            replace(prob, far_value=far)


@pytest.mark.parametrize("where", ["pinned", "exterior"])
def test_non_finite_datum_at_the_start_is_rejected(where):
    prob = tiny_melt().problem
    g = prob.dirichlet
    # the box spans [-1, 1]: pinned nodes sit on its faces, exterior nodes off it
    hit = (lambda x: np.abs(x[:, 0]) == 1.0) if where == "pinned" else (
        lambda x: np.abs(x[:, 0]) > 1.0)

    def bad(x, t):
        vals = np.asarray(g(x, t), dtype=float).copy()
        vals[hit(np.atleast_2d(x))] = np.nan
        return vals

    with pytest.raises(InvalidParamsError, match="far_value and the datum .* must be finite"):
        replace(prob, dirichlet=bad)


@pytest.mark.parametrize("shape", ["scalar", "wrong-length"])
def test_datum_needs_one_value_per_node(shape):
    prob = tiny_melt().problem
    if shape == "scalar":
        bad = lambda x, t: 1.0
    else:
        bad = lambda x, t: np.ones(np.atleast_2d(x).shape[0] + 1)
    with pytest.raises(InvalidParamsError, match="one value per node"):
        replace(prob, dirichlet=bad)


def test_datum_that_turns_scalar_stops_the_solve():
    pre = tiny_melt()
    g = pre.problem.dirichlet
    turns_scalar = lambda x, t: g(x, t) if t == 0.0 else 1.0
    with pytest.raises(InvalidParamsError, match="one value per node"):
        solve(replace(pre.problem, dirichlet=turns_scalar), pre.solver)


# ---------------------------------------------------------------- exact cases


def _assert_constant_data_stay_constant(value):
    pre = load_preset("const1d", value=value)
    traj = solve(pre.problem, pre.solver)
    for state in traj.states:
        assert np.array_equal(state, pre.problem.initial)
    for d in traj.diagnostics:
        assert d.newton_iterations == 0
        assert d.residual_norm == 0.0


def test_constant_data_stay_constant():
    _assert_constant_data_stay_constant(0.3)


@pytest.mark.parametrize("value", [0.01, -0.02])
def test_constant_data_on_the_latent_layer_stay_constant(value):
    # b did not move, so every step starts from the last level itself,
    # not from b^{-1}(b(u)) one ulp away
    _assert_constant_data_stay_constant(value)


def test_trajectory_layout():
    pre = tiny_melt(n_steps=5)
    traj = solve(pre.problem, pre.solver)
    assert traj.times[0] == 0.0
    assert np.array_equal(traj.states[0], pre.problem.initial)
    assert traj.times[-1] == pre.problem.horizon
    assert np.array_equal(traj.final, traj.states[-1])
    assert len(traj.diagnostics) == 5
    assert isinstance(traj.states, np.ndarray) and traj.states.dtype == np.float64
    assert traj.states.shape == (len(traj.times), pre.problem.grid.n_nodes)
    # the exterior datum of the rows that tail reads, one row per given time
    ext = traj.exterior_states(traj.times[1:3])
    assert np.array_equal(ext, np.ones((2, pre.problem.grid.exterior_coordinates().shape[0])))


@pytest.mark.parametrize("times,states", [
    ([0.0, 0.1], [np.zeros(65)]),                    # fewer rows than times
    ([0.0], [np.zeros(64)]),                         # a row short of the grid
    ([0.0, 0.1], [np.zeros(65), np.zeros(64)])])     # ragged rows
def test_trajectory_rejects_states_of_the_wrong_shape(times, states):
    # all three used to be accepted or fail with numpy's raw ValueError
    problem = load_preset("const1d", n_nodes=65).problem
    with pytest.raises(InvalidParamsError, match="states must have shape"):
        Trajectory(problem=problem, times=times, states=states, diagnostics=[])


def test_pinned_nodes_follow_the_datum():
    pre = tiny_melt(n_steps=5)
    traj = solve(pre.problem, pre.solver)
    pinned = ~pre.problem.unknown_mask
    coords = pre.problem.grid.coordinates()
    for t, state in zip(traj.times[1:], traj.states[1:]):
        datum = pre.problem.dirichlet(coords[pinned], t)
        assert np.array_equal(state[pinned], datum)


# ---------------------------------------------------------------- newton


def test_newton_meets_tolerance_every_step():
    pre = tiny_melt()
    cfg = pre.solver
    traj = solve(pre.problem, cfg)
    for d in traj.diagnostics:
        assert d.residual_norm <= cfg.newton_tol
        assert d.newton_iterations <= cfg.newton_max
        # damped descent on a convex objective never increases it
        assert d.objective_drop >= -1e-12


@settings(max_examples=12, deadline=None)
@given(eps=st.sampled_from([0.2, 0.05, 0.02]), amp=st.floats(0.0, 0.1),
       center=st.floats(-0.5, 0.5), radius=st.floats(0.2, 0.45))
def test_no_step_raises_the_objective(eps, amp, center, radius):
    # a smooth bump inside the unknown set on top of the melt's initial value
    pre = load_preset("melt1d", n_nodes=33, horizon=0.02, eps=eps, n_steps=4)
    r2 = ((pre.problem.grid.coordinates()[:, 0] - center) / radius) ** 2
    bump = np.zeros_like(r2)
    inside = r2 < 1.0
    bump[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    traj = solve(replace(pre.problem, initial=pre.problem.initial + bump), pre.solver)
    assert all(d.objective_drop >= 0.0 for d in traj.diagnostics)


def test_newton_divergence_carries_its_history():
    pre = tiny_melt(n_steps=4, horizon=0.1)
    cfg = SolverConfig(dt=0.025, newton_tol=1e-16, newton_max=1)
    with pytest.raises(NewtonDivergenceError) as exc:
        solve(pre.problem, cfg)
    err = exc.value
    assert len(err.residuals) == 2
    assert err.last_iterate.shape == (pre.problem.grid.n_nodes,)
    assert err.residuals[-1] < err.residuals[0]


def test_newton_stops_at_the_first_non_finite_residual():
    pre = tiny_melt(n_steps=4, horizon=0.1)
    g = pre.problem.dirichlet

    def turns_nan(x, t):
        vals = np.asarray(g(x, t), dtype=float)
        return vals if t == 0.0 else np.full(vals.shape, np.nan)

    with pytest.raises(NewtonDivergenceError, match="non-finite") as exc:
        solve(replace(pre.problem, dirichlet=turns_nan), pre.solver)
    assert len(exc.value.residuals) == 1
    assert np.isnan(exc.value.residuals[0])


def test_linear_solve_failure_is_a_newton_divergence(monkeypatch, tmp_path, capsys):
    def broken(*args):
        raise np.linalg.LinAlgError("matrix is not positive definite")

    monkeypatch.setattr("nlstefan.solver.newton_cg", broken)
    pre = tiny_melt(n_steps=4, horizon=0.1)
    with pytest.raises(NewtonDivergenceError, match="linear solve failed") as exc:
        solve(replace(pre.problem, horizon=0.025), SolverConfig(dt=0.025))
    assert exc.value.residuals and exc.value.residuals[0] > 0.0
    assert exc.value.last_iterate.shape == (pre.problem.grid.n_nodes,)
    fam = run_family(pre.problem, (0.4, 0.2), pre.solver)
    assert [e.ok for e in fam.entries] == [False, False]
    assert "linear solve failed" in fam.entries[0].error
    rc = cli.main(["solve", "--preset", "melt1d", "--out", str(tmp_path / "run")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NewtonDivergenceError"


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


def test_benchmark_size_solves_keep_their_newton_work():
    # Newton iterations, backtracks and evaluations of the 257-node melt (16
    # steps of the canonical dt) and the 21 x 21 melt: a change that moves
    # Newton's path moves these counts and has to say so.  Each Newton point
    # is evaluated once: every step's start, every iteration's full step,
    # every backtrack.
    pre = load_preset("melt1d", n_nodes=257, horizon=0.02, n_steps=16)
    _, problem, config = realize(parse_run_config(MELT2D_21))
    for (problem, config), expected in [((pre.problem, pre.solver), (67, 0, 83)),
                                        ((problem, config), (12, 2, 16))]:
        diags = solve(problem, config).diagnostics
        work = tuple(sum(getattr(d, name) for d in diags)
                     for name in ("newton_iterations", "backtracks", "evaluations"))
        assert work == expected
        assert all(d.evaluations == 1 + d.newton_iterations + d.backtracks for d in diags)


def test_benchmark_size_solve_keeps_its_linear_work(tmp_path):
    # CG iterations of the 257-node melt (16 steps of the canonical dt): a
    # change to the forcing term, the preconditioner or the Newton operator
    # moves this count and has to say so; the manifest records it per step
    pre = load_preset("melt1d", n_nodes=257, horizon=0.02, n_steps=16)
    traj = solve(pre.problem, pre.solver)
    counts = [d.linear_iterations for d in traj.diagnostics]
    assert sum(counts) == 308
    assert all(d.linear_iterations >= d.newton_iterations for d in traj.diagnostics)
    fileio.write_trajectory(str(tmp_path), traj)
    manifest = fileio.read_json(str(tmp_path / "manifest.json"))
    assert [d["linear_iterations"] for d in manifest["diagnostics"]] == counts
    assert ([d["evaluations"] for d in manifest["diagnostics"]]
            == [d.evaluations for d in traj.diagnostics])


def test_the_first_step_starts_from_the_initial_field():
    # no earlier level to extrapolate from: the first step is the step from
    # u^0 and keeps its Newton iterations, backtracks, CG iterations and
    # evaluations of the solver that started every step from u^m
    pre = load_preset("melt1d", n_nodes=257, horizon=0.02, n_steps=16)
    _, problem, config = realize(parse_run_config(MELT2D_21))
    for (problem, config), expected in [((pre.problem, pre.solver), (7, 0, 27, 8)),
                                        ((problem, config), (7, 2, 21, 10))]:
        first = solve(replace(problem, horizon=config.dt), config).diagnostics[0]
        assert (first.newton_iterations, first.backtracks, first.linear_iterations,
                first.evaluations) == expected
        mask = problem.unknown_mask
        _, direct = _Stepper(problem, config).step(
            problem.enthalpy.b(problem.initial[mask]), problem.initial[mask],
            config.dt, config.dt)
        assert first == direct


def recorded_steps(problem, config, monkeypatch):
    """(trajectory, calls): the solve and the (b_prev, start, t_next, dt)
    of every step it took."""
    calls = []
    step = _Stepper.step

    def recording(self, b_prev, start, t_next, dt):
        calls.append((b_prev.copy(), start.copy(), t_next, dt))
        return step(self, b_prev, start, t_next, dt)

    monkeypatch.setattr(_Stepper, "step", recording)
    traj = solve(problem, config)
    monkeypatch.undo()
    return traj, calls


def test_each_later_step_starts_from_the_extrapolated_enthalpy(monkeypatch):
    # 0.0225 is not a multiple of dt = 0.005: the last step is half as long,
    # and its start extrapolates b over half the last step
    pre = load_preset("melt1d", n_nodes=33, horizon=0.0225, eps=0.2)
    problem, mask = pre.problem, pre.problem.unknown_mask
    enth = problem.enthalpy
    traj, calls = recorded_steps(problem, SolverConfig(dt=0.005), monkeypatch)
    assert len(calls) == 5 and calls[-1][3] == pytest.approx(0.0025, rel=1e-12)
    assert np.array_equal(calls[0][1], problem.initial[mask])
    for m in range(1, len(calls)):
        b_now, start, _, dt = calls[m]
        b_last, dt_last = calls[m - 1][0], calls[m - 1][3]
        u_now = traj.states[m][mask]
        assert np.array_equal(b_now, enth.b(u_now))

        def extrapolated(ratio):
            moved = b_now != b_last
            return np.where(moved, enth.b_inverse_chord(b_now + ratio * (b_now - b_last)), u_now)

        assert np.array_equal(start, extrapolated(dt / dt_last))
    assert dt / dt_last == pytest.approx(0.5, rel=1e-9)
    assert not np.array_equal(start, extrapolated(1.0))


def test_residual_histories_reach_the_manifest(monkeypatch, tmp_path):
    # entry 0 is the residual at the step's start, the last the final one
    pre = load_preset("melt1d", n_nodes=33, horizon=0.02, eps=0.05)
    problem = pre.problem
    traj, calls = recorded_steps(problem, SolverConfig(dt=0.005), monkeypatch)
    stepper = _Stepper(problem, SolverConfig(dt=0.005))
    for (b_prev, start, t_next, dt), d in zip(calls, traj.diagnostics):
        pinned, ext = stepper.datum(t_next)
        exterior = stepper.ws.exterior(ext, problem.far_value)
        r = stepper.residual(stepper.compose(start, pinned), b_prev, dt, exterior)[0]
        assert d.residual_history[0] == float(np.max(np.abs(r)))
        assert d.residual_history[-1] == d.residual_norm
        assert len(d.residual_history) == d.newton_iterations + 1
    fileio.write_trajectory(str(tmp_path), traj)
    manifest = fileio.read_json(str(tmp_path / "manifest.json"))
    assert ([d["residual_history"] for d in manifest["diagnostics"]]
            == [d.residual_history for d in traj.diagnostics])


def test_the_stiff_small_eps_melt_keeps_its_line_search_short():
    # eps 0.001 at the canonical dt: starting every step from u^m took 63
    # backtracks (137 evaluations), the extrapolated enthalpy takes 18 (74)
    pre = load_preset("melt1d", n_nodes=129, horizon=0.02, eps=0.001)
    diags = solve(pre.problem, SolverConfig(dt=0.0025)).diagnostics
    assert sum(d.backtracks for d in diags) <= 18


@pytest.mark.parametrize("eps", [0.2, 0.02])
def test_objective_drop_is_start_minus_final_objective(eps, monkeypatch):
    # eps 0.2 converges on full steps alone; eps 0.02 needs the line search
    pre = load_preset("melt1d", n_nodes=33, horizon=0.05, eps=eps, n_steps=10)
    prob, dt = pre.problem, 0.025
    stepper = _Stepper(prob, SolverConfig(dt=dt))
    calls = []
    objective = _Stepper.objective

    def counted(self, *args):
        calls.append(1)
        return objective(self, *args)

    b_prev = prob.enthalpy.b(prob.initial[prob.unknown_mask])
    monkeypatch.setattr(_Stepper, "objective", counted)
    final, diag = stepper.step(b_prev, prob.initial[prob.unknown_mask], dt, dt)
    monkeypatch.undo()
    pinned, ext = stepper.datum(dt)
    exterior = stepper.ws.exterior(ext, prob.far_value)
    start = stepper.compose(prob.initial[prob.unknown_mask], pinned)
    f_start = stepper.objective(start, b_prev, dt,
                                stepper.residual(start, b_prev, dt, exterior)[1])
    f_final = stepper.objective(final, b_prev, dt,
                                stepper.residual(final, b_prev, dt, exterior)[1])
    assert diag.newton_iterations >= 1
    assert diag.objective_drop == f_start - f_final
    if eps == 0.2:
        assert diag.backtracks == 0
        # F(start) and F(final) only: no line search ran
        assert len(calls) == 2
    else:
        assert diag.backtracks > 0


def test_implicit_step_small_dt_expansion():
    # v = u0 - dt L u0 / b'(u0) + O(dt^2): quadratic error decay
    pre = tiny_melt(n_nodes=33, eps=0.2)
    prob = pre.problem
    u0 = prob.initial
    ws = OperatorWorkspace(prob.grid, prob.s, prob.p, prob.kernel_scale)
    ext = prob.exterior_values(0.0)
    lv = ws.apply(u0, ext, prob.far_value)
    m = prob.unknown_mask
    errs = {}
    for dt in (1e-5, 1e-6):
        v = solve(replace(prob, horizon=dt, initial=u0), SolverConfig(dt=dt)).states[-1]
        pred = u0.copy()
        pred[m] = u0[m] - dt * lv[m] / prob.enthalpy.b_prime(u0[m])
        errs[dt] = float(np.max(np.abs(v - pred)))
    assert errs[1e-6] < errs[1e-5] / 50.0


# ---------------------------------------------------------------- order


def test_melting_front_is_monotone_in_time(small_melt_traj):
    _, traj = small_melt_traj
    states = np.asarray(traj.states)
    assert np.all(np.diff(states, axis=0) >= 0.0)


def test_comparison_principle():
    pre = tiny_melt(n_nodes=33, horizon=0.05, eps=0.2, n_steps=10)
    base_traj = solve(pre.problem, pre.solver)
    x = pre.problem.grid.coordinates()[:, 0]
    bump = np.where(pre.problem.unknown_mask, 0.25 * np.exp(-8.0 * x * x), 0.0)
    upper = replace(pre.problem, initial=pre.problem.initial + bump)
    upper_traj = solve(upper, pre.solver)
    for lo, hi in zip(base_traj.states, upper_traj.states):
        assert float(np.min(hi - lo)) >= -1e-9


@settings(max_examples=5, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.5), st.integers(min_value=1, max_value=8))
def test_comparison_principle_random_bumps(amp, width):
    pre = load_preset("melt1d", n_nodes=17, horizon=0.02, eps=0.2, n_steps=4)
    base_traj = solve(pre.problem, pre.solver)
    x = pre.problem.grid.coordinates()[:, 0]
    bump = np.where(pre.problem.unknown_mask, amp * np.exp(-width * x * x), 0.0)
    upper = replace(pre.problem, initial=pre.problem.initial + bump)
    upper_traj = solve(upper, pre.solver)
    for lo, hi in zip(base_traj.states, upper_traj.states):
        assert float(np.min(hi - lo)) >= -1e-9


def test_max_principle_on_the_melt(small_melt_traj):
    _, traj = small_melt_traj
    rep = max_principle_check(traj)
    assert rep.passed
    assert rep.bound == 1.0
    assert rep.defect == 0.0


def test_max_principle_flags_an_injected_spike(small_melt_traj):
    _, traj = small_melt_traj
    bad_states = [s.copy() for s in traj.states]
    bad_states[-1][len(bad_states[-1]) // 2] = 3.0
    from nlstefan.solver import Trajectory

    bad = Trajectory(problem=traj.problem, times=list(traj.times),
                     states=bad_states, diagnostics=list(traj.diagnostics))
    rep = max_principle_check(bad)
    assert not rep.passed
    assert rep.defect == pytest.approx(2.0, rel=1e-12)
    assert rep.worst_time == traj.times[-1]


# ---------------------------------------------------------------- scaling


def test_normalize_identity_scale_is_exact():
    pre = tiny_melt()
    base = solve(pre.problem, pre.solver)
    same = solve(normalize(pre.problem, 1.0), pre.solver)
    for a, b in zip(base.states, same.states):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("m", [0.5, 2.0, 5.0])
def test_normalize_round_trip(m):
    pre = tiny_melt()
    base = solve(pre.problem, pre.solver)
    scaled = solve(normalize(pre.problem, m), pre.solver)
    worst = max(
        float(np.max(np.abs(m * np.asarray(sv) - np.asarray(bv))))
        for sv, bv in zip(scaled.states, base.states)
    )
    assert worst < 1e-9


def test_normalize_validation():
    pre = tiny_melt()
    with pytest.raises(InvalidParamsError, match="positive"):
        normalize(pre.problem, 0.0)


def test_normalize_composes_scales():
    pre = tiny_melt()
    twice = normalize(normalize(pre.problem, 2.0), 3.0)
    assert twice.enthalpy.latent_heat == 1.0 / 6.0
    assert twice.eps == twice.enthalpy.eps == pre.problem.eps / 6.0


# ---------------------------------------------------------------- weak form


def test_weak_residual_vanishing_test_function(small_melt_traj):
    _, traj = small_melt_traj
    zero_fn = lambda coords, t: np.zeros(np.atleast_2d(coords).shape[0])
    assert weak_residual(traj, zero_fn) == 0.0


def test_weak_residual_constant_solution_is_rounding_level():
    pre = load_preset("const1d")
    traj = solve(pre.problem, pre.solver)
    phi = space_time_bump((0.0,), 0.5, (0.02, 0.08))
    assert weak_residual(traj, phi) < 1e-12


def test_weak_residual_decays_with_the_time_step():
    vals = {}
    for n_steps in (20, 40):
        pre = load_preset("melt1d", n_nodes=65, horizon=0.1, eps=0.2, n_steps=n_steps)
        traj = solve(pre.problem, pre.solver)
        phi = space_time_bump((0.0,), 0.6, (0.02, 0.08))
        vals[n_steps] = weak_residual(traj, phi)
    assert vals[40] > 0.0
    assert vals[40] < 0.65 * vals[20]


def test_space_time_bump_support():
    phi = space_time_bump((0.0,), 0.5, (0.2, 0.4))
    pts = np.array([[0.0], [0.49], [0.51], [2.0]])
    inside = phi(pts, 0.3)
    assert inside[0] > inside[1] > 0.0
    assert inside[2] == 0.0 and inside[3] == 0.0
    assert np.all(phi(pts, 0.2) == 0.0)
    assert np.all(phi(pts, 0.5) == 0.0)


def test_energy_history_monotone(small_melt_traj):
    _, traj = small_melt_traj
    eh = energy_history(traj)
    assert eh[0] > eh[-1]
    assert np.all(np.diff(eh) <= 1e-12 * eh[0])


# ---------------------------------------------------------------- truncated energy audit


def test_caccioppoli_constant_solution_all_zero():
    pre = load_preset("const1d", value=0.3)
    traj = solve(pre.problem, pre.solver)
    cyl = Cylinder(x0=(0.0,), t0=pre.problem.horizon, rho=0.4,
                   theta=intrinsic_theta(1.0, pre.problem.p))
    rep = caccioppoli_audit(traj, 0.5, "+", cyl)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0


def test_caccioppoli_melt_ratio_is_finite(small_melt_traj):
    # cold-side truncation at -eps: active on the undercooled core
    pre, traj = small_melt_traj
    prob = pre.problem
    cyl = Cylinder(x0=(0.0,), t0=prob.horizon, rho=0.3,
                   theta=intrinsic_theta(1.0, prob.p))
    rep = caccioppoli_audit(traj, -prob.eps, "-", cyl)
    assert np.isfinite(rep.ratio) and rep.ratio > 0.0
    assert rep.lhs > 0.0 and rep.rhs > 0.0


def dense_tail_term(traj, level, sign, cyl):
    """Tail term of the truncated energy estimate with every exterior
    column summed explicitly, built from the weight formula alone."""
    problem, grid = traj.problem, traj.problem.grid
    p, n, h, sp = problem.p, grid.dimension, grid.spacing, problem.s * problem.p
    x, y = grid.coordinates(), grid.exterior_coordinates()
    dist = np.sqrt(np.sum((x - np.asarray(cyl.x0)[None, :]) ** 2, axis=1))
    ball = dist <= cyl.rho * (1.0 + 1e-12)
    phi = np.clip(1.0 - (dist[ball] / (0.8 * cyl.rho)) ** 2, 0.0, None) ** 2

    def weights(a, b):
        d = np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))
        return np.where(d > 0.0, h ** n / np.where(d > 0.0, d, 1.0) ** (n + sp), 0.0), d

    def trunc(v):
        return np.clip(v - level if sign == "+" else level - v, 0.0, None)

    w_out, _ = weights(x[ball], x[~ball])
    w_ext, d_ext = weights(x[ball], y)
    w_ext[d_ext > grid.r_infinity] = 0.0
    w_far = 2.0 * grid.r_infinity ** (-sp) / sp
    t_lo = cyl.t0 - cyl.theta * cyl.rho ** sp
    chosen = [(t, u) for t, u in zip(traj.times, traj.states)
              if t_lo - 1e-12 < t <= cyl.t0 + 1e-12]
    total, band = 0.0, 0
    for (t_prev, _), (t, u) in zip(chosen, chosen[1:]):
        g = trunc(problem.dirichlet(y, t))
        band += int(np.sum(g != trunc(problem.far_value)))
        y_sum = (np.sum(w_out * trunc(u[~ball])[None, :] ** (p - 1.0), axis=1)
                 + np.sum(w_ext * g[None, :] ** (p - 1.0), axis=1)
                 + w_far * trunc(problem.far_value) ** (p - 1.0))
        total += ((t - t_prev) * np.max(y_sum[phi > 0.0])
                  * np.sum(trunc(u[ball]) * phi ** p) * h ** n)
    return total, band


@pytest.mark.parametrize("name", ["logbdy", "melt1d"])
def test_caccioppoli_tail_matches_the_dense_exterior_sum(name):
    # logbdy's datum differs from the far value near the box, melt1d's nowhere
    pre = load_preset(name, n_nodes=65, n_steps=10)
    traj = solve(pre.problem, pre.solver)
    cyl = Cylinder(pre.anchor[0], pre.anchor[1], pre.rho0, intrinsic_theta(1.0, pre.problem.p))
    rep = caccioppoli_audit(traj, pre.problem.eps, "+", cyl)
    expected, band = dense_tail_term(traj, pre.problem.eps, "+", cyl)
    assert (band > 0) == (name == "logbdy")
    assert rep.tail_term > 0.0
    assert rep.tail_term == pytest.approx(expected, rel=1e-12)


def test_caccioppoli_pair_terms_read_the_operator_table_on_a_diameter_grid():
    # r_infinity equals the box diameter, and the float distance of a
    # corner pair exceeds it: pair_geometry cut 4 box pairs that the
    # operator keeps, and the audit once weighed box pairs with it
    grid = Grid(spacing=0.1, shape=(4, 5), origin=(0.0, 0.2), r_infinity=0.5)
    s, p, hn = 0.5, 3.0, grid.spacing ** 2
    x = grid.coordinates()
    assert np.count_nonzero(pair_geometry(grid, s, p, x, x)[1] == 0.0) == grid.n_nodes + 4

    def field(coords, t):
        return 1.0 - 3.0 * coords[:, 0] - (coords[:, 1] - 0.2)

    u = field(x, 0.0)
    inner = (x[:, 0] > 1e-12) & (x[:, 0] < 0.3 - 1e-12) & (x[:, 1] > 0.2 + 1e-12) \
        & (x[:, 1] < 0.6 - 1e-12)
    problem = LatticeProblem(s=s, p=p, grid=grid, unknown_mask=inner, dirichlet=field,
                             far_value=0.0, initial=u, horizon=0.01, eps=0.05)
    traj = Trajectory(problem, [0.0, 0.01], [u, u], [])
    # about one corner, the ball holds the whole box and the far corner
    cyl = Cylinder(x0=(0.0, 0.2), t0=0.01, rho=0.5, theta=intrinsic_theta(1.0, p))
    rep = caccioppoli_audit(traj, 0.0, "+", cyl)

    # every box pair's weight from the displacement table, by index
    table = OperatorWorkspace(grid, s, p).table
    reach = table.shape[0] // 2
    index = np.indices(grid.shape).reshape(2, -1).T
    k = index[None, :, :] - index[:, None, :] + reach
    w = hn * table[k[..., 0], k[..., 1]]
    q = np.sqrt(np.sum((x - x[0]) ** 2, axis=1)) / (0.8 * cyl.rho)
    phi = np.clip(1.0 - q * q, 0.0, None) ** 2
    above, below = np.clip(u, 0.0, None), np.clip(-u, 0.0, None)
    cut = above * phi
    seminorm = 0.01 * np.sum(w * np.abs(cut[:, None] - cut[None, :]) ** p)
    mixed = 0.01 * np.sum(w * (below ** (p - 1.0))[None, :] * (above * phi ** p)[:, None])
    assert mixed > 0.0
    assert rep.seminorm_term == pytest.approx(seminorm, rel=1e-12)
    assert rep.mixed_term == pytest.approx(mixed, rel=1e-12)


def test_caccioppoli_empty_cylinder(small_melt_traj):
    pre, traj = small_melt_traj
    theta = intrinsic_theta(1.0, pre.problem.p)
    with pytest.raises(EmptyCylinderError, match="no lattice nodes"):
        caccioppoli_audit(traj, 0.1, "+", Cylinder(x0=(50.0,), t0=0.1, rho=0.001, theta=theta))
    with pytest.raises(EmptyCylinderError, match="no stored times"):
        caccioppoli_audit(traj, 0.1, "+", Cylinder(x0=(0.0,), t0=-1.0, rho=0.3, theta=theta))


def test_caccioppoli_degenerate_cutoff(small_melt_traj):
    pre, traj = small_melt_traj
    grid = pre.problem.grid
    # x0 midway between two nodes and rho = 0.55 h: the ball holds the two
    # nodes at 0.5 h, but the cutoff radius 0.8 rho = 0.44 h falls short of both
    x0 = grid.origin[0] + 32.5 * grid.spacing
    cyl = Cylinder(x0=(x0,), t0=pre.problem.horizon, rho=0.55 * grid.spacing,
                   theta=intrinsic_theta(1.0, pre.problem.p))
    with pytest.raises(DegenerateCutoffError):
        caccioppoli_audit(traj, 0.1, "+", cyl)


def test_caccioppoli_rejects_bad_sign(small_melt_traj):
    pre, traj = small_melt_traj
    cyl = Cylinder(x0=(0.0,), t0=pre.problem.horizon, rho=0.3,
                   theta=intrinsic_theta(1.0, pre.problem.p))
    with pytest.raises(InvalidParamsError, match="sign"):
        caccioppoli_audit(traj, 0.1, "x", cyl)


@pytest.mark.parametrize("horizon, dt", [(0.05, 0.005), (0.047, 0.01), (0.01, 0.02)])
def test_stored_times_are_the_times_a_fixed_step_solve_stores(horizon, dt):
    pre = load_preset("melt1d", n_nodes=17, horizon=horizon, eps=0.2)
    config = SolverConfig(dt=dt)
    assert stored_times(horizon, config) == solve(pre.problem, config).times
