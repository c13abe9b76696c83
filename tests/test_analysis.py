"""Intrinsic cylinders, iteration ladders, algebraic lemmas, modulus fitting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlstefan import (
    Cylinder,
    EmptyCylinderError,
    EmptyWindowError,
    InsufficientSamplesError,
    InvalidParamsError,
    IterationParams,
    LatticeProblem,
    NonpositiveExcessError,
    SequenceLevel,
    Trajectory,
    boundary_sequences,
    caccioppoli_audit,
    fit_log_modulus,
    geometric_convergence,
    initial_sequences,
    interior_sequences,
    intrinsic_theta,
    lemma_iter_epsilon,
    lemma_iter_verify,
    level_set_fraction,
    load_preset,
    measure_density,
    modulus_ladder,
    oscillation,
    oscillation_scale,
    sequence_tail_report,
)
from nlstefan.analysis import M, N2, window_rows
from nlstefan.lattice import Grid, tail
from nlstefan.solver import solve


def static_traj(values, dirichlet, lo=-1.0, hi=1.0, far=0.0):
    """One-snapshot trajectory wrapping a hand-built field."""
    n = len(values)
    spacing = (hi - lo) / (n - 1)
    grid = Grid(spacing=spacing, shape=(n,), origin=(lo,), r_infinity=8.0)
    x = grid.coordinates()[:, 0]
    mask = (x > lo + 1e-12) & (x < hi - 1e-12)
    problem = LatticeProblem(
        s=0.5, p=3.0, grid=grid, unknown_mask=mask,
        dirichlet=dirichlet, far_value=far, initial=np.asarray(values, dtype=float),
        horizon=1.0, eps=0.05)
    return Trajectory(problem=problem, times=[0.0],
                      states=[np.asarray(values, dtype=float)], diagnostics=[])


def plane_traj(n=9):
    """One-snapshot trajectory of u = x + y on the 2D box [-1, 1]^2."""
    grid = Grid(spacing=2.0 / (n - 1), shape=(n, n), origin=(-1.0, -1.0), r_infinity=4.0)
    field = lambda x, t: np.atleast_2d(x).sum(axis=1)
    coords = grid.coordinates()
    values = field(coords, 0.0)
    problem = LatticeProblem(
        s=0.5, p=3.0, grid=grid, unknown_mask=np.all(np.abs(coords) < 1.0 - 1e-12, axis=1),
        dirichlet=field, far_value=0.0, initial=values, horizon=1.0, eps=0.05)
    return Trajectory(problem=problem, times=[0.0], states=[values], diagnostics=[])


# ---------------------------------------------------------------- cylinders


def test_intrinsic_theta_values():
    assert intrinsic_theta(1.0, 3.0) == 4.0
    assert intrinsic_theta(1.0, 3.0, boundary=True) == 16.0
    assert intrinsic_theta(4.0, 3.0) == 1.0
    assert intrinsic_theta(4.0, 5.0, boundary=True) == 1.0


def test_cylinder_geometry():
    cyl = Cylinder(x0=(0.0,), t0=2.0, rho=0.5, theta=4.0)
    sp = 1.5
    assert cyl.depth(sp) == 4.0 * 0.5 ** 1.5
    lo, hi = cyl.window(sp)
    assert hi == 2.0 and lo == 2.0 - cyl.depth(sp)
    with pytest.raises(InvalidParamsError):
        Cylinder(x0=(0.0,), t0=0.0, rho=0.0, theta=1.0)
    with pytest.raises(InvalidParamsError):
        Cylinder(x0=(0.0,), t0=0.0, rho=0.1, theta=-1.0)


def test_oscillation_constant_field_is_zero():
    traj = static_traj(np.full(17, 0.4), lambda x, t: np.full(np.atleast_2d(x).shape[0], 0.4))
    assert oscillation(traj, Cylinder((0.0,), 0.0, 0.5, 1.0)) == 0.0


def test_oscillation_linear_field():
    # u = x over the closed ball of radius 4h: sup - inf = 8h exactly
    n = 17
    traj = static_traj(np.linspace(-1.0, 1.0, n), lambda x, t: np.atleast_2d(x)[:, 0])
    h = traj.problem.grid.spacing
    assert oscillation(traj, Cylinder((0.0,), 0.0, 4 * h, 1.0)) == 8 * h
    # nested cylinders give nondecreasing oscillation
    small = oscillation(traj, Cylinder((0.0,), 0.0, 2 * h, 1.0))
    assert small <= 8 * h


def test_oscillation_empty_cylinder():
    traj = static_traj(np.zeros(9), lambda x, t: np.zeros(np.atleast_2d(x).shape[0]))
    with pytest.raises(EmptyCylinderError):
        oscillation(traj, Cylinder((50.0,), 0.0, 0.01, 1.0))
    with pytest.raises(EmptyCylinderError):
        oscillation(traj, Cylinder((0.0,), -5.0, 0.5, 1.0))


@pytest.mark.parametrize("offset,read", [(0.0, True), (-5e-13, True), (-1e-9, False)])
def test_oscillation_and_tail_read_the_same_window(offset, read):
    # a level of ones at t_lo + offset among zero levels: the cylinder's
    # oscillation and the sup and tail of its scale all read it, or none
    # does; the tail used to read the window without the 1e-12 slack of
    # the oscillation
    zero = lambda x, t: np.zeros(np.atleast_2d(x).shape[0])
    traj = static_traj(np.zeros(17), zero)
    cyl = Cylinder((0.0,), 0.5, 0.25, 1.0)
    problem = traj.problem
    window = cyl.window(problem.s * problem.p)
    traj = Trajectory(problem=problem, times=[0.0, window[0] + offset, 0.5],
                      states=[np.zeros(17), np.ones(17), np.zeros(17)], diagnostics=[])
    osc = oscillation(traj, cyl)
    # 2 sup |u| + tail: above 2 only if the tail reads the ones too, and
    # the floor 1 if nothing is read
    scale = oscillation_scale(traj, cyl)
    assert (osc == 1.0, scale > 2.0, scale == 1.0) == (read, read, not read)


def test_window_rows_read_the_closed_window_with_slack():
    times = [0.0, 0.5 - 5e-13, 1.0]
    assert window_rows(times, (0.0, 0.0)).tolist() == [0]
    assert window_rows(times, (0.0, 1.0)).tolist() == [0, 1, 2]
    assert window_rows(times, (0.5, 1.0 - 5e-13)).tolist() == [1, 2]
    assert window_rows(times, (0.5 + 1e-9, 2.0)).tolist() == [2]


def test_window_rows_empty_window():
    with pytest.raises(EmptyWindowError, match=r"no stored samples in window \[2.0, 3.0\]"):
        window_rows([0.0, 1.0], (2.0, 3.0))


def test_cylinder_readers_evaluate_the_datum_only_in_the_window():
    # the datum records every time it is read at: the tail of a cylinder
    # reads the exterior datum at the stored times in its window only
    calls = []

    def datum(x, t):
        calls.append(t)
        return np.zeros(np.atleast_2d(x).shape[0])

    problem = static_traj(np.zeros(17), datum).problem
    times = [0.0, 0.1, 0.2, 0.3, 0.4]
    traj = Trajectory(problem=problem, times=times,
                      states=[np.full(17, t) for t in times], diagnostics=[])
    theta = 0.25 / 0.5 ** (problem.s * problem.p)
    calls.clear()
    oscillation_scale(traj, Cylinder((0.0,), 0.4, 0.5, theta))  # window [0.15, 0.4]
    assert calls == [0.2, 0.3, 0.4]
    # the second window is [0.4 - 0.25 * 0.5^{sp}, 0.4], about [0.31, 0.4]
    levels = [SequenceLevel(0, 0.5, 1.0, theta), SequenceLevel(1, 0.25, 1.0, theta)]
    calls.clear()
    records = sequence_tail_report(traj, levels, ((0.0,), 0.4))
    assert calls == [0.2, 0.3, 0.4]  # once per stored time, not once per level
    assert [r.osc for r in records] == [0.4 - 0.2, 0.0]


def test_level_set_fractions():
    vals = np.concatenate([np.full(4, -1.0), np.full(4, 1.0)])
    traj = static_traj(vals, lambda x, t: np.where(np.atleast_2d(x)[:, 0] > -0.05, 1.0, -1.0),
                       lo=-1.0, hi=0.75, far=1.0)
    cyl = Cylinder((-0.125,), 0.0, 2.0, 1.0)
    below = level_set_fraction(traj, cyl, "below", 0.0)
    above = level_set_fraction(traj, cyl, "above", 0.0)
    assert below == 0.5 and above == 0.5
    assert below + above == 1.0
    assert level_set_fraction(traj, cyl, "below", 2.0) == 1.0
    assert level_set_fraction(traj, cyl, "above", 2.0) == 0.0
    with pytest.raises(InvalidParamsError, match="side"):
        level_set_fraction(traj, cyl, "inside", 0.0)


def test_level_set_fractions_are_complementary_on_the_melt(small_melt_traj):
    pre, traj = small_melt_traj
    cyl = Cylinder((0.0,), pre.problem.horizon, 0.4, 1.0)
    for level in (-0.5, 0.0, 0.5):
        below = level_set_fraction(traj, cyl, "below", level)
        above = level_set_fraction(traj, cyl, "above", level)
        assert below + above == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("x0", [(0.5,), (0.5, 0.5, 0.5)])
def test_anchor_of_the_wrong_dimension_is_rejected(x0):
    # a 1-vector used to broadcast to (x, x) on a 2D grid; a 3-vector raised
    # a bare ValueError and tail an IndexError
    traj = plane_traj()
    problem = traj.problem
    cyl = Cylinder(x0, 0.0, 0.5, 1.0)
    readers = (oscillation, oscillation_scale,
               lambda tr, c: level_set_fraction(tr, c, "below", 0.0),
               lambda tr, c: caccioppoli_audit(tr, 0.0, "+", c))
    for read in readers:
        with pytest.raises(InvalidParamsError, match="2 coordinates"):
            read(traj, cyl)
    with pytest.raises(InvalidParamsError, match="2 coordinates"):
        tail(problem.grid, traj.states, traj.exterior_states(traj.times), problem.far_value,
             x0, 0.5, problem.s, problem.p)
    with pytest.raises(InvalidParamsError, match="2 coordinates"):
        measure_density(problem.grid, problem.unknown_mask, x0, [0.5])
    flat = static_traj(np.zeros(9), lambda x, t: np.zeros(np.atleast_2d(x).shape[0]))
    with pytest.raises(InvalidParamsError, match="1 coordinates"):
        oscillation(flat, Cylinder((0.0, 0.0), 0.0, 0.5, 1.0))


def test_a_missing_anchor_is_rejected():
    # None used to mean the origin of the grid; as a float it is nan
    traj = static_traj(np.zeros(9), lambda x, t: np.zeros(np.atleast_2d(x).shape[0]))
    problem = traj.problem
    with pytest.raises(InvalidParamsError, match="each finite"):
        oscillation(traj, Cylinder(None, 0.0, 0.5, 1.0))
    with pytest.raises(InvalidParamsError, match="each finite"):
        tail(problem.grid, traj.states, traj.exterior_states(traj.times), problem.far_value,
             None, 0.5, problem.s, problem.p)


def test_ladders_default_to_the_origin_of_the_grid_dimension():
    # the default anchor used to be (0.0,) on every grid, an error in 2D;
    # every ladder now takes its anchor explicitly
    traj = plane_traj()
    origin = ((0.0, 0.0), 0.0)
    levels, omega0 = modulus_ladder(traj, origin, 0.5, n_levels=3, shrink=0.5)
    # u = x + y on the ball of radius 0.5 about the origin: the nodes
    # (0.25, 0.25) and (-0.25, -0.25) give sup - inf = 1
    assert levels[0] == (0.5, 1.0)
    params = IterationParams(s=0.5, p=3.0, eps=0.05, omega0=omega0, rho0=0.5)
    seq = interior_sequences(params, n_levels=3)
    assert len(sequence_tail_report(traj, seq, origin)) == len(seq)
    # the lateral and initial ladders read the datum on cylinders about the
    # same origin
    osc_g = lambda cyl: oscillation(traj, cyl)
    for ladder in (boundary_sequences, initial_sequences):
        assert len(ladder(params, osc_g, z0=origin, n_levels=3)) > 1


# ---------------------------------------------------------------- ladders


# the datum oscillations of these ladders are constants, which read no anchor
ANCHOR = ((0.0,), 0.0)


def test_iteration_params_validation():
    with pytest.raises(InvalidParamsError, match="positive"):
        IterationParams(s=0.5, p=3.0, eps=0.0, omega0=1.0, rho0=1.0)
    with pytest.raises(InvalidParamsError, match="exponents"):
        IterationParams(s=1.5, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    params = IterationParams(s=0.5, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    assert params.m == 0.875
    steep = IterationParams(s=0.05, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    assert steep.m == 2.0 ** -0.05


def test_interior_ladder_first_steps():
    params = IterationParams(s=0.5, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    levels = interior_sequences(params)
    assert levels[0].rho == 1.0 and levels[0].omega == 1.0
    assert levels[0].theta == 4.0
    # f1 = 1/N1, f2 = 1 - 1/N2 at omega = omega0
    assert levels[1].rho == 0.25
    assert levels[1].omega == 0.875


@pytest.mark.parametrize("omega0, margin", [(1.0, 0.106), (2.0, 0.212), (10.0, 1.06)])
def test_ladder_constants_satisfy_the_slow_iteration_lemma(omega0, margin):
    # the ladders' oscillation factor 1 - omega^M / (N2 omega0^M) is the
    # lemma's g with (m2, n2, l2) = (M, N2, M)
    verdict = lemma_iter_verify(M, N2, M, omega0)
    assert verdict.passed
    assert verdict.min_margin == pytest.approx(margin, abs=0.005)


def test_interior_ladder_invariants():
    params = IterationParams(s=0.5, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    levels = interior_sequences(params, n_levels=30)
    omegas = np.array([l.omega for l in levels])
    rhos = np.array([l.rho for l in levels])
    assert np.all(np.diff(omegas) < 0.0)
    assert np.all(np.diff(rhos) < 0.0)
    idx = np.arange(len(levels))
    # attrition floor: omega_i >= omega0 2^{-s i} and >= 4 eps
    assert np.all(omegas >= 2.0 ** (-0.5 * idx) - 1e-15)
    assert np.all(omegas >= 4.0 * params.eps)


def test_interior_ladder_stabilizes_at_the_floor():
    params = IterationParams(s=0.5, p=3.0, eps=0.2, omega0=1.0, rho0=1.0)
    levels = interior_sequences(params)
    assert [l.stabilized for l in levels] == [False, False, False, True]
    assert levels[-1].omega == 0.8


def test_boundary_ladder_matches_interior_for_flat_datum():
    params = IterationParams(s=0.5, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    inner = interior_sequences(params, n_levels=10)
    outer = boundary_sequences(params, lambda cyl: 0.0, ANCHOR, n_levels=10)
    assert outer[0].theta == 16.0
    # with omega0 = 1 and flat datum the oscillation recursions coincide
    for a, b in zip(inner, outer):
        assert b.omega == a.omega
    # radius factor carries the extra 1/n0
    assert outer[1].rho == inner[1].rho / 4.0


def test_boundary_ladder_datum_dominant_branch():
    params = IterationParams(s=0.5, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    levels = boundary_sequences(params, lambda cyl: 0.45, ANCHOR, n_levels=5)
    assert [l.omega for l in levels] == [1.0, 0.9, 0.9, 0.9, 0.9]


def test_boundary_ladder_rejects_expanding_radii():
    # datum oscillation above the initial bound would grow the cylinders
    params = IterationParams(s=0.5, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    with pytest.raises(InvalidParamsError, match="nesting"):
        boundary_sequences(params, lambda cyl: 10.0, ANCHOR, n_levels=5)


def test_initial_ladder_attrition():
    params = IterationParams(s=0.5, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    levels = initial_sequences(params, lambda cyl: 0.0, ANCHOR, n_levels=6)
    for i, lev in enumerate(levels):
        assert lev.omega == 0.875 ** i
        assert lev.rho == 4.0 ** (-i)


def test_initial_ladder_datum_dominant():
    params = IterationParams(s=0.5, p=3.0, eps=0.01, omega0=1.0, rho0=1.0)
    levels = initial_sequences(params, lambda cyl: 1.0, ANCHOR, n_levels=6)
    assert [l.omega for l in levels] == [1.0, 2.0, 2.0, 2.0, 2.0, 2.0]


# ---------------------------------------------------------------- lemma: slow iteration


def test_lemma_epsilon_closed_form():
    assert lemma_iter_epsilon(4.0, 4.0, 4.0) == pytest.approx(
        0.011735643881643061, rel=1e-15)
    q = 4.0 * 4.0 * math.sqrt(15.0)
    assert lemma_iter_epsilon(4.0, 4.0, 4.0) == 0.5 * min(
        0.125, math.log2(q / (q - 1.0)))
    # larger n2 shrinks the admissible exponent
    assert lemma_iter_epsilon(4.0, 8.0, 4.0) < lemma_iter_epsilon(4.0, 4.0, 4.0)
    assert 0.0 < lemma_iter_epsilon(16.0, 16.0, 16.0) < 1.0


def test_lemma_epsilon_validation():
    with pytest.raises(InvalidParamsError, match="at least 4"):
        lemma_iter_epsilon(3.0, 4.0, 4.0)
    with pytest.raises(InvalidParamsError, match="l2 must dominate"):
        lemma_iter_epsilon(8.0, 4.0, 4.0)


@pytest.mark.parametrize("m2,n2,l2", [(4.0, 4.0, 4.0), (4.0, 8.0, 8.0), (8.0, 4.0, 16.0)])
@pytest.mark.parametrize("omega0", [1.0, 2.0, 10.0])
def test_lemma_iteration_holds_at_the_closed_form(m2, n2, l2, omega0):
    verdict = lemma_iter_verify(m2, n2, l2, omega0, n_max=10 ** 4)
    assert verdict.passed
    assert verdict.first_violation is None
    assert verdict.min_margin >= 0.0


def test_lemma_iteration_doubled_exponent_keeps_slack():
    # the closed form is far from sharp: doubling it stays admissible
    eps2 = 2.0 * lemma_iter_epsilon(4.0, 8.0, 4.0)
    verdict = lemma_iter_verify(4.0, 8.0, 4.0, 2.0, n_max=10 ** 4, epsilon=eps2)
    assert verdict.passed


@pytest.mark.parametrize("n2", [4.0, 8.0, 16.0])
@pytest.mark.parametrize("omega0", [1.0, 5.0])
def test_lemma_iteration_sharp_bound_fails_at_once(n2, omega0):
    # above log2(n2/(n2-1)) the n = 1 inequality flips, whatever omega0 is
    eps_bad = 1.05 * math.log2(n2 / (n2 - 1.0))
    verdict = lemma_iter_verify(4.0, n2, 4.0, omega0, n_max=100, epsilon=eps_bad)
    assert not verdict.passed
    assert verdict.first_violation == 1


# ---------------------------------------------------------------- lemma: geometric decay


def test_geometric_decay_matches_the_certificate():
    rep = geometric_convergence(2.0, 2.0, 1.0, 0.25, n_max=60)
    assert rep.threshold == 0.25
    assert rep.at_threshold
    assert rep.within_certificate is True
    assert rep.bounded and not rep.diverged
    ref = 0.25 * 2.0 ** -np.arange(21)
    np.testing.assert_allclose(rep.values[:21], ref, rtol=1e-12)


def test_geometric_decay_zero_start():
    rep = geometric_convergence(2.0, 2.0, 1.0, 0.0)
    assert np.all(rep.values == 0.0)
    assert rep.within_certificate is True and rep.bounded


def test_geometric_decay_b_one_gives_boundedness():
    rep = geometric_convergence(2.0, 1.0, 1.0, 0.5, n_max=50)
    assert rep.boundedness_only
    assert rep.within_certificate is None
    assert rep.bounded
    np.testing.assert_allclose(rep.values, 0.5, rtol=1e-12)
    above = geometric_convergence(1.0, 1.0, 1.0, 1.2, n_max=100)
    assert above.diverged and not above.bounded


def test_geometric_decay_above_threshold_diverges():
    rep = geometric_convergence(1.0, 2.0, 1.0, 0.75, n_max=200)
    assert not rep.at_threshold
    assert rep.within_certificate is None
    assert rep.diverged


@pytest.mark.parametrize("c, b, alpha, a0", [
    # the threshold is 2^-2 2^-4 = 1/64 for the first four, 3^-2 for b = 1
    (2.0, 2.0, 0.5, 0.005), (2.0, 2.0, 0.5, 1.0 / 64.0), (2.0, 2.0, 0.5, 0.03),
    (2.0, 2.0, 0.5, 0.0), (3.0, 1.0, 0.5, 0.1)],
    ids=["below", "at", "above", "zero", "b-one"])
def test_geometric_decay_values_follow_the_recursion(c, b, alpha, a0):
    # log A_{i+1} = log c + i log b + (1 + alpha) log A_i, iterated directly;
    # 20 steps amplify its rounding by at most 1.5^20
    n_max = 20
    rep = geometric_convergence(c, b, alpha, a0, n_max=n_max)
    log_a = [math.log(a0) if a0 > 0.0 else -math.inf]
    for i in range(n_max):
        log_a.append(math.log(c) + i * math.log(b) + (1.0 + alpha) * log_a[-1])
    kept = rep.values.size
    assert kept == n_max + 1 or (log_a[kept - 1] > 300.0 and max(log_a[1:kept - 1]) <= 300.0)
    np.testing.assert_allclose(rep.values, np.exp(log_a[:kept]), rtol=1e-10, atol=0.0)


def _params(**changes):
    return IterationParams(**{"s": 0.5, "p": 3.0, "eps": 0.01, "omega0": 1.0, "rho0": 1.0,
                              **changes})


@pytest.mark.parametrize("call", [
    lambda: _params(omega0=math.inf), lambda: _params(p=math.inf),
    lambda: geometric_convergence(math.nan, 2.0, 1.0, 0.1),
    lambda: geometric_convergence(2.0, math.inf, 1.0, 0.1),
    lambda: geometric_convergence(2.0, 2.0, math.nan, 0.1),
    lambda: geometric_convergence(2.0, 2.0, 1.0, math.inf),
    lambda: lemma_iter_verify(4.0, math.nan, 4.0, 1.0),
    lambda: lemma_iter_verify(4.0, 8.0, 4.0, math.inf),
    lambda: intrinsic_theta(0.0, 3.0)],
    ids=["omega0-inf", "p-inf", "c-nan", "b-inf", "alpha-nan", "a0-inf",
         "lemma-n2-nan", "lemma-omega0-inf", "theta-omega-zero"])
def test_non_finite_lemma_constants_are_rejected(call):
    # c = nan gave a NaN threshold, b = inf a raw ZeroDivisionError, and a
    # NaN n2 or an infinite omega0 passed the iteration lemma with a NaN
    # margin; intrinsic_theta at omega = 0 raised a raw ZeroDivisionError
    with pytest.raises(InvalidParamsError, match="finite|exponents"):
        call()


def test_geometric_decay_validation():
    with pytest.raises(InvalidParamsError, match="c >= 1 and b >= 1"):
        geometric_convergence(0.5, 2.0, 1.0, 0.1)
    with pytest.raises(InvalidParamsError, match="alpha"):
        geometric_convergence(2.0, 2.0, 0.0, 0.1)
    with pytest.raises(InvalidParamsError, match="alpha"):
        geometric_convergence(2.0, 2.0, 1.0, -0.1)


@pytest.mark.parametrize("c, b, alpha, a0", [(1.0, 2.0, 0.01, 0.5), (1e300, 1.0, 0.001, 0.5)])
def test_geometric_decay_threshold_underflow_is_an_invalid_parameter(c, b, alpha, a0):
    # 2^{-10^4} and 10^{-3 10^5} round to 0, and a0 / 0 raised a ZeroDivisionError
    with pytest.raises(InvalidParamsError, match="underflows to 0"):
        geometric_convergence(c, b, alpha, a0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=5.0),
    st.floats(min_value=1.0 + 1e-9, max_value=4.0),
    st.floats(min_value=0.2, max_value=2.0),
)
def test_geometric_decay_certificate_random_thresholds(c, b, alpha):
    a0 = c ** (-1.0 / alpha) * b ** (-1.0 / alpha ** 2)
    rep = geometric_convergence(c, b, alpha, a0, n_max=500)
    assert rep.at_threshold
    assert rep.within_certificate is True


# ---------------------------------------------------------------- measure density


def test_measure_density_half_line():
    pre = load_preset("melt1d", n_nodes=65)
    grid = pre.problem.grid
    x = grid.coordinates()[:, 0]
    omega = x > 1e-12
    h = grid.spacing
    rep = measure_density(grid, omega, (0.0,), [4 * h, 8 * h], alpha0=0.25)
    assert rep.fractions == [5.0 / 9.0, 9.0 / 17.0]
    assert rep.min_fraction == 9.0 / 17.0
    assert rep.passed is True


def test_measure_density_flags_interior_anchor():
    pre = load_preset("melt1d", n_nodes=65)
    grid = pre.problem.grid
    h = grid.spacing
    omega = np.ones(grid.n_nodes, dtype=bool)
    omega[0] = omega[-1] = False
    rep = measure_density(grid, omega, (0.0,), [2 * h, 4 * h], alpha0=0.25)
    assert rep.min_fraction == 0.0
    assert rep.passed is False


def brute_force_density(grid, mask, x0, r):
    """Fraction of the lattice points origin + k h in the closed ball
    B_r(x0) (relative slack 1e-12) that are not box nodes flagged by mask,
    counted point by point."""
    h = grid.spacing
    reach = int(r / h) + 2
    centre = [round((x0[d] - grid.origin[d]) / h) for d in range(grid.dimension)]
    total = outside = 0
    for k in itertools.product(*(range(c - reach, c + reach + 1) for c in centre)):
        point = [grid.origin[d] + h * k[d] for d in range(grid.dimension)]
        if math.dist(point, x0) > r * (1.0 + 1e-12):
            continue
        total += 1
        in_box = all(0 <= k[d] < grid.shape[d] for d in range(grid.dimension))
        outside += not (in_box and mask[np.ravel_multi_index(k, grid.shape)])
    return outside / total


@pytest.mark.parametrize("dimension", [1, 2])
def test_measure_density_matches_a_brute_force_count(dimension, rng):
    shape, origin = ((17,), (-1.0,)) if dimension == 1 else ((9, 13), (-0.5, -0.75))
    grid = Grid(spacing=0.125, shape=shape, origin=origin, r_infinity=4.0)
    mask = rng.random(grid.n_nodes) < 0.6
    h = grid.spacing
    # a node, an off-lattice point, and a point outside the box
    anchors = [grid.coordinates()[grid.n_nodes // 3],
               np.asarray(origin) + np.array([2.3, 4.7][:dimension]) * h,
               np.asarray(origin) - 0.3]
    # lattice radii (with nodes on the sphere), an off-lattice radius, and
    # radii past the box
    radii = [h, 5 * h, 2.7 * h, 0.61, 2.0]
    for x0 in anchors:
        rep = measure_density(grid, mask, x0, radii)
        assert rep.fractions == [brute_force_density(grid, mask, x0, r) for r in radii]


def test_measure_density_validation():
    pre = load_preset("melt1d", n_nodes=17)
    grid = pre.problem.grid
    omega = np.ones(grid.n_nodes, dtype=bool)
    with pytest.raises(InvalidParamsError, match="match the grid"):
        measure_density(grid, omega[:-1], (0.0,), [0.1])
    with pytest.raises(InvalidParamsError, match="radii"):
        measure_density(grid, omega, (0.0,), [0.0])
    # an infinite radius used to raise OverflowError
    with pytest.raises(InvalidParamsError, match="radii must be positive and finite"):
        measure_density(grid, omega, (0.0,), [math.inf])


# ---------------------------------------------------------------- modulus fit


def test_fit_recovers_a_synthetic_modulus():
    c, vs, eps, rho0 = 0.7, 1.3, 0.01, 0.5
    rs = rho0 * 0.7 ** np.arange(8)
    oscs = c * (1.0 + np.log(rho0 / rs)) ** (-vs / 2.0) + 4.0 * eps
    rep = fit_log_modulus(list(zip(rs, oscs)), eps, rho0)
    assert rep.c == pytest.approx(c, rel=1e-12)
    assert rep.varsigma == pytest.approx(vs, rel=1e-12)
    assert rep.residual < 1e-12
    assert rep.n_samples == 8


def test_fit_constant_excess_gives_zero_exponent():
    eps, rho0 = 0.01, 0.5
    rs = rho0 * 0.5 ** np.arange(5)
    oscs = np.full(5, 0.3 + 4.0 * eps)
    rep = fit_log_modulus(list(zip(rs, oscs)), eps, rho0)
    assert rep.varsigma == pytest.approx(0.0, abs=1e-12)
    assert rep.c == pytest.approx(0.3, rel=1e-12)


def test_fit_discards_floor_samples():
    eps, rho0 = 0.05, 0.5
    rs = rho0 * 0.5 ** np.arange(6)
    oscs = 0.4 * (1.0 + np.log(rho0 / rs)) ** -0.5 + 4.0 * eps
    oscs[-2:] = 4.0 * eps  # at the floor: dropped
    rep = fit_log_modulus(list(zip(rs, oscs)), eps, rho0)
    assert rep.n_samples == 4


def test_fit_error_modes():
    eps, rho0 = 0.05, 0.5
    with pytest.raises(NonpositiveExcessError):
        fit_log_modulus([(0.5, 0.2), (0.25, 0.2), (0.125, 0.1)], eps, rho0)
    with pytest.raises(InsufficientSamplesError, match="at least 3"):
        fit_log_modulus([(0.5, 1.0), (0.25, 0.9), (0.125, 4 * eps)], eps, rho0)
    with pytest.raises(InvalidParamsError, match="rho0"):
        fit_log_modulus([(0.6, 1.0), (0.25, 0.9), (0.125, 0.8)], eps, rho0)
    with pytest.raises(InsufficientSamplesError, match="distinct"):
        fit_log_modulus([(0.5, 1.0), (0.5, 0.9), (0.5, 0.8)], eps, rho0)


# ---------------------------------------------------------------- trajectory ladders


def test_modulus_ladder_radii_and_monotonicity(small_melt_traj):
    pre, traj = small_melt_traj
    levels, omega0 = modulus_ladder(traj, ((0.0,), pre.problem.horizon), 0.3,
                                    n_levels=5, shrink=0.7)
    radii = [r for r, _ in levels]
    np.testing.assert_allclose(radii, 0.3 * 0.7 ** np.arange(5), rtol=1e-15)
    oscs = [o for _, o in levels]
    assert all(a >= b for a, b in zip(oscs, oscs[1:]))
    assert omega0 >= 1.0


def test_oscillation_scale_floor():
    pre = load_preset("const1d", value=0.3)
    traj = solve(pre.problem, pre.solver)
    scale = oscillation_scale(traj, Cylinder((0.0,), pre.problem.horizon, 0.4, 1.0))
    assert scale == 1.0


def test_sequence_tail_report_constant_solution():
    pre = load_preset("const1d", value=0.3)
    traj = solve(pre.problem, pre.solver)
    params = IterationParams(s=0.5, p=3.0, eps=0.05, omega0=1.0, rho0=0.4)
    levels = interior_sequences(params, n_levels=4)
    recs = sequence_tail_report(traj, levels, ((0.0,), pre.problem.horizon))
    for rec in recs:
        assert rec.osc == 0.0
        assert rec.tail_plus == 0.0 and rec.tail_minus == 0.0
        assert rec.ratio == 0.0


def test_sequence_tail_report_reads_each_stored_time_once(small_melt_traj, monkeypatch):
    # the nested windows all end at t0, so a read per level repeated the
    # latest stored times once for every level that holds them
    pre, traj = small_melt_traj
    calls = []
    read = LatticeProblem.exterior_values

    def counted(problem, t):
        calls.append(t)
        return read(problem, t)

    monkeypatch.setattr(LatticeProblem, "exterior_values", counted)
    params = IterationParams(s=0.5, p=3.0, eps=pre.problem.eps, omega0=4.0, rho0=0.3)
    levels = interior_sequences(params, n_levels=6)
    z0 = ((0.0,), pre.problem.horizon)
    windows = [Cylinder(z0[0], z0[1], lev.rho, lev.theta).window(0.5 * 3.0) for lev in levels]
    held = [{t for t in traj.times if lo - 1e-12 <= t <= hi + 1e-12} for lo, hi in windows]
    assert sum(map(len, held)) > len(set.union(*held))
    sequence_tail_report(traj, levels, z0)
    assert sorted(calls) == sorted(set.union(*held))


def test_sequence_tail_report_bounded_ratios(small_melt_traj):
    pre, traj = small_melt_traj
    params = IterationParams(s=0.5, p=3.0, eps=pre.problem.eps, omega0=4.0, rho0=0.3)
    levels = interior_sequences(params, n_levels=6)
    recs = sequence_tail_report(traj, levels, ((0.0,), pre.problem.horizon))
    assert len(recs) == 6
    for rec in recs:
        assert np.isfinite(rec.ratio)
        assert 0.0 <= rec.ratio <= 0.5
        assert rec.osc <= rec.omega + 1e-12
