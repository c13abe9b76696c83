"""Lattice operator: collocation sums, tail quadrature, field IO."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlstefan import (
    Grid,
    InvalidExponentError,
    InvalidParamsError,
    LatticeProblem,
    OperatorWorkspace,
    SolverConfig,
    check_exponents,
    energy_history,
    load_preset,
    phi_p,
    solve,
    space_time_bump,
    structural_audit,
    tail,
    weak_residual,
)
from nlstefan import lattice
from nlstefan.lattice import pair_geometry
from nlstefan.solver import _Stepper
from nlstefan.fileio import read_field_csv, write_field_csv


def line_grid(n=9, h=0.25, origin=0.0, r_inf=100.0):
    return Grid(spacing=h, shape=(n,), origin=(origin,), r_infinity=r_inf)


# ---------------------------------------------------------------- exponents


@pytest.mark.parametrize(
    "s,p,msg",
    [
        (0.0, 3.0, "s must lie in"),
        (1.0, 3.0, "s must lie in"),
        (-0.2, 3.0, "s must lie in"),
        (0.5, 2.0, "p must exceed 2"),
        (0.5, 1.5, "p must exceed 2"),
    ],
)
def test_exponent_validation(s, p, msg):
    with pytest.raises(InvalidExponentError, match=msg):
        check_exponents(s, p)


def test_exponents_in_range_pass():
    check_exponents(0.5, 3.0)
    check_exponents(0.01, 2.0001)


def test_phi_p_is_odd_power():
    assert phi_p(2.0, 3.0) == 4.0
    assert phi_p(-2.0, 3.0) == -4.0
    assert phi_p(0.0, 3.0) == 0.0
    # p = 4: |tau|^2 tau
    assert phi_p(-3.0, 4.0) == -27.0


# ---------------------------------------------------------------- grid


def test_grid_validation():
    with pytest.raises(InvalidParamsError, match="dimensions 1 and 2"):
        Grid(spacing=1.0, shape=(3, 3, 3), origin=(0.0, 0.0, 0.0), r_infinity=100.0)
    with pytest.raises(InvalidParamsError, match="disagree"):
        Grid(spacing=1.0, shape=(3, 3), origin=(0.0,), r_infinity=100.0)
    with pytest.raises(InvalidParamsError, match="spacing"):
        Grid(spacing=0.0, shape=(3,), origin=(0.0,), r_infinity=100.0)
    with pytest.raises(InvalidParamsError, match="two nodes"):
        Grid(spacing=1.0, shape=(1,), origin=(0.0,), r_infinity=100.0)
    with pytest.raises(InvalidParamsError, match="cover the box diameter"):
        Grid(spacing=1.0, shape=(5,), origin=(0.0,), r_infinity=2.0)


@pytest.mark.parametrize("shape", [(21.0,), (21.5,), ("21",)])
def test_grid_rejects_a_non_integer_node_count(shape):
    # a float count used to pass and then fail in np.indices with a TypeError
    with pytest.raises(InvalidParamsError, match="integer node counts"):
        Grid(spacing=0.1, shape=shape, origin=(0.0,), r_infinity=3.0)


def test_grid_stores_lists_as_hashable_tuples():
    # lists used to reach the lattice caches and fail there as unhashable
    grid = Grid(spacing=0.1, shape=[np.int64(21)], origin=[np.float32(0.5)], r_infinity=3.0)
    assert grid.shape == (21,) and type(grid.shape[0]) is int
    assert grid.origin == (0.5,) and type(grid.origin[0]) is float
    assert grid == Grid(spacing=0.1, shape=(21,), origin=(0.5,), r_infinity=3.0)
    ws = OperatorWorkspace(grid, 0.5, 3.0)
    assert ws.apply(np.zeros(21), None, None).shape == (21,)


@pytest.mark.parametrize("field,value", [
    ("spacing", np.inf), ("origin", (np.nan,)), ("origin", (-np.inf,)),
    ("r_infinity", np.nan), ("r_infinity", np.inf)])
def test_grid_rejects_non_finite_geometry(field, value):
    # an infinite or NaN r_infinity used to pass and then fail in math.ceil
    # when a problem was built; a NaN origin surfaced as a NaN Newton residual
    params = dict(spacing=0.25, shape=(9,), origin=(0.0,), r_infinity=100.0)
    params[field] = value
    with pytest.raises(InvalidParamsError, match="must be finite"):
        Grid(**params)


@pytest.mark.parametrize("field,value", [("spacing", "0.1"), ("r_infinity", None),
                                         ("origin", ("0.5",))])
def test_grid_rejects_geometry_that_is_not_a_number(field, value):
    # these used to fail in math.isfinite with a raw TypeError; a string
    # origin used to pass through float() as a number
    params = dict(spacing=0.25, shape=(9,), origin=(0.0,), r_infinity=100.0)
    params[field] = value
    with pytest.raises(InvalidParamsError, match=f"{field} must be real numbers"):
        Grid(**params)


def test_grid_geometry():
    g = Grid(spacing=0.5, shape=(3, 5), origin=(-1.0, 0.0), r_infinity=10.0)
    assert g.dimension == 2
    assert g.n_nodes == 15
    assert g.diameter == pytest.approx(np.hypot(1.0, 2.0), rel=1e-15)
    coords = g.coordinates()
    assert coords.shape == (15, 2)
    assert tuple(coords[0]) == (-1.0, 0.0)
    assert tuple(coords[-1]) == (0.0, 2.0)
    ext = g.exterior_coordinates()
    # all exterior nodes live off the box
    on_box = (
        (ext[:, 0] >= -1.0) & (ext[:, 0] <= 0.0)
        & (ext[:, 1] >= 0.0) & (ext[:, 1] <= 2.0)
    )
    # lattice alignment: off-box means at least one index outside the range
    assert not np.any(
        on_box
        & (np.abs((ext[:, 0] + 1.0) / 0.5 - np.round((ext[:, 0] + 1.0) / 0.5)) < 1e-9)
        & (np.abs(ext[:, 1] / 0.5 - np.round(ext[:, 1] / 0.5)) < 1e-9)
    )


# ---------------------------------------------------------------- operator


def test_operator_on_constant_is_zero():
    g = line_grid()
    ws = OperatorWorkspace(g, 0.5, 3.0)
    v = np.full(g.n_nodes, 0.7)
    ext = np.full(g.exterior_coordinates().shape[0], 0.7)
    out = ws.apply(v, ext, 0.7)
    assert np.all(out == 0.0)


def test_operator_on_constant_is_zero_2d():
    g = Grid(spacing=0.5, shape=(4, 4), origin=(0.0, 0.0), r_infinity=50.0)
    ext = np.full(g.exterior_coordinates().shape[0], -1.2)
    out = OperatorWorkspace(g, 0.4, 2.5).apply(np.full(16, -1.2), ext, -1.2)
    assert np.all(out == 0.0)


def test_five_node_spike_oracle():
    # hand sum: center sees 2 * (phi(1)/1^{2.5} + phi(1)/2^{2.5}) with h = 1
    g = Grid(spacing=1.0, shape=(5,), origin=(0.0,), r_infinity=100.0)
    v = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    ws = OperatorWorkspace(g, 0.5, 3.0)
    out = ws.apply(v, None, None)
    expected = np.array(
        [-(2.0 ** -2.5), -1.0, 2.0 * (1.0 + 2.0 ** -2.5), -1.0, -(2.0 ** -2.5)]
    )
    np.testing.assert_allclose(out, expected, rtol=1e-13)
    assert out[2] == pytest.approx(2.353553390593274, rel=1e-13)


def test_two_d_spike_oracle():
    # 3x3 spike: 4 side neighbours at distance 1, 4 corners at sqrt(2)
    g = Grid(spacing=1.0, shape=(3, 3), origin=(0.0, 0.0), r_infinity=100.0)
    v = np.zeros(9)
    v[4] = 1.0
    ws = OperatorWorkspace(g, 0.5, 3.0)
    out = ws.apply(v, None, None)
    assert out[4] == pytest.approx(4.0 + 4.0 * 2.0 ** -1.75, rel=1e-13)


def test_odd_field_vanishes_at_the_center():
    g = line_grid(n=9, h=1.0, origin=-4.0)
    v = g.coordinates()[:, 0] ** 3
    ws = OperatorWorkspace(g, 0.5, 3.0)
    out = ws.apply(v, None, None)
    assert out[4] == 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=7, max_size=7)
)
def test_operator_is_odd(vals):
    g = line_grid(n=7)
    ws = OperatorWorkspace(g, 0.6, 3.5)
    v = np.asarray(vals)
    plus = ws.apply(v, None, None)
    minus = ws.apply(-v, None, None)
    assert np.array_equal(minus, -plus)


def test_translation_equivariance():
    g = line_grid(n=9, h=0.25, origin=0.0, r_inf=10.0)
    g2 = replace(g, origin=(-0.5,))
    rng = np.random.default_rng(7)
    v = rng.uniform(-1.0, 1.0, g.n_nodes)
    out1 = OperatorWorkspace(g, 0.5, 3.0).apply(
        v, np.cos(g.exterior_coordinates()[:, 0]), 0.3)
    out2 = OperatorWorkspace(g2, 0.5, 3.0).apply(
        v, np.cos(g2.exterior_coordinates()[:, 0] + 0.5), 0.3)
    assert np.array_equal(out1, out2)


def test_monotone_dependence_on_neighbours():
    # raising one neighbour strictly lowers the value here and raises it there
    g = line_grid(n=9)
    rng = np.random.default_rng(3)
    v = rng.uniform(-1.0, 1.0, g.n_nodes)
    ws = OperatorWorkspace(g, 0.5, 3.0)
    base = ws.apply(v, None, None)
    for j in (0, 3, 8):
        bumped = v.copy()
        bumped[j] += 0.5
        out = ws.apply(bumped, None, None)
        assert out[4] < base[4] if j != 4 else True
        assert out[j] > base[j]


def test_far_field_closure_matches_radial_integral():
    # constant field at value a against far datum 0: every pair term dies
    # and only the analytic closure phi_p(a) sigma_1 R^{-sp}/(sp) survives
    g = line_grid(n=5, h=0.5, r_inf=8.0)
    ws = OperatorWorkspace(g, 0.5, 3.0)
    a = 1.7
    v = np.full(g.n_nodes, a)
    ext = np.full(g.exterior_coordinates().shape[0], a)
    out = ws.apply(v, ext, 0.0)
    expected = phi_p(a, 3.0) * 2.0 * 8.0 ** -1.5 / 1.5
    np.testing.assert_allclose(out, expected, rtol=1e-13)


def test_far_field_closure_at_sp_equal_to_dimension():
    # sp = n = 1: the closure phi_p(a) sigma_1 R^{-sp}/(sp) stays finite
    g = line_grid(n=5, h=0.5, r_inf=8.0)
    ws = OperatorWorkspace(g, 1.0 / 3.0, 3.0)
    a = 1.7
    v = np.full(g.n_nodes, a)
    ext = np.full(g.exterior_coordinates().shape[0], a)
    out = ws.apply(v, ext, 0.0)
    np.testing.assert_allclose(out, phi_p(a, 3.0) * 2.0 / 8.0, rtol=1e-13)


def test_pair_energy_gradient_matches_operator():
    # d/dv_i energy = h^n (L v)_i, checked by central differences
    g = line_grid(n=7, h=0.5, r_inf=20.0)
    ws = OperatorWorkspace(g, 0.5, 3.0)
    rng = np.random.default_rng(11)
    v = rng.uniform(-1.0, 1.0, g.n_nodes)
    ext = np.cos(g.exterior_coordinates()[:, 0])
    hn = g.spacing ** g.dimension
    lv = ws.apply(v, ext, 0.2)
    step = 1e-6
    for i in range(g.n_nodes):
        vp, vm = v.copy(), v.copy()
        vp[i] += step
        vm[i] -= step
        ep = ws.pair_energy(vp, ext, 0.2)
        em = ws.pair_energy(vm, ext, 0.2)
        fd = (ep - em) / (2.0 * step)
        assert fd == pytest.approx(hn * lv[i], rel=1e-6, abs=1e-9)


def test_test_pairing_matches_gradient_inner_product():
    # pairing with q equals sum_i q_i h^n (L v)_i when q vanishes off the box
    g = line_grid(n=7, h=0.5, r_inf=20.0)
    ws = OperatorWorkspace(g, 0.5, 3.0)
    rng = np.random.default_rng(13)
    v = rng.uniform(-1.0, 1.0, g.n_nodes)
    q = rng.uniform(-1.0, 1.0, g.n_nodes)
    ext = np.sin(g.exterior_coordinates()[:, 0])
    hn = g.spacing ** g.dimension
    lv = ws.apply(v, ext, -0.4)
    form = ws.test_pairing(v, ext, -0.4, q)
    assert form == pytest.approx(hn * float(np.dot(q, lv)), rel=1e-12)


# ---------------------------------------------------------------- exterior fold


def dense_exterior_reference(grid, scale, s, p, v, q, ext, far):
    """Operator, energy, pairing, Jacobian row sums and the box pairs'
    derivative (p - 1) w_ij |v_i - v_j|^{p-2}, with every exterior column
    summed explicitly, built from the weight formula alone."""
    n, sp, h = grid.dimension, s * p, grid.spacing
    x, y = grid.coordinates(), grid.exterior_coordinates()

    def weights(a, b):
        d = np.sqrt(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2))
        w = np.where(d > 0.0, h ** n / np.where(d > 0.0, d, 1.0) ** (n + sp), 0.0)
        return d, scale * w

    _, w_box = weights(x, x)
    d_ext, w_ext = weights(x, y)
    w_ext[d_ext > grid.r_infinity] = 0.0
    sphere = 2.0 if n == 1 else 2.0 * np.pi
    w_far = scale * sphere * grid.r_infinity ** (-sp) / sp
    db, de, df = v[:, None] - v[None, :], v[:, None] - ext[None, :], v - far
    apply_ = (np.sum(w_box * phi_p(db, p), axis=1) + np.sum(w_ext * phi_p(de, p), axis=1)
              + w_far * phi_p(df, p))
    energy = h ** n * (np.sum(w_box * np.abs(db) ** p) / (2.0 * p)
                       + np.sum(w_ext * np.abs(de) ** p) / p + np.sum(w_far * np.abs(df) ** p) / p)
    pairing = h ** n * (0.5 * np.sum(w_box * phi_p(db, p) * (q[:, None] - q[None, :]))
                        + np.sum(w_ext * phi_p(de, p) * q[:, None])
                        + np.sum(w_far * phi_p(df, p) * q))
    rows = (p - 1.0) * (np.sum(w_box * np.abs(db) ** (p - 2.0), axis=1)
                        + np.sum(w_ext * np.abs(de) ** (p - 2.0), axis=1)
                        + w_far * np.abs(df) ** (p - 2.0))
    box_pairs = (p - 1.0) * w_box * np.abs(db) ** (p - 2.0)
    return apply_, energy, pairing, rows, box_pairs


def dense_jacobian(stepper, v, dt, ext, far):
    """The Newton matrix at v that the stepper hands to the CG, as a matrix."""
    sums = stepper.ws.evaluate(v, stepper.ws.exterior(ext, far))
    diagonal, coupling = stepper.jacobian(v, dt, sums)
    jac = -coupling * sums.conductance[np.ix_(stepper.mask, stepper.mask)]
    jac[np.diag_indices_from(jac)] = diagonal
    return jac


FAR = 0.6
DATA = {
    "empty-band": lambda x, t: np.full(x.shape[0], FAR),
    # logbdy-like: off the far value only near the box, on a band that shrinks in time
    "partial-band": lambda x, t: FAR - 0.8 * np.clip(1.9 - np.linalg.norm(x, axis=1) - t,
                                                      0.0, None),
    "full-band": lambda x, t: FAR + 0.3 + 0.2 * np.cos(x[:, 0] + t),
    "constant-off-far": lambda x, t: np.full(x.shape[0], FAR - 0.4),
}
GRIDS = {
    1: Grid(spacing=0.25, shape=(9,), origin=(-1.0,), r_infinity=3.0),
    2: Grid(spacing=0.5, shape=(5, 5), origin=(-1.0, -1.0), r_infinity=3.0),
}
KERNEL_SCALES = {
    "constant": 1.3,
}


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_SCALES))
@pytest.mark.parametrize("datum", sorted(DATA))
@pytest.mark.parametrize("dim", sorted(GRIDS))
def test_exterior_fold_matches_the_dense_sum(dim, datum, kernel_name):
    grid, g, scale = GRIDS[dim], DATA[datum], KERNEL_SCALES[kernel_name]
    s, p, dt = 0.45, 3.2, 0.01
    x = grid.coordinates()
    mask = np.all(np.abs(x) < 1.0 - 1e-9, axis=1)
    problem = LatticeProblem(s=s, p=p, grid=grid, unknown_mask=mask, dirichlet=g,
                             far_value=FAR, initial=g(x, 0.0), horizon=1.0, eps=0.1,
                             kernel_scale=scale)
    stepper = _Stepper(problem, SolverConfig(dt=dt))
    ws = stepper.ws
    rng = np.random.default_rng([dim, len(datum)])
    band_sizes = set()
    # two levels on one workspace: the band changes
    for t in (0.0, 0.3):
        v = rng.uniform(-1.0, 1.0, grid.n_nodes)
        q = rng.uniform(-1.0, 1.0, grid.n_nodes)
        ext = g(grid.exterior_coordinates(), t)
        band_sizes.add(int(np.sum(ext != FAR)))
        apply_, energy, pairing, rows, box_pairs = dense_exterior_reference(
            grid, scale, s, p, v, q, ext, FAR)
        np.testing.assert_allclose(ws.apply(v, ext, FAR), apply_, rtol=1e-13)
        assert ws.pair_energy(v, ext, FAR) == pytest.approx(energy, rel=1e-13)
        assert ws.test_pairing(v, ext, FAR, q) == pytest.approx(pairing, rel=1e-13)
        expected = -dt * box_pairs[np.ix_(mask, mask)]
        expected[np.diag_indices_from(expected)] = (
            problem.enthalpy.b_prime(v[mask]) + dt * rows[mask])
        np.testing.assert_allclose(dense_jacobian(stepper, v, dt, ext, FAR), expected,
                                   rtol=1e-13)
    n_ext = grid.exterior_coordinates().shape[0]
    if datum == "empty-band":
        assert band_sizes == {0}
    elif datum == "partial-band":
        assert 0 < min(band_sizes) < max(band_sizes) < n_ext
    else:
        assert band_sizes == {n_ext}


@pytest.mark.parametrize("change", ["field", "datum"])
@pytest.mark.parametrize("call", ["apply", "pair_energy", "jacobian"])
def test_kept_sums_follow_values_changed_in_place(call, change):
    # a field or a datum changed in place after an evaluation gets its new
    # values' sums
    grid, s, p, dt = GRIDS[1], 0.45, 3.2, 0.01
    x, y = grid.coordinates(), grid.exterior_coordinates()
    mask = np.all(np.abs(x) < 1.0 - 1e-9, axis=1)
    problem = LatticeProblem(s=s, p=p, grid=grid, unknown_mask=mask, dirichlet=DATA["full-band"],
                             far_value=FAR, initial=DATA["full-band"](x, 0.0), horizon=1.0,
                             eps=0.1, kernel_scale=1.3)
    rng = np.random.default_rng(3)
    v, ext = rng.uniform(-1.0, 1.0, grid.n_nodes), DATA["full-band"](y, 0.0)

    def evaluate(stepper):
        return {"apply": lambda: stepper.ws.apply(v, ext, FAR),
                "pair_energy": lambda: stepper.ws.pair_energy(v, ext, FAR),
                "jacobian": lambda: dense_jacobian(stepper, v, dt, ext, FAR),
                }[call]()

    stepper = _Stepper(problem, SolverConfig(dt=dt))
    stepper.ws.apply(v, ext, FAR)
    before = evaluate(stepper)
    if change == "field":
        v[4] += 0.25
    else:
        ext[2] += 0.5  # the band keeps its nodes, only a value moves
    after = evaluate(stepper)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, evaluate(_Stepper(problem, SolverConfig(dt=dt))))


def reachable_arrays(value):
    """Every array held by an object's attributes, tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from reachable_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from reachable_arrays(item)
    elif isinstance(value, OperatorWorkspace):
        yield from reachable_arrays(vars(value))


def test_workspace_holds_no_exterior_sized_array():
    grid = line_grid(n=9, h=0.25, r_inf=100.0)
    n_ext = grid.exterior_coordinates().shape[0]
    assert n_ext > 50 * grid.n_nodes
    ws = OperatorWorkspace(grid, 0.5, 3.0, 1.3)
    shapes = [a.shape for a in reachable_arrays(ws)]
    # an empty band leaves nothing of exterior size behind either
    ws.apply(np.zeros(grid.n_nodes), np.full(n_ext, 0.4), 0.4)
    shapes += [a.shape for a in reachable_arrays(ws)]
    assert shapes
    assert all(n_ext not in shape for shape in shapes), shapes


SQUARE_21 = Grid(spacing=0.1, shape=(21, 21), origin=(-1.0, -1.0), r_infinity=3.0)
CLOSURE_GRIDS = {
    # |k| = 30 holds 12 displacements on the sphere; each row keeps 2 to 10
    "21x21-ties": SQUARE_21,
    # the float cut keeps other tie nodes once the box leaves the lattice
    "21x21-shifted": replace(SQUARE_21, origin=(-1.0 - 0.0123, -1.0 + 0.0371)),
    "1d-off-lattice": line_grid(n=10, h=0.25, origin=0.3, r_inf=7.3),
    # the corner pairs (3, 4) lie on the sphere and inside the box, and two
    # of them lie past r_infinity in floating point
    "r-inf-at-diameter": Grid(spacing=0.1, shape=(4, 5), origin=(0.0, 0.2),
                              r_infinity=0.5),
}


def dense_closure(grid, s, p):
    _, geom = pair_geometry(grid, s, p, grid.coordinates(), grid.exterior_coordinates())
    return np.sum(geom, axis=1) + lattice._far_weight(grid, s, p)


@pytest.mark.parametrize("name", sorted(CLOSURE_GRIDS))
def test_closure_matches_the_dense_row_sum(name):
    grid, s, p = CLOSURE_GRIDS[name], 0.45, 3.2
    assert (grid.r_infinity == grid.diameter) == (name == "r-inf-at-diameter")
    closure = OperatorWorkspace(grid, s, p, 1.3).closure
    np.testing.assert_allclose(closure, dense_closure(grid, s, p), rtol=1e-12, atol=0.0)


def test_the_float_cut_breaks_translation_invariance_of_the_closure():
    # so the shifted case checks other tie nodes than the unshifted one; an
    # integer cut on |k|^2 would make the two closures agree to rounding
    base, shifted = (dense_closure(CLOSURE_GRIDS[name], 0.45, 3.2)
                     for name in ("21x21-ties", "21x21-shifted"))
    assert np.max(np.abs(shifted - base) / base) > 1e-6


def test_evaluate_allocates_no_box_by_box_array():
    # the box pairs' k lives in the workspace's buffer, filled in place
    grid = SQUARE_21
    ws = OperatorWorkspace(grid, 0.5, 3.0)
    v = np.random.default_rng(3).uniform(-1.0, 1.0, grid.n_nodes)
    ext = np.full(grid.exterior_coordinates().shape[0], 0.4)  # an empty band
    ws.evaluate(v, ws.exterior(ext, 0.4))
    tracemalloc.start()
    try:
        ws.evaluate(v, ws.exterior(ext, 0.4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.n_nodes ** 2 * 8


def test_the_workspace_holds_one_box_by_box_buffer():
    # k is the only box x box array an evaluation writes; d is never stored.
    # The box weights are a view of the table, whose size reads N_box^2
    grid = SQUARE_21
    ws = OperatorWorkspace(grid, 0.5, 3.0)
    v = np.random.default_rng(3).uniform(-1.0, 1.0, grid.n_nodes)
    ws.evaluate(v, ws.exterior(np.full(grid.exterior_coordinates().shape[0], 0.4), 0.4))
    owned = [a for a in reachable_arrays(ws) if a.flags.owndata]
    assert sum(a.size >= grid.n_nodes ** 2 for a in owned) == 1
    assert ws.table.size < grid.n_nodes ** 2


def test_the_first_workspace_and_evaluation_hold_one_box_by_box_array():
    # a grid no other test uses: the table, the closure, the k buffer and the
    # box weights' view are all built under the trace
    grid = Grid(spacing=0.1, shape=(19, 23), origin=(-0.9, -1.1), r_infinity=3.0)
    v = np.random.default_rng(4).uniform(-1.0, 1.0, grid.n_nodes)
    ext = np.full(grid.exterior_coordinates().shape[0], 0.4)  # an empty band
    tracemalloc.start()
    try:
        ws = OperatorWorkspace(grid, 0.5, 3.0)
        ws.evaluate(v, ws.exterior(ext, 0.4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * grid.n_nodes ** 2 * 8


BOX_WEIGHT_GRIDS = {
    # the catalog's 1D boxes: dyadic spacing, so |k| h is every coordinate difference
    "1d-257": Grid(spacing=2.0 / 256, shape=(257,), origin=(-1.0,), r_infinity=4.0),
    "1d-257-shifted": Grid(spacing=2.0 / 256, shape=(257,), origin=(-0.5,), r_infinity=4.0),
    "1d-65": Grid(spacing=2.0 / 64, shape=(65,), origin=(-1.0,), r_infinity=4.0),
    "21x21": SQUARE_21,
    "21x21-shifted": CLOSURE_GRIDS["21x21-shifted"],
}


@pytest.mark.parametrize("name", sorted(BOX_WEIGHT_GRIDS))
def test_the_table_view_is_the_dense_box_geometry(name):
    grid, s, p = BOX_WEIGHT_GRIDS[name], 0.45, 3.2
    view = lattice._box_weights(lattice._displacement_table(grid, s, p), grid.shape)
    assert view.shape == grid.shape * 2 and not view.flags.writeable
    x = grid.coordinates()
    dense = pair_geometry(grid, s, p, x, x)[1]
    weights = view.reshape(dense.shape)
    if grid.dimension == 1:
        assert np.array_equal(weights, dense)
    else:  # k h and a difference of coordinates round differently
        np.testing.assert_allclose(weights, dense, rtol=1e-14, atol=0.0)


ACCURACY_GRIDS = {
    "1d-257": Grid(spacing=2.0 / 256, shape=(257,), origin=(-1.0,), r_infinity=3.0),
    "2d-41x41": Grid(spacing=0.05, shape=(41, 41), origin=(-1.0, -1.0), r_infinity=3.0),
}
ACCURACY_FIELDS = {
    "near-flat-random": lambda x, rng: 1.0 + 1e-6 * rng.uniform(-1.0, 1.0, x.shape[0]),
    "near-flat-smooth": lambda x, rng: 1.0 + 1e-6 * np.sum(np.sin(2.0 * x), axis=1),
    "front": lambda x, rng: np.tanh(20.0 * x[:, 0]),
    "smooth": lambda x, rng: np.sum(np.sin(2.0 * x), axis=1),
}


@pytest.mark.parametrize("field", sorted(ACCURACY_FIELDS))
@pytest.mark.parametrize("name", sorted(ACCURACY_GRIDS))
def test_centred_flux_and_energy_match_a_correctly_rounded_pair_sum(name, field):
    # evaluate sums the box flux as c_i rows_i - sum_j k_ij c_j, c = v - mean v,
    # and the box energy as sum_i c_i flux_i; the reference sums w |d| d per
    # row and (1/2) w |d|^3 over the pairs, plus the fold, with math.fsum
    grid, p = ACCURACY_GRIDS[name], 3.0
    ws = OperatorWorkspace(grid, 0.5, p)
    v = ACCURACY_FIELDS[field](grid.coordinates(), np.random.default_rng(7))
    far = float(v[0])  # a far value off a near-flat field would swamp the box sums
    exterior = ws.exterior(np.full(grid.exterior_coordinates().shape[0], far), far)
    sums = ws.evaluate(v, exterior)
    w_ends, ends = exterior
    d, e = v[:, None] - v[None, :], v[:, None] - ends[None, :]
    x = grid.coordinates()
    box = pair_geometry(grid, 0.5, p, x, x)[1] * np.abs(d) * d
    ext = w_ends * np.abs(e) * e
    flux = np.array([math.fsum(np.concatenate(row)) for row in zip(box, ext)])
    energy = math.fsum(np.concatenate(((0.5 * box * d).ravel(), (ext * e).ravel()))) / p
    assert np.max(np.abs(sums.flux - flux)) <= 1e-13 * np.max(np.abs(flux))
    assert abs(sums.energy - energy) <= 1e-13 * energy


def difference_tensor_geometry(grid, s, p, points, nodes):
    """pair_geometry's distances and weights from the broadcast difference
    tensor and a sum over its last axis, cut at r_infinity."""
    n = grid.dimension
    diff = points[:, None, :] - nodes[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    with np.errstate(divide="ignore"):
        weights = grid.spacing ** n / dist ** (n + s * p)
    weights[dist == 0.0] = 0.0
    weights[dist > grid.r_infinity] = 0.0
    return dist, weights


@pytest.mark.parametrize("exterior", [False, True])  # the node set: box or exterior
@pytest.mark.parametrize("dim", [1, 2])
def test_pair_geometry_matches_the_difference_tensor_bit_for_bit(dim, exterior):
    # r_infinity off the lattice: the outermost exterior nodes lie past it
    grid = Grid(spacing=0.25, shape=(7,) * dim, origin=(-0.8,) * dim, r_infinity=2.2)
    x = grid.coordinates()
    nodes = grid.exterior_coordinates() if exterior else x
    # box nodes and off-lattice points; in the box, every node meets itself
    points = np.concatenate([x, np.random.default_rng(5).uniform(-1.0, 1.0, (6, dim))])
    dist, weights = pair_geometry(grid, 0.45, 3.2, points, nodes)
    ref_dist, ref_weights = difference_tensor_geometry(grid, 0.45, 3.2, points, nodes)
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(weights, ref_weights)
    if exterior:
        assert np.any(dist > grid.r_infinity)
    else:
        assert np.count_nonzero(dist == 0.0) == grid.n_nodes


def test_cached_lattice_arrays_are_read_only():
    grid = line_grid(n=7)
    ws = OperatorWorkspace(grid, 0.5, 3.0)
    cached = [grid.coordinates(), grid.exterior_coordinates(),
              lattice._displacement_table(grid, 0.5, 3.0), ws.closure]
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_scale_one_workspace_holds_the_cached_box_geometry():
    # and so does every other scale, which multiplies the operator's sums
    grid = line_grid(n=7)
    geom = lattice._displacement_table(grid, 0.5, 3.0)
    v = np.random.default_rng(2).uniform(-1.0, 1.0, grid.n_nodes)
    ext = np.cos(grid.exterior_coordinates()[:, 0])
    unit = OperatorWorkspace(grid, 0.5, 3.0)
    for scale in (1.0, 2.0, 1.3):
        assert OperatorWorkspace(grid, 0.5, 3.0, scale).table is geom
    doubled = OperatorWorkspace(grid, 0.5, 3.0, 2.0)
    assert np.array_equal(doubled.apply(v, ext, 0.3), 2.0 * unit.apply(v, ext, 0.3))


def closure_of(grid, s=0.5, p=3.0, scale=1.0):
    return OperatorWorkspace(grid, s, p, scale).closure


def test_workspaces_on_one_grid_share_one_closure():
    # the kernel scale is not part of the key: it multiplies the sums
    grid = line_grid(n=7, r_inf=20.0)
    first = closure_of(grid)
    misses = lattice._closure.cache_info().misses
    assert closure_of(grid) is first
    assert closure_of(grid, scale=1.5) is first
    assert lattice._closure.cache_info().misses == misses


def applied_closure(grid, s=0.5, p=3.0, scale=1.0):
    # a constant field over a constant exterior datum: only the closure acts
    ws = OperatorWorkspace(grid, s, p, scale)
    ext = np.zeros(grid.exterior_coordinates().shape[0])
    return ws.apply(np.ones(grid.n_nodes), ext, 0.0) / phi_p(1.0, p)


@pytest.mark.parametrize("change", ["scale", "s", "p", "grid"])
def test_a_changed_problem_gets_its_own_closure(change):
    grid, s, p = line_grid(n=7, r_inf=21.0), 0.5, 3.0
    if change == "scale":
        # the cached closure is shared; the scale multiplies the closure applied
        base = applied_closure(grid, s, p)
        other = applied_closure(grid, s, p, scale=1.5)
        assert not np.array_equal(other, base)
        np.testing.assert_allclose(other, 1.5 * base, rtol=1e-15)
        return
    base = closure_of(grid, s, p)
    if change == "s":
        s = 0.6
    elif change == "p":
        p = 3.5
    else:
        grid = line_grid(n=7, r_inf=22.0)
    other = closure_of(grid, s, p)
    assert other is not base
    assert not np.array_equal(other, base)


def test_audits_after_a_solve_build_no_closure():
    preset = load_preset("melt1d", n_nodes=37, n_steps=2, horizon=0.01)
    traj = solve(preset.problem, preset.solver)
    before = lattice._closure.cache_info()
    energy_history(traj)
    weak_residual(traj, space_time_bump((0.0,), 0.5, (0.0, 0.01)))
    after = lattice._closure.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_structural_audit_after_a_solve_builds_no_geometry():
    # normalize(problem, 2) doubles the kernel scale, which shares the solve's geometry
    preset = load_preset("melt1d", n_nodes=39, n_steps=2, horizon=0.01)
    traj = solve(preset.problem, preset.solver)
    caches = (lattice._displacement_table, lattice._closure)
    before = [cache.cache_info().misses for cache in caches]
    checks = structural_audit(traj, preset.solver)
    assert [cache.cache_info().misses for cache in caches] == before
    assert checks["normalization"]["passed"]


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(3, 5), ny=st.integers(3, 5), seed=st.integers(0, 2 ** 32 - 1),
       s=st.floats(0.2, 0.8), p=st.floats(2.5, 4.0))
def test_fold_keeps_residual_the_gradient_of_the_objective(nx, ny, seed, s, p):
    """On tiny 2D grids with a random partial band, central differences of
    pair_energy give h^n apply, and of the residual give the Jacobian."""
    rng = np.random.default_rng(seed)
    grid = Grid(spacing=0.5, shape=(nx, ny), origin=(0.0, 0.0), r_infinity=3.0)
    x = grid.coordinates()
    mask = np.zeros(grid.n_nodes, dtype=bool)
    mask[rng.permutation(grid.n_nodes)[:max(1, grid.n_nodes // 2)]] = True
    far = float(rng.uniform(-1.0, 1.0))
    problem = LatticeProblem(s=s, p=p, grid=grid, unknown_mask=mask,
                             dirichlet=lambda y, t: np.full(y.shape[0], far), far_value=far,
                             initial=np.full(grid.n_nodes, far), horizon=1.0, eps=0.2)
    dt = 0.05
    stepper = _Stepper(problem, SolverConfig(dt=dt))
    n_ext = grid.exterior_coordinates().shape[0]
    ext = np.full(n_ext, far)
    band = rng.random(n_ext) < 0.3
    ext[band] += rng.uniform(-1.0, 1.0, int(band.sum()))
    full = rng.uniform(-1.0, 1.0, grid.n_nodes)
    hn = grid.spacing ** 2
    step = 1e-6
    lv = stepper.ws.apply(full, ext, far)
    for i in range(grid.n_nodes):
        up, down = full.copy(), full.copy()
        up[i] += step
        down[i] -= step
        fd = (stepper.ws.pair_energy(up, ext, far)
              - stepper.ws.pair_energy(down, ext, far)) / (2.0 * step)
        assert fd == pytest.approx(hn * lv[i], rel=1e-5, abs=1e-8)
    b_prev = problem.enthalpy.b(rng.uniform(-1.0, 1.0, int(mask.sum())))
    jac = dense_jacobian(stepper, full, dt, ext, far)
    exterior = stepper.ws.exterior(ext, far)
    fd_jac = np.empty_like(jac)
    for col, i in enumerate(np.nonzero(mask)[0]):
        up, down = full.copy(), full.copy()
        up[i] += step
        down[i] -= step
        fd_jac[:, col] = (stepper.residual(up, b_prev, dt, exterior)[0]
                          - stepper.residual(down, b_prev, dt, exterior)[0]) / (2.0 * step)
    np.testing.assert_allclose(fd_jac, jac, rtol=1e-5, atol=1e-7 * np.max(np.abs(jac)))


# ---------------------------------------------------------------- properties


def random_band_case(dim, n, seed):
    """A small grid, a random field and test function, and an exterior
    datum that leaves the far value on a random band of nodes."""
    rng = np.random.default_rng(seed)
    grid = Grid(spacing=0.5, shape=(n,) * dim, origin=(0.0,) * dim, r_infinity=4.0)
    far = float(rng.uniform(-1.0, 1.0))
    n_ext = grid.exterior_coordinates().shape[0]
    ext = np.full(n_ext, far)
    band = rng.random(n_ext) < 0.3
    ext[band] += rng.uniform(-1.0, 1.0, int(band.sum()))
    v, q = rng.uniform(-1.0, 1.0, (2, grid.n_nodes))
    return grid, v, q, ext, far


@settings(max_examples=50, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1),
       s=st.floats(0.2, 0.8), p=st.floats(2.5, 4.0))
def test_box_pairs_cancel_in_the_operator_sum(dim, n, seed, s, p):
    # antisymmetry: with no exterior, sum_i (L v)_i = 0
    grid, v, _, _, _ = random_band_case(dim, n, seed)
    lv = OperatorWorkspace(grid, s, p).apply(v, None, None)
    assert abs(np.sum(lv)) <= 1e-12 * np.sum(np.abs(lv))


@settings(max_examples=50, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1),
       s=st.floats(0.2, 0.8), p=st.floats(2.5, 4.0), scale=st.floats(0.5, 2.0))
def test_pairing_is_the_operator_tested_against_q(dim, n, seed, s, p, scale):
    grid, v, q, ext, far = random_band_case(dim, n, seed)
    ws = OperatorWorkspace(grid, s, p, scale)
    hn = grid.spacing ** dim
    lv_q = ws.apply(v, ext, far) * q
    form = ws.test_pairing(v, ext, far, q)
    assert abs(form - hn * np.sum(lv_q)) <= 1e-12 * hn * np.sum(np.abs(lv_q))


# ---------------------------------------------------------------- tail


def constant_level(g, c):
    """The tail arguments (values, ext_values, far_value) of the constant
    field c, inside the box and out."""
    return np.full(g.n_nodes, c), np.full(g.exterior_coordinates().shape[0], c), c


def tail_setup(div, c, rho=0.25, s=0.5, p=3.0):
    h = rho / div
    span = 3 * rho
    n_nodes = int(round(2 * span / h)) + 1
    g = Grid(spacing=h, shape=(n_nodes,), origin=(-span,), r_infinity=1000 * rho)
    return g, constant_level(g, c)


def test_tail_of_zero_field_is_zero():
    g, f = tail_setup(16, 0.0)
    assert tail(g, *f, (0.0,), 0.25, 0.5, 3.0) == 0.0


def test_tail_is_positively_homogeneous():
    rng = np.random.default_rng(5)
    g = line_grid(n=17, h=0.125, origin=-1.0, r_inf=50.0)
    v, ext = rng.uniform(-1.0, 1.0, g.n_nodes), np.cos(g.exterior_coordinates()[:, 0])
    t1 = tail(g, v, ext, 0.7, (0.0,), 0.3, 0.5, 3.0)
    t2 = tail(g, 2.0 * v, 2.0 * ext, 1.4, (0.0,), 0.3, 0.5, 3.0)
    assert t2 == pytest.approx(2.0 * t1, rel=1e-12)


def test_tail_takes_the_supremum_over_the_window():
    # the levels of a window are the rows of values and ext_values; which
    # rows a window holds is window_rows' part (test_analysis)
    g = line_grid(n=9, h=0.25, origin=-1.0, r_inf=50.0)
    (v_small, e_small, _), (v_big, e_big, _) = constant_level(g, 0.5), constant_level(g, 2.0)
    t_small = tail(g, v_small, e_small, 0.0, (0.0,), 0.3, 0.5, 3.0)
    t_both = tail(g, [v_small, v_big], [e_small, e_big], 0.0, (0.0,), 0.3, 0.5, 3.0)
    assert t_both > t_small
    assert t_both == pytest.approx(4.0 * t_small, rel=1e-12)


def test_tail_over_levels_equals_the_per_level_loop():
    # the replaced loop, one np.sum per level, as a bit-for-bit reference
    rng = np.random.default_rng(11)
    g = Grid(spacing=0.25, shape=(9, 9), origin=(-1.0, -1.0), r_infinity=3.0)
    s, p, rho, far = 0.5, 3.0, 0.3, -0.7
    x0 = g.point((0.25, 0.0))
    values = rng.uniform(-1.0, 1.0, (5, g.n_nodes))
    ext = rng.uniform(-1.0, 1.0, (5, g.exterior_coordinates().shape[0]))
    w_box = lattice._ball_weights(g, s, p, x0, rho, g.coordinates())
    w_ext = lattice._ball_weights(g, s, p, x0, rho, g.exterior_coordinates())
    far_geom = lattice._far_weight(g, s, p)
    worst = 0.0
    for v, e in zip(values, ext):
        total = float(np.sum(w_box * np.abs(v) ** (p - 1.0)))
        total += float(np.sum(w_ext * np.abs(e) ** (p - 1.0)))
        total += abs(far) ** (p - 1.0) * far_geom
        worst = max(worst, total)
    expected = (rho ** (s * p) * worst) ** (1.0 / (p - 1.0))
    assert tail(g, values, ext, far, x0, rho, s, p) == expected


def test_tail_rejects_a_centre_outside_the_box():
    # about x0 = 2 the lattice nodes in (3.5, 4.5] lie within r_infinity of
    # x0 but past the dilated box: they were neither summed nor inside
    # w_far, and the tail read 1.1560595 against the dense sum's 1.1660836
    g = line_grid(n=33, h=0.0625, origin=-1.0, r_inf=2.5)
    values, ext_values, far = constant_level(g, 1.0)
    for x0 in (2.0, -1.0 - 1e-9, 1.0 + 1e-9):
        with pytest.raises(InvalidParamsError, match="outside the box"):
            tail(g, values, ext_values, far, (x0,), 0.25, 0.5, 3.0)


@pytest.mark.parametrize("x0", [0.5, -1.0, 1.0])
def test_tail_about_a_centre_in_the_box_sums_every_node_within_r_infinity(x0):
    # the dense sum runs over lattice indices -400..399, far past the
    # dilated box; inside the closed box every node within r_infinity of
    # x0 lies in the dilated box, so tail misses none of them
    g = line_grid(n=33, h=0.0625, origin=-1.0, r_inf=2.5)
    s, p, rho = 0.5, 3.0, 0.25
    values, ext_values, far = constant_level(g, 1.0)
    d = np.abs(g.origin[0] + g.spacing * np.arange(-400, 400) - x0)
    frac = np.clip(0.5 + (d - rho) / g.spacing, 0.0, 1.0)
    near = (d > 0.0) & (d <= g.r_infinity)
    dense = math.fsum(frac[near] * g.spacing / d[near] ** (1.0 + s * p))
    dense += 2.0 * g.r_infinity ** (-s * p) / (s * p)
    value = tail(g, values, ext_values, far, (x0,), rho, s, p)
    assert value == pytest.approx((rho ** (s * p) * dense) ** (1.0 / (p - 1.0)), rel=1e-12)
    # a node centre: the lattice medium is translation invariant
    assert value == pytest.approx(1.1660836, abs=1e-7)


def test_tail_rejects_zero_levels():
    # not numpy's ValueError for the max of nothing
    g, (_, ext_values, far) = tail_setup(16, 1.0)
    with pytest.raises(InvalidParamsError, match="one or more"):
        tail(g, np.empty((0, g.n_nodes)), np.empty((0, ext_values.size)), far,
             (0.0,), 0.25, 0.5, 3.0)


def test_tail_rejects_bad_radius():
    g, f = tail_setup(16, 1.0)
    with pytest.raises(InvalidParamsError, match="positive"):
        tail(g, *f, (0.0,), 0.0, 0.5, 3.0)
    with pytest.raises(InvalidParamsError, match="r_infinity"):
        tail(g, *f, (0.0,), 2000.0 * 0.25, 0.5, 3.0)


def test_tail_rejects_samples_that_do_not_match_the_grid():
    g, (values, ext_values, far) = tail_setup(16, 1.0)
    for bad in ((values[:-1], ext_values), (values, ext_values[:-1]), (values, None),
                ([values, values], ext_values)):
        with pytest.raises(InvalidParamsError, match="must match the grid"):
            tail(g, *bad, far, (0.0,), 0.25, 0.5, 3.0)


def test_tail_closed_form_at_sp_equal_to_dimension():
    # constant field, sp = n = 1: exact value (2/(sp))^{1/(p-1)} |c| = sqrt(2) |c|
    s, p, rho, c = 1.0 / 3.0, 3.0, 0.25, 1.3
    g, f = tail_setup(64, c, rho=rho, s=s, p=p)
    val = tail(g, *f, (0.0,), rho, s, p)
    assert val == pytest.approx(np.sqrt(2.0) * c, rel=5e-5)


def test_tail_quadrature_first_order_or_better():
    # constant field: exact value (2/(sp))^{1/(p-1)} |c| in one dimension
    s, p, rho, c = 0.5, 3.0, 0.25, 1.3
    exact = (2.0 / (s * p)) ** (1.0 / (p - 1.0)) * abs(c)
    errs = []
    for div in (16, 32, 64):
        g, f = tail_setup(div, c, rho=rho, s=s, p=p)
        val = tail(g, *f, (0.0,), rho, s, p)
        errs.append(abs(val - exact) / exact)
    assert errs[1] < 0.55 * errs[0]
    assert errs[2] < 0.55 * errs[1]
    assert errs[2] < 5e-5


# ---------------------------------------------------------------- field IO


def test_field_csv_round_trip(tmp_path):
    g = Grid(spacing=0.1, shape=(4, 3), origin=(-0.2, 0.5), r_infinity=10.0)
    rng = np.random.default_rng(17)
    vals = rng.standard_normal(12) * 1e3
    path = tmp_path / "field.csv"
    write_field_csv(path, g, vals)
    idx, coords, back = read_field_csv(path)
    assert np.array_equal(idx, np.arange(12))
    assert np.array_equal(coords, g.coordinates())
    assert np.array_equal(back, vals)
