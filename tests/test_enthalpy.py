import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlstefan import InvalidParamsError
from nlstefan.enthalpy import (RegularizedEnthalpy, beta_graph,
                               normalization_constant)
from nlstefan.enthalpy import _build_tables, _knot_data, _tables

# reciprocal of the high-resolution quadrature of exp(-1/(1-t^2)) on (-1,1)
Z_REFERENCE = 2.2522836210435810


def test_normalization_constant_matches_quadrature_oracle():
    assert abs(normalization_constant() - Z_REFERENCE) < 5e-13


def test_mollifier_vanishes_at_support_edge():
    enth = RegularizedEnthalpy(1.0)
    assert enth.beta_eps_prime(1.0) == 0.0
    assert enth.beta_eps_prime(-1.0) == 0.0


def test_scaled_mollifier_mass_is_one():
    enth = RegularizedEnthalpy(0.05)
    mass, err = quad(enth.beta_eps_prime, -0.05, 0.05, limit=200)
    assert abs(mass - 1.0) < 1e-10


def test_beta_graph_is_heaviside_with_full_jump():
    assert beta_graph(1.0) == (1.0, 1.0)
    assert beta_graph(-1.0) == (0.0, 0.0)
    assert beta_graph(0.0) == (0.0, 1.0)


@pytest.mark.parametrize("xi, expected", [(0.2, 1.0), (-0.2, 0.0)])
def test_beta_eps_saturates_outside_layer(xi, expected):
    enth = RegularizedEnthalpy(0.1)
    assert enth.beta_eps(xi) == expected


def test_beta_eps_half_at_origin():
    # even mollifier pins the midpoint
    assert abs(RegularizedEnthalpy(0.1).beta_eps(0.0) - 0.5) < 1e-10


def test_beta_prime_zero_outside_layer_and_peak_value():
    enth = RegularizedEnthalpy(0.1)
    assert enth.beta_eps_prime(0.15) == 0.0
    assert enth.beta_eps_prime(-0.15) == 0.0
    expected = Z_REFERENCE * np.exp(-1.0) / 0.1
    assert abs(enth.beta_eps_prime(0.0) - expected) < 1e-10 * expected


def test_beta_prime_unit_mass():
    enth = RegularizedEnthalpy(0.1)
    mass, err = quad(enth.beta_eps_prime, -0.1, 0.1, limit=200)
    assert abs(mass - 1.0) < 1e-8


def test_beta_prime_matches_central_differences():
    enth = RegularizedEnthalpy(0.3)
    xs = np.linspace(-0.25, 0.25, 21)
    h = 1e-6
    fd = (enth.beta_eps(xs + h) - enth.beta_eps(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - enth.beta_eps_prime(xs))) < 1e-7


def test_b_on_saturated_branches_is_exact():
    enth = RegularizedEnthalpy(0.1)
    assert enth.b(0.5) == 1.5
    assert enth.b(-0.5) == -0.5
    assert abs(enth.b_inverse(1.5) - 0.5) < 1e-10


def test_range_and_support_exact_on_dense_grid():
    enth = RegularizedEnthalpy(0.05)
    xs = np.linspace(-1.0, 1.0, 4001)
    vals = enth.beta_eps(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[xs <= -0.05] == 0.0)
    assert np.all(vals[xs >= 0.05] == 1.0)
    assert np.all(np.diff(vals) >= 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_b_increments_dominate_identity(x1, x2):
    enth = RegularizedEnthalpy(0.1)
    lo, hi = min(x1, x2), max(x1, x2)
    assert enth.b(hi) - enth.b(lo) >= (hi - lo) - 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0))
def test_b_round_trip(xi):
    enth = RegularizedEnthalpy(0.1)
    assert abs(enth.b_inverse(enth.b(xi)) - xi) < 1e-10


@pytest.mark.parametrize("eps", [0.2, 0.05, 0.001])
def test_b_inverse_polishes_the_chord_point_by_point(eps, monkeypatch):
    # 2000 band points: a stop test over all of them at once kept perturbing
    # the converged ones and ran to the iteration cap (57 beta_eps calls)
    enth = RegularizedEnthalpy(eps)
    y = np.linspace(-eps, 1.0 + eps, 2002)[1:-1]
    chord = enth.b_inverse_chord(y)
    calls = []
    beta_eps = RegularizedEnthalpy.beta_eps

    def counted(self, xi):
        calls.append(np.size(xi))
        return beta_eps(self, xi)

    monkeypatch.setattr(RegularizedEnthalpy, "beta_eps", counted)
    xi = enth.b_inverse(y)
    monkeypatch.undo()
    assert len(calls) <= 5 and calls[0] == y.size
    assert np.max(np.abs(enth.b(xi) - y)) <= 2e-15
    # the chord is the polished point's start, within 1e-6 eps of it
    assert np.max(np.abs(chord - xi)) <= 1e-6 * eps
    # and exact off the band, as b_inverse is
    off = np.array([-3.0 * eps, -eps, 1.0 + eps, 2.0])
    assert np.array_equal(enth.b_inverse_chord(off), off - np.where(off > 0.0, 1.0, 0.0))
    assert np.array_equal(enth.b_inverse(off), enth.b_inverse_chord(off))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-3, max_value=0.99),
       st.floats(min_value=-2.0, max_value=2.0))
def test_beta_scaling_collapse(eps, xi):
    # beta_eps(xi) only depends on xi / eps
    a = RegularizedEnthalpy(eps).beta_eps(xi)
    b = RegularizedEnthalpy(1.0).beta_eps(xi / eps)
    assert abs(a - b) < 1e-12


def test_potential_derivative_is_b():
    enth = RegularizedEnthalpy(0.2)
    xs = np.linspace(-0.5, 0.7, 17)
    h = 1e-6
    fd = (enth.potential(xs + h) - enth.potential(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - enth.b(xs))) < 1e-7


def test_b_prime_lower_bound():
    enth = RegularizedEnthalpy(0.05)
    xs = np.linspace(-0.2, 0.2, 801)
    assert np.all(enth.b_prime(xs) >= 1.0)


def test_truncation_energy_vanishes_at_the_layer_edge():
    # with the cut at +eps (resp. -eps) the latent part is identically 0
    enth = RegularizedEnthalpy(0.1)
    u = np.linspace(-2.0, 2.0, 101)
    assert np.all(enth.truncation_energy(u, 0.1, "+") == 0.0)
    assert np.all(enth.truncation_energy(u, -0.1, "-") == 0.0)


def test_truncation_energy_nonnegative_inside_layer():
    enth = RegularizedEnthalpy(0.1)
    u = np.linspace(-2.0, 2.0, 101)
    for k in (-0.05, 0.0, 0.03):
        assert np.all(enth.truncation_energy(u, k, "+") >= -1e-15)
        assert np.all(enth.truncation_energy(u, k, "-") >= -1e-15)


def test_scaled_enthalpy_matches_graph_rescaling():
    # u/2 sees beta_eps(2 xi)/2: the layer of width eps/2 and latent heat 1/2
    base = RegularizedEnthalpy(0.1)
    scaled = RegularizedEnthalpy(0.05, latent_heat=0.5)
    xs = np.linspace(-0.3, 0.3, 41)
    assert np.allclose(scaled.beta_eps(xs), base.beta_eps(2.0 * xs) / 2.0,
                       rtol=0, atol=1e-14)
    assert np.allclose(scaled.beta_eps_prime(xs), base.beta_eps_prime(2.0 * xs),
                       rtol=0, atol=1e-12)
    assert np.allclose(scaled.beta_antiderivative(xs),
                       base.beta_antiderivative(2.0 * xs) / 4.0, rtol=0, atol=1e-14)
    for k, sign in ((0.01, "+"), (-0.02, "-")):
        assert np.allclose(scaled.truncation_energy(xs, k, sign),
                           base.truncation_energy(2.0 * xs, 2.0 * k, sign) / 4.0,
                           rtol=0, atol=1e-14)
    assert np.allclose(scaled.b(xs), xs + scaled.beta_eps(xs), rtol=0, atol=1e-14)
    assert np.max(np.abs(scaled.b_inverse(scaled.b(xs)) - xs)) < 1e-10


def test_mollifier_table_resolution_is_converged():
    coarse, fine = _build_tables(512)[1], _tables()[1]
    xs = np.linspace(-1.0, 1.0, 257)
    assert np.max(np.abs(coarse(xs) - fine(xs))) < 1e-12


@pytest.mark.parametrize("n_panels", [1, 2, 512, 4096])
def test_tables_match_scipy_hermite_spline_bit_for_bit(n_panels):
    # the only import of scipy.interpolate: the numpy tables must equal
    # CubicHermiteSpline and its antiderivative, coefficients and values
    from scipy.interpolate import CubicHermiteSpline

    knots, values, slopes, _ = _knot_data(n_panels)
    spline = CubicHermiteSpline(knots, values, slopes)
    _, phi, phi1, _, _ = _build_tables(n_panels)
    rng = np.random.default_rng(0)
    pts = np.concatenate((rng.uniform(-1.0, 1.0, 200_000), knots,
                          np.nextafter(knots, -2.0), np.nextafter(knots, 2.0),
                          [-1.0, 1.0, -0.0, 0.0]))
    for table, ref in ((phi, spline), (phi1, spline.antiderivative())):
        assert np.array_equal(table.c, ref.c)
        got, want = table(pts), ref(pts)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("kwargs", [{"eps": 0.0}, {"eps": float("nan")},
                                    {"eps": 0.1, "latent_heat": -1.0}, {"eps": float("inf")},
                                    {"eps": 0.1, "latent_heat": float("inf")}])
def test_enthalpy_rejects_nonpositive_parameters(kwargs):
    with pytest.raises(InvalidParamsError, match="must be positive and finite"):
        RegularizedEnthalpy(**kwargs)


def test_truncation_energy_rejects_unknown_sign():
    with pytest.raises(InvalidParamsError, match="sign"):
        RegularizedEnthalpy(0.1).truncation_energy(np.zeros(3), 0.0, "*")
