"""Regularized enthalpy nonlinearity for the two-phase problem.

The latent-heat graph is the unit step

    beta(xi) = 0 for xi < 0,   [0, 1] for xi = 0,   1 for xi > 0,

and its regularization is the convolution beta_eps = beta * psi_eps with a
smooth even mollifier psi supported in (-1, 1).  Convolving a unit step
just integrates the mollifier, so

    beta_eps(xi) = Phi(xi / eps),      Phi(eta) = int_{-1}^{eta} psi,

and a single pair of antiderivative tables (Phi and its antiderivative
Phi1) serves every eps > 0: numpy piecewise polynomials, the cubic Hermite
interpolant of Phi and its quartic antiderivative.  A layer of latent heat
L is L * Phi(xi/eps).  That covers rescaled solutions too: u/m sees
beta_eps(m xi)/m, which is (1/m) * Phi(xi / (eps/m)), the layer of width
eps/m and latent heat 1/m.  The mollifier used throughout is the
normalized bump

    psi(t) = Z * exp(-1 / (1 - t^2)) on (-1, 1),   int psi = 1.

All evaluations are vectorized over numpy arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidParamsError


def _bump_raw(t: np.ndarray) -> np.ndarray:
    """Unnormalized bump exp(-1/(1-t^2)), zero outside (-1, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


class _PiecewisePoly:
    """Piecewise polynomial in scipy PPoly's layout: c[k, i] multiplies
    (x - x_i)^(K-1-k) on [x_i, x_{i+1}), the end pieces extrapolate.  Values
    sum up from the constant term, each power one more factor (not Horner),
    as PPoly does, so the tables equal CubicHermiteSpline and its
    antiderivative bit for bit."""

    def __init__(self, c: np.ndarray, x: np.ndarray):
        self.c, self.x = c, x

    @classmethod
    def hermite(cls, x, y, dydx) -> "_PiecewisePoly":
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        return cls(np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])), x)

    def antiderivative(self) -> "_PiecewisePoly":
        k, n = self.c.shape
        c = np.zeros((k + 1, n))
        c[:-1] = self.c / np.arange(k, 0, -1.0)[:, None]
        # constant i is piece i-1 at its right knot, summed from its constant
        # through its terms in order: one running sum over all the terms
        terms = c[-2::-1] * np.cumprod(np.tile(np.diff(self.x), (k, 1)), axis=0)
        c[-1] = np.cumsum(np.concatenate(([0.0], terms.T[:-1].ravel())))[::k]
        return _PiecewisePoly(c, self.x)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        # interior knots <= x count the piece, the end pieces extrapolate
        i = np.searchsorted(self.x[1:-1], pts, side="right")
        s = pts - self.x[i]
        c = np.take(self.c, i, axis=1)
        val, z = c[-1], s
        for row in c[-2:0:-1]:
            val = val + row * z
            z = z * s
        return val + c[0] * z


# The bump is integrated panel by panel with Gauss-Legendre nodes and the
# cumulative sums become the Hermite knot values of Phi.  This layout gives
# knot errors near machine precision, far below every solver tolerance.
_N_PANELS = 4096
_GAUSS_ORDER = 8


def _knot_data(n_panels: int):
    """Knots, the values and slopes of Phi there, and Z."""
    knots = np.linspace(-1.0, 1.0, n_panels + 1)
    gl_x, gl_w = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    mid = 0.5 * (knots[:-1] + knots[1:])
    half = 0.5 * (knots[1:] - knots[:-1])
    # (panel, node) evaluation points of the raw bump
    pts = mid[:, None] + half[:, None] * gl_x[None, :]
    panel_ints = half * np.sum(_bump_raw(pts) * gl_w[None, :], axis=1)
    cum = np.concatenate(([0.0], np.cumsum(panel_ints)))
    z = 1.0 / cum[-1]
    return knots, z * cum, z * _bump_raw(knots), z


def _build_tables(n_panels: int):
    """Z, the tables of Phi and Phi1, Phi1 at 0 and 1, and the knots with
    the values of Phi there."""
    knots, values, slopes, z = _knot_data(n_panels)
    phi = _PiecewisePoly.hermite(knots, values, slopes)
    phi1 = phi.antiderivative()
    # Phi1(0) offsets int_0^xi beta_eps, Phi1(1) starts the linear extension
    return z, phi, phi1, phi1(np.array([0.0, 1.0])), (knots, values)


@lru_cache(maxsize=None)
def _tables():
    return _build_tables(_N_PANELS)


def normalization_constant() -> float:
    """Constant Z making int_{-1}^{1} Z*exp(-1/(1-t^2)) dt equal one."""
    return _tables()[0]


def _phi(eta) -> np.ndarray:
    """Cumulative mollifier Phi extended by 0 and 1 outside [-1, 1]."""
    phi = _tables()[1]
    eta = np.asarray(eta, dtype=float)
    flat = np.atleast_1d(eta)
    out = np.where(flat >= 1.0, 1.0, 0.0)
    inside = np.abs(flat) < 1.0
    # exact range and monotonicity are part of the contract, but the
    # cubic wiggles below its own resolution near the flat ends, and no
    # direct evaluation stays ulp-monotone approaching 1.  So evaluate
    # the rising tail only, once at -|eta|, reflect it for eta >= 0 (there
    # the jitter is relative to the tiny tail and rounds flat in 1 - tail),
    # clamp both halves at the 0.5 midpoint and snap sub-resolution
    # tail values onto the endpoints.
    tol = 2.0 ** -50
    eta_in = flat[inside]
    tail = np.clip(phi(-np.abs(eta_in)), 0.0, 0.5)
    val = np.where(eta_in < 0.0, tail, 1.0 - tail)
    val[val < tol] = 0.0
    val[val > 1.0 - tol] = 1.0
    out[inside] = val
    return out.reshape(eta.shape)


def _phi1(eta) -> np.ndarray:
    """Antiderivative of Phi from -1, extended linearly where Phi == 1."""
    _, _, phi1, (_, top), _ = _tables()
    eta = np.asarray(eta, dtype=float)
    flat = np.atleast_1d(eta)
    out = np.where(flat >= 1.0, top + (flat - 1.0), 0.0)
    inside = (flat > -1.0) & (flat < 1.0)
    out[inside] = phi1(flat[inside])
    return out.reshape(eta.shape)


def beta_graph(xi):
    """Pointwise image interval (lo, hi) of the unregularized graph."""
    xi = np.asarray(xi, dtype=float)
    lo = np.where(xi > 0.0, 1.0, 0.0)
    hi = np.where(xi < 0.0, 0.0, 1.0)
    return lo, hi


class RegularizedEnthalpy:
    """Mollified latent-heat term and the associated change of variable.

    Parameters
    ----------
    eps : float
        Regularization width; the transition layer is (-eps, eps).
    latent_heat : float, optional
        Jump L of the graph across the layer; beta_eps rises from 0 to L.

    The main objects are beta_eps, its derivative, the diffeomorphism
    b(xi) = xi + beta_eps(xi) with 1 <= b' <= 1 + L*psi(0)*Z/eps, and the
    convex potential B(xi) = xi^2/2 + int_0^xi beta_eps.
    """

    def __init__(self, eps: float, latent_heat: float = 1.0):
        if not 0.0 < eps < np.inf:
            raise InvalidParamsError("eps must be positive and finite")
        if not 0.0 < latent_heat < np.inf:
            raise InvalidParamsError("latent heat must be positive and finite")
        self.eps = float(eps)
        self.latent_heat = float(latent_heat)

    # -- mollified graph -------------------------------------------------

    def beta_eps(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return self.latent_heat * _phi(xi / self.eps)

    def beta_eps_prime(self, xi) -> np.ndarray:
        """Exact density L*psi(xi/eps)/eps; integrates to the latent heat."""
        xi = np.asarray(xi, dtype=float)
        z = _tables()[0]
        return self.latent_heat * z * _bump_raw(xi / self.eps) / self.eps

    def beta_antiderivative(self, xi) -> np.ndarray:
        """int_0^xi beta_eps, evaluated in closed form from the tables."""
        xi = np.asarray(xi, dtype=float)
        at_zero = _tables()[3][0]
        return self.latent_heat * self.eps * (_phi1(xi / self.eps) - at_zero)

    # -- change of variable ----------------------------------------------

    def b(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return xi + self.beta_eps(xi)

    def b_prime(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return 1.0 + self.beta_eps_prime(xi)

    def b_inverse_chord(self, y) -> np.ndarray:
        """Chord estimate of b^{-1}: exact off the transition band, on it
        the piecewise linear interpolant through b at the knots of Phi's
        table, so within about 1e-7 eps of the inverse."""
        y = np.asarray(y, dtype=float)
        knots, values = _tables()[4]
        # b(eps eta) / eps = eta + (L / eps) Phi(eta): one table-sized temporary
        chord = self.eps * np.interp(y / self.eps, knots + (self.latent_heat / self.eps) * values,
                                     knots)
        return np.where(y <= -self.eps, y,
                        np.where(y >= self.latent_heat + self.eps, y - self.latent_heat, chord))

    def b_inverse(self, y) -> np.ndarray:
        """Invert b.  Exact off the transition band; on it, safeguarded
        Newton from the chord estimate, each point until its own residual
        meets the test."""
        y = np.asarray(y, dtype=float)
        flat = np.atleast_1d(y)
        out = self.b_inverse_chord(flat)
        idx = np.flatnonzero((flat > -self.eps) & (flat < self.latent_heat + self.eps))
        yb, xi = flat[idx], out[idx]
        lo = np.full(idx.shape, -self.eps)
        hi = np.full(idx.shape, self.eps)
        tol = 1e-15 * np.maximum(1.0, np.abs(yb))
        for _ in range(60):
            if idx.size == 0:
                break
            f = xi + self.beta_eps(xi) - yb
            done = np.abs(f) <= tol
            out[idx[done]] = xi[done]
            going = ~done
            idx, yb, xi, f, lo, hi, tol = (a[going] for a in (idx, yb, xi, f, lo, hi, tol))
            hi = np.where(f > 0.0, xi, hi)
            lo = np.where(f < 0.0, xi, lo)
            cand = xi - f / self.b_prime(xi)
            # fall back to bisection whenever Newton leaves the bracket
            outside = (cand <= lo) | (cand >= hi)
            cand[outside] = 0.5 * (lo[outside] + hi[outside])
            xi = cand
        out[idx] = xi
        return out.reshape(y.shape)

    def potential(self, xi) -> np.ndarray:
        """Convex primitive B(xi) = xi^2/2 + int_0^xi beta_eps."""
        xi = np.asarray(xi, dtype=float)
        return 0.5 * xi * xi + self.beta_antiderivative(xi)

    # -- truncation energies ----------------------------------------------

    def truncation_energy(self, u, k: float, sign: str) -> np.ndarray:
        """Latent part of the truncated energy at level k.

        For sign "+" this is int_k^u beta_eps'(xi) (xi - k)_+ dxi and for
        sign "-" the mirrored integral; both are nonnegative and vanish
        identically once |k| >= eps.
        """
        u = np.asarray(u, dtype=float)
        if sign not in ("+", "-"):
            raise InvalidParamsError("sign must be '+' or '-'")
        # beta_eps' is supported in [-eps, eps]; past the layer edge the
        # integrand vanishes identically, branch exactly instead of rounding
        if sign == "+" and k >= self.eps:
            return np.zeros_like(u)
        if sign == "-" and k <= -self.eps:
            return np.zeros_like(u)
        bu = self.beta_eps(u)
        au = self.beta_antiderivative(u)
        ak = float(self.beta_antiderivative(k))
        if sign == "+":
            val = bu * (u - k) - (au - ak)
            return np.where(u > k, val, 0.0)
        val = (ak - au) - bu * (k - u)
        return np.where(u < k, val, 0.0)
