"""Regularized enthalpy nonlinearity for the two-phase problem.

The latent-heat graph is the unit step

    beta(xi) = 0 for xi < 0,   [0, 1] for xi = 0,   1 for xi > 0,

and its regularization is the convolution beta_eps = beta * psi_eps with a
smooth even mollifier psi supported in (-1, 1).  Convolving a unit step
just integrates the mollifier, so

    beta_eps(xi) = Phi(xi / eps),      Phi(eta) = int_{-1}^{eta} psi,

and a single pair of antiderivative tables (Phi and its antiderivative
Phi1) serves every eps > 0.  A layer of latent heat L is L * Phi(xi/eps).
That covers rescaled solutions too: u/m sees beta_eps(m xi)/m, which is
(1/m) * Phi(xi / (eps/m)), the layer of width eps/m and latent heat 1/m.
The mollifier used throughout is the normalized bump

    psi(t) = Z * exp(-1 / (1 - t^2)) on (-1, 1),   int psi = 1.

All evaluations are vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicHermiteSpline


def _bump_raw(t: np.ndarray) -> np.ndarray:
    """Unnormalized bump exp(-1/(1-t^2)), zero outside (-1, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


@dataclass(frozen=True)
class MollifierSpec:
    """Quadrature layout for the mollifier tables.

    The bump is integrated panel by panel with Gauss-Legendre nodes; the
    cumulative sums become Hermite-spline knot values for Phi.  Defaults
    give knot errors near machine precision, far below every tolerance
    used by the solvers.
    """

    n_panels: int = 4096
    gauss_order: int = 8

    def build_tables(self):
        knots = np.linspace(-1.0, 1.0, self.n_panels + 1)
        gl_x, gl_w = np.polynomial.legendre.leggauss(self.gauss_order)
        mid = 0.5 * (knots[:-1] + knots[1:])
        half = 0.5 * (knots[1:] - knots[:-1])
        # (panel, node) evaluation points of the raw bump
        pts = mid[:, None] + half[:, None] * gl_x[None, :]
        panel_ints = half * np.sum(_bump_raw(pts) * gl_w[None, :], axis=1)
        cum = np.concatenate(([0.0], np.cumsum(panel_ints)))
        total = cum[-1]
        z = 1.0 / total
        phi = CubicHermiteSpline(knots, z * cum, z * _bump_raw(knots))
        phi1 = phi.antiderivative()
        return z, phi, phi1


@lru_cache(maxsize=None)
def _tables(spec: MollifierSpec = MollifierSpec()):
    return spec.build_tables()


def normalization_constant(spec: MollifierSpec = MollifierSpec()) -> float:
    """Constant Z making int_{-1}^{1} Z*exp(-1/(1-t^2)) dt equal one."""
    return _tables(spec)[0]


def _phi(eta, spec: MollifierSpec) -> np.ndarray:
    """Cumulative mollifier Phi extended by 0 and 1 outside [-1, 1]."""
    _, phi, _ = _tables(spec)
    eta = np.asarray(eta, dtype=float)
    flat = np.atleast_1d(eta)
    out = np.where(flat >= 1.0, 1.0, 0.0)
    neg = (flat > -1.0) & (flat < 0.0)
    pos = (flat >= 0.0) & (flat < 1.0)
    # exact range and monotonicity are part of the contract, but the
    # cubic wiggles below its own resolution near the flat ends, and no
    # direct evaluation stays ulp-monotone approaching 1.  So evaluate
    # the rising tail only, reflect it for the other half (there the
    # jitter is relative to the tiny tail and rounds flat in 1 - tail),
    # clamp both halves at the 0.5 midpoint and snap sub-resolution
    # tail values onto the endpoints.
    tol = 2.0 ** -50
    lo = np.minimum(np.clip(phi(flat[neg]), 0.0, 1.0), 0.5)
    lo[lo < tol] = 0.0
    hi = np.maximum(1.0 - np.clip(phi(-flat[pos]), 0.0, 1.0), 0.5)
    hi[hi > 1.0 - tol] = 1.0
    out[neg] = lo
    out[pos] = hi
    return out.reshape(eta.shape)


def _phi1(eta, spec: MollifierSpec) -> np.ndarray:
    """Antiderivative of Phi from -1, extended linearly where Phi == 1."""
    _, phi, phi1 = _tables(spec)
    eta = np.asarray(eta, dtype=float)
    flat = np.atleast_1d(eta)
    top = float(phi1(1.0))
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
    mollifier : MollifierSpec, optional
        Quadrature layout for the underlying tables.
    latent_heat : float, optional
        Jump L of the graph across the layer; beta_eps rises from 0 to L.

    The main objects are beta_eps, its derivative, the diffeomorphism
    b(xi) = xi + beta_eps(xi) with 1 <= b' <= 1 + L*psi(0)*Z/eps, and the
    convex potential B(xi) = xi^2/2 + int_0^xi beta_eps.
    """

    def __init__(self, eps: float, mollifier: MollifierSpec = MollifierSpec(),
                 latent_heat: float = 1.0):
        if not eps > 0.0:
            raise ValueError("eps must be positive")
        if not latent_heat > 0.0:
            raise ValueError("latent_heat must be positive")
        self.eps = float(eps)
        self.mollifier = mollifier
        self.latent_heat = float(latent_heat)

    # -- mollified graph -------------------------------------------------

    def beta_eps(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return self.latent_heat * _phi(xi / self.eps, self.mollifier)

    def beta_eps_prime(self, xi) -> np.ndarray:
        """Exact density L*psi(xi/eps)/eps; integrates to the latent heat."""
        xi = np.asarray(xi, dtype=float)
        z = _tables(self.mollifier)[0]
        return self.latent_heat * z * _bump_raw(xi / self.eps) / self.eps

    def beta_antiderivative(self, xi) -> np.ndarray:
        """int_0^xi beta_eps, evaluated in closed form from the tables."""
        xi = np.asarray(xi, dtype=float)
        spec = self.mollifier
        return self.latent_heat * self.eps * (_phi1(xi / self.eps, spec) - _phi1(0.0, spec))

    # -- change of variable ----------------------------------------------

    def b(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return xi + self.beta_eps(xi)

    def b_prime(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return 1.0 + self.beta_eps_prime(xi)

    def b_inverse(self, y) -> np.ndarray:
        """Invert b.  Exact off the transition band, safeguarded Newton on it."""
        y = np.asarray(y, dtype=float)
        flat = np.atleast_1d(y)
        heat = self.latent_heat
        out = np.where(flat <= -self.eps, flat,
                       np.where(flat >= heat + self.eps, flat - heat, np.nan))
        band = ~np.isfinite(out)
        if np.any(band):
            yb = flat[band]
            lo = np.full(yb.shape, -self.eps)
            hi = np.full(yb.shape, self.eps)
            xi = np.clip(yb - 0.5 * heat, lo, hi)
            for _ in range(60):
                f = xi + self.beta_eps(xi) - yb
                hi = np.where(f > 0.0, xi, hi)
                lo = np.where(f < 0.0, xi, lo)
                if np.max(np.abs(f)) <= 1e-15 * max(1.0, np.max(np.abs(yb))):
                    break
                cand = xi - f / self.b_prime(xi)
                # fall back to bisection whenever Newton leaves the bracket
                outside = (cand <= lo) | (cand >= hi)
                cand[outside] = 0.5 * (lo[outside] + hi[outside])
                xi = cand
            out[band] = xi
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
            raise ValueError("sign must be '+' or '-'")
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
