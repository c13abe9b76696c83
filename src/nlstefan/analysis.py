"""Intrinsic geometry, iteration sequences and modulus extraction.

The oscillation machinery works on backward cylinders

    Q_rho^(theta)(z0) = closed ball B_rho(x0)  x  [t0 - theta rho^{sp}, t0]

read on the stored levels of the closed window (for a continuous solution
the sup and inf equal those over the half-open window of the paper), whose
time depth is matched to the running oscillation omega through
theta = (omega/4)^{2-p} in the interior and (omega/4)^{1-p} at the
lateral boundary.  The shrinking ladders of radii and oscillation bounds
follow the reduction-of-oscillation recursions, the algebraic engine
behind them being the two small lemmas verified here exhaustively
(lemma_iter_* and geometric_convergence).  Measured oscillation decay is
summarized by fitting the logarithmic modulus

    osc(r) ~ c * (1 + ln(rho0 / r))^{-varsigma/2} + 4 eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (EmptyCylinderError, EmptyWindowError, InsufficientSamplesError,
                     InvalidParamsError, NonpositiveExcessError)
from .lattice import Grid, tail


@dataclass(frozen=True)
class Cylinder:
    """Backward space-time cylinder about z0 = (x0, t0); the ball and the
    window [t0 - theta rho^{sp}, t0] are closed."""

    x0: tuple
    t0: float
    rho: float
    theta: float

    def __post_init__(self):
        if not self.rho > 0.0 or not self.theta > 0.0:
            raise InvalidParamsError("cylinder needs positive rho and theta")

    def depth(self, sp: float) -> float:
        return self.theta * self.rho ** sp

    def window(self, sp: float):
        return (self.t0 - self.depth(sp), self.t0)


def intrinsic_theta(omega: float, p: float, boundary: bool = False) -> float:
    """Intrinsic time scaling (omega/4)^{2-p}, one power less at the boundary."""
    if not 0.0 < omega < math.inf:
        raise InvalidParamsError("omega must be positive and finite")
    expo = (1.0 - p) if boundary else (2.0 - p)
    return (omega / 4.0) ** expo


def _ball(coords: np.ndarray, x0: np.ndarray, rho: float):
    """Distances from x0 to the coordinate rows and the closed ball mask,
    with relative slack 1e-12."""
    dist = np.sqrt(np.sum((coords - x0[None, :]) ** 2, axis=1))
    return dist, dist <= rho * (1.0 + 1e-12)


class CylinderSamples(NamedTuple):
    """A cylinder read on the lattice: the distance of every box node to
    x0, the closed ball mask, and the stored times in the window with
    their states, one row per time."""

    dist: np.ndarray
    in_ball: np.ndarray
    times: list
    states: np.ndarray

    def block(self) -> np.ndarray:
        """The ball values, one row per stored level."""
        return self.states[:, self.in_ball]


def window_rows(times, window) -> np.ndarray:
    """Indices of the times that lie in the closed window, with slack 1e-12
    at both ends; an EmptyWindowError if none does."""
    t_lo, t_hi = window
    times = np.asarray(times, dtype=float)
    rows = np.flatnonzero((t_lo - 1e-12 <= times) & (times <= t_hi + 1e-12))
    if not rows.size:
        raise EmptyWindowError(f"no stored samples in window [{t_lo}, {t_hi}]")
    return rows


def cylinder_samples(traj, cyl: Cylinder) -> CylinderSamples:
    """The lattice samples of a cylinder: the box nodes in the closed ball,
    with slack 1e-12, and the stored times in the closed window, chosen by
    window_rows.  An EmptyCylinderError names the empty part; the tail of
    a cylinder reads its rows with traj.exterior_states(times)."""
    problem = traj.problem
    dist, in_ball = _ball(problem.grid.coordinates(), problem.grid.point(cyl.x0), cyl.rho)
    if not in_ball.any():
        raise EmptyCylinderError(
            f"cylinder ball of radius {cyl.rho:.4g} contains no lattice nodes")
    t_lo, t_hi = cyl.window(problem.s * problem.p)
    try:
        rows = window_rows(traj.times, (t_lo, t_hi))
    except EmptyWindowError:
        raise EmptyCylinderError(
            f"cylinder window [{t_lo:.4g}, {t_hi:.4g}] contains no stored times") from None
    return CylinderSamples(dist, in_ball, [traj.times[i] for i in rows], traj.states[rows])


def oscillation(traj, cyl: Cylinder) -> float:
    """sup - inf of the stored field over the cylinder's lattice samples."""
    block = cylinder_samples(traj, cyl).block()
    return float(np.max(block) - np.min(block))


def level_set_fraction(traj, cyl: Cylinder, side: str, level: float) -> float:
    """Fraction of cylinder samples with u <= level ("below") or u > level."""
    if side not in ("below", "above"):
        raise InvalidParamsError("side must be 'below' or 'above'")
    block = cylinder_samples(traj, cyl).block()
    if side == "below":
        return float(np.mean(block <= level))
    return float(np.mean(block > level))


# -- iteration parameter block -----------------------------------------------


# The constants of the oscillation reduction recursions, fixed as the proofs
# fix them: a ladder's radius factor is omega^M / (n0 N1 omega0^M) and its
# oscillation factor 1 - omega^M / (N2 omega0^M), n0 = N0 at the lateral
# boundary and 1 inside; the initial ladder divides radii by N_INIT.
M, N1, N2, N0, N_INIT = 4.0, 4.0, 8.0, 4.0, 4.0


@dataclass(frozen=True)
class IterationParams:
    """Start of the oscillation reduction recursions.  The attrition floor
    of the time-direction decay is m = max(7/8, 2^{-s})."""

    s: float
    p: float
    eps: float
    omega0: float
    rho0: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0 or not 2.0 < self.p < math.inf:
            raise InvalidParamsError("exponents out of range")
        if not all(0.0 < v < math.inf for v in (self.eps, self.omega0, self.rho0)):
            raise InvalidParamsError("eps, omega0 and rho0 must be positive and finite")

    @property
    def m(self) -> float:
        return max(7.0 / 8.0, 2.0 ** (-self.s))


@dataclass
class SequenceLevel:
    index: int
    rho: float
    omega: float
    theta: float
    stabilized: bool = False


def _check_nesting(levels: List[SequenceLevel], sp: float) -> None:
    for a, b in zip(levels, levels[1:]):
        if b.rho ** sp * b.theta > a.rho ** sp * a.theta * (1.0 + 1e-12):
            raise InvalidParamsError("cylinder nesting failed; constants too small")


def _reduction_ladder(params: IterationParams, n_levels: int,
                      datum_osc=None) -> List[SequenceLevel]:
    """rho_{i+1} = f1(omega_i) rho_i,
    omega_{i+1} = max(omega_i f2(omega_i), omega_i 2^{-s}, 2 osc_g(Q_i), 4 eps),
    truncated once the oscillation bound stabilizes at 4 eps.  With
    datum_osc(rho_i, theta_i) = osc_g(Q_i) it is the lateral ladder, n0 =
    N0; without it the interior ladder, a flat datum with n0 = 1 and theta
    one power more of the oscillation."""
    boundary = datum_osc is not None
    n0 = N0 if boundary else 1.0
    rho, omega = params.rho0, params.omega0
    out = [SequenceLevel(0, rho, omega, intrinsic_theta(omega, params.p, boundary))]
    for i in range(1, n_levels):
        datum = 2.0 * float(datum_osc(rho, out[-1].theta)) if boundary else 0.0
        f1 = omega ** M / (n0 * N1 * params.omega0 ** M)
        f2 = 1.0 - omega ** M / (N2 * params.omega0 ** M)
        rho = rho * f1
        omega = max(omega * f2, omega * 2.0 ** (-params.s), datum, 4.0 * params.eps)
        stab = omega <= 4.0 * params.eps
        out.append(SequenceLevel(i, rho, omega, intrinsic_theta(omega, params.p, boundary), stab))
        if stab:
            break
    _check_nesting(out, params.s * params.p)
    return out


def interior_sequences(params: IterationParams, n_levels: int = 40) -> List[SequenceLevel]:
    """Interior ladder: the lateral recursion with a flat datum, n0 = 1
    and theta = (omega/4)^{2-p}."""
    return _reduction_ladder(params, n_levels)


def boundary_sequences(params: IterationParams, osc_g: Callable[[Cylinder], float],
                       z0, n_levels: int = 40) -> List[SequenceLevel]:
    """Lateral ladder on cylinders about z0 = ((x...), t); the datum
    oscillation on each cylinder enters the maximum and theta carries one
    power less of the oscillation."""
    return _reduction_ladder(params, n_levels, lambda r, th: osc_g(Cylinder(*z0, r, th)))


def initial_sequences(params: IterationParams, osc_g: Callable[[Cylinder], float],
                      z0, n_levels: int = 40) -> List[SequenceLevel]:
    """Initial-layer ladder rho_{i+1} = rho_i / N_INIT,
    omega_{i+1} = max(m omega_i, 2 osc_g(Q_i)) over forward windows
    [0, theta_i rho_i^{sp}] about the x of z0 = ((x...), t), closed as
    every cylinder window is; the windows start at t = 0, whatever t is."""
    sp = params.s * params.p
    x0 = z0[0]
    rho, omega = params.rho0, params.omega0
    theta = intrinsic_theta(omega, params.p)
    out = [SequenceLevel(0, rho, omega, theta)]
    for i in range(1, n_levels):
        # forward window [0, L] encoded as a backward cylinder anchored at L
        cyl = Cylinder(x0, theta * rho ** sp, rho, theta)
        omega = max(params.m * omega, 2.0 * float(osc_g(cyl)))
        rho = rho / N_INIT
        theta = intrinsic_theta(omega, params.p)
        out.append(SequenceLevel(i, rho, omega, theta))
    return out


# -- algebraic lemmas ----------------------------------------------------------


def lemma_iter_epsilon(m2: float, n2: float, l2: float) -> float:
    """Closed-form admissible decay exponent for the slow iteration bound.

    Returns half the minimum of 1/(2 m2) and log2(q/(q-1)) with
    q = m2 n2 sqrt(n2^2 - 1); requires l2 >= m2 >= 4."""
    _check_lemma_params(m2, n2, l2)
    q = m2 * n2 * math.sqrt(n2 * n2 - 1.0)
    return 0.5 * min(1.0 / (2.0 * m2), math.log2(q / (q - 1.0)))


def _check_lemma_params(m2, n2, l2):
    if not all(4.0 <= v < math.inf for v in (m2, n2, l2)):
        raise InvalidParamsError("lemma constants must be finite and at least 4")
    if l2 < m2:
        raise InvalidParamsError("l2 must dominate m2")


@dataclass
class IterVerdict:
    epsilon: float
    passed: bool
    first_violation: Optional[int]
    min_margin: float


def lemma_iter_verify(m2: float, n2: float, l2: float, omega0: float,
                      n_max: int = 10 ** 5, epsilon: float = None) -> IterVerdict:
    """Brute-force check of a_n >= a_{n-1} g(a_{n-1}) for the sequence
    a_n = omega0^{l2/m2} (1+n)^{-epsilon} and g(x) = 1 - x^{m2}/(n2 omega0^{l2})."""
    _check_lemma_params(m2, n2, l2)
    if not 0.0 < omega0 < math.inf:
        raise InvalidParamsError("omega0 must be positive and finite")
    if epsilon is None:
        epsilon = lemma_iter_epsilon(m2, n2, l2)
    amp = omega0 ** (l2 / m2)
    n = np.arange(1, n_max + 1, dtype=float)
    a_now = amp * (1.0 + n) ** (-epsilon)
    a_prev = amp * n ** (-epsilon)
    g_prev = 1.0 - a_prev ** m2 / (n2 * omega0 ** l2)
    margin = a_now - a_prev * g_prev
    bad = np.nonzero(margin < 0.0)[0]
    first = int(bad[0] + 1) if bad.size else None
    return IterVerdict(epsilon=epsilon, passed=first is None,
                       first_violation=first, min_margin=float(np.min(margin)))


@dataclass
class GeometricDecayReport:
    threshold: float
    at_threshold: bool
    values: np.ndarray
    within_certificate: Optional[bool]
    bounded: bool
    diverged: bool
    boundedness_only: bool


def geometric_convergence(c: float, b: float, alpha: float, a0: float,
                          n_max: int = 1000) -> GeometricDecayReport:
    """Solve A_{i+1} = c b^i A_i^{1+alpha} in closed form in log space and
    compare with the decay certificate A_0 b^{-i/alpha}.

    For b > 1 and A_0 at or below the threshold c^{-1/alpha} b^{-1/alpha^2}
    the certificate holds; for b == 1 the threshold only guarantees
    boundedness, which is what gets checked then.
    """
    if not (1.0 <= c < math.inf and 1.0 <= b < math.inf):
        raise InvalidParamsError("lemma requires finite c >= 1 and b >= 1")
    if not (0.0 < alpha < math.inf and 0.0 <= a0 < math.inf):
        raise InvalidParamsError("alpha must be positive and a0 nonnegative, both finite")
    threshold = c ** (-1.0 / alpha) * b ** (-1.0 / alpha ** 2)
    if threshold == 0.0:
        raise InvalidParamsError("the threshold c^{-1/alpha} b^{-1/alpha^2} underflows to 0")
    slack = 1e-9
    boundedness_only = (b == 1.0)
    # the threshold start A_i = T b^{-i/alpha} solves the recursion exactly;
    # splitting log A_i = (log T - i log(b)/alpha) + e_i reduces it to
    # e_i = (1+alpha)^i e_0, so the repulsive fixed point does not amplify
    # rounding: a0 == threshold gives e identically zero.  a0 == 0 is e_0 =
    # -inf, floored at -1e12; the capped growth keeps e_0 = 0 at 0 past overflow
    with np.errstate(divide="ignore", over="ignore"):
        e0 = max(float(np.log(a0 / threshold)), -1e12)
        growth = np.minimum((1.0 + alpha) ** np.arange(n_max + 1), 1e300)
        dev = np.maximum(growth * e0, -1e12)
        log_a = math.log(threshold) - np.arange(n_max + 1) * (math.log(b) / alpha) + dev
        values = np.exp(log_a)
    # kept up to the first A_i, i >= 1, past e^300 (all of them if none is)
    kept = 2 + int(np.argmax(np.append(log_a[1:], np.inf) > 300.0))
    dev, log_a, values = dev[:kept], log_a[:kept], values[:kept]
    at_threshold = a0 <= threshold * (1.0 + 1e-12)
    diverged = bool(log_a[-1] > 230.0)
    bounded = bool(np.all(log_a <= log_a[0] + slack)) and not diverged
    if at_threshold and not boundedness_only:
        within = bool(np.all(dev <= e0 + slack)) and dev.size == n_max + 1
    else:
        within = None
    return GeometricDecayReport(threshold=threshold, at_threshold=at_threshold,
                                values=values, within_certificate=within,
                                bounded=bounded, diverged=diverged,
                                boundedness_only=boundedness_only)


# -- measured decay ------------------------------------------------------------


@dataclass
class MeasureDensityReport:
    radii: List[float]
    fractions: List[float]
    min_fraction: float
    alpha0: Optional[float]
    passed: Optional[bool]


def measure_density(grid: Grid, omega_mask: np.ndarray, x0,
                    radii: Sequence[float], alpha0: float = None) -> MeasureDensityReport:
    """Lattice fraction of the complement of the unknown set in balls
    around x0; the boundary regularity machinery assumes it stays above
    a fixed alpha0."""
    omega_mask = np.asarray(omega_mask, dtype=bool)
    if omega_mask.shape != (grid.n_nodes,):
        raise InvalidParamsError("omega_mask must match the grid size")
    x0 = grid.point(x0)
    radii = list(radii)
    if not radii or not all(0.0 < r < math.inf for r in radii):
        raise InvalidParamsError("radii must be positive and finite")
    # the lattice cube about x0 that holds the largest ball
    h = grid.spacing
    reach = int(math.ceil(max(radii) / h)) + 1
    anchor_idx = np.round((x0 - np.asarray(grid.origin)) / h).astype(int)
    axes = [grid.origin[d] + h * np.arange(anchor_idx[d] - reach, anchor_idx[d] + reach + 1)
            for d in range(grid.dimension)]
    cube = np.stack([mm.ravel() for mm in np.meshgrid(*axes, indexing="ij")], axis=1)
    fractions = []
    for r in radii:
        total = int(np.count_nonzero(_ball(cube, x0, r)[1]))
        # a lattice point belongs to the unknown set only if it is a box
        # node flagged by the mask
        unknown = int(np.count_nonzero(omega_mask & _ball(grid.coordinates(), x0, r)[1]))
        fractions.append((total - unknown) / total)
    min_fraction = min(fractions)
    passed = None if alpha0 is None else min_fraction >= alpha0
    return MeasureDensityReport(radii=radii, fractions=fractions,
                                min_fraction=min_fraction, alpha0=alpha0, passed=passed)


@dataclass
class ModulusReport:
    c: float
    varsigma: float
    eps: float
    rho0: float
    n_samples: int
    residual: float
    radii: List[float]
    oscillations: List[float]


def fit_log_modulus(samples: Sequence, eps: float, rho0: float) -> ModulusReport:
    """Least squares fit of ln(osc - 4 eps) against ln(1 + ln(rho0/r)).

    The model is osc(r) = c (1 + ln(rho0/r))^{-varsigma/2} + 4 eps;
    samples at or below the additive floor are discarded, and at least
    three usable samples are required.
    """
    rs, oscs = [], []
    for r, o in samples:
        if not 0.0 < r <= rho0 * (1.0 + 1e-12):
            raise InvalidParamsError("sample radii must lie in (0, rho0]")
        rs.append(float(r))
        oscs.append(float(o))
    rs = np.asarray(rs)
    oscs = np.asarray(oscs)
    excess = oscs - 4.0 * eps
    usable = excess > 1e-12
    if not usable.any():
        raise NonpositiveExcessError("every sample sits at or below the 4 eps floor")
    if int(usable.sum()) < 3:
        raise InsufficientSamplesError("need at least 3 samples above the floor")
    x = np.log1p(np.log(rho0 / rs[usable]))
    y = np.log(excess[usable])
    # closed-form least squares; keeps the hot path BLAS-free
    xm = float(np.mean(x))
    ym = float(np.mean(y))
    var = float(np.sum((x - xm) ** 2))
    if var <= 0.0:
        raise InsufficientSamplesError("sample radii are not distinct enough to fit")
    slope = float(np.sum((x - xm) * (y - ym))) / var
    intercept = ym - slope * xm
    resid = math.sqrt(float(np.mean((y - (intercept + slope * x)) ** 2)))
    return ModulusReport(c=math.exp(intercept), varsigma=-2.0 * slope, eps=eps,
                         rho0=rho0, n_samples=int(usable.sum()), residual=resid,
                         radii=list(rs[usable]), oscillations=list(oscs[usable]))


def modulus_ladder(traj, z0, rho0: float, n_levels: int = 8, shrink: float = 0.65):
    """Oscillation samples over a geometric ladder of intrinsic cylinders.

    theta is frozen at (omega0/4)^{2-p} with omega0 measured on the
    trajectory: oscillation_scale over the base cylinder of radius rho0
    and theta 1.  The cylinders are anchored at z0 = ((x...), t).
    Returns (levels, omega0) with levels a list of (radius, oscillation).
    """
    problem = traj.problem
    x0, t0 = z0
    omega0 = oscillation_scale(traj, Cylinder(x0, t0, rho0, 1.0))
    theta = intrinsic_theta(omega0, problem.p)
    levels = []
    for i in range(n_levels):
        r = rho0 * shrink ** i
        levels.append((r, oscillation(traj, Cylinder(x0, t0, r, theta))))
    return levels, omega0


def oscillation_scale(traj, cyl: Cylinder) -> float:
    """Global scale 2 sup |u| + tail over the cylinder, floored at 1."""
    problem = traj.problem
    read = cylinder_samples(traj, cyl)
    sup = float(np.max(np.abs(read.block())))
    tl = tail(problem.grid, read.states, traj.exterior_states(read.times), problem.far_value,
              cyl.x0, cyl.rho, problem.s, problem.p)
    return max(2.0 * sup + tl, 1.0)


@dataclass
class LevelTailRecord:
    index: int
    rho: float
    omega: float
    theta: float
    osc: float
    tail_plus: float
    tail_minus: float
    ratio: float


def sequence_tail_report(traj, levels: Sequence[SequenceLevel], z0) -> List[LevelTailRecord]:
    """Tail-to-oscillation ratios of the truncations (u - mu_i^±)_± along
    a cylinder ladder; mu_i^+ is the running sup and mu_i^- = mu_i^+ - omega_i.

    The ratios estimate the constant c0 in the inductive tail bound
    Tail((u - mu_i^±)_±; Q_i) <= c0 omega_i.  The cylinders are anchored
    at z0 = ((x...), t); the exterior datum is read once per stored time
    that any of their windows holds.
    """
    problem = traj.problem
    x0, t0 = z0
    reads = [cylinder_samples(traj, Cylinder(x0, t0, lev.rho, lev.theta)) for lev in levels]
    times = list(dict.fromkeys(t for read in reads for t in read.times))
    ext_at = dict(zip(times, traj.exterior_states(times)))
    out = []
    for lev, read in zip(levels, reads):
        block = read.block()
        mu_plus = float(np.max(block))
        mu_minus = mu_plus - lev.omega
        osc = mu_plus - float(np.min(block))
        ext = np.asarray([ext_at[t] for t in read.times])
        t_plus, t_minus = (
            tail(problem.grid, cut(read.states), cut(ext), float(cut(problem.far_value)),
                 x0, lev.rho, problem.s, problem.p)
            for cut in (lambda v: np.clip(v - mu_plus, 0.0, None),
                        lambda v: np.clip(mu_minus - v, 0.0, None)))
        out.append(LevelTailRecord(index=lev.index, rho=lev.rho, omega=lev.omega,
                                   theta=lev.theta, osc=osc, tail_plus=t_plus,
                                   tail_minus=t_minus,
                                   ratio=max(t_plus, t_minus) / lev.omega))
    return out

