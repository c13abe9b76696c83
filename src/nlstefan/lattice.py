"""Lattice discretization of the nonlocal p-growth operator and its tail.

The operator acting on a lattice field v is the collocation sum

    (L v)_i = k sum_{j != i} phi_p(v_i - v_j) h^n / |x_i - x_j|^{n+sp}

with phi_p(tau) = |tau|^{p-2} tau and the constant kernel value k, the
problem's kernel scale.  Skipping the diagonal cell is the discrete
principal-value rule.  Nodes beyond the stored box are virtual: they take
the exterior datum out to the truncation radius R_inf, and beyond R_inf
the medium is closed with the constant far value, whose contribution is
the exact radial integral phi_p(v_i - far) w_far, w_far = sigma_n
R_inf^{-sp} / (sp).  Exterior columns whose datum equals the far value
fold into it: phi_p(v_i - far) carries S_i - sum_{j in band} g_ij + w_far,
S_i = sum_j g_ij over the geometry weights g_ij, and only the band of
columns where the datum differs is summed, from the band's own nodes.

The kernel is translation invariant, so a lattice pair's weight depends
only on its index displacement k: one table over |k_a| <= R_inf / h holds
every weight.  The box pairs read it through a Toeplitz view, and S_i is
its sum over the ball 0 < |k| h <= R_inf minus the box row sum, because
every lattice node within R_inf of the box lies in the dilated box.  The
table and the closure depend on the grid, s and p only: they are cached,
read-only, built once under one lock and shared by every workspace on the
grid.  The kernel scale multiplies the sums.

One evaluation forms each pair's conductance k = w |v_i - v_j|^{p-2} once,
the box pairs' k in one box x box workspace buffer; the operator sums k d,
the energy k d^2 and the Jacobian (p - 1) k.  With c = v - mean v the flux
is c_i sum_j k_ij - sum_j k_ij c_j and the box energy (1/2) sum k d^2 is
sum_i c_i flux_i by antisymmetry, so d is never stored.  An evaluation is a
plain function of the field and the exterior, resolved once per datum.

Tail quantities follow the same explicit-plus-analytic split, with a
cell-fraction correction where lattice cells straddle the inner ball, so
the quadrature converges at first order or better in h.
"""

from __future__ import annotations

import math
import numbers
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidExponentError, InvalidParamsError

# surface measure of the unit sphere for the supported dimensions
SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi}


def phi_p(tau, p: float):
    """Odd power nonlinearity |tau|^{p-2} tau."""
    tau = np.asarray(tau, dtype=float)
    return np.abs(tau) ** (p - 2.0) * tau


def check_exponents(s: float, p: float) -> None:
    if not 0.0 < s < 1.0:
        raise InvalidExponentError("s must lie in (0, 1)")
    if not p > 2.0:
        raise InvalidExponentError("p must exceed 2")


def check_reals(**values) -> None:
    """An InvalidParamsError naming every value, or tuple, not of real numbers."""
    bad = [name for name, value in values.items() if not all(
        isinstance(v, numbers.Real) for v in (value if isinstance(value, tuple) else [value]))]
    if bad:
        raise InvalidParamsError(f"{', '.join(bad)} must be real numbers")


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over a box, with a truncation radius for the
    exterior.

    Node k (multi-index) sits at origin + k * spacing; indices run from 0
    to shape[axis] - 1.  r_infinity bounds the explicit nonlocal
    interaction range and must cover the box diameter so every box pair
    is explicit.
    """

    spacing: float
    shape: tuple
    origin: tuple
    r_infinity: float

    def __post_init__(self):
        try:  # plain tuples: hashable cache keys, integer node counts
            object.__setattr__(self, "shape", tuple(map(operator.index, self.shape)))
            object.__setattr__(self, "origin", tuple(self.origin))
        except TypeError:
            raise InvalidParamsError("shape needs integer node counts, origin numbers") from None
        check_reals(spacing=self.spacing, origin=self.origin, r_infinity=self.r_infinity)
        object.__setattr__(self, "origin", tuple(map(float, self.origin)))
        if len(self.shape) not in (1, 2):
            raise InvalidParamsError("only dimensions 1 and 2 are supported")
        if len(self.origin) != len(self.shape):
            raise InvalidParamsError("origin and shape dimensions disagree")
        if not all(map(math.isfinite, (self.spacing, self.r_infinity, *self.origin))):
            raise InvalidParamsError("spacing, origin and r_infinity must be finite")
        if not self.spacing > 0.0:
            raise InvalidParamsError("spacing must be positive")
        if any(n < 2 for n in self.shape):
            raise InvalidParamsError("each axis needs at least two nodes")
        if self.r_infinity < self.diameter:
            raise InvalidParamsError("r_infinity must cover the box diameter")

    @property
    def dimension(self) -> int:
        return len(self.shape)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def diameter(self) -> float:
        span = [(n - 1) * self.spacing for n in self.shape]
        return math.sqrt(sum(v * v for v in span))

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (n_nodes, dimension), C index order."""
        return _box_coordinates(self)

    def exterior_coordinates(self) -> np.ndarray:
        """Lattice nodes of the dilated box (reach r_infinity) minus the box."""
        return _exterior_coordinates(self)

    def point(self, x) -> np.ndarray:
        """x as a float vector with one finite coordinate per axis."""
        x = np.atleast_1d(np.asarray(x, dtype=float))  # None reads as nan
        if x.shape != (self.dimension,) or not np.all(np.isfinite(x)):
            raise InvalidParamsError(f"a point of a {self.dimension}D grid needs "
                                     f"{self.dimension} coordinates, each finite, got {x}")
        return x


def _read_only(a: np.ndarray) -> np.ndarray:
    """Freeze an array that a cache hands to every caller."""
    a.flags.writeable = False
    return a


_CACHE_LOCK = threading.RLock()  # reentrant: the closure reads the coordinate caches


def _lattice_cache(fn):
    """lru_cache whose lookups and builds hold _CACHE_LOCK, so threads
    that miss together build the entry once."""
    cached = lru_cache(maxsize=32)(fn)

    @wraps(fn)
    def locked(*args):
        with _CACHE_LOCK:
            return cached(*args)

    locked.cache_info = cached.cache_info
    return locked


def _indices(shape, offset: int = 0) -> np.ndarray:
    """Multi-indices of a box of this shape less offset, one row each, C order."""
    return np.indices(shape).reshape(len(shape), -1).T - offset


@_lattice_cache
def _box_coordinates(grid: Grid) -> np.ndarray:
    return _read_only(np.asarray(grid.origin) + grid.spacing * _indices(grid.shape))


@_lattice_cache
def _exterior_coordinates(grid: Grid) -> np.ndarray:
    reach = int(math.ceil(grid.r_infinity / grid.spacing))
    index = _indices([n + 2 * reach for n in grid.shape], reach)  # the dilated box
    index = index[~np.all((index >= 0) & (index < grid.shape), axis=1)]
    return _read_only(np.asarray(grid.origin) + grid.spacing * index)


def pair_geometry(grid: Grid, s: float, p: float, points: np.ndarray, nodes: np.ndarray):
    """Distances and collocation weights from points to lattice nodes.

    Returns (dist, weights): dist[i, j] = |points_i - nodes_j| and the
    weights h^n / dist^{n+sp}, zero for coincident pairs (the
    principal-value rule) and beyond r_infinity, where the far closure
    sigma_n R_inf^{-sp} / (sp) stands for the medium.
    """
    dist, weights = _broadcast_geometry(grid, s, p, points[:, None, :], nodes[None, :, :])
    weights[dist > grid.r_infinity] = 0.0
    return dist, weights


def _far_weight(grid: Grid, s: float, p: float) -> float:
    """sigma_n R_inf^{-sp} / (sp), the weight of the medium past r_infinity."""
    sp = s * p
    return SPHERE_MEASURE[grid.dimension] * grid.r_infinity ** (-sp) / sp


def _broadcast_geometry(grid: Grid, s: float, p: float, points: np.ndarray,
                        nodes: np.ndarray):
    """Distances and uncut weights between broadcast point and node arrays
    of shape (..., dimension), coincident pairs weighted zero."""
    n = grid.dimension
    # axis by axis: the same a^2 + b^2 as a sum over a difference tensor
    dist = np.square(points[..., 0] - nodes[..., 0])
    for a in range(1, n):
        dist += np.square(points[..., a] - nodes[..., a])
    np.sqrt(dist, out=dist)
    with np.errstate(divide="ignore"):
        weights = grid.spacing ** n / dist ** (n + s * p)
    weights[dist == 0.0] = 0.0
    return dist, weights


def _displacements(grid: Grid):
    """k[:, reach + k] = k and |k|^2 over the integer displacements
    |k_a| <= reach, reach h >= r_infinity."""
    reach = int(math.ceil(grid.r_infinity / grid.spacing))
    k = np.indices((2 * reach + 1,) * grid.dimension) - reach
    return k, np.sum(k * k, axis=0)


@_lattice_cache
def _displacement_table(grid: Grid, s: float, p: float) -> np.ndarray:
    """h^n / (|k| h)^{n+sp} at table[reach + k], zero at k = 0: the weight
    of every lattice pair whose index displacement is k."""
    n, h = grid.dimension, grid.spacing
    k2 = _displacements(grid)[1]
    with np.errstate(divide="ignore"):
        table = h ** n / (np.sqrt(k2) * h) ** (n + s * p)
    table[k2 == 0] = 0.0
    return _read_only(table)


def _box_weights(table: np.ndarray, shape: tuple) -> np.ndarray:
    """w[i, j] = table[reach + j - i] over the multi-indices i, j of a box
    of this shape, which r_infinity covers: a read-only Toeplitz view."""
    reach = table.shape[0] // 2
    centre = table[(slice(reach, None),) * table.ndim]
    strides = tuple(-st for st in table.strides) + table.strides
    return np.lib.stride_tricks.as_strided(centre, shape * 2, strides, writeable=False)


# |k|^2 within this relative distance of (R_inf / h)^2 puts a displacement
# on the truncation sphere, where the float cut of pair_geometry decides
TIE_RTOL = 1e-9


@_lattice_cache
def _closure(grid: Grid, s: float, p: float) -> np.ndarray:
    """closure_i = S_i + w_far, S_i the weights from box node i to the
    exterior nodes within r_infinity: the table's ball sum minus the box
    row sum.  A displacement on the sphere is decided per node by
    pair_geometry's float cut on real coordinates, as the dense sum decides
    it: its weight counts where its node lies outside the box and within
    r_infinity in floating point, and always where the node lies inside the
    box, because the box row sum takes it out.
    """
    n, h = grid.dimension, grid.spacing
    k, k2 = _displacements(grid)
    radius2 = (grid.r_infinity / h) ** 2
    tie = np.abs(k2 - radius2) <= TIE_RTOL * radius2
    table = _displacement_table(grid, s, p)  # zero at k = 0
    # correctly rounded: S_i is a small difference of two large sums
    ball = math.fsum(table[(k2 < radius2) & ~tie])
    closure = ball - np.sum(_box_weights(table, grid.shape), axis=tuple(range(n, 2 * n))).ravel()
    target = _indices(grid.shape)[:, None, :] + k[:, tie].T[None, :, :]
    in_box = np.all((target >= 0) & (target < grid.shape), axis=2)
    nodes = np.asarray(grid.origin) + h * target
    dist, weights = _broadcast_geometry(grid, s, p, grid.coordinates()[:, None, :], nodes)
    weights[(dist > grid.r_infinity) & ~in_box] = 0.0
    return _read_only(closure + np.sum(weights, axis=1) + _far_weight(grid, s, p))


class PairSums(NamedTuple):
    """flux_i = sum_j k_ij d_ij, rows_i = sum_j k_ij and energy = sum k d^2 / p
    over the pairs at one field and datum, and the box pairs' k."""

    conductance: np.ndarray
    flux: np.ndarray
    rows: np.ndarray
    energy: float


class OperatorWorkspace:
    """Geometry weights for one (grid, s, p) and kernel scale, reused by
    the stepper across Newton iterations and time steps.

    table (the displacement table) and closure (closure_i = S_i + w_far)
    are cached and shared by every workspace on the grid, so a later
    workspace costs nothing to build.  No box x box weights and no box x
    exterior matrix are held: the first evaluation makes the conductance
    buffer and the box pairs' view of the table.  The band's weights and
    the fold are kept until the band changes; a step's datum is fixed, so
    the stepper resolves them once per step.  The scale multiplies every sum.
    """

    def __init__(self, grid: Grid, s: float, p: float, scale: float = 1.0):
        check_exponents(s, p)
        self.grid = grid
        self.s = s
        self.p = p
        self.scale = scale
        self.table = _displacement_table(grid, s, p)
        self.closure = _closure(grid, s, p)
        self._band = None
        self._conductance = self._weights = None

    def exterior(self, ext_values: Optional[np.ndarray], far_value: Optional[float]):
        """(w_ends, ends): the weights to the band, where the datum differs
        from far_value, then the folded weight of each node as one more
        column, and the band's datum then far_value; None for no exterior."""
        if ext_values is None:
            return None
        band = np.flatnonzero(ext_values != far_value)
        key = band.tobytes()
        if self._band is None or self._band[0] != key:
            self._band = None  # free the old band before building the new one
            grid = self.grid
            w_band = pair_geometry(grid, self.s, self.p, grid.coordinates(),
                                   grid.exterior_coordinates()[band])[1]
            fold = self.closure - np.sum(w_band, axis=1)
            self._band = (key, _read_only(np.column_stack((w_band, fold))))
        return self._band[1], np.append(ext_values[band], far_value)

    def evaluate(self, values: np.ndarray, exterior) -> PairSums:
        """Pair sums at values over the box pairs, met from both ends, and
        the end columns of exterior (self.exterior's result), with
        d = v_i - v_j and k = w |d|^{p-2}.  The box pairs' k is written into
        the workspace's buffer and stays valid until its next evaluation."""
        v = np.asarray(values, dtype=float)
        if self._conductance is None:  # no box x box array per evaluation
            self._conductance = np.empty((v.size, v.size))
            self._weights = _box_weights(self.table, self.grid.shape)
        k = np.abs(np.subtract.outer(v, v, out=self._conductance), out=self._conductance)
        if self.p != 3.0:  # x**1.0 == x: p = 3 skips the power exactly
            k **= self.p - 2.0
        box = k.reshape(self.grid.shape * 2)  # a view: pair (i, j) by multi-index
        box *= self._weights
        rows = np.sum(k, axis=1)
        # centred, so the products carry the size of d, not of v; numpy's
        # own sum-of-products loops, never BLAS: the bits do not depend on
        # the thread count
        c = v - np.mean(v)
        flux = c * rows - np.einsum("ij,j->i", k, c)
        energy = np.einsum("i,i", c, flux)
        if exterior is not None:
            w_ends, ends = exterior
            d = np.subtract.outer(v, ends)
            ke = np.abs(d) ** (self.p - 2.0) * w_ends
            rows += np.sum(ke, axis=1)
            ke *= d  # the flux phi_p(d) w
            flux += np.sum(ke, axis=1)
            ke *= d
            energy += np.sum(ke)
        return PairSums(self._conductance, flux, rows, float(energy) / self.p)

    def apply(self, values: np.ndarray, ext_values: Optional[np.ndarray],
              far_value: Optional[float]) -> np.ndarray:
        """Operator values at every box node."""
        return self.scale * self.evaluate(values, self.exterior(ext_values, far_value)).flux

    def pair_energy(self, values: np.ndarray, ext_values: Optional[np.ndarray],
                    far_value: Optional[float]) -> float:
        """Convex energy whose node gradient is h^n times the operator."""
        hn = self.grid.spacing ** self.grid.dimension
        return self.scale * hn * self.evaluate(values, self.exterior(ext_values, far_value)).energy

    def test_pairing(self, values: np.ndarray, ext_values: Optional[np.ndarray],
                     far_value: Optional[float], test_values: np.ndarray) -> float:
        """Symmetric form  (1/2) sum w_ij phi_p(v_i - v_j)(q_i - q_j) h^n
        plus exterior coupling, with the test function zero off the box;
        by antisymmetry it is h^n sum_i q_i (L v)_i, summed as such."""
        hn = self.grid.spacing ** self.grid.dimension
        q = np.asarray(test_values, dtype=float)
        return hn * float(np.sum(q * self.apply(values, ext_values, far_value)))


def _ball_weights(grid: Grid, s: float, p: float, x0: np.ndarray, rho: float,
                  nodes: np.ndarray) -> np.ndarray:
    """Tail weights from x0 to the nodes outside B_rho(x0), each scaled by
    the fraction of its cell that lies outside the ball."""
    dist, weights = pair_geometry(grid, s, p, x0[None, :], nodes)
    frac = np.clip(0.5 + (dist[0] - rho) / grid.spacing, 0.0, 1.0)
    return frac * weights[0]


def tail(grid: Grid, values, ext_values, far_value: float, x0, rho: float,
         s: float, p: float) -> float:
    """Supremum over the levels of the nonlocal tail about the spatial
    centre x0 in the closed box, outside the ball of radius rho.

    values holds one row of box values per level, ext_values one row per
    level on grid.exterior_coordinates() (a single level may be 1-D) and
    far_value the constant past r_infinity.  The integrand |f|^{p-1}
    |x0 - y|^{-n-sp} is summed over lattice cells outside the ball (with
    fractional weights on straddling cells) out to r_infinity, all in the
    dilated box since x0 is in the box, and closed with the analytic radial
    integral of the far value past it.
    """
    check_exponents(s, p)
    if not rho > 0.0:
        raise InvalidParamsError("tail radius must be positive")
    ext_coords = grid.exterior_coordinates()
    values, ext_values = np.atleast_2d(values, ext_values)
    shapes = ((grid.n_nodes,), (len(values), len(ext_coords)))
    if not len(values) or (values.shape[1:], ext_values.shape) != shapes:
        raise InvalidParamsError("tail levels, one or more, must match the grid and its exterior")
    if rho >= grid.r_infinity:
        raise InvalidParamsError("tail radius must stay below r_infinity")
    x0 = grid.point(x0)
    lo = np.asarray(grid.origin)
    hi = lo + grid.spacing * (np.asarray(grid.shape) - 1)
    if not np.all((lo <= x0) & (x0 <= hi)):
        raise InvalidParamsError(f"tail centre {x0.tolist()} lies outside the box "
                                 f"from {lo.tolist()} to {hi.tolist()}")
    w_box = _ball_weights(grid, s, p, x0, rho, grid.coordinates())
    w_ext = _ball_weights(grid, s, p, x0, rho, ext_coords)
    total = np.sum(w_box * np.abs(values) ** (p - 1.0), axis=1)
    total += np.sum(w_ext * np.abs(ext_values) ** (p - 1.0), axis=1)
    total += abs(far_value) ** (p - 1.0) * _far_weight(grid, s, p)
    return (rho ** (s * p) * float(np.max(total))) ** (1.0 / (p - 1.0))
