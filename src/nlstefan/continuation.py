"""Vanishing-regularization families and the two-field limit.

Solving the same problem for a decreasing schedule of eps values gives a
family whose members converge, and the regularized latent terms
w_eps = beta_eps(u_eps) accumulate on the indicator of the positive
phase.  The computable surrogate of the limit pair keeps the finest
member u, resolves w by sign wherever |u| exceeds a threshold, and keeps
the mollified value on the unresolved band in between.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .errors import (InconsistentFamilyError, InvalidParamsError,
                     NewtonDivergenceError, UnresolvedBandError)
from .solver import LatticeProblem, SolverConfig, Trajectory, solve


@dataclass
class FamilyEntry:
    eps: float
    trajectory: Optional[Trajectory]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.trajectory is not None


@dataclass
class FamilyResult:
    entries: List[FamilyEntry]
    distances: np.ndarray
    band_fractions: List[float]

    @property
    def eps_values(self) -> List[float]:
        return [e.eps for e in self.entries]

    def successive_distances(self) -> List[float]:
        return [float(self.distances[i, i + 1]) for i in range(len(self.entries) - 1)]


# Members whose box has fewer nodes run on one worker whatever the thread
# count: their Newton iterations are mostly Python that holds the GIL, and
# numpy releases it only inside the N_box^2 pair kernels, so below this size
# a second worker waits for the GIL instead of overlapping (two workers ran
# a 129-node family about 35% slower than one).  321 is the smallest melt1d
# family size at which two workers beat one in at least 9 of 10 alternating
# pairs on 2 cores; README's continuation bullet has the table.
MIN_WORKER_NODES = 321


def run_family(problem: LatticeProblem, eps_values: Sequence[float],
               config: SolverConfig, threads: int = 1) -> FamilyResult:
    """Solve the problem for every eps in a strictly decreasing schedule.

    Members share config's time grid, so fields are comparable sample by
    sample.  At most threads members run at once: members whose box has
    fewer than MIN_WORKER_NODES nodes run in order on one worker, because
    below that size a second worker only waits for the GIL.  Either way
    every member is the same solve, bit for bit.  A family it would refuse
    raises InvalidParamsError before any solve.  Solver failures are
    recorded per entry instead of aborting the family; distances involving
    a failed entry are NaN.
    """
    try:  # a float or a string is no worker count
        threads = operator.index(threads)
    except TypeError:
        raise InvalidParamsError("threads must be an integer") from None
    if threads < 1:
        raise InvalidParamsError(f"threads must be at least 1, got {threads}")
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise InvalidParamsError("the eps schedule is empty")
    if any(not 0.0 < e < 1.0 for e in eps_values):
        raise InvalidParamsError("eps values must lie in (0, 1)")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise InvalidParamsError("eps schedule must be strictly decreasing")
    workers = threads if problem.grid.n_nodes >= MIN_WORKER_NODES else 1

    def run_one(eps: float) -> FamilyEntry:
        try:
            return FamilyEntry(eps=eps, trajectory=solve(replace(problem, eps=eps), config))
        except NewtonDivergenceError as exc:
            return FamilyEntry(eps=eps, trajectory=None, error=str(exc))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        entries = list(pool.map(run_one, eps_values))

    k = len(entries)
    states = [e.trajectory.states if e.ok else None for e in entries]
    # members share one time grid: a distance is the sup over all levels
    distances = np.full((k, k), np.nan) if k > 1 else np.zeros((0, 0))
    for i in range(len(distances)):
        for j in range(i, k):
            if entries[i].ok and entries[j].ok:
                distances[i, j] = distances[j, i] = float(np.max(np.abs(states[i] - states[j])))
    # per-entry unresolved band: where the mollified phase indicator is
    # strictly between the pure phases 0 and L, i.e. inside the latent layer
    fractions = [float("nan")] * k
    for i, entry in enumerate(entries):
        if entry.ok:
            enth = entry.trajectory.problem.enthalpy
            beta = enth.beta_eps(states[i])
            inside = (beta > 0.0) & (beta < enth.latent_heat)
            fractions[i] = int(np.count_nonzero(inside)) / inside.size
    return FamilyResult(entries=entries, distances=distances,
                        band_fractions=fractions)


@dataclass
class LimitPair:
    """The limit fields u, w = the resolved latent term and v = u + w, each
    one row per stored time of the finest member."""

    times: List[float]
    u_states: np.ndarray
    w_states: np.ndarray
    v_states: np.ndarray
    band_fraction: float
    delta: float
    eps: float


# the largest share of samples the unresolved band may hold in a limit
MAX_BAND_FRACTION = 0.5


def limit_pair(family: FamilyResult, delta_resolve: float = 0.05) -> LimitPair:
    """Surrogate limit from the finest member.

    w is the latent heat L where u > delta_resolve, 0 where u <
    -delta_resolve, and the clipped mollified value on the band between;
    v = u + w.  L is 1 unless the problem was normalized.  Fails if the
    band swallows more than MAX_BAND_FRACTION of the samples.
    """
    finest = family.entries[-1]
    if not finest.ok:
        raise InvalidParamsError("finest family member failed; no limit available")
    if not delta_resolve > 0.0:
        raise InvalidParamsError("delta_resolve must be positive")
    traj = finest.trajectory
    enth = traj.problem.enthalpy
    heat = enth.latent_heat
    u = traj.states.copy()
    w = np.clip(enth.beta_eps(u), 0.0, heat)
    w = np.where(u > delta_resolve, heat, w)
    w = np.where(u < -delta_resolve, 0.0, w)
    band_fraction = int(np.count_nonzero(np.abs(u) <= delta_resolve)) / u.size
    if band_fraction > MAX_BAND_FRACTION:
        raise UnresolvedBandError(
            f"sign unresolved on {band_fraction:.1%} of samples "
            f"(limit {MAX_BAND_FRACTION:.1%})")
    return LimitPair(times=list(traj.times), u_states=u, w_states=w, v_states=u + w,
                     band_fraction=band_fraction, delta=delta_resolve, eps=finest.eps)


@dataclass
class ConvergenceReport:
    eps_values: List[float]
    successive_distances: List[float]
    monotone: bool
    consistent: bool
    message: str


def convergence_report(family: FamilyResult) -> ConvergenceReport:
    """Tabulate successive distances, whether they shrink, and whether the
    successful members share one grid and one time sampling."""
    ok_entries = [e for e in family.entries if e.ok]
    if len(ok_entries) < 2:
        raise InconsistentFamilyError("fewer than two family members succeeded")
    grids = {e.trajectory.problem.grid for e in ok_entries}
    times = [tuple(e.trajectory.times) for e in ok_entries]
    consistent = len(grids) == 1 and len(set(times)) == 1
    message = "" if consistent else "inconsistent grids or time sampling across entries"
    dists = family.successive_distances()
    finite = [d for d in dists if np.isfinite(d)]
    monotone = all(b <= a * (1.0 + 1e-12) for a, b in zip(finite, finite[1:]))
    return ConvergenceReport(eps_values=family.eps_values,
                             successive_distances=dists, monotone=monotone,
                             consistent=consistent, message=message)
