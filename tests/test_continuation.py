"""Vanishing-regularization families, the two-field limit, convergence reports."""

import sys
import threading
import time

import numpy as np
import pytest

from nlstefan import (
    FamilyEntry,
    FamilyResult,
    InconsistentFamilyError,
    InvalidParamsError,
    SolverConfig,
    UnresolvedBandError,
    convergence_report,
    limit_pair,
    load_preset,
    normalize,
    run_family,
    solve,
)
from nlstefan import continuation, lattice


@pytest.fixture(scope="module")
def melt_family():
    pre = load_preset("melt1d", n_nodes=33, horizon=0.05, eps=0.2, n_steps=10)
    return pre, run_family(pre.problem, (0.4, 0.2, 0.1), pre.solver)


# ---------------------------------------------------------------- schedule checks


def test_family_schedule_validation():
    pre = load_preset("const1d")
    with pytest.raises(InvalidParamsError, match="empty"):
        run_family(pre.problem, (), pre.solver)
    with pytest.raises(InvalidParamsError, match="lie in"):
        run_family(pre.problem, (1.5, 0.2), pre.solver)
    with pytest.raises(InvalidParamsError, match="decreasing"):
        run_family(pre.problem, (0.2, 0.2), pre.solver)
    with pytest.raises(InvalidParamsError, match="decreasing"):
        run_family(pre.problem, (0.1, 0.2), pre.solver)


@pytest.mark.parametrize("threads", [0, -1, 2.5, "2", None])
def test_family_rejects_fewer_than_one_thread(threads):
    pre = load_preset("const1d")
    match = ("threads must be at least 1" if isinstance(threads, int)
             else "threads must be an integer")
    with pytest.raises(InvalidParamsError, match=match):
        run_family(pre.problem, (0.2, 0.1), pre.solver, threads=threads)


def _member_threads(monkeypatch, n_nodes, threads):
    """The threads that run the members of a two-member family."""
    seen = set()

    def recording_solve(problem, config):
        seen.add(threading.get_ident())
        time.sleep(0.05)  # releases the GIL, so an idle second worker takes the next member
        return solve(problem, config)

    monkeypatch.setattr(continuation, "solve", recording_solve)
    pre = load_preset("melt1d", n_nodes=n_nodes, horizon=0.0025, n_steps=1)
    fam = run_family(pre.problem, (0.2, 0.1), pre.solver, threads=threads)
    assert all(entry.ok for entry in fam.entries)
    return seen


def test_family_workers_start_at_the_node_cut(monkeypatch):
    cut = continuation.MIN_WORKER_NODES
    assert len(_member_threads(monkeypatch, cut - 1, threads=2)) == 1
    assert len(_member_threads(monkeypatch, cut, threads=2)) == 2
    assert len(_member_threads(monkeypatch, cut, threads=1)) == 1


def test_a_threaded_family_builds_each_lattice_cache_once(monkeypatch):
    # the members miss every per-grid cache together on a grid no other test
    # uses; more threads than cores and a short switch interval widen the race,
    # and the lowered cut gives this small grid its four workers
    monkeypatch.setattr(continuation, "MIN_WORKER_NODES", 2)
    caches = (lattice._box_coordinates, lattice._exterior_coordinates,
              lattice._displacement_table, lattice._closure)
    before = [cache.cache_info().misses for cache in caches]
    pre = load_preset("melt1d", n_nodes=251, horizon=0.005, eps=0.2, n_steps=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        fam = run_family(pre.problem, (0.4, 0.3, 0.2, 0.1), pre.solver, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert all(entry.ok for entry in fam.entries)
    assert [cache.cache_info().misses - b for cache, b in zip(caches, before)] == [1, 1, 1, 1]


def test_single_member_family_has_empty_distances():
    pre = load_preset("const1d")
    fam = run_family(pre.problem, (0.1,), pre.solver)
    assert fam.distances.shape == (0, 0)
    assert fam.eps_values == [0.1]
    assert fam.successive_distances() == []
    assert len(fam.band_fractions) == 1


def test_family_of_a_normalized_problem_keeps_its_latent_heat():
    # the scaled problem carries latent heat 1/2; a one-member family at its
    # own eps must be the plain solve, and its limit phase saturates at 1/2
    pre = load_preset("melt1d", n_nodes=33, n_steps=3)
    scaled = normalize(pre.problem, 2.0)
    fam = run_family(scaled, (scaled.eps,), pre.solver)
    direct = solve(scaled, pre.solver)
    for a, b in zip(fam.entries[0].trajectory.states, direct.states):
        assert np.array_equal(a, b)
    lp = limit_pair(fam, delta_resolve=0.05)
    for u, w in zip(lp.u_states, lp.w_states):
        assert np.all((w >= 0.0) & (w <= 0.5))
        assert np.all(w[u > 0.05] == 0.5)


# ---------------------------------------------------------------- constant family


def test_constant_family_is_degenerate():
    pre = load_preset("const1d", value=0.3)
    fam = run_family(pre.problem, (0.2, 0.1, 0.05), pre.solver)
    assert np.array_equal(fam.distances, np.zeros((3, 3)))
    assert fam.successive_distances() == [0.0, 0.0]
    # 0.3 clears every layer width, so no sample sits strictly inside
    assert fam.band_fractions == [0.0, 0.0, 0.0]


def test_constant_family_at_the_interface_is_all_band():
    pre = load_preset("const1d", value=0.0)
    fam = run_family(pre.problem, (0.2, 0.1), pre.solver)
    # beta_eps(0) = 1/2 everywhere: the whole sample set is latent layer
    assert fam.band_fractions == [1.0, 1.0]


# ---------------------------------------------------------------- melt family


def test_family_distances_form_a_metric_table(melt_family):
    _, fam = melt_family
    d = fam.distances
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d[~np.eye(3, dtype=bool)] > 0.0)
    assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-15


def test_family_successive_distances_shrink(melt_family):
    _, fam = melt_family
    succ = fam.successive_distances()
    assert len(succ) == 2
    assert succ[1] < succ[0]


def test_family_band_fractions_shrink_with_eps(melt_family):
    _, fam = melt_family
    bands = fam.band_fractions
    assert all(0.0 < b < 1.0 for b in bands)
    assert all(b < a for a, b in zip(bands, bands[1:]))


def test_family_is_thread_count_invariant(melt_family, monkeypatch):
    # the lowered cut gives the 33-node members their two workers
    monkeypatch.setattr(continuation, "MIN_WORKER_NODES", 2)
    pre, fam = melt_family
    fam2 = run_family(pre.problem, (0.4, 0.2, 0.1), pre.solver, threads=2)
    assert np.array_equal(fam.distances, fam2.distances)
    assert fam.band_fractions == fam2.band_fractions
    for a, b in zip(fam.entries, fam2.entries):
        for sa, sb in zip(a.trajectory.states, b.trajectory.states):
            assert np.array_equal(sa, sb)


def test_family_records_failures_instead_of_aborting():
    pre = load_preset("melt1d", n_nodes=33, horizon=0.05, eps=0.2, n_steps=10)
    hopeless = SolverConfig(dt=0.005, newton_tol=1e-16, newton_max=1)
    fam = run_family(pre.problem, (0.4, 0.2), hopeless)
    assert [e.ok for e in fam.entries] == [False, False]
    assert all(e.error for e in fam.entries)
    assert np.all(np.isnan(fam.distances))
    assert all(np.isnan(b) for b in fam.band_fractions)


# ---------------------------------------------------------------- limit pair


def test_limit_pair_contract(melt_family):
    _, fam = melt_family
    lp = limit_pair(fam, delta_resolve=0.05)
    assert lp.eps == 0.1
    assert lp.delta == 0.05
    assert 0.0 <= lp.band_fraction <= 1.0
    for u, w, v in zip(lp.u_states, lp.w_states, lp.v_states):
        assert np.array_equal(v, u + w)
        assert np.all((w >= 0.0) & (w <= 1.0))
        assert np.all(w[u > 0.05] == 1.0)
        assert np.all(w[u < -0.05] == 0.0)


def test_family_and_limit_pair_equal_their_per_level_loops(melt_family):
    # the distances, bands and limit fields index the level arrays; the per
    # level loops they replaced are the reference, bit for bit
    _, fam = melt_family
    states = [e.trajectory.states for e in fam.entries]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert fam.distances[i, j] == max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))
    for entry, band in zip(fam.entries, fam.band_fractions):
        enth = entry.trajectory.problem.enthalpy
        inside = sum(int(np.sum((enth.beta_eps(u) > 0.0) & (enth.beta_eps(u) < 1.0)))
                     for u in entry.trajectory.states)
        assert band == inside / entry.trajectory.states.size
    lp = limit_pair(fam, delta_resolve=0.05)
    for field in (lp.u_states, lp.w_states, lp.v_states):
        assert field.dtype == np.float64 and field.shape == states[-1].shape
    enth = fam.entries[-1].trajectory.problem.enthalpy
    for u, w in zip(states[-1], lp.w_states):
        ref = np.where(u > 0.05, 1.0, np.clip(enth.beta_eps(u), 0.0, 1.0))
        assert np.array_equal(w, np.where(u < -0.05, 0.0, ref))
    assert lp.band_fraction == sum(int(np.sum(np.abs(u) <= 0.05)) for u in states[-1]) / (
        states[-1].size)


def test_limit_pair_band_overflow():
    pre = load_preset("const1d", value=0.0)
    fam = run_family(pre.problem, (0.2, 0.1), pre.solver)
    with pytest.raises(UnresolvedBandError, match="unresolved"):
        limit_pair(fam, delta_resolve=0.05)


def test_limit_pair_validation(melt_family):
    _, fam = melt_family
    with pytest.raises(InvalidParamsError, match="delta_resolve"):
        limit_pair(fam, delta_resolve=0.0)
    broken = FamilyResult(
        entries=[FamilyEntry(eps=0.1, trajectory=None, error="stalled")],
        distances=np.zeros((0, 0)), band_fractions=[float("nan")])
    with pytest.raises(InvalidParamsError, match="finest"):
        limit_pair(broken)


# ---------------------------------------------------------------- reports


def test_convergence_report_on_the_melt(melt_family):
    _, fam = melt_family
    rep = convergence_report(fam)
    assert rep.consistent
    assert rep.monotone
    assert rep.message == ""
    assert rep.eps_values == [0.4, 0.2, 0.1]


def test_convergence_report_needs_two_members():
    broken = FamilyResult(
        entries=[FamilyEntry(eps=0.1, trajectory=None, error="stalled")],
        distances=np.zeros((0, 0)), band_fractions=[float("nan")])
    with pytest.raises(InconsistentFamilyError, match="fewer than two"):
        convergence_report(broken)


def test_convergence_report_flags_mixed_grids():
    pre_a = load_preset("melt1d", n_nodes=17, horizon=0.02, eps=0.2, n_steps=4)
    pre_b = load_preset("melt1d", n_nodes=33, horizon=0.02, eps=0.2, n_steps=4)
    fam_a = run_family(pre_a.problem, (0.2,), pre_a.solver)
    fam_b = run_family(pre_b.problem, (0.1,), pre_b.solver)
    mixed = FamilyResult(
        entries=[fam_a.entries[0], fam_b.entries[0]],
        distances=np.zeros((2, 2)), band_fractions=[0.0, 0.0])
    rep = convergence_report(mixed)
    assert not rep.consistent
    assert "inconsistent" in rep.message
