"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single `acceptance <name>: PASS/FAIL` line (visible
even without -s) so the suite doubles as a sign-off report.  Tolerances
are part of the contract; do not loosen them to make a run green.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from nlstefan import analysis, cli, continuation, load_preset
from nlstefan.config import parse_run_config
from nlstefan.continuation import limit_pair, run_family
from nlstefan.enthalpy import RegularizedEnthalpy
from nlstefan.lattice import Grid, tail
from nlstefan.solver import _Stepper, structural_audit

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture()
def report(capsys):
    def _report(name, ok, detail=""):
        line = f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line)

    return _report


def test_01_slow_iteration_exhaustive(report):
    t0 = time.perf_counter()
    margins = []
    cases = 0
    all_passed = True
    for m2 in (4.0, 8.0, 16.0):
        for n2 in (4.0, 8.0, 16.0):
            for l2 in (4.0, 8.0, 16.0):
                if l2 < m2:
                    continue
                for omega0 in (1.0, 2.0, 10.0):
                    v = analysis.lemma_iter_verify(m2, n2, l2, omega0, n_max=10 ** 5)
                    cases += 1
                    margins.append(v.min_margin)
                    all_passed = all_passed and v.passed and v.first_violation is None
    elapsed = time.perf_counter() - t0
    ok = all_passed and min(margins) >= 0.0 and elapsed < 10.0
    report("slow-iteration grid", ok,
           f"{cases} cases, min margin {min(margins):.3e}, {elapsed:.2f}s")
    assert cases == 54
    assert all_passed, "a parameter triple violated the decay inequality"
    assert min(margins) >= 0.0
    assert elapsed < 10.0


def test_02_fast_geometric_decay(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    certified = True
    for _ in range(20):
        c = 1.0 + 9.0 * rng.random()
        b = 1.0 + 3.0 * (1.0 - rng.random())  # lands in (1, 4]
        alpha = 0.25 + 1.75 * rng.random()
        a0 = c ** (-1.0 / alpha) * b ** (-1.0 / alpha ** 2)
        rep = analysis.geometric_convergence(c, b, alpha, a0, n_max=1000)
        idx = np.arange(rep.values.size)
        cert = a0 * b ** (-idx / alpha)
        # absolute slack only covers certificates that underflow to 0.0
        # while the iterate keeps one subnormal ulp
        certified = (certified and rep.at_threshold
                     and rep.within_certificate is True
                     and bool(np.all(rep.values <= cert * (1.0 + 1e-9) + 1e-300)))
    neg = analysis.geometric_convergence(1.0, 2.0, 1.0, 1.5 * 0.5)
    elapsed = time.perf_counter() - t0
    ok = certified and neg.diverged and elapsed < 1.0
    report("fast geometric decay", ok,
           f"20 threshold starts certified, control diverges, {elapsed:.3f}s")
    assert certified, "an at-threshold start escaped its decay certificate"
    assert neg.diverged and not neg.bounded
    assert elapsed < 1.0


def test_03_tail_closed_form(report):
    t0 = time.perf_counter()
    rho = 0.25
    h = rho / 64.0
    span = 3.0 * rho
    n_nodes = int(round(2.0 * span / h)) + 1
    grid = Grid(spacing=h, shape=(n_nodes,), origin=(-span,), r_infinity=1000.0 * rho)
    value = tail(grid, np.ones(n_nodes), np.ones(grid.exterior_coordinates().shape[0]), 1.0,
                 (0.0,), rho, 0.5, 3.0)
    exact = math.sqrt(4.0 / 3.0)
    rel = abs(value - exact) / exact
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-3 and elapsed < 1.0
    report("tail closed form", ok,
           f"value {value:.10f} vs {exact:.10f}, rel err {rel:.3e}, {elapsed:.3f}s")
    assert rel <= 1e-3
    assert elapsed < 1.0


def test_04_enthalpy_layer(report):
    eps = 0.05
    enth = RegularizedEnthalpy(eps)
    xi = np.linspace(-4.0 * eps, 4.0 * eps, 4001)
    bv = enth.beta_eps(xi)
    range_ok = bool(np.all(bv >= 0.0) and np.all(bv <= 1.0))
    support_ok = bool(np.all(bv[xi <= -eps] == 0.0) and np.all(bv[xi >= eps] == 1.0))
    mono_ok = bool(np.all(np.diff(bv) >= 0.0))
    mass, _ = quad(enth.beta_eps_prime, -eps, eps, limit=200)
    mass_err = abs(mass - 1.0)
    xs = np.linspace(-0.5, 0.5, 2001)
    round_trip = float(np.max(np.abs(enth.b_inverse(enth.b(xs)) - xs)))
    half_err = abs(float(enth.beta_eps(0.0)) - 0.5)
    ok = (range_ok and support_ok and mono_ok
          and mass_err <= 1e-8 and round_trip <= 1e-10 and half_err <= 1e-10)
    report("enthalpy layer", ok,
           f"mass err {mass_err:.2e}, b round trip {round_trip:.2e}, "
           f"center err {half_err:.2e}")
    assert range_ok and support_ok and mono_ok
    assert mass_err <= 1e-8
    assert round_trip <= 1e-10
    assert half_err <= 1e-10


def test_05_solver_contracts(melt_run, report):
    preset, traj, wall = melt_run
    t0 = time.perf_counter()
    worst_res = max(d.residual_norm for d in traj.diagnostics)
    # max principle; comparison with the initial data raised inside the
    # segment; normalization round trip through the problem scaled by 1/2
    checks = structural_audit(traj, preset.solver)
    mp = checks["max_principle"]
    margin = checks["comparison"]["min_margin"]
    rt_defect = checks["normalization"]["defect"]

    # the Newton residual is the gradient of the per-step objective
    problem = preset.problem
    rng = np.random.default_rng(42)
    stepper = _Stepper(problem, preset.solver)
    dt = preset.solver.dt
    pinned_vals, ext_vals = stepper.datum(dt)
    exterior = stepper.ws.exterior(ext_vals, problem.far_value)
    eta = 1e-5
    worst_rel = 0.0
    for _ in range(10):
        u_prev = 0.2 * rng.standard_normal(problem.grid.n_nodes)
        b_prev = problem.enthalpy.b(u_prev[stepper.mask])
        v = 0.2 * rng.standard_normal(int(stepper.mask.sum()))
        full = stepper.compose(v, pinned_vals)
        grad = stepper.hn * stepper.residual(full, b_prev, dt, exterior)[0]
        for i in rng.choice(v.size, size=5, replace=False):
            vp = v.copy()
            vp[i] += eta
            vm = v.copy()
            vm[i] -= eta
            fp, fm = (stepper.objective(f, b_prev, dt,
                                        stepper.residual(f, b_prev, dt, exterior)[1])
                      for f in (stepper.compose(vp, pinned_vals),
                                stepper.compose(vm, pinned_vals)))
            fd = (fp - fm) / (2.0 * eta)
            worst_rel = max(worst_rel, abs(fd - grad[i]) / max(abs(grad[i]), 1e-12))

    elapsed = wall + (time.perf_counter() - t0)
    ok = (worst_res <= 1e-10 and mp["defect"] <= 1e-9 and margin >= -1e-9
          and rt_defect <= 1e-9 and worst_rel <= 1e-6 and elapsed < 300.0)
    report("solver contracts", ok,
           f"residual {worst_res:.3e}, max-principle defect {mp['defect']:.1e}, "
           f"comparison margin {margin:.1e}, round trip {rt_defect:.3e}, "
           f"gradient rel {worst_rel:.3e}, {elapsed:.0f}s")
    assert worst_res <= 1e-10
    assert mp["passed"] and mp["defect"] <= 1e-9
    assert margin >= -1e-9, "ordered data produced crossing solutions"
    assert rt_defect <= 1e-9
    assert worst_rel <= 1e-6
    assert elapsed < 300.0


def test_06_oscillation_decay(melt_run, report):
    preset, traj, _ = melt_run
    levels, omega0 = analysis.modulus_ladder(
        traj, preset.anchor, preset.rho0,
        n_levels=preset.ladder_levels, shrink=preset.ladder_shrink)
    oscs = [o for _, o in levels]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(oscs, oscs[1:]))
    fit = analysis.fit_log_modulus(levels, preset.problem.eps, preset.rho0)

    path = os.path.join(BASELINE_DIR, "oscillation_decay.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            base = json.load(fh)["varsigma"]
        drift = abs(fit.varsigma - base) / abs(base)
        origin = f"baseline {base:.6f}"
    else:
        os.makedirs(BASELINE_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"varsigma": fit.varsigma}, fh, indent=2)
        drift = 0.0
        origin = "baseline recorded on first run"
    ok = (nonincreasing and fit.varsigma > 0.0 and fit.residual < 0.1
          and drift <= 0.2)
    report("oscillation decay", ok,
           f"varsigma {fit.varsigma:.6f}, residual {fit.residual:.4f}, "
           f"drift {drift:.1%}, {origin}")
    assert nonincreasing, "ladder oscillations increased at some level"
    assert fit.varsigma > 0.0
    assert fit.residual < 0.1
    assert drift <= 0.2


def test_07_vanishing_regularization(report):
    t0 = time.perf_counter()
    preset = load_preset("melt1d")
    family = run_family(preset.problem, parse_run_config("{}").continuation["eps_values"],
                        preset.solver, threads=2)
    succ = family.successive_distances()
    finite = all(np.isfinite(d) for d in succ)
    distances_ok = finite and all(b <= a + 1e-12 for a, b in zip(succ, succ[1:]))
    pair = limit_pair(family, preset.delta_resolve)
    delta = preset.delta_resolve
    w_bounds = all(bool(np.all((w >= 0.0) & (w <= 1.0))) for w in pair.w_states)
    w_resolved = all(bool(np.all(w[u > delta] == 1.0) and np.all(w[u < -delta] == 0.0))
                     for u, w in zip(pair.u_states, pair.w_states))
    bands = family.band_fractions
    bands_ok = all(np.isfinite(f) for f in bands) and all(
        b < a for a, b in zip(bands, bands[1:]))
    elapsed = time.perf_counter() - t0
    ok = distances_ok and w_bounds and w_resolved and bands_ok and elapsed < 1200.0
    report("vanishing regularization", ok,
           f"distances {[f'{d:.4f}' for d in succ]}, "
           f"bands {[f'{f:.4f}' for f in bands]}, {elapsed:.0f}s")
    assert distances_ok, "successive sup-distances failed to shrink"
    assert w_bounds and w_resolved
    assert bands_ok, "unresolved band fraction failed to decrease"
    assert elapsed < 1200.0


def test_08_boundary_density_and_ladder(report):
    # half-line complement seen from its edge point
    h = 0.01
    grid = Grid(spacing=h, shape=(201,), origin=(-1.0,), r_infinity=4.0)
    mask = grid.coordinates()[:, 0] > 0.0
    radii = [0.05, 0.1, 0.2, 0.4]
    dens = analysis.measure_density(grid, mask, (0.0,), radii)
    dens_ok = all(abs(f - 0.5) <= 2.0 * h / r
                  for r, f in zip(radii, dens.fractions))

    preset = load_preset("logbdy")
    params = analysis.IterationParams(
        s=preset.problem.s, p=preset.problem.p, eps=preset.problem.eps,
        omega0=2.0, rho0=0.3)
    levels = analysis.boundary_sequences(
        params, lambda cyl: preset.boundary_modulus(cyl.rho),
        z0=preset.boundary_point, n_levels=40)
    om = np.array([lv.omega for lv in levels])
    idx = np.arange(om.size)
    above = om > 4.0 * params.eps + 1e-12
    x = np.log1p(idx[above])
    y = np.log(om[above])
    xm, ym = float(np.mean(x)), float(np.mean(y))
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    sigma_hat = -slope
    # raise the fitted intercept until the envelope clears every level
    amp = float(np.exp(np.max(np.log(om) - slope * np.log1p(idx))))
    envelope = amp * (1.0 + idx) ** slope
    env_ok = bool(np.all(om <= envelope * (1.0 + 1e-12)))
    ok = dens_ok and int(above.sum()) >= 3 and sigma_hat > 0.0 and env_ok
    report("boundary density and ladder", ok,
           f"density within 2h/r at {len(radii)} radii, "
           f"varsigma {sigma_hat:.4f} over {om.size} levels")
    assert dens_ok, "half-line complement fraction drifted past 0.5 +/- 2h/r"
    assert int(above.sum()) >= 3
    assert sigma_hat > 0.0
    assert env_ok, "a ladder level escaped the fitted (1+i)^(-varsigma) envelope"


def test_09_modulus_fit_round_trip(report):
    eps = 0.01
    rho0 = 1.0
    radii = rho0 * 0.7 ** np.arange(10)
    samples = [(float(r), 2.0 * (1.0 + math.log(rho0 / r)) ** (-0.25) + 4.0 * eps)
               for r in radii]
    fit = analysis.fit_log_modulus(samples, eps, rho0)
    c_err = abs(fit.c - 2.0)
    s_err = abs(fit.varsigma - 0.5)
    ok = c_err <= 1e-6 and s_err <= 1e-6
    report("modulus fit round trip", ok,
           f"c err {c_err:.2e}, varsigma err {s_err:.2e}")
    assert c_err <= 1e-6
    assert s_err <= 1e-6


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_10_threaded_rerun_determinism(tmp_path, report, monkeypatch):
    t0 = time.perf_counter()
    # the canonical solve with one and with two BLAS/OpenMP threads, run
    # side by side in fresh interpreters so the variables take effect
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    procs = []
    try:
        for n in (1, 2):
            env = dict(os.environ, **{v: str(n) for v in BLAS_THREAD_VARS})
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [package_root, os.environ.get("PYTHONPATH")]))
            out = tmp_path / f"blas_{n}"
            procs.append((out, subprocess.Popen(
                [sys.executable, "-m", "nlstefan.cli", "solve", "--preset", "melt1d",
                 "--out", str(out)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
        for _, proc in procs:
            _, err = proc.communicate(timeout=900)
            assert proc.returncode == 0, err.decode()
    finally:
        for _, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    solves = [_tree_bytes(out) for out, _ in procs]

    # the eps family with one and with two worker threads; the lowered cut
    # gives the 65-node members their two workers
    monkeypatch.setattr(continuation, "MIN_WORKER_NODES", 2)
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({
        "problem": "melt1d",
        "overrides": {"n_nodes": 65, "horizon": 0.05, "n_steps": 20},
        "continuation": {"eps_values": [0.2, 0.1, 0.05]}}))
    families = []
    for threads in (1, 2):
        out = tmp_path / f"family_{threads}"
        assert cli.main(["continuation", "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads)]) == 0
        families.append(_tree_bytes(out))

    elapsed = time.perf_counter() - t0
    n_fields = sum(1 for name in solves[0] if name.endswith(".csv"))
    identical = (n_fields > 0 and solves[0] == solves[1]
                 and len(families[0]) > 0 and families[0] == families[1])
    report("threaded rerun determinism", identical,
           f"{n_fields} stored fields bit-identical across 1/2 BLAS threads, "
           f"{len(families[0])} family artifacts across 1/2 family workers, "
           f"{elapsed:.0f}s")
    assert solves[0] == solves[1], "solve artifacts differ between BLAS thread counts"
    assert families[0] == families[1], "family artifacts differ between worker counts"
    assert identical
