"""nlstefan benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload melt1d --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the current directory, never
from an installed copy; without ``src/nlstefan`` the runner exits with
status 1 and prints no result.

The load is closed-loop: one operation at a time, each started after the
previous one ended, in one process.  Before the measured window one
operation on the canonical (seed 0) inputs warms the caches and is
compared with the stored reference state; with seed 0 every measured
operation is compared with it too.  Set-up time is the fastest of
several fresh interpreters that import the package and build the inputs,
run between the operations of an untraced window.  Every operation's
outputs are checked outside its timed region, and each exception or
failed check counts as a failed operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` operations alternate untraced and traced on the same
inputs, and it reports the per-layer split plus the tracing overhead.
Earlier lines carry the environment and run details as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "lattice.workspace_build.calls": "count", "lattice.workspace_build.s": "s",
    "lattice.workspace_bytes": "bytes",
    "lattice.apply.calls": "count", "lattice.apply.s": "s",
    "lattice.pair_energy.calls": "count", "lattice.pair_energy.s": "s",
    "lattice.test_pairing.s": "s", "lattice.tail.calls": "count", "lattice.tail.s": "s",
    "lattice.s": "s",
    "enthalpy.calls": "count", "enthalpy.s": "s",
    "linalg.solve.calls": "count", "linalg.solve.s": "s", "linalg.gflop_per_s": "GFLOP/s",
    "solver.s": "s", "solver.steps": "count", "solver.newton_iters": "count",
    "solver.backtracks": "count", "solver.apply_per_iter": "ratio",
    "solver.objective_per_iter": "ratio", "solver.jacobian.s": "s",
    "solver.newton_self.s": "s", "solver.step.p50_ms": "ms", "solver.step.high_ms": "ms",
    "solver.step.high_pct": "%", "solver.step.samples": "count", "solver.audit.s": "s",
    "solver.drift_sup": "1",
    "continuation.member_s": "s", "continuation.parallel_efficiency": "ratio",
    "continuation.post_s": "s",
    "analysis.s": "s", "fileio.write.s": "s", "fileio.bytes": "bytes",
    "trace.coverage": "ratio", "trace.overhead": "ratio", "error_rate": "ratio",
}


def import_package():
    """Import nlstefan from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "nlstefan", "__init__.py")):
        sys.exit("perfbench: src/nlstefan not found; run from the repository root")
    sys.path[:0] = [SRC, HERE]
    import nlstefan
    if not os.path.abspath(nlstefan.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: nlstefan imported from {nlstefan.__file__}, not ./src")


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for base, _, files in os.walk(os.path.join(SRC, "nlstefan")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "src_lines": src_lines,
    }


def setup_probe(workload: str, seed: int, scale: str) -> float:
    """Import plus input construction, timed in a fresh interpreter."""
    probe = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{SRC!r}, {HERE!r}]\n"
        "import workloads\n"
        f"w = workloads.WORKLOADS[{workload!r}]\n"
        f"w.inputs(w.size({scale!r}), {seed}, 1)\n"
        "print(time.perf_counter() - t0)\n")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _, files in os.walk(path) for name in files)


def attempt(work, size: dict, inp: dict, tmp: str):
    """Run one operation, time it, then check it.

    Returns (seconds, result or None, failures, bytes written).
    """
    op_dir = tempfile.mkdtemp(dir=tmp)
    try:
        start = time.perf_counter()
        try:
            res = work.run(inp, op_dir)
        except Exception as exc:  # a failing operation is counted, not fatal
            return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"], 0
        elapsed = time.perf_counter() - start
        try:
            fails = work.check(res, size)
        except Exception as exc:  # a check that cannot run is a failed check
            fails = [f"check raised {type(exc).__name__}: {exc}"]
        return elapsed, res, fails, dir_bytes(op_dir)
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)


def load_reference(workload: str):
    """(final states, tolerance) stored for the canonical inputs, or None."""
    if not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        stored = json.load(fh)
    entry = stored["workloads"].get(workload)
    return None if entry is None else (entry["final"], stored["tolerance"])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", reference=None) -> dict:
    """One benchmark run; returns the result object and run details."""
    import workloads
    from tracer import Tracer, high_percentile, summarize

    work = workloads.WORKLOADS[workload]
    size = work.size(scale)
    attempted = failed = 0
    failures = []
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        def run_one(inp, ref=None):
            nonlocal attempted, failed
            attempted += 1
            elapsed, res, fails, nbytes = attempt(work, size, inp, tmp)
            drift = 0.0
            if ref is not None and res is not None:
                states, tol = ref
                drift = workloads.reference_drift(res, states)
                if not drift <= tol:
                    fails.append(f"{workload}: final state drifts {drift:.3e} from the "
                                 f"reference (tolerance {tol:g})")
            failed += bool(fails)
            failures.extend(fails)
            return elapsed, res, nbytes, drift

        # warm-up on the canonical inputs, checked against the reference
        drift = run_one(work.inputs(size, 0, 0), reference)[3]
        # every operation on the canonical inputs has a stored reference
        op_reference = reference if seed == 0 else None

        tracer = Tracer()
        plain, traced, traced_results, written = [], [], [], []
        # Untraced runs alternate the set-up probes with the operations, at
        # evenly spaced points of the window, so they sample the same host
        # phases; the window is extended by the time the probes take.
        setup = []
        start = time.perf_counter()
        deadline = start + seconds
        probe_at = [start + seconds * i / SETUP_PROBES for i in range(SETUP_PROBES)]
        op = 0
        while op == 0 or time.perf_counter() < deadline:
            op += 1
            inp = work.inputs(size, seed, op)
            plain.append(run_one(inp, op_reference)[0])
            if (not trace and len(setup) < SETUP_PROBES
                    and time.perf_counter() >= probe_at[len(setup)]):
                probe_start = time.perf_counter()
                setup.append(setup_probe(workload, seed, scale))
                deadline += time.perf_counter() - probe_start
            if trace:
                tracer.install()
                try:
                    elapsed, res, nbytes, _ = run_one(inp, op_reference)
                finally:
                    tracer.uninstall()
                traced.append(elapsed)
                written.append(nbytes)
                if res is not None:
                    traced_results.append(res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    detail = {"workload": workload, "seed": seed, "scale": scale,
              "operations": len(plain), "wall_s_median": statistics.median(plain),
              "wall_s_ops": plain,
              "reference_drift": drift if reference is not None else None,
              "failures": failures[:10]}
    wall_high, wall_pct, _ = high_percentile(plain)
    detail["wall_s_high"] = {"value": wall_high, "percentile": wall_pct}
    if not trace:
        while len(setup) < SETUP_PROBES:  # operations longer than a probe interval
            setup.append(setup_probe(workload, seed, scale))
        detail["setup_s_probes"] = setup
        metrics = {
            "wall_s": statistics.median(plain),
            # the fastest probe: host interference only ever adds time
            "setup_s": min(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        n_ops = len(traced)
        metrics = summarize(tracer.spans, n_ops, workloads.FAMILY_THREADS)
        trajs = [t for r in traced_results for t in r["trajectories"] if t is not None]
        diags = [d for t in trajs for d in t.diagnostics]
        iters = sum(d.newton_iterations for d in diags)
        metrics["solver.steps"] = len(diags) / n_ops
        metrics["solver.newton_iters"] = iters / n_ops
        metrics["solver.backtracks"] = sum(d.backtracks for d in diags) / n_ops
        metrics["solver.apply_per_iter"] = metrics.pop("solver.apply_calls") / max(iters, 1)
        metrics["solver.objective_per_iter"] = (
            metrics.pop("solver.objective_calls") / max(iters, 1))
        metrics["solver.drift_sup"] = drift
        metrics["fileio.bytes"] = statistics.mean(written)
        metrics["trace.overhead"] = sum(traced) / sum(plain) - 1.0
        metrics["error_rate"] = failed / attempted
        detail["absent"] = tracer.absent
        units = PER_LAYER_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    print(json.dumps({"env": environment()}), flush=True)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  reference=load_reference(args.workload))
    print(json.dumps({"detail": out["detail"]}), flush=True)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
