"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload emits every metric named in
BENCHMARK.json, with its unit, in both trace modes, and that a reference
state perturbed by 1e-6 is counted as a failed operation.
"""

import json
import math
import os
import sys
import tempfile

import run

PERTURBATION = 1e-6
TOLERANCE = 1e-9


def main() -> int:
    run.import_package()
    import workloads

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from the runner's")
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        expect({m["name"]: m["unit"] for m in spec[key]} == units,
               f"BENCHMARK.json {key} metrics differ from the runner's")

    for name, work in workloads.WORKLOADS.items():
        size = work.size("tiny")
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            _, res, fails, _ = run.attempt(work, size, work.inputs(size, 0, 0), tmp)
        expect(not fails, f"{name}: canonical tiny run failed: {fails}")
        if fails:
            continue
        states = [s.tolist() for s in workloads.final_states(res)]
        perturbed = [[v + PERTURBATION for v in s] for s in states]

        for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
            out = run.measure(name, 1, 0.01, trace, scale="tiny",
                              reference=(states, TOLERANCE))["result"]
            label = f"{name} trace={int(trace)}"
            expect(set(out) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(out)}")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 2,
                   f"{label}: expected a clean run, got {out['failed']} failures "
                   f"of {out['attempted']}")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == units, f"{label}: metrics or units differ: {sorted(set(got) ^ set(units))}")
            expect(all(math.isfinite(v["value"]) for v in out["metrics"].values()),
                   f"{label}: a metric is not finite")

        out = run.measure(name, 1, 0.01, False, scale="tiny",
                          reference=(perturbed, TOLERANCE))["result"]
        expect(out["failed"] >= 1 and not out["correct"],
               f"{name}: a reference perturbed by {PERTURBATION:g} was not counted "
               f"as a failure")

    for message in problems:
        print(f"FAIL {message}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
