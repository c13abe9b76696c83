"""Record the reference final states of the canonical (seed 0) inputs.

Run from the repository root when the benchmark's workloads change:

    python3 perfbench/make_reference.py

Later runs compare each warm-up operation with these states in the sup
norm; a drift beyond TOLERANCE is a failed operation.
"""

import json
import os
import sys
import tempfile

import run

TOLERANCE = 1e-9


def main() -> int:
    run.import_package()
    import workloads

    stored = {"tolerance": TOLERANCE, "env": run.environment(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for name, work in workloads.WORKLOADS.items():
            size = work.size("full")
            _, res, fails, _ = run.attempt(work, size, work.inputs(size, 0, 0), tmp)
            if fails:
                sys.exit(f"{name}: canonical run failed: {fails}")
            stored["workloads"][name] = {
                "final": [state.tolist() for state in workloads.final_states(res)]}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.REFERENCE, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
