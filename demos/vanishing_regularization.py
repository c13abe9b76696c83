"""Shrink the latent layer and watch the solutions settle.

Solves a coarse melting family over a decreasing layer-width schedule,
prints the sup-distances between consecutive members and the fraction
of samples still inside the mollified layer, then assembles the limit
temperature/indicator pair.

Usage: python3 demos/vanishing_regularization.py [--out DIR] [--threads N]
"""

import argparse
import os

import numpy as np

from nlstefan import fileio
from nlstefan.continuation import convergence_report, limit_pair, run_family
from nlstefan import load_preset


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out/continuation", help="output directory")
    ap.add_argument("--threads", type=int, default=2, help="worker threads")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    preset = load_preset("melt1d", n_nodes=65, horizon=0.1, n_steps=40)
    schedule = (0.2, 0.1, 0.05)
    family = run_family(preset.problem, schedule, preset.solver, threads=args.threads)

    print("family members")
    for entry, frac in zip(family.entries, family.band_fractions):
        status = "ok" if entry.ok else f"FAILED: {entry.error}"
        print(f"  eps={entry.eps:<6} unresolved band {frac:.4f}  {status}")
    print("successive sup-distances:",
          ", ".join(f"{d:.5f}" for d in family.successive_distances()))

    report = convergence_report(family)
    print(f"consistent grids: {report.consistent}, distances monotone: {report.monotone}")

    pair = limit_pair(family, delta_resolve=0.05)
    u = pair.u_states[-1]
    w = pair.w_states[-1]
    print(f"\nlimit pair at t={pair.times[-1]}: u in [{u.min():+.3f}, {u.max():+.3f}], "
          f"w in [{w.min():.3f}, {w.max():.3f}], band fraction {pair.band_fraction:.4f}")

    grid = family.entries[-1].trajectory.problem.grid
    fileio.write_field_csv(os.path.join(args.out, "limit_u.csv"), grid, u)
    fileio.write_field_csv(os.path.join(args.out, "limit_w.csv"), grid, w)
    fileio.write_field_csv(os.path.join(args.out, "limit_v.csv"), grid, pair.v_states[-1])
    print(f"wrote limit fields under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
