"""Melt an undercooled segment and track the phase front.

Runs a coarse version of the melting benchmark, prints the position of
the zero level set over time, and writes the stored fields plus a front
trace for offline plotting.

Usage: python3 demos/melting_front.py [--out DIR]
"""

import argparse
import os

import numpy as np

from nlstefan import fileio
from nlstefan import load_preset
from nlstefan.solver import max_principle_check, solve


def front_positions(grid, values):
    """Sign changes of the field, located by linear interpolation."""
    x = grid.coordinates()[:, 0]
    sgn = np.sign(values)
    hits = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    out = []
    for i in hits:
        t = values[i] / (values[i] - values[i + 1])
        out.append(x[i] + t * (x[i + 1] - x[i]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out/melting", help="output directory")
    args = ap.parse_args(argv)

    preset = load_preset("melt1d", n_nodes=129, horizon=0.25, n_steps=100)
    traj = solve(preset.problem, preset.solver)
    mp = max_principle_check(traj)
    worst = max(d.residual_norm for d in traj.diagnostics)
    print(f"solved {len(traj.diagnostics)} steps, worst residual {worst:.3e}, "
          f"max principle defect {mp.defect:.1e}")

    rows = []
    print("\n  t       fronts")
    for t, state in zip(traj.times, traj.states):
        fr = front_positions(preset.problem.grid, state)
        rows.append({"t": t, "left": fr[0] if fr else float("nan"),
                     "right": fr[-1] if fr else float("nan")})
        if abs(t / 0.05 - round(t / 0.05)) < 1e-9:
            pretty = ", ".join(f"{f:+.4f}" for f in fr) if fr else "none (all melted)"
            print(f"  {t:.3f}   {pretty}")

    fileio.write_trajectory(args.out, traj)
    with open(os.path.join(args.out, "front.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,left,right\n")
        for row in rows:
            fh.write(f"{row['t']:.17g},{row['left']:.17g},{row['right']:.17g}\n")
    print(f"\nwrote fields and front trace under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
