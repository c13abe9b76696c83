"""Estimate a logarithmic modulus of continuity from a solved run.

Solves a coarse melting problem, measures oscillation over a ladder of
shrinking intrinsic cylinders, fits the log-log decay model, and prints
the interior iteration schedule that the fitted constants generate.

Usage: python3 demos/modulus_ladder.py [--out DIR]
"""

import argparse
import os

from nlstefan import analysis
from nlstefan import load_preset
from nlstefan.solver import solve


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out/modulus", help="output directory")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    preset = load_preset("melt1d", n_nodes=129, horizon=0.25, n_steps=100)
    traj = solve(preset.problem, preset.solver)

    anchor = (preset.anchor[0], preset.problem.horizon)
    levels, omega0 = analysis.modulus_ladder(
        traj, anchor, preset.rho0, n_levels=preset.ladder_levels,
        shrink=preset.ladder_shrink)
    print(f"oscillation ladder at x0={preset.anchor[0][0]}, omega0={omega0:.4f}")
    print("  level  radius    osc")
    for i, (r, o) in enumerate(levels):
        print(f"  {i:>5}  {r:.5f}  {o:.6f}")

    fit = analysis.fit_log_modulus(levels, preset.problem.eps, preset.rho0)
    print(f"\nfit: osc(r) ~ {fit.c:.4f} (1+ln(rho0/r))^(-{fit.varsigma:.4f}/2) "
          f"+ 4 eps, residual {fit.residual:.4f}")

    params = analysis.IterationParams(
        s=preset.problem.s, p=preset.problem.p, eps=preset.problem.eps,
        omega0=omega0, rho0=preset.rho0)
    seq = analysis.interior_sequences(params, n_levels=12)
    print("\ninterior iteration schedule (stops once the 4 eps floor binds)")
    print("  level  rho          omega     theta")
    for lv in seq:
        star = " *" if lv.stabilized else ""
        print(f"  {lv.index:>5}  {lv.rho:.5e}  {lv.omega:.5f}  {lv.theta:.4f}{star}")

    path = os.path.join(args.out, "ladder.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("level,radius,osc\n")
        for i, (r, o) in enumerate(levels):
            fh.write(f"{i},{r:.17g},{o:.17g}\n")
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
