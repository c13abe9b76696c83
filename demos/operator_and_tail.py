"""Poke the nonlocal lattice operator and its far-field tail.

Shows the response to a single spike, the sign structure on an odd
field, and a tail refinement table converging to the closed form for a
constant field.

Usage: python3 demos/operator_and_tail.py [--out DIR]
"""

import argparse
import math
import os

import numpy as np

from nlstefan.lattice import Grid, OperatorWorkspace, tail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out/operator", help="output directory")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    s, p = 0.5, 3.0
    grid = Grid(spacing=0.25, shape=(33,), origin=(-4.0,), r_infinity=50.0)
    x = grid.coordinates()[:, 0]
    x_ext = grid.exterior_coordinates()[:, 0]
    ws = OperatorWorkspace(grid, s, p)

    spike = np.zeros(grid.n_nodes)
    spike[16] = 1.0
    lv = ws.apply(spike, np.zeros(x_ext.shape[0]), 0.0)
    print(f"spike response: center {lv[16]:+.6f}, neighbors {lv[15]:+.6f}, "
          f"decay at distance 4 {lv[0]:+.3e}")

    profile = lambda xi: xi * np.exp(-xi ** 2 / 8.0)
    lodd = ws.apply(profile(x), profile(x_ext), 0.0)
    print(f"odd decaying field: value at the center node {lodd[16]:+.3e} "
          f"(symmetry kills it)")
    np.savetxt(os.path.join(args.out, "spike_response.csv"),
               np.column_stack([x, spike, lv]), delimiter=",",
               header="x,spike,operator", comments="")

    print("\ntail refinement toward the constant-field closed form")
    rho = 0.25
    exact = math.sqrt(4.0 / 3.0)
    print(f"  exact value {exact:.12f}")
    for div in (8, 16, 32, 64):
        h = rho / div
        span = 3.0 * rho
        n_nodes = int(round(2.0 * span / h)) + 1
        g = Grid(spacing=h, shape=(n_nodes,), origin=(-span,), r_infinity=1000.0 * rho)
        ones, ext_ones = np.ones(n_nodes), np.ones(g.exterior_coordinates().shape[0])
        val = tail(g, ones, ext_ones, 1.0, (0.0,), rho, s, p)
        print(f"  h=rho/{div:<3} tail={val:.12f} rel err={abs(val - exact) / exact:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
