"""CSV and manifest persistence.

A trajectory is one CSV per stored level, fields/step_NNNNN.csv, plus
manifest.json.  CSV floats are written with 17 significant digits, so
the fields round trip exactly.  Manifests are plain JSON whose float repr
is the shortest lossless one.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Iterable, Sequence

import numpy as np

from .lattice import Grid

FLOAT_FMT = "%.17g"


def write_field_csv(path, grid: Grid, values: np.ndarray) -> None:
    table = np.column_stack((np.arange(grid.n_nodes), grid.coordinates(),
                             np.asarray(values, dtype=float)))
    cols = ["index"] + [f"x{d}" for d in range(grid.dimension)] + ["value"]
    row = "%d" + ("," + FLOAT_FMT) * (grid.dimension + 1) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        fh.write((row * grid.n_nodes) % tuple(table.ravel().tolist()))


def read_field_csv(path):
    """(index, coordinates, values) of a field written by write_field_csv."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0].astype(int), table[:, 1:-1], table[:, -1]


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """A header line and one line per row of already formatted cells."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_trajectory(out_dir, traj, config_echo=None) -> dict:
    """Dump every stored level as CSV and a JSON manifest."""
    fields_dir = os.path.join(out_dir, "fields")
    os.makedirs(fields_dir, exist_ok=True)
    for i, values in enumerate(traj.states):
        write_field_csv(os.path.join(fields_dir, f"step_{i:05d}.csv"), traj.problem.grid, values)
    manifest = {
        "format": "nlstefan-trajectory-2",
        "times": list(traj.times),
        "n_stored": len(traj.states),
        "n_steps": len(traj.diagnostics),
        "diagnostics": [asdict(d) for d in traj.diagnostics],
    }
    if config_echo is not None:
        manifest["config"] = config_echo
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def load_trajectory_states(out_dir):
    """(manifest, times, states) of a dumped trajectory, states one float64
    array with one row per stored level, read from the CSVs."""
    manifest = read_json(os.path.join(out_dir, "manifest.json"))
    states = np.array([read_field_csv(os.path.join(out_dir, "fields", f"step_{i:05d}.csv"))[2]
                       for i in range(manifest["n_stored"])])
    return manifest, manifest["times"], states
