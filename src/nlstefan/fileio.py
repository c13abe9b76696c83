"""CSV, binary and manifest persistence.

CSV floats are written with 17 significant digits and binary dumps are
little-endian float64 in C order, so both representations round trip
exactly.  Manifests are plain JSON whose float repr is the shortest
lossless one.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Iterable, List, Sequence

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
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        dim = len(header) - 2
        idx, coords, vals = [], [], []
        for line in fh:
            bits = line.strip().split(",")
            if not bits or bits == [""]:
                continue
            idx.append(int(bits[0]))
            coords.append([float(b) for b in bits[1:1 + dim]])
            vals.append(float(bits[-1]))
    return np.asarray(idx), np.asarray(coords), np.asarray(vals)


def write_field_bin(path, values: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(values, dtype=float))
    with open(path, "wb") as fh:
        fh.write(arr.astype("<f8").tobytes(order="C"))


def read_field_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return np.frombuffer(fh.read(), dtype="<f8").copy()


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
    """Dump every stored level as CSV + binary and a JSON manifest."""
    fields_dir = os.path.join(out_dir, "fields")
    os.makedirs(fields_dir, exist_ok=True)
    for i, values in enumerate(traj.states):
        stem = os.path.join(fields_dir, f"step_{i:05d}")
        write_field_csv(stem + ".csv", traj.problem.grid, values)
        write_field_bin(stem + ".bin", values)
    manifest = {
        "format": "nlstefan-trajectory-1",
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
    """Times and stored fields of a dumped trajectory (binary payloads)."""
    manifest = read_json(os.path.join(out_dir, "manifest.json"))
    states: List[np.ndarray] = []
    for i in range(manifest["n_stored"]):
        stem = os.path.join(out_dir, "fields", f"step_{i:05d}")
        states.append(read_field_bin(stem + ".bin"))
    return manifest, manifest["times"], states
