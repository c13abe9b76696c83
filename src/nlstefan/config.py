"""Run configuration: strict JSON schema, canonical emission, and the one
builder that turns a problem into a `LatticeProblem`.

Unknown keys are rejected everywhere and every violation is reported at
once, each prefixed by its JSON path.  One table per JSON object lists its
keys in emission order, each with a check and a default, so a parsed
config keeps the nested input shape with its defaults filled in and
emit(parse(x)) canonicalizes any accepted input.  A catalog preset is an
inline problem plus its own analysis values; its overrides replace inline
keys.  Overrides depend on the preset, which the command line may replace
after parsing, so `realize` checks them against the preset the run
actually uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, Optional, Union

import numpy as np

from .errors import InvalidParamsError, SchemaViolationError
from .lattice import Grid
from .solver import LatticeProblem, SolverConfig


@dataclass
class Preset:
    """A ready-to-run problem plus the knobs analysis tools read."""

    name: str
    problem: LatticeProblem
    solver: SolverConfig
    anchor: tuple                      # (x0, t0) for oscillation ladders
    boundary_point: tuple              # (x_b, 0) for boundary checks
    rho0: float = 0.25                 # base ladder radius
    ladder_levels: int = 8
    ladder_shrink: float = 0.65
    delta_resolve: float = 0.05
    boundary_modulus: Optional[Callable] = None


def _is_number(value) -> bool:
    # json.loads reads NaN and Infinity, which no field accepts
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


class _Validator:
    """Collects violations; each check returns the accepted value or None."""

    def __init__(self):
        self.violations: List[str] = []

    def fail(self, path: str, message: str):
        self.violations.append(f"{path}: {message}")

    def check_keys(self, path: str, raw: dict, allowed):
        for key in raw:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")

    def number(self, path: str, value, positive=False):
        if not _is_number(value):
            self.fail(path, "expected a number")
            return None
        if positive and not value > 0:
            self.fail(path, "must be positive")
            return None
        return float(value)

    def integer(self, path: str, value, minimum=None):
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(path, "expected an integer")
            return None
        if minimum is not None and value < minimum:
            self.fail(path, f"must be at least {minimum}")
            return None
        return value

    def number_list(self, path: str, value, length=None):
        if not isinstance(value, list) or not all(_is_number(v) for v in value):
            self.fail(path, "expected a list of numbers")
            return None
        if length is not None and len(value) != length:
            self.fail(path, f"expected length {length}")
            return None
        return [float(v) for v in value]

    def choice(self, path: str, value, options, message=None):
        if value not in options:
            self.fail(path, message or
                      "expected " + " or ".join(f"'{o}'" for o in options))
            return None
        return value

    def node_counts(self, path: str, value):
        if not isinstance(value, list) or not all(
                isinstance(n, int) and not isinstance(n, bool) for n in value):
            self.fail(path, "expected a list of integers")
            return None
        if any(n < 2 for n in value):
            self.fail(path, "each axis needs at least 2 nodes")
            return None
        return value


_REQUIRED = object()
_POSITIVE = partial(_Validator.number, positive=True)


def _rule(test, message, check=_Validator.number):
    """`check`, then `message` as the violation unless test(value) holds."""
    def checked(v: _Validator, path: str, value):
        got = check(v, path, value)
        if got is not None and not test(got):
            v.fail(path, message)
            return None
        return got
    return checked


_FRACTION = _rule(lambda x: x < 1.0, "must lie in (0, 1)", _POSITIVE)

def _walk(v: _Validator, path: str, raw, table: dict) -> Optional[dict]:
    """The values of the object `raw` that `table` accepts, in table order
    with defaults filled in.  Keys outside the table are unknown."""
    if not isinstance(raw, dict):
        v.fail(path, "expected an object")
        return None
    v.check_keys(path, raw, table)
    values = {}
    for key, (check, default) in table.items():
        at = f"{path}.{key}" if path else key
        if key not in raw and default is _REQUIRED:
            v.fail(at, "missing required key")
        elif key in raw or default is not None:
            value = raw.get(key, default)
            got = (_walk(v, at, value, check) if isinstance(check, dict)
                   else check(v, at, value))
            if got is not None:
                values[key] = got
    return values


def _problem(v: _Validator, path: str, value):
    """A preset name, or an inline problem checked against `_INLINE`."""
    if isinstance(value, str):
        return value
    if not isinstance(value, dict):
        v.fail(path, "expected a preset name or an object")
        return None
    return _walk(v, path, value, _INLINE)


def _overrides(v: _Validator, path: str, value):
    # checked by realize against the preset that actually runs
    if not isinstance(value, dict):
        v.fail(path, "expected an object")
        return None
    return dict(value)


def _initial(v: _Validator, path: str, value):
    # inside and radius belong to a core, as each datum type takes its own keys
    core = isinstance(value, dict) and value.get("type") == "core"
    return _walk(v, path, value, _CORE_INITIAL if core else _CONSTANT_INITIAL)


def _datum(v: _Validator, path: str, value):
    # each type takes its own keys: value, or c_g and delta
    log = isinstance(value, dict) and value.get("type") == "log_modulus"
    return _walk(v, path, value, _LOG_DATUM if log else _CONSTANT_DATUM)


def _check_inline(v: _Validator, prob: dict, analysis: dict, tail: dict) -> None:
    """The checks of an inline problem that read more than one key, those of
    the points that the analysis and tail sections place in its box, and
    the initial value's default."""
    box = prob.get("box", {})
    if len(box) == len(_BOX):
        dim = len(box["lo"])
        if not len(box["hi"]) == len(box["nodes"]) == dim or dim not in (1, 2):
            v.fail("problem.box", "lo, hi, nodes must share length 1 or 2")
        else:
            spacings = [(h - l) / (n - 1)
                        for l, h, n in zip(box["lo"], box["hi"], box["nodes"])]
            if any(abs(sp - spacings[0]) > 1e-12 * abs(spacings[0]) for sp in spacings):
                v.fail("problem.box", "axes must share one spacing")
            for key, values in prob.get("unknown", {}).items():
                if len(values) != dim:
                    v.fail(f"problem.unknown.{key}", f"expected length {dim}")
            for path, point, length in (("analysis.anchor", analysis.get("anchor"), dim + 1),
                                        ("tail.center", tail.get("center"), dim)):
                if point is not None:
                    v.number_list(path, point, length=length)
    if not v.violations and "value" not in prob["initial"] and "value" in prob["datum"]:
        # a constant datum's value, second in emission order
        prob["initial"] = {"type": prob["initial"]["type"],
                           "value": prob["datum"]["value"], **prob["initial"]}


# One table per JSON object: key -> (check, default), in emission order.  A
# check is a function (validator, path, value) or the table of a nested
# object.  An absent key takes its default, which is checked like a given
# value; a default of None leaves the key out and _REQUIRED reports it.
_SOLVER = {
    "dt": (_POSITIVE, None),
    "newton_tol": (_POSITIVE, None),
    "newton_max": (partial(_Validator.integer, minimum=1), None),
}
_ANALYSIS = {
    "anchor": (_Validator.number_list, None),      # [x..., t]
    "rho0": (_POSITIVE, None),
    "levels": (partial(_Validator.integer, minimum=2), None),
    "shrink": (_FRACTION, None),
}
_CONTINUATION = {
    "eps_values": (_rule(lambda e: len(e) >= 2, "expected at least two values",
                         _Validator.number_list), [0.2, 0.1, 0.05, 0.025]),
    "delta_resolve": (_POSITIVE, Preset.delta_resolve),
}
_TAIL = {
    "center": (_Validator.number_list, None),      # [x...]
    "rho": (_POSITIVE, None),
    "window": (_rule(lambda w: w[0] <= w[1], "start must not exceed end",
                     partial(_Validator.number_list, length=2)), None),
}
_BOX = {
    "lo": (_Validator.number_list, _REQUIRED),
    "hi": (_Validator.number_list, _REQUIRED),
    "nodes": (_Validator.node_counts, _REQUIRED),
    "r_infinity": (_POSITIVE, _REQUIRED),
}
_CONSTANT_INITIAL = {
    "type": (partial(_Validator.choice, options=("constant", "core")), "constant"),
    "value": (_Validator.number, None),            # the datum at t = 0 if absent
}
_CONSTANT_DATUM = {
    "type": (partial(_Validator.choice, options=("constant", "log_modulus")), _REQUIRED),
    "value": (_Validator.number, _REQUIRED),
}
# c_g (1 + log(1/r))^(-delta) at r = |x - x_b| + t^(1/sp), x_b the unknown
# set's lower corner
_LOG_DATUM = {
    "type": _CONSTANT_DATUM["type"],
    "c_g": (_POSITIVE, _REQUIRED),
    "delta": (_POSITIVE, _REQUIRED),
}
_CORE_INITIAL = {
    **_CONSTANT_INITIAL,
    "inside": (_Validator.number, 0.0),
    "radius": (_POSITIVE, 0.0),
}
_INLINE = {
    "s": (_rule(lambda s: 0.0 < s < 1.0, "s must lie in (0, 1)"), _REQUIRED),
    "p": (_rule(lambda p: p > 2.0, "p must exceed 2"), _REQUIRED),
    "eps": (_POSITIVE, _REQUIRED),
    "horizon": (_POSITIVE, _REQUIRED),
    "box": (_BOX, _REQUIRED),
    "unknown": ({"lo": (_Validator.number_list, _REQUIRED),
                 "hi": (_Validator.number_list, _REQUIRED)}, _REQUIRED),
    "datum": (_datum, _REQUIRED),
    "initial": (_initial, {}),
}
_RUN = {
    "problem": (_problem, "melt1d"),
    "overrides": (_overrides, {}),
    "solver": (_SOLVER, {}),
    "analysis": (_ANALYSIS, {}),
    "continuation": (_CONTINUATION, {}),
    "tail": (_TAIL, {}),
}


@dataclass
class RunConfig:
    """A parsed config: a preset name or an inline problem, and each
    section, as dicts in the nested input shape with defaults filled in."""

    problem: Union[str, dict] = "melt1d"
    overrides: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)  # the SolverConfig fields it replaces
    analysis: dict = field(default_factory=dict)
    continuation: dict = field(
        default_factory=lambda: _walk(_Validator(), "continuation", {}, _CONTINUATION))
    tail: dict = field(default_factory=dict)


def parse_run_config(source) -> RunConfig:
    """Parse and validate a run configuration (JSON text or dict)."""
    if isinstance(source, str):
        try:
            raw = json.loads(source)
        except json.JSONDecodeError as exc:
            raise SchemaViolationError(
                [f"json: {exc.msg} at line {exc.lineno} column {exc.colno}"])
    else:
        raw = source
    if not isinstance(raw, dict):
        raise SchemaViolationError(["top level: expected an object"])
    v = _Validator()
    values = _walk(v, "", raw, _RUN)
    if isinstance(values.get("problem"), dict):
        _check_inline(v, values["problem"], values.get("analysis", {}), values.get("tail", {}))
    if v.violations:
        raise SchemaViolationError(v.violations)
    return RunConfig(**values)


def emit_run_config(cfg: RunConfig) -> str:
    """Canonical JSON: the parsed dicts in table order, empty sections left
    out, so the output is itself a valid input and emit(parse(x)) is
    idempotent."""
    payload = {name: value for name, value in vars(cfg).items() if value != {}}
    return json.dumps(payload, indent=2) + "\n"


_SEGMENT = {"s": 0.5, "p": 3.0, "eps": 0.05, "horizon": 0.5,
            "box": {"lo": [-1.0], "hi": [1.0], "nodes": [257], "r_infinity": 4.0},
            "unknown": {"lo": [-1.0], "hi": [1.0]}}

# name -> an inline problem, its step count, the ladder anchor's x (t is the
# horizon) and the analysis values that differ from the Preset defaults
CATALOG = {
    # melting of a uniformly undercooled segment: a front moves in from both
    # ends, and the anchor sits in the warm region it leaves behind, where
    # the solution varies smoothly at every ladder scale
    "melt1d": {"problem": dict(_SEGMENT, datum={"type": "constant", "value": 1.0},
                               initial={"value": -1.0}),
               "n_steps": 400, "anchor": [0.5], "rho0": 0.3, "ladder_shrink": 0.85},
    # a warm core inside a cold segment with a cold exterior: both phases
    # are present from the start
    "twophase1d": {"problem": dict(_SEGMENT, datum={"type": "constant", "value": -1.0},
                                   initial={"type": "core", "value": -1.0,
                                            "inside": 1.0, "radius": 0.5}),
                   "n_steps": 400, "anchor": [0.0], "rho0": 0.4},
    # an exterior datum with a logarithmic modulus at the boundary point
    # x = 0 of the unknown interval (0, 1)
    "logbdy": {"problem": dict(_SEGMENT, eps=0.01,
                               box={"lo": [-0.5], "hi": [1.5], "nodes": [257],
                                    "r_infinity": 4.0},
                               unknown={"lo": [0.0], "hi": [1.0]},
                               datum={"type": "log_modulus", "c_g": 0.5, "delta": 0.9}),
               "n_steps": 400, "anchor": [0.5], "rho0": 0.3, "datum_overrides": ("c_g", "delta")},
    # constant compatible data: the exact solution is the constant, which
    # makes every defect identically zero
    "const1d": {"problem": dict(_SEGMENT, horizon=0.1,
                                box=dict(_SEGMENT["box"], nodes=[65]),
                                datum={"type": "constant", "value": 0.3}),
                "n_steps": 20, "anchor": [0.0], "rho0": 0.4, "datum_overrides": ("value",)},
}

# every preset takes these; n_nodes replaces box.nodes and the datum keys
# its entry names replace those of problem.datum
_OVERRIDES = {
    "n_nodes": (partial(_Validator.integer, minimum=2), None),
    "horizon": (_INLINE["horizon"][0], None),
    "eps": (_INLINE["eps"][0], None),
    "n_steps": (partial(_Validator.integer, minimum=1), None),
}
_DATUM_OVERRIDES = {"value": (_CONSTANT_DATUM["value"][0], None),
                    "c_g": (_LOG_DATUM["c_g"][0], None),
                    "delta": (_LOG_DATUM["delta"][0], None)}


def _catalog_problem(v: _Validator, name: str, overrides: dict):
    """The preset's inline problem with the overrides replacing its keys,
    and its step count."""
    entry = CATALOG[name]
    table = {**_OVERRIDES, **{key: _DATUM_OVERRIDES[key]
                              for key in entry.get("datum_overrides", ())}}
    for key in overrides:
        if key not in table:
            v.fail(f"overrides.{key}", f"not a parameter of preset '{name}'")
    values = _walk(v, "overrides", {k: x for k, x in overrides.items() if k in table}, table)
    prob = entry["problem"]
    prob = dict(prob, **{k: values[k] for k in ("horizon", "eps") if k in values},
                box=dict(prob["box"], nodes=[values.get("n_nodes", prob["box"]["nodes"][0])]),
                datum=dict(prob["datum"], **{k: values[k] for k in _DATUM_OVERRIDES
                                             if k in values}))
    return _walk(v, "problem", prob, _INLINE), values.get("n_steps", entry["n_steps"])


def _dirichlet(prob: dict):
    """The datum g(x, t), its far value, and its modulus at the unknown
    set's lower corner (None for a constant)."""
    datum = prob["datum"]
    if datum["type"] == "constant":
        value = datum["value"]
        return lambda x, t: np.full(np.atleast_2d(x).shape[0], value), value, None
    c_g, delta = datum["c_g"], datum["delta"]
    x_b = np.asarray(prob["unknown"]["lo"])
    power = 1.0 / (prob["s"] * prob["p"])

    def g(x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.sqrt(np.sum((x - x_b) ** 2, axis=1)) + max(float(t), 0.0) ** power
        return c_g * (1.0 + np.log(1.0 / np.clip(r, 1e-300, 1.0))) ** (-delta)

    def modulus(r: float) -> float:
        r = min(max(float(r), 1e-300), 1.0)
        return c_g * (1.0 + math.log(1.0 / r)) ** (-delta)

    return g, c_g, modulus


def _build(name: str, prob: dict, n_steps: int, entry: dict) -> Preset:
    box, initial = prob["box"], prob["initial"]
    spacing = (box["hi"][0] - box["lo"][0]) / (box["nodes"][0] - 1)
    grid = Grid(spacing=spacing, shape=box["nodes"], origin=box["lo"],
                r_infinity=box["r_infinity"])
    coords = grid.coordinates()
    mask = np.all((coords > np.asarray(prob["unknown"]["lo"]) + 1e-12)
                  & (coords < np.asarray(prob["unknown"]["hi"]) - 1e-12), axis=1)
    g, far_value, modulus = _dirichlet(prob)
    outside = g(coords, 0.0)
    start = initial.get("value", outside)
    if initial["type"] == "core":
        r = np.sqrt(np.sum(coords ** 2, axis=1))
        start = np.where(r < initial["radius"], initial["inside"], start)
    horizon = prob["horizon"]
    problem = LatticeProblem(
        s=prob["s"], p=prob["p"], grid=grid, unknown_mask=mask, dirichlet=g,
        far_value=far_value, initial=np.where(mask, start, outside),
        horizon=horizon, eps=prob["eps"])
    center = [o + 0.5 * (n - 1) * spacing for o, n in zip(box["lo"], box["nodes"])]
    return Preset(name=name, problem=problem,
                  solver=SolverConfig(dt=horizon / n_steps),
                  anchor=(tuple(entry.get("anchor", center)), horizon),
                  boundary_point=(tuple(prob["unknown"]["lo"]), 0.0),
                  boundary_modulus=modulus,
                  **{k: entry[k] for k in ("rho0", "ladder_shrink") if k in entry})


def realize(cfg: RunConfig):
    """Turn a parsed config into (preset, problem, solver_config).

    A preset name is its catalog entry's inline problem with the overrides
    applied; an inline problem runs 100 steps with the `Preset` defaults.
    Both go through one builder.  The solver section replaces the solver
    fields it names, and the analysis section and
    continuation.delta_resolve are written onto the preset.
    """
    v = _Validator()
    name, entry, prob, n_steps = "inline", {}, cfg.problem, 100
    if isinstance(prob, str):
        if prob not in CATALOG:
            raise InvalidParamsError(
                f"unknown preset '{prob}'; available: {', '.join(sorted(CATALOG))}")
        name, entry = prob, CATALOG[prob]
        prob, n_steps = _catalog_problem(v, name, cfg.overrides)
    elif cfg.overrides:
        v.fail("overrides", "an inline problem takes no overrides")
    _check_inline(v, prob, cfg.analysis, cfg.tail)
    if v.violations:
        raise SchemaViolationError(v.violations)
    preset = _build(name, prob, n_steps, entry)
    a = cfg.analysis
    ladder = {"anchor": (tuple(a["anchor"][:-1]), a["anchor"][-1]) if "anchor" in a else None,
              "rho0": a.get("rho0"), "ladder_levels": a.get("levels"),
              "ladder_shrink": a.get("shrink")}
    preset = replace(preset, solver=replace(preset.solver, **cfg.solver),
                     delta_resolve=cfg.continuation["delta_resolve"],
                     **{k: value for k, value in ladder.items() if value is not None})
    return preset, preset.problem, preset.solver


def load_preset(name: str, **overrides) -> Preset:
    """A catalog preset with its overrides, built as a run config builds it."""
    return realize(RunConfig(problem=name, overrides=overrides))[0]
