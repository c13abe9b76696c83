"""Run configuration: strict JSON schema, canonical emission.

Unknown keys are rejected everywhere and every violation is reported at
once, each prefixed by its JSON path.  One table per JSON object lists its
keys in emission order, each with a check and a default, so a parsed
config keeps the nested input shape with its defaults filled in and
emit(parse(x)) canonicalizes any accepted input.  Overrides depend on the
preset, which the command line may replace after parsing, so `realize`
checks them against the preset the run actually uses.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import List, Optional, Union

import numpy as np

from .errors import SchemaViolationError
from .lattice import Grid
from .presets import CATALOG, Preset, load_preset
from .solver import LatticeProblem, SolverConfig


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

def _walk(v: _Validator, path: str, raw, table: dict, allowed=None) -> Optional[dict]:
    """The values of the object `raw` that `table` accepts, in table order
    with defaults filled in.  Keys outside `allowed` (by default the
    table's own) are unknown."""
    if not isinstance(raw, dict):
        v.fail(path, "expected an object")
        return None
    v.check_keys(path, raw, allowed or table)
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
    prob = _walk(v, path, value, _INLINE)
    _check_inline(v, prob)
    return prob


def _overrides(v: _Validator, path: str, value):
    # checked by realize against the preset that actually runs
    if not isinstance(value, dict):
        v.fail(path, "expected an object")
        return None
    return dict(value)


def _initial(v: _Validator, path: str, value):
    # inside and radius are read only for a core: a constant initial value
    # accepts them and leaves them out
    core = isinstance(value, dict) and value.get("type") == "core"
    return _walk(v, path, value, _CORE_INITIAL if core else _CONSTANT_INITIAL,
                 allowed=_CORE_INITIAL)


def _check_inline(v: _Validator, prob: dict) -> None:
    """The checks of an inline problem that read more than one key, and the
    initial value's default."""
    box = prob.get("box", {})
    if len(box) == len(_BOX):
        dim = len(box["lo"])
        if not len(box["hi"]) == len(box["nodes"]) == dim or dim not in (1, 2):
            v.fail("problem.box", "lo, hi, nodes must share length 1 or 2")
        else:
            for key, values in prob.get("unknown", {}).items():
                if len(values) != dim:
                    v.fail(f"problem.unknown.{key}", f"expected length {dim}")
    if not v.violations and "value" not in prob["initial"]:
        # the datum's value, second in emission order
        prob["initial"] = {"type": prob["initial"]["type"],
                           "value": prob["datum"]["value"], **prob["initial"]}


# One table per JSON object: key -> (check, default), in emission order.  A
# check is a function (validator, path, value) or the table of a nested
# object.  An absent key takes its default, which is checked like a given
# value; a default of None leaves the key out and _REQUIRED reports it.
_SOLVER = {
    "dt_policy": (partial(_Validator.choice, options=("fixed", "intrinsic")), None),
    "dt": (_POSITIVE, None),
    "dt_factor": (_POSITIVE, None),
    "newton_tol": (_POSITIVE, None),
    "newton_max": (partial(_Validator.integer, minimum=1), None),
    "damping": (_FRACTION, None),
    "store_every": (partial(_Validator.integer, minimum=1), None),
}
_ANALYSIS = {
    "anchor": (_Validator.number_list, None),      # [x..., t]
    "rho0": (_POSITIVE, None),
    "levels": (partial(_Validator.integer, minimum=2), None),
    "shrink": (_FRACTION, None),
}
_CONTINUATION = {
    "eps_values": (_Validator.number_list, [0.2, 0.1, 0.05, 0.025]),
    "delta_resolve": (_POSITIVE, Preset.delta_resolve),
}
_TAIL = {
    "center": (_Validator.number_list, None),      # [x..., t]
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
    "value": (_Validator.number, None),            # the datum's value if absent
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
    "datum": ({"type": (partial(_Validator.choice, options=("constant",),
                                message="only 'constant' is supported inline"),
                        _REQUIRED),
               "value": (_Validator.number, _REQUIRED)}, _REQUIRED),
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
    if v.violations:
        raise SchemaViolationError(v.violations)
    return RunConfig(**values)


def emit_run_config(cfg: RunConfig) -> str:
    """Canonical JSON: the parsed dicts in table order, empty sections left
    out, so the output is itself a valid input and emit(parse(x)) is
    idempotent."""
    payload = {name: value for name, value in vars(cfg).items() if value != {}}
    return json.dumps(payload, indent=2) + "\n"


def _catalog_preset(name: str, overrides: dict) -> Preset:
    """Load a catalog preset; each override must name a parameter of the
    preset function and is typed from that parameter's default."""
    if name not in CATALOG:
        return load_preset(name)    # raises the unknown-preset error
    params = inspect.signature(CATALOG[name]).parameters
    v = _Validator()
    kwargs = {}
    for key, value in overrides.items():
        path = f"overrides.{key}"
        if key not in params:
            v.fail(path, f"not a parameter of preset '{name}'")
        elif isinstance(params[key].default, int):
            kwargs[key] = v.integer(path, value, minimum=1)
        else:
            kwargs[key] = v.number(path, value)
    if v.violations:
        raise SchemaViolationError(v.violations)
    return load_preset(name, **kwargs)


def _inline_preset(prob: dict) -> Preset:
    box, initial = prob["box"], prob["initial"]
    spacings = [(h - l) / (n - 1) for l, h, n in zip(box["lo"], box["hi"], box["nodes"])]
    spacing = spacings[0]
    if any(abs(sp - spacing) > 1e-12 * abs(spacing) for sp in spacings):
        raise SchemaViolationError(["problem.box: axes must share one spacing"])
    grid = Grid(spacing=spacing, shape=tuple(box["nodes"]), origin=tuple(box["lo"]),
                r_infinity=box["r_infinity"])
    coords = grid.coordinates()
    mask = np.all((coords > np.asarray(prob["unknown"]["lo"]) + 1e-12)
                  & (coords < np.asarray(prob["unknown"]["hi"]) - 1e-12), axis=1)
    value = prob["datum"]["value"]
    g = lambda x, t, _v=value: np.full(np.atleast_2d(x).shape[0], _v)
    start = initial["value"]
    if initial["type"] == "core":
        r = np.sqrt(np.sum(coords ** 2, axis=1))
        start = np.where(r < initial["radius"], initial["inside"], start)
    problem = LatticeProblem(
        s=prob["s"], p=prob["p"], grid=grid,
        unknown_mask=mask, dirichlet=g, far_value=value,
        initial=np.where(mask, start, value), horizon=prob["horizon"], eps=prob["eps"])
    return Preset(name="inline", problem=problem,
                  solver=SolverConfig(dt=prob["horizon"] / 100.0))


def realize(cfg: RunConfig):
    """Turn a parsed config into (preset, problem, solver_config).

    A preset name goes through the catalog with the overrides applied; an
    inline problem becomes a preset with the `Preset` defaults.  The
    solver section replaces the solver fields it names, and the analysis
    section and continuation.delta_resolve are written onto the preset.
    """
    if isinstance(cfg.problem, str):
        preset = _catalog_preset(cfg.problem, cfg.overrides)
    elif cfg.overrides:
        raise SchemaViolationError(["overrides: an inline problem takes no overrides"])
    else:
        preset = _inline_preset(cfg.problem)
    v = _Validator()
    dim = preset.problem.grid.dimension
    for path, point in (("analysis.anchor", cfg.analysis.get("anchor")),
                        ("tail.center", cfg.tail.get("center"))):
        if point is not None:
            v.number_list(path, point, length=dim + 1)
    if v.violations:
        raise SchemaViolationError(v.violations)
    a = cfg.analysis
    ladder = {"anchor": (tuple(a["anchor"][:-1]), a["anchor"][-1]) if "anchor" in a else None,
              "rho0": a.get("rho0"), "ladder_levels": a.get("levels"),
              "ladder_shrink": a.get("shrink")}
    preset = replace(preset, solver=replace(preset.solver, **cfg.solver),
                     delta_resolve=cfg.continuation["delta_resolve"],
                     **{k: value for k, value in ladder.items() if value is not None})
    return preset, preset.problem, preset.solver
