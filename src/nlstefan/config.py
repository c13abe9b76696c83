"""Run configuration: strict JSON schema, canonical emission.

Unknown keys are rejected everywhere and every violation is reported at
once, each prefixed by its JSON path.  Emission reproduces a fixed field
order, so emit(parse(x)) canonicalizes any accepted input.  Overrides
depend on the preset, which the command line may replace after parsing,
so `realize` checks them against the preset the run actually uses.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import List, Optional, Union

import numpy as np

from .errors import SchemaViolationError
from .lattice import Grid
from .presets import CATALOG, Preset, load_preset
from .solver import LatticeProblem, SolverConfig


@dataclass
class BoxSpec:
    lo: List[float]
    hi: List[float]
    nodes: List[int]
    r_infinity: float


@dataclass
class InlineProblem:
    s: float
    p: float
    eps: float
    horizon: float
    box: BoxSpec
    unknown_lo: List[float]
    unknown_hi: List[float]
    datum_value: float
    initial_kind: str = "constant"      # "constant" | "core"
    initial_value: float = 0.0
    initial_inside: float = 0.0
    initial_radius: float = 0.0


@dataclass
class AnalysisSection:
    anchor: Optional[List[float]] = None    # [x..., t]
    rho0: Optional[float] = None
    levels: Optional[int] = None            # None: take the preset's value
    shrink: Optional[float] = None


@dataclass
class ContinuationSection:
    eps_values: List[float] = field(default_factory=lambda: [0.2, 0.1, 0.05, 0.025])
    delta_resolve: float = Preset.delta_resolve


@dataclass
class TailSection:
    center: Optional[List[float]] = None    # [x..., t]
    rho: Optional[float] = None
    window: Optional[List[float]] = None


@dataclass
class RunConfig:
    problem: Union[str, InlineProblem] = "melt1d"
    overrides: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)  # the SolverConfig fields it replaces
    analysis: AnalysisSection = field(default_factory=AnalysisSection)
    continuation: ContinuationSection = field(default_factory=ContinuationSection)
    tail: TailSection = field(default_factory=TailSection)


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

    def fraction(self, path: str, value):
        got = self.number(path, value, positive=True)
        if got is not None and not got < 1.0:
            self.fail(path, "must lie in (0, 1)")
            return None
        return got

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

    def choice(self, path: str, value, options):
        if value not in options:
            self.fail(path, "expected " + " or ".join(f"'{o}'" for o in options))
            return None
        return value


_POSITIVE = partial(_Validator.number, positive=True)

# One check per key of each section, in emission order.
_SECTIONS = {
    "solver": {
        "dt_policy": partial(_Validator.choice, options=("fixed", "intrinsic")),
        "dt": _POSITIVE,
        "dt_factor": _POSITIVE,
        "newton_tol": _POSITIVE,
        "newton_max": partial(_Validator.integer, minimum=1),
        "damping": _Validator.fraction,
        "store_every": partial(_Validator.integer, minimum=1),
    },
    "analysis": {
        "anchor": _Validator.number_list,
        "rho0": _POSITIVE,
        "levels": partial(_Validator.integer, minimum=2),
        "shrink": _Validator.fraction,
    },
    "continuation": {
        "eps_values": _Validator.number_list,
        "delta_resolve": _POSITIVE,
    },
    "tail": {
        "center": _Validator.number_list,
        "rho": _POSITIVE,
        "window": partial(_Validator.number_list, length=2),
    },
}


def _parse_inline_problem(v: _Validator, raw: dict) -> Optional[InlineProblem]:
    allowed = {"s", "p", "eps", "horizon", "box", "unknown", "datum", "initial"}
    v.check_keys("problem", raw, allowed)
    missing = [k for k in ("s", "p", "eps", "horizon", "box", "unknown", "datum")
               if k not in raw]
    for k in missing:
        v.fail(f"problem.{k}", "missing required key")
    if missing:
        return None
    s = v.number("problem.s", raw["s"])
    p = v.number("problem.p", raw["p"])
    if s is not None and not 0.0 < s < 1.0:
        v.fail("problem.s", "s must lie in (0, 1)")
    if p is not None and not p > 2.0:
        v.fail("problem.p", "p must exceed 2")
    eps = v.number("problem.eps", raw["eps"], positive=True)
    horizon = v.number("problem.horizon", raw["horizon"], positive=True)

    box = None
    if isinstance(raw["box"], dict):
        v.check_keys("problem.box", raw["box"], {"lo", "hi", "nodes", "r_infinity"})
        lo = v.number_list("problem.box.lo", raw["box"].get("lo"))
        hi = v.number_list("problem.box.hi", raw["box"].get("hi"))
        nodes = raw["box"].get("nodes")
        if not isinstance(nodes, list) or not all(
                isinstance(n, int) and not isinstance(n, bool) for n in nodes):
            v.fail("problem.box.nodes", "expected a list of integers")
            nodes = None
        elif any(n < 2 for n in nodes):
            v.fail("problem.box.nodes", "each axis needs at least 2 nodes")
            nodes = None
        r_inf = v.number("problem.box.r_infinity", raw["box"].get("r_infinity", 0.0),
                         positive=True)
        if lo is not None and hi is not None and nodes is not None and r_inf is not None:
            if not (len(lo) == len(hi) == len(nodes)) or len(lo) not in (1, 2):
                v.fail("problem.box", "lo, hi, nodes must share length 1 or 2")
            else:
                box = BoxSpec(lo=lo, hi=hi, nodes=nodes, r_infinity=r_inf)
    else:
        v.fail("problem.box", "expected an object")

    unknown_lo = unknown_hi = None
    if isinstance(raw["unknown"], dict):
        v.check_keys("problem.unknown", raw["unknown"], {"lo", "hi"})
        dim = len(box.lo) if box is not None else None
        unknown_lo = v.number_list("problem.unknown.lo", raw["unknown"].get("lo"), dim)
        unknown_hi = v.number_list("problem.unknown.hi", raw["unknown"].get("hi"), dim)
    else:
        v.fail("problem.unknown", "expected an object")

    datum_value = None
    if isinstance(raw["datum"], dict):
        v.check_keys("problem.datum", raw["datum"], {"type", "value"})
        if raw["datum"].get("type") != "constant":
            v.fail("problem.datum.type", "only 'constant' is supported inline")
        datum_value = v.number("problem.datum.value", raw["datum"].get("value"))
    else:
        v.fail("problem.datum", "expected an object")

    initial = raw.get("initial", {})
    if not isinstance(initial, dict):
        v.fail("problem.initial", "expected an object")
        initial = {}
    v.check_keys("problem.initial", initial, {"type", "value", "inside", "radius"})
    initial_kind = v.choice("problem.initial.type", initial.get("type", "constant"),
                            ("constant", "core"))
    initial_value = v.number("problem.initial.value", initial.get(
        "value", datum_value if datum_value is not None else 0.0))
    initial_inside = initial_radius = 0.0
    if initial_kind == "core":
        initial_inside = v.number("problem.initial.inside", initial.get("inside", 0.0))
        initial_radius = v.number("problem.initial.radius", initial.get("radius", 0.0),
                                  positive=True)

    if v.violations:
        return None
    return InlineProblem(s=s, p=p, eps=eps, horizon=horizon, box=box,
                         unknown_lo=unknown_lo, unknown_hi=unknown_hi,
                         datum_value=datum_value, initial_kind=initial_kind,
                         initial_value=initial_value, initial_inside=initial_inside,
                         initial_radius=initial_radius)


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
    v.check_keys("", raw, {"problem", "overrides", *_SECTIONS})
    cfg = RunConfig()
    prob = raw.get("problem", "melt1d")
    if isinstance(prob, str):
        cfg.problem = prob
    elif isinstance(prob, dict):
        inline = _parse_inline_problem(v, prob)
        if inline is not None:
            cfg.problem = inline
    else:
        v.fail("problem", "expected a preset name or an object")

    if not isinstance(raw.get("overrides", {}), dict):
        v.fail("overrides", "expected an object")
    else:
        cfg.overrides = dict(raw.get("overrides", {}))

    for name, checks in _SECTIONS.items():
        section = raw.get(name, {})
        if not isinstance(section, dict):
            v.fail(name, "expected an object")
            continue
        v.check_keys(name, section, checks)
        values = {key: check(v, f"{name}.{key}", section[key])
                  for key, check in checks.items() if key in section}
        values = {key: value for key, value in values.items() if value is not None}
        setattr(cfg, name, values if name == "solver"
                else replace(getattr(cfg, name), **values))

    if v.violations:
        raise SchemaViolationError(v.violations)
    return cfg


def emit_run_config(cfg: RunConfig) -> str:
    """Canonical JSON in declaration order.

    The output is itself a valid input: absent optional fields are
    omitted rather than emitted as nulls, and inline problems are written
    back in the nested input shape, so emit(parse(x)) is idempotent.
    """
    if isinstance(cfg.problem, str):
        prob = cfg.problem
    else:
        ip = cfg.problem
        prob = {
            "s": ip.s, "p": ip.p, "eps": ip.eps,
            "horizon": ip.horizon,
            "box": {"lo": ip.box.lo, "hi": ip.box.hi, "nodes": ip.box.nodes,
                    "r_infinity": ip.box.r_infinity},
            "unknown": {"lo": ip.unknown_lo, "hi": ip.unknown_hi},
            "datum": {"type": "constant", "value": ip.datum_value},
            "initial": {"type": ip.initial_kind, "value": ip.initial_value},
        }
        if ip.initial_kind == "core":
            prob["initial"].update(inside=ip.initial_inside, radius=ip.initial_radius)
    payload = {"problem": prob}
    if cfg.overrides:
        payload["overrides"] = dict(cfg.overrides)
    for name in _SECTIONS:
        section = getattr(cfg, name)
        values = section if isinstance(section, dict) else asdict(section)
        values = {key: value for key, value in values.items() if value is not None}
        if values:
            payload[name] = values
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


def _inline_preset(inline: InlineProblem) -> Preset:
    box = inline.box
    spacings = [(h - l) / (n - 1) for l, h, n in zip(box.lo, box.hi, box.nodes)]
    spacing = spacings[0]
    if any(abs(sp - spacing) > 1e-12 * abs(spacing) for sp in spacings):
        raise SchemaViolationError(["problem.box: axes must share one spacing"])
    grid = Grid(spacing=spacing, shape=tuple(box.nodes), origin=tuple(box.lo),
                r_infinity=box.r_infinity)
    coords = grid.coordinates()
    mask = np.all((coords > np.asarray(inline.unknown_lo) + 1e-12)
                  & (coords < np.asarray(inline.unknown_hi) - 1e-12), axis=1)
    value = inline.datum_value
    g = lambda x, t, _v=value: np.full(np.atleast_2d(x).shape[0], _v)
    # a constant initial value has radius 0, so no node lies in its core
    r = np.sqrt(np.sum(coords ** 2, axis=1))
    core = np.where(r < inline.initial_radius, inline.initial_inside, inline.initial_value)
    initial = np.where(mask, core, value)
    problem = LatticeProblem(
        s=inline.s, p=inline.p, grid=grid,
        unknown_mask=mask, dirichlet=g, far_value=value, initial=initial,
        horizon=inline.horizon, eps=inline.eps)
    return Preset(name="inline", problem=problem,
                  solver=SolverConfig(dt=inline.horizon / 100.0))


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
    for path, point in (("analysis.anchor", cfg.analysis.anchor),
                        ("tail.center", cfg.tail.center)):
        if point is not None:
            v.number_list(path, point, length=dim + 1)
    if v.violations:
        raise SchemaViolationError(v.violations)
    a = cfg.analysis
    ladder = {"anchor": (tuple(a.anchor[:-1]), a.anchor[-1]) if a.anchor else None,
              "rho0": a.rho0, "ladder_levels": a.levels, "ladder_shrink": a.shrink}
    preset = replace(preset, solver=replace(preset.solver, **cfg.solver),
                     delta_resolve=cfg.continuation.delta_resolve,
                     **{k: value for k, value in ladder.items() if value is not None})
    return preset, preset.problem, preset.solver
