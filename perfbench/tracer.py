"""Span tracer that wraps the package's callables from outside.

The program is not edited: each wrap point is a callable found by module
and name, and the wrapper replaces it at every ``nlstefan.*`` module
attribute bound to it, so names imported with ``from ... import`` are
traced as well.  Methods are wrapped on their class.  A wrap point that
no longer exists is reported as absent.

Spans are kept in memory.  Each thread keeps its own span stack, so a
span's parent is the innermost open span of the same thread, and the
finished spans are appended under a lock.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

LINALG_SOURCES = ("nlstefan._linalg", "scipy.linalg", "numpy.linalg")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    child_s: float = 0.0
    note: float = 0.0           # flops or bytes, depending on the span

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def in_layer(self, prefix: str) -> bool:
        return self.name == prefix or self.name.startswith(prefix + ".")

    def has_ancestor(self, prefix: str) -> bool:
        node = self.parent
        while node is not None:
            if node.in_layer(prefix):
                return True
            node = node.parent
        return False


@dataclass
class WrapPoint:
    """A callable to trace: ``module.attr`` or ``module.Class.method``."""

    span: str
    module: str
    attr: str
    note: Optional[Callable] = None


def _factor_flops(args) -> float:
    """n^3/3 flops when the first argument is a square matrix."""
    a = args[0] if args else None
    if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == a.shape[1]:
        return a.shape[0] ** 3 / 3.0
    return 0.0


def _workspace_bytes(args) -> float:
    """Bytes held by the arrays of a freshly built workspace."""
    seen = {}

    def collect(value):
        if isinstance(value, np.ndarray):
            seen[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                collect(item)

    for value in vars(args[0]).values():
        collect(value)
    return float(sum(seen.values()))


WRAP_POINTS = [
    WrapPoint("lattice.workspace_build", "nlstefan.lattice", "OperatorWorkspace.__init__",
              _workspace_bytes),
    WrapPoint("lattice.apply", "nlstefan.lattice", "OperatorWorkspace.apply"),
    WrapPoint("lattice.pair_energy", "nlstefan.lattice", "OperatorWorkspace.pair_energy"),
    WrapPoint("lattice.test_pairing", "nlstefan.lattice", "OperatorWorkspace.test_pairing"),
    WrapPoint("lattice.tail", "nlstefan.lattice", "tail"),
    WrapPoint("enthalpy.b", "nlstefan.enthalpy", "RegularizedEnthalpy.b"),
    WrapPoint("enthalpy.b_prime", "nlstefan.enthalpy", "RegularizedEnthalpy.b_prime"),
    WrapPoint("enthalpy.potential", "nlstefan.enthalpy", "RegularizedEnthalpy.potential"),
    WrapPoint("enthalpy.beta_eps", "nlstefan.enthalpy", "RegularizedEnthalpy.beta_eps"),
    WrapPoint("solver.solve", "nlstefan.solver", "solve"),
    WrapPoint("solver.step", "nlstefan.solver", "_Stepper.step"),
    WrapPoint("solver.datum", "nlstefan.solver", "_Stepper.datum"),
    WrapPoint("solver.residual", "nlstefan.solver", "_Stepper.residual"),
    WrapPoint("solver.jacobian", "nlstefan.solver", "_Stepper.jacobian"),
    WrapPoint("solver.objective", "nlstefan.solver", "_Stepper.objective"),
    WrapPoint("solver.audit.max_principle", "nlstefan.solver", "max_principle_check"),
    WrapPoint("solver.audit.energy", "nlstefan.solver", "energy_history"),
    WrapPoint("solver.audit.weak", "nlstefan.solver", "weak_residual"),
    WrapPoint("continuation.family", "nlstefan.continuation", "run_family"),
    WrapPoint("continuation.post.limit", "nlstefan.continuation", "limit_pair"),
    WrapPoint("continuation.post.report", "nlstefan.continuation", "convergence_report"),
    WrapPoint("analysis.ladder", "nlstefan.analysis", "modulus_ladder"),
    WrapPoint("analysis.fit", "nlstefan.analysis", "fit_log_modulus"),
    WrapPoint("analysis.sequences", "nlstefan.analysis", "interior_sequences"),
    WrapPoint("analysis.tail_report", "nlstefan.analysis", "sequence_tail_report"),
    WrapPoint("fileio.write", "nlstefan.fileio", "write_trajectory"),
]


def linalg_wrap_points() -> List[WrapPoint]:
    """Linear-algebra callables bound in the solver module, found by the
    module they come from, so the layer stays measured when the
    implementation behind it changes."""
    solver = sys.modules.get("nlstefan.solver")
    points = []
    for name, value in sorted(vars(solver).items() if solver else []):
        origin = getattr(value, "__module__", None) or ""
        if (callable(value) and not isinstance(value, type)
                and origin.startswith(LINALG_SOURCES)):
            points.append(WrapPoint("linalg.solve", "nlstefan.solver", name, _factor_flops))
    return points


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nlstefan" or name.startswith("nlstefan."))]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object, bool]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, point: WrapPoint, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(point.span, 0.0, parent=stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                with tracer._lock:
                    tracer.spans.append(span)
            if point.note is not None:
                span.note = point.note(args)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every wrap point; record the ones that are missing."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        points = WRAP_POINTS + linalg_wrap_points()
        if not any(p.span == "linalg.solve" for p in points):
            self.absent.append("linalg.solve")
        modules = _package_modules()
        for point in points:
            module = sys.modules.get(point.module)
            owner_name, _, method = point.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = getattr(owner, method, None) if owner is not None else None
                if fn is None:
                    self.absent.append(f"{point.module}.{point.attr}")
                    continue
                self._set(owner, method, self._wrap(point, fn))
                continue
            fn = getattr(module, point.attr, None)
            if fn is None or not callable(fn):
                self.absent.append(f"{point.module}.{point.attr}")
                continue
            wrapped = self._wrap(point, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value, had in reversed(self._restore):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._restore = []


def high_percentile(values) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum when that percentile
    would not lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summarize(spans: List[Span], n_ops: int, family_workers: int) -> dict:
    """Per-operation layer figures from the spans of n_ops traced operations."""
    def named(prefix):
        return [s for s in spans if s.in_layer(prefix)]

    def outer(prefix):
        """Spans of a layer that do not sit inside another span of it."""
        return [s for s in named(prefix) if not s.has_ancestor(prefix)]

    def per_op_s(prefix):
        return sum(s.duration for s in outer(prefix)) / n_ops

    def per_op_calls(prefix):
        return len(named(prefix)) / n_ops

    linalg = outer("linalg.solve")
    linalg_s = sum(s.duration for s in linalg)
    solves = named("solver.solve")
    steps = named("solver.step")
    solve_s = sum(s.duration for s in solves)
    unattributed = sum(s.self_s for s in solves + steps)
    step_ms = [s.duration * 1e3 for s in steps] or [0.0]
    high_ms, high_pct, n_steps = high_percentile(step_ms)
    families = named("continuation.family")
    members = [s for s in solves
               if any(f.start <= s.start and s.end <= f.end for f in families)]
    # after the last member ends: distance tables, band fractions, limit pair
    post = sum(f.end - max([m.end for m in members if f.start <= m.start <= f.end],
                           default=f.start) for f in families)
    post += sum(s.duration for s in outer("continuation.post"))
    family_s = sum(f.duration for f in families)
    builds = named("lattice.workspace_build")
    return {
        "lattice.workspace_build.calls": per_op_calls("lattice.workspace_build"),
        "lattice.workspace_build.s": per_op_s("lattice.workspace_build"),
        "lattice.workspace_bytes": max([s.note for s in builds], default=0.0),
        "lattice.apply.calls": per_op_calls("lattice.apply"),
        "lattice.apply.s": per_op_s("lattice.apply"),
        "lattice.pair_energy.calls": per_op_calls("lattice.pair_energy"),
        "lattice.pair_energy.s": per_op_s("lattice.pair_energy"),
        "lattice.test_pairing.s": per_op_s("lattice.test_pairing"),
        "lattice.tail.calls": per_op_calls("lattice.tail"),
        "lattice.tail.s": per_op_s("lattice.tail"),
        "lattice.s": per_op_s("lattice"),
        "enthalpy.calls": per_op_calls("enthalpy"),
        "enthalpy.s": per_op_s("enthalpy"),
        "linalg.solve.calls": per_op_calls("linalg.solve"),
        "linalg.solve.s": linalg_s / n_ops,
        "linalg.gflop_per_s": (sum(s.note for s in linalg) / linalg_s / 1e9
                               if linalg_s > 0.0 else 0.0),
        "solver.s": solve_s / n_ops,
        "solver.jacobian.s": per_op_s("solver.jacobian"),
        "solver.newton_self.s": sum(s.self_s for s in steps) / n_ops,
        "solver.step.p50_ms": float(np.median(step_ms)),
        "solver.step.high_ms": high_ms,
        "solver.step.high_pct": high_pct,
        "solver.step.samples": float(n_steps),
        "solver.audit.s": per_op_s("solver.audit"),
        "solver.apply_calls": float(sum(1 for s in named("lattice.apply")
                                        if s.has_ancestor("solver.solve"))),
        "solver.objective_calls": float(len(named("solver.objective"))),
        "continuation.member_s": sum(m.duration for m in members) / n_ops,
        "continuation.parallel_efficiency": (
            sum(m.duration for m in members) / (family_workers * family_s)
            if family_s > 0.0 else 0.0),
        "continuation.post_s": post / n_ops,
        "analysis.s": per_op_s("analysis"),
        "fileio.write.s": per_op_s("fileio.write"),
        "trace.coverage": 1.0 - unattributed / solve_s if solve_s > 0.0 else 0.0,
    }
