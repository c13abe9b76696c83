"""Command line front end.

Subcommands: solve, analyze-modulus, continuation, lemma-check, verify,
tail.  `main` orders every run: parse the arguments, load and realize the
config, check `--out` (a directory that does not exist yet, or is empty),
run the command, then make `--out` and write.  A command only computes:
it returns (write, summary, exit status), where write(out) writes its
finished results and summary is what stdout shows after, so a failed run
leaves no directory and no partial files.  Every failure, usage errors
and unwritable paths included, exits with status 2 and prints a JSON
error object to stderr; failed verification checks exit with status 1.
Scalar output on stdout uses 17 significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import analysis, continuation as continuation_mod, fileio
from .config import RunConfig, emit_run_config, parse_run_config, realize
from .errors import (InsufficientSamplesError, NlstefanError, NonpositiveExcessError,
                     SchemaViolationError)
from .lattice import tail as tail_fn
from .solver import caccioppoli_audit, solve, stored_times, structural_audit

F = "%.17g"


def _echo(cfg: RunConfig) -> dict:
    return json.loads(emit_run_config(cfg))


def _load_config(args) -> RunConfig:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise SchemaViolationError([f"config: cannot read {args.config}: {reason}"]) from exc
        cfg = parse_run_config(source)
    else:
        cfg = RunConfig()
    if args.preset:
        cfg.problem = args.preset
    return cfg


def cmd_solve(args, cfg, preset, problem, solver_cfg):
    traj = solve(problem, solver_cfg)
    worst = max(d.residual_norm for d in traj.diagnostics)
    return (lambda out: fileio.write_trajectory(out, traj, config_echo=_echo(cfg)),
            f"solve: {len(traj.diagnostics)} steps, worst residual {F % worst}", 0)


def cmd_tail(args, cfg, preset, problem, solver_cfg):
    center = cfg.tail.get("center", list(preset.anchor[0]))
    rho = cfg.tail.get("rho", preset.rho0)
    window = tuple(cfg.tail.get("window", (0.0, problem.horizon)))
    # the solve stores these times, so an empty window fails before it runs
    rows = analysis.window_rows(stored_times(problem.horizon, solver_cfg), window)
    traj = solve(problem, solver_cfg)
    ext = traj.exterior_states(np.take(traj.times, rows))
    value = tail_fn(problem.grid, traj.states[rows], ext, problem.far_value, center, rho,
                    problem.s, problem.p)
    payload = {"center": center, "rho": rho, "window": list(window),
               "tail": value, "config": _echo(cfg)}
    return (lambda out: fileio.write_json(os.path.join(out, "tail.json"), payload),
            f"tail: {F % value}", 0)


def cmd_analyze_modulus(args, cfg, preset, problem, solver_cfg):
    traj = solve(problem, solver_cfg)
    x0, t0 = preset.anchor
    rho0, n_levels = preset.rho0, preset.ladder_levels
    levels, omega0 = analysis.modulus_ladder(
        traj, preset.anchor, rho0, n_levels=n_levels, shrink=preset.ladder_shrink)
    try:
        report = analysis.fit_log_modulus(levels, problem.eps, rho0)
    except (InsufficientSamplesError, NonpositiveExcessError) as exc:
        raise type(exc)(
            f"{exc}: ladder anchored at {list(x0) + [t0]} with rho0 {rho0}; "
            "set analysis.anchor ([x..., t]) and analysis.rho0 so that at least "
            "3 ladder levels oscillate by more than 4 eps") from exc
    params = analysis.IterationParams(
        s=problem.s, p=problem.p, eps=problem.eps, omega0=omega0, rho0=rho0)
    seq = analysis.interior_sequences(params, n_levels=n_levels)
    tail_rows = analysis.sequence_tail_report(traj, seq, (x0, t0))
    summary = {
        "anchor": list(x0) + [t0], "rho0": rho0, "omega0": omega0,
        "c": report.c, "varsigma": report.varsigma, "eps": report.eps,
        "residual": report.residual, "n_samples": report.n_samples,
        "config": _echo(cfg)}

    def write(out):
        fileio.write_csv(os.path.join(out, "sequences.csv"),
                         ("level", "rho", "omega", "theta", "osc", "tail_ratio"),
                         [[str(r.index)] + [F % x for x in (r.rho, r.omega, r.theta,
                                                            r.osc, r.ratio)]
                          for r in tail_rows])
        fileio.write_csv(os.path.join(out, "modulus.csv"), ("level", "radius", "osc"),
                         [(str(i), F % r, F % o) for i, (r, o) in enumerate(levels)])
        fileio.write_json(os.path.join(out, "modulus.json"), summary)

    return (write, f"modulus fit: c={F % report.c} varsigma={F % report.varsigma} "
                   f"residual={F % report.residual}", 0)


def cmd_continuation(args, cfg, preset, problem, solver_cfg):
    family = continuation_mod.run_family(problem, cfg.continuation["eps_values"],
                                         solver_cfg, threads=args.threads)
    pair = continuation_mod.limit_pair(family, preset.delta_resolve)
    report = continuation_mod.convergence_report(family)
    grid = family.entries[-1].trajectory.problem.grid

    def write(out):
        for entry in family.entries:
            if entry.ok:
                fileio.write_trajectory(os.path.join(out, f"eps_{entry.eps:g}"),
                                        entry.trajectory)
        for name, states in zip("uwv", (pair.u_states, pair.w_states, pair.v_states)):
            fileio.write_field_csv(os.path.join(out, f"limit_{name}.csv"), grid, states[-1])
        fileio.write_json(os.path.join(out, "family.json"), {
            "eps_values": family.eps_values,
            "distances": [[None if not np.isfinite(d) else d for d in row]
                          for row in family.distances.tolist()],
            "successive_distances": report.successive_distances,
            "monotone": report.monotone,
            "band_fractions": [None if not np.isfinite(f) else f
                               for f in family.band_fractions],
            "limit_band_fraction": pair.band_fraction,
            "errors": {f"{e.eps:g}": e.error for e in family.entries if not e.ok},
            "config": _echo(cfg)})

    return (write, f"continuation: distances {[F % d for d in report.successive_distances]} "
                   f"bands {[F % f for f in family.band_fractions]}", 0)


def cmd_lemma_check(args):
    grid_vals = (4.0, 8.0, 16.0)
    iter_rows = []
    all_pass = True
    for m2, n2, l2 in itertools.product(grid_vals, repeat=3):
        if l2 < m2:
            continue
        for omega0 in (1.0, 2.0, 10.0):
            verdict = analysis.lemma_iter_verify(m2, n2, l2, omega0)
            iter_rows.append([f"{x:g}" for x in (m2, n2, l2, omega0)]
                             + [F % verdict.epsilon, F % verdict.min_margin,
                                str(int(verdict.passed))])
            all_pass &= verdict.passed

    rng = np.random.default_rng(args.seed)
    geo_rows = []
    for _ in range(20):
        c = float(rng.uniform(1.0, 5.0))
        b = float(rng.uniform(1.0, 4.0))
        alpha = float(rng.uniform(0.2, 2.0))
        a0 = c ** (-1.0 / alpha) * b ** (-1.0 / alpha ** 2)
        rep = analysis.geometric_convergence(c, b, alpha, a0)
        ok = bool(rep.within_certificate) if rep.within_certificate is not None else rep.bounded
        geo_rows.append([F % x for x in (c, b, alpha, a0)] + [str(int(ok))])
        all_pass &= ok
    negative = analysis.geometric_convergence(1.0, 2.0, 1.0, 0.75)
    all_pass &= negative.diverged
    verdicts = {
        "iteration_lemma": {"cases": len(iter_rows), "all_passed": all_pass},
        "decay_lemma": {"cases": len(geo_rows),
                        "negative_control_diverged": bool(negative.diverged)},
    }

    def write(out):
        fileio.write_csv(os.path.join(out, "lemma_iter.csv"),
                         ("m2", "n2", "l2", "omega0", "epsilon", "min_margin", "passed"),
                         iter_rows)
        fileio.write_csv(os.path.join(out, "lemma_tech.csv"),
                         ("c", "b", "alpha", "a0", "passed"), geo_rows)
        fileio.write_json(os.path.join(out, "verdicts.json"), verdicts)

    return (write, f"lemma-check: {len(iter_rows)} iteration cases, "
                   f"{len(geo_rows)} decay cases, all_passed={all_pass}", 0 if all_pass else 1)


def cmd_verify(args, cfg, preset, problem, solver_cfg):
    traj = solve(problem, solver_cfg)
    checks = structural_audit(traj, solver_cfg)

    x0, t0 = preset.anchor
    theta = analysis.intrinsic_theta(1.0, problem.p)
    cyl = analysis.Cylinder(x0, t0, preset.rho0, theta)
    audit = caccioppoli_audit(traj, level=problem.eps, sign="+", cylinder=cyl)
    checks["caccioppoli"] = {"ratio": audit.ratio, "lhs": audit.lhs,
                             "rhs": audit.rhs,
                             "passed": bool(np.isfinite(audit.ratio))}

    h = problem.grid.spacing
    radii = [8 * h, 16 * h, 32 * h]
    density = analysis.measure_density(problem.grid, problem.unknown_mask,
                                       preset.boundary_point[0], radii, alpha0=0.25)
    checks["measure_density"] = {"radii": radii, "fractions": density.fractions,
                                 "min_fraction": density.min_fraction,
                                 "passed": density.passed}

    passed = all(c["passed"] for c in checks.values())
    payload = {"checks": checks, "passed": passed, "config": _echo(cfg)}
    return (lambda out: fileio.write_json(os.path.join(out, "verify.json"), payload),
            "\n".join(f"verify {name}: {'PASS' if c['passed'] else 'FAIL'}"
                      for name, c in checks.items()), 0 if passed else 1)


def _seed(text: str) -> int:
    """A --seed value; numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: not a non-negative integer")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """A usage error is a schema violation, reported like every other failure."""

    def error(self, message):
        raise SchemaViolationError([f"{self.prog}: {message}"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlstefan", description="nonlocal two-phase lattice laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("analyze-modulus", cmd_analyze_modulus),
                     ("continuation", cmd_continuation), ("lemma-check", cmd_lemma_check),
                     ("verify", cmd_verify), ("tail", cmd_tail)):
        sp = sub.add_parser(name)
        sp.add_argument("--out", type=str, default=None, help="output directory")
        if name == "lemma-check":
            sp.add_argument("--seed", type=_seed, default=0, help="sampling seed")
        else:
            sp.add_argument("--config", type=str, default=None, help="run config JSON")
            sp.add_argument("--preset", type=str, default=None, help="preset name")
        if name == "continuation":
            sp.add_argument("--threads", type=int, default=1, metavar="N",
                            help="run at most N family members at once; members "
                                 "whose box has fewer than %d nodes run on one "
                                 "worker, since below that size a second worker "
                                 "only waits for the GIL"
                                 % continuation_mod.MIN_WORKER_NODES)
        sp.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        inputs = ()
        if "config" in args:    # every subcommand but lemma-check reads one
            cfg = _load_config(args)
            inputs = (cfg, *realize(cfg))
        out = args.out
        if not out:
            raise SchemaViolationError(["out: this subcommand needs --out DIR"])
        existing = os.path.abspath(out)     # makedirs needs a directory to start from
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise SchemaViolationError([f"out: {existing} exists and is not a directory"])
        if os.path.isdir(out) and os.listdir(out):
            # a new run's files beside an earlier run's could not be told apart
            raise SchemaViolationError([f"out: {out} exists and is not empty"])
        write, summary, status = args.handler(args, *inputs)
        os.makedirs(out, exist_ok=True)
        write(out)
    except SchemaViolationError as exc:
        error = {"type": "SchemaViolationError", "violations": exc.violations}
    except (NlstefanError, OSError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
    else:
        print(summary)
        return status
    json.dump({"error": error}, sys.stderr)
    sys.stderr.write("\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
