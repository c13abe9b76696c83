"""Run-config schema, canonical emission, command line round trips."""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from nlstefan import SchemaViolationError, cli, load_preset, solve
from nlstefan.config import (
    RunConfig,
    emit_run_config,
    parse_run_config,
    realize,
)
from nlstefan.fileio import load_trajectory_states, read_field_csv, read_json

INLINE = {
    "problem": {
        "s": 0.5, "p": 3.0, "eps": 0.05, "horizon": 0.1,
        "box": {"lo": [-1.0], "hi": [1.0], "nodes": [33], "r_infinity": 4.0},
        "unknown": {"lo": [-1.0], "hi": [1.0]},
        "datum": {"type": "constant", "value": 1.0},
        "initial": {"type": "constant", "value": -1.0},
    }
}


# ---------------------------------------------------------------- schema


def test_parse_minimal_preset_config():
    cfg = parse_run_config('{"problem": "const1d"}')
    assert cfg.problem == "const1d"
    preset, problem, solver_cfg = realize(cfg)
    assert preset.name == "const1d"
    assert problem.grid.n_nodes == 65


def test_parse_empty_config_defaults_to_melt():
    cfg = parse_run_config("{}")
    assert cfg.problem == "melt1d"
    assert cfg.continuation["eps_values"] == [0.2, 0.1, 0.05, 0.025]


def test_parse_inline_problem():
    cfg = parse_run_config(json.dumps(INLINE))
    assert isinstance(cfg.problem, dict)
    preset, problem, solver_cfg = realize(cfg)
    assert preset.problem is problem and preset.solver is solver_cfg
    assert preset.anchor == ((0.0,), 0.1)
    assert preset.rho0 == 0.25
    assert (preset.ladder_levels, preset.ladder_shrink) == (8, 0.65)
    assert preset.boundary_point == ((-1.0,), 0.0)
    assert problem.grid.shape == (33,)
    assert problem.eps == 0.05
    assert problem.far_value == 1.0
    assert solver_cfg.dt == pytest.approx(0.001)


def test_parse_rejects_shallow_growth_exponent():
    bad = json.loads(json.dumps(INLINE))
    bad["problem"]["p"] = 2.0
    with pytest.raises(SchemaViolationError) as exc:
        parse_run_config(json.dumps(bad))
    assert any("p must exceed 2" in v for v in exc.value.violations)


def test_parse_rejects_bad_differentiability():
    bad = json.loads(json.dumps(INLINE))
    bad["problem"]["s"] = 1.2
    with pytest.raises(SchemaViolationError) as exc:
        parse_run_config(json.dumps(bad))
    assert any("s must lie in (0, 1)" in v for v in exc.value.violations)


def test_violations_are_aggregated_with_paths():
    bad = {
        "problem": "melt1d",
        "bogus": 1,
        "solver": {"dt": -0.5, "mystery": True},
        "analysis": {"levels": 1},
        "seed": -3,
    }
    with pytest.raises(SchemaViolationError) as exc:
        parse_run_config(json.dumps(bad))
    v = exc.value.violations
    assert len(v) >= 5
    assert any(x.startswith("bogus:") for x in v)
    assert any(x.startswith("solver.dt:") for x in v)
    assert any(x.startswith("solver.mystery:") for x in v)
    assert any(x.startswith("analysis.levels:") for x in v)
    assert any(x.startswith("seed:") for x in v)


def test_booleans_are_not_numbers():
    bad = json.loads(json.dumps(INLINE))
    bad["problem"]["eps"] = True
    with pytest.raises(SchemaViolationError) as exc:
        parse_run_config(json.dumps(bad))
    assert any("expected a number" in v for v in exc.value.violations)


def test_missing_box_key_is_reported_missing():
    box = dict(INLINE["problem"]["box"])
    del box["r_infinity"]
    with pytest.raises(SchemaViolationError) as exc:
        parse_run_config(inline_with(box=box))
    assert exc.value.violations == ["problem.box.r_infinity: missing required key"]


def test_bad_json_reports_the_line():
    with pytest.raises(SchemaViolationError) as exc:
        parse_run_config('{\n  "problem": melt\n}')
    assert any(v.startswith("json:") and "line 2" in v for v in exc.value.violations)


def test_top_level_must_be_an_object():
    with pytest.raises(SchemaViolationError, match="top level"):
        parse_run_config("[1, 2]")


def test_emit_parse_is_idempotent():
    for source in ('{"problem": "twophase1d"}', json.dumps(INLINE),
                   json.dumps({"problem": "melt1d",
                               "solver": {"dt": 0.02},
                               "analysis": {"anchor": [0.5, 0.5], "rho0": 0.3},
                               "tail": {"rho": 0.2, "window": [0.0, 0.5]}})):
        once = emit_run_config(parse_run_config(source))
        twice = emit_run_config(parse_run_config(once))
        assert once == twice
    with pytest.raises(SchemaViolationError) as exc:
        parse_run_config('{"seed": 7}')
    assert exc.value.violations == ["seed: unknown key"]


def test_removed_solver_keys_are_unknown():
    # every solve runs on the time grid of its dt and stores every level,
    # and the line search damping is a solver constant
    with pytest.raises(SchemaViolationError) as exc:
        parse_run_config({"problem": "melt1d", "solver": {
            "dt_policy": "fixed", "dt_factor": 1.0, "damping": 0.5, "store_every": 1}})
    assert exc.value.violations == [
        f"solver.{key}: unknown key" for key in ("dt_policy", "dt_factor", "damping",
                                                 "store_every")]


def test_a_constant_initial_value_takes_no_core_keys():
    # inside and radius shape a core; a constant start dropped them unread
    payload = json.loads(json.dumps(INLINE))
    payload["problem"]["initial"] = {"inside": 5.0, "radius": 0.5}
    with pytest.raises(SchemaViolationError) as exc:
        parse_run_config(payload)
    assert exc.value.violations == [f"problem.initial.{key}: unknown key"
                                    for key in ("inside", "radius")]


FULL_PRESET = {
    "tail": {"window": [0, 0.5], "rho": 0.2, "center": [0.5]},
    "continuation": {"delta_resolve": 0.01, "eps_values": [0.2, 0.1]},
    "analysis": {"shrink": 0.8, "levels": 6, "rho0": 0.3, "anchor": [0.5, 0.1]},
    "solver": {"newton_max": 30, "newton_tol": 1e-11, "dt": 0.01},
    "overrides": {"n_steps": 5, "n_nodes": 33},
    "problem": "melt1d",
}

_DEFAULT_CONTINUATION = ('  "continuation": {\n    "eps_values": [\n      0.2,\n'
                         '      0.1,\n      0.05,\n      0.025\n    ],\n'
                         '    "delta_resolve": 0.05\n  }\n}\n')

# every artifact directory echoes this text, so it is pinned byte for byte
GOLDEN_EMISSION = {
    "preset-name": (
        {"problem": "const1d"},
        '{\n  "problem": "const1d",\n' + _DEFAULT_CONTINUATION),
    "inline-core": (
        {"problem": dict(INLINE["problem"], initial={
            "type": "core", "value": -1.0, "inside": 1.0, "radius": 0.5})},
        '{\n  "problem": {\n    "s": 0.5,\n    "p": 3.0,\n    "eps": 0.05,\n'
        '    "horizon": 0.1,\n    "box": {\n      "lo": [\n        -1.0\n      ],\n'
        '      "hi": [\n        1.0\n      ],\n      "nodes": [\n        33\n      ],\n'
        '      "r_infinity": 4.0\n    },\n    "unknown": {\n      "lo": [\n'
        '        -1.0\n      ],\n      "hi": [\n        1.0\n      ]\n    },\n'
        '    "datum": {\n      "type": "constant",\n      "value": 1.0\n    },\n'
        '    "initial": {\n      "type": "core",\n      "value": -1.0,\n'
        '      "inside": 1.0,\n      "radius": 0.5\n    }\n  },\n'
        + _DEFAULT_CONTINUATION),
    "preset-every-section": (
        FULL_PRESET,
        '{\n  "problem": "melt1d",\n  "overrides": {\n    "n_steps": 5,\n'
        '    "n_nodes": 33\n  },\n  "solver": {\n    "dt": 0.01,\n'
        '    "newton_tol": 1e-11,\n    "newton_max": 30\n  },\n'
        '  "analysis": {\n    "anchor": [\n      0.5,\n      0.1\n    ],\n'
        '    "rho0": 0.3,\n    "levels": 6,\n    "shrink": 0.8\n  },\n'
        '  "continuation": {\n    "eps_values": [\n      0.2,\n      0.1\n    ],\n'
        '    "delta_resolve": 0.01\n  },\n  "tail": {\n    "center": [\n      0.5\n'
        '    ],\n    "rho": 0.2,\n    "window": [\n      0.0,\n'
        '      0.5\n    ]\n  }\n}\n'),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EMISSION))
def test_canonical_emission_is_pinned(case):
    source, golden = GOLDEN_EMISSION[case]
    assert emit_run_config(parse_run_config(json.dumps(source))) == golden


def test_readme_config_examples_are_canonicalizable():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), flags=re.S)
    assert blocks
    for block in blocks:
        once = emit_run_config(parse_run_config(block))
        assert emit_run_config(parse_run_config(once)) == once


def test_realize_applies_overrides_and_solver_section():
    cfg = parse_run_config(json.dumps({
        "problem": "melt1d",
        "overrides": {"n_nodes": 33, "horizon": 0.1, "eps": 0.2, "n_steps": 5},
        "solver": {"newton_max": 7},
    }))
    preset, problem, solver_cfg = realize(cfg)
    assert problem.grid.shape == (33,)
    assert problem.horizon == 0.1
    assert problem.eps == 0.2
    assert solver_cfg.newton_max == 7
    assert solver_cfg.dt == pytest.approx(0.1 / 5)


def test_realize_reports_override_violations_with_the_rest():
    cfg = parse_run_config({"problem": "melt1d", "overrides": {"c_g": 1},
                            "analysis": {"anchor": [0.1]}})
    with pytest.raises(SchemaViolationError) as exc:
        realize(cfg)
    assert exc.value.violations == ["overrides.c_g: not a parameter of preset 'melt1d'",
                                    "analysis.anchor: expected length 2"]


PIN_OVERRIDES = {"n_nodes": 65, "n_steps": 10, "horizon": 0.05}
PIN_EXTRA = {"logbdy": {"c_g": 0.4, "delta": 0.7}, "const1d": {"value": -0.2}}

# sha256 of each built problem: grid, parameters, far value, solver, the
# datum on the box and its exterior at t = 0, dt and the horizon, the
# unknown mask and the initial value
PRESET_DIGESTS = {
    ("const1d", "default"): "33f719a09b680b3b3abec1418bc9c29ce47529219c2146b86f6be1a999769841",
    ("const1d", "overridden"): "d6ae84d40f8279856eafff1dc24ae7a976d1416422a523486eb04a72e5eabbce",
    ("logbdy", "default"): "9baaf0f3a159c0c0b685840c6a8f489f041096ca84fb3d8e7cbf3384e3cdb074",
    ("logbdy", "overridden"): "b592732d8851a49d85feb96490c8a1d0651dd4f35ef884c50e435642d14cd110",
    ("melt1d", "default"): "edbde8a6f5e8127e11fe780de2a1d461217de541905ea6465cb9d70d8c2dfa1f",
    ("melt1d", "overridden"): "350d620328236c24f0250aed87b40381f6a22bd76186853830ff02a6f6fd3a31",
    ("twophase1d", "default"): "9f8db2991bd30c983f2e173a601fd3b84a36d36b193e62df89b06db5d49f31e5",
    ("twophase1d", "overridden"): "e411ce5ea260e7fd7a3d2273f1381daa4e5e69867daa0c6da00e56b3783dca73",
}

# (anchor x, rho0, shrink, boundary modulus at radii 1e-3, 0.1, 0.5, 2)
PRESET_ANALYSIS = {
    "const1d": ((0.0,), 0.4, 0.65, None),
    "logbdy": ((0.5,), 0.3, 0.65, {
        "default": [0.07775388638593467, 0.17060878482588573, 0.3112753741087529, 0.5],
        "overridden": [0.09406384707762913, 0.17332538754761465, 0.27667740460942, 0.4]}),
    "melt1d": ((0.5,), 0.3, 0.85, None),
    "twophase1d": ((0.25,), 0.4, 0.85, None),
}


def problem_digest(preset):
    problem, solver = preset.problem, preset.solver
    grid = problem.grid
    h = hashlib.sha256(repr((grid.spacing, grid.shape, grid.origin, grid.r_infinity,
                             problem.s, problem.p, problem.eps, problem.horizon,
                             problem.far_value, solver)).encode())
    for coords in (grid.coordinates(), grid.exterior_coordinates()):
        h.update(coords.tobytes())
        for t in (0.0, solver.dt, problem.horizon):
            h.update(np.asarray(problem.dirichlet(coords, t), dtype=float).tobytes())
    h.update(problem.unknown_mask.tobytes())
    h.update(problem.initial.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("size", ["default", "overridden"])
@pytest.mark.parametrize("name", sorted(PRESET_ANALYSIS))
def test_catalog_presets_build_pinned_problems(name, size):
    overrides = {} if size == "default" else dict(PIN_OVERRIDES, **PIN_EXTRA.get(name, {}))
    preset = load_preset(name, **overrides)
    via_config = realize(parse_run_config({"problem": name, "overrides": overrides}))[0]
    assert problem_digest(preset) == problem_digest(via_config) == PRESET_DIGESTS[name, size]
    x0, rho0, shrink, modulus = PRESET_ANALYSIS[name]
    assert preset.anchor == (x0, preset.problem.horizon)
    assert (preset.rho0, preset.ladder_levels, preset.ladder_shrink) == (rho0, 8, shrink)
    assert preset.delta_resolve == 0.05
    assert preset.boundary_point == ((-1.0,) if name != "logbdy" else (0.0,), 0.0)
    if modulus is None:
        assert preset.boundary_modulus is None
    else:
        assert [preset.boundary_modulus(r) for r in (1e-3, 0.1, 0.5, 2.0)] == modulus[size]


def test_inline_core_initial_round_trip():
    core = json.loads(json.dumps(INLINE))
    core["problem"]["initial"] = {"type": "core", "value": -1.0,
                                  "inside": 1.0, "radius": 0.5}
    core["problem"]["datum"]["value"] = -1.0
    cfg = parse_run_config(json.dumps(core))
    _, problem, _ = realize(cfg)
    x = problem.grid.coordinates()[:, 0]
    inner = np.abs(x) < 0.5
    assert np.all(problem.initial[inner & problem.unknown_mask] == 1.0)
    assert np.all(problem.initial[~inner] == -1.0)
    assert emit_run_config(cfg) == emit_run_config(parse_run_config(emit_run_config(cfg)))


# ---------------------------------------------------------------- cli


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for fn in files:
            full = os.path.join(base, fn)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def test_cli_solve_writes_a_reloadable_trajectory(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": "const1d"})
    out = str(tmp_path / "run")
    rc = cli.main(["solve", "--config", cfg, "--out", out])
    assert rc == 0
    assert "worst residual" in capsys.readouterr().out
    manifest, times, states = load_trajectory_states(out)
    assert manifest["format"] == "nlstefan-trajectory-2"
    assert manifest["config"]["problem"] == "const1d"
    assert states.dtype == np.float64 and states.shape == (manifest["n_stored"], 65)
    assert len(times) == manifest["n_stored"]
    # one CSV per stored level and the manifest, nothing else
    assert sorted(tree_bytes(out)) == ["fields/" + f"step_{i:05d}.csv"
                                       for i in range(len(times))] + ["manifest.json"]
    idx, coords, csv_vals = read_field_csv(os.path.join(out, "fields", "step_00000.csv"))
    assert np.array_equal(csv_vals, states[0])
    pre = load_preset("const1d")
    assert np.array_equal(states, solve(pre.problem, pre.solver).states)


def test_cli_solve_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": "const1d"})
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["solve", "--config", cfg, "--out", out_a]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", out_b]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_cli_tail(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": "const1d",
                               "tail": {"rho": 0.3, "window": [0.0, 0.1]}})
    out = str(tmp_path / "tail")
    rc = cli.main(["tail", "--config", cfg, "--out", out])
    assert rc == 0
    payload = read_json(os.path.join(out, "tail.json"))
    assert payload["center"] == [0.0]  # the anchor's x
    assert payload["rho"] == 0.3
    assert payload["tail"] > 0.0
    assert f"{payload['tail']:.17g}" in capsys.readouterr().out


def test_cli_tail_rejects_a_reversed_window_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved a rejected config")

    monkeypatch.setattr(cli, "solve", no_solve)
    cfg = write_cfg(tmp_path, {"problem": "const1d", "tail": {"window": [0.5, 0.0]}})
    out = tmp_path / "tail"
    assert cli.main(["tail", "--config", cfg, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "SchemaViolationError",
        "violations": ["tail.window: start must not exceed end"]}
    assert not out.exists()


def test_cli_tail_rejects_an_empty_window_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved a rejected config")

    monkeypatch.setattr(cli, "solve", no_solve)
    cfg = write_cfg(tmp_path, {"problem": "const1d", "tail": {"window": [5.0, 6.0]}})
    out = tmp_path / "tail"
    assert cli.main(["tail", "--config", cfg, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "EmptyWindowError", "message": "no stored samples in window [5.0, 6.0]"}
    assert not out.exists()


def test_cli_lemma_check(tmp_path, capsys):
    out = str(tmp_path / "lemma")
    rc = cli.main(["lemma-check", "--out", out, "--seed", "0"])
    assert rc == 0
    assert "all_passed=True" in capsys.readouterr().out
    verdicts = read_json(os.path.join(out, "verdicts.json"))
    assert verdicts["iteration_lemma"]["all_passed"] is True
    assert verdicts["decay_lemma"]["negative_control_diverged"] is True
    with open(os.path.join(out, "lemma_iter.csv")) as fh:
        header = fh.readline().strip()
        rows = fh.readlines()
    assert header == "m2,n2,l2,omega0,epsilon,min_margin,passed"
    # 3 choices for n2 x ordered (m2, l2) pairs x 3 omega0 values
    assert len(rows) == 3 * 6 * 3
    assert all(r.strip().endswith(",1") for r in rows)


def test_cli_rejects_flags_its_subcommand_ignores(tmp_path, capsys):
    # --threads belongs to continuation, --seed to lemma-check only, and
    # lemma-check reads no config
    for argv in (["solve", "--threads", "2"], ["verify", "--seed", "1"],
                 ["lemma-check", "--config", "x.json"]):
        assert cli.main(argv + ["--preset", "const1d", "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SchemaViolationError"
        [violation] = err["violations"]
        assert "unrecognized arguments" in violation


def test_cli_verify_const_preset(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": "const1d"})
    out = str(tmp_path / "verify")
    rc = cli.main(["verify", "--config", cfg, "--out", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    for name in ("max_principle", "comparison", "normalization",
                 "caccioppoli", "measure_density"):
        assert f"verify {name}: PASS" in stdout
    payload = read_json(os.path.join(out, "verify.json"))
    assert payload["passed"] is True
    assert payload["checks"]["max_principle"]["defect"] == 0.0


def test_cli_continuation_const_family(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": "const1d",
        "overrides": {"value": 0.3},
        "continuation": {"eps_values": [0.2, 0.1], "delta_resolve": 0.05},
    })
    out = str(tmp_path / "family")
    rc = cli.main(["continuation", "--config", cfg, "--out", out])
    assert rc == 0
    payload = read_json(os.path.join(out, "family.json"))
    assert payload["eps_values"] == [0.2, 0.1]
    assert payload["successive_distances"] == [0.0]
    assert payload["band_fractions"] == [0.0, 0.0]
    assert payload["monotone"] is True
    assert payload["errors"] == {}
    for stem in ("limit_u", "limit_w", "limit_v"):
        idx, coords, vals = read_field_csv(os.path.join(out, f"{stem}.csv"))
        assert vals.shape == (65,)
    # u = 0.3 > delta everywhere: w = 1 and v = u + 1
    _, _, u = read_field_csv(os.path.join(out, "limit_u.csv"))
    _, _, w = read_field_csv(os.path.join(out, "limit_w.csv"))
    _, _, v = read_field_csv(os.path.join(out, "limit_v.csv"))
    assert np.all(w == 1.0)
    assert np.array_equal(v, u + w)
    assert os.path.isdir(os.path.join(out, "eps_0.2"))
    assert os.path.isdir(os.path.join(out, "eps_0.1"))


def test_cli_analyze_modulus_small_melt(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "problem": "melt1d",
        "overrides": {"n_nodes": 65, "horizon": 0.1, "eps": 0.05, "n_steps": 20},
        "analysis": {"anchor": [0.5, 0.1], "rho0": 0.3, "levels": 6, "shrink": 0.8},
    })
    out = str(tmp_path / "mod")
    rc = cli.main(["analyze-modulus", "--config", cfg, "--out", out])
    assert rc == 0
    assert "modulus fit:" in capsys.readouterr().out
    payload = read_json(os.path.join(out, "modulus.json"))
    for key in ("anchor", "rho0", "omega0", "c", "varsigma", "residual", "n_samples"):
        assert key in payload
    assert payload["anchor"] == [0.5, 0.1]
    with open(os.path.join(out, "modulus.csv")) as fh:
        assert fh.readline().strip() == "level,radius,osc"
        rows = [line.strip().split(",") for line in fh]
    assert len(rows) == 6
    radii = [float(r[1]) for r in rows]
    assert radii == pytest.approx([0.3 * 0.8 ** i for i in range(6)])
    with open(os.path.join(out, "sequences.csv")) as fh:
        assert fh.readline().strip() == "level,rho,omega,theta,osc,tail_ratio"


def test_cli_analyze_modulus_names_the_ladder_it_could_not_fit(tmp_path, capsys):
    # a symmetric inline melt stays flat at the default anchor, the box centre
    rc = cli.main(["analyze-modulus", "--config", write_cfg(tmp_path, INLINE),
                   "--out", str(tmp_path / "flat")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "InsufficientSamplesError"
    for part in ("[0.0, 0.1]", "rho0 0.25", "analysis.anchor", "analysis.rho0"):
        assert part in err["message"]
    # following the advice gives a fit
    tuned = dict(INLINE, analysis={"anchor": [0.5, 0.1], "rho0": 0.3})
    rc = cli.main(["analyze-modulus", "--config", write_cfg(tmp_path, tuned, "tuned.json"),
                   "--out", str(tmp_path / "tuned")])
    assert rc == 0
    assert "modulus fit:" in capsys.readouterr().out


def test_cli_missing_out_is_a_schema_violation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": "const1d"})
    rc = cli.main(["solve", "--config", cfg])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "SchemaViolationError"
    assert any("--out" in v for v in err["error"]["violations"])


def test_cli_bad_config_exits_with_violations(tmp_path, capsys):
    bad = write_cfg(tmp_path, {"problem": "melt1d", "solver": {"dt": "fast"}})
    rc = cli.main(["solve", "--config", bad, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "SchemaViolationError"
    assert any(v.startswith("solver.dt:") for v in err["error"]["violations"])


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"])
def test_cli_unreadable_config_exits_2_naming_the_path(tmp_path, capsys, content):
    # a missing file, then one that is not UTF-8
    path = tmp_path / "config.json"
    if content is not None:
        path.write_bytes(content)
    rc = cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "SchemaViolationError"
    [violation] = err["error"]["violations"]
    assert violation.startswith(f"config: cannot read {path}:")
    assert not os.path.exists(tmp_path / "x")


def test_cli_continuation_rejects_zero_threads(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": "const1d"})
    rc = cli.main(["continuation", "--config", cfg, "--out", str(tmp_path / "x"),
                   "--threads", "0"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "InvalidParamsError",
                            "message": "threads must be at least 1, got 0"}
    # refused before the output directory is made
    assert not os.path.exists(tmp_path / "x")


def test_cli_unknown_preset(tmp_path, capsys):
    rc = cli.main(["solve", "--preset", "nonsense", "--out", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InvalidParamsError"
    assert "unknown preset" in err["error"]["message"]


def inline_with(**changes):
    payload = json.loads(json.dumps(INLINE))
    payload["problem"].update(changes)
    return payload


INLINE_2D = inline_with(
    horizon=0.02,
    box={"lo": [-1.0, -1.0], "hi": [1.0, 1.0], "nodes": [9, 9], "r_infinity": 3.0},
    unknown={"lo": [-1.0, -1.0], "hi": [1.0, 1.0]})

# (command line, config, path of the violation reported first)
MALFORMED = {
    "unknown-lo-shorter-than-box": (
        ["solve"], inline_with(unknown={"lo": [], "hi": [1.0]}), "problem.unknown.lo"),
    "override-foreign-to-preset": (
        ["solve"], {"problem": "melt1d", "overrides": {"c_g": 0.5}}, "overrides.c_g"),
    "override-foreign-to-flag-preset": (
        ["solve", "--preset", "melt1d"], {"problem": "logbdy", "overrides": {"c_g": 0.4}},
        "overrides.c_g"),
    "override-of-wrong-type": (
        ["solve"], {"problem": "melt1d", "overrides": {"n_nodes": "abc"}},
        "overrides.n_nodes"),
    "override-count-zero": (
        ["solve"], {"problem": "const1d", "overrides": {"n_steps": 0}}, "overrides.n_steps"),
    "override-on-inline-problem": (["solve"], dict(INLINE, overrides={"eps": 0.1}), "overrides"),
    "box-nodes-bool": (
        ["solve"], inline_with(box={"lo": [-1.0], "hi": [1.0], "nodes": [True],
                                    "r_infinity": 4.0}), "problem.box.nodes"),
    "box-nodes-one": (
        ["solve"], inline_with(box={"lo": [-1.0], "hi": [1.0], "nodes": [1],
                                    "r_infinity": 4.0}), "problem.box.nodes"),
    "anchor-wrong-length": (
        ["analyze-modulus"], {"problem": "const1d", "analysis": {"anchor": [0.1]}},
        "analysis.anchor"),
    "tail-center-wrong-length": (
        ["tail"], {"problem": "const1d", "tail": {"center": [0.1, 0.2]}}, "tail.center"),
    # json.dumps writes NaN and -Infinity, which json.loads reads back
    "nan-number": (["solve"], inline_with(s=float("nan")), "problem.s"),
    # the kernel is one scale, and the schema has no key for it
    "removed-lam-key": (["solve"], inline_with(lam=1.0), "problem.lam"),
    # a family limit needs two members; one member used to solve, then fail
    "one-eps-value": (
        ["continuation"], {"problem": "const1d", "continuation": {"eps_values": [0.2]}},
        "continuation.eps_values"),
    "infinite-list-entry": (
        ["tail"], {"problem": "const1d", "tail": {"window": [float("-inf"), 0.1]}},
        "tail.window"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_2_with_a_path_prefixed_violation(tmp_path, capsys, case):
    argv, payload, path = MALFORMED[case]
    cfg = write_cfg(tmp_path, payload)
    rc = cli.main(argv + ["--config", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "SchemaViolationError"
    assert err["error"]["violations"][0].startswith(path + ":")


@pytest.mark.parametrize("payload, violation", [
    ({"problem": "const1d", "tail": {"center": [2.0]}},
     "tail.center: must lie in the closed box from [-1.0] to [1.0]"),
    (dict(INLINE_2D, tail={"center": [0.0, -1.5]}),
     "tail.center: must lie in the closed box from [-1.0, -1.0] to [1.0, 1.0]")],
    ids=["preset", "inline-2d"])
def test_cli_tail_rejects_a_centre_outside_the_box_before_solving(
        tmp_path, capsys, monkeypatch, payload, violation):
    # past the dilated box the tail would miss nodes within r_infinity of
    # the centre
    def no_solve(*args):
        raise AssertionError("solved a rejected config")

    monkeypatch.setattr(cli, "solve", no_solve)
    out = tmp_path / "tail"
    assert cli.main(["tail", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "SchemaViolationError", "violations": [violation]}
    assert not out.exists()


def test_too_few_preset_nodes_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"problem": "const1d", "overrides": {"n_nodes": 1}})
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "SchemaViolationError",
                            "violations": ["overrides.n_nodes: must be at least 2"]}


def test_box_spacing_is_reported_with_the_other_violations():
    bad = inline_with(box={"lo": [-1.0, -1.0], "hi": [1.0, 2.0], "nodes": [9, 9],
                           "r_infinity": 3.0},
                      unknown={"lo": [-1.0, -1.0], "hi": [1.0, 1.0]})
    bad["analysis"] = {"anchor": [0.1]}
    with pytest.raises(SchemaViolationError) as exc:
        realize(parse_run_config(bad))
    assert exc.value.violations == ["problem.box: axes must share one spacing",
                                    "analysis.anchor: expected length 3"]


def test_cli_verify_2d_inline_problem(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(INLINE_2D, solver={"dt": 0.01}))
    out = str(tmp_path / "verify")
    assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
    assert "verify measure_density: PASS" in capsys.readouterr().out
    checks = read_json(os.path.join(out, "verify.json"))["checks"]
    assert checks["measure_density"]["radii"] == [2.0, 4.0, 8.0]
    assert checks["max_principle"]["passed"] and checks["comparison"]["passed"]


def test_verify_density_is_measured_at_the_unknown_sets_lower_corner(tmp_path, capsys):
    # the unknown set lies inside the box: its corner, not the box's, is a
    # boundary point, where the complement fills about half of each ball
    inset = inline_with(horizon=0.02,
                        box={"lo": [-1.5], "hi": [1.5], "nodes": [49], "r_infinity": 4.0})
    inset["solver"] = {"dt": 0.01}
    assert realize(parse_run_config(inset))[0].boundary_point == ((-1.0,), 0.0)
    out = str(tmp_path / "verify")
    assert cli.main(["verify", "--config", write_cfg(tmp_path, inset), "--out", out]) == 0
    fractions = read_json(os.path.join(out, "verify.json"))["checks"]["measure_density"][
        "fractions"]
    assert fractions == pytest.approx([0.5] * 3, abs=0.04)


@pytest.mark.parametrize("payload", [
    INLINE,
    {"problem": "melt1d", "overrides": {"n_nodes": 33, "horizon": 0.05, "n_steps": 5},
     "solver": {"newton_tol": 1e-11}},
], ids=["inline", "preset-partial-solver"])
def test_manifest_config_echo_reproduces_the_run(tmp_path, payload):
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    assert cli.main(["solve", "--config", write_cfg(tmp_path, payload),
                     "--out", first]) == 0
    echo = read_json(os.path.join(first, "manifest.json"))["config"]
    assert echo.get("solver") == payload.get("solver")
    assert cli.main(["solve", "--config", write_cfg(tmp_path, echo, name="echo.json"),
                     "--out", second]) == 0
    assert tree_bytes(first) == tree_bytes(second)


@pytest.mark.parametrize("command", ["solve", "tail", "analyze-modulus", "continuation",
                                     "verify"])
def test_rejected_config_leaves_no_output_directory(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, {"problem": "melt1d", "overrides": {"c_g": 1}})
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "SchemaViolationError"
    assert not out.exists()


# ---------------------------------------------------------------- failures


# one Newton iteration per step cannot take the first step of this melt
STALLING = {"problem": "melt1d",
            "overrides": {"n_nodes": 33, "horizon": 0.05, "n_steps": 2, "eps": 0.01},
            "solver": {"newton_max": 1}}


@pytest.mark.parametrize("command, error", [
    ("solve", "NewtonDivergenceError"),
    ("tail", "NewtonDivergenceError"),
    ("analyze-modulus", "NewtonDivergenceError"),
    ("verify", "NewtonDivergenceError"),
    # every member fails, so the family has no finest member to take a limit of
    ("continuation", "InvalidParamsError"),
])
def test_failed_run_leaves_no_output_directory(tmp_path, capsys, command, error):
    out = tmp_path / "o"
    assert cli.main([command, "--config", write_cfg(tmp_path, STALLING),
                     "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == error
    assert not out.exists()


def test_continuation_without_a_limit_writes_no_member(tmp_path, capsys):
    # delta_resolve 10 puts every sample on the unresolved band
    cfg = write_cfg(tmp_path, {"problem": "const1d",
                               "continuation": {"eps_values": [0.2, 0.1],
                                                "delta_resolve": 10}})
    assert cli.main(["continuation", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "UnresolvedBandError"
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command, compute, rerun", [
    # a rerun that stores fewer levels would leave the earlier levels behind
    ("solve", "solve", {"problem": "const1d", "overrides": {"n_steps": 4}}),
    # a rerun with other members would leave the earlier members behind
    ("continuation", "continuation_mod.run_family",
     {"problem": "const1d", "continuation": {"eps_values": [0.3, 0.15]}}),
])
def test_a_non_empty_out_is_refused_before_the_command_runs(tmp_path, capsys, monkeypatch,
                                                            command, compute, rerun):
    out = tmp_path / "o"
    out.mkdir()  # an existing empty directory takes the run
    first = write_cfg(tmp_path, {"problem": "const1d",
                                 "continuation": {"eps_values": [0.2, 0.1]}}, "first.json")
    assert cli.main([command, "--config", first, "--out", str(out)]) == 0
    before = tree_bytes(out)
    capsys.readouterr()

    def no_compute(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(f"nlstefan.cli.{compute}", no_compute)
    assert cli.main([command, "--config", write_cfg(tmp_path, rerun), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.err)["error"]
    assert error == {"type": "SchemaViolationError",
                     "violations": [f"out: {out} exists and is not empty"]}
    assert captured.out == ""
    assert tree_bytes(out) == before


@pytest.mark.parametrize("below", [None, "run/deeper"], ids=["a-file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_2_without_a_traceback(tmp_path, below):
    # the solve of STALLING fails, so an error other than the refusal of
    # --out would show that the solve ran first
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "nlstefan.cli", "solve", "--config",
                           write_cfg(tmp_path, STALLING), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "SchemaViolationError"
    assert error["violations"] == [f"out: {blocker} exists and is not a directory"]
    assert blocker.read_text() == "kept\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, text", [
    (["continuation", "--threads", "two", "--out", "o"],
     "argument --threads: invalid int value: 'two'"),
    ([], "the following arguments are required: command"),
    (["lemma-check", "--seed", "-1", "--out", "o"],
     "argument --seed: invalid seed '-1': not a non-negative integer"),
], ids=["non-integer-threads", "no-subcommand", "negative-seed"])
def test_usage_errors_exit_2_with_a_json_error(tmp_path, monkeypatch, capsys, argv, text):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "SchemaViolationError"
    [violation] = err["violations"]
    assert text in violation
    assert os.listdir(tmp_path) == []


def test_help_exits_0_and_lists_only_the_flags_a_subcommand_reads(capsys):
    for command, flags in (("solve", ("--config", "--preset", "--out")),
                           ("lemma-check", ("--out", "--seed"))):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        for flag in ("--config", "--preset", "--out", "--seed", "--threads"):
            assert (flag in usage) == (flag in flags)
