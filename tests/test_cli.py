"""End-to-end checks of the configuration-driven command line runner."""

import csv
import json
import re

import numpy as np
import pytest

from evolflow import evolution
from evolflow.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from evolflow.diff_group import load_group_path
from evolflow.instances import resolve_velocity, zero_velocity


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_missing_config_file(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_bad_velocity_spec(tmp_path):
    cfg = write_cfg(tmp_path, {"velocity": {"kind": "no_such_kind"}})
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_velocity_entry_required(tmp_path):
    cfg = write_cfg(tmp_path, {"oracle": {"seeds": 2}})
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("tol", [-1.0, float("inf"), float("nan")])
def test_nonpositive_tolerance_rejected(tmp_path, capsys, tol):
    # json writes inf and nan as Infinity and NaN, which json.loads reads back
    for key, entry in [("residual_tolerance", tol), ("oracle", {"seeds": 2, "tolerance": tol})]:
        cfg = write_cfg(tmp_path, {"velocity": {"kind": "zero"}, key: entry})
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "tolerance must be a finite number > 0" in capsys.readouterr().err


def test_evolve_zero_velocity(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"velocity": {"kind": "zero", "grid": 12}})
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "residuals.csv")
    assert len(rows) == 1 and float(rows[0]["residual"]) == 0.0
    # single case: the solved path is persisted and reloadable
    manifest = json.loads((out / "result_000.json").read_text())
    path = load_group_path(out / manifest["path"])
    assert path.field_at(0.5).sup_seminorm() == 0.0


def test_evolve_with_oracle_and_render(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "velocity": {"kind": "random_smooth", "seed": 3, "grid": 24, "cells": 2, "target_bound": 0.3},
        "oracle": {"seeds": 5, "steps": 512, "tolerance": 1e-3},
    })
    assert main(["evolve", "--config", cfg, "--out", str(out), "--render"]) == EXIT_OK
    rows = read_csv(out / "oracle.csv")
    assert len(rows) == 5
    assert max(float(r["error"]) for r in rows) < 1e-3
    assert (out / "deformed_grid_000.ppm").read_bytes()[:2] == b"P6"


def test_evolve_check_failure_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "velocity": {"kind": "random_smooth", "seed": 3, "grid": 24, "cells": 2, "target_bound": 0.3},
        "residual_tolerance": 1e-15,
    })
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_CHECK


def test_solver_failure_writes_diagnostics(tmp_path, monkeypatch):
    # cell evaluations: the rows passed to eval_cells
    rows = []
    eval_cells = evolution.TimeVelocity.eval_cells
    monkeypatch.setattr(
        evolution.TimeVelocity, "eval_cells", lambda self, cells, pts: rows.append(len(cells)) or eval_cells(self, cells, pts)
    )
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "velocity": {"kind": "random_smooth", "seed": 3, "grid": 24, "cells": 2, "target_bound": 0.3},
        "forced_n": 1,
        "tol": 1e-30,
    })
    code = main(["evolve", "--config", cfg, "--out", str(out)])
    assert code == EXIT_SOLVER
    failure = json.loads((out / "failure.json").read_text())
    assert "error" in failure and "traceback" in failure
    # the change stops falling at round-off, far above tol: fail fast, in
    # fewer cell evaluations than 20 sweeps over the 256 refined cells
    assert "stagnated" in failure["error"] and "tol=1e-30" in failure["error"]
    assert re.search(r"block of refined cells \[\d+, \d+\) \(t in \[[0-9.e-]+, [0-9.e-]+\]", failure["error"])
    assert 0 < sum(rows) < 20 * 256


@pytest.mark.parametrize("key,value", [
    ("L_max", float("nan")), ("L_max", 0), ("L_max", 1.5), ("L_max", "0.5"),
    ("tol", float("nan")), ("tol", 0), ("tol", -1e-9), ("tol", float("inf")),
    ("max_dt", 0), ("max_dt", float("nan")),
    ("forced_n", 0), ("forced_n", 1.5), ("forced_n", True),
])
def test_bad_solver_parameter_is_a_config_error(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "velocity": {"kind": "random_smooth", "seed": 3, "grid": 16, "cells": 2, "target_bound": 0.3},
        key: value,
    })
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err
    # the time split is chosen from the time-error budget, not configured
    assert ("unknown config key max_dt" in err) == (key == "max_dt")


@pytest.mark.parametrize("key,value", [
    ("levels", 1), ("levels", "abc"), ("levels", True), ("levels", 2.5),
    ("monotone_factor", 0), ("monotone_factor", float("nan")), ("monotone_factor", float("inf")),
    ("perturbation", {"kind": "no_such_kind"}), ("perturbation", {"kind": "zero", "bogus": 1}),
    ("perturbation", 3),
])
def test_bad_continuity_key_is_a_config_error(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    cfg = {"velocity": {"kind": "zero", "grid": 12}, "perturbation": {"kind": "zero", "grid": 12}, "levels": 3}
    cfg[key] = value
    assert main(["continuity-study", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (out / "failure.json").exists()


@pytest.mark.parametrize("key,value", [
    ("oracle", 5), ("oracle", [2]),
    ("seeds", -3), ("seeds", 0), ("seeds", True), ("seeds", 2.5),
    ("steps", 0), ("steps", "64"),
    ("seed", "x"), ("seed", 1.5), ("seed", -1),
])
def test_bad_oracle_entry_is_a_config_error(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    oracle = value if key == "oracle" else {"seeds": 2, "steps": 64, key: value}
    cfg = write_cfg(tmp_path, {"velocity": {"kind": "zero", "grid": 12}, "oracle": oracle})
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert ("oracle" if key == "oracle" else f"oracle.{key}") in capsys.readouterr().err
    assert not (out / "failure.json").exists()


ZERO = {"kind": "zero", "grid": 12}


UNKNOWN_KEY_CASES = [
    ("evolve", {"velocity": ZERO, "residual_tolerence": 1e-30}, "residual_tolerence", "did you mean residual_tolerance?"),
    ("evolve", {"velocity": ZERO, "orcale": {"seeds": 2}}, "orcale", "did you mean oracle?"),
    ("evolve", {"velocity": ZERO, "oracle": {"seeds": 2, "tolerence": 1e-4}}, "oracle.tolerence",
     "did you mean oracle.tolerance?"),
    ("evolve", {"velocity": ZERO, "verbose": True}, "verbose", "known keys: velocity, oracle, residual_tolerance"),
    ("torus-evolve", {"velocity": ZERO, "forced": 2}, "forced", "did you mean forced_n?"),
    ("continuity-study", {"velocity": ZERO, "perturbation": ZERO, "final_treshold": 1e-3}, "final_treshold",
     "did you mean final_threshold?"),
    ("subdivision-study", {"velocity": ZERO, "n_value": [1, 2]}, "n_value", "did you mean n_values?"),
    ("property-check", {"residual_bnd": 1e-5}, "residual_bnd", "did you mean residual_bound?"),
]


@pytest.mark.parametrize("command,cfg,key,hint", UNKNOWN_KEY_CASES, ids=[f"{c}-{k}" for c, _, k, _ in UNKNOWN_KEY_CASES])
def test_unknown_config_key_is_a_config_error(tmp_path, capsys, command, cfg, key, hint):
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"unknown config key {key}; {hint}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,key,value", [
    ("subdivision-study", "n_values", [0]), ("subdivision-study", "n_values", ["x"]),
    ("subdivision-study", "n_values", 4), ("subdivision-study", "n_values", [2.7]),
    ("subdivision-study", "n_values", []),
    ("property-check", "grid", "abc"), ("property-check", "residual_bound", -1),
    ("property-check", "seed", -1), ("property-check", "dim", 0),
    ("property-check", "target_bound", float("nan")),
])
def test_bad_study_value_is_a_config_error(tmp_path, capsys, command, key, value):
    out = tmp_path / "out"
    cfg = {"velocity": ZERO} if command == "subdivision-study" else {}
    cfg[key] = value
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_manifest_field_is_a_config_error(tmp_path, capsys):
    (tmp_path / "v.cfld").write_bytes(b"CFLD\x00\x02")
    (tmp_path / "v.json").write_text(json.dumps({"knots": [0.0, 1.0], "p": 2.0, "field_files": ["v.cfld"]}))
    cfg = write_cfg(tmp_path, {"velocity": {"kind": "manifest", "path": str(tmp_path / "v.json")}})
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "v.cfld: truncated header" in capsys.readouterr().err


MANIFEST_CASES = {
    "missing_file": {"knots": [0.0, 1.0], "field_files": ["missing.cfld"]},
    "directory": {"knots": [0.0, 1.0], "field_files": ["sub"]},
    "string_field_files": {"knots": [0.0, 1.0], "field_files": "v_cell0000.cfld"},
    "non_list_field_files": {"knots": [0.0, 1.0], "field_files": {"v_cell0000.cfld": 0}},
    "non_object_manifest": ["v_cell0000.cfld"],
    "knots_do_not_fit_cells": {"knots": [0.0, 0.5, 1.0], "field_files": ["v_cell0000.cfld"]},
    "missing_manifest": None,
    "missing_knots": {"field_files": ["v_cell0000.cfld"]},
    "string_knots": {"knots": "0 1", "field_files": ["v_cell0000.cfld"]},
    "non_numeric_knots": {"knots": [0.0, "1"], "field_files": ["v_cell0000.cfld"]},
}


@pytest.mark.parametrize("case", MANIFEST_CASES)
def test_bad_velocity_manifest_is_a_config_error(tmp_path, capsys, case):
    # one valid field file, v_cell0000.cfld, next to the manifest under test
    zero_velocity(grid=12).save(tmp_path, "v")
    (tmp_path / "sub").mkdir()
    manifest = tmp_path / "v.json"
    if MANIFEST_CASES[case] is None:
        manifest.unlink()
    else:
        manifest.write_text(json.dumps(MANIFEST_CASES[case]))
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"velocity": {"kind": "manifest", "path": str(manifest)}})
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad velocity spec" in err
    # the file at fault is named: a field file that cannot be read, else the manifest
    named = {"missing_file": tmp_path / "missing.cfld", "directory": tmp_path / "sub"}.get(case, manifest)
    assert str(named) in err
    assert not (out / "failure.json").exists()


@pytest.mark.parametrize("count", [0, -2, True, 1.5, "2"])
@pytest.mark.parametrize("oracle", [False, True])
def test_bad_velocity_count_is_a_config_error(tmp_path, capsys, count, oracle):
    cfg = {"velocity": {"kind": "random_smooth", "grid": 12, "count": count}}
    if oracle:
        cfg["oracle"] = {"seeds": 2, "tolerance": 1e-3}
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"count must be a positive integer, got {count!r}" in capsys.readouterr().err
    assert not (out / "failure.json").exists()


@pytest.mark.parametrize("case", ["unknown_key", "missing_path"])
def test_bad_manifest_velocity_spec_is_a_config_error(tmp_path, capsys, case):
    zero_velocity(grid=12).save(tmp_path, "v")
    spec = {"kind": "manifest", "path": str(tmp_path / "v.json"), "grid": 24}
    if case == "missing_path":
        del spec["path"], spec["grid"]
    out = tmp_path / "out"
    # --seed writes a seed into the spec, which the manifest kind accepts
    argv = ["evolve", "--config", write_cfg(tmp_path, {"velocity": spec}), "--out", str(out), "--seed", "3"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert ("not ['grid']" if case == "unknown_key" else "needs a 'path' entry") in err
    assert not (out / "failure.json").exists()


def test_manifest_velocity_accepts_a_seed(tmp_path):
    zero_velocity(grid=12).save(tmp_path, "v")
    cfg = write_cfg(tmp_path, {"velocity": {"kind": "manifest", "path": str(tmp_path / "v.json"), "seed": 5}})
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "3"]) == EXIT_OK


@pytest.mark.parametrize("p", [float("nan"), 0.5, -1.0, 0.0])
@pytest.mark.parametrize("kind", ["random_smooth", "random_smooth_torus", "manifest"])
def test_exponent_below_one_is_a_config_error(tmp_path, capsys, kind, p):
    spec = {"kind": kind, "seed": 3, "grid": 12, "cells": 2, "target_bound": 0.3, "p": p}
    if kind == "manifest":
        zero_velocity(grid=12).save(tmp_path, "v")
        manifest = tmp_path / "v.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "p": p}))
        spec = {"kind": kind, "path": str(manifest)}
    out = tmp_path / "out"
    cfg = {"velocity": spec}
    command = "evolve"
    if kind == "random_smooth_torus":
        command = "continuity-study"
        cfg.update(perturbation={**spec, "target_bound": 0.01, "p": 2.0}, levels=3)
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "the exponent p must be at least 1" in capsys.readouterr().err
    assert not (out / "failure.json").exists()


def test_non_finite_velocity_fails_before_any_sweep(tmp_path, monkeypatch):
    sweeps = []
    march = evolution._picard_march
    monkeypatch.setattr(evolution, "_picard_march", lambda *a: sweeps.append(1) or march(*a))
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        # NaN is valid JSON to json.loads; it makes every coefficient and alpha NaN
        "velocity": {"kind": "random_smooth", "seed": 3, "grid": 16, "cells": 2, "target_bound": float("nan")},
    })
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_SOLVER
    assert "not finite" in json.loads((out / "failure.json").read_text())["error"]
    assert sweeps == []


def test_torus_evolve(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "velocity": {"kind": "random_smooth_torus", "seed": 5, "grid": 16, "cells": 2, "target_bound": 0.3},
        "oracle": {"seeds": 4, "steps": 512, "tolerance": 1e-3},
    })
    assert main(["torus-evolve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "oracle.csv")
    assert max(float(r["error"]) for r in rows) < 1e-3


@pytest.mark.parametrize("command,kind,code", [
    # the oracle wraps its errors on the torus by the velocity's geometry
    ("evolve", "random_smooth_torus", EXIT_OK),
    ("torus-evolve", "random_smooth", EXIT_CONFIG),
])
def test_evolve_commands_take_the_geometry_of_the_velocity(tmp_path, capsys, command, kind, code):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "velocity": {"kind": kind, "seed": 5, "grid": 16, "cells": 2, "target_bound": 0.3},
        "oracle": {"seeds": 4, "steps": 512, "tolerance": 1e-3},
    })
    assert main([command, "--config", cfg, "--out", str(out)]) == code
    assert not (out / "failure.json").exists()
    if code == EXIT_CONFIG:
        assert "torus-evolve needs a periodic velocity" in capsys.readouterr().err
        assert not (out / "residuals.csv").exists()
    else:
        assert max(float(r["error"]) for r in read_csv(out / "oracle.csv")) < 1e-3


def test_evolve_saves_the_path_it_computed(tmp_path):
    spec = {"kind": "random_smooth", "seed": 7, "grid": 16, "cells": 2, "target_bound": 0.3}
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_cfg(tmp_path, {"velocity": spec}), "--out", str(out)]) == EXIT_OK
    pdir = out / "result_000_path"
    assert sorted(f.name for f in pdir.iterdir()) == ["path.json", "path_density.cfld", "path_start.cfld"]
    back = load_group_path(out / json.loads((out / "result_000.json").read_text())["path"])
    ref = evolution.evolve(resolve_velocity(spec)).path
    assert np.array_equal(back.grid.knots, ref.grid.knots)
    assert np.array_equal(back.start.coeffs, ref.start.coeffs)
    assert np.array_equal(back.stacked.coeffs, ref.stacked.coeffs)


def test_subdivision_study_budget_identity(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        # a single field throughout means constant alpha in time
        "velocity": {"kind": "rotation_plateau", "omega": 0.2, "grid": 32},
        "n_values": [1, 2, 4, 8, 16],
    })
    assert main(["subdivision-study", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "subdivision.csv")
    assert [int(r["n"]) for r in rows] == [1, 2, 4, 8, 16]
    for r in rows:
        mb, ton = float(r["max_budget"]), float(r["total_over_n"])
        assert mb == pytest.approx(ton, rel=1e-12)


def test_continuity_study_small(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {
        "velocity": {"kind": "random_smooth", "seed": 8, "grid": 24, "cells": 2, "target_bound": 0.25},
        "perturbation": {"kind": "random_smooth", "seed": 9, "grid": 24, "cells": 2, "target_bound": 0.01},
        "levels": 3,
    })
    assert main(["continuity-study", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "continuity.csv")
    dists = [float(r["distance"]) for r in rows]
    assert len(dists) == 3
    assert dists[1] <= 1.1 * dists[0] and dists[2] <= 1.1 * dists[1]


def test_property_check(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"grid": 24, "target_bound": 0.25})
    assert main(["property-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = read_csv(out / "property_check.csv")
    assert all(r["status"] == "pass" for r in rows)


def test_threads_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, {
        "velocity": {"kind": "random_smooth", "count": 3, "seed": 30, "grid": 24, "cells": 2, "target_bound": 0.3},
        "oracle": {"seeds": 4, "steps": 256},
    })
    outs = []
    for threads, name in [(1, "a"), (4, "b")]:
        out = tmp_path / name
        assert main(["evolve", "--config", cfg, "--out", str(out), "--threads", str(threads)]) == EXIT_OK
        outs.append(out)
    for fname in ["residuals.csv", "oracle.csv"]:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
