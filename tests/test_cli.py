"""End-to-end checks of the configuration-driven command line runner."""

import csv
import json

import numpy as np
import pytest

from evolflow import evolution
from evolflow.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from evolflow.diff_group import load_group_path


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
    # one eval_cells call per Picard sweep
    sweeps = []
    eval_cells = evolution.TimeVelocity.eval_cells
    monkeypatch.setattr(evolution.TimeVelocity, "eval_cells", lambda *a: sweeps.append(1) or eval_cells(*a))
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
    # the change stops falling at round-off, far above tol: fail fast
    assert "stagnated" in failure["error"] and "tol=1e-30" in failure["error"]
    assert 0 < len(sweeps) < 20


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
    assert key in capsys.readouterr().err


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


def test_non_finite_velocity_fails_before_any_sweep(tmp_path, monkeypatch):
    sweeps = []
    sweep = evolution._picard_sweep
    monkeypatch.setattr(evolution, "_picard_sweep", lambda *a: sweeps.append(1) or sweep(*a))
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
