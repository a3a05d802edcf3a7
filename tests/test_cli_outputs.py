"""The output-tree comparison of scripts/cli_outputs.py."""

import importlib.util
from pathlib import Path

import numpy as np

from evolflow.vector_field import CompactField, PeriodicField, save_field

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_outputs.py"
spec = importlib.util.spec_from_file_location("cli_outputs", SCRIPT)
cli_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_outputs)


def _tree(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def test_compare_reports_column_differences_and_one_sided_files(tmp_path, capsys):
    a = _tree(tmp_path / "a", {
        "w_1_0/residuals.csv": "case,kind,residual\n0,x,1.0\n1,y,-2.0\n",
        "w_1_1/residuals.csv": "case,kind,residual\n0,x,4.0\n",
        "w_1_0/result.json": "{}",
        "w_1_0/old.csv": "a\n1\n",
    })
    b = _tree(tmp_path / "b", {
        "w_1_0/residuals.csv": "case,kind,residual\n0,x,1.0\n1,z,-2.5\n",
        "w_1_1/residuals.csv": "case,kind,residual\n0,x,4.0\n",
        "w_1_0/result.json": "{ }",
        "w_1_0/new.csv": "a\n1\n",
    })
    assert cli_outputs.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "only in A: w_1_0/old.csv" in lines and "only in B: w_1_0/new.csv" in lines
    assert "w_1_0/result.json: bytes differ" in lines
    assert "w_1_0/residuals.csv case: abs 0 rel 0" in lines
    assert "w_1_0/residuals.csv kind: 1 of 2 values differ" in lines
    assert "w_1_0/residuals.csv residual: abs 0.5 rel 0.2" in lines
    assert "  residuals.csv residual: abs 0.5 rel 0.2" in lines
    # of the five files on either side, only w_1_1/residuals.csv keeps its bytes
    assert lines[-1] == "byte-identical: 1 of 5 files"


def test_compare_of_equal_trees_passes(tmp_path, capsys):
    files = {"w_1_0/oracle.csv": "case,seed,error\n0,1,nan\n", "w_1_0/result.json": "{}"}
    a, b = _tree(tmp_path / "a", files), _tree(tmp_path / "b", files)
    assert cli_outputs.main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "w_1_0/oracle.csv error: abs 0 rel 0" in out
    assert out.splitlines()[-1] == "byte-identical: 2 of 2 files"


def test_compare_flags_a_changed_row_count(tmp_path, capsys):
    a = _tree(tmp_path / "a", {"r.csv": "x\n1\n2\n"})
    b = _tree(tmp_path / "b", {"r.csv": "x\n1\n"})
    assert cli_outputs.main(["--compare", str(a), str(b)]) == 1
    assert "r.csv: row count differs" in capsys.readouterr().out


def test_compare_matches_columns_by_name(tmp_path, capsys):
    # a column added in B, and the shared columns in another order
    a = _tree(tmp_path / "a", {"residuals.csv": "case,residual_bound,residual\n0,1e-13,2.0\n"})
    b = _tree(tmp_path / "b", {"residuals.csv": "case,residual,time_error,residual_bound\n0,2.5,inf,1e-13\n"})
    assert cli_outputs.main(["--compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "residuals.csv time_error: column only in B" in lines
    assert "residuals.csv case: abs 0 rel 0" in lines
    assert "residuals.csv residual_bound: abs 0 rel 0" in lines
    assert "residuals.csv residual: abs 0.5 rel 0.2" in lines
    assert not any("only in A" in line for line in lines)


def test_compare_reports_field_coefficient_differences(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    coeffs = np.zeros((7, 7, 2))
    coeffs[3, 3] = [2.0, -1.0]
    field = CompactField([0.0, 0.0], 0.25, coeffs)
    save_field(field, a / "same.cfld")
    save_field(field, b / "same.cfld")
    save_field(field, a / "path_density.cfld")
    moved = coeffs.copy()
    moved[3, 3, 0] = 2.5
    save_field(field.with_coeffs(moved), b / "path_density.cfld")
    save_field(field, a / "start.cfld")
    save_field(PeriodicField(coeffs), b / "start.cfld")
    assert cli_outputs.main(["--compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "path_density.cfld coefficients: abs 0.5 rel 0.2" in lines
    assert "  path_density.cfld coefficients: abs 0.5 rel 0.2" in lines
    assert "start.cfld: geometry differs" in lines
    assert not any(line.startswith("same.cfld") for line in lines)
