"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

Small instances only: these check the harness, not the timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from evolflow import cli  # noqa: E402


def small(name: str, seed: int = 3) -> workloads.Workload:
    """The workload's first instance at a reduced grid: a call of about a second."""
    wl = workloads.make(name, seed)
    cfg = json.loads(json.dumps(wl.configs[0]))
    for key in ("velocity", "perturbation"):
        if key in cfg:
            cfg[key]["grid"] = 16
    if "oracle" in cfg:
        cfg["oracle"].update(seeds=5, steps=256)
    return replace(wl, configs=(cfg,))


def test_continuity_torus_csv_identical_at_one_and_two_threads(tmp_path):
    wl = small("continuity_torus")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.configs[0]))
    blobs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        code = cli.main([wl.command, "--config", str(config), "--out", str(out), "--threads", str(threads)])
        assert code == 0
        blobs.append((out / "continuity.csv").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_exact_counts_repeat_and_predicted_zeros_hold(tmp_path, name):
    wl = small(name)
    runner = run.Runner(wl, tmp_path)
    tracer = spans.Tracer()
    layers = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            runner.call(0)
        finally:
            tracer.uninstall()
        layers.append(spans.layer_metrics(tracer.spans(), wl.threads))
    assert runner.problems == []
    for metric in run.COUNT_METRICS:
        assert layers[0][metric] == layers[1][metric], metric
    lay = layers[0]
    assert lay["vector_field.eval.calls"] > 0 and lay["evolution.picard.sweeps"] > 0
    if name == "oracle":
        assert lay["diff_group.star.calls"] == lay["diff_group.d_rho.calls"] == 0
        assert lay["evolution.rk4.steps"] > 0
    else:
        assert lay["evolution.rk4.steps"] == 0 and lay["evolution.rk4.self_s"] == 0.0
        assert lay["diff_group.d_rho.calls"] > 0
    # every original is back after uninstall
    assert not hasattr(cli.main, "__wrapped__") and not hasattr(cli.evolve, "__wrapped__")


def test_benchmark_json_names_every_metric_the_runner_prints(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = small("glue")
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.Runner(wl, tmp_path).call(0)
    finally:
        tracer.uninstall()
    printed = set(spans.layer_metrics(tracer.spans(), 1)) | {"trace.wall_s", "trace.overhead_s"}
    printed |= {f"accuracy.{name}" for name in run.ACCURACY_METRICS}
    assert {m["name"] for m in bench["per_layer"]} == printed
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in bench["per_layer"])
    assert {w["name"] for w in bench["workloads"]} == set(workloads.NAMES)


def test_gates_flag_bad_outputs(tmp_path):
    wl = small("oracle")
    run.Runner(wl, tmp_path).call(0)
    out = tmp_path / "out"
    problems, figures, _ = run.check_outputs(wl.command, wl.configs[0], out, 0)
    assert problems == [] and figures["oracle_err_max"] > 0
    assert run.check_outputs(wl.command, wl.configs[0], out, 3)[0] == ["exit code 3"]
    rows = (out / "oracle.csv").read_text().splitlines()
    (out / "oracle.csv").write_text("\n".join(rows[:-1] + ["0,4,1e-3"]) + "\n")
    assert any("oracle error" in p for p in run.check_outputs(wl.command, wl.configs[0], out, 0)[0])
    (out / "residuals.csv").unlink()
    assert any("unreadable" in p for p in run.check_outputs(wl.command, wl.configs[0], out, 0)[0])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
