"""The evolflow benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout that holds ``src/evolflow``; nothing
needs installing.  The workload's instance configs are generated from
``--seed`` (see ``workloads.py``) and solved in turn, again and again,
through ``evolflow.cli.main`` in this one process, with BLAS pinned to one
thread.  Every call's exit code and CSV outputs go through the accuracy
gates, and every call must write the same bytes as the instance's first.
After one warm-up call, the measuring loop starts no call it expects to
end after ``--seconds``, but solves each instance at least once.

``--trace 0`` reports the end-to-end metrics: the call time, the median of
several set-up samples taken in fresh processes, and peak memory through
the first solve.  Times
are scaled to reference machine speed by a kernel timed next to each
measurement (see ``calibrate.py``); the measured times are printed too.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of the traced ones (see ``spans.py``), plus the tracing
overhead, in measured seconds.  Human-readable lines come first; the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  Outputs go to ``.perfbench_out/`` in the checkout and are removed
at the end.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread before numpy is first imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_out"

#: set-up samples per run; setup_s is their median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics that are exact counts: they must repeat bit-for-bit.
COUNT_METRICS = (
    "vector_field.eval.calls",
    "vector_field.eval.points",
    "vector_field.jacobian.points",
    "vector_field.alpha.calls",
    "vector_field.with_values.calls",
    "evolution.picard.sweeps",
    "evolution.picard.segments",
    "evolution.subdivision.n",
    "evolution.rk4.steps",
    "diff_group.star.calls",
    "diff_group.d_rho.calls",
    "diff_group.distance.calls",
    "lp_space.timegrid.calls",
)
ACCURACY_METRICS = ("oracle_err_max", "residual_max", "continuity_dist_final")


def per_layer_unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("_s"):
        return "s"
    if name == "vector_field.eval.points_per_call":
        return "points/call"
    return "ratio" if name.endswith(("efficiency", "over_resample")) else "1"


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(command: str, cfg: dict, out: Path, code: int) -> tuple[list[str], dict, bytes]:
    """Accuracy gates on one CLI call: (problems, accuracy figures, CSV bytes)."""
    problems = [] if code == 0 else [f"exit code {code}"]
    figures: dict[str, float] = {}
    if command == "continuity-study":
        names = ["continuity.csv"]
    else:
        names = ["residuals.csv"] + (["oracle.csv"] if "oracle" in cfg else [])
    try:
        blob = b"".join((out / n).read_bytes() for n in names)
        if command == "evolve":
            res = [float(r["residual"]) for r in _read_csv(out / "residuals.csv")]
            figures["residual_max"] = max(res)
            if not all(math.isfinite(r) and r <= cfg["residual_tolerance"] for r in res):
                problems.append(f"residual {max(res):.3g} above {cfg['residual_tolerance']}")
            if "oracle" in cfg:
                errs = [float(r["error"]) for r in _read_csv(out / "oracle.csv")]
                figures["oracle_err_max"] = max(errs)
                if len(errs) != cfg["oracle"]["seeds"]:
                    problems.append(f"{len(errs)} oracle rows, expected {cfg['oracle']['seeds']}")
                if not all(math.isfinite(e) and e <= cfg["oracle"]["tolerance"] for e in errs):
                    problems.append(f"oracle error {max(errs):.3g} above {cfg['oracle']['tolerance']}")
        else:
            dists = [float(r["distance"]) for r in _read_csv(out / "continuity.csv")]
            figures["continuity_dist_final"] = dists[-1]
            factor = cfg["monotone_factor"]
            if len(dists) != cfg["levels"]:
                problems.append(f"{len(dists)} continuity levels, expected {cfg['levels']}")
            if not all(dists[k + 1] <= factor * dists[k] for k in range(len(dists) - 1)):
                problems.append("continuity distances not monotone")
            if not (math.isfinite(dists[-1]) and dists[-1] < cfg["final_threshold"]):
                problems.append(f"final distance {dists[-1]:.3g} not below {cfg['final_threshold']}")
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
        blob = b""
    return problems, figures, blob


def measure_setup(name: str, seed: int) -> float:
    """One set-up sample in a fresh process (see setup_probe.py)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), repr(t0)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Runner:
    """Solves a workload's instances, each as often as asked, and gates every call."""

    def __init__(self, wl, workdir: Path):
        from evolflow import cli

        self.cli = cli
        self.wl = wl
        self.out = workdir / "out"
        self.argvs = []
        for i, cfg in enumerate(wl.configs):
            config = workdir / f"config_{i}.json"
            config.write_text(json.dumps(cfg, indent=2))
            self.argvs.append([wl.command, "--config", str(config), "--out", str(self.out),
                               "--threads", str(wl.threads)])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.figures: dict[str, float] = {}  # worst over instances
        self.first_blobs: list[bytes | None] = [None] * len(wl.configs)

    def call(self, i: int) -> float:
        """One gated CLI call on instance i; returns its wall time."""
        shutil.rmtree(self.out, ignore_errors=True)
        t = time.perf_counter()
        code = self.cli.main(self.argvs[i])
        wall = time.perf_counter() - t
        problems, figures, blob = check_outputs(self.wl.command, self.wl.configs[i], self.out, code)
        if self.first_blobs[i] is None:
            self.first_blobs[i] = blob
        elif blob != self.first_blobs[i]:
            problems.append(f"instance {i}: outputs differ from its first call's")
        for name, val in figures.items():
            self.figures[name] = max(self.figures.get(name, val), val)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return wall


def _mean_of_medians(groups: list[list[float]]) -> float:
    """Mean over instances of each instance's median."""
    return statistics.fmean(statistics.median(g) for g in groups)


def run_untraced(runner: Runner, seconds: float) -> dict[str, float]:
    """Call time scaled to reference speed (see calibrate.py), as the mean over
    instances of each instance's median."""
    start = time.perf_counter()
    k = len(runner.wl.configs)
    scaled: list[list[float]] = [[] for _ in range(k)]
    cycles: list[float] = []
    i = 0
    scale = calibrate.SpeedScale()
    while i < k or time.perf_counter() - start + statistics.median(cycles) <= seconds:
        t = time.perf_counter()
        wall = runner.call(i % k)
        scaled[i % k].append(scale(wall))
        cycles.append(time.perf_counter() - t)
        print(f"  instance {i % k}: wall {wall:.4f} s, scaled {scaled[i % k][-1]:.4f} s")
        i += 1
    print(f"timed calls: {i}")
    return {"wall_s": _mean_of_medians(scaled)}


def run_traced(runner: Runner, seconds: float) -> tuple[dict[str, float], list[str]]:
    """Untraced and traced calls in turn; per-layer figures of the traced ones,
    as the mean over instances of each instance's median."""
    tracer = spans.Tracer()
    start = time.perf_counter()
    k = len(runner.wl.configs)
    plain: list[list[float]] = [[] for _ in range(k)]
    traced: list[list[float]] = [[] for _ in range(k)]
    layers: list[list[dict]] = [[] for _ in range(k)]
    cycles: list[float] = []
    i = 0
    while i < k or time.perf_counter() - start + statistics.median(cycles) <= seconds:
        t = time.perf_counter()
        plain[i % k].append(runner.call(i % k))
        tracer.reset()
        tracer.install()
        try:
            traced[i % k].append(runner.call(i % k))
        finally:
            tracer.uninstall()
        layers[i % k].append(spans.layer_metrics(tracer.spans(), runner.wl.threads))
        cycles.append(time.perf_counter() - t)
        i += 1
    problems = [
        f"instance {j}: {name} differs between traced calls"
        for j in range(k)
        for name in COUNT_METRICS
        if len({lay[name] for lay in layers[j]}) != 1
    ]
    print(f"call pairs (untraced, traced): {i}")
    metrics = {name: _mean_of_medians([[lay[name] for lay in group] for group in layers]) for name in layers[0][0]}
    metrics["trace.wall_s"] = _mean_of_medians(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _mean_of_medians(plain)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evolflow" / "cli.py").is_file():
        print(f"no evolflow sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, args.seed)

    import evolflow

    if Path(evolflow.__file__).resolve().parent != (SRC / "evolflow").resolve():
        print(f"evolflow imported from {evolflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(wl, workdir)
        print(f"workload {wl.name}, seed {args.seed}: evolflow {wl.command} --threads {wl.threads}")
        runner.call(0)  # warm-up: lazy imports and first allocations
        # What a one-solve CLI process reaches.  Read before the calibration
        # kernel first runs here: its temporaries change how later arrays are
        # allocated.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            metrics, problems = run_traced(runner, args.seconds)
            runner.problems.extend(problems)
            for name in ACCURACY_METRICS:
                metrics[f"accuracy.{name}"] = runner.figures.get(name, 0.0)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            setup: list[float] = []
            setup_scaled: list[float] = []
            scale = calibrate.SpeedScale()
            for _ in range(SETUP_REPEATS):
                setup.append(measure_setup(wl.name, args.seed))
                setup_scaled.append(scale(setup[-1]))
            metrics = run_untraced(runner, args.seconds)
            metrics["setup_s"] = statistics.median(setup_scaled)
            metrics["peak_rss_mb"] = peak_rss_mb
            units = dict(END_TO_END_UNITS)
            print("setup samples, measured: " + " ".join(f"{x:.4f}" for x in setup))
            print("setup samples, scaled:   " + " ".join(f"{x:.4f}" for x in setup_scaled))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for name, val in runner.figures.items():
        print(f"{name:<40} {val:.6g}  (gated)")
    print(f"{'failed_frac':<40} {runner.failed / runner.attempted:.6g}  ({runner.failed} of {runner.attempted} calls)")
    for name, val in metrics.items():
        print(f"{name:<40} {val:.6g} {units[name]}")
    for problem in dict.fromkeys(runner.problems):
        print(f"FAILED: {problem}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
