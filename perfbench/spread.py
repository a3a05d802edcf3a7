"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workloads oracle,glue --seeds 1-10 [--trace 1] [--json FILE]

Runs ``perfbench/run.py`` from the current directory (the root of a
checkout), one process at a time, and prints for every metric the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread: the distance between the quartiles as a share of the median.
Any run that exits non-zero or reports ``correct: false`` is listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in BENCH["end_to_end"]}
    report: dict = {}
    bad = []
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - t
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                bad.append(f"{workload} seed {seed}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
                continue
            line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items() if k in bounds)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, attempted {result['attempted']} {line}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {name: summarise(v) for name, v in values.items() if len(v) >= 2}
        for name, s in report[workload].items():
            bound = bounds.get(name)
            note = f"  (bound {bound}, a third {bound / 3:.4f})" if bound else ""
            print(f"{workload:<17} {name:<40} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}{note}")
    for line in bad:
        print(f"FAILED RUN: {line}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
