"""Write every file the CLI writes for the benchmark's instance configs, or
compare two such trees.

    python3 scripts/cli_outputs.py OUT [--seeds 1 4242] [--threads N]
    python3 scripts/cli_outputs.py --compare A B

Each instance config of every workload in ``perfbench/workloads.py`` runs
through ``evolflow.cli.main`` into ``OUT/<workload>_<seed>_<i>/``, with BLAS
pinned to one thread.  ``--threads`` overrides the workload's thread count
(the outputs must not depend on it).  The exit code is 1 if any call exits
with a code other than 0.

Run it in two checkouts, then ``--compare`` the trees.  For every CSV file
on both sides it prints, per column, the largest absolute difference and
the largest difference relative to the larger magnitude of the two values,
and then the largest of each over all files of the same name.  Columns are
matched by name; a column found on one side only is named.  It names the
files present on one side only, CSV files whose row count differs, and
other files whose bytes differ.  The exit code is 1 if any file is on one
side only or a CSV file's row count differs.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from evolflow import cli  # noqa: E402


def write_outputs(out: Path, seeds: list[int], threads: int | None) -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name in workloads.NAMES:
                wl = workloads.make(name, seed)
                n_threads = wl.threads if threads is None else threads
                for i, cfg in enumerate(wl.configs):
                    config = Path(tmp) / f"{name}_{seed}_{i}.json"
                    config.write_text(json.dumps(cfg))
                    target = out / f"{name}_{seed}_{i}"
                    code = cli.main([wl.command, "--config", str(config), "--out", str(target),
                                     "--threads", str(n_threads)])
                    print(f"{target.name}: exit {code}")
                    failed += code != 0
    return 1 if failed else 0


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _differences(a, b) -> tuple[float, float] | None:
    """Largest absolute and relative difference of two numeric columns,
    or None if either holds a value that is not a number."""
    try:
        pairs = [(float(x), float(y)) for x, y in zip(a, b)]
    except ValueError:
        return None
    worst_abs = worst_rel = 0.0
    for x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        diff = abs(x - y)
        if not math.isfinite(diff):  # a NaN or an infinity on one side only
            return math.inf, math.inf
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def compare(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    mismatched = 0
    for side, only in (("A", files_a - files_b), ("B", files_b - files_a)):
        for rel in sorted(only):
            print(f"only in {side}: {rel}")
            mismatched += 1
    summary: dict[tuple[str, str], list[float]] = {}
    for rel in sorted(files_a & files_b):
        pa, pb = a / rel, b / rel
        if rel.suffix != ".csv":
            if pa.read_bytes() != pb.read_bytes():
                print(f"{rel}: bytes differ")
            continue
        (head_a, rows_a), (head_b, rows_b) = _read_csv(pa), _read_csv(pb)
        if len(rows_a) != len(rows_b):
            print(f"{rel}: row count differs")
            mismatched += 1
            continue
        for side, names in (("A", set(head_a) - set(head_b)), ("B", set(head_b) - set(head_a))):
            for name in sorted(names):
                print(f"{rel} {name}: column only in {side}")
        cols_a, cols_b = dict(zip(head_a, zip(*rows_a))), dict(zip(head_b, zip(*rows_b)))
        for name, col_a in cols_a.items():
            if name not in cols_b:
                continue
            col_b = cols_b[name]
            diffs = _differences(col_a, col_b)
            if diffs is None:
                same = sum(x == y for x, y in zip(col_a, col_b))
                print(f"{rel} {name}: {len(col_a) - same} of {len(col_a)} values differ")
                continue
            print(f"{rel} {name}: abs {diffs[0]:.3g} rel {diffs[1]:.3g}")
            worst = summary.setdefault((rel.name, name), [0.0, 0.0])
            worst[:] = [max(worst[0], diffs[0]), max(worst[1], diffs[1])]
    print("largest over all files of one name:")
    for (fname, name), (worst_abs, worst_rel) in sorted(summary.items()):
        print(f"  {fname} {name}: abs {worst_abs:.3g} rel {worst_rel:.3g}")
    return 1 if mismatched else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 4242])
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if (args.out is None) == (args.compare is None):
        parser.error("give either OUT or --compare A B")
    if args.compare:
        return compare(*args.compare)
    return write_outputs(args.out, args.seeds, args.threads)


if __name__ == "__main__":
    sys.exit(main())
