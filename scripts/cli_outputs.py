"""Write every file the CLI writes for the benchmark's instance configs.

    python3 scripts/cli_outputs.py OUT [--seeds 1 4242] [--threads N]

Each instance config of every workload in ``perfbench/workloads.py`` runs
through ``evolflow.cli.main`` into ``OUT/<workload>_<seed>_<i>/``, with BLAS
pinned to one thread.  Run it in two checkouts and compare the trees with
``diff -r`` to see whether a change moves any output.  ``--threads``
overrides the workload's thread count (the outputs must not depend on it).
The exit code is 1 if any call exits with a code other than 0.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from evolflow import cli  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 4242])
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name in workloads.NAMES:
                wl = workloads.make(name, seed)
                threads = wl.threads if args.threads is None else args.threads
                for i, cfg in enumerate(wl.configs):
                    config = Path(tmp) / f"{name}_{seed}_{i}.json"
                    config.write_text(json.dumps(cfg))
                    out = args.out / f"{name}_{seed}_{i}"
                    code = cli.main([wl.command, "--config", str(config), "--out", str(out),
                                     "--threads", str(threads)])
                    print(f"{out.name}: exit {code}")
                    failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
