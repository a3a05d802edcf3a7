"""One set-up sample: import evolflow and build a workload's instances.

    python3 perfbench/setup_probe.py <workload> <seed> <t0>

`t0` is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is shared by all processes of the machine), so
the printed `setup_s` runs from process start, interpreter start-up
included, to the moment the instances exist.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    name, seed, t0 = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    import evolflow
    import workloads

    src = Path.cwd() / "src"
    if Path(evolflow.__file__).resolve().parent != (src / "evolflow").resolve():
        print(f"evolflow imported from {evolflow.__file__}, not from {src}", file=sys.stderr)
        return 2
    workloads.build_instances(workloads.make(name, seed))
    setup_s = time.monotonic() - t0
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
