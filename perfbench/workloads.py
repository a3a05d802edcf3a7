"""The benchmark's workloads: an evolflow CLI command plus configs generated
from the benchmark seed.

The program only ever sees the generated configs.  A run cycles through
INSTANCES configs, one instance each, so a figure of the run averages over
instances: their solves differ in work (Picard needs 7 or 8 sweeps on
`oracle`, 64 to 68 on `glue`, depending on the field).  The calls on one
instance do the same work, so their counts repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: instances per run.
INSTANCES = 3

#: CLI --threads of every workload.  continuity_torus would be the one to
#: run the thread pool in parallel, but at two threads on the 2-core
#: sandbox its run-to-run spread was 6.5% against 3.8% at one thread;
#: test_perfbench.py checks that its output is the same at 1 and 2 threads.
THREADS = 1

# The accuracy gates the benchmark enforces.  The oracle and continuity
# gates are the ones of configs/oracle_equivalence.json and
# configs/continuity_reference.json; the residual tolerances are declared
# here and sit above the largest residual seen over 40 seeds (2.2e-6 on
# oracle, 2.2e-4 on glue).
ORACLE_TOLERANCE = 1e-4
ORACLE_RESIDUAL_TOLERANCE = 1e-5
GLUE_RESIDUAL_TOLERANCE = 1e-3
CONTINUITY_LEVELS = 6
CONTINUITY_MONOTONE_FACTOR = 1.1
CONTINUITY_FINAL_THRESHOLD = 1e-3

NAMES = ("oracle", "glue", "continuity_torus")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # evolflow CLI sub-command
    threads: int
    configs: tuple  # one config dict per instance


def _config(name: str, vseed: int, sseed: int) -> dict:
    if name == "oracle":
        return {
            "velocity": {"kind": "random_smooth", "count": 1, "seed": vseed,
                         "grid": 32, "cells": 4, "target_bound": 0.35},
            "oracle": {"seeds": 50, "steps": 4096, "tolerance": ORACLE_TOLERANCE, "seed": sseed},
            "residual_tolerance": ORACLE_RESIDUAL_TOLERANCE,
        }
    if name == "glue":
        return {
            "velocity": {"kind": "random_smooth", "count": 1, "seed": vseed,
                         "grid": 32, "cells": 4, "target_bound": 2.0},
            "residual_tolerance": GLUE_RESIDUAL_TOLERANCE,
        }
    return {
        "velocity": {"kind": "random_smooth_torus", "seed": vseed,
                     "grid": 20, "cells": 4, "target_bound": 1.0},
        "perturbation": {"kind": "random_smooth_torus", "seed": sseed,
                         "grid": 20, "cells": 4, "target_bound": 0.01},
        "levels": CONTINUITY_LEVELS,
        "monotone_factor": CONTINUITY_MONOTONE_FACTOR,
        "final_threshold": CONTINUITY_FINAL_THRESHOLD,
    }


def make(name: str, seed: int) -> Workload:
    """The workload `name` with its instances drawn from `seed`.

    Each instance takes a velocity seed and a second seed (oracle start
    points, or the continuity perturbation) from the seed's SeedSequence.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    state = np.random.SeedSequence(seed % (1 << 64)).generate_state(2 * INSTANCES)
    configs = tuple(_config(name, int(state[2 * i]), int(state[2 * i + 1])) for i in range(INSTANCES))
    command = "continuity-study" if name == "continuity_torus" else "evolve"
    return Workload(name, command, THREADS, configs)


def build_instances(workload: Workload) -> list:
    """The velocity curves the CLI builds from the configs, built the same way."""
    from evolflow import instances

    out = []
    for config in workload.configs:
        for key in ("velocity", "perturbation"):
            if key in config:
                vel = instances.resolve_velocity(dict(config[key]))
                out.extend(vel if isinstance(vel, list) else [vel])
    return out
