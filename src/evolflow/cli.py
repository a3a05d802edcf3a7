"""Configuration-driven experiment runner.

    evolflow <command> --config FILE [--out DIR] [--threads N] [--seed S]
                       [--render]

Commands: evolve, continuity-study, subdivision-study, property-check,
torus-evolve.  Each command accepts the top-level config keys of its own
table below; any other key is a configuration error.  Exit codes: 0 all
checks pass, 1 usage or configuration error, 2 solver failure, 3 declared
check failed.  --threads N solves the cases of evolve and torus-evolve on N
threads; the other commands run in order.  CSV output uses a header row, '.'
decimals, LF endings, and is byte-identical for any --threads value.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import diff_group, evolution, instances
from ._parallel import ordered_thread_map
from .evolution import (
    SUBDIVISION_LIMIT,
    TimeVelocity,
    contraction_bound,
    evolve,
    flow_point,
    rk4_points,
    window_budgets,
)
from .vector_field import PeriodicField

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3

#: side of the `--render` image in pixels, and its grid lines per axis
RENDER_SIZE = 400
RENDER_LINES = 12


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _velocities(cfg: dict, seed_override: int | None, key: str = "velocity"):
    if key not in cfg:
        raise ConfigError(f"config needs a {key!r} entry")
    try:
        vel = instances.resolve_velocity(cfg[key], seed_override)
    except (TypeError, KeyError, ValueError, OSError) as exc:
        raise ConfigError(f"bad {key} spec: {exc}") from exc
    return vel if isinstance(vel, list) else [vel]


def _is_real(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


def _is_positive(val) -> bool:
    return _is_real(val) and val > 0


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_count(val, least: int = 1) -> bool:
    return _is_int(val) and val >= least


# config keys: what each must be, and the check of it.  json.loads reads
# Infinity and NaN, so a declared tolerance must be checked to be finite.
_POSITIVE = ("a finite number > 0", _is_positive)
_OBJECT = ("an object", lambda v: isinstance(v, dict))
_SOLVER_KEYS = {
    "L_max": ("a number in (0, 1]", lambda v: _is_real(v) and 0 < v <= 1),
    "tol": _POSITIVE,
    "forced_n": ("a positive integer", _is_count),
}
_ORACLE_KEYS = {
    "seeds": ("a positive integer", _is_count),
    "steps": ("a positive integer", _is_count),
    "seed": ("a non-negative integer", lambda v: _is_count(v, 0)),
    "tolerance": _POSITIVE,
}
# one table per command: every top-level key it reads, with a nested table
# for an object entry; a velocity spec's own keys are checked by
# instances.resolve_velocity
_EVOLVE_KEYS = {
    "velocity": _OBJECT,
    "oracle": _ORACLE_KEYS,
    "residual_tolerance": _POSITIVE,
    "save_path": ("true or false", lambda v: isinstance(v, bool)),
    **_SOLVER_KEYS,
}
_COMMAND_KEYS = {
    "evolve": _EVOLVE_KEYS,
    "torus-evolve": _EVOLVE_KEYS,
    "continuity-study": {
        "velocity": _OBJECT,
        "perturbation": _OBJECT,
        "levels": ("an integer >= 2", lambda v: _is_count(v, 2)),
        "monotone_factor": _POSITIVE,
        "final_threshold": _POSITIVE,
        **_SOLVER_KEYS,
    },
    "subdivision-study": {
        "velocity": _OBJECT,
        "n_values": (
            f"a non-empty list of integers in [1, {SUBDIVISION_LIMIT}]",
            lambda v: isinstance(v, list) and v != [] and all(_is_count(n) and n <= SUBDIVISION_LIMIT for n in v),
        ),
    },
    "property-check": {
        "seed": ("a non-negative integer", lambda v: _is_count(v, 0)),
        "dim": ("a positive integer", _is_count),
        "grid": ("a positive integer", _is_count),
        "target_bound": _POSITIVE,
        "residual_bound": _POSITIVE,
    },
}


def _checked_keys(cfg: dict, keys: dict, where: str = "") -> dict:
    """cfg, once every entry is checked against keys, the table of all the
    keys allowed there; ConfigError names an unknown or a bad entry,
    prefixed with ``where``."""
    for key, val in cfg.items():
        if key not in keys:
            close = difflib.get_close_matches(key, keys, n=1)
            hint = f"did you mean {where}{close[0]}?" if close else f"known keys: {', '.join(keys)}"
            raise ConfigError(f"unknown config key {where}{key}; {hint}")
        check = keys[key]
        if isinstance(check, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where}{key} must be an object, got {val!r}")
            _checked_keys(val, check, f"{where}{key}.")
        elif not check[1](val):
            raise ConfigError(f"{where}{key} must be {check[0]}, got {val!r}")
    return cfg


def _solver_kwargs(cfg: dict) -> dict:
    return {key: cfg[key] for key in _SOLVER_KEYS if key in cfg}


def _oracle_starts(case: int, gamma: TimeVelocity, oracle_cfg: dict) -> np.ndarray:
    """The case's random oracle points: on the torus, or in the middle 70%
    of the compact box per axis."""
    seeds = oracle_cfg.get("seeds", 50)
    rng = np.random.default_rng(oracle_cfg.get("seed", 1234) + case)
    d = gamma.dimension
    if isinstance(gamma.proto, PeriodicField):
        return rng.uniform(0.0, 1.0, size=(seeds, d))
    proto = gamma.proto
    lo = proto.lo + 0.15 * (proto.hi - proto.lo)
    hi = proto.hi - 0.15 * (proto.hi - proto.lo)
    return rng.uniform(lo, hi, size=(seeds, d))


def _oracle_errors(gammas: list, results: list, oracle_cfg: dict) -> list[np.ndarray]:
    """Per case, the distance at t = 1 between its solve and RK4 from each
    of its oracle points.  The cases come from one velocity spec, so they
    share field class, geometry, components and time grid, and step through
    RK4 as one batch."""
    starts = [_oracle_starts(case, gamma, oracle_cfg) for case, gamma in enumerate(gammas)]
    ref = rk4_points(gammas, np.concatenate(starts), oracle_cfg.get("steps", 4096))[-1]
    ends = np.split(ref, len(gammas))
    errs = []
    for gamma, result, xs, ref in zip(gammas, results, starts, ends):
        diff = flow_point(result, 1.0, xs) - ref
        if isinstance(gamma.proto, PeriodicField):
            from .manifold_paths import wrap_diff

            diff = wrap_diff(diff)
        errs.append(np.linalg.norm(diff, axis=1))
    return errs


def _save_result(result, out: Path, name: str) -> None:
    pdir = out / f"{name}_path"
    manifest = diff_group.save_group_path(result.path, pdir)
    obj = {
        "n": result.n,
        "segments": [dataclasses.asdict(s) for s in result.segments],
        "iterations": [s.iterations for s in result.segments],
        "residual": result.residual,
        "path": str(manifest.relative_to(out)),
    }
    (out / f"{name}.json").write_text(json.dumps(obj, indent=2))


def _render_ppm(result, out: Path, name: str) -> None:
    proto = result.path.stacked
    lo = proto.lo
    hi = getattr(proto, "hi", proto.lo + 1.0)
    img = np.full((RENDER_SIZE, RENDER_SIZE), 255, dtype=np.uint8)
    ts = np.linspace(0.0, 1.0, 40 * RENDER_SIZE // RENDER_LINES)
    disp = result.path.end()
    for i in range(RENDER_LINES + 1):
        c = lo + (hi - lo) * i / RENDER_LINES
        for pts in (
            np.stack([np.full_like(ts, c[0]), lo[1] + (hi[1] - lo[1]) * ts], axis=1),
            np.stack([lo[0] + (hi[0] - lo[0]) * ts, np.full_like(ts, c[1])], axis=1),
        ):
            mapped = pts + disp.eval(pts)
            px = ((mapped - lo) / (hi - lo) * (RENDER_SIZE - 1)).round().astype(int)
            keep = np.all((px >= 0) & (px < RENDER_SIZE), axis=1)
            img[px[keep, 1], px[keep, 0]] = 0
    with open(out / f"{name}.ppm", "wb") as fh:
        fh.write(f"P6\n{RENDER_SIZE} {RENDER_SIZE}\n255\n".encode())
        fh.write(np.repeat(img[::-1, :, None], 3, axis=2).tobytes())


def cmd_evolve(cfg: dict, out: Path, threads: int, seed: int | None, render: bool, torus: bool) -> int:
    kw = _solver_kwargs(cfg)
    oracle_cfg = cfg.get("oracle")
    gammas = _velocities(cfg, seed)
    if torus and not all(isinstance(g.proto, PeriodicField) for g in gammas):
        raise ConfigError("torus-evolve needs a periodic velocity, such as kind random_smooth_torus")
    if render and gammas[0].dimension != 2:
        raise ConfigError(f"--render draws 2-d velocities only, got dimension {gammas[0].dimension}")

    def one(item):
        case, gamma = item
        result = evolve(gamma, **kw)
        rows = [
            [case, result.n, k, s.iterations, s.contraction, s.last_change, s.residual_bound, s.time_error,
             result.residual]
            for k, s in enumerate(result.segments)
        ]
        return rows, result

    outputs = ordered_thread_map(one, enumerate(gammas), threads)
    results = [result for _, result in outputs]
    _write_csv(
        out / "residuals.csv",
        ["case", "n", "segment", "iterations", "contraction", "last_change", "residual_bound", "time_error",
         "residual"],
        [r for rows, _ in outputs for r in rows],
    )
    failed = False
    if oracle_cfg is not None:
        errs = _oracle_errors(gammas, results, oracle_cfg)
        _write_csv(out / "oracle.csv", ["case", "seed", "error"],
                   [[case, s, e] for case, es in enumerate(errs) for s, e in enumerate(es)])
        tol = oracle_cfg.get("tolerance")
        if tol is not None and max(float(np.max(es)) for es in errs) > tol:
            failed = True
    if cfg.get("save_path", False) or len(gammas) == 1:
        for case, result in enumerate(results):
            _save_result(result, out, f"result_{case:03d}")
            if render:
                _render_ppm(result, out, f"deformed_grid_{case:03d}")
    rtol = cfg.get("residual_tolerance")
    if rtol is not None and any(r.residual > rtol for r in results):
        failed = True
    return EXIT_CHECK if failed else EXIT_OK


def cmd_continuity(cfg: dict, out: Path, seed: int | None) -> int:
    kw = _solver_kwargs(cfg)
    gammas = _velocities(cfg, seed)
    deltas = _velocities(cfg, None, "perturbation")
    if len(gammas) != 1 or len(deltas) != 1:
        raise ConfigError("continuity-study takes a single velocity and a single perturbation")
    levels = cfg.get("levels", 6)
    pairs = evolution.continuity_probe(gammas[0], deltas[0], levels, **kw)
    rows = [[k, scale, dist] for k, (scale, dist) in enumerate(pairs)]
    _write_csv(out / "continuity.csv", ["level", "scale", "distance"], rows)
    dists = [d for _, d in pairs]
    factor = float(cfg.get("monotone_factor", 1.1))
    ok = all(dists[k + 1] <= factor * dists[k] for k in range(len(dists) - 1))
    threshold = cfg.get("final_threshold")
    if threshold is not None and dists[-1] >= threshold:
        ok = False
    return EXIT_OK if ok else EXIT_CHECK


def cmd_subdivision(cfg: dict, out: Path, seed: int | None) -> int:
    gammas = _velocities(cfg, seed)
    if len(gammas) != 1:
        raise ConfigError("subdivision-study takes a single velocity")
    gamma = gammas[0]
    total = contraction_bound(gamma)
    rows = [
        [n, float(np.max(window_budgets(gamma, n))), total / n, total]
        for n in cfg.get("n_values", [1, 2, 4, 8, 16])
    ]
    _write_csv(out / "subdivision.csv", ["n", "max_budget", "total_over_n", "total"], rows)
    return EXIT_OK


def cmd_property_check(cfg: dict, out: Path, seed: int | None) -> int:
    from .diff_group import inverse, star

    seed = seed if seed is not None else cfg.get("seed", 0)
    spec = {"kind": "random_smooth", "seed": seed, "dim": cfg.get("dim", 2), "grid": cfg.get("grid", 24),
            "cells": 2, "target_bound": cfg.get("target_bound", 0.3)}
    (gamma,) = _velocities({"velocity": spec}, None)
    phi = instances.random_plateau_field(seed, target_alpha=0.9)
    e = phi.zero_like()
    rows = []

    def check(name, value, bound):
        rows.append([name, value, bound, "pass" if value <= bound else "FAIL"])

    check("neutral_right", (star(phi, e) - phi).sup_seminorm(), 1e-9)
    check("neutral_left", (star(e, phi) - phi).sup_seminorm(), 1e-9)
    small = phi.scaled(0.3 / 0.9)
    check("inverse_law", star(small, inverse(small)).sup_seminorm(), 1e-8)
    res = evolution.evolve(gamma)
    # the residual floor is the density resampling error of the grid in use
    check("evolve_residual", res.residual, cfg.get("residual_bound", 1e-5))
    _write_csv(out / "property_check.csv", ["name", "value", "bound", "status"], rows)
    return EXIT_OK if all(r[3] == "pass" for r in rows) else EXIT_CHECK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="evolflow", description=__doc__)
    parser.add_argument("command", choices=[
        "evolve", "continuity-study", "subdivision-study", "property-check", "torus-evolve",
    ])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="evolflow_out")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--render", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a solver failure; --help exits 0
        return EXIT_CONFIG if exc.code else EXIT_OK

    out = Path(args.out)
    try:
        cfg = _checked_keys(_load_config(args.config), _COMMAND_KEYS[args.command])
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "evolve":
            code = cmd_evolve(cfg, out, args.threads, args.seed, args.render, torus=False)
        elif args.command == "torus-evolve":
            code = cmd_evolve(cfg, out, args.threads, args.seed, args.render, torus=True)
        elif args.command == "continuity-study":
            code = cmd_continuity(cfg, out, args.seed)
        elif args.command == "subdivision-study":
            code = cmd_subdivision(cfg, out, args.seed)
        else:
            code = cmd_property_check(cfg, out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # solver failure: leave a diagnostics file
        out.mkdir(parents=True, exist_ok=True)
        (out / "failure.json").write_text(json.dumps({
            "error": str(exc),
            "traceback": traceback.format_exc(),
        }, indent=2))
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return code


if __name__ == "__main__":
    sys.exit(main())
