"""Deterministic construction of reference velocity curves.

Shared by the CLI and the test suite: every instance is a pure function of
its parameters (seeds included), so experiment outputs are reproducible.
"""

from __future__ import annotations

import inspect

import numpy as np

from .ac_path import ContinuousTrace
from .evolution import TimeVelocity, contraction_bound
from .lp_space import TimeGrid
from .vector_field import CompactField, PeriodicField

__all__ = [
    "smoothstep",
    "plateau_weight",
    "random_plateau_field",
    "random_smooth_velocity",
    "random_smooth_torus_velocity",
    "rotation_plateau_velocity",
    "translation_plateau_velocity",
    "constant_torus_velocity",
    "zero_velocity",
    "random_trace",
    "resolve_velocity",
]


def smoothstep(t):
    """Quintic smoothstep, C^2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def plateau_weight(points, center, r_plateau, r_support):
    """1 inside the sup-ball of radius r_plateau, 0 outside r_support."""
    r = np.max(np.abs(points - np.asarray(center)), axis=1)
    return smoothstep((r_support - r) / (r_support - r_plateau))


def _gaussian_filter(x, sigma: float, mode: str) -> np.ndarray:
    """Each component of x (last axis) correlated along each spatial axis in
    turn with the normalised Gaussian of width sigma truncated at 4 sigma,
    past its ends zero (mode "constant") or periodic ("wrap"); a width of at
    most 1e-15 leaves x as it is.  Each symmetric pair of taps is added
    farthest first, as ndimage's ``gaussian_filter`` does on one component,
    whose bits this reproduces."""
    out = np.array(x, dtype=float)
    if sigma <= 1e-15:
        return out
    r = int(4.0 * float(sigma) + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (w / w.sum())[r:]
    for ax in range(out.ndim - 1):
        n = out.shape[ax]
        pad = np.moveaxis(np.pad(out, [(r, r) if a == ax else (0, 0) for a in range(out.ndim)], mode=mode), ax, 0)
        acc = pad[r:r + n] * w[0]
        for j in range(r, 0, -1):
            acc += (pad[r - j:r - j + n] + pad[r + j:r + j + n]) * w[j]
        out = np.moveaxis(acc, 0, ax)
    return out


def _smooth_noise_field(rng, dim, grid, lo, h, sigma, margin, ramp=4):
    coeffs = _gaussian_filter(rng.standard_normal((grid,) * dim + (dim,)), sigma, "constant")
    # taper toward the boundary so resampled compositions keep the margin
    j = np.arange(grid)
    win1d = smoothstep((j - margin) / ramp) * smoothstep((grid - 1 - j - margin) / ramp)
    window = np.ones((grid,) * dim)
    for ax in range(dim):
        shape = [1] * dim
        shape[ax] = grid
        window = window * win1d.reshape(shape)
    coeffs *= window[..., None]
    return CompactField(lo, h, coeffs, margin)


def random_plateau_field(
    seed: int,
    grid: int = 48,
    box=(0.0, 1.0),
    center=(0.5, 0.5),
    r_plateau: float = 0.2,
    r_support: float = 0.36,
    waves: int = 3,
    target_alpha: float | None = None,
) -> CompactField:
    """A random sinusoid mixture windowed to a plateau well inside the box.

    The node values vanish identically near the boundary, so the spline
    coefficients decay to round-off before the zero margin; compositions of
    such fields resample with errors far below the interpolation bound of
    boundary-supported data.
    """
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    dim = center.size
    h = (box[1] - box[0]) / (grid - 1)
    ks = rng.normal(size=(dim, dim, waves))
    ph = rng.uniform(0.0, 2.0 * np.pi, size=(dim, waves))

    def fn(points):
        w = plateau_weight(points, center, r_plateau, r_support)
        out = np.zeros((points.shape[0], dim))
        for c in range(dim):
            for m in range(waves):
                out[:, c] += np.sin(2.0 * np.pi * (points @ ks[:, c, m]) + ph[c, m])
        return out * w[:, None]

    field = CompactField.from_function(np.full(dim, box[0]), h, (grid,) * dim, fn, dim)
    if target_alpha is not None:
        field = field.scaled(target_alpha / max(field.alpha(), 1e-300))
    return field


def random_smooth_velocity(
    seed: int,
    dim: int = 2,
    grid: int = 32,
    cells: int = 4,
    box=(0.0, 1.0),
    target_bound: float = 0.3,
    p: float = 2.0,
    sigma: float = 2.0,
    margin: int = 3,
) -> TimeVelocity:
    """Gaussian-smoothed random fields, scaled to a target contraction budget."""
    rng = np.random.default_rng(seed)
    lo = np.full(dim, box[0])
    h = (box[1] - box[0]) / (grid - 1)
    fields = [_smooth_noise_field(rng, dim, grid, lo, h, sigma, margin) for _ in range(cells)]
    raw = TimeVelocity(TimeGrid.uniform(0.0, 1.0, cells), fields, p)
    total = contraction_bound(raw)
    if total == 0.0:
        return raw
    return raw.scaled(target_bound / total)


def random_smooth_torus_velocity(
    seed: int,
    dim: int = 2,
    grid: int = 32,
    cells: int = 4,
    target_bound: float = 0.3,
    p: float = 2.0,
    sigma: float = 2.0,
) -> TimeVelocity:
    rng = np.random.default_rng(seed)
    noise = [rng.standard_normal((grid,) * dim + (dim,)) for _ in range(cells)]
    fields = [PeriodicField(_gaussian_filter(x, sigma, "wrap")) for x in noise]
    raw = TimeVelocity(TimeGrid.uniform(0.0, 1.0, cells), fields, p)
    total = contraction_bound(raw)
    if total == 0.0:
        return raw
    return raw.scaled(target_bound / total)


def rotation_plateau_velocity(
    omega: float = 0.3,
    grid: int = 64,
    box=(0.0, 1.0),
    center=(0.5, 0.5),
    r_plateau: float = 0.3,
    r_support: float = 0.44,
    p: float = 2.0,
) -> TimeVelocity:
    """Rigid rotation by omega on the plateau, tapered to zero support."""
    center = np.asarray(center, dtype=float)
    lo = np.full(2, box[0])
    h = (box[1] - box[0]) / (grid - 1)

    def fn(points):
        rel = points - center
        rot = omega * np.stack([-rel[:, 1], rel[:, 0]], axis=1)
        return rot * plateau_weight(points, center, r_plateau, r_support)[:, None]

    field = CompactField.from_function(lo, h, (grid, grid), fn, 2)
    return TimeVelocity(TimeGrid.uniform(0.0, 1.0, 1), [field], p)


def translation_plateau_velocity(
    v=(0.05, 0.02),
    grid: int = 64,
    box=(0.0, 1.0),
    center=(0.5, 0.5),
    r_plateau: float = 0.3,
    r_support: float = 0.44,
    p: float = 2.0,
) -> TimeVelocity:
    v = np.asarray(v, dtype=float)
    center = np.asarray(center, dtype=float)
    lo = np.full(v.size, box[0])
    h = (box[1] - box[0]) / (grid - 1)

    def fn(points):
        w = plateau_weight(points, center, r_plateau, r_support)
        return w[:, None] * v[None, :]

    field = CompactField.from_function(lo, h, (grid,) * v.size, fn, v.size)
    return TimeVelocity(TimeGrid.uniform(0.0, 1.0, 1), [field], p)


def constant_torus_velocity(v, grid: int = 16, p: float = 2.0) -> TimeVelocity:
    v = np.asarray(v, dtype=float)
    coeffs = np.broadcast_to(v, (grid,) * v.size + (v.size,)).copy()
    field = PeriodicField(coeffs)
    return TimeVelocity(TimeGrid.uniform(0.0, 1.0, 1), [field], p)


def zero_velocity(dim: int = 2, grid: int = 16, cells: int = 1, box=(0.0, 1.0), p: float = 2.0) -> TimeVelocity:
    lo = np.full(dim, box[0])
    h = (box[1] - box[0]) / (grid - 1)
    fields = [CompactField.zero(lo, h, (grid,) * dim, dim) for _ in range(cells)]
    return TimeVelocity(TimeGrid.uniform(0.0, 1.0, cells), fields, p)


def random_trace(rng, ncells: int, dim: int, box=(0.2, 0.8)) -> ContinuousTrace:
    grid = TimeGrid.uniform(0.0, 1.0, ncells)
    vals = rng.uniform(box[0], box[1], size=(ncells + 1, dim))
    return ContinuousTrace(grid, vals)


def _manifest_velocity(**spec) -> TimeVelocity:
    unknown = sorted(set(spec) - {"path"})
    if unknown:
        raise ValueError(f"velocity kind 'manifest' takes only a 'path' entry, not {unknown}")
    if "path" not in spec:
        raise ValueError("velocity kind 'manifest' needs a 'path' entry")
    return TimeVelocity.load(spec["path"])


# velocity kind -> constructor, which takes a seed if the kind draws from one
_VELOCITY_KINDS = {
    "zero": zero_velocity,
    "random_smooth": random_smooth_velocity,
    "random_smooth_torus": random_smooth_torus_velocity,
    "rotation_plateau": rotation_plateau_velocity,
    "translation_plateau": translation_plateau_velocity,
    "constant_torus": constant_torus_velocity,
    "manifest": _manifest_velocity,
}


def resolve_velocity(spec: dict, seed: int | None = None):
    """Build velocity instances from a config dictionary.

    A ``count`` key gives a list of cases, equal ones for a kind that draws
    no seed; otherwise ``seed`` replaces the spec's seed, advanced per case.
    """
    spec = dict(spec)
    count = spec.pop("count", None)
    if count is not None and (type(count) is not int or count < 1):
        raise ValueError(f"count must be a positive integer, got {count!r}")
    kind = spec.pop("kind", None)
    if not isinstance(kind, str) or kind not in _VELOCITY_KINDS:
        got = "none" if kind is None else repr(kind)
        raise ValueError(f"velocity kind must be one of {', '.join(_VELOCITY_KINDS)}; got {got}")
    make = _VELOCITY_KINDS[kind]
    seeded = "seed" in inspect.signature(make).parameters
    if seeded and seed is not None:
        spec["seed"] = seed
    try:
        if count is None:
            return make(**spec)
        return [make(**({**spec, "seed": spec.get("seed", 0) + i} if seeded else spec)) for i in range(count)]
    except TypeError as exc:
        raise TypeError(f"velocity kind {kind!r}: {exc}") from exc
