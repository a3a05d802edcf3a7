"""Absolutely continuous paths with L^p densities, valued in R^m.

A path is stored through its start point and its derivative class: eta(t) =
eta(a) + integral of the density from a to t.  All primitive operations
(evaluation, the start/density isomorphism, affine reparametrization) are
exact for step densities; superposition with a smooth map resamples the
density by midpoint evaluation of the derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lp_space import (
    GridError,
    DimensionMismatchError,
    LpSample,
    TimeGrid,
    step_primitive,
)

__all__ = [
    "AcPath",
    "ContinuousTrace",
    "SmoothMap",
    "ac_eval",
    "ac_eval_many",
    "ac_phi",
    "ac_phi_inv",
    "ac_embed",
    "ac_reparam",
    "ac_superpose",
]


@dataclass(frozen=True)
class AcPath:
    """Path eta(t) = start + integral_a^t density(s) ds."""

    start: np.ndarray
    density: LpSample

    def __post_init__(self):
        start = np.atleast_1d(np.asarray(self.start, dtype=float))
        if start.shape != (self.density.dim,):
            raise DimensionMismatchError("start and density dimensions differ")
        object.__setattr__(self, "start", start)

    @property
    def a(self) -> float:
        return self.density.grid.a

    @property
    def b(self) -> float:
        return self.density.grid.b

    @property
    def p(self) -> float:
        return self.density.p

    def __add__(self, other: "AcPath") -> "AcPath":
        return AcPath(self.start + other.start, self.density + other.density)

    @staticmethod
    def constant(x, grid: TimeGrid, p: float = 1.0) -> "AcPath":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        zeros = np.zeros((grid.ncells, x.size))
        return AcPath(x, LpSample(grid, zeros, p))


@dataclass(frozen=True)
class ContinuousTrace:
    """Sampled continuous curve, interpreted piecewise-linearly."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != self.grid.knots.size:
            raise DimensionMismatchError("one value per knot required")
        if not np.all(np.isfinite(values)):
            raise ValueError("trace values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def eval_many(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        cols = [np.interp(times, self.grid.knots, self.values[:, j]) for j in range(self.dim)]
        return np.stack(cols, axis=1)

    def sup_distance(self, other: "ContinuousTrace") -> float:
        """Sup distance of two piecewise-linear traces (attained at a knot
        of the common refinement)."""
        grid = self.grid.refine(other.grid)
        d = self.eval_many(grid.knots) - other.eval_many(grid.knots)
        return float(np.max(np.linalg.norm(d, axis=1)))


@dataclass(frozen=True)
class SmoothMap:
    """Map R^m -> R^l with an evaluable first derivative.

    ``fn`` maps (N, m) -> (N, l); ``jac`` maps (N, m) -> (N, l, m).
    ``domain`` optionally flags admissible inputs ((N, m) -> (N,) bools).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], np.ndarray] | None = None


def ac_eval(path: AcPath, t: float) -> np.ndarray:
    """start + exact integral of the density up to t."""
    return ac_eval_many(path, [t])[0]


def ac_eval_many(path: AcPath, times) -> np.ndarray:
    """start + exact integral of the density up to each time, (times, m)."""
    return path.start + step_primitive(path.density.grid, path.density.values, times)


def ac_phi(path: AcPath) -> tuple[np.ndarray, LpSample]:
    """The (start, density) isomorphism."""
    return path.start.copy(), path.density


def ac_phi_inv(start, density: LpSample) -> AcPath:
    return AcPath(start, density)


def ac_embed(path: AcPath, sample_knots: TimeGrid) -> tuple[ContinuousTrace, LpSample]:
    """Embed into C([a,b]) x L^p via (trace sampled at the knots, density).

    The knots must refine the density grid, so that re-integrating the density
    from trace(a) reproduces the trace exactly.
    """
    if not np.all(np.isin(path.density.grid.knots, sample_knots.knots)):
        raise GridError("sample knots must refine the density grid")
    trace = ContinuousTrace(sample_knots, ac_eval_many(path, sample_knots.knots))
    return trace, path.density


def ac_reparam(path: AcPath, c: float, d: float) -> AcPath:
    """Precompose with the affine map [c,d] -> [a,b]."""
    if c >= d:
        raise GridError("need c < d")
    a, b = path.a, path.b
    scale = (b - a) / (d - c)
    knots = c + (path.density.grid.knots - a) / scale
    knots[0], knots[-1] = c, d
    density = LpSample(TimeGrid(knots), path.density.values * scale, path.p)
    return AcPath(path.start, density)


def ac_superpose(f: SmoothMap, path: AcPath, subdivisions: int = 1) -> AcPath:
    """Push the path forward through f via the chain rule.

    The new density is df(eta(t_mid)) . eta'(t_mid) per cell of the density
    grid, optionally uniformly subdivided; the start is f(eta(a)).
    """
    grid = path.density.grid.split([subdivisions] * path.density.grid.ncells)[0]
    mids = grid.midpoints()
    pts = ac_eval_many(path, mids)
    if f.domain is not None and not np.all(f.domain(pts)):
        bad = mids[~np.asarray(f.domain(pts), dtype=bool)][0]
        raise ValueError(f"path leaves the domain of the map near t={bad}")
    jac = f.jac(pts)
    dens = np.einsum("nij,nj->ni", jac, path.density.eval_many(mids))
    start = f.fn(path.start[None])[0]
    return AcPath(start, LpSample(grid, dens, path.p))
