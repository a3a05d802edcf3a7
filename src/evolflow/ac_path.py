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
    Seminorm,
    TimeGrid,
    lp_seminorm,
    weak_integral,
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
    "ac_distance",
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

    @property
    def dim(self) -> int:
        return self.density.dim

    def __add__(self, other: "AcPath") -> "AcPath":
        return AcPath(self.start + other.start, self.density + other.density)

    def __sub__(self, other: "AcPath") -> "AcPath":
        return AcPath(self.start - other.start, self.density - other.density)

    def scaled(self, s: float) -> "AcPath":
        return AcPath(s * self.start, self.density.scaled(s))

    def to_json(self) -> dict:
        return {"start": self.start.tolist(), "density": self.density.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "AcPath":
        return AcPath(np.asarray(obj["start"]), LpSample.from_json(obj["density"]))

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

    def eval(self, t: float) -> np.ndarray:
        return self.eval_many([t])[0]

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

    @staticmethod
    def identity() -> "SmoothMap":
        return SmoothMap(
            lambda x: x.copy(),
            lambda x: np.broadcast_to(np.eye(x.shape[1]), (x.shape[0], x.shape[1], x.shape[1])).copy(),
        )

    @staticmethod
    def linear(A) -> "SmoothMap":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        return SmoothMap(
            lambda x: x @ A.T,
            lambda x: np.broadcast_to(A, (x.shape[0],) + A.shape).copy(),
        )


def ac_eval(path: AcPath, t: float) -> np.ndarray:
    """start + exact integral of the density up to t."""
    return path.start + weak_integral(path.density, path.a, t)


def ac_eval_many(path: AcPath, times) -> np.ndarray:
    return np.stack([ac_eval(path, float(t)) for t in np.asarray(times, dtype=float)])


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
    knots = path.density.grid.knots
    if subdivisions > 1:
        pieces = [
            np.linspace(knots[i], knots[i + 1], subdivisions + 1)[:-1]
            for i in range(knots.size - 1)
        ]
        knots = np.append(np.concatenate(pieces), knots[-1])
    grid = TimeGrid(knots)
    mids = grid.midpoints()
    pts = ac_eval_many(path, mids)
    if f.domain is not None and not np.all(f.domain(pts)):
        bad = mids[~np.asarray(f.domain(pts), dtype=bool)][0]
        raise ValueError(f"path leaves the domain of the map near t={bad}")
    jac = f.jac(pts)
    dens = np.einsum("nij,nj->ni", jac, path.density.eval_many(mids))
    start = f.fn(path.start[None])[0]
    return AcPath(start, LpSample(grid, dens, path.p))


def ac_distance(p1: AcPath, p2: AcPath, q: Seminorm) -> float:
    """q(start difference) + L^p seminorm of the density difference."""
    if p1.a != p2.a or p1.b != p2.b:
        raise GridError("paths live on different intervals")
    if p1.p != p2.p:
        raise ValueError("paths carry different exponents")
    return float(q((p1.start - p2.start)[None])[0]) + lp_seminorm(p1.density - p2.density, q)
