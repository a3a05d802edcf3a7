"""Finite representations of L^p([a,b], R^m) elements.

Elements are carried as step functions (value per cell) on arbitrary
strictly increasing time grids.  Step functions admit exact quadrature, exact
subdivision and exact common refinements, which keeps the downstream property
checks free of quadrature error.  Piecewise-linear curves are
`ac_path.ContinuousTrace`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridError",
    "DimensionMismatchError",
    "TimeGrid",
    "LpSample",
    "Seminorm",
    "euclidean",
    "sup_norm",
    "weighted",
    "lp_seminorm",
    "ess_sup_seminorm",
    "weak_integral",
    "subdivide",
    "samples_equal",
]


class GridError(ValueError):
    """Malformed time grid or incompatible grid pair."""


class DimensionMismatchError(ValueError):
    """Value dimensions of two objects do not agree."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing knots a = s_0 < ... < s_M = b."""

    knots: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise GridError("grid needs at least two knots")
        if not np.all(np.diff(knots) > 0):
            raise GridError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)

    @property
    def a(self) -> float:
        return float(self.knots[0])

    @property
    def b(self) -> float:
        return float(self.knots[-1])

    @property
    def ncells(self) -> int:
        return self.knots.size - 1

    def widths(self) -> np.ndarray:
        return np.diff(self.knots)

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.knots[:-1] + self.knots[1:])

    def cell_of(self, t):
        """Index of the cell containing t (right-closed at b): an int for a
        scalar time, an index array for an array of times."""
        times = np.asarray(t, dtype=float)
        outside = (times < self.knots[0]) | (times > self.knots[-1])
        if np.any(outside):
            raise GridError(f"time {times[outside].flat[0]} outside [{self.a}, {self.b}]")
        i = np.clip(np.searchsorted(self.knots, times, side="right") - 1, 0, self.ncells - 1)
        return int(i) if i.ndim == 0 else i

    def refine(self, other: "TimeGrid") -> "TimeGrid":
        """Common refinement (union of knots); endpoints must agree."""
        if self.a != other.a or self.b != other.b:
            raise GridError("grids live on different intervals")
        return TimeGrid(np.union1d(self.knots, other.knots))

    def with_times(self, times) -> "TimeGrid":
        extra = np.asarray(times, dtype=float)
        if extra.size and (extra.min() < self.a or extra.max() > self.b):
            raise GridError("extra knots outside interval")
        return TimeGrid(np.union1d(self.knots, extra))

    def subdivided(self, n: int, k: int) -> "TimeGrid":
        """Knots of window k of n of [0,1], mapped affinely back to [0,1]:
        the preimages of this grid's knots inside [k/n, (k+1)/n]."""
        if self.a != 0.0 or self.b != 1.0:
            raise GridError("subdivision requires the domain [0,1]")
        if n < 1:
            raise ValueError("n must be positive")
        if not 0 <= k < n:
            raise ValueError(f"k={k} out of range for n={n}")
        lo, hi = k / n, (k + 1) / n
        inner = self.knots[(self.knots > lo) & (self.knots < hi)]
        return TimeGrid(np.union1d(inner * n - k, [0.0, 1.0]))

    @staticmethod
    def uniform(a: float, b: float, ncells: int) -> "TimeGrid":
        return TimeGrid(np.linspace(a, b, ncells + 1))


@dataclass(frozen=True)
class Seminorm:
    """Continuous seminorm on R^m, evaluated on batches of values.

    ``fn`` maps an (N, m) array to an (N,) array of nonnegative reals and must
    be absolutely homogeneous and subadditive.
    """

    tag: str
    fn: Callable[[np.ndarray], np.ndarray]
    dim: int | None = None

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if self.dim is not None and values.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"seminorm expects dimension {self.dim}, got {values.shape[1]}"
            )
        out = np.asarray(self.fn(values), dtype=float)
        return out


def euclidean(dim: int | None = None) -> Seminorm:
    return Seminorm("euclidean", lambda v: np.linalg.norm(v, axis=1), dim)


def sup_norm(dim: int | None = None) -> Seminorm:
    return Seminorm("sup", lambda v: np.max(np.abs(v), axis=1), dim)


def weighted(w) -> Seminorm:
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return Seminorm("weighted", lambda v: np.abs(v) @ w, w.size)


@dataclass(frozen=True)
class LpSample:
    """A representative of a class in L^p([a,b], R^m): one value per cell."""

    grid: TimeGrid
    values: np.ndarray
    p: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise DimensionMismatchError("values must be (cells, m)")
        if values.shape[0] != self.grid.ncells:
            raise DimensionMismatchError(
                f"expected one row per cell ({self.grid.ncells}), got {values.shape[0]}"
            )
        if not (self.p >= 1.0):
            raise ValueError("exponent p must be >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def eval(self, t: float) -> np.ndarray:
        return self.values[self.grid.cell_of(t)].copy()

    def eval_many(self, times) -> np.ndarray:
        return self.values[self.grid.cell_of(times)]

    def on_refinement(self, grid: TimeGrid) -> "LpSample":
        """Same function represented on a refining grid (exact)."""
        if not np.all(np.isin(self.grid.knots, grid.knots)):
            raise GridError("target grid does not refine the sample grid")
        return LpSample(grid, self.eval_many(grid.midpoints()), self.p)

    def _binary(self, other: "LpSample", op) -> "LpSample":
        if self.dim != other.dim:
            raise DimensionMismatchError("value dimensions differ")
        grid = self.grid.refine(other.grid)
        a = self.on_refinement(grid)
        b = other.on_refinement(grid)
        return LpSample(grid, op(a.values, b.values), self.p)

    def __add__(self, other: "LpSample") -> "LpSample":
        return self._binary(other, np.add)

    def __sub__(self, other: "LpSample") -> "LpSample":
        return self._binary(other, np.subtract)

    def scaled(self, s: float) -> "LpSample":
        return LpSample(self.grid, s * self.values, self.p)

    def to_json(self) -> dict:
        return {
            "a": self.grid.a,
            "b": self.grid.b,
            "p": None if np.isinf(self.p) else self.p,
            "knots": self.grid.knots.tolist(),
            "values": self.values.tolist(),
        }

    @staticmethod
    def from_json(obj: dict) -> "LpSample":
        p = np.inf if obj.get("p") is None else float(obj["p"])
        return LpSample(TimeGrid(np.asarray(obj["knots"])), np.asarray(obj["values"]), p)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @staticmethod
    def loads(s: str) -> "LpSample":
        return LpSample.from_json(json.loads(s))


def lp_seminorm(f: LpSample, q: Seminorm, p: float | None = None) -> float:
    """(integral of q(f)^p)^(1/p), exact for step functions.  p = inf falls
    back to the essential sup."""
    p = f.p if p is None else p
    if np.isinf(p):
        return ess_sup_seminorm(f, q)
    return float(np.sum(f.grid.widths() * q(f.values) ** p) ** (1.0 / p))


def ess_sup_seminorm(f: LpSample, q: Seminorm) -> float:
    """Essential sup of q(f): the max over cells."""
    return float(np.max(q(f.values)))


def weak_integral(f: LpSample, t0: float, t1: float) -> np.ndarray:
    """Exact integral of the step function over [t0, t1]."""
    if t0 > t1:
        raise GridError("t0 must not exceed t1")
    if t0 < f.grid.a or t1 > f.grid.b:
        raise GridError("integration limits outside the sample interval")
    lo = np.clip(f.grid.knots[:-1], t0, t1)
    hi = np.clip(f.grid.knots[1:], t0, t1)
    return (hi - lo) @ f.values


def subdivide(f: LpSample, n: int, k: int) -> LpSample:
    """The rescaled restriction t -> f((k+t)/n)/n on [0,1].

    Exact for step functions: see `TimeGrid.subdivided` for the knots.
    """
    grid = f.grid.subdivided(n, k)
    return LpSample(grid, f.eval_many((grid.midpoints() + k) / n) / n, f.p)


def samples_equal(f: LpSample, g: LpSample, tol: float = 0.0) -> bool:
    """Equality as L^p classes: agreement of common-refinement cell values."""
    if f.dim != g.dim:
        return False
    try:
        grid = f.grid.refine(g.grid)
    except GridError:
        return False
    a = f.on_refinement(grid)
    b = g.on_refinement(grid)
    return bool(np.max(np.abs(a.values - b.values)) <= tol)
