"""Finite representations of L^p([a,b], R^m) elements.

Elements are carried as step functions (value per cell) on arbitrary
strictly increasing time grids.  Step functions admit exact quadrature, exact
subdivision and exact common refinements, which keeps the downstream property
checks free of quadrature error.  Piecewise-linear curves are
`ac_path.ContinuousTrace`.

Step functions with values of any trailing shape are integrated one way,
at the knots (`step_cumulative`: the Picard march) or at any times
(`step_primitive`: group and AC paths, the window budgets), and measured one
way (`lp_norm`: the contraction budget and the group path distance).  The
knot values are summed row by row in cell order: the bits of a cumulative
sum, without its cost per element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridError",
    "DimensionMismatchError",
    "TimeGrid",
    "LpSample",
    "weak_integral",
    "step_cumulative",
    "step_primitive",
    "lp_norm",
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
        # written so that a NaN time compares outside
        outside = ~((times >= self.knots[0]) & (times <= self.knots[-1]))
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

    def split(self, counts) -> tuple["TimeGrid", np.ndarray]:
        """Cell i cut into counts[i] equal cells: the new grid and the cell
        of this grid that each new cell lies in."""
        cuts = [np.linspace(t0, t1, m + 1)[1:] for t0, t1, m in zip(self.knots[:-1], self.knots[1:], counts)]
        return TimeGrid(np.concatenate([self.knots[:1]] + cuts)), np.repeat(np.arange(self.ncells), counts)

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


def step_cumulative(widths, values, start=0.0) -> np.ndarray:
    """start + the integral of the step function with cell widths (M,) and
    values (M, ...) up to each knot: the steps widths * values go into rows
    1..M of the output, each row is added onto the next in order, then
    + start.  These are the bits of ``np.cumsum`` along axis 0 (row 1 is the
    first step, not 0 + step, so a -0.0 stays -0.0) without its cost per
    element."""
    values = np.asarray(values, dtype=float)
    out = np.zeros((values.shape[0] + 1,) + values.shape[1:])
    np.multiply(np.reshape(widths, (-1,) + (1,) * (values.ndim - 1)), values, out=out[1:])
    for j in range(1, values.shape[0]):
        np.add(out[j:j + 1], out[j + 1:j + 2], out=out[j + 1:j + 2])
    out += start
    return out


def step_primitive(grid: TimeGrid, values, times, start=0.0) -> np.ndarray:
    """start + the exact integral up to each time of the step function with
    cell values (M, ...): its cell's knot value plus the partial cell."""
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    i = grid.cell_of(times)
    partial = np.reshape(times - grid.knots[i], np.shape(i) + (1,) * (values.ndim - 1))
    return step_cumulative(grid.widths(), values, start)[i] + partial * values[i]


def lp_norm(widths, norms, p: float) -> float:
    """L^p norm of a step function from its cell norms; their max at p = inf."""
    if np.isinf(p):
        return float(np.max(norms))
    return float(np.sum(widths * norms**p) ** (1.0 / p))


def weak_integral(f: LpSample, t0: float, t1: float) -> np.ndarray:
    """Exact integral of the step function over [t0, t1]."""
    if t0 > t1:
        raise GridError("t0 must not exceed t1")
    at_t0, at_t1 = step_primitive(f.grid, f.values, [t0, t1])
    return at_t1 - at_t0
