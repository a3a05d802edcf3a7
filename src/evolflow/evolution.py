"""Evolution of time-dependent spline vector fields into group paths.

The central solver turns a piecewise-constant-in-time velocity curve into the
absolutely continuous path of diffeomorphisms it generates.  Inside the
contraction ball the path is the Banach fixed point of the integral operator

    T(gamma, x, zeta)(t) = x + integral_0^t gamma(s)(zeta(s)) ds,

iterated simultaneously for every node of the displacement grid.  Velocities
with a large contraction budget are split into n rescaled segments, each
solved locally and glued by right translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ac_path import AcPath, ContinuousTrace
from .diff_group import GroupPath, d_rho, group_path_distance, identity_like, star
from .lp_space import GridError, LpSample, TimeGrid
from .vector_field import (
    _SplineField, load_manifest, resampling_estimate, save_manifest, stack_fields, unstack_field,
)
from ._parallel import ordered_thread_map

__all__ = [
    "TimeVelocity",
    "PicardDiagnostics",
    "EvolutionResult",
    "apply_along",
    "apply_T",
    "contraction_bound",
    "contraction_bounds",
    "picard_point",
    "picard_points",
    "rk4_points",
    "local_evolve",
    "evolve",
    "flow_point",
    "residual",
    "continuity_probe",
]

DEFAULT_L_MAX = 0.5
DEFAULT_MAX_DT = 1.0 / 256.0
SUBDIVISION_LIMIT = 1 << 16
#: consecutive sweeps whose change does not fall before Picard gives up
STAGNATION_SWEEPS = 2


@dataclass
class TimeVelocity:
    """Piecewise-constant-in-time curve of vector fields on [0,1]."""

    grid: TimeGrid
    fields: list
    p: float = 1.0

    def __post_init__(self):
        if self.grid.a != 0.0 or self.grid.b != 1.0:
            raise GridError("velocity curves live on [0,1]")
        if len(self.fields) != self.grid.ncells:
            raise ValueError("one field per time cell required")
        for f in self.fields[1:]:
            self.fields[0]._check_geometry(f)

    @property
    def proto(self) -> _SplineField:
        return self.fields[0]

    @property
    def dimension(self) -> int:
        return self.proto.dimension

    def alpha_values(self) -> np.ndarray:
        return np.array([f.alpha() for f in self.fields])

    def alpha_sample(self) -> LpSample:
        return LpSample(self.grid, self.alpha_values()[:, None], self.p)

    def field_at(self, t: float) -> _SplineField:
        return self.fields[self.grid.cell_of(t)]

    def eval_cells(self, cells: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Velocities at pts (R, ..., d): row r by the field of cell cells[r]."""
        out = np.empty_like(pts)
        for ci in np.unique(cells):
            rows = np.flatnonzero(cells == ci)
            vals = self.fields[ci].eval(pts[rows].reshape(-1, self.dimension))
            out[rows] = vals.reshape((rows.size,) + pts.shape[1:])
        return out

    def window(self, n: int, k: int) -> tuple[TimeGrid, list[int]]:
        """Knots of window k of n mapped onto [0,1], and the cell of this
        curve that each of their cells reads."""
        grid = self.grid.subdivided(n, k)
        return grid, self.grid.cell_of((grid.midpoints() + k) / n).tolist()

    def subdivide(self, n: int, k: int) -> "TimeVelocity":
        """The rescaled restriction gamma_{n,k}(t) = gamma((k+t)/n)/n."""
        grid, cells = self.window(n, k)
        scaled = {ci: self.fields[ci].scaled(1.0 / n) for ci in dict.fromkeys(cells)}
        return TimeVelocity(grid, [scaled[ci] for ci in cells], self.p)

    def refined(self, max_dt: float) -> tuple[TimeGrid, np.ndarray]:
        """Uniformly split cells to width <= max_dt; returns grid + cell map."""
        knots = [self.grid.knots[0]]
        cellmap = []
        for i in range(self.grid.ncells):
            t0, t1 = self.grid.knots[i], self.grid.knots[i + 1]
            m = max(1, int(np.ceil((t1 - t0) / max_dt - 1e-12)))
            knots.extend(np.linspace(t0, t1, m + 1)[1:])
            cellmap.extend([i] * m)
        return TimeGrid(np.array(knots)), np.array(cellmap)

    def __add__(self, other: "TimeVelocity") -> "TimeVelocity":
        grid = self.grid.refine(other.grid)
        fields = [
            self.field_at(m) + other.field_at(m) for m in grid.midpoints()
        ]
        return TimeVelocity(grid, fields, self.p)

    def scaled(self, s: float) -> "TimeVelocity":
        return TimeVelocity(self.grid, [f.scaled(s) for f in self.fields], self.p)

    # -- manifest ----------------------------------------------------------
    def save(self, directory: str | Path, name: str = "velocity") -> Path:
        p = None if np.isinf(self.p) else self.p
        return save_manifest(self.fields, directory, name, p=p, knots=self.grid.knots.tolist())

    @staticmethod
    def load(manifest_path: str | Path) -> "TimeVelocity":
        obj, fields = load_manifest(manifest_path)
        p = np.inf if obj.get("p") is None else float(obj["p"])
        return TimeVelocity(TimeGrid(np.asarray(obj["knots"])), fields, p)


@dataclass
class PicardDiagnostics:
    iterations: int
    last_change: float
    contraction: float
    residual_bound: float
    resample_estimate: float = 0.0


@dataclass
class EvolutionResult:
    """Solved group path plus per-segment solver diagnostics.

    ``residual`` is the integral-equation defect of the path against the
    velocity ``gamma``; it is computed on first read and then kept.
    """

    path: GroupPath
    n: int
    segments: list
    gamma: TimeVelocity = field(repr=False)
    _residual: float | None = field(default=None, init=False, repr=False)

    @property
    def residual(self) -> float:
        if self._residual is None:
            self._residual = residual(self.gamma, self.path)
        return self._residual


# -- the integral operator -------------------------------------------------

def _T(gamma: TimeVelocity, cells, w, anchors, offsets, zeta):
    """Knot values of T(gamma, anchors, zeta) on a grid of cell widths w.

    ``zeta`` (K, S, d) holds knot values; cell i reads the field of gamma's
    cell ``cells[i]`` at the midpoint of zeta plus ``offsets``.  Returns the
    new knot values and those midpoint velocities (K-1, S, d).
    """
    g = gamma.eval_cells(cells, 0.5 * (zeta[:-1] + zeta[1:]) + offsets)
    new = np.empty_like(zeta)
    new[0] = anchors
    np.cumsum(w[:, None, None] * g, axis=0, out=new[1:])
    new[1:] += anchors
    return new, g


def _apply_T_trace(gamma: TimeVelocity, x: np.ndarray, zeta: ContinuousTrace):
    """T(gamma, x, zeta) on the common refinement of the two grids:
    (grid, knot values, midpoint velocities)."""
    grid = gamma.grid.refine(zeta.grid)
    cells = gamma.grid.cell_of(grid.midpoints())
    vals, g = _T(gamma, cells, grid.widths(), x, 0.0, zeta.eval_many(grid.knots)[:, None])
    return grid, vals[:, 0], g[:, 0]


def apply_along(gamma: TimeVelocity, zeta: ContinuousTrace) -> LpSample:
    """The step sample t -> gamma(t)(zeta(t)), midpoint-sampled per cell of
    the common refinement of the two grids."""
    grid, _, g = _apply_T_trace(gamma, np.zeros(zeta.dim), zeta)
    return LpSample(grid, g, gamma.p)


def apply_T(gamma: TimeVelocity, x, zeta: ContinuousTrace) -> ContinuousTrace:
    """One application of the integral operator T(gamma, x, .)."""
    grid, vals, _ = _apply_T_trace(gamma, np.atleast_1d(np.asarray(x, dtype=float)), zeta)
    return ContinuousTrace(grid, vals)


def contraction_bound(gamma: TimeVelocity) -> float:
    """The L^1 budget: sum of cell width times alpha of the cell field."""
    return float(np.sum(gamma.grid.widths() * gamma.alpha_values()))


def _check_budget(L: float, bound: float, remedy: str) -> None:
    """Raise unless L < bound, which a NaN budget also fails."""
    if not np.isfinite(L):
        raise ValueError(f"contraction bound {L} is not finite: the velocity field holds non-finite values")
    if not (L < bound):
        raise ValueError(f"contraction bound {L:.4g} >= {bound}; {remedy}")


def contraction_bounds(gamma: TimeVelocity) -> dict:
    from .lp_space import lp_seminorm, euclidean

    sample = gamma.alpha_sample()
    q = euclidean()
    return {
        "l1": lp_seminorm(sample, q, p=1.0),
        "lp": lp_seminorm(sample, q, p=gamma.p),
    }


# -- point solver ----------------------------------------------------------

def _picard_sweep(gamma, grid, cellmap, anchors, offsets, tol, max_iter):
    """Shared fixed-point loop: iterates `_T` from the constant path.

    ``anchors`` (S, d) are the integration starting values; ``offsets``
    are added before field evaluation (0.0 for point trajectories, the grid
    nodes (S, d) for field-valued sweeps working in displacements).
    """
    w = grid.widths()
    zeta = np.broadcast_to(anchors, (grid.knots.size,) + anchors.shape).copy()
    change = np.inf
    stalled = 0
    for it in range(1, max_iter + 1):
        new, g = _T(gamma, cellmap, w, anchors, offsets, zeta)
        prev, change = change, float(np.max(np.abs(new - zeta)))
        zeta = new
        if change < tol:
            return zeta, g, it, change
        # a contraction shrinks the change every sweep until round-off stops it
        stalled = 0 if change < prev else stalled + 1
        if stalled == STAGNATION_SWEEPS:
            raise RuntimeError(
                f"Picard iteration stagnated at sweep {it}: the change has not fallen for "
                f"{stalled} sweeps (last change {change:.3g}, tol={tol})"
            )
    raise RuntimeError(
        f"Picard iteration did not reach tol={tol} in {max_iter} sweeps "
        f"(last change {change:.3g})"
    )


def picard_points(
    gamma: TimeVelocity,
    xs: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 200,
    max_dt: float = DEFAULT_MAX_DT,
):
    """Batched fixed-point trajectories for several start points.

    Returns (grid, knot values (T+1, S, d), densities (T, S, d), diag).
    """
    L = contraction_bound(gamma)
    _check_budget(L, 1.0, "subdivide first")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    grid, cellmap = gamma.refined(max_dt)
    zeta, g, iters, change = _picard_sweep(gamma, grid, cellmap, xs, 0.0, tol, max_iter)
    bound = tol / (1.0 - L)
    diag = PicardDiagnostics(iters, change, L, bound)
    return grid, zeta, g, diag


def picard_point(
    gamma: TimeVelocity,
    x,
    tol: float = 1e-12,
    max_iter: int = 200,
    max_dt: float = DEFAULT_MAX_DT,
) -> tuple[AcPath, PicardDiagnostics]:
    """Trajectory of a single point as an absolutely continuous path."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    grid, zeta, g, diag = picard_points(gamma, x[None], tol, max_iter, max_dt)
    traj = AcPath(x, LpSample(grid, g[:, 0, :], gamma.p))
    return traj, diag


# -- reference integrator --------------------------------------------------

def rk4_points(gamma: TimeVelocity, xs: np.ndarray, steps: int) -> np.ndarray:
    """Classical RK4 trajectories, freezing gamma per its own time cells.

    Returns knot values of shape (steps+1, S, d).  Test oracle only.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    dt = 1.0 / steps
    mids = (np.arange(steps) + 0.5) * dt
    cells = gamma.grid.cell_of(mids)
    traj = np.empty((steps + 1,) + xs.shape)
    y = xs.copy()
    traj[0] = y
    for j in range(steps):
        F = gamma.fields[cells[j]]
        k1 = F.eval(y)
        k2 = F.eval(y + 0.5 * dt * k1)
        k3 = F.eval(y + 0.5 * dt * k2)
        k4 = F.eval(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[j + 1] = y
    return traj


# -- field-valued solver ---------------------------------------------------

def local_evolve(
    gamma: TimeVelocity,
    L_max: float = DEFAULT_L_MAX,
    tol: float = 1e-11,
    max_iter: int = 200,
    max_dt: float = DEFAULT_MAX_DT,
) -> EvolutionResult:
    """Evolution inside the contraction ball: one Picard solve for every
    node of the displacement grid simultaneously."""
    L = contraction_bound(gamma)
    _check_budget(L, L_max, "use evolve()")
    proto = gamma.proto
    nodes = proto.nodes()
    grid, cellmap = gamma.refined(max_dt)
    anchors = np.zeros_like(nodes)
    if all(not np.any(f.coeffs) for f in gamma.fields):
        path = GroupPath.neutral(proto, grid)
        diag = PicardDiagnostics(0, 0.0, 0.0, 0.0)
        return EvolutionResult(path, 1, [diag], gamma)
    psi, g, iters, change = _picard_sweep(gamma, grid, cellmap, anchors, nodes, tol, max_iter)
    shape = proto.shape + (proto.ncomp,)
    density = [proto.with_values(g[c].reshape(shape)) for c in range(grid.ncells)]
    path = GroupPath(grid, density)
    res_est = max(resampling_estimate(g[c].reshape(shape), proto.h) for c in range(grid.ncells))
    diag = PicardDiagnostics(iters, change, L, tol / (1.0 - L), res_est)
    return EvolutionResult(path, 1, [diag], gamma)


def _window_budget_max(gamma: TimeVelocity, n: int) -> float:
    """max_k integral over [k/n,(k+1)/n] of alpha(gamma(s)) ds, exact."""
    knots = gamma.grid.knots
    alphas = gamma.alpha_values()
    budgets = []
    for k in range(n):
        lo_c = np.clip(knots[:-1], k / n, (k + 1) / n)
        hi_c = np.clip(knots[1:], k / n, (k + 1) / n)
        budgets.append(np.sum((hi_c - lo_c) * alphas))
    return float(np.max(budgets))  # NaN propagates, unlike max()


def choose_subdivision(gamma: TimeVelocity, L_max: float = DEFAULT_L_MAX) -> int:
    """Smallest doubling count n with every segment budget below L_max."""
    if not (0.0 < L_max <= 1.0):
        raise ValueError(f"L_max must lie in (0, 1], got {L_max}")
    n = 1
    while not ((budget := _window_budget_max(gamma, n)) < L_max):
        if not np.isfinite(budget):
            raise ValueError(f"window budget {budget} is not finite: the velocity field holds non-finite values")
        n *= 2
        if n > SUBDIVISION_LIMIT:
            raise RuntimeError("subdivision refinement limit exceeded")
    return n


def evolve(
    gamma: TimeVelocity,
    L_max: float = DEFAULT_L_MAX,
    forced_n: int | None = None,
    tol: float = 1e-11,
    max_iter: int = 200,
    max_dt: float = DEFAULT_MAX_DT,
) -> EvolutionResult:
    """Global evolution: subdivide, solve each segment locally, glue by
    right translation.

    Windows with the same mapped knots and the same source cells pose the
    same problem bit for bit, so each distinct window is solved once.  The
    density cells of a window are right-translated together, as one field
    with their components side by side.
    """
    n = forced_n if forced_n is not None else choose_subdivision(gamma, L_max)
    if n == 1:
        return local_evolve(gamma, L_max, tol, max_iter, max_dt)
    A = identity_like(gamma.proto)
    knots = [0.0]
    density: list[_SplineField] = []
    segments = []
    solved: dict[tuple, EvolutionResult] = {}
    for k in range(n):
        grid, cells = gamma.window(n, k)
        key = (grid.knots.tobytes(), tuple(cells))
        if key not in solved:
            solved[key] = local_evolve(gamma.subdivide(n, k), L_max, tol, max_iter, max_dt * n)
        seg = solved[key]
        segments.append(seg.segments[0])
        seg_knots = (seg.path.grid.knots + k) / n
        knots.extend(seg_knots[1:].tolist())
        cells_k = seg.path.density
        if k > 0:
            cells_k = unstack_field(d_rho(A, stack_fields(cells_k)), gamma.dimension)
        density.extend(D.scaled(float(n)) for D in cells_k)
        A = star(seg.path.end(), A)
    path = GroupPath(TimeGrid(np.asarray(knots)), density)
    return EvolutionResult(path, n, segments, gamma)


def flow_point(result: EvolutionResult, t: float, x) -> np.ndarray:
    """(id + eta(t))(x)."""
    x = np.asarray(x, dtype=float)
    elem = result.path.element_at(t)
    if x.ndim == 1:
        return elem.apply(x[None])[0]
    return elem.apply(x)


def residual(gamma: TimeVelocity, path: GroupPath) -> float:
    """Sup over knots and grid nodes of the integral-equation defect
    |eta - T(gamma, 0, eta)|, in displacements."""
    grid = gamma.grid.refine(path.grid)
    nodes = path.density[0].nodes()
    P, d = nodes.shape
    # node values of every density cell in one sweep, via a stacked field
    dens_vals = stack_fields(path.density).eval(nodes).reshape(P, path.grid.ncells, d)
    start_vals = path.start.eval(nodes)
    steps = dens_vals * path.grid.widths()[None, :, None]
    path_knot_vals = np.concatenate(
        [start_vals[:, None, :], start_vals[:, None, :] + np.cumsum(steps, axis=1)], axis=1
    )  # (P, path knots, d)
    path_cells = path.grid.cell_of(grid.knots)
    partials = grid.knots - path.grid.knots[path_cells]
    knot_vals = np.empty((grid.knots.size, P, d))
    for i, (ci, partial) in enumerate(zip(path_cells, partials)):
        knot_vals[i] = path_knot_vals[:, ci, :] + partial * dens_vals[:, ci, :]
    cells = gamma.grid.cell_of(grid.midpoints())
    return float(np.max(np.abs(knot_vals - _T(gamma, cells, grid.widths(), 0.0, nodes, knot_vals)[0])))


def continuity_probe(
    gamma: TimeVelocity,
    delta: TimeVelocity,
    levels: int,
    threads: int = 1,
    **evolve_kwargs,
) -> list[tuple[float, float]]:
    """Distances of evolve(gamma + 2^-k delta) to evolve(gamma), k < levels."""
    if levels < 2:
        raise ValueError("need at least two levels")
    base = evolve(gamma, **evolve_kwargs)

    def one(k: int) -> tuple[float, float]:
        scale = 2.0 ** (-k)
        pert = evolve(gamma + delta.scaled(scale), **evolve_kwargs)
        return scale, group_path_distance(pert.path, base.path, p=gamma.p)

    return ordered_thread_map(one, range(levels), threads)
