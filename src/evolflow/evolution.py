"""Evolution of time-dependent spline vector fields into group paths.

The central solver turns a piecewise-constant-in-time velocity curve into the
absolutely continuous path of diffeomorphisms it generates.  Inside the
contraction ball the path is the Banach fixed point of the integral operator

    T(gamma, x, zeta)(t) = x + integral_0^t gamma(s)(zeta(s)) ds,

solved at once for every node of the displacement grid that the velocity can
move; at the others it is a signed zero in every time cell, so they stay where
they are.  On a refined time grid the discrete T is the implicit midpoint
rule, a system lower triangular in time, so it is marched: T is iterated on
one block of cells at a time.  Each block starts from the end of the one
before, extrapolated with the polynomial through the previous block's midpoint
velocities that read the same velocity cell, as in the predictor of a
predictor-corrector method; only the start changes, not the fixed point.  The
velocities of each block's last iteration, read at the knots zeta of that
iteration, sum to T(zeta) and certify it: its distance to the fixed point is
at most L/(1-L) * max |T(zeta) - zeta|.  The midpoint rule is second order;
its error is declared from the second differences of the solved velocities,
and every solve splits its time only as finely as a time-error budget needs:
16 cells, doubled and solved again while over budget, never finer than 1/256
of the original time.  Velocities with a large contraction budget are split
into n rescaled segments, each solved locally and glued by right translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ac_path import ContinuousTrace
from .diff_group import GroupPath, d_rho, group_path_distance, star
from .lp_space import GridError, TimeGrid, lp_norm, step_cumulative, step_primitive
from .vector_field import _SplineField, _padded, _weights, load_manifest, resampling_estimate, save_manifest

__all__ = [
    "TimeVelocity",
    "PicardDiagnostics",
    "EvolutionResult",
    "apply_T",
    "contraction_bound",
    "window_budgets",
    "rk4_points",
    "local_evolve",
    "evolve",
    "flow_point",
    "residual",
    "continuity_probe",
]

DEFAULT_L_MAX = 0.5
#: finest time step of the budgeted split in the original time, so
#: FINEST_DT * n in the time of a window of n
FINEST_DT = 1.0 / 256.0
#: coarsest time step the budgeted split starts from, in window time
COARSEST_DT = 1.0 / 16.0
#: safety factor of the declared time error (`_time_error`).  On a linear
#: field the midpoint rule's local error is twice the second-difference term
#: (h^3 A^3 / 12 against h^3 A^3 / 24); over 327 random compact, periodic and
#: rotation-plateau windows of one to four velocity cells, the bare estimate
#: ran as low as 0.70 of the end error against a 1/1024 reference.
TIME_ERROR_SAFETY = 2.0
#: declared time error allowed per window: the largest multiple of 1e-7 that
#: keeps criterion 3's rotation windows and the benchmark's oracle windows
#: (seeds 1 and 4242) at 32 cells, as their declared errors at 16 cells are
#: 1.7e-6 and 9.9e-7 to 1.7e-6; with 16 cells the oracle error moved by
#: 2e-3 relative.
TIME_ERROR_BUDGET = 9e-7
SUBDIVISION_LIMIT = 1 << 16
#: refined time cells per block of the Picard march
MARCH_BLOCK = 4
#: consecutive iterations of a block whose change does not fall before Picard gives up
STAGNATION_ITERATIONS = 2
#: iterations of a block before Picard gives up
PICARD_MAX_ITER = 200
#: a continuity study's perturbed window skips each leading split whose base
#: time error exceeds `TIME_ERROR_BUDGET` by more than this factor.  On the
#: `continuity_torus` instances of seeds 1-30 and 4242 and the reference
#: config (2226 windows), a perturbed window's coarse time error was within
#: 3.7% of its base's, and at most 2.9% below it; a wrong skip costs no
#: accuracy, as it only splits a window finer than it needed.
LEAD_SPLIT_MARGIN = 1.05


@dataclass
class TimeVelocity:
    """Piecewise-constant-in-time curve of vector fields on [0,1]."""

    grid: TimeGrid
    fields: list
    p: float = 1.0

    def __post_init__(self):
        if self.grid.a != 0.0 or self.grid.b != 1.0:
            raise GridError("velocity curves live on [0,1]")
        if not self.p >= 1.0:
            raise ValueError(f"the exponent p must be at least 1, got {self.p}")
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

    def field_at(self, t: float) -> _SplineField:
        return self.fields[self.grid.cell_of(t)]

    def eval_cells(self, cells: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Velocities at pts (R, ..., d): row r by the field of cell cells[r],
        with at most `MARCH_BLOCK` rows per ``eval`` call to bound its memory.
        ``cells`` never decreases, as a refined grid's cell map."""
        out = np.empty_like(pts)
        for lo in range(0, len(cells), MARCH_BLOCK):
            # a few ints, compared in plain Python faster than a numpy call
            # costs; each run of one cell is a slice of rows, read with no copy
            block = cells[lo:lo + MARCH_BLOCK].tolist()
            a = 0
            for b in range(1, len(block) + 1):
                if b == len(block) or block[b] != block[a]:
                    rows = slice(lo + a, lo + b)
                    vals = self.fields[block[a]].eval(pts[rows].reshape(-1, self.dimension))
                    out[rows] = vals.reshape((-1,) + pts.shape[1:])
                    a = b
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
        return self.grid.split(np.maximum(1, np.ceil(self.grid.widths() / max_dt - 1e-12).astype(int)))

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
        fields = {f"cell{i:04d}": f for i, f in enumerate(self.fields)}
        return save_manifest(fields, directory, name, p=p, knots=self.grid.knots.tolist())

    @staticmethod
    def load(manifest_path: str | Path) -> "TimeVelocity":
        obj, fields = load_manifest(manifest_path)
        p = obj.get("p")
        if p is not None and type(p) not in (int, float):
            raise ValueError(f"{manifest_path}: p must be null or a number, got {p!r}")
        try:
            return TimeVelocity(TimeGrid(np.asarray(obj["knots"])), fields, np.inf if p is None else float(p))
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: {exc}") from exc


@dataclass
class PicardDiagnostics:
    """``iterations`` counts the block sweeps of the returned march, in whole
    grids rounded up; earlier marches of a window count only in ``resolves``."""

    iterations: int
    last_change: float
    contraction: float
    residual_bound: float
    resample_estimate: float = 0.0
    time_error: float = 0.0
    resolves: int = 0


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
    return step_cumulative(w, g, anchors), g


def apply_T(gamma: TimeVelocity, x, zeta: ContinuousTrace) -> ContinuousTrace:
    """One application of the integral operator T(gamma, x, .), on the
    common refinement of the two grids."""
    grid = gamma.grid.refine(zeta.grid)
    cells = gamma.grid.cell_of(grid.midpoints())
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals, _ = _T(gamma, cells, grid.widths(), x, 0.0, zeta.eval_many(grid.knots)[:, None])
    return ContinuousTrace(grid, vals[:, 0])


def contraction_bound(gamma: TimeVelocity) -> float:
    """The L^1 budget: sum of cell width times alpha of the cell field."""
    return lp_norm(gamma.grid.widths(), gamma.alpha_values(), 1.0)


def _check_L_max(L_max: float) -> None:
    if not (0.0 < L_max <= 1.0):
        raise ValueError(f"L_max must lie in (0, 1], got {L_max}")


def _check_budget(L: float, bound: float, remedy: str) -> None:
    """Raise unless L < bound, which a NaN budget also fails."""
    if not np.isfinite(L):
        raise ValueError(f"contraction bound {L} is not finite: the velocity field holds non-finite values")
    if not (L < bound):
        raise ValueError(f"contraction bound {L:.4g} >= {bound}; {remedy}")


# -- the Picard march ------------------------------------------------------

def _still(fields, nodes) -> np.ndarray:
    """The nodes (S,) that no field of ``fields``, all of one geometry, can
    move: each slot of their `eval` patch, at the floors `_locate` takes,
    holds a zero coefficient in every field or has B-spline weight exactly 0
    (the last slot of an axis on which the grid coordinate is an integer),
    so each field is a signed zero there."""
    proto = fields[0]
    nonzero = np.zeros(proto.shape, dtype=bool)
    for f in fields:
        nonzero |= f.coeffs.any(axis=-1)
    if nonzero.all():
        # every patch reads a grid coefficient with a weight above 0, so with none zero no node is still
        return np.zeros(len(nodes), dtype=bool)
    table = _padded(nonzero, proto.dimension, proto._MODE).reshape(-1, 1)
    ufl, frac = proto._locate(nodes)
    # the slots of nonzero weight, laid out as the patch: the leading axis varies slowest
    weighted = _weights(frac) != 0.0
    slots = weighted[:, 0]
    for ax in range(1, proto.dimension):
        slots = (slots[:, :, None] & weighted[:, ax, None, :]).reshape(len(slots), -1)
    return ~(proto._patch(ufl, table)[..., 0] & slots).any(axis=1)


def _predict(mids, w, cellmap, lo, hi, g):
    """Start of the block of cells [lo, hi) relative to its first knot.

    ``g`` holds the midpoint velocities of the cells just before ``lo``.
    Those at the end of it that read the same velocity cell as cell ``lo``
    (at least the last one) define a Lagrange polynomial in time; its values
    at the block's midpoints are summed with the cell widths.  So the start
    is exact for a velocity polynomial of degree below that count, and it is
    ``g[-1]`` held constant where the velocity jumps at ``lo``.
    """
    k = 0
    while k < len(g) and cellmap[lo - 1 - k] == cellmap[lo]:
        k += 1
    k = max(k, 1)
    x, y = mids[lo - k:lo], mids[lo:hi]
    weights = np.empty((hi - lo, k))
    for j in range(k):
        others = np.concatenate((x[:j], x[j + 1:]))
        weights[:, j] = np.prod((y[:, None] - others) / (x[j] - others), axis=1)
    # summed row by row in order, the bits of np.cumsum along axis 0
    out = w[lo:hi, None, None] * np.tensordot(weights, g[-k:], axes=1)
    for j in range(1, hi - lo):
        np.add(out[j - 1], out[j], out=out[j])
    return out


def _picard_march(gamma, grid, cellmap, nodes, tol, lead=None, record=None, live=slice(None)):
    """The discrete fixed point of `_T`, marched in time, and its certificate.

    The solve is in displacements: zeta holds the displacement of each of
    the grid ``nodes`` (S, d), starting at 0, and velocities are read at
    ``nodes`` plus zeta.  Each node is solved on its own, so ``nodes`` may
    be any of the grid nodes: `local_evolve` passes those a velocity can
    move.

    Each block of `MARCH_BLOCK` cells iterates `_T` on its own knots until
    the change falls below ``tol``, integrating from T(zeta) at its first
    knot.  The first block starts from the constant path; each later one
    adds the integrals of the previous block's velocities extrapolated in
    time (`_predict`).  The last iterate is not written back, so zeta holds
    the knots each block last read and g their velocities.  Returns T(zeta)
    over the whole grid, g, the cell evaluations in whole-grid sweeps
    (rounded up) and the certificate change max |T(zeta) - zeta|.

    ``record`` (ncells, N, d), if given, receives how far each block moved:
    the knots it last read minus its start.  ``lead``, if given, holds
    (weight, moves) pairs of such records of nearby solves on the same grid;
    each block's start is moved by the weighted sum of their moves, so with
    one record of weight 1 a block starts where that solve's block ended.
    The stop rule and the certificate do not change.  Records may hold more
    nodes than ``nodes``: ``live`` picks the columns of ``nodes`` in them.
    """
    w = grid.widths()
    mids = grid.midpoints()
    ncells = w.size
    zeta = np.empty((ncells + 1,) + nodes.shape)
    zeta[0] = 0.0
    g = np.empty((ncells,) + nodes.shape)
    start = np.zeros_like(nodes)
    evaluations = 0
    for lo in range(0, ncells, MARCH_BLOCK):
        hi = min(lo + MARCH_BLOCK, ncells)
        block = zeta[lo:hi + 1]
        guess = start if lo == 0 else start + _predict(mids, w, cellmap, lo, hi, g[lo - MARCH_BLOCK:lo])
        block[1:] = guess
        for weight, moves in lead or ():
            block[1:] += weight * moves[lo:hi, live]
        change = np.inf
        stalled = 0
        for it in range(1, PICARD_MAX_ITER + 1):
            new, g[lo:hi] = _T(gamma, cellmap[lo:hi], w[lo:hi], start, nodes, block)
            prev, change = change, float(np.max(np.abs(new[1:] - block[1:])))
            evaluations += hi - lo
            # a contraction shrinks the change every iteration until round-off stops it
            stalled = 0 if change < prev else stalled + 1
            if change < tol or stalled == STAGNATION_ITERATIONS:
                break
            block[1:] = new[1:]
        if not change < tol:
            why = (f"stagnated: the change has not fallen for {stalled} iterations"
                   if stalled == STAGNATION_ITERATIONS else f"did not reach tol in {PICARD_MAX_ITER} iterations")
            raise RuntimeError(
                f"Picard iteration {why}, at iteration {it} of the block of refined cells [{lo}, {hi}) "
                f"(t in [{grid.knots[lo]:.6g}, {grid.knots[hi]:.6g}]; last change {change:.3g}, tol={tol})"
            )
        if record is not None:
            record[lo:hi, live] = block[1:] - guess
        start = new[-1]
    new = step_cumulative(w, g)
    certificate = float(np.max(np.abs(new - zeta)))
    return new, g, -(-evaluations // ncells), certificate


def _time_error(g, w, cellmap, L):
    """Declared time error of a marched solve with midpoint velocities g.

    The midpoint rule misses the integral of a cell of width w_j by about
    (w_j/24) |g_{j-1} - 2 g_j + g_{j+1}|; the end cells of a run of cells
    that read one velocity cell take the second difference of their
    neighbour.  The sum over cells and runs, maximised over nodes, is the
    defect of the continuous T on the discrete path, which the Banach
    argument carries to the fixed point with the factor 1/(1-L); it is
    declared times `TIME_ERROR_SAFETY`.  A run of fewer than 3 cells has no
    second difference, so no time error is declared: the value is inf.
    """
    edges = np.flatnonzero(np.diff(cellmap)) + 1
    total = 0.0
    for lo, hi in zip(np.r_[0, edges], np.r_[edges, cellmap.size]):
        if hi - lo < 3:
            return np.inf
        d2 = np.max(np.abs(g[lo:hi - 2] - 2.0 * g[lo + 1:hi - 1] + g[lo + 2:hi]), axis=(1, 2))
        total += float(np.sum(w[lo:hi] / 24.0 * np.r_[d2[0], d2, d2[-1]]))
    return TIME_ERROR_SAFETY / (1.0 - L) * total


def _budgeted_march(gamma, nodes, L, tol, finest_dt, lead=None, record=None, live=slice(None)):
    """`_picard_march` of ``nodes[live]`` on cells of width
    ``max(COARSEST_DT, finest_dt)``, halved and marched again, down to
    ``finest_dt``, while the declared time error (`_time_error`) exceeds
    `TIME_ERROR_BUDGET`; at ``finest_dt`` it is reported whatever its value.
    Returns the grid, the velocity cell of each of its cells, and the knot
    values, velocities and diagnostics of the last march.

    ``record``, if given, maps the cell width of each march to how far each
    of its blocks moved from its start (`_picard_march`), or to None for a
    split above ``finest_dt`` whose declared time error exceeds
    `LEAD_SPLIT_MARGIN` times the budget.  ``lead``, if given, holds
    (weight, record) pairs of such records of nearby solves of the same
    window, the base's first: the base's leading None splits are skipped.
    A march on a width for which every record holds moves moves each
    block's start by the weighted sum of those moves; where only the base's
    holds moves, by the base's moves alone.  Records hold every one of
    ``nodes``; a node not marched moves by 0.
    """
    lead = lead or [(1.0, {})]
    base = lead[0][1]
    dt = max(COARSEST_DT, finest_dt)
    while dt > finest_dt and dt in base and base[dt] is None:
        dt = max(0.5 * dt, finest_dt)
    marched = nodes[live]
    resolves = 0
    while True:
        grid, cellmap = gamma.refined(dt)
        moves = None if record is None else np.zeros((grid.ncells,) + nodes.shape)
        terms = [(weight, window.get(dt)) for weight, window in lead]
        if any(m is None for _, m in terms):
            terms = None if base.get(dt) is None else [(1.0, base[dt])]
        zeta, g, iters, change = _picard_march(gamma, grid, cellmap, marched, tol, terms, moves, live)
        time_error = _time_error(g, grid.widths(), cellmap, L)
        if record is not None:
            # a led solve skips such a split, so its moves are not kept
            skipped = dt > finest_dt and time_error > LEAD_SPLIT_MARGIN * TIME_ERROR_BUDGET
            record[dt] = None if skipped else moves
        if time_error <= TIME_ERROR_BUDGET or dt <= finest_dt:
            break
        # release this march before the next one allocates its own
        del zeta, g
        dt = max(0.5 * dt, finest_dt)
        resolves += 1
    diag = PicardDiagnostics(iters, change, L, L / (1.0 - L) * change, time_error=time_error, resolves=resolves)
    return grid, cellmap, zeta, g, diag


# -- reference integrator --------------------------------------------------

def rk4_points(gamma: TimeVelocity | list[TimeVelocity], xs: np.ndarray, steps: int) -> np.ndarray:
    """Classical RK4 trajectories of the points xs (S, d), freezing the
    velocity per its own time cells: knot values of shape (steps+1, S, d).
    It is the oracle of the CLI's `evolve` and of the tests.

    ``gamma`` is a TimeVelocity, or a sequence of them with one field class,
    geometry, component count and time grid, stepped as one batch: the
    points go to them in equal consecutive runs, and each point reads its
    own velocity's coefficients from their tables laid one after another.

    A stage gathers the points' coefficient patches again only when a point
    has left the grid cell of the last gather in the same time cell; points
    move a small part of a cell per step, so most stages reuse the held
    patches.  The floors compare exactly, and a NaN floor never equals
    itself, so every stage reads the patches `eval` would gather: the
    trajectories are bit for bit those of stepping each velocity with
    `_SplineField.eval`.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    gammas = [gamma] if isinstance(gamma, TimeVelocity) else list(gamma)
    proto, grid = gammas[0].proto, gammas[0].grid
    for g in gammas[1:]:
        proto._check_geometry(g.proto)
        if g.proto.ncomp != proto.ncomp or not np.array_equal(g.grid.knots, grid.knots):
            raise ValueError("a batch of velocities shares its components and its time grid")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if len(xs) % len(gammas):
        raise ValueError(f"{len(xs)} points do not split evenly among {len(gammas)} velocities")
    # each point's first row in the tables of its time cell, laid one after another
    rows = np.repeat(np.arange(len(gammas)) * proto._table()[0].shape[0], len(xs) // len(gammas))
    dt = 1.0 / steps
    mids = (np.arange(steps) + 0.5) * dt
    cells = grid.cell_of(mids)
    traj = np.empty((steps + 1,) + xs.shape)
    y = xs.copy()
    traj[0] = y
    cell = held = None

    def velocity(pts):
        nonlocal held
        ufl, frac = proto._locate(pts)
        if held is None or (ufl != held[0]).any():
            held = ufl, proto._patch(ufl, table, rows)
        return proto._on_patch(frac, held[1])

    for j in range(steps):
        if cells[j] != cell:
            cell, held = cells[j], None
            table = np.concatenate([g.fields[cell]._table()[0] for g in gammas])
        k1 = velocity(y)
        k2 = velocity(y + 0.5 * dt * k1)
        k3 = velocity(y + 0.5 * dt * k2)
        k4 = velocity(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj[j + 1] = y
    return traj


# -- field-valued solver ---------------------------------------------------

def local_evolve(
    gamma: TimeVelocity,
    L_max: float = DEFAULT_L_MAX,
    tol: float = 1e-11,
    finest_dt: float = FINEST_DT,
    lead: dict | None = None,
    record: dict | None = None,
) -> EvolutionResult:
    """Evolution inside the contraction ball: one Picard solve for every
    node of the displacement grid simultaneously, on the coarsest split
    within the time-error budget no finer than ``finest_dt``; ``lead`` and
    ``record`` as in `_budgeted_march`, their moves indexed by all nodes.

    Only the nodes a velocity can move are marched.  A node is still when
    its `eval` patch is zero in every velocity cell (`_still`) and no
    ``lead`` record moves it.  There the velocity is a signed zero, so the
    displacement stays 0 and every block reads the velocity at the node
    itself: the still nodes' velocities are one ``eval`` per velocity cell
    at the nodes, the bits a march would give, and they add exactly 0 to
    every change, certificate and time error.  With no node still, or none
    live, every node is marched.
    """
    _check_L_max(L_max)
    L = contraction_bound(gamma)
    _check_budget(L, L_max, "use evolve(), with a larger forced_n or none")
    proto = gamma.proto
    nodes = proto.nodes()
    still = _still(gamma.fields, nodes)
    if still.any():
        for _, marches in lead or ():
            for m in marches.values():
                if m is not None:
                    still &= ~m.any(axis=(0, 2))
    if still.all():
        still[:] = False
    live = ~still if still.any() else slice(None)
    grid, cellmap, zeta, g, diag = _budgeted_march(gamma, nodes, L, tol, finest_dt, lead, record, live)
    # node values of all cells side by side on the component axis; the knot
    # values and velocities are released before the filter allocates
    values = np.empty(still.shape + g.shape[::2])
    values[live] = np.moveaxis(g, 0, 1)
    del zeta, g
    if still.any():
        at = np.flatnonzero(still)
        for c in np.unique(cellmap):
            values[at[:, None], np.flatnonzero(cellmap == c)] = gamma.fields[c].eval(nodes[at])[:, None]
    values = values.reshape(proto.shape + (-1,))
    path = GroupPath(grid, proto.with_values(values))
    diag.resample_estimate = resampling_estimate(values, proto.h)
    return EvolutionResult(path, 1, [diag], gamma)


def window_budgets(gamma: TimeVelocity, n: int) -> np.ndarray:
    """The budget of each window k of n: the integral of alpha(gamma(s))
    over [k/n, (k+1)/n], exact for the step curve of cell alphas."""
    return np.diff(step_primitive(gamma.grid, gamma.alpha_values(), np.arange(n + 1) / n))


def choose_subdivision(gamma: TimeVelocity, L_max: float = DEFAULT_L_MAX) -> int:
    """Smallest doubling count n with every segment budget below L_max."""
    _check_L_max(L_max)
    n = 1
    # np.max, unlike max(), propagates a NaN budget
    while not ((budget := float(np.max(window_budgets(gamma, n)))) < L_max):
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
    *,
    leads: dict | None = None,
    record: dict | None = None,
) -> EvolutionResult:
    """Global evolution: subdivide, solve each segment locally, glue by
    right translation.  A window of n spans 1/n of the original time, so its
    split is no finer than ``FINEST_DT * n`` in window time.

    Windows with the same mapped knots and the same source cells pose the
    same problem bit for bit, so each distinct window is solved once.  Each
    window k >= 1 is right-translated by the product A of the windows before
    it with one ``d_rho`` of its whole stacked density; the density of every
    window is scaled by n, and the windows are joined along the component
    axis.  The product is formed only between windows: window 0's end gives
    ``star(end, 0)``, and the end of each later window but the last rides
    with its density through that ``d_rho``, so the product is A plus its
    part, the bits of ``star(end, A)``.

    For `continuity_probe`, a dict passed as ``record`` receives the marches
    of each window (`_budgeted_march`, indexed by all nodes) keyed by (n,
    mapped knots, source cells).  ``leads`` holds (weight, record) pairs of
    such records, the base solve's first; a window whose key is in the
    base's record is solved from the entries of every record
    (`_budgeted_march`), an empty one where a record lacks the key.
    """
    n = forced_n if forced_n is not None else choose_subdivision(gamma, L_max)
    A = gamma.proto.zero_like()
    knots = [0.0]
    parts = []
    segments = []
    solved: dict[tuple, EvolutionResult] = {}
    for k in range(n):
        grid, cells = gamma.window(n, k)
        key = (n, grid.knots.tobytes(), tuple(cells))
        if key not in solved:
            marches = None if record is None else record.setdefault(key, {})
            lead = None if leads is None or key not in leads[0][1] else [(w, rec.get(key, {})) for w, rec in leads]
            solved[key] = local_evolve(gamma.subdivide(n, k), L_max, tol, FINEST_DT * n, lead, marches)
        seg = solved[key]
        segments.append(seg.segments[0])
        seg_knots = (seg.path.grid.knots + k) / n
        knots.extend(seg_knots[1:].tolist())
        density = seg.path.stacked
        if k == 0:
            parts.append(density.coeffs)
            if n > 1:
                A = star(seg.path.end(), A)
        elif k + 1 < n:
            # star(end, A) = A + d_rho(A, end): the end rides with the density
            # through one right translation, each column with the bits it gets alone
            both = d_rho(A, density.with_coeffs(np.concatenate([density.coeffs, seg.path.end().coeffs], axis=-1)))
            parts.append(both.coeffs[..., :density.ncomp])
            A = A.with_coeffs(A.coeffs + both.coeffs[..., density.ncomp:])
        else:
            parts.append(d_rho(A, density).coeffs)
    # scaled in place after the join: one copy of the whole density fewer
    coeffs = np.concatenate(parts, axis=-1)
    coeffs *= float(n)
    path = GroupPath(TimeGrid(np.asarray(knots)), gamma.proto.with_coeffs(coeffs))
    return EvolutionResult(path, n, segments, gamma)


def flow_point(result: EvolutionResult, t: float, x) -> np.ndarray:
    """(id + eta(t))(x)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    moved = pts + result.path.field_at(t).eval(pts)
    return moved[0] if np.ndim(x) == 1 else moved


def residual(gamma: TimeVelocity, path: GroupPath) -> float:
    """Sup over knots and grid nodes of the integral-equation defect
    |eta - T(gamma, 0, eta)|, in displacements.

    The knot values of eta are taken at the nodes: the node values of the
    path's start plus the exact integral (`step_primitive`) of the node
    values of its density, one ``on_lattice(1)`` of each field.

    A node still for the velocity and for the path (`_still` of gamma's
    cells, and of the path's start and density) is skipped: there the path
    is a signed zero at every knot, so T reads the velocity at the node
    itself, a signed zero too, and the defect is exactly 0.
    """
    grid = gamma.grid.refine(path.grid)
    nodes = path.stacked.nodes()
    live = ~(_still(gamma.fields, nodes) & _still([path.start, path.stacked], nodes))
    if not live.any():
        return 0.0
    density = path.stacked.on_lattice(1)[live]
    # (cells, nodes, d): integrated along the leading axis, so the knot values
    # come out (knots, nodes, d), contiguous, as the velocity evaluations read them
    density = np.moveaxis(density.reshape(len(density), path.grid.ncells, -1), 1, 0)
    knot_vals = step_primitive(path.grid, density, grid.knots, path.start.on_lattice(1)[live])
    # the density's node values are released before the velocity evaluations allocate
    del density
    cells = gamma.grid.cell_of(grid.midpoints())
    return float(np.max(np.abs(knot_vals - _T(gamma, cells, grid.widths(), 0.0, nodes[live], knot_vals)[0])))


def continuity_probe(
    gamma: TimeVelocity,
    delta: TimeVelocity,
    levels: int,
    **evolve_kwargs,
) -> list[tuple[float, float]]:
    """Distances of evolve(gamma + 2^-k delta) to evolve(gamma), k < levels.

    Each perturbed window that matches a base window in n, mapped knots and
    source cells is solved from records of how far the blocks of nearby
    solves moved (`_budgeted_march`), as functions of the scale s = 2^-k.
    The base (s = 0) and levels 0 and 1 record their moves, and each level
    is led by the records made before it, weighted by the Lagrange
    polynomials of their scales at s: level 0 by the base's, level 1 by
    their mean, and each later level by the quadratic through all three.
    """
    if levels < 2:
        raise ValueError("need at least two levels")
    record: dict = {}
    base = evolve(gamma, record=record, **evolve_kwargs)
    scales, records = [0.0], [record]
    pairs = []
    for k in range(levels):
        s = 2.0 ** (-k)
        weights = [
            math.prod(((s - b) / (a - b) for j, b in enumerate(scales) if j != i), start=1.0)
            for i, a in enumerate(scales)
        ]
        anchor = {} if len(records) < 3 else None
        pert = evolve(gamma + delta.scaled(s), leads=list(zip(weights, records)), record=anchor, **evolve_kwargs)
        if anchor is not None:
            scales.append(s)
            records.append(anchor)
        pairs.append((s, group_path_distance(pert.path, base.path, p=gamma.p)))
    return pairs
