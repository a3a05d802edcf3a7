"""Shared builders for the test suite."""

from unittest import mock

import numpy as np
import pytest

from evolflow import evolution
from evolflow.lp_space import GridError, LpSample, TimeGrid
from evolflow.vector_field import _along_axes, _lattice_weights


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_step_sample(rng, ncells=5, dim=2, p=1.0, a=0.0, b=1.0, scale=1.0):
    knots = np.sort(rng.uniform(a, b, size=ncells - 1))
    knots = np.unique(np.concatenate([[a], knots, [b]]))
    vals = scale * rng.normal(size=(knots.size - 1, dim))
    return LpSample(TimeGrid(knots), vals, p)


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


def stack_fields(fields):
    """Fields of one geometry as one field, their components side by side:
    the stacked density of a group path with one field per cell."""
    return fields[0].with_coeffs(np.concatenate([f.coeffs for f in fields], axis=-1))


def unstack(path):
    """The density of each time cell of a group path as a field of its own:
    the inverse of `stack_fields`."""
    cells = path.stacked.coeffs.reshape(path.stacked.shape + (path.grid.ncells, -1))
    return [path.stacked.with_coeffs(cells[..., i, :].copy()) for i in range(path.grid.ncells)]


def lattice_points(f, div: int) -> np.ndarray:
    """The points of ``f.on_lattice(div)``, built apart from it: grid
    coordinates i/div, i < div*n, on each axis of n nodes, in C order."""
    axes = [f.lo[ax] + f.h * np.arange(div * n) / div for ax, n in enumerate(f.shape)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def displaced(disp, points: np.ndarray) -> np.ndarray:
    """(id + disp)(points) for a displacement field and points of shape (N, d)."""
    return points + disp.eval(points)


# -- the lattice sups, formulated one lattice at a time ------------------------

def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (P, r, c) stack."""
    if mats.shape[-2:] == (1, 1):
        return np.abs(mats[..., 0, 0])
    if mats.shape[-2:] == (2, 2):
        # closed form via the eigenvalues of M^T M
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        q = a * a + b * b + c * c + d * d
        det = a * d - b * c
        disc = np.sqrt(np.maximum(q * q - 4.0 * det * det, 0.0))
        return np.sqrt(0.5 * (q + disc))
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def on_lattice(f, div: int, der: int | None = None) -> np.ndarray:
    """Values, or the derivative along axis ``der``, of f at the points of
    ``f.on_lattice(div)``, by one `_along_axes` product each."""
    table = f._table()[0][:, :f.ncomp]
    mats = [_lattice_weights(n, div, ax == der) for ax, n in enumerate(f.shape)]
    out = _along_axes(table.reshape(tuple(n + 4 for n in f.shape) + (-1,)), mats).reshape(-1, f.ncomp)
    return out if der is None else out / f.h


def lattice_sups(f, div: int, group: int) -> tuple[np.ndarray, np.ndarray]:
    """sup |F| and sup ||DF||_op per ``group`` components over the lattice:
    the value lattice and the stacked derivative lattices of each batch of
    ``max(1, 32 // group)`` groups, normed at every point, then maxed."""
    d, step = f.dimension, max(1, 32 // group) * group
    sup_f, sup_df = [], []
    for lo in range(0, f.ncomp, step):
        part = f if step >= f.ncomp else f.with_coeffs(f.coeffs[..., lo:lo + step])
        vals = on_lattice(part, div)
        jacs = np.stack([on_lattice(part, div, ax) for ax in range(d)], axis=-1)
        m = part.ncomp // group
        sup_f.append(np.linalg.norm(vals.reshape(-1, m, group), axis=2).max(axis=0))
        sup_df.append(spectral_norms(jacs.reshape(-1, m, group, d)).max(axis=0))
    return np.concatenate(sup_f), np.concatenate(sup_df)


# -- the RK4 oracle, formulated one eval call per stage ------------------------

def rk4_by_eval(gamma, xs: np.ndarray, steps: int) -> np.ndarray:
    """Knot values (steps+1, S, d) of classical RK4 from xs, freezing the
    velocity per its own time cells, with one ``eval`` of the cell's field
    per stage: what `rk4_points` computes from held patches."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    dt = 1.0 / steps
    cells = gamma.grid.cell_of((np.arange(steps) + 0.5) * dt)
    traj = np.empty((steps + 1,) + xs.shape)
    y = traj[0] = xs
    for j in range(steps):
        f = gamma.fields[cells[j]]
        k1 = f.eval(y)
        k2 = f.eval(y + 0.5 * dt * k1)
        k3 = f.eval(y + 0.5 * dt * k2)
        k4 = f.eval(y + dt * k3)
        y = traj[j + 1] = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return traj


# -- the march of every node ---------------------------------------------------

def marching_all_nodes():
    """A context in which `evolution` finds no node still, so `evolve` and
    `local_evolve` march every grid node and `residual` takes the defect at
    every node: the solver with no node skipped, what the skips must
    reproduce bit for bit."""
    return mock.patch.object(evolution, "_still", lambda fields, nodes: np.zeros(len(nodes), dtype=bool))


def result_bytes(res) -> bytes:
    """The bytes of an `EvolutionResult`'s path and diagnostics, so that a
    comparison also sees the sign of a zero, which ``array_equal`` does not."""
    diags = [[getattr(s, k) for k in ("iterations", "last_change", "contraction", "residual_bound",
                                      "resample_estimate", "time_error", "resolves")] for s in res.segments]
    arrays = [res.path.grid.knots, res.path.start.coeffs, res.path.stacked.coeffs, np.array(diags, dtype=float)]
    return np.int64(res.n).tobytes() + b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
