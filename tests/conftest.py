"""Shared builders for the test suite."""

import numpy as np
import pytest

from evolflow.lp_space import GridError, LpSample, TimeGrid


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
