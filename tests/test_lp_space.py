"""Step-function L^p calculus: the primitive and the norm, weak integrals,
and subdivision of a velocity curve's step function of cell budgets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evolflow.ac_path import AcPath, ac_eval, ac_eval_many
from evolflow.evolution import TimeVelocity, contraction_bound, window_budgets
from evolflow.lp_space import (
    DimensionMismatchError,
    GridError,
    LpSample,
    TimeGrid,
    lp_norm,
    step_cumulative,
    step_primitive,
    weak_integral,
)
from evolflow.vector_field import CompactField
from conftest import random_step_sample, samples_equal

#: a 1-d field whose alpha scales to any budget
BUMP = CompactField(np.zeros(1), 0.25, np.array([[0.0], [0.0], [1.0], [0.0], [0.0]]))


def cell_norms(values) -> np.ndarray:
    """The Euclidean norm of each cell value (cells, m)."""
    return np.linalg.norm(values, axis=1)


def norm_of(f: LpSample, p=None) -> float:
    """lp_norm of f's cell norms, at f's own exponent unless p is given."""
    return lp_norm(f.grid.widths(), cell_norms(f.values), f.p if p is None else p)


def budget_curve(f: LpSample) -> TimeVelocity:
    """A velocity curve on f's grid whose cell field has alpha |f| per cell."""
    return TimeVelocity(f.grid, [BUMP.scaled(a / BUMP.alpha()) for a in cell_norms(f.values)], f.p)


def const_sample(c, p=1.0, ncells=1):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    grid = TimeGrid.uniform(0.0, 1.0, ncells)
    return LpSample(grid, np.tile(c, (ncells, 1)), p)


def step_sample(v, w, p=1.0):
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    return LpSample(grid, np.stack([np.atleast_1d(v), np.atleast_1d(w)]).astype(float), p)


# -- grids -------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(GridError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(GridError):
        TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    g = TimeGrid.uniform(0.0, 1.0, 4)
    assert g.ncells == 4
    assert g.cell_of(0.0) == 0
    assert g.cell_of(1.0) == 3
    assert g.cell_of(0.25) == 1  # right-open cells
    with pytest.raises(GridError):
        g.cell_of(1.5)
    # an array of times: a, b, interior knots and midpoints, as the scalar calls
    times = np.concatenate([g.knots, g.midpoints()])
    cells = g.cell_of(times)
    assert cells.shape == times.shape
    assert cells.tolist() == [g.cell_of(t) for t in times] == [0, 1, 2, 3, 3, 0, 1, 2, 3]
    for bad in ([0.5, -0.1], [1.0 + 1e-12, 0.5]):
        with pytest.raises(GridError):
            g.cell_of(np.array(bad))


def test_a_nan_time_lies_in_no_cell():
    # NaN fails every comparison, so it must not pass as inside the grid
    g = TimeGrid.uniform(0.0, 1.0, 4)
    f = LpSample(g, np.arange(8.0).reshape(4, 2), 1.0)
    calls = [
        lambda: g.cell_of(np.nan),
        lambda: g.cell_of(np.array([0.5, np.nan, 1.0])),
        lambda: ac_eval(AcPath(np.zeros(2), f), np.nan),
        lambda: ac_eval_many(AcPath(np.zeros(2), f), [0.0, np.nan]),
        lambda: weak_integral(f, 0.0, np.nan),
        lambda: weak_integral(f, np.nan, 0.5),
    ]
    for call in calls:
        with pytest.raises(GridError, match=r"time nan outside \[0.0, 1.0\]"):
            call()


def test_grid_refine_is_union():
    g1 = TimeGrid(np.array([0.0, 0.3, 1.0]))
    g2 = TimeGrid(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(g1.refine(g2).knots, [0.0, 0.3, 0.5, 1.0])
    with pytest.raises(GridError):
        g1.refine(TimeGrid(np.array([0.0, 2.0])))


def test_grid_split_cuts_each_cell_evenly():
    g = TimeGrid(np.array([0.0, 0.3, 0.5, 1.0]))
    split, cells = g.split([1, 3, 2])
    assert np.allclose(split.knots, [0.0, 0.3, 0.3 + 0.2 / 3, 0.3 + 0.4 / 3, 0.5, 0.75, 1.0], rtol=0, atol=1e-15)
    # the old knots are kept bit for bit, and each new cell names its source
    assert np.array_equal(split.knots[[0, 1, 4, 6]], g.knots)
    assert cells.tolist() == [0, 1, 1, 1, 2, 2] and cells.dtype == np.int64
    assert np.array_equal(g.cell_of(split.midpoints()), cells)


# -- lp_norm -----------------------------------------------------------------

def test_seminorm_constant_is_pointwise_norm():
    c = np.array([3.0, -4.0])
    assert norm_of(const_sample(c, p=2.0)) == pytest.approx(5.0, abs=1e-15)


def test_seminorm_step_exact_quadrature():
    v, w = np.array([1.0, 0.0]), np.array([0.0, -2.0])
    f = step_sample(v, w, p=1.0)
    assert norm_of(f) == pytest.approx(0.5 * (1.0 + 2.0), abs=1e-15)


# -- ess sup -----------------------------------------------------------------

def test_ess_sup_examples():
    assert norm_of(const_sample([3.0, 4.0]), p=np.inf) == pytest.approx(5.0)
    f = step_sample([1.0, 0.0], [0.0, -2.0])
    assert norm_of(f, p=np.inf) == pytest.approx(2.0)
    assert norm_of(step_sample([1.0, 0.0], [0.0, -2.0], p=np.inf)) == pytest.approx(2.0)


# -- the primitive -----------------------------------------------------------

def clipped_integral(grid: TimeGrid, values: np.ndarray, t: float) -> np.ndarray:
    """Reference: the integral of the step function from a to t as a sum
    over every cell clipped to [a, t]."""
    lo = np.clip(grid.knots[:-1], grid.a, t)
    hi = np.clip(grid.knots[1:], grid.a, t)
    return np.tensordot(hi - lo, values, axes=1)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-5.0, 5.0),
    widths=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=8),
    shape=st.sampled_from([(), (3,), (2, 2)]),
    seed=st.integers(0, 10_000),
)
def test_step_primitive_is_the_exact_integral(a, widths, shape, seed):
    r = np.random.default_rng(seed)
    grid = TimeGrid(a + np.concatenate([[0.0], np.cumsum(widths)]))
    values = r.normal(size=(grid.ncells,) + shape)
    # a, every interior knot and b first, then times inside the cells
    times = np.concatenate([grid.knots, r.uniform(grid.a, grid.b, size=6)])
    got = step_primitive(grid, values, times)
    assert got.shape == times.shape + shape
    scale = float(np.sum(grid.widths() * np.max(np.abs(values.reshape(grid.ncells, -1)), axis=1)))
    for t, g in zip(times, got):
        assert np.max(np.abs(g - clipped_integral(grid, values, t))) <= 1e-14 * scale
    assert np.array_equal(got[:grid.knots.size], step_cumulative(grid.widths(), values))
    path = AcPath(r.normal(size=values[0].size), LpSample(grid, values.reshape(grid.ncells, -1)))
    assert np.array_equal(ac_eval_many(path, times), np.stack([ac_eval(path, t) for t in times]))
    for outside in (grid.a - 1e-3, grid.b + 1e-3):
        with pytest.raises(GridError):
            step_primitive(grid, values, [grid.a, outside])


def cumsum_reference(widths, values, start):
    """`step_cumulative` as numpy's cumulative sum writes it: the reference
    its row adds must match bit for bit."""
    values = np.asarray(values, dtype=float)
    steps = np.reshape(widths, (-1,) + (1,) * (values.ndim - 1)) * values
    out = np.zeros((steps.shape[0] + 1,) + steps.shape[1:])
    np.cumsum(steps, axis=0, out=out[1:])
    out += start
    return out


@pytest.mark.parametrize("ncells", [1, 2, 7])
@pytest.mark.parametrize("shape", [(), (3,), (2, 4, 2)])
def test_step_cumulative_matches_the_cumsum_reference(rng, ncells, shape):
    """Every bit of np.cumsum then + start, the sign of each zero included:
    a column of -0.0 steps keeps -0.0 at every knot until a start adds to
    it, and row 0 is 0 + start."""
    widths = rng.uniform(0.05, 1.0, size=ncells)
    values = rng.normal(size=(ncells,) + shape)
    values[rng.random(values.shape) < 0.2] = 0.0
    # the first column of every cell's value is -0.0, and so is the start's
    values.reshape(ncells, -1)[:, 0] = -0.0
    start = rng.normal(size=shape)
    start[rng.random(shape) < 0.5] = -0.0
    start.reshape(-1)[0] = -0.0
    for s in (0.0, -0.0, 1.25, start):
        got = step_cumulative(widths, values, s)
        want = cumsum_reference(widths, values, s)
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# -- weak_integral -----------------------------------------------------------

def test_weak_integral_zero():
    z = const_sample([0.0, 0.0])
    assert np.all(weak_integral(z, 0.2, 0.9) == 0.0)


def test_weak_integral_step():
    v, w = np.array([1.0, 2.0]), np.array([-3.0, 0.5])
    f = step_sample(v, w)
    assert np.allclose(weak_integral(f, 0.0, 1.0), 0.5 * (v + w), atol=1e-15)
    # partial cells split exactly
    assert np.allclose(weak_integral(f, 0.25, 0.75), 0.25 * v + 0.25 * w, atol=1e-15)


def test_weak_integral_errors():
    f = const_sample([1.0])
    with pytest.raises(GridError):
        weak_integral(f, 0.5, 0.2)
    with pytest.raises(GridError):
        weak_integral(f, -0.1, 0.5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.floats(0.0, 1.0))
def test_weak_integral_additive(seed, t):
    r = np.random.default_rng(seed)
    f = random_step_sample(r)
    total = weak_integral(f, 0.0, 1.0)
    split = weak_integral(f, 0.0, t) + weak_integral(f, t, 1.0)
    assert np.allclose(total, split, atol=1e-14)


# -- subdivide ---------------------------------------------------------------
# The subdivided step function is a velocity curve's alpha per cell, cut
# into windows by TimeVelocity.subdivide (at the knots of
# TimeGrid.subdivided) and, independently, by window_budgets.

def test_subdivide_constant():
    c = np.array([2.0, -1.0])
    sub = budget_curve(const_sample(c)).subdivide(3, 1)
    assert sub.grid.a == 0.0 and sub.grid.b == 1.0
    assert sub.alpha_values() == pytest.approx([np.linalg.norm(c) / 3.0], rel=1e-15)


def test_subdivide_seminorm_change_of_variables(rng):
    f = random_step_sample(rng, ncells=6)
    gamma = budget_curve(f)
    qf = LpSample(f.grid, gamma.alpha_values()[:, None], 1.0)
    n = 4
    budgets = window_budgets(gamma, n)
    for k in range(n):
        rhs = weak_integral(qf, k / n, (k + 1) / n)[0]
        assert contraction_bound(gamma.subdivide(n, k)) == pytest.approx(rhs, abs=1e-14)
        assert budgets[k] == pytest.approx(rhs, abs=1e-14)


def test_subdivide_decay_constant_exact():
    gamma = budget_curve(const_sample([0.7, -0.2]))
    total = contraction_bound(gamma)
    for n in (1, 2, 4, 8, 16):
        worst = max(contraction_bound(gamma.subdivide(n, k)) for k in range(n))
        assert worst == pytest.approx(total / n, rel=1e-13)
        assert np.max(window_budgets(gamma, n)) == pytest.approx(total / n, rel=1e-13)


def test_subdivide_errors():
    g = TimeGrid.uniform(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        g.subdivided(2, 2)
    with pytest.raises(ValueError):
        g.subdivided(0, 0)
    with pytest.raises(GridError):
        TimeGrid(np.array([0.0, 2.0])).subdivided(2, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([1, 2, 4, 8]))
def test_subdivide_decay_monotone(seed, n):
    gamma = budget_curve(random_step_sample(np.random.default_rng(seed)))
    assert np.max(window_budgets(gamma, 2 * n)) <= np.max(window_budgets(gamma, n)) + 1e-13


# -- invariants --------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), lam=st.floats(-5.0, 5.0))
def test_homogeneity(seed, lam):
    r = np.random.default_rng(seed)
    f = random_step_sample(r, p=2.0)
    assert norm_of(LpSample(f.grid, lam * f.values, f.p)) == pytest.approx(abs(lam) * norm_of(f), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), q_exp=st.floats(1.0, 4.0), extra=st.floats(0.0, 4.0))
def test_hoelder_chain(seed, q_exp, extra):
    # on [0,1] the L^q seminorm is dominated by the L^p one for q <= p
    r = np.random.default_rng(seed)
    f = random_step_sample(r)
    p_exp = q_exp + extra
    assert norm_of(f, p=q_exp) <= norm_of(f, p=p_exp) + 1e-12


def test_seminorm_triangle_on_samples(rng):
    # Minkowski: the norm of a sum of step functions on one grid
    for _ in range(20):
        f = random_step_sample(rng, ncells=8, dim=3)
        g = LpSample(f.grid, rng.normal(size=f.values.shape), f.p)
        for p in (1.0, 2.0, 3.5, np.inf):
            assert norm_of(f + g, p) <= norm_of(f, p) + norm_of(g, p) + 1e-12


# -- representation plumbing -------------------------------------------------

def test_arithmetic_on_common_refinement():
    f = step_sample([1.0], [2.0])
    g = LpSample(TimeGrid(np.array([0.0, 0.25, 1.0])), np.array([[10.0], [20.0]]), 1.0)
    s = f + g
    assert np.array_equal(s.grid.knots, [0.0, 0.25, 0.5, 1.0])
    assert np.allclose(s.values[:, 0], [11.0, 21.0, 22.0])


def test_samples_equal_as_classes():
    f = const_sample([1.0, 2.0])
    g = LpSample(TimeGrid.uniform(0.0, 1.0, 4), np.tile([1.0, 2.0], (4, 1)), 1.0)
    assert samples_equal(f, g)
    assert not samples_equal(f, LpSample(g.grid, (1.0 + 1e-9) * g.values, g.p))


def test_sample_validation():
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    with pytest.raises(DimensionMismatchError):
        LpSample(grid, np.ones((3, 1)), 1.0)
    with pytest.raises(ValueError):
        LpSample(grid, np.ones((2, 1)), 0.5)
    with pytest.raises(ValueError):
        LpSample(grid, np.array([[np.nan], [1.0]]), 1.0)
