"""Step-function L^p calculus: seminorms, weak integrals, subdivision."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evolflow.lp_space import (
    DimensionMismatchError,
    GridError,
    LpSample,
    TimeGrid,
    ess_sup_seminorm,
    euclidean,
    lp_seminorm,
    samples_equal,
    subdivide,
    sup_norm,
    weak_integral,
    weighted,
)
from conftest import random_step_sample

EUC = euclidean()


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


def test_grid_refine_is_union():
    g1 = TimeGrid(np.array([0.0, 0.3, 1.0]))
    g2 = TimeGrid(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(g1.refine(g2).knots, [0.0, 0.3, 0.5, 1.0])
    with pytest.raises(GridError):
        g1.refine(TimeGrid(np.array([0.0, 2.0])))


# -- lp_seminorm -------------------------------------------------------------

def test_seminorm_constant_is_pointwise_norm():
    c = np.array([3.0, -4.0])
    assert lp_seminorm(const_sample(c, p=2.0), EUC) == pytest.approx(5.0, abs=1e-15)


def test_seminorm_step_exact_quadrature():
    v, w = np.array([1.0, 0.0]), np.array([0.0, -2.0])
    f = step_sample(v, w, p=1.0)
    assert lp_seminorm(f, EUC) == pytest.approx(0.5 * (1.0 + 2.0), abs=1e-15)


def test_seminorm_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        lp_seminorm(const_sample([1.0, 2.0]), euclidean(dim=3))


def test_weighted_seminorm():
    q = weighted([2.0, 0.0])
    assert lp_seminorm(const_sample([3.0, 100.0]), q) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        weighted([-1.0])


# -- ess sup -----------------------------------------------------------------

def test_ess_sup_examples():
    assert ess_sup_seminorm(const_sample([3.0, 4.0]), EUC) == pytest.approx(5.0)
    f = step_sample([1.0, 0.0], [0.0, -2.0])
    assert ess_sup_seminorm(f, EUC) == pytest.approx(2.0)
    assert lp_seminorm(f, EUC, p=np.inf) == pytest.approx(2.0)


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

def test_subdivide_constant():
    c = np.array([2.0, -1.0])
    g = subdivide(const_sample(c), 3, 1)
    assert np.allclose(g.values, c / 3.0)
    assert g.grid.a == 0.0 and g.grid.b == 1.0


def test_subdivide_seminorm_change_of_variables(rng):
    f = random_step_sample(rng, ncells=6)
    qvals = EUC(f.values)[:, None]
    qf = LpSample(f.grid, qvals, 1.0)
    n = 4
    for k in range(n):
        lhs = lp_seminorm(subdivide(f, n, k), EUC, p=1.0)
        rhs = weak_integral(qf, k / n, (k + 1) / n)[0]
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_subdivide_decay_constant_exact():
    c = np.array([0.7, -0.2])
    f = const_sample(c)
    total = lp_seminorm(f, EUC, p=1.0)
    for n in (1, 2, 4, 8, 16):
        worst = max(lp_seminorm(subdivide(f, n, k), EUC, p=1.0) for k in range(n))
        assert worst == pytest.approx(total / n, rel=1e-13)


def test_subdivide_errors():
    f = const_sample([1.0])
    with pytest.raises(ValueError):
        subdivide(f, 2, 2)
    with pytest.raises(ValueError):
        subdivide(f, 0, 0)
    off = LpSample(TimeGrid(np.array([0.0, 2.0])), np.array([[1.0]]), 1.0)
    with pytest.raises(GridError):
        subdivide(off, 2, 0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([1, 2, 4, 8]))
def test_subdivide_decay_monotone(seed, n):
    r = np.random.default_rng(seed)
    f = random_step_sample(r)
    worst_n = max(lp_seminorm(subdivide(f, n, k), EUC, p=1.0) for k in range(n))
    worst_2n = max(lp_seminorm(subdivide(f, 2 * n, k), EUC, p=1.0) for k in range(2 * n))
    assert worst_2n <= worst_n + 1e-13


# -- invariants --------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), lam=st.floats(-5.0, 5.0))
def test_homogeneity(seed, lam):
    r = np.random.default_rng(seed)
    f = random_step_sample(r, p=2.0)
    assert lp_seminorm(f.scaled(lam), EUC) == pytest.approx(
        abs(lam) * lp_seminorm(f, EUC), abs=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), q_exp=st.floats(1.0, 4.0), extra=st.floats(0.0, 4.0))
def test_hoelder_chain(seed, q_exp, extra):
    # on [0,1] the L^q seminorm is dominated by the L^p one for q <= p
    r = np.random.default_rng(seed)
    f = random_step_sample(r)
    p_exp = q_exp + extra
    assert lp_seminorm(f, EUC, p=q_exp) <= lp_seminorm(f, EUC, p=p_exp) + 1e-12


def test_seminorm_triangle_on_samples(rng):
    for _ in range(20):
        a = rng.normal(size=(8, 3))
        b = rng.normal(size=(8, 3))
        for q in (EUC, sup_norm(), weighted([1.0, 0.5, 2.0])):
            assert np.all(q(a + b) <= q(a) + q(b) + 1e-12)
            assert np.allclose(q(-2.5 * a), 2.5 * q(a), atol=1e-12)


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
    assert not samples_equal(f, g.scaled(1.0 + 1e-9))


def test_json_roundtrip(rng):
    f = random_step_sample(rng)
    g = LpSample.loads(f.dumps())
    assert samples_equal(f, g)
    assert g.p == f.p
    inf = LpSample(TimeGrid.uniform(0.0, 1.0, 2), np.ones((2, 1)), np.inf)
    assert np.isinf(LpSample.loads(inf.dumps()).p)


def test_sample_validation():
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    with pytest.raises(DimensionMismatchError):
        LpSample(grid, np.ones((3, 1)), 1.0)
    with pytest.raises(ValueError):
        LpSample(grid, np.ones((2, 1)), 0.5)
    with pytest.raises(ValueError):
        LpSample(grid, np.array([[np.nan], [1.0]]), 1.0)
