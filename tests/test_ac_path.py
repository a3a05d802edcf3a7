"""Absolutely continuous paths: evaluation, isomorphisms, reparametrization
and superposition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evolflow.ac_path import (
    AcPath,
    ContinuousTrace,
    SmoothMap,
    ac_embed,
    ac_eval,
    ac_eval_many,
    ac_phi,
    ac_phi_inv,
    ac_reparam,
    ac_superpose,
)
from evolflow.lp_space import GridError, LpSample, TimeGrid
from conftest import random_step_sample, samples_equal


def random_path(rng, ncells=5, dim=2):
    return AcPath(rng.normal(size=dim), random_step_sample(rng, ncells, dim))


# -- evaluation --------------------------------------------------------------

def test_eval_zero_density(rng):
    path = AcPath.constant([1.0, -2.0], TimeGrid.uniform(0.0, 1.0, 3))
    for t in (0.0, 0.31, 1.0):
        assert np.array_equal(ac_eval(path, t), [1.0, -2.0])


def test_eval_constant_density():
    v = np.array([2.0, 1.0])
    path = AcPath(np.zeros(2), LpSample(TimeGrid.uniform(0.0, 1.0, 1), v[None], 1.0))
    for t in (0.0, 0.25, 1.0):
        assert np.allclose(ac_eval(path, t), t * v, atol=1e-15)


def test_eval_step_density():
    v, w = np.array([1.0, 0.0]), np.array([0.0, 4.0])
    dens = LpSample(TimeGrid(np.array([0.0, 0.5, 1.0])), np.stack([v, w]), 1.0)
    x0 = np.array([1.0, 1.0])
    path = AcPath(x0, dens)
    assert np.allclose(ac_eval(path, 0.75), x0 + 0.5 * v + 0.25 * w, atol=1e-15)
    assert np.array_equal(ac_eval(path, 0.0), x0)


# -- start/density isomorphism ----------------------------------------------

def test_phi_on_constant_path():
    path = AcPath.constant([3.0], TimeGrid.uniform(0.0, 1.0, 2))
    start, dens = ac_phi(path)
    assert np.array_equal(start, [3.0])
    assert np.all(dens.values == 0.0)


def test_phi_roundtrip_exact(rng):
    path = random_path(rng)
    start, dens = ac_phi(path)
    back = ac_phi_inv(start, dens)
    assert np.array_equal(back.start, path.start)
    assert samples_equal(back.density, path.density)


def test_phi_linear(rng):
    p1, p2 = random_path(rng), random_path(rng)
    s, d = ac_phi(p1 + p2)
    s1, d1 = ac_phi(p1)
    s2, d2 = ac_phi(p2)
    assert np.allclose(s, s1 + s2, atol=1e-15)
    assert samples_equal(d, d1 + d2, tol=1e-14)


# -- embedding into C x L^p --------------------------------------------------

def test_embed_zero_path():
    path = AcPath.constant([2.0], TimeGrid.uniform(0.0, 1.0, 2))
    trace, dens = ac_embed(path, TimeGrid.uniform(0.0, 1.0, 4))
    assert np.all(trace.values == 2.0)
    assert np.all(dens.values == 0.0)


def test_embed_linear_path():
    v = np.array([1.0, -1.0])
    path = AcPath(np.zeros(2), LpSample(TimeGrid.uniform(0.0, 1.0, 1), v[None], 1.0))
    knots = TimeGrid.uniform(0.0, 1.0, 5)
    trace, dens = ac_embed(path, knots)
    assert np.allclose(trace.values, knots.knots[:, None] * v, atol=1e-15)


def test_embed_reintegration_closure(rng):
    path = random_path(rng)
    knots = path.density.grid.with_times(rng.uniform(0.0, 1.0, size=7))
    trace, dens = ac_embed(path, knots)
    # the trace is the primitive of the density: re-integrating from the
    # first knot value reproduces every knot value up to summation rounding
    steps = np.diff(knots.knots)[:, None] * dens.eval_many(knots.midpoints())
    rebuilt = trace.values[0] + np.concatenate([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    assert np.max(np.abs(rebuilt - trace.values)) <= 8.0 * np.finfo(float).eps


def test_embed_requires_refining_knots(rng):
    path = random_path(rng)
    with pytest.raises(GridError):
        ac_embed(path, TimeGrid(np.array([0.0, 1.0 / 3.0, 1.0])))


# -- reparametrization -------------------------------------------------------

def test_reparam_identity(rng):
    path = random_path(rng)
    back = ac_reparam(path, 0.0, 1.0)
    assert np.array_equal(back.start, path.start)
    assert samples_equal(back.density, path.density)


def test_reparam_stretch():
    v = np.array([3.0])
    path = AcPath(np.zeros(1), LpSample(TimeGrid.uniform(0.0, 1.0, 1), v[None], 1.0))
    long = ac_reparam(path, 0.0, 2.0)
    assert np.allclose(long.density.values, v / 2.0)
    assert np.allclose(ac_eval(long, 1.0), [1.5], atol=1e-15)


def test_reparam_endpoints_exact(rng):
    path = random_path(rng)
    c, d = -2.0, 5.0
    moved = ac_reparam(path, c, d)
    assert np.array_equal(ac_eval(moved, c), ac_eval(path, 0.0))
    assert np.allclose(ac_eval(moved, d), ac_eval(path, 1.0), atol=1e-14)
    # round trip restores the path up to knot rounding
    back = ac_reparam(moved, 0.0, 1.0)
    assert np.array_equal(back.start, path.start)
    assert np.max(np.abs(back.density.grid.knots - path.density.grid.knots)) < 1e-15
    assert np.max(np.abs(back.density.values - path.density.values)) < 1e-13
    with pytest.raises(GridError):
        ac_reparam(path, 1.0, 0.0)


# -- superposition -----------------------------------------------------------

def test_superpose_identity(rng):
    path = random_path(rng)
    identity = SmoothMap(lambda x: x.copy(), lambda x: np.broadcast_to(np.eye(x.shape[1]), x.shape + x.shape[1:]).copy())
    out = ac_superpose(identity, path)
    assert np.array_equal(out.start, path.start)
    assert samples_equal(out.density, path.density, tol=1e-14)


def test_superpose_linear_exact(rng):
    A = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 3.0]])
    path = random_path(rng)
    out = ac_superpose(SmoothMap(lambda x: x @ A.T, lambda x: np.broadcast_to(A, (len(x),) + A.shape).copy()), path)
    assert np.allclose(out.start, A @ path.start, atol=1e-14)
    assert samples_equal(out.density, LpSample(path.density.grid, path.density.values @ A.T, path.p), tol=1e-13)


def test_superpose_square_norm_closed_form():
    # f(x) = |x|^2 along eta(t) = (t, 0): result t^2 with density 2t per midpoint
    f = SmoothMap(lambda x: np.sum(x * x, axis=1, keepdims=True), lambda x: 2.0 * x[:, None, :])
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    path = AcPath(np.zeros(2), LpSample(grid, np.tile([1.0, 0.0], (8, 1)), 1.0))
    out = ac_superpose(f, path)
    assert np.allclose(out.density.values[:, 0], 2.0 * grid.midpoints(), atol=1e-14)


def test_superpose_chain_rule_vs_finite_differences(rng):
    f = SmoothMap(
        lambda x: np.stack([np.sin(x[:, 0]) * x[:, 1], np.exp(0.3 * x[:, 0])], axis=1),
        lambda x: np.stack(
            [
                np.stack([np.cos(x[:, 0]) * x[:, 1], np.sin(x[:, 0])], axis=1),
                np.stack([0.3 * np.exp(0.3 * x[:, 0]), np.zeros(len(x))], axis=1),
            ],
            axis=1,
        ),
    )
    path = random_path(rng, ncells=4)
    sub = 8
    out = ac_superpose(f, path, subdivisions=sub)
    mids = out.density.grid.midpoints()
    widths = out.density.grid.widths()
    for i, (t, h) in enumerate(zip(mids, widths)):
        fd = (f.fn(ac_eval(path, t + h / 2)[None]) - f.fn(ac_eval(path, t - h / 2)[None]))[0] / h
        assert np.max(np.abs(out.density.values[i] - fd)) <= 10.0 * h**2


def test_superpose_domain_violation():
    f = SmoothMap(lambda x: x, lambda x: np.broadcast_to(np.eye(1), (len(x), 1, 1)).copy(),
                  domain=lambda x: x[:, 0] < 0.5)
    path = AcPath(np.zeros(1), LpSample(TimeGrid.uniform(0.0, 1.0, 2), np.ones((2, 1)), 1.0))
    with pytest.raises(ValueError):
        ac_superpose(f, path)


# -- traces ------------------------------------------------------------------

def test_trace_sup_distance():
    g = TimeGrid.uniform(0.0, 1.0, 2)
    t1 = ContinuousTrace(g, np.array([[0.0], [1.0], [0.0]]))
    t2 = ContinuousTrace(g, np.array([[0.0], [0.0], [0.0]]))
    assert t1.sup_distance(t2) == pytest.approx(1.0)
    assert ac_eval_many(AcPath.constant([1.0], g), [0.1, 0.9]).shape == (2, 1)
