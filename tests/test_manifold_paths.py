"""Path manifolds: torus wrapping, circle stereographic charts, chart maps
for path spaces, section embedding, and torus evolution."""

import numpy as np
import pytest

from evolflow.ac_path import AcPath, ac_eval
from evolflow.instances import constant_torus_velocity, random_smooth_torus_velocity
from evolflow.evolution import evolve, flow_point, rk4_points
from evolflow.lp_space import LpSample, TimeGrid
from evolflow.manifold_paths import (
    ManifoldAcPath,
    SectionTuple,
    chart_psi,
    chart_psi_inv,
    circle_chart_from_point,
    circle_point_from_chart,
    circle_transition_derivative,
    local_addition,
    point_eval,
    section_embed,
    transition,
    wrap_diff,
    wrap_point,
)


def random_torus_path(rng, ncells=4, dim=2, scale=0.2):
    grid = TimeGrid.uniform(0.0, 1.0, ncells)
    start = rng.uniform(0.0, 1.0, size=dim)
    dens = rng.uniform(-scale, scale, size=(ncells, dim))
    return ManifoldAcPath("torus_2", (("torus", AcPath(start, LpSample(grid, dens, 1.0))),))


def small_section(rng, base, scale=0.1):
    segs = []
    for chart, seg in base.segments:
        dens = rng.uniform(-scale, scale, size=seg.density.values.shape)
        start = rng.uniform(-scale, scale, size=seg.dim)
        segs.append((chart, AcPath(start, LpSample(seg.density.grid, dens, seg.p))))
    return SectionTuple(base, tuple(segs))


# -- wrapping conventions ----------------------------------------------------

def test_wrap_point():
    assert np.allclose(wrap_point([1.25, -0.25, 3.0]), [0.25, 0.75, 0.0])


def test_wrap_diff_convention():
    assert wrap_diff(0.3) == pytest.approx(0.3)
    assert wrap_diff(0.7) == pytest.approx(-0.3)
    assert wrap_diff(-0.7) == pytest.approx(0.3)
    # the tie at distance exactly one half resolves to +1/2
    assert wrap_diff(0.5) == 0.5
    assert wrap_diff(-0.5) == 0.5
    assert np.allclose(wrap_diff([2.4, -1.9]), [0.4, 0.1])


def test_torus_local_addition(rng):
    la = local_addition("torus_2")
    p = rng.uniform(0.0, 1.0, size=2)
    v = rng.uniform(-0.4, 0.4, size=2)
    q = la.sigma(p, v)
    assert np.allclose(la.theta_inv(p, q), v)
    assert np.allclose(la.sigma(p, np.zeros(2)), p)


# -- circle chart dictionary -------------------------------------------------

def test_circle_chart_roundtrip(rng):
    thetas = rng.uniform(0.1, np.pi - 0.1, size=20)  # away from both poles
    for chart in ["north", "south"]:
        u = circle_chart_from_point(chart, thetas)
        back = circle_point_from_chart(chart, u)
        assert np.max(np.abs(back - thetas)) < 1e-12


def north_to_south(u):
    """The chart change of the stereographic charts, through the point dictionary."""
    return circle_chart_from_point("south", circle_point_from_chart("north", u))


def test_circle_transition_closed_form(rng):
    u = rng.uniform(0.5, 3.0, size=15)
    assert np.allclose(north_to_south(u), 1.0 / u, atol=1e-12)
    # cocycle: changing chart and back is the identity
    back = circle_chart_from_point("north", circle_point_from_chart("south", north_to_south(u)))
    assert np.max(np.abs(back - u)) < 1e-11


def test_circle_transition_derivative_fd():
    u = np.linspace(0.5, 3.0, 12)
    h = 1e-6
    fd = (north_to_south(u + h) - north_to_south(u - h)) / (2 * h)
    assert np.max(np.abs(circle_transition_derivative("north", "south", u) - fd)) < 1e-6


# -- chart maps on path space ------------------------------------------------

def test_chart_psi_of_zero_section(rng):
    eta = random_torus_path(rng)
    zero = small_section(rng, eta, scale=0.0)
    out = chart_psi(eta, zero)
    for t in [0.0, 0.3, 0.8, 1.0]:
        assert np.allclose(point_eval(out, t), point_eval(eta, t), atol=1e-15)


def test_chart_roundtrip(rng):
    eta = random_torus_path(rng)
    tau = small_section(rng, eta)
    gamma = chart_psi(eta, tau)
    back = chart_psi_inv(eta, gamma)
    for (_, s1), (_, s2) in zip(back.segments, tau.segments):
        assert np.max(np.abs(s1.start - s2.start)) < 1e-12
        assert np.max(np.abs(s1.density.values - s2.density.values)) < 1e-12


def test_transition_cocycle(rng):
    eta = random_torus_path(rng)
    xi = random_torus_path(rng)
    # make xi close to eta so sections stay inside the chart domain
    xi = ManifoldAcPath(
        "torus_2",
        tuple(
            (c, AcPath(wrap_point(e.start + 0.05),
                       LpSample(x.density.grid, e.density.values * 0.9, e.p)))
            for (c, e), (_, x) in zip(eta.segments, xi.segments)
        ),
    )
    sigma = small_section(rng, eta, scale=0.05)
    there = transition(xi, eta, sigma)
    back = transition(eta, xi, there)
    for (_, s1), (_, s2) in zip(back.segments, sigma.segments):
        assert np.max(np.abs(wrap_diff(s1.start - s2.start))) < 1e-11
        assert np.max(np.abs(s1.density.values - s2.density.values)) < 1e-11


def test_transition_moves_base_point(rng):
    eta = random_torus_path(rng)
    tau = small_section(rng, eta, scale=0.03)
    gamma = chart_psi(eta, tau)
    xi = ManifoldAcPath(
        "torus_2",
        tuple(
            (c, AcPath(wrap_point(s.start + 0.02), s.density))
            for c, s in eta.segments
        ),
    )
    moved = transition(xi, eta, tau)
    gamma2 = chart_psi(xi, moved)
    for t in [0.0, 0.41, 1.0]:
        assert np.max(np.abs(wrap_diff(point_eval(gamma2, t) - point_eval(gamma, t)))) < 1e-12


# -- sections and embedding --------------------------------------------------

def test_section_embed_torus_identity(rng):
    eta = random_torus_path(rng)
    sigma = small_section(rng, eta)
    pieces = section_embed(sigma, [eta.a, eta.b], ["torus"])
    glued = SectionTuple(eta, pieces)
    for (_, s1), (_, s2) in zip(glued.segments, sigma.segments):
        assert np.max(np.abs(ac_eval(s1, s1.a) - ac_eval(s2, s1.a))) < 1e-13
        mids = s1.density.grid.midpoints()
        assert np.max(np.abs(s1.density.eval_many(mids) - s2.density.eval_many(mids))) < 1e-13


def test_section_embed_refines_partition(rng):
    eta = random_torus_path(rng)
    sigma = small_section(rng, eta)
    partition = np.array([0.0, 0.2, 0.55, 1.0])
    pieces = section_embed(sigma, partition, ["torus"] * 3)
    assert len(pieces) == 3
    for (chart, piece), c, d in zip(pieces, partition[:-1], partition[1:]):
        assert piece.a == c and piece.b == d
        t = 0.5 * (c + d)
        _, sseg = sigma.segments[0], sigma.segments[0]
        # values agree with the original section
        orig = [s for _, s in sigma.segments if s.a <= t <= s.b][0]
        assert np.max(np.abs(ac_eval(piece, t) - ac_eval(orig, t))) < 1e-13


def test_circle_section_chart_change():
    # constant base path at north coordinate u=2; a north-coordinate section
    # value w reads -w/4 in south coordinates
    grid = TimeGrid.uniform(0.0, 1.0, 2)
    theta = circle_point_from_chart("north", 2.0)
    base = ManifoldAcPath(
        "circle_stereo",
        (("north", AcPath.constant(np.atleast_1d(circle_chart_from_point("north", theta)), grid, 1.0)),),
    )
    w = 0.3
    sigma = SectionTuple(
        base, (("north", AcPath.constant(np.array([w]), grid, 1.0)),)
    )
    pieces = section_embed(sigma, np.array([0.0, 1.0]), ["south"])
    chart, piece = pieces[0]
    assert chart == "south"
    for t in [0.0, 0.5, 1.0]:
        assert np.max(np.abs(ac_eval(piece, t) - (-w / 4.0))) < 1e-12


def test_constant_path_and_point_eval(rng):
    q = np.array([0.3, 0.9])
    grid = TimeGrid.uniform(0.0, 1.0, 3)
    eta = ManifoldAcPath("torus", (("torus", AcPath.constant(q, grid)),))
    for t in [0.0, 0.5, 1.0]:
        assert np.allclose(point_eval(eta, t), q, atol=0.0)
    # evaluation commutes with the chart map at the zero section
    zero = SectionTuple(eta, (("torus", AcPath.constant(np.zeros(2), grid, 1.0)),))
    assert np.allclose(point_eval(chart_psi(eta, zero), 0.7), point_eval(eta, 0.7))


def test_normalized_addition_fd(rng):
    # d/ds Sigma(eta(t), s sigma(t)) at s=0 equals sigma(t)
    eta = random_torus_path(rng)
    sigma = small_section(rng, eta, scale=0.2)
    h = 1e-6
    for t in [0.1, 0.6]:
        chart, eseg = eta.segment_for(t)
        _, sseg = sigma.segments[0]
        p = point_eval(eta, t)
        v = ac_eval(sseg, t)
        la = local_addition("torus_2")
        fd = wrap_diff(la.sigma(p, h * v) - la.sigma(p, -h * v)) / (2.0 * h)
        assert np.max(np.abs(fd - v)) < 1e-6


# -- torus evolution ---------------------------------------------------------

def test_evolve_torus_constant_field(rng):
    v = np.array([0.3, -0.2])
    gamma = constant_torus_velocity(v)
    res = evolve(gamma)
    pts = rng.uniform(0.0, 1.0, size=(20, 2))
    moved = wrap_point(flow_point(res, 1.0, pts))
    assert np.max(np.abs(wrap_diff(moved - wrap_point(pts + v)))) < 1e-9


def test_evolve_torus_matches_rk4(rng):
    gamma = random_smooth_torus_velocity(9, target_bound=0.3)
    res = evolve(gamma)
    xs = rng.uniform(0.0, 1.0, size=(15, 2))
    oracle = rk4_points(gamma, xs, 4096)[-1]
    got = flow_point(res, 1.0, xs)
    assert np.max(np.abs(wrap_diff(got - oracle))) < 1e-4
