"""Picard evolution: the integral operator, the fixed-point solvers, the
subdivision machinery, and oracle comparisons against RK4."""

import numpy as np
import pytest

from evolflow.ac_path import ContinuousTrace
from evolflow import evolution
from evolflow.diff_group import d_rho, group_path_distance, identity_like, star
from evolflow.evolution import (
    TimeVelocity,
    apply_T,
    apply_along,
    choose_subdivision,
    continuity_probe,
    contraction_bound,
    contraction_bounds,
    evolve,
    flow_point,
    local_evolve,
    picard_point,
    picard_points,
    residual,
    rk4_points,
)
from evolflow.instances import (
    random_smooth_torus_velocity,
    random_smooth_velocity,
    random_trace,
    rotation_plateau_velocity,
    translation_plateau_velocity,
    zero_velocity,
)
from evolflow.lp_space import TimeGrid


@pytest.fixture(scope="module")
def gamma():
    return random_smooth_velocity(42, target_bound=0.3)


@pytest.fixture(scope="module")
def rotation():
    return rotation_plateau_velocity(omega=0.3)


# -- integral operator -------------------------------------------------------

def test_apply_along_constant(rng):
    gamma = translation_plateau_velocity(v=(0.05, 0.02))
    trace = ContinuousTrace(TimeGrid.uniform(0.0, 1.0, 3), np.full((4, 2), 0.5))
    sample = apply_along(gamma, trace)
    assert np.max(np.abs(sample.values - np.array([0.05, 0.02]))) < 1e-7


def test_apply_T_zero_field(rng):
    gamma = zero_velocity(cells=3)
    trace = random_trace(rng, 5, 2)
    out = apply_T(gamma, np.array([0.4, 0.6]), trace)
    assert np.max(np.abs(out.values - np.array([0.4, 0.6]))) == 0.0


def test_apply_T_contraction_inequality(gamma, rng):
    x = np.array([0.5, 0.5])
    L = contraction_bound(gamma)
    assert L < 1.0
    for _ in range(5):
        z1 = random_trace(rng, 4, 2)
        z2 = random_trace(rng, 6, 2)
        lhs = apply_T(gamma, x, z1).sup_distance(apply_T(gamma, x, z2))
        assert lhs <= L * z1.sup_distance(z2) + 1e-10


def test_contraction_bounds_ordering(gamma):
    b = contraction_bounds(gamma)
    # Hoelder on the unit interval: the L^1 budget never exceeds the L^p one
    assert b["l1"] <= b["lp"] + 1e-14
    assert contraction_bound(gamma) == pytest.approx(b["l1"], rel=1e-12)


# -- point solver ------------------------------------------------------------

def test_picard_zero_field_is_constant(rng):
    gamma = zero_velocity(cells=2)
    x = np.array([0.3, 0.7])
    traj, diag = picard_point(gamma, x)
    knots = np.linspace(0.0, 1.0, 9)
    vals = np.array([traj.start + 0 for _ in knots])  # start; density is zero
    assert np.all(traj.density.values == 0.0)
    assert diag.contraction == 0.0


def test_picard_outside_support_is_constant(rotation):
    # the plateau taper makes the full rotation exceed the contraction
    # budget; a scaled copy fits while keeping the same support
    small = rotation.scaled(0.3)
    x = np.array([1.2, -0.4])
    traj, _ = picard_point(small, x)
    assert np.all(traj.density.values == 0.0)


def test_evolve_matches_rigid_rotation(rotation):
    omega = 0.3
    res = evolve(rotation, tol=1e-12)
    x0 = np.array([0.72, 0.5])
    for t in [0.25, 0.5, 1.0]:
        a = omega * t
        rel = x0 - 0.5
        expect = 0.5 + np.array([
            np.cos(a) * rel[0] - np.sin(a) * rel[1],
            np.sin(a) * rel[0] + np.cos(a) * rel[1],
        ])
        assert np.max(np.abs(flow_point(res, t, x0) - expect)) < 1e-5


def test_picard_requires_contraction(gamma):
    big = gamma.scaled(5.0)
    with pytest.raises(ValueError):
        picard_points(big, np.array([[0.5, 0.5]]))


def test_rk4_fourth_order(rotation):
    # start points in the taper region, where the field is genuinely nonlinear
    xs = np.array([[0.87, 0.5], [0.5, 0.14]])
    ref = rk4_points(rotation, xs, 16384)[-1]
    e1 = np.max(np.abs(rk4_points(rotation, xs, 16)[-1] - ref))
    e2 = np.max(np.abs(rk4_points(rotation, xs, 32)[-1] - ref))
    assert e1 / e2 == pytest.approx(16.0, rel=0.25)


def test_picard_trajectory_is_a_fixed_point_of_apply_T(gamma):
    tol = 1e-12
    xs = np.array([[0.45, 0.55], [0.62, 0.38]])
    grid, zeta, g, diag = picard_points(gamma, xs, tol=tol)
    for s, x in enumerate(xs):
        traj = ContinuousTrace(grid, zeta[:, s])
        image = apply_T(gamma, x, traj)
        assert np.array_equal(image.grid.knots, grid.knots)
        assert np.max(np.abs(image.values - traj.values)) < tol


def test_picard_matches_rk4(gamma):
    xs = np.array([[0.45, 0.55], [0.62, 0.38], [0.5, 0.5]])
    grid, zeta, g, diag = picard_points(gamma, xs, tol=1e-13)
    oracle = rk4_points(gamma, xs, 4096)[-1]
    assert np.max(np.abs(zeta[-1] - oracle)) < 1e-4


# -- field-valued solver -----------------------------------------------------

def test_local_evolve_zero_is_neutral():
    gamma = zero_velocity(cells=2)
    res = local_evolve(gamma)
    assert res.residual == 0.0
    assert res.path.field_at(0.7).sup_seminorm() == 0.0


def test_local_evolve_translation(rng):
    v = np.array([0.04, -0.03])
    gamma = translation_plateau_velocity(v=tuple(v))
    res = evolve(gamma, tol=1e-12)
    pts = 0.5 + rng.uniform(-0.15, 0.15, size=(30, 2))
    for t in [0.5, 1.0]:
        moved = res.path.element_at(t).apply(pts)
        # small translation keeps the core inside the plateau
        assert np.max(np.abs(moved - (pts + t * v))) < 1e-5


def test_local_evolve_matches_point_oracle(gamma, rng):
    res = local_evolve(gamma, tol=1e-12)
    xs = rng.uniform(0.25, 0.75, size=(20, 2))
    oracle = rk4_points(gamma, xs, 4096)[-1]
    got = flow_point(res, 1.0, xs)
    assert np.max(np.abs(got - oracle)) < 1e-4


def test_evolve_outside_support_fixed(rotation):
    res = evolve(rotation)
    # outside the model box the displacement splines are identically zero
    far = np.array([[1.5, -0.3], [-0.2, 0.5], [2.0, 2.0]])
    assert np.max(np.abs(flow_point(res, 1.0, far) - far)) == 0.0
    # inside the box but outside the support, only spline tails remain
    near = np.array([[0.01, 0.02], [0.98, 0.97]])
    assert np.max(np.abs(flow_point(res, 1.0, near) - near)) < 1e-6


def test_evolve_forced_subdivision_consistent(gamma):
    r1 = evolve(gamma, forced_n=2)
    r2 = evolve(gamma, forced_n=4)
    tol = sum(
        s.residual_bound + s.resample_estimate for s in r1.segments + r2.segments
    )
    d = group_path_distance(r1.path, r2.path, p=gamma.p)
    assert d < max(100.0 * tol, 1e-2)
    assert r1.n == 2 and r2.n == 4


def test_evolve_composition_law(gamma):
    # glue two half-speed copies: evolving the whole equals the product of
    # the two half evolutions, up to solver and resampling tolerance
    res = evolve(gamma, forced_n=2)
    first = local_evolve(gamma.subdivide(2, 0), max_dt=2.0 / 256)
    second = local_evolve(gamma.subdivide(2, 1), max_dt=2.0 / 256)
    glued = star(second.path.end(), first.path.end())
    end = res.path.end()
    defect = (glued.disp - end.disp).sup_seminorm()
    assert defect < 1e-6


def test_residual_of_solution_is_small(gamma):
    res = evolve(gamma)
    assert res.residual < 1e-3
    # a deliberately wrong path has a visibly larger defect
    bad = res.path
    bad_scaled = type(bad)(bad.grid, [f.scaled(0.5) for f in bad.density], bad.start)
    assert residual(gamma, bad_scaled) > 10.0 * res.residual


def _evolve_per_cell(gamma, n, max_dt=1.0 / 256):
    """Density coefficients of evolve(gamma, forced_n=n) the plain way: a
    fresh solve of every window and one right translation per cell."""
    A = identity_like(gamma.proto)
    coeffs = []
    for k in range(n):
        seg = local_evolve(gamma.subdivide(n, k), max_dt=max_dt * n)
        for D in seg.path.density:
            coeffs.append((D if k == 0 else d_rho(A, D)).scaled(float(n)).coeffs)
        A = star(seg.path.end(), A)
    return coeffs


@pytest.mark.parametrize("case", ["compact_repeated_windows", "torus"])
def test_evolve_density_matches_per_cell_gluing(case):
    if case == "torus":
        gamma, n = random_smooth_torus_velocity(11, grid=12, cells=4, target_bound=0.6), 4
    else:
        # n = 8 windows over 2 cells: windows repeat four times each
        gamma, n = random_smooth_velocity(5, grid=16, cells=2, target_bound=0.6), 8
    res = evolve(gamma, forced_n=n)
    ref = _evolve_per_cell(gamma, n)
    assert len(res.path.density) == len(ref)
    assert all(np.array_equal(D.coeffs, c) for D, c in zip(res.path.density, ref))


def test_evolve_solves_each_distinct_window_once(monkeypatch):
    gamma = random_smooth_velocity(5, grid=16, cells=2, target_bound=0.6)
    solves = []
    solve = evolution.local_evolve
    monkeypatch.setattr(evolution, "local_evolve", lambda *a: solves.append(1) or solve(*a))
    res = evolve(gamma, forced_n=8)
    assert len(solves) == 2 and len(res.segments) == 8


def test_residual_is_computed_on_first_read(gamma, monkeypatch):
    calls = []
    plain = evolution.residual
    monkeypatch.setattr(evolution, "residual", lambda *a: calls.append(1) or plain(*a))
    res = evolve(gamma, forced_n=2)
    assert calls == []
    assert res.residual == plain(gamma, res.path)
    assert res.residual == res.residual and len(calls) == 1


def test_continuity_probe_computes_no_residual(gamma, monkeypatch):
    calls = []
    monkeypatch.setattr(evolution, "residual", lambda *a: calls.append(1))
    delta = TimeVelocity(gamma.grid, [f.scaled(0.01) for f in gamma.fields], gamma.p)
    continuity_probe(gamma, delta, levels=2, forced_n=2)
    assert calls == []


def test_continuity_probe_zero_perturbation(gamma):
    delta = zero_velocity(dim=2, grid=32, cells=4)
    # geometry must match gamma's fields for the sum to make sense
    delta = TimeVelocity(gamma.grid, [f.zero_like() for f in gamma.fields], gamma.p)
    out = continuity_probe(gamma, delta, levels=2)
    assert [d for _, d in out] == pytest.approx([0.0, 0.0], abs=1e-12)


# -- subdivision bookkeeping -------------------------------------------------

def test_subdivision_budget_exact_for_constant_alpha(gamma):
    total = contraction_bound(gamma)
    from evolflow.evolution import _window_budget_max

    # equalize: same alpha in every cell by using one field throughout
    const = TimeVelocity(gamma.grid, [gamma.fields[0]] * gamma.grid.ncells, gamma.p)
    tot = contraction_bound(const)
    for n in [1, 2, 4, 8, 16]:
        assert _window_budget_max(const, n) == pytest.approx(tot / n, rel=1e-12)


def test_choose_subdivision_thresholds(gamma):
    assert choose_subdivision(gamma, L_max=0.5) == 1
    assert choose_subdivision(gamma, L_max=0.2) >= 2


@pytest.mark.parametrize("L_max", [float("nan"), 0.0, -0.5, 1.5, float("inf")])
def test_choose_subdivision_rejects_bad_L_max(gamma, L_max):
    with pytest.raises(ValueError, match="L_max"):
        choose_subdivision(gamma, L_max=L_max)


def test_subdivide_speeds_up_exactly(gamma):
    n = 4
    subs = [gamma.subdivide(n, k) for k in range(n)]
    for sub in subs:
        assert sub.grid.a == 0.0 and sub.grid.b == 1.0
    # the window rescaling gamma((k+t)/n)/n preserves each window's budget,
    # so the windows partition the total exactly
    total = sum(contraction_bound(s) for s in subs)
    assert total == pytest.approx(contraction_bound(gamma), rel=1e-12)


def test_timevelocity_arithmetic(gamma):
    doubled = gamma + gamma
    assert contraction_bound(doubled) == pytest.approx(2.0 * contraction_bound(gamma), rel=1e-12)
    halved = gamma.scaled(0.5)
    assert contraction_bound(halved) == pytest.approx(0.5 * contraction_bound(gamma), rel=1e-12)


def test_timevelocity_save_load(tmp_path, gamma):
    manifest = gamma.save(tmp_path, name="vel")
    back = TimeVelocity.load(manifest)
    assert np.array_equal(back.grid.knots, gamma.grid.knots)
    assert back.p == gamma.p
    for f, g in zip(back.fields, gamma.fields):
        assert np.array_equal(f.coeffs, g.coeffs)
