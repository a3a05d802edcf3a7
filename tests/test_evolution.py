"""Picard evolution: the integral operator, the fixed-point solvers, the
subdivision machinery, and oracle comparisons against RK4."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evolflow.ac_path import ContinuousTrace
from evolflow import evolution
from evolflow.diff_group import d_rho, group_path_distance, identity_like, star
from evolflow.evolution import (
    TimeVelocity,
    apply_T,
    choose_subdivision,
    continuity_probe,
    contraction_bound,
    evolve,
    flow_point,
    local_evolve,
    picard_points,
    residual,
    rk4_points,
    window_budgets,
)
from evolflow.instances import (
    random_smooth_torus_velocity,
    random_smooth_velocity,
    random_trace,
    rotation_plateau_velocity,
    translation_plateau_velocity,
    zero_velocity,
)
from evolflow.lp_space import LpSample, TimeGrid, euclidean, lp_seminorm
from conftest import stack_fields


@pytest.fixture(scope="module")
def gamma():
    return random_smooth_velocity(42, target_bound=0.3)


@pytest.fixture(scope="module")
def rotation():
    return rotation_plateau_velocity(omega=0.3)


# -- integral operator -------------------------------------------------------

def test_apply_along_constant(rng):
    # the integrand of T along a trace in the plateau is the constant velocity
    gamma = translation_plateau_velocity(v=(0.05, 0.02))
    trace = ContinuousTrace(TimeGrid.uniform(0.0, 1.0, 3), np.full((4, 2), 0.5))
    out = apply_T(gamma, np.zeros(2), trace)
    density = np.diff(out.values, axis=0) / out.grid.widths()[:, None]
    assert np.max(np.abs(density - np.array([0.05, 0.02]))) < 1e-7


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
    # the budget is the L^1 seminorm of t -> alpha(gamma(t))
    alpha = LpSample(gamma.grid, gamma.alpha_values()[:, None], gamma.p)
    l1, lp = lp_seminorm(alpha, euclidean(), p=1.0), lp_seminorm(alpha, euclidean())
    # Hoelder on the unit interval: the L^1 budget never exceeds the L^p one
    assert gamma.p > 1.0 and l1 <= lp + 1e-14
    assert contraction_bound(gamma) == pytest.approx(l1, rel=1e-12)


# -- point solver ------------------------------------------------------------

def test_picard_zero_field_is_constant(rng):
    gamma = zero_velocity(cells=2)
    x = np.array([0.3, 0.7])
    grid, zeta, g, diag = picard_points(gamma, x[None])
    assert np.all(g == 0.0) and np.all(zeta == x)
    assert diag.contraction == 0.0


def test_picard_outside_support_is_constant(rotation):
    # the plateau taper makes the full rotation exceed the contraction
    # budget; a scaled copy fits while keeping the same support
    small = rotation.scaled(0.3)
    x = np.array([1.2, -0.4])
    grid, zeta, g, _ = picard_points(small, x[None])
    assert np.all(g == 0.0) and np.all(zeta == x)


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


# -- the march against the global sweep ----------------------------------------

def _global_picard(gamma, grid, cellmap, anchors, offsets, tol, max_iter):
    """Reference solver: Jacobi waveform relaxation, `_T` iterated over the
    whole grid from the constant path until the change falls below tol."""
    w = grid.widths()
    zeta = np.broadcast_to(anchors, (grid.knots.size,) + anchors.shape).copy()
    change = np.inf
    stalled = 0
    for it in range(1, max_iter + 1):
        new, g = evolution._T(gamma, cellmap, w, anchors, offsets, zeta)
        prev, change = change, float(np.max(np.abs(new - zeta)))
        zeta = new
        if change < tol:
            return zeta, g
        stalled = 0 if change < prev else stalled + 1
        if stalled == 2:
            raise RuntimeError(f"reference Picard stagnated at sweep {it} (last change {change:.3g})")
    raise RuntimeError(f"reference Picard did not reach tol={tol} in {max_iter} sweeps")


def _marches(monkeypatch, solve):
    """Result of solve() and every (arguments, output) of the march inside it."""
    calls = []
    march = evolution._picard_march
    monkeypatch.setattr(evolution, "_picard_march", lambda *a: calls.append((a, march(*a))) or calls[-1][1])
    return solve(), calls


def _jump_velocity():
    """Two velocity cells of widths 0.3 and 0.7: refined to 77 and 180 cells,
    so the march block of refined cells [76, 80) straddles the jump."""
    two = random_smooth_velocity(5, grid=24, cells=2)
    gamma = TimeVelocity(TimeGrid(np.array([0.0, 0.3, 1.0])), two.fields, two.p)
    cellmap = gamma.refined(evolution.FINEST_DT)[1]
    assert evolution.MARCH_BLOCK == 4 and cellmap[76] == 0 and cellmap[77] == 1
    return gamma.scaled(0.4 / contraction_bound(gamma))


@pytest.mark.parametrize("case", ["compact_local_evolve", "compact_jump", "torus_window", "picard_points"])
def test_march_agrees_with_global_sweep_and_certifies_itself(monkeypatch, case):
    tol = 1e-11
    if case in ("compact_local_evolve", "compact_jump"):
        # the budgeted split of the compact fixture solves it three times;
        # the jump velocity is split uniformly at FINEST_DT, as its docstring
        # says, by starting the split at its finest step
        if case == "compact_local_evolve":
            gamma = random_smooth_velocity(7, grid=24, cells=3, target_bound=0.4)
        else:
            gamma = _jump_velocity()
            monkeypatch.setattr(evolution, "COARSEST_DT", evolution.FINEST_DT)
        result, calls = _marches(monkeypatch, lambda: local_evolve(gamma, tol=tol))
        diags = result.segments
    elif case == "torus_window":
        # two windows over four cells: no window repeats, one march each
        gamma = random_smooth_torus_velocity(11, grid=12, cells=4, target_bound=0.6)
        result, calls = _marches(monkeypatch, lambda: evolve(gamma, forced_n=2, tol=tol))
        diags = result.segments
    else:
        gamma = random_smooth_velocity(42, target_bound=0.45)
        xs = np.array([[0.45, 0.55], [0.62, 0.38], [0.3, 0.7]])
        result, calls = _marches(monkeypatch, lambda: picard_points(gamma, xs, tol=tol))
        diags = [result[3]]
    # each solve marches once more for every split it refined; its
    # diagnostics are those of its last march
    assert len(calls) == sum(1 + diag.resolves for diag in diags) > 0
    last = dict(zip(np.cumsum([1 + diag.resolves for diag in diags]) - 1, diags))
    for i, (args, (zeta, g, iters, change)) in enumerate(calls):
        L = contraction_bound(args[0])
        ref, ref_g = _global_picard(*args[:5], tol=1e-14, max_iter=200)
        # agreement with the global solution, in knot values and densities
        assert np.max(np.abs(zeta - ref)) < tol
        assert np.max(np.abs(g - ref_g)) < tol
        # the certificate: the Banach bound plus the reference's own error
        # bound and round-off
        bound = L / (1.0 - L) * change
        slack = 1e-14 / (1.0 - L) + 1e-15
        assert np.max(np.abs(zeta - ref)) <= bound + slack
        # never looser than the bound of the stopping rule it replaced
        assert bound <= tol / (1.0 - L)
        # the returned knots are T(zeta): the integrals of the returned densities
        assert np.array_equal(zeta[1:], np.cumsum(args[1].widths()[:, None, None] * g, axis=0) + args[3])
        if i in last:
            diag = last[i]
            assert diag.last_change == change and diag.contraction == L
            assert diag.residual_bound == pytest.approx(bound, rel=1e-15)


def test_march_work_on_the_compact_fixture(monkeypatch):
    """The rows the march of the compact local_evolve fixture evaluates,
    certificate included.  The count is deterministic: a rise means blocks
    need more iterations of `_T` than the extrapolated start gives them."""
    rows = []
    eval_cells = TimeVelocity.eval_cells
    monkeypatch.setattr(TimeVelocity, "eval_cells",
                        lambda self, cells, pts: rows.append(cells.size) or eval_cells(self, cells, pts))
    # one march, split uniformly at FINEST_DT
    monkeypatch.setattr(evolution, "COARSEST_DT", evolution.FINEST_DT)
    local_evolve(random_smooth_velocity(7, grid=24, cells=3, target_bound=0.4), tol=1e-11)
    # 1044 rows when every block started from its previous block's last velocity held constant
    assert sum(rows) <= 560


@pytest.mark.parametrize("same", [4, 3, 2, 1, 0])
def test_predict_is_exact_for_the_polynomial_of_its_history(rng, same):
    """History cells [0, 4), block [4, 8), on uneven widths: the last
    ``same`` history cells read the block's velocity cell and lie on a
    polynomial of degree same - 1; the others hold values the start must
    ignore.  With none the start is the last velocity held constant."""
    widths = np.array([0.11, 0.07, 0.13, 0.05, 0.09, 0.12, 0.06, 0.1])
    grid = TimeGrid(np.r_[0.0, np.cumsum(widths)] / widths.sum())
    w, mids = grid.widths(), grid.midpoints()
    cellmap = np.r_[np.zeros(4 - same, dtype=int), np.ones(4 + same, dtype=int)]
    coeffs = rng.normal(size=(max(same, 1), 3, 2))

    def poly(t):
        return sum(c * t[:, None, None] ** i for i, c in enumerate(coeffs))

    g = poly(mids[:4])
    g[:4 - same] = rng.normal(scale=1e3, size=(4 - same, 3, 2))
    v = poly(mids[4:]) if same else np.broadcast_to(g[-1], (4, 3, 2))
    expected = np.cumsum(w[4:, None, None] * v, axis=0)
    got = evolution._predict(mids, w, cellmap, 4, 8, g)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) < 1e-13


# -- the time error ------------------------------------------------------------

def _time_error_window(kind, seed, cells, bound):
    if kind == "compact":
        return random_smooth_velocity(seed, grid=14, cells=cells, target_bound=bound)
    if kind == "periodic":
        return random_smooth_torus_velocity(seed, grid=12, cells=cells, target_bound=bound)
    # the first window of the rotation plateau, as evolve solves it
    rotation = rotation_plateau_velocity(omega=2.0 * bound, grid=20)
    return rotation.subdivide(choose_subdivision(rotation), 0)


@pytest.mark.parametrize("kind", ["compact", "periodic", "rotation_plateau"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10_000), cells=st.sampled_from([1, 2, 4]), bound=st.floats(0.1, 0.45))
def test_declared_time_error_covers_the_true_error(kind, seed, cells, bound):
    """At every split the budgeted chooser can pick, from the floor of 16
    cells per window (COARSEST_DT) to 256 (FINEST_DT), the declared time
    error -- the second-difference estimate times the safety factor
    s = TIME_ERROR_SAFETY = 2 -- is at least the end error against the same
    window split to 1/1024."""
    gamma = _time_error_window(kind, seed, cells, bound)
    nodes = gamma.proto.nodes()

    def end(dt):
        # one march, split uniformly at dt
        with mock.patch.object(evolution, "COARSEST_DT", dt):
            res = local_evolve(gamma, tol=1e-13, finest_dt=dt)
        return res.path.end().disp.eval(nodes), res.segments[0].time_error

    assert evolution.COARSEST_DT == 1.0 / 16 and evolution.TIME_ERROR_SAFETY == 2.0
    ref = end(1.0 / 1024)[0]
    for cells_per_window in (16, 32, 64, 128, 256):
        got, time_error = end(1.0 / cells_per_window)
        assert np.max(np.abs(got - ref)) <= time_error


def test_budgeted_split_takes_the_coarsest_step_within_the_budget():
    gamma = rotation_plateau_velocity(omega=0.3)
    window = gamma.subdivide(choose_subdivision(gamma), 0)
    res = local_evolve(window)
    diag = res.segments[0]
    assert diag.time_error <= evolution.TIME_ERROR_BUDGET
    # the window went from 16 to 32 cells, because 16 were over budget
    assert res.path.grid.ncells == 32 and diag.resolves == 1
    # at the cap the estimate is reported, over budget or not
    capped = local_evolve(window, finest_dt=1.0 / 16)
    assert capped.path.grid.ncells == 16 and capped.segments[0].resolves == 0
    assert capped.segments[0].time_error > evolution.TIME_ERROR_BUDGET


def test_time_error_is_inf_below_three_cells_per_velocity_cell(gamma):
    assert gamma.grid.ncells == 4
    assert local_evolve(gamma, finest_dt=1.0 / 8).segments[0].time_error == np.inf
    assert np.isfinite(local_evolve(gamma, finest_dt=1.0 / 12).segments[0].time_error)


#: sha256 of the knots, start and stacked density coefficients of evolve
#: with every window split uniformly to 1/256 of the original time, taken
#: when that uniform split was the only split (numpy 2.4, x86-64)
_UNIFORM_DIGESTS = {
    "compact": "a4f40daf6bd4a6549fb6b2a01c3dfb0d2b604d02219e0d1c7eebdc660c248f84",
    "compact_windows": "9a8d450d8a841a0ef68df7eec1883603e67cf134d73c341624bdbd08028afa56",
    "torus": "1dcae78f2bb86640dda6823b0ca1e4384074803654afdab45025a2cd685fc2e6",
}


@pytest.mark.parametrize("case", sorted(_UNIFORM_DIGESTS))
def test_the_finest_split_keeps_the_uniform_digests(monkeypatch, case):
    gamma = {
        "compact": lambda: random_smooth_velocity(42, target_bound=0.3),
        "compact_windows": lambda: random_smooth_velocity(5, grid=16, cells=2, target_bound=1.2),
        "torus": lambda: random_smooth_torus_velocity(11, grid=12, cells=4, target_bound=0.6),
    }[case]()
    # a coarsest step of 0 starts the budgeted split at its finest step
    monkeypatch.setattr(evolution, "COARSEST_DT", 0.0)
    res = evolve(gamma)
    digest = hashlib.sha256()
    for arr in (res.path.grid.knots, res.path.start.coeffs, res.path.stacked.coeffs):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert res.path.grid.ncells == 256
    assert digest.hexdigest() == _UNIFORM_DIGESTS[case]


# -- field-valued solver -----------------------------------------------------

def test_local_evolve_zero_is_neutral():
    gamma = zero_velocity(cells=2)
    res = local_evolve(gamma)
    assert res.residual == 0.0
    assert not np.any(res.path.stacked.coeffs)
    # the march converges at once: one block sweep and the certificate
    diag = res.segments[0]
    assert (diag.iterations, diag.last_change, diag.contraction, diag.residual_bound) == (2, 0.0, 0.0, 0.0)
    assert diag.time_error == 0.0 and diag.resolves == 0
    assert res.path.grid.ncells == 16


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
    first = local_evolve(gamma.subdivide(2, 0), finest_dt=2.0 / 256)
    second = local_evolve(gamma.subdivide(2, 1), finest_dt=2.0 / 256)
    glued = star(second.path.end(), first.path.end())
    end = res.path.end()
    defect = (glued.disp - end.disp).sup_seminorm()
    assert defect < 1e-6


def test_residual_of_solution_is_small(gamma):
    res = evolve(gamma)
    assert res.residual < 1e-3
    # a deliberately wrong path has a visibly larger defect
    bad = res.path
    bad_scaled = type(bad)(bad.grid, stack_fields([f.scaled(0.5) for f in bad.density]), bad.start)
    assert residual(gamma, bad_scaled) > 10.0 * res.residual


def _evolve_per_cell(gamma, n):
    """Density coefficients of evolve(gamma, forced_n=n) the plain way: a
    fresh solve of every window and one right translation per cell."""
    A = identity_like(gamma.proto)
    coeffs = []
    for k in range(n):
        seg = local_evolve(gamma.subdivide(n, k), finest_dt=evolution.FINEST_DT * n)
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


def test_evolve_with_one_window_is_local_evolve(gamma):
    res, ref = evolve(gamma, forced_n=1), local_evolve(gamma)
    assert res.n == 1 and res.segments == ref.segments
    for arr, ref_arr in [(res.path.grid.knots, ref.path.grid.knots), (res.path.start.coeffs, ref.path.start.coeffs),
                         (res.path.stacked.coeffs, ref.path.stacked.coeffs)]:
        assert np.array_equal(arr, ref_arr)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evolve_forms_the_product_only_between_windows(monkeypatch, n):
    products = []
    monkeypatch.setattr(evolution, "star", lambda *a: products.append(1) or star(*a))
    evolve(random_smooth_torus_velocity(11, grid=12, cells=4, target_bound=0.3), forced_n=n)
    assert len(products) == n - 1


@pytest.mark.parametrize("L_max", [1.5, float("nan"), -1.0])
def test_forced_subdivision_checks_L_max(L_max):
    # L = 1.2: with L_max = 1.5 one window would solve a non-contraction
    gamma = random_smooth_velocity(3, grid=16, cells=2, target_bound=1.2)
    with pytest.raises(ValueError, match=r"L_max must lie in \(0, 1\]"):
        evolve(gamma, L_max=L_max, forced_n=1)


def test_forced_window_over_budget_names_forced_n():
    gamma = random_smooth_velocity(3, grid=16, cells=2, target_bound=1.2)
    with pytest.raises(ValueError, match="larger forced_n"):
        evolve(gamma, forced_n=2)


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
    # equalize: same alpha in every cell by using one field throughout
    const = TimeVelocity(gamma.grid, [gamma.fields[0]] * gamma.grid.ncells, gamma.p)
    tot = contraction_bound(const)
    for n in [1, 2, 4, 8, 16]:
        assert window_budgets(const, n) == pytest.approx(np.full(n, tot / n), rel=1e-12)


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
