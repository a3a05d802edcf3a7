"""Picard evolution: the integral operator, the fixed-point solver, the
subdivision machinery, and oracle comparisons against RK4."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evolflow.ac_path import ContinuousTrace
from evolflow import evolution
from evolflow.diff_group import GroupPath, d_rho, group_path_distance, star
from evolflow.evolution import (
    EvolutionResult,
    TimeVelocity,
    apply_T,
    choose_subdivision,
    continuity_probe,
    contraction_bound,
    evolve,
    flow_point,
    local_evolve,
    residual,
    rk4_points,
    window_budgets,
)
from evolflow.instances import (
    random_plateau_field,
    random_smooth_torus_velocity,
    random_smooth_velocity,
    random_trace,
    rotation_plateau_velocity,
    translation_plateau_velocity,
    zero_velocity,
)
from evolflow.lp_space import TimeGrid, lp_norm
from evolflow.vector_field import CompactField, _SplineField
from conftest import displaced, marching_all_nodes, result_bytes, rk4_by_eval, stack_fields, unstack


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
    # the budget is the L^1 norm of t -> alpha(gamma(t))
    widths, alpha = gamma.grid.widths(), gamma.alpha_values()
    l1, lp = lp_norm(widths, alpha, 1.0), lp_norm(widths, alpha, gamma.p)
    # Hoelder on the unit interval: the L^1 budget never exceeds the L^p one
    assert gamma.p > 1.0 and l1 <= lp + 1e-14
    assert contraction_bound(gamma) == pytest.approx(l1, rel=1e-12)


# -- closed-form flows and the RK4 oracle ------------------------------------

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


def test_rk4_fourth_order(rotation):
    # start points in the taper region, where the field is genuinely nonlinear
    xs = np.array([[0.87, 0.5], [0.5, 0.14]])
    ref = rk4_points(rotation, xs, 16384)[-1]
    e1 = np.max(np.abs(rk4_points(rotation, xs, 16)[-1] - ref))
    e2 = np.max(np.abs(rk4_points(rotation, xs, 32)[-1] - ref))
    assert e1 / e2 == pytest.approx(16.0, rel=0.25)


def _cell_change_share(gamma, traj) -> float:
    """Share of the RK4 steps in which some point's grid cell changes."""
    floors = gamma.proto._locate(traj.reshape(-1, gamma.dimension))[0].reshape(traj.shape)
    return float(np.mean(np.any(np.diff(floors, axis=0) != 0, axis=(1, 2))))


@pytest.mark.parametrize("case", ["compact_2d", "periodic_wrap", "fast", "one_component_1d", "compact_3d"])
def test_rk4_points_steps_bit_for_bit_as_eval(case):
    rng = np.random.default_rng(11)
    gamma, xs, steps = {
        "compact_2d": lambda: (random_smooth_velocity(7, grid=16, cells=3), rng.uniform(0.15, 0.85, (40, 2)), 256),
        "periodic_wrap": lambda: (random_smooth_torus_velocity(7, grid=12, cells=2, target_bound=3.0),
                                  rng.uniform(0.0, 1.0, (40, 2)), 256),
        "fast": lambda: (random_smooth_velocity(7, grid=12, cells=2, target_bound=5.0),
                         rng.uniform(0.3, 0.7, (20, 2)), 16),
        "one_component_1d": lambda: (random_smooth_velocity(7, dim=1, grid=16, cells=2),
                                     rng.uniform(0.15, 0.85, (20, 1)), 256),
        "compact_3d": lambda: (random_smooth_velocity(7, dim=3, grid=10, cells=2), rng.uniform(0.2, 0.8, (20, 3)), 64),
    }[case]()
    got = rk4_points(gamma, xs, steps)
    assert got.shape == (steps + 1,) + xs.shape
    assert np.array_equal(got, rk4_by_eval(gamma, xs, steps))
    if case == "periodic_wrap":
        # some points leave the unit cell, so their grid coordinates wrap
        assert np.any(np.floor(got[-1]) != np.floor(got[0]))
    if case == "fast":
        assert _cell_change_share(gamma, got) > 0.5


def test_rk4_points_nan_start_gives_a_nan_row():
    # a NaN point's floors never equal the held ones, so it gathers at every stage
    gamma = random_smooth_velocity(7, grid=16, cells=2)
    xs = np.random.default_rng(3).uniform(0.2, 0.8, (6, 2))
    xs[2] = np.nan
    with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
        got = rk4_points(gamma, xs, 64)
        ref = rk4_by_eval(gamma, xs, 64)
    assert np.all(np.isnan(got[:, 2]))
    assert np.array_equal(got, ref, equal_nan=True)
    ok = np.isfinite(xs).all(axis=1)
    assert np.array_equal(got[:, ok], rk4_points(gamma, xs[ok], 64))


def test_rk4_points_steps_a_batch_as_each_case_alone():
    rng = np.random.default_rng(12)
    gammas = [random_smooth_velocity(seed, grid=16, cells=2, target_bound=0.5) for seed in (1, 2, 3)]
    starts = [rng.uniform(0.15, 0.85, (30, 2)) for _ in gammas]
    got = rk4_points(gammas, np.concatenate(starts), 512)
    alone = [rk4_points(g, xs, 512) for g, xs in zip(gammas, starts)]
    assert np.array_equal(got, np.concatenate(alone, axis=1))
    assert np.array_equal(got, np.concatenate([rk4_by_eval(g, xs, 512) for g, xs in zip(gammas, starts)], axis=1))
    # at 90 points some stage of the batch gathers where a case alone would not
    assert _cell_change_share(gammas[0], got) > max(_cell_change_share(g, t) for g, t in zip(gammas, alone))
    with pytest.raises(ValueError, match="do not split evenly"):
        rk4_points(gammas, np.concatenate(starts)[:-1], 4)
    with pytest.raises(ValueError, match="different grids"):
        rk4_points([gammas[0], random_smooth_torus_velocity(1, grid=16, cells=2)], np.concatenate(starts[:2]), 4)
    with pytest.raises(ValueError, match="time grid"):
        rk4_points([gammas[0], random_smooth_velocity(4, grid=16, cells=4)], np.concatenate(starts[:2]), 4)


# -- the march against the global sweep ----------------------------------------

def _global_picard(gamma, grid, cellmap, nodes, tol, max_iter):
    """Reference solver: Jacobi waveform relaxation, `_T` iterated over the
    whole grid from the zero displacement until the change falls below tol."""
    w = grid.widths()
    zeta = np.zeros((grid.knots.size,) + nodes.shape)
    change = np.inf
    stalled = 0
    for it in range(1, max_iter + 1):
        new, g = evolution._T(gamma, cellmap, w, 0.0, nodes, zeta)
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


@pytest.mark.parametrize("case", ["compact_local_evolve", "compact_jump", "torus_window", "led_torus_window"])
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
    elif case == "led_torus_window":
        # the same windows perturbed, each block started from the base's
        gamma = random_smooth_torus_velocity(11, grid=12, cells=4, target_bound=0.6)
        delta = random_smooth_torus_velocity(12, grid=12, cells=4, target_bound=0.006)
        record = {}
        evolve(gamma, forced_n=2, tol=tol, record=record)
        result, calls = _marches(monkeypatch, lambda: evolve(gamma + delta, forced_n=2, tol=tol, leads=[(1.0, record)]))
        assert all(args[5] is not None for args, _ in calls)
        diags = result.segments
    # each solve marches once more for every split it refined; its
    # diagnostics are those of its last march
    assert len(calls) == sum(1 + diag.resolves for diag in diags) > 0
    last = dict(zip(np.cumsum([1 + diag.resolves for diag in diags]) - 1, diags))
    for i, (args, (zeta, g, iters, change)) in enumerate(calls):
        L = contraction_bound(args[0])
        ref, ref_g = _global_picard(*args[:4], tol=1e-14, max_iter=200)
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
        assert np.array_equal(zeta[1:], np.cumsum(args[1].widths()[:, None, None] * g, axis=0))
        if i in last:
            diag = last[i]
            assert diag.last_change == change and diag.contraction == L
            assert diag.residual_bound == pytest.approx(bound, rel=1e-15)


def _evaluated_rows(monkeypatch):
    """The number of cells of every velocity evaluation made from now on."""
    rows = []
    eval_cells = TimeVelocity.eval_cells
    monkeypatch.setattr(TimeVelocity, "eval_cells",
                        lambda self, cells, pts: rows.append(cells.size) or eval_cells(self, cells, pts))
    return rows


def test_march_out_of_iterations_names_the_block(monkeypatch):
    # two sweeps shrink the change of the first block but leave it above tol
    monkeypatch.setattr(evolution, "PICARD_MAX_ITER", 2)
    gamma = random_smooth_velocity(7, grid=24, cells=3, target_bound=0.4)
    block = r"of the block of refined cells \[0, 4\) \(t in \[0, [0-9.]+\]; last change [0-9.e-]+, tol=1e-11\)"
    with pytest.raises(RuntimeError, match=r"did not reach tol in 2 iterations, at iteration 2 " + block):
        local_evolve(gamma)


def test_march_work_on_the_compact_fixture(monkeypatch):
    """The rows the march of the compact local_evolve fixture evaluates; the
    certificate costs none.  The count is deterministic: a rise means blocks
    need more iterations of `_T` than the extrapolated start gives them."""
    rows = _evaluated_rows(monkeypatch)
    # one march, split uniformly at FINEST_DT
    monkeypatch.setattr(evolution, "COARSEST_DT", evolution.FINEST_DT)
    local_evolve(random_smooth_velocity(7, grid=24, cells=3, target_bound=0.4), tol=1e-11)
    # 1044 rows when every block started from its previous block's last
    # velocity held constant, 560 with a whole-grid certificate sweep
    assert sum(rows) == 302


def test_march_evaluates_one_block_at_a_time(monkeypatch):
    """No whole-grid sweep: every velocity evaluation inside a march covers
    at most one block of `MARCH_BLOCK` refined cells."""
    rows = _evaluated_rows(monkeypatch)
    gamma = random_smooth_velocity(7, grid=24, cells=3, target_bound=0.4)
    # local_evolve evaluates velocities inside its marches only
    _, calls = _marches(monkeypatch, lambda: local_evolve(gamma, tol=1e-11))
    assert calls and rows and max(rows) <= evolution.MARCH_BLOCK


def test_residual_evaluates_one_block_of_rows_per_call(gamma, monkeypatch):
    """`residual` evaluates the velocity at every refined knot of the path,
    but no single `eval` call takes more than `MARCH_BLOCK` rows of nodes."""
    res = evolve(gamma, forced_n=2)
    points = []
    plain = _SplineField.eval
    monkeypatch.setattr(_SplineField, "eval", lambda self, pts: points.append(len(pts)) or plain(self, pts))
    assert res.residual < 1e-3
    assert points and max(points) <= evolution.MARCH_BLOCK * len(gamma.proto.nodes())


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
    assert got.tobytes() == _predict_reference(mids, w, cellmap, 4, 8, g).tobytes()


def _predict_reference(mids, w, cellmap, lo, hi, g):
    """`evolution._predict` written with np.delete and np.cumsum: the bits
    its slices and row adds must give."""
    k = 0
    while k < len(g) and cellmap[lo - 1 - k] == cellmap[lo]:
        k += 1
    k = max(k, 1)
    x, y = mids[lo - k:lo], mids[lo:hi]
    weights = np.empty((hi - lo, k))
    for j in range(k):
        others = np.delete(x, j)
        weights[:, j] = np.prod((y[:, None] - others) / (x[j] - others), axis=1)
    return np.cumsum(w[lo:hi, None, None] * np.tensordot(weights, g[-k:], axes=1), axis=0)


def test_eval_cells_reads_each_row_from_its_cell(rng):
    """A block of one cell, a block of three runs of cells and a short last
    block, each run read as one slice, give the bits of evaluating each
    cell's rows on their own."""
    gamma = random_smooth_velocity(3, grid=12, cells=4)
    cells = np.array([0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 3])
    pts = rng.uniform(0.0, 1.0, size=(cells.size, 7, 2))
    got = gamma.eval_cells(cells, pts)
    want = np.empty_like(pts)
    for lo in range(0, cells.size, evolution.MARCH_BLOCK):
        block = cells[lo:lo + evolution.MARCH_BLOCK]
        for ci in np.unique(block):
            rows = lo + np.flatnonzero(block == ci)
            want[rows] = gamma.fields[ci].eval(pts[rows].reshape(-1, 2)).reshape(rows.size, 7, 2)
    assert np.array_equal(got, want)


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
        return res.path.end().eval(nodes), res.segments[0].time_error

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
#: with every window split uniformly to 1/256 of the original time (numpy
#: 2.4, x86-64), taken when the march returned T of the knots its blocks
#: last read; the coefficients then moved by at most 1.5e-12, 5.2e-12 and
#: 5.3e-12 from those of one more whole-grid sweep.  Re-pinned when the
#: spline stencil was summed one axis at a time: the knots and starts kept
#: their bits, and the largest density coefficient moved by 9.5e-17
#: (compact), 4.4e-16 (compact_windows) and 3.3e-16 (torus).  Re-pinned
#: when node values were prefiltered by the cached inverse of the node
#: matrix and the noise smoothed by numpy: the knots and starts kept their
#: bits, and the largest density coefficient moved by the amount beside
#: each case
_UNIFORM_DIGESTS = {
    "compact": "5d97d1136326c3d8b771138c69ba917e0a7269bbaf11479f643dbfb00c7c2509",  # 4.5e-17
    "compact_windows": "63545482e948161f6b31ec27bad934432d28924835e445ea9d83a6fba2403982",  # 5.3e-16
    "torus": "b612c9e7b4cee150fbbf2cea54af8d18d0ee0812e084acbacece1072f61e6fdd",  # 3.1e-16
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
    # the march converges at once: one block sweep, and the certificate
    # reads the velocities that sweep evaluated
    diag = res.segments[0]
    assert (diag.iterations, diag.last_change, diag.contraction, diag.residual_bound) == (1, 0.0, 0.0, 0.0)
    assert diag.time_error == 0.0 and diag.resolves == 0
    assert res.path.grid.ncells == 16


def test_local_evolve_translation(rng):
    v = np.array([0.04, -0.03])
    gamma = translation_plateau_velocity(v=tuple(v))
    res = evolve(gamma, tol=1e-12)
    pts = 0.5 + rng.uniform(-0.15, 0.15, size=(30, 2))
    for t in [0.5, 1.0]:
        moved = displaced(res.path.field_at(t), pts)
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
    defect = (glued - end).sup_seminorm()
    assert defect < 1e-6


def test_residual_of_solution_is_small(gamma):
    res = evolve(gamma)
    assert res.residual < 1e-3
    # a deliberately wrong path has a visibly larger defect
    bad = res.path
    bad_scaled = type(bad)(bad.grid, stack_fields([f.scaled(0.5) for f in unstack(bad)]), bad.start)
    assert residual(gamma, bad_scaled) > 10.0 * res.residual


def _evolve_per_cell(gamma, n):
    """Density coefficients of evolve(gamma, forced_n=n) the plain way: a
    fresh solve of every window and one right translation per cell."""
    A = gamma.proto.zero_like()
    coeffs = []
    for k in range(n):
        seg = local_evolve(gamma.subdivide(n, k), finest_dt=evolution.FINEST_DT * n)
        for D in unstack(seg.path):
            coeffs.append((D if k == 0 else d_rho(A, D)).scaled(float(n)).coeffs)
        A = star(seg.path.end(), A)
    return coeffs


def _evolve_by_products(gamma, n):
    """evolve(gamma, forced_n=n) the plain way: a fresh solve of every
    window, each density moved by its own ``d_rho`` and the product of the
    windows formed by ``star``."""
    A = gamma.proto.zero_like()
    knots, parts, segments = [0.0], [], []
    for k in range(n):
        seg = local_evolve(gamma.subdivide(n, k), finest_dt=evolution.FINEST_DT * n)
        segments.append(seg.segments[0])
        knots.extend(((seg.path.grid.knots + k) / n)[1:].tolist())
        parts.append((seg.path.stacked if k == 0 else d_rho(A, seg.path.stacked)).coeffs)
        A = star(seg.path.end(), A)
    path = GroupPath(TimeGrid(np.array(knots)), gamma.proto.with_coeffs(np.concatenate(parts, axis=-1) * float(n)))
    return EvolutionResult(path, n, segments, gamma)


GLUED_CASES = ["compact_repeated_windows", "torus", "compact_repeated_windows_1d", "torus_1d"]


def _glued_case(case):
    """A velocity and the window count n it is glued from."""
    # in 1-d each cell alone is a one-component field
    dim = 1 if case.endswith("_1d") else 2
    if case.startswith("torus"):
        return random_smooth_torus_velocity(11, dim=dim, grid=12, cells=4, target_bound=0.6), 4
    # n = 8 windows over 2 cells: windows repeat four times each
    return random_smooth_velocity(5, dim=dim, grid=16, cells=2, target_bound=0.6), 8


@pytest.mark.parametrize("case", GLUED_CASES)
def test_evolve_has_the_bits_of_separate_products(case):
    """An end that rides with its window's density through one ``d_rho``
    gives the product ``star`` gives, and the density the bits of its own
    ``d_rho``."""
    gamma, n = _glued_case(case)
    assert result_bytes(evolve(gamma, forced_n=n)) == result_bytes(_evolve_by_products(gamma, n))


@pytest.mark.parametrize("case", GLUED_CASES)
def test_evolve_density_matches_per_cell_gluing(case):
    gamma, n = _glued_case(case)
    res = evolve(gamma, forced_n=n)
    ref = _evolve_per_cell(gamma, n)
    assert len(unstack(res.path)) == len(ref)
    assert all(np.array_equal(D.coeffs, c) for D, c in zip(unstack(res.path), ref))


def test_evolve_with_one_window_is_local_evolve(gamma):
    res, ref = evolve(gamma, forced_n=1), local_evolve(gamma)
    assert res.n == 1 and res.segments == ref.segments
    for arr, ref_arr in [(res.path.grid.knots, ref.path.grid.knots), (res.path.start.coeffs, ref.path.start.coeffs),
                         (res.path.stacked.coeffs, ref.path.stacked.coeffs)]:
        assert np.array_equal(arr, ref_arr)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_evolve_forms_the_product_only_between_windows(monkeypatch, n):
    """A window's end enters the product by ``star`` (window 0) or riding
    with its density through ``d_rho`` (a later window); each end once."""
    ends, products = [], []
    end = GroupPath.end
    monkeypatch.setattr(GroupPath, "end", lambda self: ends.append(end(self)) or ends[-1])
    monkeypatch.setattr(evolution, "star", lambda phi, psi: products.append(phi) or star(phi, psi))

    def rho(psi, vf):
        if ends and np.array_equal(vf.coeffs[..., -ends[-1].ncomp:], ends[-1].coeffs):
            products.append(ends[-1])
        return d_rho(psi, vf)

    monkeypatch.setattr(evolution, "d_rho", rho)
    evolve(random_smooth_torus_velocity(11, grid=12, cells=4, target_bound=0.3), forced_n=n)
    assert len(products) == len(ends) == n - 1
    assert all(p is e for p, e in zip(products, ends))


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


def _led_marches(monkeypatch):
    """(refined cells, led, recording) of every march made from now on."""
    marches = []
    march = evolution._picard_march
    monkeypatch.setattr(evolution, "_picard_march", lambda *a: marches.append(
        (a[1].ncells, a[5] is not None, a[6] is not None)) or march(*a))
    return marches


@pytest.mark.parametrize("forced_n", [None, 2])
@pytest.mark.parametrize("kind", ["compact", "torus"])
def test_continuity_probe_matches_independent_solves(monkeypatch, kind, forced_n):
    """The perturbed levels solved from the records of the base and levels 0
    and 1 land within 1e-10 of independent solves.  Each case has a window
    whose coarse split the base rejected by a wide margin, so the levels
    skip that march."""
    make = random_smooth_velocity if kind == "compact" else random_smooth_torus_velocity
    grid = 12 if kind == "compact" else 10
    gamma = make(1 if kind == "compact" else 6, grid=grid, cells=2, target_bound=0.9 if forced_n is None else 0.45)
    delta = make(99, grid=grid, cells=2, target_bound=0.01)
    marches = _led_marches(monkeypatch)
    out = continuity_probe(gamma, delta, levels=3, forced_n=forced_n)
    monkeypatch.undo()
    base = evolve(gamma, forced_n=forced_n)
    assert base.n == (4 if forced_n is None else 2)
    for scale, dist in out:
        ref = group_path_distance(evolve(gamma + delta.scaled(scale), forced_n=forced_n).path, base.path, p=gamma.p)
        assert abs(dist - ref) <= 1e-10
    # the base records each of its marches; levels 0 and 1 are led and
    # record theirs, then level 2 is led; each level skips the coarse march
    # the base rejected
    kinds = [(led, rec) for _, led, rec in marches]
    based = kinds.count((False, True))
    anchors = kinds.count((True, True))
    assert kinds == [(False, True)] * based + [(True, True)] * anchors + [(True, False)] * (len(kinds) - based - anchors)
    assert 0 < anchors < 2 * based and len(kinds) - based < 3 * based


def test_a_level_off_the_base_split_is_solved_as_today(monkeypatch):
    """A level whose n differs from the base's makes the marches of a plain
    solve, none led; so does a march on a split finer than any the base
    made.  The last march of a window decides its path, so where it is not
    led the path has the bits of the plain solve."""
    gamma = random_smooth_velocity(1, grid=12, cells=2, target_bound=0.3)
    record = {}
    assert evolve(gamma, record=record).n == 1
    # 16 cells over the budget by more than the margin, so no moves are
    # kept for them; 32 cells within it
    (window,) = record.values()
    assert list(window) == [1 / 16, 1 / 32] and window[1 / 16] is None and window[1 / 32] is not None
    marches = _led_marches(monkeypatch)
    # twice the velocity: a budget of 0.6 takes n = 2, no window of the base
    twice = gamma + gamma
    led = evolve(twice, leads=[(1.0, record)])
    led_marches = list(marches)
    del marches[:]
    plain = evolve(twice)
    assert led.n == 2 and led_marches == marches
    assert not any(lead for _, lead, _ in marches)
    assert np.array_equal(led.path.stacked.coeffs, plain.path.stacked.coeffs)
    # 1.1 times the velocity: the same n, and over budget at the base's 32 cells
    del marches[:]
    bigger = gamma + gamma.scaled(0.1)
    led = evolve(bigger, leads=[(1.0, record)])
    assert marches == [(32, True, False), (64, False, False)]
    del marches[:]
    plain = evolve(bigger)
    assert marches == [(16, False, False), (32, False, False), (64, False, False)]
    assert np.array_equal(led.path.stacked.coeffs, plain.path.stacked.coeffs)


def test_a_solve_led_by_its_own_record_starts_on_its_knots():
    """Led by its own record, a solve skips the split it rejected and each
    block converges in its first iteration: it starts on the knots the base
    ended on, up to one rounding."""
    gamma = random_smooth_torus_velocity(6, grid=10, cells=2, target_bound=0.9)
    record = {}
    base = evolve(gamma, record=record)
    again = evolve(gamma, leads=[(1.0, record)])
    assert any(diag.resolves for diag in base.segments)
    assert all(diag.iterations == 1 and diag.resolves == 0 for diag in again.segments)
    assert np.max(np.abs(again.path.stacked.coeffs - base.path.stacked.coeffs)) < 1e-14


def _level_T_calls(monkeypatch, run) -> int:
    """`_T` calls made by marches that are led and record nothing, as the
    levels k >= 2 of a continuity probe are."""
    state = {"led_only": False, "calls": 0}
    march, T = evolution._picard_march, evolution._T

    def counted_march(*a):
        state["led_only"] = a[5] is not None and a[6] is None
        return march(*a)

    def counted_T(*a):
        state["calls"] += state["led_only"]
        return T(*a)

    with monkeypatch.context() as m:
        m.setattr(evolution, "_picard_march", counted_march)
        m.setattr(evolution, "_T", counted_T)
        run()
    return state["calls"]


def test_continuity_levels_led_by_the_quadratic_make_fewer_T_calls(monkeypatch):
    """On a small torus fixture, the levels k >= 2 led by the quadratic
    through the base and levels 0 and 1 make a pinned number of `_T` calls
    (the count is deterministic; a rise means the lead got worse), against
    the 47 of the same levels led by the base alone."""
    gamma = random_smooth_torus_velocity(6, grid=10, cells=2, target_bound=0.9)
    delta = random_smooth_torus_velocity(99, grid=10, cells=2, target_bound=0.01)
    quadratic = _level_T_calls(monkeypatch, lambda: continuity_probe(gamma, delta, levels=4))
    record = {}
    evolve(gamma, record=record)
    base_led = _level_T_calls(monkeypatch, lambda: [
        evolve(gamma + delta.scaled(2.0 ** -k), leads=[(1.0, record)]) for k in (2, 3)])
    assert (quadratic, base_led) == (24, 47)


def test_continuity_level_0_is_the_solve_led_by_the_base_alone():
    """Level 0's lead is the base's moves times 1.0, which is exact, so its
    distance has the bits of a solve led by the base's record alone."""
    gamma = random_smooth_torus_velocity(6, grid=10, cells=2, target_bound=0.9)
    delta = random_smooth_torus_velocity(99, grid=10, cells=2, target_bound=0.01)
    out = continuity_probe(gamma, delta, levels=2)
    record = {}
    base = evolve(gamma, record=record)
    led = evolve(gamma + delta, leads=[(1.0, record)])
    assert out[0] == (1.0, group_path_distance(led.path, base.path, p=gamma.p))


def test_continuity_levels_are_led_by_the_lagrange_weights_bit_for_bit(monkeypatch):
    """The base records unled; level 0 is led by the base's record times
    1.0 and level 1 by the mean of the base's and level 0's, and both
    record; each level k >= 2 is led by the three records with weights
    equal to the closed forms of the quadratic through s = 0, 1 and 1/2 at
    s = 2^-k, and records nothing."""
    gamma = random_smooth_torus_velocity(6, grid=10, cells=2, target_bound=0.9)
    delta = random_smooth_torus_velocity(99, grid=10, cells=2, target_bound=0.01)
    calls = []
    solve = evolution.evolve
    monkeypatch.setattr(evolution, "evolve", lambda g, leads=None, record=None, **kw: calls.append(
        (leads, record)) or solve(g, leads=leads, record=record, **kw))
    continuity_probe(gamma, delta, levels=6)
    assert len(calls) == 7
    (base_leads, base), (leads_0, r0), (leads_1, r1) = calls[:3]
    assert base_leads is None and isinstance(base, dict) and base
    assert isinstance(r0, dict) and isinstance(r1, dict)

    def same(leads, expected):
        return [w for w, _ in leads] == [w for w, _ in expected] and all(
            rec is want for (_, rec), (_, want) in zip(leads, expected))

    assert same(leads_0, [(1.0, base)])
    assert same(leads_1, [(0.5, base), (0.5, r0)])
    for k, (leads, record) in enumerate(calls[3:], start=2):
        s = 2.0 ** (-k)
        closed = (2.0 * (s - 1.0) * (s - 0.5), 2.0 * s * (s - 0.5), -4.0 * s * (s - 1.0))
        assert record is None and same(leads, list(zip(closed, (base, r0, r1))))


# -- still nodes ---------------------------------------------------------------

def _one_face_velocity():
    """Coefficients nonzero in a band that reaches the zero margin of the
    low face of axis 0 and lies far from the other faces."""
    coeffs = np.random.default_rng(3).normal(size=(16, 16, 2))
    coeffs[8:] = 0.0
    coeffs[:, :5] = coeffs[:, 11:] = 0.0
    gamma = TimeVelocity(TimeGrid.uniform(0.0, 1.0, 1), [CompactField([0.0, 0.0], 1.0 / 15, coeffs)], 2.0)
    return gamma.scaled(0.4 / contraction_bound(gamma))


STILL_CASES = {
    "compact_margin_2": lambda: random_smooth_velocity(3, grid=16, cells=2, target_bound=0.4, margin=2),
    "compact_margin_3": lambda: random_smooth_velocity(7, grid=24, cells=3, target_bound=0.4),
    "rotation_plateau": lambda: rotation_plateau_velocity(omega=0.3, grid=32),
    "one_face": _one_face_velocity,
    "torus": lambda: random_smooth_torus_velocity(11, grid=12, cells=4, target_bound=0.3),
    "zero": lambda: zero_velocity(grid=12, cells=2),
    # n = 4 windows glued
    "glued": lambda: random_smooth_velocity(5, grid=16, cells=2, target_bound=1.2),
}


@pytest.mark.parametrize("case", list(STILL_CASES))
def test_skipping_still_nodes_keeps_every_bit(case):
    """`evolve` and `local_evolve` march only the nodes a velocity can move,
    and return the bits of marching every node, signed zeros included."""
    gamma = STILL_CASES[case]()
    share = evolution._still(gamma.fields, gamma.proto.nodes()).mean()
    assert share == 0.0 if case == "torus" else share == 1.0 if case == "zero" else 0.0 < share < 1.0
    n = choose_subdivision(gamma)
    assert n > 1 or case != "glued"
    window = gamma.subdivide(n, 0)
    solves = [lambda: evolve(gamma), lambda: local_evolve(window, finest_dt=evolution.FINEST_DT * n)]
    with marching_all_nodes():
        refs = [solve() for solve in solves]
    for solve, ref in zip(solves, refs):
        assert result_bytes(solve()) == result_bytes(ref)


def test_a_node_wrongly_marked_still_changes_the_bits():
    """The comparison sees a wrong skip: marking still the slowest node that
    a velocity cell moves, next to the still ones, changes the result.  (A
    node whose patch holds a nonzero coefficient only where its B-spline
    weight is 0 is not moved, so marking it still changes nothing.)"""
    gamma = STILL_CASES["compact_margin_3"]()
    nodes = gamma.proto.nodes()
    still = evolution._still(gamma.fields, nodes)
    with marching_all_nodes():
        ref = result_bytes(local_evolve(gamma))
    assert result_bytes(local_evolve(gamma)) == ref
    speed = sum(np.abs(f.eval(nodes)).sum(axis=1) for f in gamma.fields)
    moved = np.flatnonzero(speed > 0.0)
    assert not still[moved].any()
    wrong = still.copy()
    wrong[moved[np.argmin(speed[moved])]] = True
    with mock.patch.object(evolution, "_still", lambda fields, at: wrong.copy()):
        assert result_bytes(local_evolve(gamma)) != ref


@pytest.mark.parametrize("kind", ["plateau", "negated"])
def test_compact_continuity_probe_with_another_support_keeps_every_bit(monkeypatch, kind):
    """A perturbation whose support differs from the base's: a plateau field,
    nonzero out to the zero margin, or minus the base, which makes level 0
    the zero velocity, every node still in it.  The levels march other
    nodes than the base, led by its records, and land on the bits of
    marching every node."""
    gamma = random_smooth_velocity(1, grid=16, cells=2, target_bound=0.45)
    if kind == "plateau":
        field = random_plateau_field(4, grid=16, center=(0.3, 0.6), r_plateau=0.1, r_support=0.3, target_alpha=0.02)
        delta = TimeVelocity(gamma.grid, [field, field.scaled(-0.5)], gamma.p)
    else:
        delta = gamma.scaled(-1.0)
    marched = []
    march = evolution._picard_march
    # the velocity of each march and the nodes it marches
    monkeypatch.setattr(evolution, "_picard_march", lambda *a: marched.append((a[0], a[3])) or march(*a))
    out = continuity_probe(gamma, delta, levels=4)
    monkeypatch.undo()
    with marching_all_nodes():
        ref = continuity_probe(gamma, delta, levels=4)
    assert np.array(out).tobytes() == np.array(ref).tobytes()
    nodes = gamma.proto.nodes()
    assert max(len(m) for _, m in marched) <= len(nodes)
    if kind == "plateau":
        assert len({len(m) for _, m in marched}) > 1
    else:
        # level 0, the zero velocity, marches the nodes the base moves, not every node
        moved = nodes[sum(np.abs(f.eval(nodes)).sum(axis=1) for f in gamma.fields) > 0.0]
        level_0 = [m for v, m in marched if not any(f.coeffs.any() for f in v.fields)]
        assert level_0 and all(np.array_equal(m, moved) for m in level_0) and len(moved) < len(nodes)


@pytest.mark.parametrize("case", ["compact_margin_3", "one_face", "glued", "torus", "zero"])
def test_residual_skipping_still_nodes_keeps_every_bit(case):
    """`residual` skips the nodes still for the velocity and the path, on
    the path of the velocity and on that of another one; it is 0.0 on the
    zero velocity."""
    gamma = STILL_CASES[case]()
    path = evolve(gamma).path
    other = STILL_CASES["glued" if case == "one_face" else "one_face"]() if case in ("one_face", "glued") else gamma
    for velocity in (gamma, other):
        with marching_all_nodes():
            ref = residual(velocity, path)
        assert np.float64(residual(velocity, path)).tobytes() == np.float64(ref).tobytes()
    if case == "zero":
        assert residual(gamma, path) == 0.0


def _residual_from_knot_coeffs(gamma, path):
    """`residual` at every node, from the path's coefficients at the knots
    taken to the nodes by one lattice of all knots."""
    grid = gamma.grid.refine(path.grid)
    coeffs = path.coeffs_at(grid.knots)
    K, d = coeffs.shape[-2:]
    vals = path.stacked.with_coeffs(coeffs.reshape(coeffs.shape[:-2] + (K * d,))).on_lattice(1)
    vals = np.ascontiguousarray(np.moveaxis(vals.reshape(-1, K, d), 1, 0))
    cells = gamma.grid.cell_of(grid.midpoints())
    return float(np.max(np.abs(vals - evolution._T(gamma, cells, grid.widths(), 0.0, path.stacked.nodes(), vals)[0])))


@pytest.mark.parametrize("case", list(STILL_CASES) + ["glued_8"])
def test_residual_from_node_values_matches_the_knot_coefficients(case):
    """`residual` integrates the density's node values; the path's
    coefficients at the knots give the same defect up to round-off, also
    for a velocity with a knot inside a cell of the path."""
    gamma = STILL_CASES["glued" if case == "glued_8" else case]()
    path = evolve(gamma, forced_n=8 if case == "glued_8" else None).path
    edged = TimeVelocity(TimeGrid(np.array([0.0, 0.3, 1.0])), [gamma.fields[0], gamma.fields[-1]], gamma.p)
    assert 0.3 not in path.grid.knots
    # a defect at round-off (the torus path solves its velocity to it) is
    # compared on the scale of the displacements it is taken of
    scale = float(np.abs(path.coeffs_at(path.grid.knots)).max())
    for velocity in (gamma, edged):
        ref = _residual_from_knot_coeffs(velocity, path)
        assert abs(residual(velocity, path) - ref) <= 1e-12 * max(ref, scale)


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
