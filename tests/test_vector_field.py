"""Compactly supported and periodic spline fields: evaluation, Jacobians,
the Lipschitz seminorm, composition, and the binary file format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from conftest import lattice_points, lattice_sups, on_lattice, spectral_norms

from evolflow.instances import plateau_weight, random_plateau_field
from evolflow.vector_field import (
    ALPHA_DIV,
    ALPHA_SAFETY,
    COMPOSE_ENTRIES,
    CompactField,
    PeriodicField,
    load_field,
    resampling_estimate,
    _padded,
    save_field,
    vf_compose_displacement,
)


@pytest.fixture(scope="module")
def plateau():
    # constant value v on the plateau, tapered to zero support
    v = np.array([0.7, -0.2])
    grid = 48
    h = 1.0 / (grid - 1)

    def fn(pts):
        return plateau_weight(pts, (0.5, 0.5), 0.3, 0.44)[:, None] * v

    return CompactField.from_function(np.zeros(2), h, (grid, grid), fn, 2), v


@pytest.fixture(scope="module")
def random_field():
    return random_plateau_field(7, target_alpha=0.4)


# -- evaluation --------------------------------------------------------------

def test_zero_field_everywhere(rng):
    z = CompactField.zero(np.zeros(2), 0.1, (12, 12), 2)
    pts = rng.uniform(-1.0, 2.0, size=(50, 2))
    assert np.all(z.eval(pts) == 0.0)
    assert np.all(z.jacobian(pts) == 0.0)
    assert z.alpha() == 0.0


def test_outside_box_exact_zero(random_field, rng):
    f = random_field
    outside = np.concatenate([
        rng.uniform(1.01, 3.0, size=(20, 2)),
        rng.uniform(-2.0, -0.01, size=(20, 2)),
        np.array([[0.5, 1.7], [-0.3, 0.5]]),
    ])
    assert np.all(f.eval(outside) == 0.0)
    assert np.all(f.jacobian(outside) == 0.0)


def test_plateau_reproduces_constant(plateau, rng):
    f, v = plateau
    pts = 0.5 + rng.uniform(-0.1, 0.1, size=(100, 2))
    vals = f.eval(pts)
    # interpolation of the taper rings slightly into the plateau core
    assert np.max(np.abs(vals - v)) < 1e-7
    assert np.max(np.abs(f.jacobian(pts))) < 1e-5


def test_jacobian_vs_finite_differences(random_field, rng):
    f = random_field
    pts = rng.uniform(0.2, 0.8, size=(40, 2))
    jac = f.jacobian(pts)
    h_fd = 1e-5
    for ax in range(2):
        dp = np.zeros(2)
        dp[ax] = h_fd
        fd = (f.eval(pts + dp) - f.eval(pts - dp)) / (2.0 * h_fd)
        assert np.max(np.abs(jac[:, :, ax] - fd)) < 1e-6


def _scipy_eval(f, pts, mode):
    u = ((pts - f.lo) / f.h).T
    return np.stack([
        ndimage.map_coordinates(f.coeffs[..., c], u, order=3, prefilter=False, mode=mode)
        for c in range(f.ncomp)
    ], axis=1)


def _random_field(rng, periodic, d, ncomp):
    """A field of random coefficients on a grid of 9 to 11 nodes per axis,
    with its mode for scipy and the corners of its box or period."""
    if periodic:
        f = PeriodicField(rng.normal(size=(10,) * d + (ncomp,)))
        return f, "grid-wrap", f.lo, f.lo + 1.0
    f = CompactField(np.array([0.2, -0.1, 0.3])[:d], 0.1, rng.normal(size=(11, 9, 10)[:d] + (ncomp,)))
    return f, "grid-constant", f.lo, f.hi


def _probe_points(rng, lo, hi):
    """Interior points, points on each face and corner, just past the
    corners, outside the box, and shifted by whole periods."""
    d = lo.size
    inside = rng.uniform(lo, hi, size=(40, d))
    faces = inside[:4 * d].copy()
    for ax in range(d):
        faces[4 * ax:4 * ax + 2, ax], faces[4 * ax + 2:4 * ax + 4, ax] = lo[ax], hi[ax]
    outside = inside[8:16].copy()
    outside[:4, 0] += (hi - lo)[0] * rng.uniform(0.01, 1.5, size=4)
    outside[4:, -1] -= (hi - lo)[-1] * rng.uniform(0.01, 1.5, size=4)
    shifted = inside[16:24] + rng.integers(-3, 4, size=(8, d))
    corners = np.array([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])
    return np.concatenate([inside, faces, corners, outside, shifted])


@pytest.mark.parametrize("periodic", [False, True])
def test_eval_matches_scipy_spline(periodic, rng):
    # scipy's cubic B-spline evaluator on the same coefficients is an
    # independent implementation of the same tensor stencil
    for d in (1, 2, 3):
        for ncomp in (1, 2, 7):
            f, mode, lo, hi = _random_field(rng, periodic, d, ncomp)
            pts = _probe_points(rng, lo, hi)
            err = np.max(np.abs(f.eval(pts) - _scipy_eval(f, pts, mode)))
            assert err <= 1e-14, (d, ncomp, err)


@pytest.mark.parametrize("periodic", [False, True])
def test_stacked_components_evaluate_as_each_slice_alone(periodic, rng):
    # gluing evaluates the cells of a window stacked on the component axis
    # and relies on each cell's values being the bits of that cell alone
    for d in (1, 2, 3):
        f, _, lo, hi = _random_field(rng, periodic, d, 7)
        pts = _probe_points(rng, lo, hi)
        vals, jacs = f.eval(pts), f.jacobian(pts)
        for sl in (slice(0, 1), slice(1, 3), slice(3, 6), slice(6, 7)):
            alone = f.with_coeffs(f.coeffs[..., sl])
            assert np.array_equal(alone.eval(pts), vals[:, sl]), (d, sl)
            assert np.array_equal(alone.jacobian(pts), jacs[:, sl]), (d, sl)


@pytest.mark.parametrize("periodic", [False, True])
def test_nan_point_gives_a_nan_row(periodic, rng):
    # a NaN point's patch is clipped into the table, and its weights make
    # the row NaN; the other points of the call keep their values
    f, _, lo, hi = _random_field(rng, periodic, 2, 3)
    pts = rng.uniform(lo, hi, size=(6, 2))
    pts[1, 0], pts[4] = np.nan, np.nan
    ok = np.isfinite(pts).all(axis=1)
    for kernel in (f.eval, f.jacobian):
        with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
            out = kernel(pts)
        assert np.all(np.isnan(out[~ok]))
        assert np.array_equal(out[ok], kernel(pts[ok]))


@settings(max_examples=40, deadline=None)
@given(
    periodic=st.booleans(),
    d=st.integers(1, 3),
    div=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_lattice_sampler_matches_scattered_kernel(periodic, d, div, seed):
    rng = np.random.default_rng(seed)
    if periodic:
        f = PeriodicField(rng.normal(size=(int(rng.integers(5, 9)),) * d + (2,)))
    else:
        shape = tuple(rng.integers(5, 9, size=d))
        f = CompactField(rng.uniform(-1.0, 1.0, size=d), rng.uniform(0.05, 0.5), rng.normal(size=shape + (2,)))
    pts = lattice_points(f, div)
    tol = 1e-13 * np.max(np.abs(f.coeffs))
    vals, jacs = f.on_lattice(div), f.jacobian(pts)
    ders = [on_lattice(f, div, der=ax) for ax in range(d)]
    assert vals.shape == (len(pts), 2)
    assert np.max(np.abs(vals - f.eval(pts))) <= tol
    for ax in range(d):
        assert np.max(np.abs(ders[ax] - jacs[:, :, ax])) <= tol / f.h
    assert np.max(np.abs(f.on_lattice(1) - f.eval(f.nodes()))) <= tol
    assert f.alpha() == pytest.approx(ALPHA_SAFETY * np.max(spectral_norms(f.jacobian(lattice_points(f, 4)))), rel=1e-14)
    if not periodic:
        # points past the last node read only zero-margin layers
        past = np.any((pts - f.lo) / f.h > np.array(f.shape) - 1 + 0.5 / div, axis=1)
        assert past.any() == (div > 1)
        assert np.all(vals[past] == 0.0)
        assert all(np.all(der[past] == 0.0) for der in ders)


def test_on_lattice_keeps_no_table_and_reads_each_component_alone(rng):
    """`on_lattice` pads the coefficients for its one read and keeps no
    table on the field; a lone component gets the bits of its column among
    others."""
    for f in (CompactField([0.0, 0.0], 0.1, rng.normal(size=(9, 9, 3))), PeriodicField(rng.normal(size=(8, 8, 3)))):
        lattice = f.on_lattice(2)
        assert getattr(f, "_tab", None) is None
        alone = f.with_coeffs(f.coeffs[..., 1:2]).on_lattice(2)
        assert alone.tobytes() == np.ascontiguousarray(lattice[:, 1:2]).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("mode", ["constant", "wrap"])
def test_padded_matches_np_pad(mode, d, rng):
    """The bytes of ``np.pad`` by (1, 3) layers per leading axis, for float
    (signed zeros included) and bool arrays, on axes of 1 to 5 nodes, so
    also where the wrap is wider than the axis, and on axes of unequal
    length."""
    for n in range(1, 6):
        for shape in ((n,) * d, tuple(range(n, n + d))):
            floats = rng.normal(size=shape + (2,))
            floats[rng.random(floats.shape) < 0.3] = -0.0
            for x, trailing in ((floats, [(0, 0)]), (rng.random(shape) < 0.5, [])):
                want = np.pad(x, [(1, 3)] * d + trailing, mode=mode)
                got = _padded(x, d, mode)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_nodes_are_one_read_only_array_per_geometry(rng):
    """Fields of one geometry share one read-only node array, whatever
    their coefficients; each geometry has its own, with the coordinates of
    one ``linspace`` per axis."""
    f = CompactField([0.0, -1.0], 0.1, rng.normal(size=(9, 11, 2)))
    nodes = f.nodes()
    assert f.with_coeffs(rng.normal(size=(9, 11, 3))).nodes() is nodes
    assert CompactField([0.0, -1.0], 0.1, np.zeros((9, 11, 1)), margin=3).nodes() is nodes
    with pytest.raises(ValueError, match="read-only"):
        nodes[0, 0] = 1.0
    others = [
        CompactField([0.0, -0.5], 0.1, np.zeros((9, 11, 2))),
        CompactField([0.0, -1.0], 0.125, np.zeros((9, 11, 2))),
        CompactField([0.0, -1.0], 0.1, np.zeros((11, 9, 2))),
        PeriodicField(np.zeros((10, 10, 2))),
    ]
    for g in [f] + others:
        axes = [np.linspace(g.lo[ax], g.lo[ax] + (n - 1) * g.h, n) for ax, n in enumerate(g.shape)]
        want = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        assert g.nodes().tobytes() == want.tobytes() and not g.nodes().flags.writeable
    assert len({id(g.nodes()) for g in [f] + others}) == 1 + len(others)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("periodic", [False, True])
def test_lattice_sups_match_the_lattice_by_lattice_oracle(periodic, d, rng):
    # shared passes, group-major columns and the sup taken before the root
    # give the bits of the lattices normed point by point; the component
    # counts are and are not whole batches (32 components, 30 for group 3)
    def field(ncomp):
        if periodic:
            return PeriodicField(rng.normal(size=(6,) * d + (ncomp,)))
        return CompactField(rng.uniform(-1.0, 1.0, size=d), 0.3, rng.normal(size=(7, 6, 5)[:d] + (ncomp,)))

    for group in sorted({1, 2, d}):
        step = 32 // group * group
        for ncomp in (group, 2 * step, 2 * step + 5 * group):
            f = field(ncomp)
            for div in (1, 2):
                want = lattice_sups(f, div, group)
                got = f.lattice_sups(div, group)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (group, ncomp, div)
                assert np.array_equal(f.lattice_sups(div, group, values=False)[1], want[1])
                assert np.array_equal(f.lattice_sups(div, group, jacobians=False)[0], want[0])
                assert f.lattice_sups(div, group, values=False)[0] is None
                assert f.lattice_sups(div, group, jacobians=False)[1] is None
        f = field(group)
        sup_f, sup_df = lattice_sups(f, ALPHA_DIV, group)
        assert f.alpha() == ALPHA_SAFETY * float(sup_df[0])
        assert f.sup_seminorm() == float(sup_f[0])


# -- alpha -------------------------------------------------------------------

def test_alpha_homogeneous(random_field):
    f = random_field
    assert f.scaled(2.0).alpha() == pytest.approx(2.0 * f.alpha(), rel=1e-15)
    assert f.scaled(-0.5).alpha() == pytest.approx(0.5 * f.alpha(), rel=1e-15)


def test_alpha_sine_wave_1d():
    # 1d field sin(2 pi x) on a wide plateau: derivative sup is 2 pi
    grid = 257
    h = 4.0 / (grid - 1)

    def fn(pts):
        w = plateau_weight(pts, (0.0,), 1.0, 1.8)
        return (np.sin(2.0 * np.pi * pts[:, 0]) * w)[:, None]

    f = CompactField.from_function(np.array([-2.0]), h, (grid,), fn, 1)
    xs = np.linspace(-1.0, 1.0, 100_001)[:, None]
    dense = np.max(np.abs((f.eval(xs[1:]) - f.eval(xs[:-1])) / (xs[1] - xs[0])))
    # the declared bound carries a safety factor over the lattice sup
    assert f.alpha() / ALPHA_SAFETY == pytest.approx(2.0 * np.pi, rel=0.02)
    assert dense == pytest.approx(2.0 * np.pi, rel=0.02)
    assert f.alpha() >= dense


def test_alpha_is_lipschitz_bound(random_field, rng):
    f = random_field
    a = f.alpha()
    x = rng.uniform(0.0, 1.0, size=(200, 2))
    y = rng.uniform(0.0, 1.0, size=(200, 2))
    lhs = np.linalg.norm(f.eval(x) - f.eval(y), axis=1)
    rhs = a * np.linalg.norm(x - y, axis=1)
    assert np.all(lhs <= rhs + 1e-12)


def test_spectral_norm_vs_power_iteration(rng):
    mats = rng.normal(size=(30, 3, 3))
    got = spectral_norms(mats)
    for i, m in enumerate(mats):
        v = rng.normal(size=3)
        for _ in range(500):
            v = m.T @ (m @ v)
            v /= np.linalg.norm(v)
        oracle = np.linalg.norm(m @ v)
        assert abs(got[i] - oracle) < 1e-10
    small = rng.normal(size=(50, 2, 2))
    assert np.allclose(spectral_norms(small), np.linalg.svd(small, compute_uv=False)[:, 0], atol=1e-12)


# -- composition -------------------------------------------------------------

def test_compose_with_zero_displacement(random_field):
    f = random_field
    zero = f.zero_like()
    composed = vf_compose_displacement(f, zero)
    est = resampling_estimate(f.eval(f.nodes()).reshape(f.shape + (2,)), f.h)
    assert (composed - f).sup_seminorm() <= est + 1e-12


def test_compose_constant_plateau(plateau, rng):
    f, v = plateau
    disp = random_plateau_field(3, target_alpha=0.2).scaled(0.1)
    composed = vf_compose_displacement(f, disp)
    pts = 0.5 + rng.uniform(-0.1, 0.1, size=(50, 2))
    # constant composed with a small displacement stays constant on the core
    assert np.max(np.abs(composed.eval(pts) - v)) < 1e-8


def test_compose_zero_field(random_field):
    z = random_field.zero_like()
    composed = vf_compose_displacement(z, random_field)
    assert np.all(composed.coeffs == 0.0)


@pytest.mark.parametrize("periodic", [False, True])
def test_compose_in_node_batches_matches_one_eval(rng, periodic):
    """The composition evaluates its nodes in batches of at most
    `COMPOSE_ENTRIES` points times components; a field of many components
    gets the bits of evaluating them all at once."""
    shape, ncomp = (15, 15), 80
    # several batches, the last one short
    batch = COMPOSE_ENTRIES // ncomp
    assert batch < 225 and 225 % batch
    zero = PeriodicField(np.zeros(shape + (2,))) if periodic else CompactField.zero(np.zeros(2), 1 / 14, shape, 2)
    field = zero.with_coeffs(rng.normal(size=shape + (ncomp,)))
    disp = zero.with_coeffs(rng.normal(scale=0.02, size=shape + (2,)))
    nodes = field.nodes()
    whole = field.with_values(field.eval(nodes + disp.eval(nodes)).reshape(shape + (ncomp,)))
    assert np.array_equal(vf_compose_displacement(field, disp).coeffs, whole.coeffs)


# -- geometry checks ---------------------------------------------------------

def test_field_arithmetic_geometry():
    a = CompactField.zero(np.zeros(2), 0.1, (8, 8), 2)
    b = CompactField.zero(np.zeros(2), 0.2, (8, 8), 2)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        CompactField(np.zeros(2), 0.1, np.zeros((8, 8, 2)), margin=1)
    with pytest.raises(ValueError):
        CompactField(np.zeros(2), 0.1, np.zeros((3, 3, 2)), margin=2)


def test_margin_forces_zero_boundary_coeffs(rng):
    coeffs = rng.normal(size=(10, 10, 2))
    f = CompactField(np.zeros(2), 0.1, coeffs, margin=2)
    assert np.all(f.coeffs[:2] == 0.0) and np.all(f.coeffs[-2:] == 0.0)
    assert np.all(f.coeffs[:, :2] == 0.0) and np.all(f.coeffs[:, -2:] == 0.0)


def test_with_values_interpolates_interior_nodes(rng):
    # any node values come back on every node at least margin + 1 layers
    # in, which read no zeroed coefficient; nearer the edge they do not
    for d in (1, 2, 3):
        for margin in (2, 3):
            for shape in [(2 * margin + 3,) * d, (11, 9, 10)[:d], (17, 13, 12)[:d]]:
                f = CompactField.zero(np.zeros(d), 0.1, shape, 2, margin)
                vals = rng.normal(size=f.shape + (2,))
                g = f.with_values(vals)
                inner = (slice(margin + 1, -(margin + 1)),) * d
                err = np.abs(g.eval(g.nodes()).reshape(vals.shape) - vals)
                assert np.max(err[inner]) <= 1e-14 * np.max(np.abs(vals)), (shape, margin)


def _value_grids(periodic, ncomp=1):
    """Zero fields of ``ncomp`` components on the grids the prefilter is
    checked on: d = 1, 2, 3, up to 40 nodes on an axis, and periodic grids
    of 1 to 4 nodes."""
    if periodic:
        sizes = [(n,) * d for d in (1, 2, 3) for n in (1, 2, 3, 4)] + [(12,), (40,), (12, 12), (33, 33), (8, 8, 8)]
        return [PeriodicField(np.zeros(s + (ncomp,))) for s in sizes]
    sizes = [(5,), (11,), (40,), (11, 9), (33, 32), (5, 6, 7), (11, 9, 10)]
    return [CompactField.zero(np.linspace(0.2, -0.1, len(s)), 0.1, s, ncomp) for s in sizes]


@pytest.mark.parametrize("ncomp", [2, 128])
@pytest.mark.parametrize("periodic", [False, True])
def test_with_values_matches_per_component_filter(periodic, ncomp, rng):
    # node values may hold any number of components, such as the 256 cells
    # of 2 components that a path's density stacks; gluing relies on each
    # slice getting the bits it gets alone, one-component slices included,
    # and so do the lattice sups of a stacked distance
    for f in _value_grids(periodic, ncomp):
        d = f.dimension
        for nvals in (ncomp, 512):
            vals = rng.normal(size=f.shape + (nvals,))
            g = f.with_values(vals)
            assert g.ncomp == nvals
            lattices = {(div, der): on_lattice(g, div, der) for div, der in [(1, None), (2, None), (2, d - 1)]}
            for lo, hi in [(0, 1), (1, 2), (0, 2), (3, 6), (nvals - 1, nvals)]:
                if hi <= nvals:
                    alone = f.with_values(vals[..., lo:hi])
                    assert np.array_equal(alone.coeffs, g.coeffs[..., lo:hi]), (f.shape, nvals, lo, hi)
                    for (div, der), lattice in lattices.items():
                        got = on_lattice(alone, div, der)
                        assert np.array_equal(got, lattice[:, lo:hi]), (f.shape, nvals, lo, hi, div, der)


@pytest.mark.parametrize("periodic", [False, True])
def test_with_values_solves_the_node_system(periodic, rng):
    # sampled at the nodes, the coefficients give back the node values: the
    # (1, 4, 1)/6 system, circulant on the torus; a compact field whose
    # outer layers are zero never reads its mirrored end rows
    for f in _value_grids(periodic):
        src = f.with_coeffs(rng.normal(size=f.shape + (3,)))
        vals = src.eval(src.nodes()).reshape(f.shape + (3,))
        g = f.with_values(vals)
        res = np.max(np.abs(g.eval(g.nodes()).reshape(vals.shape) - vals))
        assert res <= 1e-14 * np.max(np.abs(vals)), (f.shape, res)


@pytest.mark.parametrize("periodic", [False, True])
def test_with_values_matches_scipy_prefilter(periodic, rng):
    # scipy's recursive prefilter solves the same system: on a compact grid
    # its "grid-constant" mode reads mirrored end rows, not zeros
    for f in _value_grids(periodic):
        vals = rng.normal(size=f.shape + (3,))
        ref = np.stack([ndimage.spline_filter(vals[..., c], order=3, mode="grid-" + f._MODE) for c in range(3)], -1)
        ref = f.with_coeffs(ref).coeffs
        err = np.max(np.abs(f.with_values(vals).coeffs - ref))
        assert err <= 1e-14 * np.max(np.abs(ref)), (f.shape, err)


@pytest.mark.parametrize("periodic", [False, True])
def test_with_values_rejects_wrong_spatial_shape(periodic):
    f = PeriodicField(np.zeros((12, 12, 2))) if periodic else CompactField.zero(np.zeros(2), 0.1, (11, 9), 2)
    n0, n1 = f.shape
    # a wrong node count on either axis, a missing or an extra axis
    for shape in [(n0 + 1, n1, 2), (n0, n1 - 1, 4), (n0, n1), (n0, n1, 1, 2)]:
        with pytest.raises(ValueError, match="do not fit the grid"):
            f.with_values(np.zeros(shape))


# -- periodic fields ---------------------------------------------------------

def test_periodic_wraps(rng):
    f = PeriodicField(rng.normal(size=(12, 12, 2)))
    pts = rng.uniform(0.0, 1.0, size=(60, 2))
    assert np.allclose(f.eval(pts + 1.0), f.eval(pts), atol=1e-13)
    assert np.allclose(f.eval(pts - 3.0), f.eval(pts), atol=1e-13)
    assert np.allclose(f.jacobian(pts + 2.0), f.jacobian(pts), atol=1e-12)


def test_periodic_wrap_is_np_mod_bit_for_bit(rng):
    """The torus wrap x - floor(x) against np.mod(x, 1.0): signed zeros,
    tiny negatives that round to 1.0, the float below 1, whole numbers,
    NaN and random values, in value and in the sign of zero."""
    f = PeriodicField(np.zeros((8, 8, 2)))
    below_one = np.nextafter(1.0, 0.0)
    special = np.array([0.0, -0.0, -1e-300, -1e-17, -2.0 ** -54, -5e-324, below_one, -below_one,
                        1.0, -1.0, 3.0, -7.0, 2.0 ** 52, -2.0 ** 52, 2.0 ** 53 + 2.0, np.nan, -np.nan])
    pts = np.concatenate([special, rng.uniform(-4.0, 4.0, size=301)]).reshape(-1, 2)
    got = f._grid_coords(pts, 8)
    want = np.mod(pts, 1.0) / f.h
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # tiny negatives wrap onto u = n, which the padded table still holds
    assert got[1, 0] == 8.0 and got[1, 1] == 8.0


def test_periodic_node_interpolation(rng):
    f = PeriodicField(rng.normal(size=(10, 10, 2)))
    vals = f.eval(f.nodes()).reshape((10, 10, 2))
    g = f.with_values(vals)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12


# -- serialization -----------------------------------------------------------

def test_field_file_roundtrip(tmp_path, random_field, rng):
    f = random_field
    path = tmp_path / "field.cfld"
    save_field(f, path)
    g = load_field(path)
    assert isinstance(g, CompactField)
    pts = rng.uniform(0.0, 1.0, size=(30, 2))
    assert np.array_equal(g.coeffs, f.coeffs)
    assert np.allclose(g.eval(pts), f.eval(pts), atol=0.0)

    pf = PeriodicField(rng.normal(size=(8, 8, 2)))
    save_field(pf, tmp_path / "periodic.cfld")
    pg = load_field(tmp_path / "periodic.cfld")
    assert isinstance(pg, PeriodicField)
    assert np.array_equal(pg.coeffs, pf.coeffs)


def test_load_field_rejects_non_finite_coefficients(tmp_path, rng):
    coeffs = rng.normal(size=(8, 8, 2))
    coeffs[3, 4, 1] = np.nan
    save_field(PeriodicField(coeffs), tmp_path / "bad.cfld")
    with pytest.raises(ValueError, match="bad.cfld"):
        load_field(tmp_path / "bad.cfld")


@pytest.fixture(scope="module")
def cfld_files(tmp_path_factory):
    """A scratch directory and the bytes of a small 2-d field file of each kind."""
    tmp = tmp_path_factory.mktemp("cfld")
    rng = np.random.default_rng(5)
    files = []
    for f in (CompactField(np.zeros(2), 0.25, rng.normal(size=(6, 5, 2))), PeriodicField(rng.normal(size=(4, 4, 2)))):
        save_field(f, tmp / "good.cfld")
        files.append((tmp / "good.cfld").read_bytes())
    return tmp, files


#: bytes of a 2-d header: magic, kind/dimension/components, shape, lo, h, margin
HEADER_2D = 4 + 9 + 8 + 16 + 12


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_corrupt_field_file_is_a_value_error_naming_it(cfld_files, data):
    tmp, files = cfld_files
    good = data.draw(st.sampled_from(files))
    how = data.draw(st.sampled_from(["truncate", "append", "flip"]))
    if how == "truncate":
        bad = good[:data.draw(st.integers(0, len(good) - 1))]
    elif how == "append":
        bad = good + data.draw(st.binary(min_size=1, max_size=64))
    else:
        bit = data.draw(st.integers(0, 8 * HEADER_2D - 1))
        bad = bytearray(good)
        bad[bit // 8] ^= 1 << (bit % 8)
    path = tmp / "bad.cfld"
    path.write_bytes(bytes(bad))
    # a flip in lo, h or a periodic field's unused margin can leave a valid file
    geometry_end = HEADER_2D if good is files[1] else HEADER_2D - 4
    if how == "flip" and 8 * (4 + 9 + 8) <= bit < 8 * geometry_end:
        try:
            load_field(path)
        except ValueError as exc:
            assert "bad.cfld" in str(exc)
    else:
        with pytest.raises(ValueError, match="bad.cfld"):
            load_field(path)


@pytest.mark.parametrize("kind,shape,body,why", [
    (7, (6, 6), 6 * 6 * 2 * 8, "unknown field kind 7"),
    # 1.6e11 bytes of coefficients claimed: rejected before any is read
    (0, (100000, 100000), 16, "truncated coefficients"),
])
def test_field_file_header_is_checked_before_the_coefficients(tmp_path, kind, shape, body, why):
    head = b"CFLD" + struct.pack("<BII2I2ddI", kind, 2, 2, *shape, 0.0, 0.0, 0.1, 2)
    path = tmp_path / "claims.cfld"
    path.write_bytes(head + bytes(body))
    with pytest.raises(ValueError, match=f"claims.cfld: {why}"):
        load_field(path)


def test_resampling_estimate_scales():
    smooth = np.zeros((9, 9, 1))
    assert resampling_estimate(smooth, 0.1) == pytest.approx(1e-12, abs=1e-13)
    rough = smooth.copy()
    rough[4, 4, 0] = 1.0
    assert resampling_estimate(rough, 0.1) > 0.05
