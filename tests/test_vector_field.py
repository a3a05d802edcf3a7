"""Compactly supported and periodic spline fields: evaluation, Jacobians,
the Lipschitz seminorm, composition, and the binary file format."""

import numpy as np
import pytest
from scipy import ndimage

from evolflow.instances import plateau_weight, random_plateau_field
from evolflow.vector_field import (
    CompactField,
    PeriodicField,
    load_field,
    resampling_estimate,
    save_field,
    spectral_norms,
    vf_alpha,
    vf_compose_displacement,
    vf_eval,
    vf_jacobian,
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
    assert np.all(vf_eval(z, pts) == 0.0)
    assert np.all(vf_jacobian(z, pts) == 0.0)
    assert vf_alpha(z) == 0.0


def test_outside_box_exact_zero(random_field, rng):
    f = random_field
    outside = np.concatenate([
        rng.uniform(1.01, 3.0, size=(20, 2)),
        rng.uniform(-2.0, -0.01, size=(20, 2)),
        np.array([[0.5, 1.7], [-0.3, 0.5]]),
    ])
    assert np.all(vf_eval(f, outside) == 0.0)
    assert np.all(vf_jacobian(f, outside) == 0.0)


def test_plateau_reproduces_constant(plateau, rng):
    f, v = plateau
    pts = 0.5 + rng.uniform(-0.1, 0.1, size=(100, 2))
    vals = vf_eval(f, pts)
    # interpolation of the taper rings slightly into the plateau core
    assert np.max(np.abs(vals - v)) < 1e-7
    assert np.max(np.abs(vf_jacobian(f, pts))) < 1e-5


def test_jacobian_vs_finite_differences(random_field, rng):
    f = random_field
    pts = rng.uniform(0.2, 0.8, size=(40, 2))
    jac = vf_jacobian(f, pts)
    h_fd = 1e-5
    for ax in range(2):
        dp = np.zeros(2)
        dp[ax] = h_fd
        fd = (vf_eval(f, pts + dp) - vf_eval(f, pts - dp)) / (2.0 * h_fd)
        assert np.max(np.abs(jac[:, :, ax] - fd)) < 1e-6


def _scipy_eval(f, pts, mode):
    u = ((pts - f.lo) / f.h).T
    return np.stack([
        ndimage.map_coordinates(f.coeffs[..., c], u, order=3, prefilter=False, mode=mode)
        for c in range(f.ncomp)
    ], axis=1)


@pytest.mark.parametrize("periodic", [False, True])
def test_eval_matches_scipy_spline(periodic, rng):
    # scipy's cubic B-spline evaluator on the same coefficients is an
    # independent implementation of the same tensor stencil
    if periodic:
        f, mode = PeriodicField(rng.normal(size=(10, 10, 2))), "grid-wrap"
        lo, hi = f.lo, f.lo + 1.0
    else:
        f = CompactField(np.array([0.2, -0.1]), 0.1, rng.normal(size=(11, 9, 2)))
        mode = "grid-constant"
        lo, hi = f.lo, f.hi
    inside = rng.uniform(lo, hi, size=(40, 2))
    faces = inside[:8].copy()
    faces[:2, 0], faces[2:4, 0], faces[4:6, 1], faces[6:, 1] = lo[0], hi[0], lo[1], hi[1]
    outside = inside[8:16].copy()
    outside[:4, 0] += (hi - lo)[0] * rng.uniform(0.01, 1.5, size=4)
    outside[4:, 1] -= (hi - lo)[1] * rng.uniform(0.01, 1.5, size=4)
    shifted = inside[16:24] + rng.integers(-3, 4, size=(8, 2))
    corners = np.array([lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])
    pts = np.concatenate([inside, faces, corners, outside, shifted])
    assert np.max(np.abs(f.eval(pts) - _scipy_eval(f, pts, mode))) <= 1e-14


# -- alpha -------------------------------------------------------------------

def test_alpha_homogeneous(random_field):
    f = random_field
    assert vf_alpha(f.scaled(2.0)) == pytest.approx(2.0 * vf_alpha(f), rel=1e-15)
    assert vf_alpha(f.scaled(-0.5)) == pytest.approx(0.5 * vf_alpha(f), rel=1e-15)


def test_alpha_sine_wave_1d():
    # 1d field sin(2 pi x) on a wide plateau: derivative sup is 2 pi
    grid = 257
    h = 4.0 / (grid - 1)

    def fn(pts):
        w = plateau_weight(pts, (0.0,), 1.0, 1.8)
        return (np.sin(2.0 * np.pi * pts[:, 0]) * w)[:, None]

    f = CompactField.from_function(np.array([-2.0]), h, (grid,), fn, 1)
    xs = np.linspace(-1.0, 1.0, 100_001)[:, None]
    dense = np.max(np.abs((vf_eval(f, xs[1:]) - vf_eval(f, xs[:-1])) / (xs[1] - xs[0])))
    # the declared bound carries a 1.05 safety factor over the lattice sup
    assert vf_alpha(f) / 1.05 == pytest.approx(2.0 * np.pi, rel=0.02)
    assert dense == pytest.approx(2.0 * np.pi, rel=0.02)
    assert vf_alpha(f) >= dense


def test_alpha_is_lipschitz_bound(random_field, rng):
    f = random_field
    a = vf_alpha(f)
    x = rng.uniform(0.0, 1.0, size=(200, 2))
    y = rng.uniform(0.0, 1.0, size=(200, 2))
    lhs = np.linalg.norm(vf_eval(f, x) - vf_eval(f, y), axis=1)
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
    assert np.max(np.abs(vf_eval(composed, pts) - v)) < 1e-8


def test_compose_zero_field(random_field):
    z = random_field.zero_like()
    composed = vf_compose_displacement(z, random_field)
    assert np.all(composed.coeffs == 0.0)


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


def test_with_values_interpolates_interior_nodes(random_field):
    f = random_field
    vals = f.eval(f.nodes()).reshape(f.shape + (2,))
    g = f.with_values(vals)
    # interpolation reproduces the sampled values away from the zero margin
    inner = vals[8:-8, 8:-8]
    ginner = g.eval(g.nodes()).reshape(g.shape + (2,))[8:-8, 8:-8]
    assert np.max(np.abs(inner - ginner)) < 1e-11


@pytest.mark.parametrize("ncomp", [2, 128])
@pytest.mark.parametrize("periodic", [False, True])
def test_with_values_matches_per_component_filter(periodic, ncomp, rng):
    # reference: scipy's n-d prefilter on each component alone
    if periodic:
        f = PeriodicField.zero(2, 12, ncomp)
    else:
        f = CompactField.zero(np.array([0.2, -0.1]), 0.1, (11, 9), ncomp)
    vals = rng.normal(size=f.shape + (ncomp,))
    ref = np.empty_like(vals)
    for c in range(ncomp):
        ref[..., c] = ndimage.spline_filter(vals[..., c], order=3, mode="grid-" + f._MODE)
    assert np.array_equal(f.with_values(vals).coeffs, f.with_coeffs(ref).coeffs)


# -- periodic fields ---------------------------------------------------------

def test_periodic_wraps(rng):
    f = PeriodicField(rng.normal(size=(12, 12, 2)))
    pts = rng.uniform(0.0, 1.0, size=(60, 2))
    assert np.allclose(f.eval(pts + 1.0), f.eval(pts), atol=1e-13)
    assert np.allclose(f.eval(pts - 3.0), f.eval(pts), atol=1e-13)
    assert np.allclose(f.jacobian(pts + 2.0), f.jacobian(pts), atol=1e-12)


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


def test_resampling_estimate_scales():
    smooth = np.zeros((9, 9, 1))
    assert resampling_estimate(smooth, 0.1) == pytest.approx(1e-12, abs=1e-13)
    rough = smooth.copy()
    rough[4, 4, 0] = 1.0
    assert resampling_estimate(rough, 0.1) > 0.05
