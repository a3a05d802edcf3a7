"""Group operations in displacement coordinates: product, inverse, right
translation, paths, and the path distance."""

import json

import numpy as np
import pytest

from evolflow.diff_group import (
    GroupElement,
    GroupPath,
    d_rho,
    group_path_distance,
    identity_like,
    inverse,
    load_group_path,
    save_group_path,
    star,
)
from evolflow.instances import plateau_weight, random_plateau_field
from evolflow.lp_space import TimeGrid
from evolflow.vector_field import CompactField, PeriodicField, resampling_estimate, save_field, spectral_norms
from conftest import lattice_points, stack_fields


def plateau_translation_1d(a: float, grid: int = 129) -> GroupElement:
    h = 1.0 / (grid - 1)

    def fn(pts):
        return (a * plateau_weight(pts, (0.5,), 0.25, 0.42))[:, None]

    return GroupElement(CompactField.from_function(np.zeros(1), h, (grid,), fn, 1))


def resample_tol(phi: GroupElement) -> float:
    vals = phi.disp.eval(phi.disp.nodes()).reshape(phi.disp.shape + (phi.disp.ncomp,))
    return resampling_estimate(vals, phi.disp.h)


@pytest.fixture(scope="module")
def phi():
    return GroupElement(random_plateau_field(11, target_alpha=0.35))


@pytest.fixture(scope="module")
def psi():
    return GroupElement(random_plateau_field(12, target_alpha=0.25))


@pytest.fixture(scope="module")
def chi():
    return GroupElement(random_plateau_field(13, target_alpha=0.2))


# -- product -----------------------------------------------------------------

def test_neutral_element(phi):
    e = identity_like(phi.disp)
    tol = resample_tol(phi)
    assert (star(e, phi).disp - phi.disp).sup_seminorm() <= tol + 1e-12
    assert (star(phi, e).disp - phi.disp).sup_seminorm() <= tol + 1e-12
    assert star(e, e).disp.sup_seminorm() == 0.0


def test_star_matches_pointwise_composition(phi, psi, rng):
    prod = star(phi, psi)
    pts = rng.uniform(0.1, 0.9, size=(200, 2))
    direct = phi.apply(psi.apply(pts))
    assert np.max(np.abs(prod.apply(pts) - direct)) < 5e-4


def test_translations_add_on_core():
    a, b = 0.03, -0.02
    prod = star(plateau_translation_1d(a), plateau_translation_1d(b))
    xs = np.linspace(0.4, 0.6, 50)[:, None]
    assert np.max(np.abs(prod.disp.eval(xs) - (a + b))) < 1e-7


def test_associativity(phi, psi, chi):
    left = star(star(phi, psi), chi)
    right = star(phi, star(psi, chi))
    defect = (left.disp - right.disp).sup_seminorm()
    tol = resample_tol(star(phi, psi)) + resample_tol(star(psi, chi)) + resample_tol(left)
    assert defect <= 10.0 * tol


def test_star_keeps_compact_support(phi, psi, rng):
    prod = star(phi, psi)
    outside = np.concatenate([
        rng.uniform(1.05, 2.0, size=(20, 2)),
        rng.uniform(-1.0, -0.05, size=(20, 2)),
    ])
    assert np.all(prod.disp.eval(outside) == 0.0)


def test_star_rejects_mismatched_geometry(phi):
    other = GroupElement(CompactField.zero(np.zeros(2), 0.5, (8, 8), 2))
    with pytest.raises(ValueError):
        star(phi, other)


# -- inverse -----------------------------------------------------------------

def test_inverse_law(phi):
    inv = inverse(phi, tol=1e-13)
    assert star(phi, inv).disp.sup_seminorm() < 1e-8
    # the true inverse is not a spline, so the left product only closes up
    # to the interpolation error of the inverse displacement
    assert star(inv, phi).disp.sup_seminorm() < 1e-3


def test_inverse_translation_core():
    a = 0.04
    inv = inverse(plateau_translation_1d(a), tol=1e-13)
    xs = np.linspace(0.45, 0.55, 30)[:, None]
    assert np.max(np.abs(inv.disp.eval(xs) + a)) < 1e-7


def test_inverse_requires_contraction():
    big = GroupElement(random_plateau_field(5, target_alpha=1.4))
    with pytest.raises(ValueError):
        inverse(big)


# -- right translation -------------------------------------------------------

def test_d_rho_identity(phi):
    e = identity_like(phi.disp)
    moved = d_rho(e, phi.disp)
    assert (moved - phi.disp).sup_seminorm() <= resample_tol(phi) + 1e-12


def test_d_rho_linear(phi, psi, chi):
    combo = d_rho(psi, phi.disp.scaled(2.0) - chi.disp)
    parts = d_rho(psi, phi.disp).scaled(2.0) - d_rho(psi, chi.disp)
    # resampling is linear in the node data, so this is exact
    assert np.max(np.abs(combo.coeffs - parts.coeffs)) < 1e-12


def test_d_rho_matches_pointwise(phi, psi, rng):
    moved = d_rho(psi, phi.disp)
    pts = rng.uniform(0.15, 0.85, size=(100, 2))
    assert np.max(np.abs(moved.eval(pts) - phi.disp.eval(psi.apply(pts)))) < 5e-4


# -- paths -------------------------------------------------------------------

def test_path_constant_density_is_linear(phi):
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    path = GroupPath(grid, stack_fields([phi.disp] * 4))
    for t in [0.0, 0.3, 0.5, 0.77, 1.0]:
        assert np.max(np.abs(path.field_at(t).coeffs - t * phi.disp.coeffs)) < 1e-15
    assert np.array_equal(path.end().disp.coeffs, path.field_at(1.0).coeffs)


def test_path_piecewise_density(phi, psi):
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    path = GroupPath(grid, stack_fields([phi.disp, psi.disp]))
    expect = 0.5 * phi.disp.coeffs + 0.25 * psi.disp.coeffs
    assert np.max(np.abs(path.field_at(0.75).coeffs - expect)) < 1e-15


def test_neutral_path(phi):
    path = GroupPath(TimeGrid.uniform(0.0, 1.0, 3), stack_fields([phi.disp.zero_like()] * 3))
    assert path.field_at(0.6).sup_seminorm() == 0.0


def test_path_rejects_a_start_that_does_not_fit_the_density(phi, psi):
    dens = stack_fields([phi.disp, psi.disp])
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    d = phi.disp
    starts = {
        "other h": CompactField(d.lo, 0.5 * d.h, d.coeffs),
        "periodic": PeriodicField(np.zeros(d.shape + (2,))),
        "three components": d.with_coeffs(np.zeros(d.shape + (3,))),
    }
    for what, start in starts.items():
        with pytest.raises(ValueError, match="the start") as info:
            GroupPath(grid, dens, start=start)
        if what == "three components":
            assert "the 2 components of one density cell, got 3" in str(info.value)
        else:
            # both geometries are named
            assert str(d.shape) in str(info.value) and type(start).__name__ in str(info.value)


def test_path_save_load(tmp_path, phi, psi):
    grid = TimeGrid(np.array([0.0, 0.25, 1.0]))
    path = GroupPath(grid, stack_fields([phi.disp, psi.disp]), start=phi.disp.scaled(0.1))
    manifest = save_group_path(path, tmp_path, name="demo")
    # the path as it is held: the start and the stacked density, and nothing else
    assert sorted(f.name for f in tmp_path.iterdir()) == ["demo.json", "demo_density.cfld", "demo_start.cfld"]
    assert json.loads(manifest.read_text()) == {
        "knots": grid.knots.tolist(), "field_files": ["demo_start.cfld", "demo_density.cfld"],
    }
    back = load_group_path(manifest)
    assert np.array_equal(back.grid.knots, grid.knots)
    assert np.array_equal(back.start.coeffs, path.start.coeffs)
    assert np.array_equal(back.stacked.coeffs, path.stacked.coeffs)
    for f, g in zip(back.density, [phi.disp, psi.disp]):
        assert np.array_equal(f.coeffs, g.coeffs)


def test_load_group_path_rejects_other_manifests(tmp_path, phi, psi):
    grid = TimeGrid(np.array([0.0, 0.25, 1.0]))
    manifest = save_group_path(GroupPath(grid, stack_fields([phi.disp, psi.disp])), tmp_path, name="demo")
    good = json.loads(manifest.read_text())
    save_field(phi.disp, tmp_path / "demo_cell0000.cfld")
    save_field(psi.disp, tmp_path / "demo_cell0001.cfld")
    save_field(CompactField(phi.disp.lo, 0.5 * phi.disp.h, phi.disp.coeffs), tmp_path / "other_start.cfld")
    cases = {
        "wrong count": ({**good, "field_files": good["field_files"] + ["demo_start.cfld"]}, "got 3 files"),
        "start of another geometry": (
            {**good, "field_files": ["other_start.cfld", "demo_density.cfld"]}, "does not fit the density"
        ),
        # the former layout: one file per density cell and a separate start_file key
        "per-cell": (
            {**good, "field_files": ["demo_cell0000.cfld", "demo_cell0001.cfld"], "start_file": "demo_start.cfld"},
            "the density needs 2 cells",
        ),
    }
    for obj, why in cases.values():
        manifest.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="demo.json") as info:
            load_group_path(manifest)
        assert why in str(info.value)


# -- path distance -----------------------------------------------------------

def cr_seminorm(f, div: int = 2) -> float:
    """Reference: sup |F| + sup ||DF||_op of one field on its sampling lattice,
    from the scattered kernel."""
    pts = lattice_points(f, div)
    return float(np.max(np.linalg.norm(f.eval(pts), axis=1)) + np.max(spectral_norms(f.jacobian(pts))))


def test_distance_zero_and_symmetry(phi, psi):
    ga = GroupPath(TimeGrid.uniform(0.0, 1.0, 2), stack_fields([phi.disp, psi.disp]))
    gb = GroupPath(TimeGrid.uniform(0.0, 1.0, 4), stack_fields([psi.disp] * 4))
    assert group_path_distance(ga, ga) == pytest.approx(0.0, abs=1e-14)
    dab = group_path_distance(ga, gb)
    assert dab > 0.0
    assert group_path_distance(gb, ga) == pytest.approx(dab, rel=1e-12)


def test_distance_matches_per_cell_definition(phi, psi, chi):
    ga = GroupPath(TimeGrid(np.array([0.0, 0.3, 1.0])), stack_fields([phi.disp, psi.disp]), start=psi.disp.scaled(0.2))
    gb = GroupPath(TimeGrid.uniform(0.0, 1.0, 2), stack_fields([chi.disp, phi.disp]))
    got = group_path_distance(ga, gb, p=1.0)
    grid = ga.grid.refine(gb.grid)
    expect = cr_seminorm(ga.start - gb.start)
    for t, w in zip(grid.midpoints(), grid.widths()):
        da = ga.density[ga.grid.cell_of(t)]
        db = gb.density[gb.grid.cell_of(t)]
        expect += w * cr_seminorm(da - db)
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_distance_sup_variant_dominates(phi, psi, chi):
    ga = GroupPath(TimeGrid.uniform(0.0, 1.0, 2), stack_fields([phi.disp, psi.disp]))
    gb = GroupPath(TimeGrid.uniform(0.0, 1.0, 2), stack_fields([chi.disp, chi.disp]))
    d1 = group_path_distance(ga, gb, p=1.0)
    dinf = group_path_distance(ga, gb, p=np.inf)
    # on the unit interval the L^1 density distance is at most the sup one
    assert d1 <= dinf + 1e-12
