"""Group operations in displacement coordinates: product, inverse, right
translation, paths, and the path distance."""

import json

import numpy as np
import pytest

from evolflow import diff_group
from evolflow.diff_group import (
    GroupPath,
    d_rho,
    group_path_distance,
    inverse,
    load_group_path,
    save_group_path,
    star,
)
from evolflow.instances import plateau_weight, random_plateau_field
from evolflow.lp_space import TimeGrid
from evolflow.vector_field import CompactField, PeriodicField, resampling_estimate, save_field
from conftest import displaced, lattice_points, spectral_norms, stack_fields, unstack


def plateau_translation_1d(a: float, grid: int = 129) -> CompactField:
    h = 1.0 / (grid - 1)

    def fn(pts):
        return (a * plateau_weight(pts, (0.5,), 0.25, 0.42))[:, None]

    return CompactField.from_function(np.zeros(1), h, (grid,), fn, 1)


def resample_tol(phi) -> float:
    vals = phi.eval(phi.nodes()).reshape(phi.shape + (phi.ncomp,))
    return resampling_estimate(vals, phi.h)


@pytest.fixture(scope="module")
def phi():
    return random_plateau_field(11, target_alpha=0.35)


@pytest.fixture(scope="module")
def psi():
    return random_plateau_field(12, target_alpha=0.25)


@pytest.fixture(scope="module")
def chi():
    return random_plateau_field(13, target_alpha=0.2)


# -- product -----------------------------------------------------------------

def test_neutral_element(phi):
    e = phi.zero_like()
    tol = resample_tol(phi)
    assert (star(e, phi) - phi).sup_seminorm() <= tol + 1e-12
    assert (star(phi, e) - phi).sup_seminorm() <= tol + 1e-12
    assert star(e, e).sup_seminorm() == 0.0


def test_star_matches_pointwise_composition(phi, psi, rng):
    prod = star(phi, psi)
    pts = rng.uniform(0.1, 0.9, size=(200, 2))
    direct = displaced(phi, displaced(psi, pts))
    assert np.max(np.abs(displaced(prod, pts) - direct)) < 5e-4


def test_translations_add_on_core():
    a, b = 0.03, -0.02
    prod = star(plateau_translation_1d(a), plateau_translation_1d(b))
    xs = np.linspace(0.4, 0.6, 50)[:, None]
    assert np.max(np.abs(prod.eval(xs) - (a + b))) < 1e-7


def test_associativity(phi, psi, chi):
    left = star(star(phi, psi), chi)
    right = star(phi, star(psi, chi))
    defect = (left - right).sup_seminorm()
    tol = resample_tol(star(phi, psi)) + resample_tol(star(psi, chi)) + resample_tol(left)
    assert defect <= 10.0 * tol


def test_star_keeps_compact_support(phi, psi, rng):
    prod = star(phi, psi)
    outside = np.concatenate([
        rng.uniform(1.05, 2.0, size=(20, 2)),
        rng.uniform(-1.0, -0.05, size=(20, 2)),
    ])
    assert np.all(prod.eval(outside) == 0.0)


def test_star_rejects_mismatched_geometry(phi):
    other = CompactField.zero(np.zeros(2), 0.5, (8, 8), 2)
    with pytest.raises(ValueError):
        star(phi, other)


@pytest.mark.parametrize("kind", ["compact", "periodic"])
def test_group_operations_return_fields_of_the_input_geometry(kind, phi, psi, rng):
    if kind == "periodic":
        phi, psi = (PeriodicField(0.002 * rng.normal(size=(12, 12, 2))) for _ in range(2))
    path = GroupPath(TimeGrid.uniform(0.0, 1.0, 2), stack_fields([phi, psi]))
    for out in (star(phi, psi), d_rho(psi, phi), inverse(phi), path.end()):
        assert type(out) is type(phi) and out.ncomp == phi.ncomp
        phi._check_geometry(out)


# -- inverse -----------------------------------------------------------------

def test_inverse_law(phi):
    inv = inverse(phi, tol=1e-13)
    assert star(phi, inv).sup_seminorm() < 1e-8
    # the true inverse is not a spline, so the left product only closes up
    # to the interpolation error of the inverse displacement
    assert star(inv, phi).sup_seminorm() < 1e-3


def test_inverse_out_of_iterations_names_the_last_change(phi, monkeypatch):
    monkeypatch.setattr(diff_group, "INVERSE_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match=r"inverse did not converge \(last change [0-9.e+-]+\)"):
        inverse(phi, tol=1e-13)


def test_inverse_translation_core():
    a = 0.04
    inv = inverse(plateau_translation_1d(a), tol=1e-13)
    xs = np.linspace(0.45, 0.55, 30)[:, None]
    assert np.max(np.abs(inv.eval(xs) + a)) < 1e-7


def test_inverse_requires_contraction():
    big = random_plateau_field(5, target_alpha=1.4)
    with pytest.raises(ValueError):
        inverse(big)


# -- right translation -------------------------------------------------------

def test_d_rho_identity(phi):
    e = phi.zero_like()
    moved = d_rho(e, phi)
    assert (moved - phi).sup_seminorm() <= resample_tol(phi) + 1e-12


def test_d_rho_linear(phi, psi, chi):
    combo = d_rho(psi, phi.scaled(2.0) - chi)
    parts = d_rho(psi, phi).scaled(2.0) - d_rho(psi, chi)
    # resampling is linear in the node data, so this is exact
    assert np.max(np.abs(combo.coeffs - parts.coeffs)) < 1e-12


def test_d_rho_matches_pointwise(phi, psi, rng):
    moved = d_rho(psi, phi)
    pts = rng.uniform(0.15, 0.85, size=(100, 2))
    assert np.max(np.abs(moved.eval(pts) - phi.eval(displaced(psi, pts)))) < 5e-4


# -- paths -------------------------------------------------------------------

def test_path_constant_density_is_linear(phi):
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    path = GroupPath(grid, stack_fields([phi] * 4))
    for t in [0.0, 0.3, 0.5, 0.77, 1.0]:
        assert np.max(np.abs(path.field_at(t).coeffs - t * phi.coeffs)) < 1e-15
    assert np.array_equal(path.end().coeffs, path.field_at(1.0).coeffs)


@pytest.mark.parametrize("ncells", [1, 2, 33])
@pytest.mark.parametrize("start", ["zero", "nonzero"])
@pytest.mark.parametrize("periodic", [False, True])
def test_end_matches_field_at_the_last_knot(periodic, start, ncells, rng):
    """`end()` gives the coefficients of ``field_at(b)`` and the sign of
    each zero: a column of -0.0 densities stays -0.0 through the cell sum
    and meets the start's zeros before the last cell's."""
    shape = (8, 8) if periodic else (9, 9)
    knots = np.r_[0.0, np.sort(rng.uniform(0.0, 1.0, size=ncells - 1)), 1.0]
    density = rng.normal(size=shape + (ncells, 2))
    density[rng.random(density.shape) < 0.2] = 0.0
    density[2:5, 2:5, :, 0] = -0.0
    make = PeriodicField if periodic else (lambda c: CompactField(np.zeros(2), 0.125, c))
    first = None
    if start == "nonzero":
        first = rng.normal(size=shape + (2,))
        first[2:5, 2:5, 0] = -0.0
        first[3, 3] = 0.0
        first = make(first)
    path = GroupPath(TimeGrid(knots), make(density.reshape(shape + (-1,))), first)
    end, at_b = path.end(), path.field_at(1.0)
    assert type(end) is type(at_b) and end.coeffs.shape == at_b.coeffs.shape
    assert np.array_equal(end.coeffs, at_b.coeffs)
    assert np.array_equal(np.signbit(end.coeffs), np.signbit(at_b.coeffs))


def test_path_piecewise_density(phi, psi):
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    path = GroupPath(grid, stack_fields([phi, psi]))
    expect = 0.5 * phi.coeffs + 0.25 * psi.coeffs
    assert np.max(np.abs(path.field_at(0.75).coeffs - expect)) < 1e-15


def test_neutral_path(phi):
    path = GroupPath(TimeGrid.uniform(0.0, 1.0, 3), stack_fields([phi.zero_like()] * 3))
    assert path.field_at(0.6).sup_seminorm() == 0.0


def test_path_rejects_a_start_that_does_not_fit_the_density(phi, psi):
    dens = stack_fields([phi, psi])
    grid = TimeGrid(np.array([0.0, 0.5, 1.0]))
    starts = {
        "other h": CompactField(phi.lo, 0.5 * phi.h, phi.coeffs),
        "periodic": PeriodicField(np.zeros(phi.shape + (2,))),
        "three components": phi.with_coeffs(np.zeros(phi.shape + (3,))),
    }
    for what, start in starts.items():
        with pytest.raises(ValueError, match="the start") as info:
            GroupPath(grid, dens, start=start)
        if what == "three components":
            assert "the 2 components of one density cell, got 3" in str(info.value)
        else:
            # both geometries are named
            assert str(phi.shape) in str(info.value) and type(start).__name__ in str(info.value)


def test_path_save_load(tmp_path, phi, psi):
    grid = TimeGrid(np.array([0.0, 0.25, 1.0]))
    path = GroupPath(grid, stack_fields([phi, psi]), start=phi.scaled(0.1))
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
    for f, g in zip(unstack(back), [phi, psi]):
        assert np.array_equal(f.coeffs, g.coeffs)


def test_load_group_path_rejects_other_manifests(tmp_path, phi, psi):
    grid = TimeGrid(np.array([0.0, 0.25, 1.0]))
    manifest = save_group_path(GroupPath(grid, stack_fields([phi, psi])), tmp_path, name="demo")
    good = json.loads(manifest.read_text())
    save_field(phi, tmp_path / "demo_cell0000.cfld")
    save_field(psi, tmp_path / "demo_cell0001.cfld")
    save_field(CompactField(phi.lo, 0.5 * phi.h, phi.coeffs), tmp_path / "other_start.cfld")
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
    ga = GroupPath(TimeGrid.uniform(0.0, 1.0, 2), stack_fields([phi, psi]))
    gb = GroupPath(TimeGrid.uniform(0.0, 1.0, 4), stack_fields([psi] * 4))
    assert group_path_distance(ga, ga) == pytest.approx(0.0, abs=1e-14)
    dab = group_path_distance(ga, gb)
    assert dab > 0.0
    assert group_path_distance(gb, ga) == pytest.approx(dab, rel=1e-12)


def test_distance_matches_per_cell_definition(phi, psi, chi):
    ga = GroupPath(TimeGrid(np.array([0.0, 0.3, 1.0])), stack_fields([phi, psi]), start=psi.scaled(0.2))
    gb = GroupPath(TimeGrid.uniform(0.0, 1.0, 2), stack_fields([chi, phi]))
    got = group_path_distance(ga, gb, p=1.0)
    grid = ga.grid.refine(gb.grid)
    expect = cr_seminorm(ga.start - gb.start)
    for t, w in zip(grid.midpoints(), grid.widths()):
        da = unstack(ga)[ga.grid.cell_of(t)]
        db = unstack(gb)[gb.grid.cell_of(t)]
        expect += w * cr_seminorm(da - db)
    assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_distance_counts_a_start_difference_alone(phi, psi):
    # with equal densities the distance is the start term alone; it is
    # skipped, as exactly 0, only when the starts agree in every coefficient
    grid, density = TimeGrid.uniform(0.0, 1.0, 2), stack_fields([phi, psi])
    ga = GroupPath(grid, density, start=psi.scaled(1e-3))
    gb = GroupPath(grid, density)
    assert group_path_distance(ga, gb) == pytest.approx(cr_seminorm(psi.scaled(1e-3)), rel=1e-12)
    assert group_path_distance(gb, GroupPath(grid, density)) == 0.0


def test_distance_sup_variant_dominates(phi, psi, chi):
    ga = GroupPath(TimeGrid.uniform(0.0, 1.0, 2), stack_fields([phi, psi]))
    gb = GroupPath(TimeGrid.uniform(0.0, 1.0, 2), stack_fields([chi, chi]))
    d1 = group_path_distance(ga, gb, p=1.0)
    dinf = group_path_distance(ga, gb, p=np.inf)
    # on the unit interval the L^1 density distance is at most the sup one
    assert d1 <= dinf + 1e-12
