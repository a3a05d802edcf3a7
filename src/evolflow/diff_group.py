"""The group of compactly supported C^r diffeomorphisms in its global chart.

Elements are displacement fields phi, standing for the diffeomorphism
id + phi.  The multiplication in displacement coordinates is

    star(phi, psi) = psi + phi o (id + psi),

with one spline resampling per product.  The same code drives the periodic
(torus) variant, since displacement composition only needs field evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .lp_space import TimeGrid
from .vector_field import (
    _SplineField, load_field, load_manifest, save_field, save_manifest, spectral_norms,
    vf_compose_displacement,
)

__all__ = [
    "GroupElement",
    "GroupPath",
    "ChartDiagnostic",
    "identity_like",
    "star",
    "inverse",
    "d_rho",
    "in_chart_check",
    "group_path_distance",
    "save_group_path",
    "load_group_path",
]


@dataclass
class GroupElement:
    """A chart point: the displacement of id + phi."""

    disp: _SplineField

    @property
    def alpha(self) -> float:
        return self.disp.alpha()

    def sup_norm(self, div: int = 4) -> float:
        return self.disp.sup_seminorm(div)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """(id + phi)(points)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return points + self.disp.eval(points)


def identity_like(proto: _SplineField) -> GroupElement:
    return GroupElement(proto.zero_like())


def star(phi: GroupElement, psi: GroupElement) -> GroupElement:
    """Group product in displacement coordinates: psi + phi o (id + psi)."""
    return GroupElement(psi.disp + vf_compose_displacement(phi.disp, psi.disp))


def inverse(phi: GroupElement, tol: float = 1e-10, max_iter: int = 500) -> GroupElement:
    """Fixed point of psi = -phi o (id + psi), solved by iteration.

    Requires alpha(phi) < 1, which makes the iteration a contraction.
    """
    a = phi.alpha
    if a >= 1.0:
        raise ValueError(f"inverse needs alpha < 1, got {a:.4g}")
    nodes = phi.disp.nodes()
    vals = -phi.disp.eval(nodes)
    for _ in range(max_iter):
        new = -phi.disp.eval(nodes + vals)
        change = float(np.max(np.abs(new - vals)))
        vals = new
        if change < tol:
            break
    else:
        raise RuntimeError(f"inverse did not converge (last change {change:.3g})")
    shape = phi.disp.shape + (phi.disp.ncomp,)
    return GroupElement(phi.disp.with_values(vals.reshape(shape)))


def d_rho(psi: GroupElement, vf: _SplineField) -> _SplineField:
    """Derivative of right translation by psi: vf -> vf o (id + psi)."""
    return vf_compose_displacement(vf, psi.disp)


@dataclass
class ChartDiagnostic:
    ok: bool
    alpha: float
    min_det: float
    injective: bool


def in_chart_check(disp: _SplineField, delta_det: float = 1e-6) -> ChartDiagnostic:
    """Certify that id + disp is a diffeomorphism of the model grid.

    Primary criterion: alpha < 1.  Fallback: det(I + D disp) bounded below on
    the sampling lattice together with a cell-wise bounding-box injectivity
    check.
    """
    a = disp.alpha()
    pts = disp._lattice(2)
    jac = disp.jacobian(pts)
    eye = np.eye(disp.dimension)
    min_det = float(np.min(np.linalg.det(eye + jac)))
    if a < 1.0:
        return ChartDiagnostic(True, a, min_det, True)
    inj = _lattice_injective(disp)
    ok = min_det >= delta_det and inj
    return ChartDiagnostic(ok, a, min_det, inj)


def _lattice_injective(disp: _SplineField) -> bool:
    """Conservative injectivity check for id + disp on the node lattice.

    Each grid cell is mapped to the bounding box of its displaced corners,
    inflated by that cell's own worst-case stretch; boxes of non-adjacent
    cells must not intersect.
    """
    import itertools as _it

    nodes = disp.nodes()
    mapped = (nodes + disp.eval(nodes)).reshape(disp.shape + (disp.dimension,))
    d = disp.dimension
    # per-cell Lipschitz estimate from a refined lattice of Jacobian norms
    div = 2
    fine = spectral_norms(disp.jacobian(disp._lattice(div)))
    fine = fine.reshape(tuple(div * (s - 1) + 1 for s in disp.shape))
    cell_sup = np.zeros(tuple(s - 1 for s in disp.shape))
    for offs in _it.product(range(div + 1), repeat=d):
        sl = tuple(
            slice(o, fine.shape[ax] - div + o, div) for ax, o in enumerate(offs)
        )
        np.maximum(cell_sup, fine[sl], out=cell_sup)
    stretch = 1.05 * cell_sup * disp.h * np.sqrt(d)
    # collect per-cell boxes
    corners = []
    for offs in _it.product([0, 1], repeat=d):
        sl = tuple(slice(o, disp.shape[ax] - 1 + o) for ax, o in enumerate(offs))
        corners.append(mapped[sl])
    stack = np.stack(corners)
    lo = stack.min(axis=0) - 0.5 * stretch[..., None]
    hi = stack.max(axis=0) + 0.5 * stretch[..., None]
    lo_flat = lo.reshape(-1, d)
    hi_flat = hi.reshape(-1, d)
    cells = np.stack(
        np.meshgrid(*[np.arange(s - 1) for s in disp.shape], indexing="ij"), axis=-1
    ).reshape(-1, d)
    # brute-force pair scan is fine at diagnostic grid sizes
    m = lo_flat.shape[0]
    for i in range(m):
        overlap = np.all((lo_flat[i] <= hi_flat) & (hi_flat[i] >= lo_flat), axis=1)
        neighbors = np.max(np.abs(cells - cells[i]), axis=1) <= 1
        if np.any(overlap & ~neighbors):
            return False
    return True


@dataclass
class GroupPath:
    """An absolutely continuous path of group elements, started at identity.

    The density holds one field per time cell: the chart derivative of the
    path.  Displacements at any time are exact linear combinations of the
    density coefficients, so path evaluation introduces no extra resampling.
    """

    grid: TimeGrid
    density: list  # one _SplineField per cell
    start: _SplineField | None = None
    _cum: np.ndarray | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        if len(self.density) != self.grid.ncells:
            raise ValueError("one density field per time cell required")
        if self.start is None:
            self.start = self.density[0].zero_like()

    def _cumulative(self) -> np.ndarray:
        if self._cum is None:
            stack = np.stack([f.coeffs for f in self.density])
            w = self.grid.widths()
            steps = stack * w.reshape((-1,) + (1,) * (stack.ndim - 1))
            cum = np.concatenate([np.zeros_like(stack[:1]), np.cumsum(steps, axis=0)])
            self._cum = cum + self.start.coeffs
        return self._cum

    def field_at(self, t: float) -> _SplineField:
        """Displacement field of the path at time t (exact in coefficients)."""
        i = self.grid.cell_of(t)
        cum = self._cumulative()
        partial = t - self.grid.knots[i]
        coeffs = cum[i] + partial * self.density[i].coeffs
        return self.density[0].with_coeffs(coeffs)

    def element_at(self, t: float) -> GroupElement:
        return GroupElement(self.field_at(t))

    def end(self) -> GroupElement:
        return self.element_at(self.grid.b)

    @staticmethod
    def neutral(proto: _SplineField, grid: TimeGrid) -> "GroupPath":
        return GroupPath(grid, [proto.zero_like() for _ in range(grid.ncells)])


def save_group_path(path: GroupPath, directory, name: str = "path"):
    """Write the start and density fields plus a JSON manifest."""
    start_file = f"{name}_start.cfld"
    manifest = save_manifest(
        path.density, directory, name, knots=path.grid.knots.tolist(), start_file=start_file
    )
    save_field(path.start, manifest.parent / start_file)
    return manifest


def load_group_path(manifest_path) -> GroupPath:
    obj, density = load_manifest(manifest_path)
    start = load_field(Path(manifest_path).parent / obj["start_file"])
    return GroupPath(TimeGrid(np.asarray(obj["knots"])), density, start)


def _batched_cr_seminorms(pairs, div: int) -> np.ndarray:
    """cr_seminorm of da - db for each (da, db) pair in one spline pass.

    All fields must share type and geometry; the per-pair difference
    coefficients are stacked along the component axis so the lattice is
    evaluated only once.
    """
    proto = pairs[0][0]
    for da, db in pairs:
        proto._check_geometry(da)
        proto._check_geometry(db)
    d = proto.dimension
    pts = proto._lattice(div)
    out = np.empty(len(pairs))
    chunk = max(1, 32 // d)
    for k0 in range(0, len(pairs), chunk):
        part = pairs[k0 : k0 + chunk]
        stacked = np.concatenate([(da.coeffs - db.coeffs) for da, db in part], axis=-1)
        big = proto.with_coeffs(stacked)
        vals = big.eval(pts).reshape(len(pts), len(part), d)
        jacs = big.jacobian(pts).reshape(len(pts), len(part), d, d)
        sup_val = np.linalg.norm(vals, axis=2).max(axis=0)
        sup_jac = spectral_norms(jacs).max(axis=0)
        out[k0 : k0 + chunk] = sup_val + sup_jac
    return out


def group_path_distance(pa: GroupPath, pb: GroupPath, p: float = 1.0, div: int = 2) -> float:
    """C^r sup distance of the starts plus the L^p distance of the densities
    under the C^r sup-seminorm, on the common time refinement."""
    grid = pa.grid.refine(pb.grid)
    mids = grid.midpoints()
    w = grid.widths()
    start_d = (pa.start - pb.start).cr_seminorm(div)
    cells = list(zip(pa.grid.cell_of(mids).tolist(), pb.grid.cell_of(mids).tolist()))
    # dedupe: coarse cells repeat across the common refinement
    keys = list(dict.fromkeys(cells))
    norms = dict(zip(keys, _batched_cr_seminorms([(pa.density[a], pb.density[b]) for a, b in keys], div)))
    per_cell = np.array([norms[c] for c in cells])
    if np.isinf(p):
        dens_d = float(np.max(per_cell))
    else:
        dens_d = float(np.sum(w * per_cell**p) ** (1.0 / p))
    return start_d + dens_d
