"""The group of compactly supported C^r diffeomorphisms in its global chart.

Elements are displacement fields phi, standing for the diffeomorphism
id + phi.  The multiplication in displacement coordinates is

    star(phi, psi) = psi + phi o (id + psi),

with one spline resampling per product.  The same code drives the periodic
(torus) variant, since displacement composition only needs field evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp_space import TimeGrid, lp_norm, step_primitive
from .vector_field import _SplineField, load_manifest, save_manifest, vf_compose_displacement

__all__ = [
    "GroupPath",
    "star",
    "inverse",
    "d_rho",
    "group_path_distance",
    "save_group_path",
    "load_group_path",
]


#: iterations of `inverse` before it gives up
INVERSE_MAX_ITER = 500
#: lattice refinement (points per grid cell and axis) of `group_path_distance`
DISTANCE_DIV = 2


def star(phi: _SplineField, psi: _SplineField) -> _SplineField:
    """Group product psi + phi o (id + psi) of displacement fields, on psi's class and geometry."""
    return psi + vf_compose_displacement(phi, psi)


def inverse(phi: _SplineField, tol: float = 1e-10) -> _SplineField:
    """Displacement field of (id + phi)^-1, on phi's class and geometry: the
    fixed point of psi = -phi o (id + psi), solved by iteration.

    Requires alpha(phi) < 1, which makes the iteration a contraction.
    """
    a = phi.alpha()
    if a >= 1.0:
        raise ValueError(f"inverse needs alpha < 1, got {a:.4g}")
    nodes = phi.nodes()
    vals = -phi.eval(nodes)
    for _ in range(INVERSE_MAX_ITER):
        new = -phi.eval(nodes + vals)
        change = float(np.max(np.abs(new - vals)))
        vals = new
        if change < tol:
            break
    else:
        raise RuntimeError(f"inverse did not converge (last change {change:.3g})")
    return phi.with_values(vals.reshape(phi.shape + (phi.ncomp,)))


def d_rho(psi: _SplineField, vf: _SplineField) -> _SplineField:
    """Derivative of right translation by psi: vf -> vf o (id + psi), on vf's class and geometry."""
    return vf_compose_displacement(vf, psi)


@dataclass
class GroupPath:
    """An absolutely continuous path of group elements: ``start`` plus the
    integral of the density.

    The density of a time cell is the chart derivative of the path on it.
    All cells live in one field ``stacked`` of ``grid.ncells * d`` components
    for spatial dimension d, cell i on components [i*d, (i+1)*d).  The start
    is a field of d components on the geometry of ``stacked``; it defaults
    to the identity (zero displacement).  Displacements at any time
    are exact linear combinations of the coefficients, so path evaluation
    introduces no extra resampling.
    """

    grid: TimeGrid
    stacked: _SplineField
    start: _SplineField | None = None

    def __post_init__(self):
        ncomp, d = self.stacked.ncomp, self.stacked.dimension
        if ncomp != self.grid.ncells * d:
            raise ValueError(f"the density needs {self.grid.ncells} cells of {d} components, got {ncomp} components")
        if self.start is None:
            self.start = self.stacked.with_coeffs(np.zeros(self.stacked.shape + (d,)))
        try:
            self.stacked._check_geometry(self.start)
        except ValueError as exc:
            raise ValueError(f"the start does not fit the density: {exc}") from None
        if self.start.ncomp != d:
            raise ValueError(f"the start needs the {d} components of one density cell, got {self.start.ncomp}")

    def _cells(self) -> np.ndarray:
        """The density coefficients as a view of shape spatial + (ncells, d)."""
        return self.stacked.coeffs.reshape(self.stacked.shape + (self.grid.ncells, -1))

    def coeffs_at(self, times) -> np.ndarray:
        """Displacement coefficients at the times, spatial + (times, d), exact
        (`step_primitive` of the density from the start)."""
        cells = np.moveaxis(self._cells(), -2, 0)
        return np.moveaxis(step_primitive(self.grid, cells, times, self.start.coeffs), 0, -2)

    def field_at(self, t: float) -> _SplineField:
        """Displacement field of the path at time t."""
        return self.stacked.with_coeffs(self.coeffs_at([t])[..., 0, :])

    def end(self) -> _SplineField:
        """Displacement field of the path at the end of its grid, the bits of
        ``field_at(b)``: for cell steps s_j = w_j v_j of widths w and
        densities v, ((s_0 + ... + s_{M-2}) + start) + s_{M-1}, the sum in
        cell order (0 for one cell) and the last cell after the start.  It
        is summed in one buffer, without the coefficients at every knot."""
        cells = self._cells()
        w = self.grid.widths()
        total = np.zeros(self.start.coeffs.shape) if w.size == 1 else w[0] * cells[..., 0, :]
        for j in range(1, w.size - 1):
            total += w[j] * cells[..., j, :]
        total += self.start.coeffs
        total += w[-1] * cells[..., -1, :]
        return self.stacked.with_coeffs(total)


def save_group_path(path: GroupPath, directory, name: str = "path"):
    """Write the path as it is held: ``<name>_start.cfld``, the stacked
    density ``<name>_density.cfld`` (cell i on components [i*d, (i+1)*d))
    and the ``<name>.json`` manifest with the knots."""
    fields = {"start": path.start, "density": path.stacked}
    return save_manifest(fields, directory, name, knots=path.grid.knots.tolist())


def load_group_path(manifest_path) -> GroupPath:
    """Read what save_group_path wrote; another manifest is a ValueError naming it."""
    obj, fields = load_manifest(manifest_path)
    if len(fields) != 2:
        raise ValueError(f"{manifest_path}: a group path lists a start and a density file, got {len(fields)} files")
    start, stacked = fields
    try:
        return GroupPath(TimeGrid(np.asarray(obj["knots"])), stacked, start)
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from exc


def group_path_distance(pa: GroupPath, pb: GroupPath, p: float = 1.0) -> float:
    """C^r sup distance of the starts plus the L^p distance of the densities
    under the C^r sup-seminorm (sup |F| + sup ||DF||_op on the lattice of
    `DISTANCE_DIV`, no safety factor), on the common time refinement."""
    pa.stacked._check_geometry(pb.stacked)
    grid = pa.grid.refine(pb.grid)
    mids = grid.midpoints()
    d = pa.stacked.dimension
    start = pa.start - pb.start
    # paths that `evolve` returns all start at the zero field, whose sups are 0
    start_d = np.add(*start.lattice_sups(DISTANCE_DIV, d))[0] if start.coeffs.any() else 0.0
    cells = list(zip(pa.grid.cell_of(mids).tolist(), pb.grid.cell_of(mids).tolist()))
    # dedupe: coarse cells repeat across the common refinement
    keys = list(dict.fromkeys(cells))
    a, b = np.array(keys).T
    # np.take keeps the differences in C order, so the reshape below is a view
    diffs = np.take(pa._cells(), a, axis=-2) - np.take(pb._cells(), b, axis=-2)
    stacked = pa.stacked.with_coeffs(diffs.reshape(pa.stacked.shape + (-1,)))
    norms = dict(zip(keys, np.add(*stacked.lattice_sups(DISTANCE_DIV, d))))
    per_cell = np.array([norms[c] for c in cells])
    return float(start_d) + lp_norm(grid.widths(), per_cell, p)
