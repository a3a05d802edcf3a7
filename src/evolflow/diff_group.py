"""The group of compactly supported C^r diffeomorphisms in its global chart.

Elements are displacement fields phi, standing for the diffeomorphism
id + phi.  The multiplication in displacement coordinates is

    star(phi, psi) = psi + phi o (id + psi),

with one spline resampling per product.  The same code drives the periodic
(torus) variant, since displacement composition only needs field evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .lp_space import TimeGrid
from .vector_field import _SplineField, load_manifest, save_manifest, vf_compose_displacement

__all__ = [
    "GroupElement",
    "GroupPath",
    "identity_like",
    "star",
    "inverse",
    "d_rho",
    "group_path_distance",
    "save_group_path",
    "load_group_path",
]


@dataclass
class GroupElement:
    """A chart point: the displacement of id + phi."""

    disp: _SplineField

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
    a = phi.disp.alpha()
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
    _cum: np.ndarray | None = dc_field(default=None, repr=False)

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

    @property
    def density(self) -> list:
        """The density of each time cell as a field of its own (a copy)."""
        cells = self._cells()
        return [self.stacked.with_coeffs(cells[..., i, :].copy()) for i in range(self.grid.ncells)]

    def _cumulative(self) -> np.ndarray:
        """Displacement coefficients at the knots, spatial + (ncells + 1, d)."""
        if self._cum is None:
            steps = self._cells() * self.grid.widths()[:, None]
            cum = np.zeros(steps.shape[:-2] + (steps.shape[-2] + 1, steps.shape[-1]))
            np.cumsum(steps, axis=-2, out=cum[..., 1:, :])
            self._cum = cum + self.start.coeffs[..., None, :]
        return self._cum

    def coeffs_at(self, times) -> np.ndarray:
        """Displacement coefficients at the times, spatial + (times, d), exact:
        the cumulative coefficients at the knot before plus the partial cell."""
        times = np.asarray(times, dtype=float)
        i = self.grid.cell_of(times)
        partial = (times - self.grid.knots[i])[:, None]
        return np.take(self._cumulative(), i, axis=-2) + partial * np.take(self._cells(), i, axis=-2)

    def field_at(self, t: float) -> _SplineField:
        """Displacement field of the path at time t."""
        return self.stacked.with_coeffs(self.coeffs_at([t])[..., 0, :])

    def element_at(self, t: float) -> GroupElement:
        return GroupElement(self.field_at(t))

    def end(self) -> GroupElement:
        return self.element_at(self.grid.b)


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


def _batched_cr_norms(proto: _SplineField, coeffs: np.ndarray, div: int) -> np.ndarray:
    """The C^r sup-seminorm sup |F| + sup ||DF||_op on a sampling lattice (no
    safety factor) of each field F on proto's geometry with coefficients
    coeffs[..., i, :].

    Fields are sampled in chunks stacked on the component axis, to bound memory.
    """
    count, d = coeffs.shape[-2:]
    out = np.empty(count)
    chunk = max(1, 32 // d)
    for k0 in range(0, count, chunk):
        part = coeffs[..., k0 : k0 + chunk, :]
        sup_f, sup_df = proto.with_coeffs(part.reshape(proto.shape + (-1,))).lattice_sups(div, d)
        out[k0 : k0 + part.shape[-2]] = sup_f + sup_df
    return out


def group_path_distance(pa: GroupPath, pb: GroupPath, p: float = 1.0, div: int = 2) -> float:
    """C^r sup distance of the starts plus the L^p distance of the densities
    under the C^r sup-seminorm, on the common time refinement."""
    pa.stacked._check_geometry(pb.stacked)
    grid = pa.grid.refine(pb.grid)
    mids = grid.midpoints()
    start_d = _batched_cr_norms(pa.start, (pa.start.coeffs - pb.start.coeffs)[..., None, :], div)[0]
    cells = list(zip(pa.grid.cell_of(mids).tolist(), pb.grid.cell_of(mids).tolist()))
    # dedupe: coarse cells repeat across the common refinement
    keys = list(dict.fromkeys(cells))
    a, b = np.array(keys).T
    norms = dict(zip(keys, _batched_cr_norms(pa.stacked, pa._cells()[..., a, :] - pb._cells()[..., b, :], div)))
    per_cell = np.array([norms[c] for c in cells])
    if np.isinf(p):
        dens_d = float(np.max(per_cell))
    else:
        dens_d = float(np.sum(grid.widths() * per_cell**p) ** (1.0 / p))
    return float(start_d) + dens_d
