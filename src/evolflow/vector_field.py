"""Spline vector fields on R^n boxes and on flat tori.

A compactly supported C^2 field is a uniform cubic B-spline whose outer
coefficient layers are forced to zero, so the interpolant and all derivatives
vanish identically outside its box.  A periodic variant with wrap-around
coefficients models C^2 fields on the torus [0,1)^d.  Jacobians are analytic
derivatives of the spline, never finite differences.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "CompactField",
    "PeriodicField",
    "vf_compose_displacement",
    "resampling_estimate",
    "save_field",
    "load_field",
    "save_manifest",
    "load_manifest",
]

#: multiplicative headroom applied to the lattice-sampled Jacobian sup, so
#: that contraction decisions based on alpha() stay conservative.
ALPHA_SAFETY = 1.05

#: lattice refinement (points per grid cell and axis) for the alpha estimate.
ALPHA_DIV = 4

#: lines per BLAS call of `_along_axis`
BLAS_LINES = 64

#: points times components per ``eval`` call of `vf_compose_displacement`:
#: it bounds the (points, 4^d, components) coefficient patch that a stacked
#: density of many cells gathers
COMPOSE_ENTRIES = 1 << 13

_MAGIC = b"CFLD"


def _weights(t: np.ndarray) -> np.ndarray:
    """Cubic B-spline weights for the four coefficients around a point.

    Accepts any shape and appends an axis of length 4.
    """
    t2 = t * t
    t3 = t2 * t
    out = np.empty(t.shape + (4,))
    omt = 1.0 - t
    out[..., 0] = omt * omt * omt * (1.0 / 6.0)
    out[..., 1] = 0.5 * t3 - t2 + (2.0 / 3.0)
    out[..., 2] = -0.5 * t3 + 0.5 * t2 + 0.5 * t + (1.0 / 6.0)
    out[..., 3] = t3 * (1.0 / 6.0)
    return out


def _dweights(t: np.ndarray) -> np.ndarray:
    t2 = t * t
    out = np.empty(t.shape + (4,))
    omt = 1.0 - t
    out[..., 0] = -0.5 * omt * omt
    out[..., 1] = 1.5 * t2 - 2.0 * t
    out[..., 2] = -1.5 * t2 + t + 0.5
    out[..., 3] = 0.5 * t2
    return out


def _padded(x: np.ndarray, d: int, mode: str) -> np.ndarray:
    """x with each of its leading d axes padded by 1 layer before and 3
    after, the layers an `eval` patch or a lattice reads past the grid:
    with ``mode`` "wrap" they repeat x periodically, with "constant" they
    are zeros.  The values of ``np.pad`` in that mode, without its fixed
    cost, which every new field's table would pay."""
    spatial, rest = x.shape[:d], x.shape[d:]
    shape = tuple(n + 4 for n in spatial) + rest
    if mode == "wrap":
        # one gather of whole rows of components, by the flat index of the
        # node each padded node wraps onto: a ``take`` per axis would copy
        # wide rows several times slower than np.pad
        flat = np.zeros(1, dtype=np.intp)
        for n in spatial:
            flat = (flat[:, None] * n + np.arange(-1, n + 3) % n).ravel()
        return np.take(x.reshape((-1,) + rest), flat, axis=0).reshape(shape)
    out = np.zeros(shape, dtype=x.dtype)
    out[tuple(slice(1, n + 1) for n in spatial)] = x
    return out


@functools.lru_cache(maxsize=None)
def _nodes(lo: bytes, h: float, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only (nodes, d) coordinates, in C order, of the grid with first
    node ``lo`` (the bytes of its float64 array, so that -0.0 and 0.0 are
    two keys), step h and node counts ``shape``: one ``linspace`` per axis."""
    lo = np.frombuffer(lo)
    axes = [np.linspace(lo[ax], lo[ax] + (n - 1) * h, n) for ax, n in enumerate(shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    out = np.stack([m.ravel() for m in mesh], axis=1)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _lattice_weights(n: int, div: int, der: bool) -> np.ndarray:
    """Read-only (div*n, n+4) cubic weights, or with ``der`` derivative weights per
    grid step, of coordinates i/div on n coefficients padded as in `_table`."""
    i = np.arange(div * n)
    out = np.zeros((i.size, n + 4))
    out[i[:, None], i[:, None] // div + np.arange(4)] = (_dweights if der else _weights)(i % div / div)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _prefilter_matrix(n: int, wrap: bool) -> np.ndarray:
    """Read-only inverse of the (1, 4, 1)/6 matrix taking n cubic coefficients
    to their node values: circulant with ``wrap``, else with mirrored end rows."""
    eye = np.eye(n)
    if wrap:
        # summed rolls, so that 1 and 2 nodes couple to themselves and each other
        m = 4.0 * eye + np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1)
    else:
        m = 4.0 * eye + np.eye(n, k=1) + np.eye(n, k=-1)
        m[0, 1] = m[-1, -2] = 2.0
    out = np.linalg.inv(m / 6.0)
    out.flags.writeable = False
    return out


def _along_axis(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """The (m, n) matrix ``mat`` applied along the leading axis of x, of
    shape (n,) + rest; the new axis goes at the end: shape rest + (m,).

    The lines go to BLAS in zero-padded blocks of `BLAS_LINES`, so every
    product has one shape: a line's result does not depend on how many
    lines share the array (a lone line would take a matrix-vector kernel,
    and few lines a small-matrix one), nor on where it sits among them.
    """
    n, rest = x.shape[0], x.shape[1:]
    flat = x.reshape(n, -1)
    lines = flat.shape[1]
    if lines % BLAS_LINES:
        flat = np.concatenate([flat, np.zeros((n, -lines % BLAS_LINES))], axis=1)
    out = flat.reshape(n, -1, BLAS_LINES).transpose(1, 2, 0) @ mat.T
    return out.reshape(-1, mat.shape[0])[:lines].reshape(rest + mat.shape[:1])


def _along_axes(x: np.ndarray, mats) -> np.ndarray:
    """Each (m, n) matrix of ``mats`` applied along its spatial axis of x
    (spatial shape + (components,)) by `_along_axis`: shape
    (m_1, ..., m_d, components)."""
    for mat in mats:
        x = _along_axis(x, mat)
    return np.moveaxis(x, 0, -1)


def _group_sups(table, weights, h, values, jacobians):
    """sup |F| and sup ||DF||_op over a lattice of each group of a padded
    coefficient table (spatial shape + (groups, components per group)),
    with the (value, derivative) weights of each axis; None where not asked.

    The columns go group-major, component i of every group in one block, so
    each component and each Jacobian entry is a contiguous block of lines.
    The value lattice and the derivative lattice along each axis share their
    leading `_along_axis` passes: 5 in place of 6 at d = 2.  The max over
    the points is taken before the last rounded steps, which are monotone,
    so it picks the same value as after them.  A 1x1 or 2x2 Jacobian has a
    closed form, any other shape an SVD.
    """
    d = len(weights)
    m, group = table.shape[-2:]
    # keyed by the axis differentiated along so far, None for none
    lattices = {None: table.swapaxes(-1, -2)}
    for ax, (w, dw) in enumerate(weights):
        prev, lattices = lattices, {}
        for der, x in prev.items():
            if der is not None or values or ax < d - 1:
                lattices[der] = _along_axis(x, w)
            if der is None and jacobians:
                lattices[ax] = _along_axis(x, dw)
    # each lattice is released as soon as it is read, before the next
    # temporaries allocate
    del prev, x
    lattices = {der: x.reshape(group, m, -1) for der, x in lattices.items()}
    sup_f = sup_df = None
    if values:
        v = lattices.pop(None)
        # the squares summed in order, as np.linalg.norm sums a short axis
        sq = v[0] * v[0]
        for i in range(1, group):
            sq += v[i] * v[i]
        sup_f = np.sqrt(sq.max(axis=1))
        del v, sq
    if jacobians:
        # jac[j][i] holds the derivative of component i along axis j
        jac = [lattices.pop(ax) for ax in range(d)]
        for x in jac:
            x /= h
        if (group, d) == (1, 1):
            sup_df = np.abs(jac[0][0]).max(axis=1)
        elif (group, d) == (2, 2):
            # closed form via the eigenvalues of J^T J, in place, with the
            # roundings of q = a*a + b*b + c*c + d*d, det = a*d - b*c and
            # q + sqrt(max(q*q - 4*det*det, 0))
            (j00, j10), (j01, j11) = jac
            q = j00 * j00
            q += j01 * j01
            q += j10 * j10
            q += j11 * j11
            det = j00 * j11
            det -= j01 * j10
            del jac, x, j00, j01, j10, j11
            disc = q * q
            det *= 4.0 * det
            disc -= det
            del det
            np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
            disc += q
            sup_df = np.sqrt(0.5 * disc.max(axis=1))
        else:
            mats = np.moveaxis(np.stack(jac, axis=-1), 0, -2)
            sup_df = np.linalg.svd(mats, compute_uv=False)[..., 0].max(axis=1)
    return sup_f, sup_df


def resampling_estimate(values: np.ndarray, h: float) -> float:
    """A-posteriori size of the cubic-interpolation error for node data.

    Uses the classical h^4/16 bound with the fourth difference standing in
    for h^4 f''''; a small floor covers filter round-off.
    """
    est = 0.0
    for ax in range(values.ndim - 1):
        if values.shape[ax] >= 5:
            est = max(est, float(np.max(np.abs(np.diff(values, 4, axis=ax)))))
    return est / 16.0 + 1e-12


class _SplineField:
    """Shared evaluation machinery; geometry semantics live in subclasses."""

    lo: np.ndarray
    h: float
    coeffs: np.ndarray  # spatial shape + (ncomp,)

    @property
    def dimension(self) -> int:
        return self.lo.size

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[:-1]

    # -- subclass hooks ----------------------------------------------------
    #: boundary rule of the coefficients: "constant" (zero) or "wrap"
    _MODE: str
    # each geometry defines `with_coeffs` and `_grid_coords(points, n)`, grid coordinates
    # in [0, n] per axis for n nodes: coordinate u reads coefficients floor(u) - 1 .. floor(u) + 2

    # -- evaluation --------------------------------------------------------
    def _table(self):
        """Padded coefficients flattened over space, strides, patch offsets,
        and the node count per axis.  A lone component is paired with a zero
        column, as einsum sums a lone output column in another order than
        each column of a wider one; `eval` and `jacobian` drop it."""
        if getattr(self, "_tab", None) is None:
            d = self.dimension
            coeffs = self.coeffs
            if self.ncomp == 1:
                coeffs = np.concatenate([coeffs, np.zeros_like(coeffs)], axis=-1)
            # u = n still reads inside: the periodic wrap can round onto it
            cpad = _padded(coeffs, d, self._MODE)
            spatial = cpad.shape[:-1]
            strides = np.ones(d, dtype=np.int64)
            for ax in range(d - 2, -1, -1):
                strides[ax] = strides[ax + 1] * spatial[ax + 1]
            offs = np.zeros(1, dtype=np.int64)
            for ax in range(d):
                offs = (offs[:, None] + np.arange(4) * strides[ax]).ravel()
            # the compact clamp in `_grid_coords` runs several times faster
            # against a scalar bound than a per-axis array; most grids are cubic
            n = self.shape[0] if len(set(self.shape)) == 1 else np.array(self.shape)
            self._tab = (cpad.reshape(-1, cpad.shape[-1]), strides.astype(float), offs, n)
        return self._tab

    def _locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The floors (P, d) of the points' grid coordinates, which pick
        their patches, and the fractional parts, which weight them."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        u = self._grid_coords(points, self._table()[3])
        ufl = np.floor(u)
        return ufl, u - ufl

    def _patch(self, ufl: np.ndarray, cflat: np.ndarray | None = None, rows=0) -> np.ndarray:
        """The 4^d coefficient patch (P, 4^d, columns of the table) at each
        floor of `_locate`: from this field's table, or from ``cflat``, tables
        of fields of this geometry one after another, with each point's first
        row ``rows`` added to its base index."""
        table, strides, offs, _ = self._table()
        # grid coordinates lie in [0, n], so every patch is inside its table;
        # the clip keeps a NaN point's patch inside the table it reads, and its weights are NaN
        base = (ufl @ strides).astype(np.int64) + rows
        return np.take(table if cflat is None else cflat, base[:, None] + offs, axis=0, mode="clip")

    def _gather(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Fractional grid coordinates (P, d) and the coefficient patch
        around each point."""
        ufl, frac = self._locate(points)
        return frac, self._patch(ufl)

    @staticmethod
    def _contract(ws, patch: np.ndarray) -> np.ndarray:
        """Patch summed against the per-axis weights one axis at a time, the
        leading stencil axis first: a tensor-product stencil is separable."""
        for w in ws:
            patch = np.einsum("pk,pkc->pc", w, patch.reshape(patch.shape[0], 4, -1))
        return patch

    def eval(self, points: np.ndarray) -> np.ndarray:
        return self._on_patch(*self._gather(points))

    def _on_patch(self, frac: np.ndarray, patch: np.ndarray) -> np.ndarray:
        """Values at the fractional grid coordinates (P, d) on their patches
        (P, 4^d, columns), as `eval` gives them."""
        W = _weights(frac)  # (P, d, 4)
        out = self._contract([W[:, ax] for ax in range(self.dimension)], patch)
        # only a lone component has a zero partner to drop: slicing every
        # result costs the RK4 oracle's 50-point calls about 1%
        return out[:, :1] if self.coeffs.shape[-1] == 1 else out

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        frac, patch = self._gather(points)
        d = self.dimension
        W = _weights(frac)
        dW = _dweights(frac) / self.h
        cols = [
            self._contract([dW[:, ax] if ax == der else W[:, ax] for ax in range(d)], patch)
            for der in range(d)
        ]
        out = np.stack(cols, axis=2)
        return out[:, :1] if self.coeffs.shape[-1] == 1 else out

    def with_values(self, values: np.ndarray) -> "_SplineField":
        """Interpolate node values, with any number of components, on this
        geometry.

        Along each spatial axis it solves (c[i-1] + 4 c[i] + c[i+1]) / 6 = v[i]
        for the coefficients c, by one product with the cached inverse (the
        cubic B-spline prefilter): circulant on the torus, and on a compact
        grid with mirrored end rows, c[-1] = c[1] and c[n] = c[n-2], which is
        the system ndimage's "grid-constant" prefilter solves.  A compact
        field then zeroes its outer ``margin`` coefficient layers, so for any
        node values it reproduces them on every node at least ``margin + 1``
        layers in, and misses by O(1) one layer further out.  Each component
        gets the bits it would get alone.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[:-1] != self.shape:
            raise ValueError(f"node values of shape {values.shape} do not fit the grid {self.shape}")
        coeffs = _along_axes(values, [_prefilter_matrix(n, self._MODE == "wrap") for n in self.shape])
        return self.with_coeffs(np.ascontiguousarray(coeffs))

    # -- lattices and seminorms -------------------------------------------
    def nodes(self) -> np.ndarray:
        """The grid nodes (nodes, d) in C order: one read-only array per
        geometry, built once and shared by every field on it (`_nodes`)."""
        return _nodes(self.lo.tobytes(), self.h, self.shape)

    def on_lattice(self, div: int) -> np.ndarray:
        """Values at grid coordinates i/div, i < div*n, on each axis of n
        nodes, in C order, by one `_along_axes` product.  A periodic lattice
        stops before 1, which repeats 0; compact points past the last node
        read only zero-margin layers, so they are exact zeros.
        ``on_lattice(1)`` is the node values."""
        # padded as in `_table`, but not kept on the field: a lattice is
        # one read, and the fields read so (a path's start and density) are
        # not evaluated after it
        cpad = _padded(self.coeffs, self.dimension, self._MODE)
        mats = [_lattice_weights(n, div, False) for n in self.shape]
        return _along_axes(cpad, mats).reshape(-1, self.ncomp)

    def lattice_sups(self, div: int, group: int, *, values: bool = True, jacobians: bool = True):
        """sup |F| and sup ||DF||_op over the points of ``on_lattice(div)``,
        per ``group`` components (`_group_sups`); a sup not asked for is
        None.  The groups are sampled ``max(1, 32 // group)`` at a time to
        bound memory."""
        step = max(1, 32 // group) * group
        padded = tuple(n + 4 for n in self.shape)
        weights = [(_lattice_weights(n, div, False), _lattice_weights(n, div, True)) for n in self.shape]
        sup_f, sup_df = [], []
        for lo in range(0, self.ncomp, step):
            part = self if step >= self.ncomp else self.with_coeffs(self.coeffs[..., lo:lo + step])
            table = part._table()[0][:, :part.ncomp].reshape(padded + (-1, group))
            f, df = _group_sups(table, weights, self.h, values, jacobians)
            sup_f.append(f)
            sup_df.append(df)
        return (np.concatenate(sup_f) if values else None), (np.concatenate(sup_df) if jacobians else None)

    def alpha(self) -> float:
        """Conservative estimate of sup ||DF||_op over R^n."""
        if getattr(self, "_alpha", None) is None:
            self._alpha = ALPHA_SAFETY * float(self.lattice_sups(ALPHA_DIV, self.ncomp, values=False)[1][0])
        return self._alpha

    def sup_seminorm(self) -> float:
        return float(self.lattice_sups(ALPHA_DIV, self.ncomp, jacobians=False)[0][0])

    # -- linear structure --------------------------------------------------
    def _check_geometry(self, other: "_SplineField"):
        if (
            type(self) is not type(other)
            or self.shape != other.shape
            or not np.array_equal(self.lo, other.lo)
            or self.h != other.h
        ):
            raise ValueError(f"fields live on different grids: {self._geometry()} and {other._geometry()}")

    def _geometry(self) -> str:
        return f"{type(self).__name__} of shape {self.shape}, lo {self.lo.tolist()}, h {self.h}"

    def __add__(self, other: "_SplineField") -> "_SplineField":
        self._check_geometry(other)
        return self.with_coeffs(self.coeffs + other.coeffs)

    def __sub__(self, other: "_SplineField") -> "_SplineField":
        self._check_geometry(other)
        return self.with_coeffs(self.coeffs - other.coeffs)

    def scaled(self, s: float) -> "_SplineField":
        out = self.with_coeffs(self.coeffs * s)
        if getattr(self, "_alpha", None) is not None:
            out._alpha = abs(s) * self._alpha
        return out

    def zero_like(self) -> "_SplineField":
        return self.with_coeffs(np.zeros_like(self.coeffs))


class CompactField(_SplineField):
    """C^2 field supported in the box [lo, lo + (shape-1) h] per axis.

    The outer ``margin`` coefficient layers are zero, so values and
    derivatives vanish on the box boundary and, by construction, everywhere
    outside.
    """

    _MODE = "constant"

    def __init__(self, lo, h: float, coeffs: np.ndarray, margin: int = 2):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != lo.size + 1:
            raise ValueError("coefficients must have one trailing component axis")
        if margin < 2:
            raise ValueError("margin must be at least 2 zero layers")
        if min(coeffs.shape[:-1]) < 2 * margin + 1:
            raise ValueError("grid too small for the zero margin")
        self.lo = lo
        self.h = float(h)
        self.coeffs = self._zero_margin(coeffs, margin)
        self.margin = margin

    @staticmethod
    def _zero_margin(coeffs: np.ndarray, margin: int) -> np.ndarray:
        coeffs = coeffs.copy()
        d = coeffs.ndim - 1
        for ax in range(d):
            sl = [slice(None)] * (d + 1)
            sl[ax] = slice(0, margin)
            coeffs[tuple(sl)] = 0.0
            sl[ax] = slice(-margin, None)
            coeffs[tuple(sl)] = 0.0
        return coeffs

    @property
    def hi(self) -> np.ndarray:
        return self.lo + (np.array(self.shape) - 1) * self.h

    def _grid_coords(self, points: np.ndarray, n) -> np.ndarray:
        # a point clamped onto the box face reads only zero-margin layers,
        # so values and derivatives outside the box are exact zeros
        u = (points - self.lo) / self.h
        return np.minimum(np.maximum(u, 0.0, out=u), n - 1, out=u)

    def with_coeffs(self, coeffs: np.ndarray) -> "CompactField":
        return CompactField(self.lo, self.h, coeffs, self.margin)

    # an attribute of each geometry, so that it can be wrapped per class
    with_values = _SplineField.with_values

    @staticmethod
    def zero(lo, h: float, shape: tuple[int, ...], ncomp: int, margin: int = 2) -> "CompactField":
        return CompactField(lo, h, np.zeros(tuple(shape) + (ncomp,)), margin)

    @staticmethod
    def from_function(lo, h: float, shape: tuple[int, ...], fn, ncomp: int, margin: int = 2) -> "CompactField":
        proto = CompactField.zero(lo, h, shape, ncomp, margin)
        vals = fn(proto.nodes()).reshape(tuple(shape) + (ncomp,))
        return proto.with_values(vals)


class PeriodicField(_SplineField):
    """C^2 field on the flat torus [0,1)^d; coefficients wrap around."""

    _MODE = "wrap"

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        shape = coeffs.shape[:-1]
        if len(set(shape)) != 1:
            raise ValueError("periodic grids use the same node count per axis")
        self.lo = np.zeros(len(shape))
        self.h = 1.0 / shape[0]
        self.coeffs = coeffs

    def _grid_coords(self, points: np.ndarray, n) -> np.ndarray:
        # the wrap rounds to 1.0 for x just below a whole period, so u = n;
        # x - floor(x) is bit-identical to np.mod(x, 1.0) and several times faster
        return (points - np.floor(points)) / self.h

    def with_coeffs(self, coeffs: np.ndarray) -> "PeriodicField":
        return PeriodicField(coeffs)

    with_values = _SplineField.with_values


# -- functional surface ----------------------------------------------------

def vf_compose_displacement(field: _SplineField, disp: _SplineField) -> _SplineField:
    """Resample x -> field(x + disp(x)) onto field's grid, evaluating at
    most `COMPOSE_ENTRIES` points times components at a time."""
    field._check_geometry(disp)
    nodes = field.nodes()
    moved = nodes + disp.eval(nodes)
    step = max(1, COMPOSE_ENTRIES // field.ncomp)
    vals = np.concatenate([field.eval(moved[lo:lo + step]) for lo in range(0, len(moved), step)])
    return field.with_values(vals.reshape(field.shape + (field.ncomp,)))


# -- file format -----------------------------------------------------------

def save_field(field: _SplineField, path: str | Path):
    """Binary coefficients behind a CFLD header that holds the geometry."""
    path = Path(path)
    kind = 1 if isinstance(field, PeriodicField) else 0
    d = field.dimension
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<BII", kind, d, field.ncomp))
        fh.write(struct.pack(f"<{d}I", *field.shape))
        fh.write(struct.pack(f"<{d}d", *field.lo))
        fh.write(struct.pack("<d", field.h))
        fh.write(struct.pack("<I", getattr(field, "margin", 0)))
        fh.write(np.ascontiguousarray(field.coeffs, dtype="<f8").tobytes())


def load_field(path: str | Path) -> _SplineField:
    """Read a CFLD file.  The header fixes the file size, which is checked
    before any coefficient is read; a malformed file is a ValueError that
    names it."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(13)
        if not _MAGIC.startswith(head[:4]):
            raise ValueError(f"{path} is not a field file")
        if len(head) < 13:
            raise ValueError(f"{path}: truncated header ({size} bytes)")
        kind, d, ncomp = struct.unpack("<BII", head[4:])
        if kind not in (0, 1):
            raise ValueError(f"{path}: unknown field kind {kind}")
        if d < 1 or ncomp < 1:
            raise ValueError(f"{path}: dimension {d} and components {ncomp} must be positive")
        header = 13 + 12 * d + 12
        if size < header:
            raise ValueError(f"{path}: truncated header ({size} bytes, the header needs {header})")
        shape = struct.unpack(f"<{d}I", fh.read(4 * d))
        lo = np.array(struct.unpack(f"<{d}d", fh.read(8 * d)))
        h, margin = struct.unpack("<dI", fh.read(12))
        expected = header + 8 * math.prod(shape) * ncomp
        if size != expected:
            why = "truncated coefficients" if size < expected else "trailing bytes"
            raise ValueError(f"{path}: {why} ({size} bytes; shape {list(shape)} x {ncomp} needs {expected})")
        if not (np.all(np.isfinite(lo)) and np.isfinite(h) and h > 0):
            raise ValueError(f"{path}: bad geometry lo={lo.tolist()}, h={h}")
        coeffs = np.frombuffer(fh.read(), dtype="<f8").reshape(shape + (ncomp,)).copy()
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"{path} holds non-finite coefficients")
    try:
        field = PeriodicField(coeffs) if kind == 1 else CompactField(lo, h, coeffs, margin)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    # a compact field is saved with its margin zeroed, so a margin that
    # zeroes more than the file holds disagrees with the coefficients
    if not np.array_equal(field.coeffs, coeffs):
        raise ValueError(f"{path}: nonzero coefficients inside the zero margin of {margin} layers")
    return field


def save_manifest(fields: dict, directory: str | Path, name: str, **keys) -> Path:
    """Write each field of a dict keyed by file suffix as ``<name>_<key>.cfld``
    plus a ``<name>.json`` manifest holding ``keys`` and the file list."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for key, f in fields.items():
        fname = f"{name}_{key}.cfld"
        save_field(f, directory / fname)
        files.append(fname)
    path = directory / f"{name}.json"
    path.write_text(json.dumps({**keys, "field_files": files}, indent=2))
    return path


def load_manifest(path: str | Path) -> tuple[dict, list]:
    """The manifest's keys and its fields, in file-list order."""
    path = Path(path)
    obj = json.loads(path.read_text())
    files = obj.get("field_files") if isinstance(obj, dict) else None
    if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
        raise ValueError(f"{path}: a manifest is a JSON object whose field_files is a list of file names")
    if not (isinstance(obj.get("knots"), list) and all(type(k) in (int, float) for k in obj["knots"])):
        raise ValueError(f"{path}: knots must be a list of numbers, got {obj.get('knots')!r}")
    return obj, [load_field(path.parent / f) for f in files]
