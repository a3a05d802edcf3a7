"""Spline vector fields on R^n boxes and on flat tori.

A compactly supported C^2 field is a uniform cubic B-spline whose outer
coefficient layers are forced to zero, so the interpolant and all derivatives
vanish identically outside its box.  A periodic variant with wrap-around
coefficients models C^2 fields on the torus [0,1)^d.  Jacobians are analytic
derivatives of the spline, never finite differences.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
from scipy import ndimage

__all__ = [
    "CompactField",
    "PeriodicField",
    "vf_eval",
    "vf_jacobian",
    "vf_alpha",
    "vf_compose_displacement",
    "stack_fields",
    "unstack_field",
    "resampling_estimate",
    "spectral_norms",
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


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (P, r, c) stack."""
    if mats.shape[-2:] == (1, 1):
        return np.abs(mats[..., 0, 0])
    if mats.shape[-2:] == (2, 2):
        # closed form via the eigenvalues of M^T M
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        q = a * a + b * b + c * c + d * d
        det = a * d - b * c
        disc = np.sqrt(np.maximum(q * q - 4.0 * det * det, 0.0))
        return np.sqrt(0.5 * (q + disc))
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


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

    def _grid_coords(self, points: np.ndarray, n) -> np.ndarray:
        """Continuous grid coordinates of points, within [0, n] per axis for
        n nodes; coordinate u reads coefficients floor(u) - 1 .. floor(u) + 2.
        """
        raise NotImplementedError

    def with_coeffs(self, coeffs: np.ndarray) -> "_SplineField":
        raise NotImplementedError

    # -- evaluation --------------------------------------------------------
    def _table(self):
        """Padded coefficients flattened over space, strides, patch offsets,
        and the node count per axis."""
        if getattr(self, "_tab", None) is None:
            d = self.dimension
            # u = n still reads inside: the periodic wrap can round onto it
            cpad = np.pad(self.coeffs, [(1, 3)] * d + [(0, 0)], mode=self._MODE)
            spatial = cpad.shape[:-1]
            strides = np.ones(d, dtype=np.int64)
            for ax in range(d - 2, -1, -1):
                strides[ax] = strides[ax + 1] * spatial[ax + 1]
            offs = np.zeros(1, dtype=np.int64)
            for ax in range(d):
                offs = (offs[:, None] + np.arange(4) * strides[ax]).ravel()
            # numpy clips against a scalar bound several times faster than
            # against a per-axis array, and most grids are cubic
            n = self.shape[0] if len(set(self.shape)) == 1 else np.array(self.shape)
            self._tab = (cpad.reshape(-1, self.ncomp), strides, offs, n)
        return self._tab

    def _gather(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Fractional grid coordinates (P, d) and the 4^d coefficient patch
        (P, 4^d, ncomp) around each point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cflat, strides, offs, n = self._table()
        u = self._grid_coords(points, n)
        ufl = np.floor(u)
        frac = u - ufl
        base = ufl.astype(np.int64)
        # clipping after the cast keeps NaN points inside the table
        np.clip(base, 0, n, out=base)
        return frac, np.take(cflat, (base @ strides)[:, None] + offs, axis=0)

    @staticmethod
    def _contract(ws, patch: np.ndarray) -> np.ndarray:
        """Patch summed against the tensor product of per-axis weights."""
        out = ws[0]
        for w in ws[1:]:
            out = (out[:, :, None] * w[:, None, :]).reshape(out.shape[0], -1)
        return np.einsum("pk,pkc->pc", out, patch)

    def eval(self, points: np.ndarray) -> np.ndarray:
        frac, patch = self._gather(points)
        W = _weights(frac)  # (P, d, 4)
        return self._contract([W[:, ax] for ax in range(self.dimension)], patch)

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        frac, patch = self._gather(points)
        d = self.dimension
        W = _weights(frac)
        dW = _dweights(frac) / self.h
        cols = [
            self._contract([dW[:, ax] if ax == der else W[:, ax] for ax in range(d)], patch)
            for der in range(d)
        ]
        return np.stack(cols, axis=2)

    def with_values(self, values: np.ndarray) -> "_SplineField":
        """Interpolate node values on this geometry.

        One 1-d filter pass per spatial axis covers every component, with
        the same per-line arithmetic as ``ndimage.spline_filter`` on each
        component alone.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape + (self.ncomp,):
            raise ValueError("node values have the wrong shape")
        coeffs = np.empty_like(values)
        src = values
        for ax in range(self.dimension):
            ndimage.spline_filter1d(src, order=3, axis=ax, output=coeffs, mode="grid-" + self._MODE)
            src = coeffs
        return self.with_coeffs(coeffs)

    # -- lattices and seminorms -------------------------------------------
    def _lattice(self, div: int) -> np.ndarray:
        axes = [
            np.linspace(self.lo[ax], self.lo[ax] + (self._span(ax)) * self.h, div * self._span(ax) + 1)
            for ax in range(self.dimension)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def _span(self, ax: int) -> int:
        raise NotImplementedError

    def nodes(self) -> np.ndarray:
        if getattr(self, "_nodes", None) is None:
            self._nodes = self._lattice(1)
        return self._nodes

    def alpha(self) -> float:
        """Conservative estimate of sup ||DF||_op over R^n."""
        if getattr(self, "_alpha", None) is None:
            pts = self._lattice(ALPHA_DIV)
            self._alpha = ALPHA_SAFETY * float(np.max(spectral_norms(self.jacobian(pts))))
        return self._alpha

    def sup_seminorm(self, div: int = ALPHA_DIV) -> float:
        pts = self._lattice(div)
        return float(np.max(np.linalg.norm(self.eval(pts), axis=1)))

    def cr_seminorm(self, div: int = 2) -> float:
        """sup |F| + sup ||DF||_op on a sampling lattice (no safety factor)."""
        pts = self._lattice(div)
        return float(
            np.max(np.linalg.norm(self.eval(pts), axis=1))
            + np.max(spectral_norms(self.jacobian(pts)))
        )

    # -- linear structure --------------------------------------------------
    def _check_geometry(self, other: "_SplineField"):
        if (
            type(self) is not type(other)
            or self.shape != other.shape
            or not np.array_equal(self.lo, other.lo)
            or self.h != other.h
        ):
            raise ValueError("fields live on different grids")

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
        self._alpha = None
        self._nodes = None

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

    def _span(self, ax: int) -> int:
        return self.shape[ax] - 1

    def _grid_coords(self, points: np.ndarray, n) -> np.ndarray:
        # a point clamped onto the box face reads only zero-margin layers,
        # so values and derivatives outside the box are exact zeros
        return np.clip((points - self.lo) / self.h, 0.0, n - 1)

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
        self._alpha = None
        self._nodes = None

    def _span(self, ax: int) -> int:
        # sampling lattices cover the full period [0, 1]
        return self.shape[ax]

    def nodes(self) -> np.ndarray:
        # interpolation nodes: the N distinct points per axis, 1 excluded
        if self._nodes is None:
            n = self.shape[0]
            axes = [np.linspace(0.0, (n - 1) * self.h, n)] * self.dimension
            mesh = np.meshgrid(*axes, indexing="ij")
            self._nodes = np.stack([m.ravel() for m in mesh], axis=1)
        return self._nodes

    def _grid_coords(self, points: np.ndarray, n) -> np.ndarray:
        # mod(x, 1) rounds to 1.0 for x just below a whole period, so u = n
        return np.mod(points, 1.0) / self.h

    def with_coeffs(self, coeffs: np.ndarray) -> "PeriodicField":
        return PeriodicField(coeffs)

    with_values = _SplineField.with_values

    @staticmethod
    def zero(d: int, n: int, ncomp: int) -> "PeriodicField":
        return PeriodicField(np.zeros((n,) * d + (ncomp,)))

    @staticmethod
    def from_function(d: int, n: int, fn, ncomp: int) -> "PeriodicField":
        proto = PeriodicField.zero(d, n, ncomp)
        vals = fn(proto.nodes()).reshape((n,) * d + (ncomp,))
        return proto.with_values(vals)


# -- functional surface ----------------------------------------------------

def vf_eval(field: _SplineField, x) -> np.ndarray:
    """Point value of the field; exactly zero outside a compact box."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return field.eval(x[None])[0]
    return field.eval(x)


def vf_jacobian(field: _SplineField, x) -> np.ndarray:
    """Analytic spline Jacobian at a point (or batch of points)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return field.jacobian(x[None])[0]
    return field.jacobian(x)


def vf_alpha(field: _SplineField) -> float:
    return field.alpha()


def vf_compose_displacement(field: _SplineField, disp: _SplineField) -> _SplineField:
    """Resample x -> field(x + disp(x)) onto field's grid."""
    field._check_geometry(disp)
    nodes = field.nodes()
    vals = field.eval(nodes + disp.eval(nodes))
    return field.with_values(vals.reshape(field.shape + (field.ncomp,)))


def stack_fields(fields) -> _SplineField:
    """Fields of one geometry as one field, their components side by side,
    so that one eval or one resampling serves them all."""
    return fields[0].with_coeffs(np.concatenate([f.coeffs for f in fields], axis=-1))


def unstack_field(stacked: _SplineField, ncomp: int) -> list:
    """The fields of ``ncomp`` components each that ``stack_fields`` joined."""
    parts = np.split(stacked.coeffs, stacked.ncomp // ncomp, axis=-1)
    return [stacked.with_coeffs(c) for c in parts]


# -- file format -----------------------------------------------------------

def save_field(field: _SplineField, path: str | Path, sidecar: bool = True):
    """Binary coefficients with a CFLD header plus a JSON metadata sidecar."""
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
    if sidecar:
        meta = {
            "kind": "periodic" if kind else "compact",
            "dimension": d,
            "ncomp": field.ncomp,
            "shape": list(field.shape),
            "lo": field.lo.tolist(),
            "h": field.h,
            "margin": getattr(field, "margin", 0),
        }
        Path(str(path) + ".json").write_text(json.dumps(meta, indent=2))


def load_field(path: str | Path) -> _SplineField:
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path} is not a field file")
        kind, d, ncomp = struct.unpack("<BII", fh.read(9))
        shape = struct.unpack(f"<{d}I", fh.read(4 * d))
        lo = np.array(struct.unpack(f"<{d}d", fh.read(8 * d)))
        (h,) = struct.unpack("<d", fh.read(8))
        (margin,) = struct.unpack("<I", fh.read(4))
        n = int(np.prod(shape)) * ncomp
        coeffs = np.frombuffer(fh.read(8 * n), dtype="<f8").reshape(shape + (ncomp,)).copy()
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"{path} holds non-finite coefficients")
    if kind == 1:
        return PeriodicField(coeffs)
    return CompactField(lo, h, coeffs, margin)


def save_manifest(fields, directory: str | Path, name: str, **keys) -> Path:
    """Write fields as ``<name>_cellNNNN.cfld`` plus a ``<name>.json``
    manifest holding ``keys`` and the file list under "field_files"."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for i, f in enumerate(fields):
        fname = f"{name}_cell{i:04d}.cfld"
        save_field(f, directory / fname)
        files.append(fname)
    path = directory / f"{name}.json"
    path.write_text(json.dumps({**keys, "field_files": files}, indent=2))
    return path


def load_manifest(path: str | Path) -> tuple[dict, list]:
    """The manifest's keys and its fields, in file-list order."""
    path = Path(path)
    obj = json.loads(path.read_text())
    return obj, [load_field(path.parent / f) for f in obj["field_files"]]
