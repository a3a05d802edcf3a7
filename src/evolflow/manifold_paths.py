"""Manifolds of absolutely continuous paths on the flat torus and the circle.

The flat torus [0,1)^d carries the local addition (p, v) -> p + v mod 1 on
|v|_inf < 1/2, which makes every chart operation an exact affine formula.
The circle is carried by the two stereographic charts u and v = 1/u, whose
transition has the nontrivial tangent factor -1/u^2; it exercises genuine
chart bookkeeping for sections over paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ac_path import AcPath, ac_eval
from .lp_space import GridError, LpSample, TimeGrid

__all__ = [
    "wrap_point",
    "wrap_diff",
    "LocalAddition",
    "local_addition",
    "ManifoldAcPath",
    "SectionTuple",
    "chart_psi",
    "chart_psi_inv",
    "transition",
    "section_embed",
    "point_eval",
]

TORUS_RHO = 0.5


def wrap_point(x):
    """Torus representative in [0,1)."""
    return np.mod(np.asarray(x, dtype=float), 1.0)


def wrap_diff(d):
    """Difference wrapped to (-1/2, 1/2]; the tie at 1/2 maps to +1/2."""
    d = np.asarray(d, dtype=float)
    return d - np.ceil(d - 0.5)


@dataclass(frozen=True)
class LocalAddition:
    """A normalized local addition with its chart-building companions."""

    tag: str
    rho: float
    sigma: Callable
    theta_inv: Callable


def local_addition(tag: str) -> LocalAddition:
    if tag.startswith("torus"):
        return LocalAddition(
            tag,
            TORUS_RHO,
            lambda p, v: wrap_point(np.asarray(p) + np.asarray(v)),
            lambda p, q: wrap_diff(np.asarray(q) - np.asarray(p)),
        )
    if tag == "circle_stereo":
        # points as angles in [0, 2pi); addition along the circle
        return LocalAddition(
            tag,
            0.5 * np.pi,
            lambda p, v: np.mod(np.asarray(p) + np.asarray(v), 2.0 * np.pi),
            lambda p, q: _wrap_angle(np.asarray(q) - np.asarray(p)),
        )
    raise ValueError(f"unknown manifold tag {tag!r}")


def _wrap_angle(d):
    d = np.asarray(d, dtype=float)
    return d - 2.0 * np.pi * np.ceil(d / (2.0 * np.pi) - 0.5)


# -- circle chart dictionary ------------------------------------------------

def circle_point_from_chart(chart: str, u):
    u = np.asarray(u, dtype=float)
    if chart == "north":  # u = cot(theta/2)
        return np.mod(2.0 * np.arctan2(1.0, u), 2.0 * np.pi)
    if chart == "south":  # v = tan(theta/2)
        return np.mod(2.0 * np.arctan(u), 2.0 * np.pi)
    raise ValueError(f"unknown circle chart {chart!r}")


def circle_chart_from_point(chart: str, theta):
    theta = np.asarray(theta, dtype=float)
    if chart == "north":
        return 1.0 / np.tan(0.5 * theta)
    if chart == "south":
        return np.tan(0.5 * theta)
    raise ValueError(f"unknown circle chart {chart!r}")


def circle_transition_derivative(src: str, dst: str, u):
    if src == dst:
        return np.ones_like(np.asarray(u, dtype=float))
    return -1.0 / np.asarray(u, dtype=float) ** 2


# -- paths ------------------------------------------------------------------

def _segment_at(segments, t: float) -> tuple[str, AcPath]:
    """The first (chart, AcPath) of segments whose interval holds t."""
    for chart, seg in segments:
        if seg.a <= t <= seg.b:
            return chart, seg
    raise GridError(f"time {t} outside [{segments[0][1].a}, {segments[-1][1].b}]")


@dataclass(frozen=True)
class ManifoldAcPath:
    """Piecewise-chart representation of an AC path into a manifold.

    ``segments`` pairs a chart id with the coordinate path of the
    restriction; consecutive restrictions agree at the shared knots.
    """

    manifold: str
    segments: tuple  # of (chart_id, AcPath)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a path needs at least one segment")
        for (_, s1), (_, s2) in zip(self.segments, self.segments[1:]):
            if s1.b != s2.a:
                raise GridError("segments do not tile the interval")

    @property
    def a(self) -> float:
        return self.segments[0][1].a

    @property
    def b(self) -> float:
        return self.segments[-1][1].b

    def segment_for(self, t: float) -> tuple[str, AcPath]:
        return _segment_at(self.segments, t)


@dataclass(frozen=True)
class SectionTuple:
    """A section along a path, stored per interval in chart coordinates."""

    base: ManifoldAcPath
    segments: tuple  # of (chart_id, AcPath)


def _require_torus(path: ManifoldAcPath):
    if not path.manifold.startswith("torus"):
        raise NotImplementedError("chart operation implemented on the flat torus")


def _check_inside(section_paths, rho: float):
    for _, seg in section_paths:
        knots = seg.density.grid.knots
        vals = np.stack([ac_eval(seg, t) for t in knots])
        if np.max(np.abs(vals)) >= rho:
            t_bad = knots[int(np.argmax(np.max(np.abs(vals), axis=1)))]
            raise ValueError(f"section leaves the chart domain near t={t_bad}")


def chart_psi(eta: ManifoldAcPath, tau: SectionTuple) -> ManifoldAcPath:
    """Push a section through the local addition: t -> Sigma(eta(t), tau(t))."""
    _require_torus(eta)
    _check_inside(tau.segments, TORUS_RHO)
    segs = tuple(
        (chart, seg + tseg)
        for (chart, seg), (_, tseg) in zip(eta.segments, tau.segments)
    )
    return ManifoldAcPath(eta.manifold, segs)


def chart_psi_inv(eta: ManifoldAcPath, gamma: ManifoldAcPath) -> SectionTuple:
    """Chart coordinates of gamma around eta; requires pointwise closeness."""
    _require_torus(eta)
    segs = []
    for (chart, eseg), (_, gseg) in zip(eta.segments, gamma.segments):
        start = wrap_diff(gseg.start - eseg.start)
        density = gseg.density - eseg.density
        segs.append((chart, AcPath(start, density)))
    tau = SectionTuple(eta, tuple(segs))
    _check_inside(tau.segments, TORUS_RHO)
    return tau


def transition(xi: ManifoldAcPath, eta: ManifoldAcPath, sigma: SectionTuple) -> SectionTuple:
    """Rebase a section from the chart around eta to the chart around xi.

    On the flat torus this is sigma + (eta - xi) with the start wrapped."""
    _require_torus(eta)
    segs = []
    for (chart, xseg), (_, eseg), (_, sseg) in zip(xi.segments, eta.segments, sigma.segments):
        start = wrap_diff(eseg.start + sseg.start - xseg.start)
        density = (eseg.density + sseg.density) - xseg.density
        segs.append((chart, AcPath(start, density)))
    out = SectionTuple(xi, tuple(segs))
    _check_inside(out.segments, TORUS_RHO)
    return out


def _ac_restrict(path: AcPath, c: float, d: float) -> AcPath:
    if not (path.a <= c < d <= path.b):
        raise GridError("restriction window outside the path domain")
    start = ac_eval(path, c)
    knots = path.density.grid.knots
    inner = knots[(knots > c) & (knots < d)]
    grid = TimeGrid(np.union1d(inner, [c, d]))
    vals = path.density.eval_many(grid.midpoints())
    return AcPath(start, LpSample(grid, vals, path.p))


def section_embed(sigma: SectionTuple, partition, charts) -> tuple:
    """Express a section per interval of a finer partition, in given charts.

    Returns a tuple of (chart, coordinate AcPath).  Chart changes multiply
    the section pointwise by the tangent factor of the transition, sampled
    per cell midpoint (exact for constant base paths)."""
    partition = np.asarray(partition, dtype=float)
    if len(charts) != partition.size - 1:
        raise ValueError("one chart per partition interval required")
    out = []
    for i in range(partition.size - 1):
        c, d = partition[i], partition[i + 1]
        src_chart, sseg = _segment_at(sigma.segments, 0.5 * (c + d))
        piece = _ac_restrict(sseg, c, d)
        dst_chart = charts[i]
        if dst_chart == src_chart or sigma.base.manifold.startswith("torus"):
            out.append((dst_chart, piece))
            continue
        # circle chart change: multiply by the transition tangent factor
        _, bseg = sigma.base.segment_for(0.5 * (c + d))
        bpiece = _ac_restrict(bseg, c, d)
        out.append((dst_chart, _scale_section(piece, bpiece, src_chart, dst_chart)))
    return tuple(out)


def _scale_section(piece: AcPath, base: AcPath, src: str, dst: str) -> AcPath:
    grid = piece.density.grid.refine(base.density.grid)
    mids = grid.midpoints()
    u_mid = np.stack([ac_eval(base, t) for t in mids])
    du_mid = base.density.eval_many(mids)
    tau_mid = np.stack([ac_eval(piece, t) for t in mids])
    dtau_mid = piece.density.eval_many(mids)
    m_mid = circle_transition_derivative(src, dst, u_mid)
    # second derivative of the transition: d/du(-1/u^2) = 2/u^3
    dm_mid = (2.0 / u_mid**3) * du_mid
    density = m_mid * dtau_mid + dm_mid * tau_mid
    u0 = ac_eval(base, piece.a)
    start = circle_transition_derivative(src, dst, u0) * ac_eval(piece, piece.a)
    return AcPath(start, LpSample(grid, density, piece.p))


def point_eval(eta: ManifoldAcPath, t: float) -> np.ndarray:
    """The manifold point eta(t)."""
    chart, seg = eta.segment_for(t)
    coord = ac_eval(seg, t)
    if eta.manifold.startswith("torus"):
        return wrap_point(coord)
    return np.atleast_1d(circle_point_from_chart(chart, coord))
