"""Acceptance criteria for the evolution-map library.

Each test prints one PASS/FAIL line (visible under pytest's capture) and
asserts the corresponding documented tolerance.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from evolflow.ac_path import (
    AcPath,
    SmoothMap,
    ac_embed,
    ac_eval,
    ac_eval_many,
    ac_phi,
    ac_phi_inv,
    ac_reparam,
    ac_superpose,
)
from evolflow.cli import EXIT_OK, main
from evolflow.diff_group import (
    GroupElement,
    group_path_distance,
    identity_like,
    inverse,
    star,
)
from evolflow.evolution import (
    apply_T,
    contraction_bound,
    evolve,
    flow_point,
    local_evolve,
)
from evolflow.instances import (
    random_plateau_field,
    random_smooth_velocity,
    random_trace,
    rotation_plateau_velocity,
    translation_plateau_velocity,
)
from evolflow.lp_space import LpSample, TimeGrid, weak_integral
from evolflow.manifold_paths import (
    ManifoldAcPath,
    SectionTuple,
    chart_psi,
    chart_psi_inv,
    circle_chart_from_point,
    circle_point_from_chart,
    local_addition,
    point_eval,
    section_embed,
    transition,
    wrap_diff,
    wrap_point,
)
from evolflow.vector_field import resampling_estimate

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def report(capsys, num: int, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _run_cli(args):
    t0 = time.perf_counter()
    code = main(args)
    return code, time.perf_counter() - t0


@pytest.fixture(scope="module")
def oracle_runs(tmp_path_factory):
    """Criterion 2 instance run through the CLI, once per thread count."""
    runs = {}
    for threads in (1, 8):
        out = tmp_path_factory.mktemp(f"oracle_t{threads}")
        code, dt = _run_cli([
            "evolve", "--config", str(CONFIGS / "oracle_equivalence.json"),
            "--out", str(out), "--threads", str(threads),
        ])
        runs[threads] = (out, code, dt)
    return runs


@pytest.fixture(scope="module")
def continuity_runs(tmp_path_factory):
    """Criterion 7 reference study through the CLI, once per thread count."""
    runs = {}
    for threads in (1, 8):
        out = tmp_path_factory.mktemp(f"continuity_t{threads}")
        code, dt = _run_cli([
            "continuity-study", "--config", str(CONFIGS / "continuity_reference.json"),
            "--out", str(out), "--threads", str(threads),
        ])
        runs[threads] = (out, code, dt)
    return runs


def test_criterion_01_contraction_inequality(capsys):
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = -np.inf
    for i in range(200):
        bound = rng.uniform(0.1, 0.9)
        gamma = random_smooth_velocity(1000 + i, cells=2, target_bound=bound)
        L = contraction_bound(gamma)
        assert 0.1 - 1e-12 <= L <= 0.9 + 1e-12
        x = rng.uniform(0.3, 0.7, size=2)
        z1 = random_trace(rng, 3, 2)
        z2 = random_trace(rng, 5, 2)
        lhs = apply_T(gamma, x, z1).sup_distance(apply_T(gamma, x, z2))
        rhs = L * z1.sup_distance(z2) + 1e-10
        worst = max(worst, lhs - rhs)
    dt = time.perf_counter() - t0
    ok = worst <= 0.0 and dt < 30.0
    report(capsys, 1, "contraction inequality",
           ok, f"max defect {worst:.3g}, {dt:.1f} s")


def test_criterion_02_oracle_equivalence(capsys, oracle_runs):
    out, code, dt = oracle_runs[1]
    errs = [
        float(line.split(",")[2])
        for line in (out / "oracle.csv").read_text().splitlines()[1:]
    ]
    ok = code == EXIT_OK and len(errs) == 20 * 50 and max(errs) <= 1e-4 and dt < 120.0
    report(capsys, 2, "oracle equivalence",
           ok, f"max error {max(errs):.3g} over {len(errs)} trajectories, {dt:.1f} s")


def test_criterion_03_closed_form_flows(capsys):
    omega = 0.3
    rot = evolve(rotation_plateau_velocity(omega=omega))
    angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    pts = 0.5 + 0.25 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    err_rot = 0.0
    for t in [0.7, 1.0]:
        a = omega * t
        R = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        expect = 0.5 + (pts - 0.5) @ R.T
        err_rot = max(err_rot, float(np.max(np.abs(flow_point(rot, t, pts) - expect))))

    v = np.array([0.05, 0.02])
    tra = evolve(translation_plateau_velocity(v=tuple(v)))
    inner = 0.5 + np.array([[0.0, 0.0], [0.1, -0.1], [-0.12, 0.05]])
    err_tra = 0.0
    for t in [0.7, 1.0]:
        err_tra = max(err_tra, float(np.max(np.abs(flow_point(tra, t, inner) - (inner + t * v)))))

    outside = np.array([[-0.2, 0.5], [1.3, 1.3], [0.5, -0.01]])
    err_out = 0.0
    for res in (rot, tra):
        for t in [0.7, 1.0]:
            err_out = max(err_out, float(np.max(np.abs(flow_point(res, t, outside) - outside))))

    ok = err_rot <= 1e-5 and err_tra <= 1e-5 and err_out == 0.0
    report(capsys, 3, "closed-form flows",
           ok, f"rotation {err_rot:.3g}, translation {err_tra:.3g}, outside-K {err_out:.3g}")


def _declared_tolerance(results) -> float:
    """A-posteriori error declared by the solver: fixed-point bound plus the
    density resampling estimate propagated through the path distance."""
    tol = 0.0
    for res in results:
        h = res.path.density[0].h
        for seg in res.segments:
            tol += seg.residual_bound + seg.resample_estimate * (1.0 + 2.0 / h)
    return tol


def test_criterion_04_subdivision_consistency(capsys):
    worst_ratio = 0.0
    worst_comp = 0.0
    for i in range(20):
        gamma = random_smooth_velocity(200 + i, target_bound=0.35)
        r1 = evolve(gamma, forced_n=1)
        r2 = evolve(gamma, forced_n=2)
        tol = 10.0 * _declared_tolerance([r1, r2])
        d = group_path_distance(r1.path, r2.path, p=gamma.p)
        worst_ratio = max(worst_ratio, d / tol)
        # composition law at k=1: the full evolution at time 1 equals the
        # product of the two window evolutions
        first_end = r2.path.element_at(0.5)  # exact in coefficients
        second = local_evolve(gamma.subdivide(2, 1), finest_dt=2.0 / 256)
        glued = star(second.path.end(), first_end)
        comp = (glued.disp - r1.path.end().disp).sup_seminorm()
        worst_comp = max(worst_comp, comp / tol)
    ok = worst_ratio <= 1.0 and worst_comp <= 1.0
    report(capsys, 4, "subdivision consistency",
           ok, f"distance/tol {worst_ratio:.3g}, composition/tol {worst_comp:.3g}")


def test_criterion_05_group_axioms(capsys):
    def resample_tol(g: GroupElement) -> float:
        vals = g.disp.eval(g.disp.nodes()).reshape(g.disp.shape + (g.disp.ncomp,))
        return resampling_estimate(vals, g.disp.h)

    phi = GroupElement(random_plateau_field(2026, target_alpha=0.3))
    psi = GroupElement(random_plateau_field(2027, target_alpha=0.25))
    chi = GroupElement(random_plateau_field(2028, target_alpha=0.2))
    e = identity_like(phi.disp)

    neutral = max(
        (star(e, phi).disp - phi.disp).sup_seminorm(),
        (star(phi, e).disp - phi.disp).sup_seminorm(),
    )
    neutral_tol = resample_tol(phi) + 1e-12

    inv_defect = star(phi, inverse(phi, tol=1e-13)).disp.sup_seminorm()

    left = star(star(phi, psi), chi)
    right = star(phi, star(psi, chi))
    assoc = (left.disp - right.disp).sup_seminorm()
    assoc_tol = 10.0 * (
        resample_tol(star(phi, psi)) + resample_tol(star(psi, chi)) + resample_tol(left)
    )

    ok = neutral <= neutral_tol and inv_defect <= 1e-8 and assoc <= assoc_tol
    report(capsys, 5, "group axioms",
           ok, f"neutral {neutral:.3g}, inverse {inv_defect:.3g}, "
               f"associativity {assoc:.3g} vs {assoc_tol:.3g}")


def test_criterion_06_subdivision_decay(capsys):
    worst = 0.0
    for gamma in [
        rotation_plateau_velocity(omega=0.3),
        translation_plateau_velocity(v=(0.05, 0.02)),
    ]:
        total = contraction_bound(gamma)
        for n in [1, 2, 4, 8, 16]:
            budget = max(contraction_bound(gamma.subdivide(n, k)) for k in range(n))
            worst = max(worst, abs(budget - total / n) / (total / n))
    ok = worst <= 1e-12
    report(capsys, 6, "subdivision decay", ok, f"max relative error {worst:.3g}")


def test_criterion_07_continuity(capsys, continuity_runs):
    out, code, dt = continuity_runs[1]
    rows = (out / "continuity.csv").read_text().splitlines()[1:]
    dists = [float(r.split(",")[2]) for r in rows]
    monotone = all(dists[k + 1] <= 1.1 * dists[k] for k in range(len(dists) - 1))
    ok = code == EXIT_OK and len(dists) == 6 and monotone and dists[-1] < 1e-3
    report(capsys, 7, "continuity of evolution",
           ok, f"distances {dists[0]:.3g} .. {dists[-1]:.3g}, {dt:.1f} s")


def test_criterion_08_chart_calculus(capsys):
    rng = np.random.default_rng(88)
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    start = rng.uniform(0.0, 1.0, size=2)
    eta = ManifoldAcPath("torus_2", (("torus", AcPath(
        start, LpSample(grid, rng.uniform(-0.2, 0.2, size=(4, 2)), 1.0))),))
    tau = SectionTuple(eta, (("torus", AcPath(
        rng.uniform(-0.1, 0.1, size=2),
        LpSample(grid, rng.uniform(-0.1, 0.1, size=(4, 2)), 1.0))),))

    back = chart_psi_inv(eta, chart_psi(eta, tau))
    roundtrip = max(
        float(np.max(np.abs(s1.start - s2.start)))
        + float(np.max(np.abs(s1.density.values - s2.density.values)))
        for (_, s1), (_, s2) in zip(back.segments, tau.segments)
    )

    xi = ManifoldAcPath("torus_2", tuple(
        (c, AcPath(wrap_point(s.start + 0.04),
                   LpSample(s.density.grid, 0.9 * s.density.values, s.p)))
        for c, s in eta.segments
    ))
    sigma = SectionTuple(eta, (("torus", AcPath(
        rng.uniform(-0.05, 0.05, size=2),
        LpSample(grid, rng.uniform(-0.05, 0.05, size=(4, 2)), 1.0))),))
    again = transition(eta, xi, transition(xi, eta, sigma))
    cocycle = max(
        float(np.max(np.abs(wrap_diff(s1.start - s2.start))))
        + float(np.max(np.abs(s1.density.values - s2.density.values)))
        for (_, s1), (_, s2) in zip(again.segments, sigma.segments)
    )

    theta = circle_point_from_chart("north", 2.0)
    base = ManifoldAcPath("circle_stereo", (("north", AcPath.constant(
        np.atleast_1d(circle_chart_from_point("north", theta)), grid, 1.0)),))
    w = 0.3
    circ = SectionTuple(base, (("north", AcPath.constant(np.array([w]), grid, 1.0)),))
    (_, piece), = section_embed(circ, np.array([0.0, 1.0]), ["south"])
    stereo = max(float(np.max(np.abs(ac_eval(piece, t) - (-w / 4.0)))) for t in [0.0, 0.5, 1.0])

    la = local_addition("torus_2")
    h = 1e-6
    fd_err = 0.0
    for t in [0.15, 0.65]:
        p = point_eval(eta, t)
        v = ac_eval(tau.segments[0][1], t)
        fd = wrap_diff(la.sigma(p, h * v) - la.sigma(p, -h * v)) / (2.0 * h)
        fd_err = max(fd_err, float(np.max(np.abs(fd - v))))

    ok = roundtrip <= 1e-11 and cocycle <= 1e-11 and stereo <= 1e-12 and fd_err <= 1e-6
    report(capsys, 8, "chart calculus",
           ok, f"roundtrip {roundtrip:.3g}, cocycle {cocycle:.3g}, "
               f"stereo {stereo:.3g}, fd {fd_err:.3g}")


def test_criterion_09_ac_space_identities(capsys):
    rng = np.random.default_rng(9)
    grid = TimeGrid(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, 4)])))
    path = AcPath(rng.normal(size=2), LpSample(grid, rng.normal(size=(5, 2)), 1.0))

    start, density = ac_phi(path)
    back = ac_phi_inv(start, density)
    phi_exact = np.array_equal(back.start, path.start) and np.array_equal(
        back.density.values, path.density.values)

    knots = grid.refine(TimeGrid.uniform(0.0, 1.0, 8))
    trace, dens = ac_embed(path, knots)
    primitive = np.stack([path.start + weak_integral(dens, 0.0, t) for t in knots.knots])
    reint_exact = np.array_equal(trace.values, primitive)

    # dyadic rescaling keeps every knot and density value exactly representable
    moved = ac_reparam(path, 0.0, 2.0)
    ends_exact = np.array_equal(ac_eval(moved, 0.0), ac_eval(path, 0.0)) and np.array_equal(
        ac_eval(moved, 2.0), ac_eval(path, 1.0))

    f = SmoothMap(
        lambda x: np.stack([np.sin(x[:, 0]) + x[:, 1], np.exp(0.3 * x[:, 1])], axis=1),
        lambda x: np.stack([
            np.stack([np.cos(x[:, 0]), np.ones(len(x))], axis=1),
            np.stack([np.zeros(len(x)), 0.3 * np.exp(0.3 * x[:, 1])], axis=1),
        ], axis=1),
    )
    pushed = ac_superpose(f, path, subdivisions=8)
    chain_ok = True
    chain_err = 0.0
    for i, (t, h) in enumerate(zip(pushed.density.grid.midpoints(), pushed.density.grid.widths())):
        fd = (f.fn(ac_eval(path, t + h / 2)[None]) - f.fn(ac_eval(path, t - h / 2)[None]))[0] / h
        err = float(np.max(np.abs(pushed.density.values[i] - fd)))
        chain_err = max(chain_err, err)
        chain_ok = chain_ok and err <= 10.0 * h**2

    ok = phi_exact and reint_exact and ends_exact and chain_ok
    report(capsys, 9, "AC-space identities",
           ok, f"phi exact {phi_exact}, reintegration exact {reint_exact}, "
               f"endpoints exact {ends_exact}, chain rule {chain_err:.3g}")


def test_criterion_10_determinism(capsys, oracle_runs, continuity_runs):
    same = True
    for fname in ["residuals.csv", "oracle.csv"]:
        same = same and (
            (oracle_runs[1][0] / fname).read_bytes() == (oracle_runs[8][0] / fname).read_bytes()
        )
    same = same and (
        (continuity_runs[1][0] / "continuity.csv").read_bytes()
        == (continuity_runs[8][0] / "continuity.csv").read_bytes()
    )
    report(capsys, 10, "thread determinism", same, "CSV byte comparison, threads 1 vs 8")
