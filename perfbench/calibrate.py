"""A fixed CPU kernel that measures how fast the machine is right now.

The sandbox this benchmark runs in shares its cores with other machines,
and its speed drifts by tens of percent over minutes.  The kernel below is
independent of evolflow (it never changes when the program does) and does
the same kind of work as the solver: cubic B-spline evaluation by index
gathers and small einsums, in large batches and in many small calls.
Timing it next to each solve and dividing it out leaves the solve time as
it would be on a machine of reference speed.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time, in seconds, at reference speed: the fast state of the
#: 2-core sandbox the first baseline was measured on (0.065-0.070 s a pass).
REFERENCE_S = 0.2
#: kernel passes per timing, about a quarter of a second at reference speed.
PASSES = 3

_N = 36
_RNG = np.random.default_rng(0)
_COEFFS = _RNG.standard_normal((_N * _N, 2))
_OFFS = (np.arange(4)[:, None] * _N + np.arange(4)[None, :]).ravel()
# 65536-point batches, as in the solver's Picard sweeps.  A kernel whose
# data fits in the core's caches followed the host's slow phases less well,
# and so did this kernel run in a separate process.
_BIG = _RNG.uniform(0.0, 1.0, size=(65536, 2))
_SMALL = _RNG.uniform(0.0, 1.0, size=(50, 2))


def _spline_eval(pts: np.ndarray) -> np.ndarray:
    u = pts * (_N - 5)
    base = np.floor(u).astype(np.int64)
    t = u - base
    w = np.stack([(1 - t) ** 3 / 6, 0.5 * t**3 - t**2 + 2 / 3, -0.5 * t**3 + 0.5 * t**2 + 0.5 * t + 1 / 6, t**3 / 6], axis=-1)
    wf = (w[:, 0, :, None] * w[:, 1, None, :]).reshape(len(pts), 16)
    idx = (base[:, 0] * _N + base[:, 1])[:, None] + _OFFS
    return np.einsum("pk,pkc->pc", wf, np.take(_COEFFS, idx, axis=0))


def kernel_s() -> float:
    """Wall time of PASSES passes of the fixed kernel."""
    t = time.perf_counter()
    for _ in range(PASSES):
        for _ in range(2):
            _spline_eval(_BIG)
        for _ in range(400):
            _spline_eval(_SMALL)
    return time.perf_counter() - t


class SpeedScale:
    """Scales back-to-back measurements to reference speed.

    Times the kernel on creation and again at each call; a measurement taken
    between two kernel timings is scaled by REFERENCE_S over their mean.
    """

    def __init__(self):
        self._before = kernel_s()

    def __call__(self, seconds: float) -> float:
        after = kernel_s()
        scaled = seconds * REFERENCE_S / (0.5 * (self._before + after))
        self._before = after
        return scaled
