"""Host speed, measured next to every timed request.

On a shared host the same code runs up to ~1.7x slower while another tenant
contends for the core, in episodes of seconds to minutes. Raw wall times of
whole runs then spread by 15-30% between runs, which hides any change to the
runtime smaller than that. So the benchmark times a fixed burst of work right
before and right after each timed request and reports the request's times
scaled by ``REFERENCE_S / burst time``: the times it would have taken on a
host where one burst takes ``REFERENCE_S`` (the uncontended speed of the
2-vCPU x86 VM the benchmark was calibrated on). Within a request the burst
time is interpolated linearly between the two bursts. Raw wall times are
kept next to the scaled ones in every result.

The burst mixes what the engines spend their time on: a per-key Python loop
of small numpy ufunc calls (the online-softmax recurrence) and small
matmuls. It must never change along with the runtime; changing it changes
the unit of every end-to-end timing.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.060
_RNG = np.random.default_rng(0)
_KEYS = _RNG.standard_normal((2, 96, 8, 32)).astype(np.float32)
_W = (_RNG.standard_normal((256, 768)) * 0.02).astype(np.float32)
_X = _RNG.standard_normal((16, 256)).astype(np.float32)


def burst() -> float:
    """Run the fixed burst once; return its wall time in seconds."""
    q = _KEYS[:, :4]
    t0 = perf_counter()
    for _ in range(20):
        m = np.full((2, 4, 8), -np.inf, dtype=np.float32)
        l = np.zeros((2, 4, 8), dtype=np.float32)
        acc = np.zeros((2, 4, 8, 32), dtype=np.float32)
        for j in range(96):
            s = np.einsum("bwhd,bhd->bwh", q, _KEYS[:, j])
            m_new = np.maximum(m, s)
            live = m_new > -np.inf
            alpha = np.where(live, np.exp(m - m_new), 0.0).astype(np.float32)
            p = np.where(live, np.exp(s - m_new), 0.0).astype(np.float32)
            l = alpha * l + p
            acc = alpha[..., None] * acc + p[..., None] * _KEYS[:, j][:, None]
            m = m_new
        for _ in range(8):
            y = _X @ _W
            y = y / np.sqrt(np.mean(np.square(y), axis=-1, keepdims=True) + 1e-5)
    return perf_counter() - t0


def scale(before: float, after: float, start: float, end: float) -> float:
    """Factor bringing the stretch [start, end] of a timed call, given as
    fractions of its wall time, to the reference speed; ``before`` and
    ``after`` are the bursts timed just before and just after the call."""
    return REFERENCE_S / (before + (after - before) * (start + end) / 2)
