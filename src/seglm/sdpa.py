"""Fused two-segment attention and its materializing oracle.

The decode kernel makes a single online-softmax pass per (batch, beam, head):
it first streams the beam-shared prompt K/V (batch first, no beam expansion),
then streams the response K/V (sequence first) through the beam gather
indices, and normalizes once at the end: one softmax over both segments,
with the index select fused into the pass. The prefill kernel is the same
streaming recurrence restricted to a single batch-first segment.

The oracle materializes the gathered K/V and a full softmax, mirroring the
unfused gather + concat + attention path, and is what the fused kernel is
verified against.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .kvcache import PromptKV, ResponseKV


class OnlineSoftmax:
    """Streaming softmax-weighted accumulation with a running max.

    Per update with score s and value v:
        m' = max(m, s); l' = l*e^(m-m') + e^(s-m'); acc' = acc*e^(m-m') + e^(s-m')*v
    Starting from m = -inf, l = 0, acc = 0; acc/l is the exact attention
    output over the keys processed so far, in any processing order.
    """

    def __init__(self, lead_shape: tuple[int, ...], d: int):
        self.m = np.full(lead_shape, -np.inf, dtype=np.float32)
        self.l = np.zeros(lead_shape, dtype=np.float32)
        self.acc = np.zeros(lead_shape + (d,), dtype=np.float32)

    def update(self, scores: np.ndarray, values: np.ndarray) -> None:
        m_new = np.maximum(self.m, scores)
        live = m_new > -np.inf
        with np.errstate(invalid="ignore"):
            alpha = np.where(live, np.exp(self.m - m_new), 0.0).astype(np.float32)
            p = np.where(live, np.exp(scores - m_new), 0.0).astype(np.float32)
        self.l = alpha * self.l + p
        self.acc = alpha[..., None] * self.acc + p[..., None] * values
        self.m = m_new

    def finalize(self) -> np.ndarray:
        return self.acc / self.l[..., None]


def sdpa_prefill(q, k, v) -> np.ndarray:
    """Causal streaming attention over one batch-first segment.

    Inputs and output are [BS, N, H, D] batch first; no layout conversion is
    performed. Query i attends keys j <= i, with scores scaled by 1/sqrt(D).
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    if q.ndim != 4:
        raise ValueError(f"q must be [BS, N, H, D], got {q.shape}")
    if not (q.shape == k.shape == v.shape):
        raise ValueError(f"shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    bs, n, h, d = q.shape
    if n == 0:
        raise ValueError("attention over zero keys is undefined")
    scale = np.float32(1.0 / sqrt(d))

    state = OnlineSoftmax((bs, n, h), d)
    qpos = np.arange(n)[None, :, None]  # query positions, broadcast over (bs, h)
    for j in range(n):
        s = np.einsum("bnhd,bhd->bnh", q, k[:, j]) * scale
        s = np.where(qpos >= j, s, np.float32(-np.inf))
        state.update(s.astype(np.float32, copy=False), v[:, j][:, None, :, :])
    return state.finalize()


@dataclass
class SdpaDecodeInputs:
    """Inputs of the fused decode kernel.

    q is [1, BS*BW, H, D]; prompt K/V are [BS, N_prompt, H, D] batch first
    (beam-shared); response K/V are [N_response, BS*BW, H, D] sequence first;
    indices is the [BS, BW, N_response] gather tensor with values in [0, BW).
    """

    q: np.ndarray
    prompt_k: np.ndarray
    prompt_v: np.ndarray
    resp_k: np.ndarray
    resp_v: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=np.float32)
        self.prompt_k = np.asarray(self.prompt_k, dtype=np.float32)
        self.prompt_v = np.asarray(self.prompt_v, dtype=np.float32)
        self.resp_k = np.asarray(self.resp_k, dtype=np.float32)
        self.resp_v = np.asarray(self.resp_v, dtype=np.float32)
        self.indices = np.asarray(self.indices)
        self.validate()

    def validate(self) -> None:
        if self.q.ndim != 4 or self.q.shape[0] != 1:
            raise ValueError(f"q must be [1, BS*BW, H, D], got {self.q.shape}")
        if self.prompt_k.ndim != 4:
            raise ValueError(f"prompt K must be [BS, N_prompt, H, D], got {self.prompt_k.shape}")
        bs, n_prompt, h, d = self.prompt_k.shape
        if bs < 1:
            raise ValueError("batch size must be >= 1")
        if self.prompt_v.shape != self.prompt_k.shape:
            raise ValueError("prompt K and V shapes differ")
        rows = self.q.shape[1]
        if self.q.shape[2:] != (h, d):
            raise ValueError(f"q head dims {self.q.shape[2:]} do not match prompt ({h}, {d})")
        if self.indices.ndim != 3 or self.indices.shape[0] != bs:
            raise ValueError(f"indices must be [BS, BW, N_response], got {self.indices.shape}")
        bw = self.indices.shape[1]
        if rows != bs * bw:
            raise ValueError(f"q rows {rows} != BS*BW = {bs}*{bw}")
        n_resp = self.indices.shape[2]
        expect = (n_resp, rows, h, d)
        if self.resp_k.shape != expect or self.resp_v.shape != expect:
            raise ValueError(
                f"response K/V must be {expect}, got {self.resp_k.shape} / {self.resp_v.shape}"
            )
        if n_prompt + n_resp == 0:
            raise ValueError("attention over zero keys is undefined")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= bw):
            raise ValueError(f"indices values must lie in [0, {bw})")

    @property
    def dims(self) -> tuple[int, int, int, int, int, int]:
        bs, n_prompt, h, d = self.prompt_k.shape
        bw = self.indices.shape[1]
        return bs, bw, n_prompt, self.indices.shape[2], h, d

    @classmethod
    def from_caches(cls, q, prompt_kv: PromptKV, resp_kv: ResponseKV,
                    layer: int, indices: np.ndarray) -> "SdpaDecodeInputs":
        """Build kernel inputs from one layer's cache buffers; ``validate``
        checks every shape."""
        pk, pv = prompt_kv.layer(layer)
        rk, rv = resp_kv.valid(layer)
        return cls(q, pk, pv, rk, rv, indices)


def sdpa_decode_fused(inp: SdpaDecodeInputs) -> np.ndarray:
    """Single-pass decode attention: stream the shared prompt segment, then
    the beam-gathered response segment, through one online softmax.

    Returns the context as [1, BS*BW, H, D]. The (batch, head) iteration
    space is embarrassingly parallel; results do not depend on scheduling.
    """
    bs, bw, n_prompt, n_resp, h, d = inp.dims
    scale = np.float32(1.0 / sqrt(d))
    q = inp.q.reshape(bs, bw, h, d)
    state = OnlineSoftmax((bs, bw, h), d)

    for j in range(n_prompt):
        kj = inp.prompt_k[:, j]  # [BS, H, D], shared by every beam of the item
        s = np.einsum("bwhd,bhd->bwh", q, kj) * scale
        state.update(s, inp.prompt_v[:, j][:, None])

    if n_resp:
        rk = inp.resp_k.reshape(n_resp, bs, bw, h, d)
        rv = inp.resp_v.reshape(n_resp, bs, bw, h, d)
        for t in range(n_resp):
            sel = inp.indices[:, :, t][:, :, None, None]
            kt = np.take_along_axis(rk[t], sel, axis=1)  # fused index select
            vt = np.take_along_axis(rv[t], sel, axis=1)
            s = np.einsum("bwhd,bwhd->bwh", q, kt) * scale
            state.update(s, vt)

    return state.finalize().reshape(1, bs * bw, h, d)


def sdpa_decode_oracle(inp: SdpaDecodeInputs) -> np.ndarray:
    """Materializing reference: gather the full per-beam K/V, then one full
    softmax pass. Same contract as the fused kernel."""
    bs, bw, n_prompt, n_resp, h, d = inp.dims
    scale = np.float32(1.0 / sqrt(d))
    q = inp.q.reshape(bs, bw, h, d)

    parts_k = [np.broadcast_to(inp.prompt_k[:, None], (bs, bw, n_prompt, h, d))]
    parts_v = [np.broadcast_to(inp.prompt_v[:, None], (bs, bw, n_prompt, h, d))]
    if n_resp:
        rk = inp.resp_k.reshape(n_resp, bs, bw, h, d).transpose(1, 0, 2, 3, 4)
        rv = inp.resp_v.reshape(n_resp, bs, bw, h, d).transpose(1, 0, 2, 3, 4)
        idx = inp.indices.transpose(0, 2, 1)[..., None, None]  # [BS, Nr, BW, 1, 1]
        gk = np.take_along_axis(rk, idx, axis=2).transpose(0, 2, 1, 3, 4)
        gv = np.take_along_axis(rv, idx, axis=2).transpose(0, 2, 1, 3, 4)
        parts_k.append(gk)
        parts_v.append(gv)
    full_k = np.concatenate(parts_k, axis=2)
    full_v = np.concatenate(parts_v, axis=2)

    s = np.einsum("bwhd,bwnhd->bwnh", q, full_k) * scale
    m = s.max(axis=2, keepdims=True)
    w = np.exp(s - m)
    w = w / w.sum(axis=2, keepdims=True)
    out = np.einsum("bwnh,bwnhd->bwhd", w, full_v)
    return out.reshape(1, bs * bw, h, d).astype(np.float32, copy=False)
