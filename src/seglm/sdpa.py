"""Fused two-segment attention and the materialized attention that checks it.

Both streaming kernels work one tile of ``KEY_BLOCK`` keys at a time through
an online softmax (running max and normalizer, Milakov & Gimelshein, arXiv
1805.02867; tiling as in FlashAttention, Dao et al., arXiv 2205.14135).

The decode kernel makes a single pass per (batch, beam, head) over two
segments: first the beam-shared prompt K/V (batch first, never expanded per
beam; each tile is one [BW, D] x [D, tile] product per item and head), then
the response K/V (sequence first), gathered through the beam indices with one
fancy index per tile, and normalizes once at the end: one softmax over both
segments, with the index select fused into the pass. At BW = 1 every index is
0, so the response is streamed as plain slices, each viewed batch first and
folded like a prompt tile, without a gather or a copy. Its temporaries are
bounded by KEY_BLOCK x BS*BW x H x D.

The prefill kernel runs the same recurrence over query tiles x key tiles of
one batch-first segment, skips the key tiles that lie wholly above the
causal diagonal and masks only the diagonal tile; its score temporaries are
bounded by KEY_BLOCK^2 x BS x H.

Neither kernel materializes a full-length gathered K/V or score tensor.
``sdpa_materialized``, the one full-softmax attention, does; the reference
engine attends with it, and the decode oracle gathers the full per-beam K/V
(mirroring the unfused gather + concat path) and calls it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .kvcache import PromptKV, ResponseKV

# Keys per tile in both streaming kernels, chosen by measurement (2-core x86
# host, BLAS on one thread, min of 20 calls, ms at KEY_BLOCK 64 / 128 / 256):
#   sdpa_prefill on [2, 512, 8, 32]                     17.5 / 16.4 / 30.8
#   sdpa_decode_fused, BS 2 x BW 4, 512 prompt + 48     0.96 / 0.89 / 1.02
#   sdpa_decode_fused, BS 4 x BW 8, 64 prompt + 64      1.77 / 1.40 / 1.68
#   sdpa_decode_fused, BS 4 x BW 1, 32 prompt + 160     0.20 / 0.16 / 0.14
# (the BW 1 row is the median of 7 such minima). 256 wins only there, where
# the 160 response keys fit one tile. At 256 each prefill score tile
# (KEY_BLOCK^2 x BS x H floats) is 4 MiB at this shape, and half of every
# diagonal tile is computed only to be masked.
KEY_BLOCK = 128


class OnlineSoftmax:
    """Streaming softmax-weighted accumulation over tiles of keys.

    Per row, a tile of n scores s_j with values v_j is folded in as
        m' = max(m, max_j s_j); alpha = e^(m-m'); p_j = e^(s_j-m')
        l' = alpha*l + sum_j p_j; acc' = alpha*acc + sum_j p_j v_j
    Starting from m = -inf, l = 0, acc = 0, acc/l is the exact attention
    output over the keys processed so far, in any order and tiling. A masked
    key (score -inf) gets weight 0, and a row none of whose keys so far is
    unmasked keeps m = -inf, l = 0, acc = 0.
    """

    def __init__(self, lead_shape: tuple[int, ...], d: int):
        self.m = np.full(lead_shape, -np.inf, dtype=np.float32)
        self.l = np.zeros(lead_shape, dtype=np.float32)
        self.acc = np.zeros(lead_shape + (d,), dtype=np.float32)

    def update(self, scores: np.ndarray, values: np.ndarray) -> None:
        """Fold in one tile: ``scores`` is [*lead, n]. ``values`` is either
        [*lead, n, D], one block per row, or [*lead[:-1], n, D], one block
        shared by every row along the last lead axis, which makes the
        product one matrix multiply per group of rows."""
        m_new = np.maximum(self.m, scores.max(axis=-1))
        # a row with no unmasked key yet shifts by 0, not by -inf, so its
        # weights are e^-inf = 0 rather than e^nan
        shift = np.where(m_new > -np.inf, m_new, np.float32(0))
        alpha = np.exp(self.m - shift)
        p = np.exp(scores - shift[..., None])
        if values.ndim > p.ndim:
            pv = np.matmul(p[..., None, :], values)[..., 0, :]
        else:
            pv = np.matmul(p, values)
        self.l = alpha * self.l + p.sum(axis=-1)
        self.acc = alpha[..., None] * self.acc + pv
        self.m = m_new

    def finalize(self) -> np.ndarray:
        return self.acc / self.l[..., None]


def sdpa_prefill(q, k, v) -> np.ndarray:
    """Causal tiled attention over one batch-first segment.

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

    # [BS, H, N, D] views, so each tile pair is one batched matrix multiply
    qh = q.transpose(0, 2, 1, 3) * np.float32(1.0 / sqrt(d))
    kt = k.transpose(0, 2, 3, 1)  # [BS, H, D, N]
    vh = v.transpose(0, 2, 1, 3)
    causal = np.tril(np.ones((KEY_BLOCK, KEY_BLOCK), dtype=bool))
    out = np.empty((bs, h, n, d), dtype=np.float32)
    for q0 in range(0, n, KEY_BLOCK):
        q1 = min(q0 + KEY_BLOCK, n)
        state = OnlineSoftmax((bs, h, q1 - q0), d)
        # key tiles past the diagonal one lie wholly above it and are skipped
        for k0 in range(0, q1, KEY_BLOCK):
            k1 = min(k0 + KEY_BLOCK, n)
            s = qh[:, :, q0:q1] @ kt[..., k0:k1]
            if k0 == q0:  # the diagonal tile: query q0+i sees keys q0..q0+i
                s = np.where(causal[:q1 - q0, :k1 - k0], s, np.float32(-np.inf))
            state.update(s, vh[:, :, k0:k1])
        out[:, :, q0:q1] = state.finalize()
    return out.transpose(0, 2, 1, 3)


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


def _fold_batch_first(state: OnlineSoftmax, q, kt, vt) -> None:
    """Fold one batch-first [BS, n, H, D] key/value tile, shared by every beam
    of an item, into ``state``: one [BW, D] x [D, n] product per item and head."""
    state.update(q @ kt.transpose(0, 2, 3, 1), vt.transpose(0, 2, 1, 3))


def sdpa_decode_fused(inp: SdpaDecodeInputs) -> np.ndarray:
    """Single-pass decode attention: stream the shared prompt segment, then
    the beam-gathered response segment (plain slices at BW = 1), tile by
    tile through one online softmax.

    Returns the context as [1, BS*BW, H, D]. The (batch, head) iteration
    space is embarrassingly parallel; results do not depend on scheduling.
    """
    bs, bw, n_prompt, n_resp, h, d = inp.dims
    # rows as [BS, H, BW]: the beams of an item are the rows of one product
    q = inp.q.reshape(bs, bw, h, d).transpose(0, 2, 1, 3) * np.float32(1.0 / sqrt(d))
    state = OnlineSoftmax((bs, h, bw), d)

    for t0 in range(0, n_prompt, KEY_BLOCK):
        _fold_batch_first(state, q, inp.prompt_k[:, t0:t0 + KEY_BLOCK],
                          inp.prompt_v[:, t0:t0 + KEY_BLOCK])

    if bw == 1:
        # every index is 0, so the select is the identity: a response tile is
        # a plain slice [n, BS, H, D], viewed batch first without a copy
        for t0 in range(0, n_resp, KEY_BLOCK):
            _fold_batch_first(state, q, inp.resp_k[t0:t0 + KEY_BLOCK].transpose(1, 0, 2, 3),
                              inp.resp_v[t0:t0 + KEY_BLOCK].transpose(1, 0, 2, 3))
    else:
        rk = inp.resp_k.reshape(n_resp, bs, bw, h, d)
        rv = inp.resp_v.reshape(n_resp, bs, bw, h, d)
        item = np.arange(bs)[:, None, None]
        for t0 in range(0, n_resp, KEY_BLOCK):
            t1 = min(t0 + KEY_BLOCK, n_resp)
            # fused index select: the tile's rows on each beam's ancestry path
            sel = (np.arange(t0, t1), item, inp.indices[:, :, t0:t1])
            kt = rk[sel]  # [BS, BW, n, H, D]
            vt = rv[sel]
            s = np.matmul(q[..., None, :], kt.transpose(0, 3, 1, 4, 2))[..., 0, :]
            state.update(s, vt.transpose(0, 3, 1, 2, 4))

    return state.finalize().transpose(0, 2, 1, 3).reshape(1, bs * bw, h, d)


def sdpa_materialized(q, k, v) -> np.ndarray:
    """Full-softmax attention on batch-first [B, Nq, H, D] queries and [B, Nk, H, D]
    keys and values, in the inputs' dtype. Query i sees keys j <= i + Nk - Nq
    (bottom-right causal): Nq = Nk is causal prefill, Nq = 1 one decode step."""
    qt, kt, vt = (x.transpose(0, 2, 1, 3) for x in (q, k, v))  # [B, H, N, D]
    s = (qt @ kt.transpose(0, 1, 3, 2)) * q.dtype.type(1.0 / sqrt(q.shape[-1]))
    nq, nk = s.shape[-2:]
    keep = np.arange(nk)[None, :] <= np.arange(nq)[:, None] + (nk - nq)
    s = np.where(keep, s, s.dtype.type(-np.inf))
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    return ((p / p.sum(axis=-1, keepdims=True)) @ vt).transpose(0, 2, 1, 3)


def sdpa_decode_oracle(inp: SdpaDecodeInputs) -> np.ndarray:
    """Materializing reference: gather the full per-beam K/V, then attend with
    ``sdpa_materialized``. Same contract as the fused kernel."""
    bs, bw, n_prompt, n_resp, h, d = inp.dims
    idx = inp.indices.transpose(0, 2, 1)[..., None, None]  # [BS, Nr, BW, 1, 1]
    full = []  # K, then V, as [BS*BW, N, H, D]: the shared prompt, then the gathered response
    for prompt, resp in ((inp.prompt_k, inp.resp_k), (inp.prompt_v, inp.resp_v)):
        shared = np.broadcast_to(prompt[:, None], (bs, bw, n_prompt, h, d))
        resp = resp.reshape(n_resp, bs, bw, h, d).transpose(1, 0, 2, 3, 4)
        gathered = np.take_along_axis(resp, idx, axis=2).transpose(0, 2, 1, 3, 4)
        full.append(np.concatenate([shared, gathered], axis=2).reshape(bs * bw, -1, h, d))
    return sdpa_materialized(inp.q.reshape(bs * bw, 1, h, d), *full).reshape(1, bs * bw, h, d)
