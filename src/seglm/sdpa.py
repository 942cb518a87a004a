"""Fused two-segment attention and the materialized attention that checks it.

Both streaming kernels work one tile of keys at a time (``KEY_BLOCK`` keys
in prefill, ``DECODE_BLOCK`` in decode) through an online softmax (running
max and normalizer, Milakov & Gimelshein, arXiv 1805.02867; tiling as in
FlashAttention, Dao et al., arXiv 2205.14135).

The decode kernel makes one pass over two segments, every tile folded by
the same batch-first product, and normalizes once at the end: one softmax
over both, with the index select fused into the pass. A prompt tile (batch
first, shared by the beams, never expanded) is one [BW, D] x [D, tile]
product per item and head; ``PromptKV`` stores K keys last and V head
major, so that product and the weighted sum read contiguous per-head panels
of K^T and V, the order FlashAttention streams its K/V tiles in. The state
is then regrouped once into BS*BW rows of one query each, and a response
tile (sequence first) is gathered by global row through the beam indices as
one [BS*BW, tile, H, D] fancy index; at BW = 1 every index is 0, so it is a
plain slice viewed batch first, with no copy. Its temporaries are bounded by
DECODE_BLOCK x BS*BW x H x D.

The prefill kernel runs the same recurrence over query tiles x key tiles of
one batch-first segment, skips the key tiles that lie wholly above the
causal diagonal and masks only the diagonal tile, adding one precomputed
0/-inf bias to it in place; the shift and the exp also run in place on
each fresh score tile. Its queries may be only the last Nq <= Nk positions
of the segment, bottom-right aligned as in FlashAttention-2 (Dao, arXiv
2307.08691): the optimized engine's last layer attends with the last
prompt position alone, and a prompt chunk (Sarathi, Agrawal et al., arXiv
2308.16369) would attend with its own positions over every key so far.
Query tiles stay aligned to KEY_BLOCK positions, clipped to the queries
present, so the diagonal tile's mask is a slice of the same one bias and
Nq = Nk tiles exactly as a whole prefill. Its score tiles are held keys major,
[BS, H, keys, queries] = K_tile @ Q_tile^T, with the accumulator as
[BS, H, D, queries], so the running max and the normalizer reduce across
contiguous rows of queries: on a [2, 8, 128, 128] tile numpy takes the max
about 3x and the sum about 1.3x faster that way than along the last axis.
Its score temporaries are bounded by KEY_BLOCK^2 x BS x H. The decode
kernel keeps its keys last: with at most BW queries per product, keys major
is slower there.

Both kernels start the recurrence from their first tile, so a prompt of at
most KEY_BLOCK tokens is prefilled as one exact masked softmax.

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

# Keys per tile in sdpa_prefill, chosen by measurement (2-core x86 host,
# BLAS on one thread, ms at KEY_BLOCK 64 / 128 / 256, median of 15
# alternating minima of 20 calls): on [2, 512, 8, 32], 16.68 / 14.87 / 24.92
# (a second run read 17.19 / 15.42 / 26.45). At 256 each score tile
# (KEY_BLOCK^2 x BS x H floats) is 4 MiB at this shape, and half of every
# diagonal tile is computed only to be masked.
KEY_BLOCK = 128
# Keys per tile in sdpa_decode_fused, both segments, chosen by measurement
# (same host, H 8, D 32, the prompt in PromptKV's arena, ms at width
# 128 / 256 / 512 / 1024, median over 25 interleaved rounds of the minimum
# of 9 calls):
#   BS 2 x BW 4, 512 prompt + 24      0.488 / 0.419 / 0.372 / 0.365
#   BS 2 x BW 4, 512 prompt + 48      0.449 / 0.392 / 0.359 / 0.363
#   BS 4 x BW 1, 32 prompt + 150      0.218 / 0.182 / 0.182 / 0.180
#   BS 4 x BW 1, 32 prompt + 160      0.148 / 0.121 / 0.121 / 0.123
#   BS 4 x BW 8, 64 prompt + 32       0.792 / 0.780 / 0.787 / 0.788
# A batch-first [BS, N_prompt, H, D] prompt at width 128, the layout and
# width prefill uses, read 0.564 and 0.518 ms at the two long-prompt rows.
# 1024 gains nothing over 512 and doubles the bound on the score tile,
# DECODE_BLOCK x BS*BW x H floats.
DECODE_BLOCK = 512
# the shift of a query none of whose keys so far is unmasked
_LOWEST = np.finfo(np.float32).min


class OnlineSoftmax:
    """Streaming softmax-weighted accumulation over tiles of keys.

    Per query, a tile of n scores s_j with values v_j is folded in as
        m' = max(m, max_j s_j); alpha = e^(m-m'); p_j = e^(s_j-m')
        l' = alpha*l + sum_j p_j; acc' = alpha*acc + sum_j p_j v_j
    The state before any tile is m = -inf, l = 0, acc = 0; the first tile
    replaces it with its own max, sum and products rather than rescaling it,
    so one tile is one exact softmax. After each tile, acc/l is the exact
    attention output over the keys processed so far, in any order and
    tiling. A masked key (score -inf) gets weight 0, and a query none of
    whose keys so far is unmasked keeps m = -inf, l = 0, acc = 0.

    ``lead_shape`` is the shape of m and l, one entry per query. Keys last,
    a tile's ``scores`` are [*lead, n] and its ``values`` [*lead[:-1], n, D],
    one block shared by the queries along the last lead axis, so the product
    is one matrix multiply per group of queries; ``acc`` is [*lead, D].
    ``sdpa_prefill`` alone builds its state with ``_keys_major``: then
    ``scores`` are [*lead[:-1], n, lead[-1]], so the max and the sum reduce
    across contiguous rows of queries, ``values`` is the transposed
    [*lead[:-1], D, n] tile and ``acc`` is [*lead[:-1], D, lead[-1]]. A
    keys-major update consumes its score tile: the shift and the exp
    overwrite it instead of allocating a new one.
    """

    def __init__(self, lead_shape: tuple[int, ...], d: int, *, _keys_major: bool = False):
        self.axis = -2 if _keys_major else -1
        # indexes a per-query array so that it broadcasts over a tile's keys
        self.over_keys = np.s_[..., None, :] if _keys_major else np.s_[..., None]
        acc_shape = (lead_shape[:-1] + (d,) + lead_shape[-1:] if _keys_major
                     else lead_shape + (d,))
        self.m = np.full(lead_shape, -np.inf, dtype=np.float32)
        self.l = np.zeros(lead_shape, dtype=np.float32)
        self.acc = np.zeros(acc_shape, dtype=np.float32)
        self.tiles = 0

    def update(self, scores: np.ndarray, values: np.ndarray) -> None:
        """Fold in one tile of ``scores`` and ``values``, laid out as the
        state's key axis says (see the class docstring)."""
        axis = self.axis
        m_tile = scores.max(axis=axis)
        m_new = np.maximum(self.m, m_tile) if self.tiles else m_tile
        # a query with no unmasked key yet shifts by the lowest finite float,
        # not by -inf, so its weights are e^-inf = 0 rather than e^nan
        shift = np.maximum(m_new, _LOWEST)
        # a keys-major tile is the kernel's own fresh product, overwritten here
        p = np.subtract(scores, shift[self.over_keys], out=scores if axis == -2 else None)
        np.exp(p, out=p)
        pv = values @ p if axis == -2 else p @ values
        if self.tiles:
            alpha = np.exp(self.m - shift)
            self.l *= alpha
            self.l += p.sum(axis=axis)
            self.acc *= alpha[self.over_keys]
            self.acc += pv
        else:
            self.l = p.sum(axis=axis)
            self.acc = pv
        self.m = m_new
        self.tiles += 1

    def finalize(self) -> np.ndarray:
        return self.acc / self.l[self.over_keys]


def sdpa_prefill(q, k, v) -> np.ndarray:
    """Causal tiled attention of the last Nq positions of one batch-first
    segment over all Nk of its keys, Nq <= Nk.

    q is [BS, Nq, H, D] and k, v are [BS, Nk, H, D], batch first; the output
    is q's shape and no layout conversion is performed. Causality is bottom
    right, as in ``sdpa_materialized``: query i sits at position
    i + Nk - Nq and attends keys j <= i + Nk - Nq, with scores scaled by
    1/sqrt(D). Nq = Nk is a whole causal prefill. Query tiles start at
    positions that are multiples of KEY_BLOCK, clipped to the queries'
    positions, so key tiles and query tiles share their edges and only the
    diagonal tile is masked. Score tiles are keys x queries (see the module
    docstring).
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    if q.ndim != 4:
        raise ValueError(f"q must be [BS, Nq, H, D], got {q.shape}")
    if k.shape != v.shape or q.shape[2:] != k.shape[2:] or q.shape[0] != k.shape[0]:
        raise ValueError(f"shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    bs, nq, h, d = q.shape
    n = k.shape[1]
    if n == 0:
        raise ValueError("attention over zero keys is undefined")
    if not 0 < nq <= n:
        raise ValueError(f"Nq must lie in [1, Nk]: got {nq} queries over {n} keys")

    # [BS, H, ...] views, so each tile pair is one batched matrix multiply
    qt = q.transpose(0, 2, 3, 1) * np.float32(1.0 / sqrt(d))  # [BS, H, D, Nq]
    kh = k.transpose(0, 2, 1, 3)  # [BS, H, Nk, D]
    vt = v.transpose(0, 2, 3, 1)  # [BS, H, D, Nk]
    first = n - nq  # the position of query 0
    b = min(n, KEY_BLOCK)
    # the diagonal tile's causal mask, keys x queries: key j is hidden from query i < j
    causal = np.tril(np.full((b, b), -np.inf, dtype=np.float32), -1)
    out = np.empty((bs, h, d, nq), dtype=np.float32)
    for t0 in range(first - first % KEY_BLOCK, n, KEY_BLOCK):
        a0, a1 = max(t0, first), min(t0 + KEY_BLOCK, n)  # this tile's query positions
        state = OnlineSoftmax((bs, h, a1 - a0), d, _keys_major=True)
        # key tiles past the diagonal one lie wholly above it and are skipped
        for k0 in range(0, a1, KEY_BLOCK):
            k1 = min(k0 + KEY_BLOCK, n)
            s = kh[:, :, k0:k1] @ qt[..., a0 - first:a1 - first]  # [BS, H, keys, queries]
            if k0 == t0:  # the diagonal tile: the query at position a sees keys t0..a
                s += causal[:k1 - k0, a0 - t0:a1 - t0]
            state.update(s, vt[..., k0:k1])
        out[..., a0 - first:a1 - first] = state.finalize()
    return out.transpose(0, 3, 1, 2)


@dataclass
class SdpaDecodeInputs:
    """Inputs of the fused decode kernel.

    q is [1, BS*BW, H, D]; prompt K/V are [BS, N_prompt, H, D] batch first
    (beam-shared); response K/V are [N_response, BS*BW, H, D] sequence first;
    indices is the [BS, BW, N_response] gather tensor with values in [0, BW).
    Any strides are read as they are. The fast prompt layout is
    ``PromptKV.layer``'s: views of a keys-last K and a head-major V arena,
    so each (item, head) panel a prompt tile reads is contiguous.
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
        if self.indices.dtype.kind not in "iu":  # bool included: a mask is not an index
            raise ValueError(f"indices must be integers, got dtype {self.indices.dtype}")
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
    """Fold one batch-first [B, n, H, D] key/value tile into ``state`` of lead
    [B, H, G]: one [G, D] x [D, n] product per row and head of q [B, H, G, D]."""
    state.update(q @ kt.transpose(0, 2, 3, 1), vt.transpose(0, 2, 1, 3))


def sdpa_decode_fused(inp: SdpaDecodeInputs) -> np.ndarray:
    """Single-pass decode attention: stream the shared prompt segment, then
    the beam-gathered response segment (plain slices at BW = 1), tile by
    tile through one online softmax.

    Returns the context as [1, BS*BW, H, D]. The (batch, head) iteration
    space is embarrassingly parallel; results do not depend on scheduling.
    """
    bs, bw, n_prompt, n_resp, h, d = inp.dims
    rows = bs * bw
    q = inp.q.reshape(bs, bw, h, d) * np.float32(1.0 / sqrt(d))
    # prompt: the beams of an item are the queries of one product, lead [BS, H, BW]
    state = OnlineSoftmax((bs, h, bw), d)
    for t0 in range(0, n_prompt, DECODE_BLOCK):
        _fold_batch_first(state, q.transpose(0, 2, 1, 3), inp.prompt_k[:, t0:t0 + DECODE_BLOCK],
                          inp.prompt_v[:, t0:t0 + DECODE_BLOCK])

    # response: each row is an item with one query, lead [BS*BW, H, 1]
    q = q.reshape(rows, h, 1, d)
    state.m = state.m.swapaxes(1, 2).reshape(rows, h, 1)
    state.l = state.l.swapaxes(1, 2).reshape(rows, h, 1)
    state.acc = state.acc.swapaxes(1, 2).reshape(rows, h, 1, d)
    for t0 in range(0, n_resp, DECODE_BLOCK):
        t1 = min(t0 + DECODE_BLOCK, n_resp)
        if bw == 1:
            # every index is 0, so the select is the identity: a response tile
            # is a plain slice [n, BS, H, D], viewed batch first without a copy
            kt = inp.resp_k[t0:t1].transpose(1, 0, 2, 3)
            vt = inp.resp_v[t0:t1].transpose(1, 0, 2, 3)
        else:
            # fused index select: row item*BW + j reads row item*BW + indices[item, j, t]
            src = inp.indices[:, :, t0:t1] + bw * np.arange(bs)[:, None, None]
            sel = (np.arange(t0, t1), src.reshape(rows, t1 - t0))
            kt, vt = inp.resp_k[sel], inp.resp_v[sel]  # [BS*BW, n, H, D]
        _fold_batch_first(state, q, kt, vt)

    return state.finalize().reshape(1, rows, h, d)


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
