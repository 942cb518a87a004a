"""Decoder-layer primitives shared by both engines.

All functions are pure, operate on float32 numpy arrays with arbitrary
leading dimensions, and raise ValueError on dimension mismatches. The two
layout conversions are the exception: they swap the batch and sequence axes
of 4-D [.., .., H, D] activations, as an explicit copy done once before the
first and once after the last decoder layer of each optimized decode step.
"""
from __future__ import annotations

import numpy as np


def _f32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def rmsnorm(x, weight, eps: float = 1e-5) -> np.ndarray:
    """y_i = x_i / sqrt(mean_j(x_j^2) + eps) * weight_i, per trailing vector.

    Raises ValueError if a mean square is not finite: squaring in float32
    overflows once the input reaches ~1.8e19, and the vector would otherwise
    normalize to 0.
    """
    x = _f32(x)
    weight = _f32(weight)
    if weight.ndim != 1 or x.shape[-1] != weight.shape[0]:
        raise ValueError(f"weight {weight.shape} does not match trailing dim of {x.shape}")
    # np.mean's own arithmetic, without its Python-level wrapper; the square's
    # buffer is reused for the output, and the mean square's for its root
    y = np.square(x)
    ms = np.add.reduce(y, axis=-1, keepdims=True)
    ms /= x.shape[-1]
    if not np.maximum.reduce(ms, axis=None, initial=0) < np.inf:  # inf or nan
        raise ValueError("rmsnorm: the mean square of the input overflows float32 "
                         "(not finite); the hidden state is too large to normalize")
    ms += np.float32(eps)
    np.sqrt(ms, out=ms)
    np.divide(x, ms, out=y)
    y *= weight
    return y


def linear(x, w) -> np.ndarray:
    """y = x @ w.T over the trailing dimension, for an output-major weight
    ``w`` [out, in] (the ``torch.nn.Linear`` layout).

    One product at every row count. Any ``w`` gives the same result; a
    column-major one, as ``ToyWeights`` holds every projection, is the fast
    one: its ``w.T`` is a C-contiguous [in, out] array, so the BLAS runs a
    plain GEMM with no operand or result copy. The result is always a
    C-contiguous float32 array.
    """
    x = _f32(x)
    w = _f32(w)
    if w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ValueError(f"cannot contract {x.shape} with weight {w.shape}")
    y = x.reshape(-1, w.shape[1]) @ w.T
    return y.reshape(x.shape[:-1] + (w.shape[0],))


def fused_qkv(x, w_qkv, heads: int, head_dim: int):
    """Single projection producing (qk, v): ``qk`` [..., 2 * heads, head_dim]
    holds the q heads, then the k heads, and ``v`` is [..., heads, head_dim].

    ``w_qkv`` is output-major [3 * d_model, d_model], held column-major as
    ``linear`` reads it fastest; the result equals three separate linear
    calls on its q, k and v row blocks, in that order. Both are views of the
    one product, so one ``rope`` call rotates q and k.
    """
    x = _f32(x)
    d_model = heads * head_dim
    w_qkv = _f32(w_qkv)
    if x.shape[-1] != d_model or w_qkv.shape != (3 * d_model, d_model):
        raise ValueError(
            f"fused qkv expects x[..., {d_model}] and weight [{3 * d_model}, {d_model}], "
            f"got {x.shape} and {w_qkv.shape}"
        )
    y = linear(x, w_qkv)
    lead = x.shape[:-1]
    qk = y[..., :2 * d_model].reshape(lead + (2 * heads, head_dim))
    v = y[..., 2 * d_model:].reshape(lead + (heads, head_dim))
    return qk, v


def rope_table(positions, head_dim: int, theta: float = 10000.0):
    """Rotary (C, S) tables for ``rope``.

    Dimension pair i at position pos is rotated by angle pos * theta^(-2i/D).
    ``positions`` is an integer vector (or array); each table has shape
    [*positions.shape, 1, D], the 1 broadcasting over the head axis, and
    holds both halves of a head: C = [cos, cos] and S = [-sin, sin]. One
    table serves every layer of a decoder pass, and a run's decode table
    every step, one row each.
    """
    if head_dim % 2 != 0:
        raise ValueError(f"head dim must be even for rotary embedding, got {head_dim}")
    pos = np.asarray(positions, dtype=np.float32)
    half = head_dim // 2
    exponent = (np.arange(half, dtype=np.float32) * np.float32(2.0 / head_dim))
    inv_freq = np.power(np.float32(theta), -exponent)
    ang = pos[..., None, None] * inv_freq    # [..., 1, half]
    cos, sin = np.cos(ang), np.sin(ang)
    return np.concatenate([cos, cos], axis=-1), np.concatenate([-sin, sin], axis=-1)


def rope(x, table):
    """Rotary position embedding on every head of ``x`` [..., H, D] at once.

    ``table`` is ``rope_table(positions, D, theta)``, whose positions
    broadcast against the leading dims of x, i.e. everything before the
    trailing [H, D] axes. Dimension i is paired with i + D/2 (rotate_half,
    as in RoFormer, arXiv 2104.09864): out = x * C + swap_halves(x) * S.
    Per half that is x1 cos - x2 sin and x2 cos + x1 sin, bit for bit the
    pairwise form, since adding -(x2 sin) is subtracting x2 sin and float
    addition commutes. Heads are independent, so q and k rotate as one
    [..., 2H, D] block (``fused_qkv``'s ``qk``).
    """
    x = _f32(x)
    if x.ndim < 2:
        raise ValueError("expected [..., H, D] inputs")
    D = x.shape[-1]
    if D % 2 != 0:
        raise ValueError(f"head dim must be even for rotary embedding, got {D}")
    cos, sin = table
    if cos.shape[-1] != D:
        raise ValueError(f"rotary table is for head dim {cos.shape[-1]}, inputs have {D}")
    lead = x.shape[:-2]
    pos_shape = cos.shape[:-2]
    # np.broadcast_shapes(pos_shape, lead) == lead, without its cost per call
    if len(pos_shape) > len(lead) or any(p not in (1, n) for p, n in
                                         zip(pos_shape[::-1], lead[::-1])):
        raise ValueError(f"positions {pos_shape} do not broadcast onto leading dims {lead}")
    half = D // 2
    out = x * cos
    swapped = np.concatenate([x[..., half:], x[..., :half]], axis=-1)
    swapped *= sin
    out += swapped
    return out


def gated_mlp(x, w_gate, w_up, w_down) -> np.ndarray:
    """y = linear(silu(linear(x, w_gate)) * linear(x, w_up), w_down), as the
    paper's LinearActivation and LinearMul. The weights are output-major,
    ``w_gate`` and ``w_up`` [ff, d_model] and ``w_down`` [d_model, ff], and
    held column-major, as ``linear`` reads them fastest.

    SiLU is a * sigmoid(a) with sigmoid(a) = (1 + tanh(a/2)) / 2: tanh
    saturates at +-1 instead of overflowing, so every float32 input, up to
    +-3.4e38, gives a finite result and raises no warning. The SiLU and the
    product with the up projection are applied in place on the gate
    projection's own buffer, with the sigmoid factor in one scratch buffer;
    ``x`` and the weights are not written.
    """
    act = linear(x, w_gate)
    s = np.multiply(act, np.float32(0.5))
    np.tanh(s, out=s)
    s += np.float32(1)
    s *= np.float32(0.5)
    act *= s
    act *= linear(x, w_up)
    return linear(act, w_down)


def _swap_batch_and_seq(x, expected: str) -> np.ndarray:
    x = _f32(x)
    if x.ndim != 4:
        raise ValueError(f"expected a 4-D {expected} activation, got shape {x.shape}")
    return x.transpose(1, 0, 2, 3).copy()


def to_sequence_first(x) -> np.ndarray:
    """[B, N, H, D] batch first -> [N, B, H, D] sequence first (explicit copy)."""
    return _swap_batch_and_seq(x, "batch-first [B, N, H, D]")


def to_batch_first(x) -> np.ndarray:
    """[N, B, H, D] sequence first -> [B, N, H, D] batch first (explicit copy)."""
    return _swap_batch_and_seq(x, "sequence-first [N, B, H, D]")


def log_softmax(x, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax in float64 (used for beam scoring)."""
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=axis, keepdims=True)
    s = x - m
    return s - np.log(np.sum(np.exp(s), axis=axis, keepdims=True))
