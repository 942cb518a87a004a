"""Decoder-layer primitives shared by both engines.

All functions are pure, operate on float32 numpy arrays with arbitrary
leading dimensions, and raise ValueError on dimension mismatches. The two
layout conversions are the exception: they swap the batch and sequence axes
of 4-D [.., .., H, D] activations, as an explicit copy done once before the
first and once after the last decoder layer of each optimized decode step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _f32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def rmsnorm(x, weight, eps: float = 1e-5) -> np.ndarray:
    """y_i = x_i / sqrt(mean_j(x_j^2) + eps) * weight_i, per trailing vector."""
    x = _f32(x)
    weight = _f32(weight)
    if weight.ndim != 1 or x.shape[-1] != weight.shape[0]:
        raise ValueError(f"weight {weight.shape} does not match trailing dim of {x.shape}")
    # np.mean's own arithmetic, without its Python-level wrapper
    ms = np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1]
    return (x / np.sqrt(ms + np.float32(eps)) * weight).astype(np.float32, copy=False)


def linear(x, w) -> np.ndarray:
    """y = x @ w over the trailing dimension."""
    x = _f32(x)
    w = _f32(w)
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"cannot contract {x.shape} with weight {w.shape}")
    return (x @ w).astype(np.float32, copy=False)


def fused_qkv(x, w_qkv, heads: int, head_dim: int):
    """Single projection producing (q, k, v), each reshaped to [..., heads, head_dim].

    Equivalent to three separate linear calls on the column-partitioned weight.
    """
    x = _f32(x)
    d_model = heads * head_dim
    w_qkv = _f32(w_qkv)
    if x.shape[-1] != d_model or w_qkv.shape != (d_model, 3 * d_model):
        raise ValueError(
            f"fused qkv expects x[..., {d_model}] and weight [{d_model}, {3 * d_model}], "
            f"got {x.shape} and {w_qkv.shape}"
        )
    y = linear(x, w_qkv)
    lead = x.shape[:-1]
    q, k, v = (y[..., i * d_model:(i + 1) * d_model].reshape(lead + (heads, head_dim))
               for i in range(3))
    return q, k, v


def rope_table(positions, head_dim: int, theta: float = 10000.0):
    """Rotary (cos, sin) tables for ``rope``.

    Dimension pair i at position pos is rotated by angle pos * theta^(-2i/D).
    ``positions`` is an integer vector (or array); each table has shape
    [*positions.shape, 1, D/2], the 1 broadcasting over the head axis. One
    table serves every layer of a decoder pass.
    """
    if head_dim % 2 != 0:
        raise ValueError(f"head dim must be even for rotary embedding, got {head_dim}")
    pos = np.asarray(positions, dtype=np.float32)
    half = head_dim // 2
    exponent = (np.arange(half, dtype=np.float32) * np.float32(2.0 / head_dim))
    inv_freq = np.power(np.float32(theta), -exponent)
    ang = pos[..., None] * inv_freq          # [..., half]
    return np.cos(ang)[..., None, :], np.sin(ang)[..., None, :]


def rope(q, k, table, style: str = "half"):
    """Rotary position embedding on (q, k) shaped [..., H, D].

    ``table`` is ``rope_table(positions, D, theta)``, whose positions
    broadcast against the leading dims of q/k, i.e. everything before the
    trailing [H, D] axes. ``style`` selects the pair grouping: "half" pairs
    (i, i+D/2), "interleaved" pairs (2i, 2i+1).
    """
    q = _f32(q)
    k = _f32(k)
    if q.shape != k.shape:
        raise ValueError(f"q {q.shape} and k {k.shape} must match")
    if q.ndim < 2:
        raise ValueError("expected [..., H, D] inputs")
    D = q.shape[-1]
    if D % 2 != 0:
        raise ValueError(f"head dim must be even for rotary embedding, got {D}")
    cos, sin = table
    half = D // 2
    if cos.shape[-1] != half:
        raise ValueError(f"rotary table is for head dim {2 * cos.shape[-1]}, inputs have {D}")
    lead = q.shape[:-2]
    pos_shape = cos.shape[:-2]
    if np.broadcast_shapes(pos_shape, lead) != lead:
        raise ValueError(f"positions {pos_shape} do not broadcast onto leading dims {lead}")

    def rotate(x: np.ndarray) -> np.ndarray:
        if style == "half":
            x1, x2 = x[..., :half], x[..., half:]
            return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
        if style == "interleaved":
            x1, x2 = x[..., 0::2], x[..., 1::2]
            out = np.empty_like(x)
            out[..., 0::2] = x1 * cos - x2 * sin
            out[..., 1::2] = x1 * sin + x2 * cos
            return out
        raise ValueError(f"unknown rope style {style!r}")

    return rotate(q).astype(np.float32, copy=False), rotate(k).astype(np.float32, copy=False)


def silu(x) -> np.ndarray:
    """x * sigmoid(x), computed overflow-free."""
    x = _f32(x)
    z = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)).astype(np.float32)
    return x * sig


def gated_mlp(x, w_gate, w_up, w_down) -> np.ndarray:
    """y = (silu(x @ w_gate) * (x @ w_up)) @ w_down."""
    return linear(silu(linear(x, w_gate)) * linear(x, w_up), w_down)


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


@dataclass
class LayerWeights:
    """Weights of one decoder layer; ``engine.weight_layout`` gives their shapes."""

    rmsnorm_1: np.ndarray
    rmsnorm_2: np.ndarray
    w_qkv: np.ndarray
    w_o: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
