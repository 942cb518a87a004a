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

from .config import ModelConfig


def _f32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def rmsnorm(x, weight, eps: float = 1e-5) -> np.ndarray:
    """y_i = x_i / sqrt(mean_j(x_j^2) + eps) * weight_i, per trailing vector."""
    x = _f32(x)
    weight = _f32(weight)
    if weight.ndim != 1 or x.shape[-1] != weight.shape[0]:
        raise ValueError(f"weight {weight.shape} does not match trailing dim of {x.shape}")
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
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


def rope(q, k, positions, theta: float = 10000.0, style: str = "half"):
    """Rotary position embedding on (q, k) shaped [..., H, D].

    Dimension pair i is rotated by angle pos * theta^(-2i/D). ``positions``
    is an integer vector (or array) broadcasting against the leading dims of
    q/k, i.e. everything before the trailing [H, D] axes. ``style`` selects
    the pair grouping: "half" pairs (i, i+D/2), "interleaved" pairs (2i, 2i+1).
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
    lead = q.shape[:-2]
    pos = np.asarray(positions, dtype=np.float32)
    if np.broadcast_shapes(pos.shape, lead) != lead:
        raise ValueError(f"positions {pos.shape} do not broadcast onto leading dims {lead}")

    half = D // 2
    exponent = (np.arange(half, dtype=np.float32) * np.float32(2.0 / D))
    inv_freq = np.power(np.float32(theta), -exponent)
    ang = pos[..., None] * inv_freq          # [..., half]
    cos = np.cos(ang)[..., None, :]          # broadcast over the head axis
    sin = np.sin(ang)[..., None, :]

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
    """Weights of one decoder layer."""

    rmsnorm_1: np.ndarray  # [d_model]
    rmsnorm_2: np.ndarray  # [d_model]
    w_qkv: np.ndarray      # [d_model, 3*d_model]
    w_o: np.ndarray        # [d_model, d_model]
    w_gate: np.ndarray     # [d_model, ff_dim]
    w_up: np.ndarray       # [d_model, ff_dim]
    w_down: np.ndarray     # [ff_dim, d_model]

    FIELDS = ("rmsnorm_1", "rmsnorm_2", "w_qkv", "w_o", "w_gate", "w_up", "w_down")

    def validate(self, config: ModelConfig) -> None:
        dm, ff = config.d_model, config.ff_dim
        expected = {
            "rmsnorm_1": (dm,), "rmsnorm_2": (dm,),
            "w_qkv": (dm, 3 * dm), "w_o": (dm, dm),
            "w_gate": (dm, ff), "w_up": (dm, ff), "w_down": (ff, dm),
        }
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name}: expected shape {shape}, got {got}")

    @classmethod
    def random(cls, config: ModelConfig, rng: np.random.Generator,
               scale: float = 0.02) -> "LayerWeights":
        dm, ff = config.d_model, config.ff_dim

        def g(*shape):
            return (rng.standard_normal(shape) * scale).astype(np.float32)

        return cls(
            rmsnorm_1=np.ones(dm, dtype=np.float32),
            rmsnorm_2=np.ones(dm, dtype=np.float32),
            w_qkv=g(dm, 3 * dm),
            w_o=g(dm, dm),
            w_gate=g(dm, ff),
            w_up=g(dm, ff),
            w_down=g(ff, dm),
        )
