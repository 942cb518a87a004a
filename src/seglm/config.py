"""Model configurations: decoder geometry.

A config holds only what a run or the memory accounting reads. The constants
every model shares are stated once, where they are used: the norm epsilon
and rotary base as the defaults of ``ops.rmsnorm`` and ``ops.rope_table``,
the rotary pairing (i, i+D/2) in ``ops.rope``, the position limit as
``engine.MAX_POS``, and the fp16 accounting width as ``kvcache.DTYPE_BYTES``.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral


@dataclass(frozen=True)
class ModelConfig:
    """Decoder geometry. ``L``/``H``/``D`` drive both compute shapes and
    cache byte accounting; arithmetic is always carried out in float32."""

    L: int
    H: int
    D: int
    ff_dim: int
    vocab: int

    def __post_init__(self) -> None:
        for name in ("L", "H", "D", "ff_dim", "vocab"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    @property
    def d_model(self) -> int:
        return self.H * self.D


# ff_dim / vocab values mirror the public checkpoints but are never
# load-bearing: memory accounting uses only L, H and D.
PRESETS: dict[str, ModelConfig] = {
    "gptj-6b": ModelConfig(L=32, H=32, D=128, ff_dim=16384, vocab=50400),
    "llama2-13b": ModelConfig(L=40, H=40, D=128, ff_dim=13824, vocab=32000),
    "opt-30b": ModelConfig(L=48, H=56, D=128, ff_dim=28672, vocab=50272),
    "bloom-176b": ModelConfig(L=70, H=112, D=128, ff_dim=57344, vocab=250880),
}


def preset(name: str) -> ModelConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown model preset {name!r}; known: {sorted(PRESETS)}") from None


def toy_config(L: int = 2, H: int = 4, D: int = 16, vocab: int = 64,
               ff_dim: int | None = None) -> ModelConfig:
    """Small configuration for desk-scale runs and tests."""
    if ff_dim is None:
        ff_dim = 2 * H * D
    return ModelConfig(L=L, H=H, D=D, ff_dim=ff_dim, vocab=vocab)
