"""Model configurations: decoder geometry plus cache-accounting constants."""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from numbers import Integral


@dataclass(frozen=True)
class ModelConfig:
    """Decoder geometry and runtime constants.

    ``L``/``H``/``D`` drive both compute shapes and cache byte accounting.
    ``dtype_bytes`` is the bookkeeping size per cached element (2 for fp16
    accounting); arithmetic is always carried out in float32 regardless.
    """

    L: int
    H: int
    D: int
    ff_dim: int
    vocab: int
    max_pos: int = 4096
    rope_theta: float = 10000.0
    rope_style: str = "half"  # pair grouping: "half" (i, i+D/2) or "interleaved" (2i, 2i+1)
    eps: float = 1e-5
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        for name in ("L", "H", "D", "ff_dim", "vocab", "max_pos"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.dtype_bytes, Integral) or self.dtype_bytes not in (2, 4):
            raise ValueError("dtype_bytes must be 2 (fp16 accounting) or 4 (fp32), "
                             f"got {self.dtype_bytes!r}")
        if not (isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps!r}")
        if not (isfinite(self.rope_theta) and self.rope_theta > 0):
            raise ValueError(f"rope_theta must be finite and > 0, got {self.rope_theta!r}")
        if self.rope_style not in ("half", "interleaved"):
            raise ValueError(f"unknown rope_style {self.rope_style!r}")

    @property
    def d_model(self) -> int:
        return self.H * self.D

    def with_dtype_bytes(self, dtype_bytes: int) -> "ModelConfig":
        return replace(self, dtype_bytes=dtype_bytes)


# ff_dim / vocab values mirror the public checkpoints but are never
# load-bearing: memory accounting uses only L, H, D and dtype_bytes.
PRESETS: dict[str, ModelConfig] = {
    "gptj-6b": ModelConfig(L=32, H=32, D=128, ff_dim=16384, vocab=50400, rope_style="interleaved"),
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
               ff_dim: int | None = None, **kwargs) -> ModelConfig:
    """Small configuration for desk-scale runs and tests."""
    if ff_dim is None:
        ff_dim = 2 * H * D
    return ModelConfig(L=L, H=H, D=D, ff_dim=ff_dim, vocab=vocab, **kwargs)
