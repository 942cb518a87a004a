import dataclasses

import pytest

from seglm.config import PRESETS, ModelConfig, preset, toy_config
from seglm.kvcache import DTYPE_BYTES, cache_token_bytes


def test_preset_geometry():
    expected = {
        "gptj-6b": (32, 32, 128),
        "llama2-13b": (40, 40, 128),
        "opt-30b": (48, 56, 128),
        "bloom-176b": (70, 112, 128),
    }
    assert set(PRESETS) == set(expected)
    for name, (L, H, D) in expected.items():
        cfg = preset(name)
        assert (cfg.L, cfg.H, cfg.D) == (L, H, D)
        assert cfg.d_model == H * D
        assert cache_token_bytes(cfg) == 2 * L * H * D * 2  # K and V, fp16 accounting
    assert DTYPE_BYTES == 2


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("nope")


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(L=0, H=1, D=1, ff_dim=1, vocab=1)
    with pytest.raises(TypeError, match="step"):  # no config field sizes the response arena
        ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, step=16)
    for name, bad in (("L", 2.5), ("H", 4.0), ("D", True), ("ff_dim", "8"), ("vocab", None)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ModelConfig(**{"L": 1, "H": 1, "D": 1, "ff_dim": 1, "vocab": 1, name: bad})


def test_toy_config_defaults():
    cfg = toy_config()
    assert cfg.d_model == cfg.H * cfg.D
    assert cfg.ff_dim == 2 * cfg.d_model
    assert toy_config(ff_dim=7).ff_dim == 7


def test_config_holds_only_what_a_run_or_the_accounting_reads():
    """The norm epsilon, rotary base and layout, the position limit and the
    fp16 accounting width are constants of the ops, the engine and the
    cache, not config fields."""
    assert [f.name for f in dataclasses.fields(ModelConfig)] == ["L", "H", "D", "ff_dim", "vocab"]
    for legacy in ("max_pos", "rope_theta", "rope_style", "eps", "dtype_bytes"):
        with pytest.raises(TypeError, match=legacy):
            ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, **{legacy: 1})
    with pytest.raises(TypeError, match="dtype_bytes"):
        toy_config(dtype_bytes=2)
