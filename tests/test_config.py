import pytest

from seglm.config import PRESETS, ModelConfig, preset, toy_config


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
        assert cfg.step == 16
        assert cfg.dtype_bytes == 2


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("nope")


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(L=0, H=1, D=1, ff_dim=1, vocab=1)
    with pytest.raises(ValueError):
        ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, dtype_bytes=3)
    with pytest.raises(ValueError):
        ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, step=0)
    with pytest.raises(ValueError):
        ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, rope_style="sideways")
    for name, bad in (("L", 2.5), ("H", 4.0), ("D", True), ("ff_dim", "8"), ("vocab", None),
                      ("max_pos", 0), ("max_pos", "x"), ("step", 1.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ModelConfig(**{"L": 1, "H": 1, "D": 1, "ff_dim": 1, "vocab": 1, name: bad})
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="dtype_bytes"):
            ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, dtype_bytes=bad)
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, eps=bad)
        with pytest.raises(ValueError, match="rope_theta"):
            ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, rope_theta=bad)


def test_toy_config_defaults():
    cfg = toy_config()
    assert cfg.d_model == cfg.H * cfg.D
    assert cfg.ff_dim == 2 * cfg.d_model
    assert toy_config(ff_dim=7).ff_dim == 7


def test_dtype_override_is_a_new_config():
    cfg = preset("gptj-6b")
    fp32 = cfg.with_dtype_bytes(4)
    assert fp32.dtype_bytes == 4 and cfg.dtype_bytes == 2
    assert (fp32.L, fp32.H, fp32.D) == (cfg.L, cfg.H, cfg.D)
