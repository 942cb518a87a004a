import dataclasses

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
        assert cfg.dtype_bytes == 2


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("nope")


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(L=0, H=1, D=1, ff_dim=1, vocab=1)
    with pytest.raises(ValueError):
        ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, dtype_bytes=3)
    with pytest.raises(TypeError, match="step"):  # no config field sizes the response arena
        ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, step=16)
    for name, bad in (("L", 2.5), ("H", 4.0), ("D", True), ("ff_dim", "8"), ("vocab", None)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ModelConfig(**{"L": 1, "H": 1, "D": 1, "ff_dim": 1, "vocab": 1, name: bad})
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="dtype_bytes"):
            ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, dtype_bytes=bad)


def test_toy_config_defaults():
    cfg = toy_config()
    assert cfg.d_model == cfg.H * cfg.D
    assert cfg.ff_dim == 2 * cfg.d_model
    assert toy_config(ff_dim=7).ff_dim == 7


def test_config_holds_only_what_a_run_or_the_accounting_reads():
    """The norm epsilon, rotary base and layout, and the position limit are
    constants of the ops and the engine, not config fields."""
    assert [f.name for f in dataclasses.fields(ModelConfig)] == [
        "L", "H", "D", "ff_dim", "vocab", "dtype_bytes"]
    for legacy in ("max_pos", "rope_theta", "rope_style", "eps"):
        with pytest.raises(TypeError, match=legacy):
            ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, **{legacy: 1})


def test_dtype_override_is_a_new_config():
    """memsim's --dtype-bytes replaces one field of a preset, validated again."""
    cfg = preset("gptj-6b")
    fp32 = dataclasses.replace(cfg, dtype_bytes=4)
    assert fp32.dtype_bytes == 4 and cfg.dtype_bytes == 2
    assert (fp32.L, fp32.H, fp32.D) == (cfg.L, cfg.H, cfg.D)
    with pytest.raises(ValueError, match="dtype_bytes"):
        dataclasses.replace(cfg, dtype_bytes=3)
