from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglm.config import ModelConfig, preset, toy_config
from seglm.engine import OpCounters
from seglm.kvcache import (STEP, CacheShapeParams, MemoryLedger, PromptKV, ResponseKV,
                           StandardKV, cache_token_bytes, memsim_row,
                           segment_cache_bytes, simulate_decode_memory,
                           standard_cache_bytes)

GPTJ = preset("gptj-6b")


# -- size formulas --------------------------------------------------------------

def test_cache_token_bytes_unit_config():
    cfg = ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1, dtype_bytes=2)
    assert cache_token_bytes(cfg) == 4


def test_cache_token_bytes_presets():
    assert cache_token_bytes(GPTJ) == 524_288
    assert cache_token_bytes(preset("llama2-13b")) == 819_200


def test_standard_bytes_zero_batch():
    assert standard_cache_bytes(GPTJ, CacheShapeParams(0, 4, 1024, 1024)) == 0


def test_standard_bytes_gptj_golden():
    p = CacheShapeParams(32, 4, 1024, 1024)
    assert standard_cache_bytes(GPTJ, p) == 137_438_953_472


def test_standard_bytes_llama_golden():
    p = CacheShapeParams(16, 4, 1024, 1024)
    assert standard_cache_bytes(preset("llama2-13b"), p) == 107_374_182_400


def test_segment_bytes_gptj_golden():
    p = CacheShapeParams(32, 4, 1024, 1024)
    seg = segment_cache_bytes(GPTJ, p)
    assert seg == 85_899_345_920
    assert seg / standard_cache_bytes(GPTJ, p) == 0.625


def test_segment_equals_standard_without_beams_or_rounding():
    p = CacheShapeParams(3, 1, 100, 64)  # bw=1 and n_response % 16 == 0
    assert segment_cache_bytes(GPTJ, p) == standard_cache_bytes(GPTJ, p)


def test_segment_zero_response_degenerates_to_prompt_only():
    p = CacheShapeParams(2, 4, 50, 0)
    assert segment_cache_bytes(GPTJ, p) == 2 * 50 * cache_token_bytes(GPTJ)


def test_shape_params_reject_zero_beam_width_but_allow_empty_shapes():
    for bw in (0, -1):
        with pytest.raises(ValueError, match="bw must be >= 1"):
            CacheShapeParams(1, bw, 8, 8)
    p = CacheShapeParams(0, 1, 0, 0)
    assert standard_cache_bytes(GPTJ, p) == segment_cache_bytes(GPTJ, p) == 0


def test_growth_quantum_is_a_cache_constant():
    """The response arena's growth quantum belongs to the cache policy, not
    to the model: a config has no field for it."""
    assert STEP == 16
    assert "step" not in {f.name for f in fields(ModelConfig)}
    p = CacheShapeParams(1, 1, 0, 1)
    assert segment_cache_bytes(GPTJ, p) == STEP * cache_token_bytes(GPTJ)


@settings(max_examples=100, deadline=None)
@given(bs=st.integers(1, 8), bw=st.integers(2, 8),
       n_prompt=st.integers(0, 4096), n_response=st.integers(1, 4096))
def test_segment_smaller_whenever_prompt_duplication_dominates(bs, bw, n_prompt, n_response):
    cfg = GPTJ
    p = CacheShapeParams(bs, bw, n_prompt, n_response)
    rounded = -(-n_response // STEP) * STEP
    if n_prompt * (bw - 1) > bw * (rounded - n_response):
        assert segment_cache_bytes(cfg, p) < standard_cache_bytes(cfg, p)


def test_memsim_row_fields():
    row = memsim_row(GPTJ, "gptj-6b", CacheShapeParams(32, 4, 1024, 1024))
    assert row["saving_bytes"] == 137_438_953_472 - 85_899_345_920
    assert row["ratio"] == 0.625
    assert row["model"] == "gptj-6b"


# -- ledger ----------------------------------------------------------------------

def test_ledger_invariants_along_random_trace():
    rng = np.random.default_rng(0)
    led = MemoryLedger()
    live = []
    for _ in range(200):
        if live and rng.random() < 0.4:
            led.free(live.pop())
        else:
            n = int(rng.integers(1, 1000))
            led.alloc(n)
            live.append(n)
        assert led.active_bytes <= led.reserved_bytes
        assert led.fragmentation >= 0


def test_ledger_rejects_bad_frees():
    led = MemoryLedger()
    led.alloc(10)
    with pytest.raises(ValueError):
        led.free(11)
    with pytest.raises(ValueError):
        led.free(-1)


# -- response cache ---------------------------------------------------------------

def _arena_bytes(cfg, rows, capacity):
    """Closed form: K and V of all L layers, ``capacity`` steps of ``rows`` tokens."""
    return capacity * rows * cache_token_bytes(cfg)


def _rows(rng, cfg, n):
    return rng.standard_normal((1, n, cfg.H, cfg.D)).astype(np.float32)


def test_first_append_allocates_initial_block():
    cfg = toy_config(L=1)
    led = MemoryLedger()
    cache = ResponseKV(cfg, bs=1, bw=1, ledger=led)
    rng = np.random.default_rng(1)
    cache.append(0, _rows(rng, cfg, 1), _rows(rng, cfg, 1))
    assert cache.length(0) == 1
    assert cache.capacity(0) == 16
    assert led.events == [("alloc", _arena_bytes(cfg, 1, 16))]


def test_seventeenth_append_grows_and_preserves_rows():
    cfg = toy_config(L=1)
    led = MemoryLedger()
    cache = ResponseKV(cfg, bs=1, bw=1, ledger=led)
    rng = np.random.default_rng(2)
    ks = [_rows(rng, cfg, 1) for _ in range(17)]
    vs = [_rows(rng, cfg, 1) for _ in range(17)]
    for k, v in zip(ks, vs):
        cache.append(0, k, v)
    assert cache.capacity(0) == 32
    got_k, _ = cache.valid(0)
    assert np.array_equal(got_k[:16], np.concatenate([k[0][None] for k in ks[:16]]).reshape(16, 1, cfg.H, cfg.D))
    frees = [e for e in led.events if e[0] == "free"]
    assert frees == [("free", _arena_bytes(cfg, 1, 16))]


def test_forty_appends_capacity_and_concat_oracle():
    cfg = toy_config(L=1, H=2, D=4)
    led = MemoryLedger()
    cache = ResponseKV(cfg, bs=2, bw=2, ledger=led)
    rng = np.random.default_rng(3)
    ks, vs = [], []
    for _ in range(40):
        k = rng.standard_normal((1, 4, cfg.H, cfg.D)).astype(np.float32)
        v = rng.standard_normal((1, 4, cfg.H, cfg.D)).astype(np.float32)
        ks.append(k)
        vs.append(v)
        cache.append(0, k, v)
    assert cache.capacity(0) == 48
    got_k, got_v = cache.valid(0)
    assert np.array_equal(got_k, np.concatenate(ks, axis=0))
    assert np.array_equal(got_v, np.concatenate(vs, axis=0))
    allocs = [n for kind, n in led.events if kind == "alloc"]
    frees = [n for kind, n in led.events if kind == "free"]
    assert allocs == [_arena_bytes(cfg, 4, c) for c in (16, 32, 48)]
    assert len(frees) == 2  # one free per growth-with-copy


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 80))
def test_capacity_is_always_rounded_up_to_step(n):
    cfg = toy_config(L=1, H=1, D=2)
    cache = ResponseKV(cfg, bs=1, bw=1, ledger=MemoryLedger())
    rng = np.random.default_rng(n)
    for i in range(n):
        cache.append(0, _rows(rng, cfg, 1), _rows(rng, cfg, 1))
        length = cache.length(0)
        assert cache.capacity(0) == -(-length // 16) * 16


def test_response_kv_layers_grow_in_lockstep():
    """Layers appended in lockstep, as a decode step does, share one capacity;
    each growth is one alloc and one free of the all-layer arena, and every
    layer's rows still equal the concatenation of what it was given."""
    cfg = toy_config(L=3, H=1, D=2)
    led = MemoryLedger()
    cache = ResponseKV(cfg, bs=1, bw=2, ledger=led)
    rng = np.random.default_rng(7)
    assert all(cache.valid(layer)[0].shape == (0, 2, cfg.H, cfg.D) for layer in range(cfg.L))
    written = [([], []) for _ in range(cfg.L)]
    for t in range(1, 34):
        for layer in range(cfg.L):
            k, v = _rows(rng, cfg, 2), _rows(rng, cfg, 2)
            written[layer][0].append(k)
            written[layer][1].append(v)
            cache.append(layer, k, v)
            assert cache.length(layer) == t
            assert cache.capacity(layer) == -(-t // 16) * 16

    def b(capacity):
        return _arena_bytes(cfg, 2, capacity)

    assert b(16) == cfg.L * 2 * 16 * 2 * cfg.H * cfg.D * cfg.dtype_bytes
    assert led.events == [("alloc", b(16)),
                          ("alloc", b(32)), ("free", b(16)),
                          ("alloc", b(48)), ("free", b(32))]
    assert cache.total_bytes() == b(48) == led.active_bytes
    for layer, (ks, vs) in enumerate(written):
        got_k, got_v = cache.valid(layer)
        assert np.array_equal(got_k, np.concatenate(ks, axis=0))
        assert np.array_equal(got_v, np.concatenate(vs, axis=0))


def test_response_kv_shape_mismatch():
    cfg = toy_config(L=1)
    cache = ResponseKV(cfg, bs=1, bw=2, ledger=MemoryLedger())
    with pytest.raises(ValueError):
        cache.append(0, np.zeros((1, 3, cfg.H, cfg.D)), np.zeros((1, 3, cfg.H, cfg.D)))
    with pytest.raises(ValueError):  # a row without its leading step axis
        cache.append(0, np.zeros((2, cfg.H, cfg.D)), np.zeros((2, cfg.H, cfg.D)))


# -- prompt cache -----------------------------------------------------------------

def test_prompt_kv_store_once_and_bytes():
    cfg = toy_config(L=2)
    led = MemoryLedger()
    pk = PromptKV(cfg, bs=3, n_prompt=5, ledger=led)
    assert led.events == [("alloc", 3 * 5 * cache_token_bytes(cfg))]  # all layers at once
    assert pk.total_bytes() == led.active_bytes
    with pytest.raises(ValueError, match="layer 1 not populated"):
        pk.layer(1)
    rng = np.random.default_rng(0)
    kvs = [[rng.standard_normal((3, 5, cfg.H, cfg.D)).astype(np.float32) for _ in range(2)]
           for _ in range(cfg.L)]
    for layer, (k, v) in enumerate(kvs):
        pk.store(layer, k, v)
    for layer, (k, v) in enumerate(kvs):
        got_k, got_v = pk.layer(layer)
        assert np.array_equal(got_k, k) and np.array_equal(got_v, v)
    assert led.events == [("alloc", pk.total_bytes())]  # storing allocates nothing
    with pytest.raises(ValueError, match="write-once"):
        pk.store(0, *kvs[1])
    assert np.array_equal(pk.layer(0)[0], kvs[0][0])
    with pytest.raises(ValueError):  # sequence-first [N_prompt, BS, H, D] is the wrong shape
        PromptKV(cfg, bs=3, n_prompt=5, ledger=led).store(
            0, np.zeros((5, 3, cfg.H, cfg.D), dtype=np.float32), kvs[0][1])


# -- standard cache ----------------------------------------------------------------

def _standard_kv(cfg, bs, bw):
    return StandardKV(cfg, bs, bw, ledger=MemoryLedger(), counters=OpCounters())


def test_standard_step_identity_reorder_equals_concat():
    cfg = toy_config(L=1, H=2, D=4)
    kv = _standard_kv(cfg, bs=1, bw=2)
    rng = np.random.default_rng(5)
    k0 = rng.standard_normal((2, 3, cfg.H, cfg.D)).astype(np.float32)
    kv.store_prompt(0, k0, k0.copy())
    steps = [rng.standard_normal((2, 1, cfg.H, cfg.D)).astype(np.float32) for _ in range(3)]
    for s in steps:
        kv.step(0, s, s.copy(), np.array([0, 1]))
    got_k, _ = kv.layer(0)
    assert np.array_equal(got_k, np.concatenate([k0] + steps, axis=1))


def test_standard_step_swap_reorder_hand_case():
    cfg = toy_config(L=1, H=1, D=2)
    kv = _standard_kv(cfg, bs=1, bw=2)
    past = np.arange(4, dtype=np.float32).reshape(2, 1, 1, 2)
    kv.store_prompt(0, past, past.copy())
    new = np.full((2, 1, 1, 2), 9.0, dtype=np.float32)
    k, _ = kv.step(0, new, new.copy(), np.array([1, 0]))
    assert np.array_equal(k[0, 0], past[1, 0])  # rows swapped before concat
    assert np.array_equal(k[1, 0], past[0, 0])
    assert np.array_equal(k[:, 1], new[:, 0])


def test_standard_step_reserved_is_per_step_sum():
    cfg = toy_config(L=1)
    led = MemoryLedger()
    kv = StandardKV(cfg, bs=1, bw=2, ledger=led, counters=OpCounters())
    rng = np.random.default_rng(6)
    n_prompt, n_steps = 4, 5
    kv.store_prompt(0, rng.standard_normal((2, n_prompt, cfg.H, cfg.D)).astype(np.float32),
                    rng.standard_normal((2, n_prompt, cfg.H, cfg.D)).astype(np.float32))
    for _ in range(n_steps):
        s = rng.standard_normal((2, 1, cfg.H, cfg.D)).astype(np.float32)
        kv.step(0, s, s, np.array([0, 1]))

    def block(n):  # closed form: K and V of 2 rows of n tokens, one layer
        return 2 * 2 * n * cfg.H * cfg.D * cfg.dtype_bytes

    expected = block(n_prompt) + sum(block(n_prompt + t) for t in range(1, n_steps + 1))
    assert led.reserved_bytes == expected


def test_standard_step_reorder_out_of_range():
    cfg = toy_config(L=1)
    kv = _standard_kv(cfg, bs=1, bw=2)
    kv.store_prompt(0, np.zeros((2, 2, cfg.H, cfg.D)), np.zeros((2, 2, cfg.H, cfg.D)))
    with pytest.raises(ValueError):
        kv.step(0, np.zeros((2, 1, cfg.H, cfg.D)), np.zeros((2, 1, cfg.H, cfg.D)),
                np.array([0, 2]))


# -- decode-phase simulator ----------------------------------------------------------

@pytest.mark.parametrize("params", [
    CacheShapeParams(32, 4, 1024, 1024),
    CacheShapeParams(4, 4, 1024, 128),
    CacheShapeParams(2, 1, 7, 33),
    CacheShapeParams(2, 4, 50, 0),
])
def test_simulator_segment_final_active_matches_formula(params):
    ledger = simulate_decode_memory("segment", GPTJ, params)
    assert ledger.active_bytes == segment_cache_bytes(GPTJ, params)


def test_simulator_standard_peak_is_arithmetic_series():
    p = CacheShapeParams(4, 4, 1024, 128)
    tok = cache_token_bytes(GPTJ)
    ledger = simulate_decode_memory("standard", GPTJ, p)
    closed_form = p.bs * p.bw * tok * (p.n_response * p.n_prompt
                                       + p.n_response * (p.n_response + 1) // 2)
    assert ledger.reserved_bytes == closed_form
    assert ledger.active_bytes == standard_cache_bytes(GPTJ, p)


def test_simulator_segment_peak_below_standard_peak():
    p = CacheShapeParams(4, 4, 1024, 128)
    seg = simulate_decode_memory("segment", GPTJ, p)
    std = simulate_decode_memory("standard", GPTJ, p)
    assert seg.reserved_bytes < std.reserved_bytes


def test_simulator_is_deterministic():
    p = CacheShapeParams(2, 4, 64, 40)
    assert (simulate_decode_memory("segment", GPTJ, p).events
            == simulate_decode_memory("segment", GPTJ, p).events)
