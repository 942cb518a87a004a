import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglm.config import ModelConfig, preset, toy_config
from seglm.engine import OpCounters
from seglm.kvcache import (CacheShapeParams, MemoryLedger, PromptKV, ResponseKV,
                           StandardKV, bs_max_under_budget, cache_token_bytes, memsim_row,
                           segment_cache_bytes, simulate_decode_memory,
                           standard_cache_bytes)

GPTJ = preset("gptj-6b")


# -- size formulas --------------------------------------------------------------

def test_cache_token_bytes_unit_config():
    cfg = ModelConfig(L=1, H=1, D=1, ff_dim=1, vocab=1)
    assert cache_token_bytes(cfg) == 4  # K and V of one element, 2 bytes each


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
    p = CacheShapeParams(3, 1, 100, 37)  # bw=1: no beam shares the prompt
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


@settings(max_examples=100, deadline=None)
@given(bs=st.integers(1, 8), bw=st.integers(1, 8),
       n_prompt=st.integers(0, 4096), n_response=st.integers(0, 4096))
def test_segment_smaller_whenever_prompt_duplication_dominates(bs, bw, n_prompt, n_response):
    """BS*(Np + BW*Nr) <= BS*BW*(Np + Nr) at every shape, equal exactly when
    no prompt row is duplicated across beams (BW == 1 or Np == 0)."""
    p = CacheShapeParams(bs, bw, n_prompt, n_response)
    seg, std = segment_cache_bytes(GPTJ, p), standard_cache_bytes(GPTJ, p)
    assert seg <= std
    assert (seg == std) == (bw == 1 or n_prompt == 0)


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


def test_arena_is_allocated_whole_before_the_first_append():
    cfg = toy_config(L=1)
    led = MemoryLedger()
    cache = ResponseKV(cfg, bs=1, bw=1, n_response=16, ledger=led)
    assert led.events == [("alloc", _arena_bytes(cfg, 1, 16))]
    assert cache.valid(0)[0].shape[0] == 0
    rng = np.random.default_rng(1)
    cache.append(0, _rows(rng, cfg, 1), _rows(rng, cfg, 1))
    assert cache.valid(0)[0].shape[0] == 1
    assert cache.capacity(0) == 16
    assert led.events == [("alloc", _arena_bytes(cfg, 1, 16))]  # appending allocates nothing


def test_forty_appends_capacity_and_concat_oracle():
    cfg = toy_config(L=1, H=2, D=4)
    led = MemoryLedger()
    cache = ResponseKV(cfg, bs=2, bw=2, n_response=40, ledger=led)
    rng = np.random.default_rng(3)
    ks, vs = [], []
    for _ in range(40):
        k = rng.standard_normal((1, 4, cfg.H, cfg.D)).astype(np.float32)
        v = rng.standard_normal((1, 4, cfg.H, cfg.D)).astype(np.float32)
        ks.append(k)
        vs.append(v)
        cache.append(0, k, v)
    assert cache.capacity(0) == 40
    got_k, got_v = cache.valid(0)
    assert np.array_equal(got_k, np.concatenate(ks, axis=0))
    assert np.array_equal(got_v, np.concatenate(vs, axis=0))
    assert led.events == [("alloc", _arena_bytes(cfg, 4, 40))]  # one alloc, no free


def test_response_kv_layers_grow_in_lockstep():
    """Layers appended in lockstep, as a decode step does, fill one
    all-layer arena allocated once; every layer's rows equal the
    concatenation of what it was given, and a full layer refuses a row."""
    cfg = toy_config(L=3, H=1, D=2)
    led = MemoryLedger()
    cache = ResponseKV(cfg, bs=1, bw=2, n_response=33, ledger=led)
    rng = np.random.default_rng(7)
    assert all(cache.valid(layer)[0].shape == (0, 2, cfg.H, cfg.D) for layer in range(cfg.L))
    written = [([], []) for _ in range(cfg.L)]
    for t in range(1, 34):
        for layer in range(cfg.L):
            k, v = _rows(rng, cfg, 2), _rows(rng, cfg, 2)
            written[layer][0].append(k)
            written[layer][1].append(v)
            cache.append(layer, k, v)
            assert cache.valid(layer)[0].shape[0] == t
            assert cache.capacity(layer) == 33

    arena = _arena_bytes(cfg, 2, 33)
    assert arena == cfg.L * 2 * 33 * 2 * cfg.H * cfg.D * 2  # fp16 accounting
    assert led.events == [("alloc", arena)]
    assert cache.total_bytes() == arena == led.active_bytes
    for layer, (ks, vs) in enumerate(written):
        got_k, got_v = cache.valid(layer)
        assert np.array_equal(got_k, np.concatenate(ks, axis=0))
        assert np.array_equal(got_v, np.concatenate(vs, axis=0))
    with pytest.raises(ValueError, match="layer 1 is full at 33 rows"):
        cache.append(1, _rows(rng, cfg, 2), _rows(rng, cfg, 2))
    assert led.events == [("alloc", arena)]


def test_response_kv_shape_mismatch():
    cfg = toy_config(L=1)
    cache = ResponseKV(cfg, bs=1, bw=2, n_response=4, ledger=MemoryLedger())
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
        # the arena holds K keys last and V head major: the batch-first views
        # transpose to C-contiguous [BS, H, D, N] K and [BS, H, N, D] V panels
        assert got_k.transpose(0, 2, 3, 1).flags.c_contiguous
        assert got_v.transpose(0, 2, 1, 3).flags.c_contiguous
        assert np.shares_memory(got_k, pk.layer(layer)[0])  # views, not copies
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
        got_k, _ = kv.step(0, s, s.copy(), np.array([0, 1]))
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
        return 2 * 2 * n * cfg.H * cfg.D * 2  # fp16 accounting

    expected = block(n_prompt) + sum(block(n_prompt + t) for t in range(1, n_steps + 1))
    assert led.reserved_bytes == expected


def test_standard_step_reorder_out_of_range():
    cfg = toy_config(L=1)
    kv = _standard_kv(cfg, bs=1, bw=2)
    kv.store_prompt(0, np.zeros((2, 2, cfg.H, cfg.D)), np.zeros((2, 2, cfg.H, cfg.D)))
    for reorder, match in [(np.array([0, 2]), "out of range"),
                           (np.array([0.0, 1.0]), "dtype float64"),  # in range, not an index
                           (np.array([True, True]), "dtype bool")]:  # a mask of every row
        with pytest.raises(ValueError, match=match):
            kv.step(0, np.zeros((2, 1, cfg.H, cfg.D)), np.zeros((2, 1, cfg.H, cfg.D)), reorder)


# -- decode-phase simulator ----------------------------------------------------------

@pytest.mark.parametrize("params", [
    CacheShapeParams(32, 4, 1024, 1024),
    CacheShapeParams(4, 4, 1024, 128),
    CacheShapeParams(2, 1, 7, 33),
    CacheShapeParams(2, 4, 50, 0),
])
def test_simulator_segment_final_active_matches_formula(params):
    ledger = simulate_decode_memory("segment", GPTJ, params)
    assert ledger.active_bytes == ledger.reserved_bytes == segment_cache_bytes(GPTJ, params)
    assert [kind for kind, _ in ledger.events] == ["alloc"] * (1 + (params.n_response > 0))


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


@pytest.mark.parametrize("policy", ["segmnt", "Segment", "paged"])
def test_unknown_policy_rejected_by_budget_inversion_and_simulator(policy):
    """A misspelled policy must not fall through to the standard bound (14
    for gptj-6b at 64e9 bytes, BW 4, 1024 + 1024 tokens)."""
    with pytest.raises(ValueError, match="policy must be 'standard' or 'segment'"):
        bs_max_under_budget(GPTJ, policy, 64 * 10**9, 4, 1024, 1024)
    with pytest.raises(ValueError, match="policy must be 'standard' or 'segment'"):
        simulate_decode_memory(policy, GPTJ, CacheShapeParams(2, 4, 8, 8))
