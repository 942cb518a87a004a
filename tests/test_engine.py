import math

import numpy as np
import pytest

from seglm import kvcache
from seglm.config import toy_config
from seglm.engine import (GenerationRequest, OptimizedEngine, ReferenceEngine,
                          ToyWeights, generate, load_weights, reference_generate,
                          save_weights)
from seglm.kvcache import (STEP, CacheShapeParams, PromptKV, ResponseKV, StandardKV,
                           cache_token_bytes, kv_bytes, segment_cache_bytes,
                           simulate_decode_memory)
from seglm.ops import LayerWeights
from seglm.sdpa import KEY_BLOCK


def _toy_weights(seed=7, **cfg_kw):
    cfg = toy_config(**cfg_kw)
    return ToyWeights.random(cfg, seed=seed)


def _prompt(cfg, bs, n, seed=1):
    return np.random.default_rng(seed).integers(0, cfg.vocab, size=(bs, n))


# -- hand traces -----------------------------------------------------------------

def test_single_layer_single_token_hand_trace():
    """Prefill logits of a one-layer, one-token model, retraced step by step
    with explicit float64 arithmetic."""
    cfg = toy_config(L=1, H=1, D=2, vocab=3, ff_dim=2)
    w = ToyWeights.random(cfg, seed=0)
    prompt = np.array([[1]])

    res = OptimizedEngine(w).generate(GenerationRequest(prompt, 0, mode="greedy", bw=1))

    def rms(x):
        return np.asarray(x, np.float64) / math.sqrt(np.mean(np.square(np.asarray(x, np.float64))) + cfg.eps)

    lw = w.layers[0]
    x = w.embedding[1].astype(np.float64)
    h = rms(x) * lw.rmsnorm_1
    qkv = h @ lw.w_qkv
    v = qkv[4:6]  # single prompt token: attention context == value
    x = x + v @ lw.w_o
    h2 = rms(x) * lw.rmsnorm_2
    gate = h2 @ lw.w_gate
    x = x + ((gate / (1 + np.exp(-gate))) * (h2 @ lw.w_up)) @ lw.w_down
    hidden = rms(x) * w.final_norm
    logits = hidden @ w.head

    assert np.max(np.abs(res.final_hidden[0] - hidden)) < 1e-5
    assert np.max(np.abs(res.final_hidden[0] @ w.head - logits)) < 1e-5


def test_identity_weight_model_reference_trace():
    """One layer with identity-like linears and a zero MLP, traced by hand,
    checked against the reference engine's first generated token."""
    cfg = toy_config(L=1, H=1, D=2, vocab=4, ff_dim=2)
    eye = np.eye(2, dtype=np.float32)
    lw = LayerWeights(
        rmsnorm_1=np.ones(2, dtype=np.float32),
        rmsnorm_2=np.ones(2, dtype=np.float32),
        w_qkv=np.concatenate([eye, eye, eye], axis=1),
        w_o=eye,
        w_gate=np.zeros((2, 2), dtype=np.float32),
        w_up=np.zeros((2, 2), dtype=np.float32),
        w_down=np.zeros((2, 2), dtype=np.float32),
    )
    emb = np.array([[0.5, 0.1], [0.2, -0.4], [-0.3, 0.3], [0.1, 0.9]], dtype=np.float32)
    head = np.array([[1.0, 0.0, -1.0, 0.5], [0.0, 1.0, 0.5, -1.0]], dtype=np.float32)
    w = ToyWeights(cfg, emb, [lw], np.ones(2, dtype=np.float32), head)

    prompt = np.array([[2]])
    res = reference_generate(w, GenerationRequest(prompt, 1, mode="greedy", bw=1))

    def rms(x):
        return x / math.sqrt(np.mean(np.square(x)) + cfg.eps)

    x = emb[2].astype(np.float64)
    x = x + rms(x)          # q = k = v = rms(x); single-token context is v; w_o = I
    logits = rms(x) @ head  # zero MLP leaves the residual unchanged
    assert res.tokens[0, 0, 0] == int(np.argmax(logits))


# -- cross-engine golden runs -------------------------------------------------------

def test_greedy_cross_engine_tokens_identical():
    w = _toy_weights(seed=7)
    prompt = _prompt(w.config, 1, 8)
    req = GenerationRequest(prompt, 12, mode="greedy", bw=1)
    opt = generate(w, req)
    ref = reference_generate(w, req)
    assert opt.tokens.shape == (1, 1, 12)
    assert np.array_equal(opt.tokens, ref.tokens)
    assert np.max(np.abs(opt.final_hidden - ref.final_hidden)) <= 1e-4


def test_beam_cross_engine_across_growth_boundaries():
    w = _toy_weights(seed=7)
    prompt = _prompt(w.config, 1, 32, seed=2)
    req = GenerationRequest(prompt, 40, mode="beam", bw=4)
    opt_engine = OptimizedEngine(w)
    opt = opt_engine.generate(req)
    ref = reference_generate(w, req)
    assert opt.tokens.shape == (1, 4, 40)
    assert np.array_equal(opt.tokens, ref.tokens)
    assert np.max(np.abs(opt.final_hidden - ref.final_hidden)) <= 1e-4


@pytest.mark.parametrize("mode,bw", [("greedy", 1), ("beam", 2)])
def test_cross_engine_across_key_tiles(mode, bw):
    """A 150-token prompt spans three prefill and prompt tiles and 70
    response steps span two response tiles (and four 16-row cache growths),
    so every tile edge of both kernels is crossed."""
    assert (math.ceil(150 / KEY_BLOCK), math.ceil(70 / KEY_BLOCK)) == (3, 2)
    w = _toy_weights(seed=28)  # top-candidate gaps >= 1.8e-4 in both modes
    req = GenerationRequest(_prompt(w.config, 2, 150, seed=4), 70, mode=mode, bw=bw)
    opt = generate(w, req)
    ref = reference_generate(w, req)
    assert opt.tokens.shape == (2, bw, 70)
    assert np.array_equal(opt.tokens, ref.tokens)
    assert np.max(np.abs(opt.final_hidden - ref.final_hidden)) <= 1e-4


def test_multi_batch_beam_cross_engine():
    """Batch items run independent beam searches; both engines must agree
    per item and per slot."""
    w = _toy_weights(seed=19)
    prompt = _prompt(w.config, 3, 12, seed=12)
    req = GenerationRequest(prompt, 9, mode="beam", bw=4)
    opt = generate(w, req)
    ref = reference_generate(w, req)
    assert opt.tokens.shape == (3, 4, 9)
    assert np.array_equal(opt.tokens, ref.tokens)
    # swapping batch items permutes outputs the same way (independence)
    req_swapped = GenerationRequest(prompt[::-1].copy(), 9, mode="beam", bw=4)
    swapped = generate(w, req_swapped)
    assert np.array_equal(swapped.tokens, opt.tokens[::-1])


def test_prefill_logits_cross_engine():
    for bw, mode in ((1, "greedy"), (4, "beam")):
        w = _toy_weights(seed=11)
        prompt = _prompt(w.config, 2, 16, seed=3)
        req = GenerationRequest(prompt, 0, mode=mode, bw=bw)
        opt = generate(w, req)
        ref = reference_generate(w, req)
        assert np.max(np.abs(opt.final_hidden - ref.final_hidden)) <= 1e-4
        logit_diff = np.abs(opt.final_hidden @ w.head - ref.final_hidden @ w.head)
        assert logit_diff.max() <= 1e-4


def test_single_decode_step_logits_cross_engine():
    w = _toy_weights(seed=13)
    req = GenerationRequest(_prompt(w.config, 2, 6, seed=10), 1, mode="greedy", bw=1)
    opt = generate(w, req)
    ref = reference_generate(w, req)
    assert np.max(np.abs(opt.final_hidden @ w.head - ref.final_hidden @ w.head)) <= 1e-4


def test_layout_conversions_independent_of_depth():
    nr = 7
    for L in (1, 3):
        w = _toy_weights(seed=15, L=L)
        res = generate(w, GenerationRequest(_prompt(w.config, 1, 5), nr,
                                            mode="greedy", bw=1))
        assert res.counters.layout_conversions == 2 * nr


def test_zero_response_request():
    w = _toy_weights()
    req = GenerationRequest(_prompt(w.config, 2, 5), 0, mode="beam", bw=4)
    opt = generate(w, req)
    ref = reference_generate(w, req)
    assert opt.tokens.shape == (2, 4, 0)
    assert opt.first_token_latency_s > 0
    assert opt.next_token_latency_s is None
    assert np.array_equal(opt.tokens, ref.tokens)


# -- prefill/decode consistency ------------------------------------------------------

@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
@pytest.mark.parametrize("seed, cfg_kw, bs, n_prompt, nr", [
    (0, {}, 1, 8, 20),  # crosses the response-cache growth at step 17
    (1, dict(L=3, H=2, D=8, vocab=32), 2, 5, 9),
    (2, dict(L=1, H=4, D=16, vocab=96, rope_style="interleaved"), 3, 1, 6),
], ids=["growth", "deep", "interleaved-rope"])
def test_prefill_of_prompt_plus_response_reproduces_greedy_decode(
        engine_cls, seed, cfg_kw, bs, n_prompt, nr):
    """Prefilling the prompt plus the generated tokens must reach the final
    hidden state greedy decode reached: an independent route through the
    shared layer body that uses no decode-time position, cache or gather."""
    w = _toy_weights(seed=seed, **cfg_kw)
    engine = engine_cls(w)
    prompt = _prompt(w.config, bs, n_prompt, seed=seed + 100)
    decoded = engine.generate(GenerationRequest(prompt, nr, mode="greedy", bw=1))
    full = np.concatenate([prompt, decoded.tokens[:, 0]], axis=1)
    prefilled = engine.generate(GenerationRequest(full, 0, mode="greedy", bw=1))
    assert np.max(np.abs(prefilled.final_hidden - decoded.final_hidden)) <= 1e-4


# -- growth invisibility ---------------------------------------------------------------

def test_cache_growth_is_semantically_invisible(monkeypatch):
    """A run whose response cache grows 32 rows at a time (so never grows in
    20 steps) must generate exactly the same tokens and final hidden state as
    the default that grows 16 -> 32 at step 17."""
    w = _toy_weights(seed=5)
    prompt = _prompt(w.config, 1, 8, seed=4)
    req = GenerationRequest(prompt, 20, mode="beam", bw=4)
    grown_engine, single_engine = OptimizedEngine(w), OptimizedEngine(w)
    grown = grown_engine.generate(req)
    monkeypatch.setattr(kvcache, "STEP", 32)
    single = single_engine.generate(req)
    frees = [[e for e in eng.last_ledger.events if e[0] == "free"]
             for eng in (grown_engine, single_engine)]
    assert len(frees[0]) == 1 and frees[1] == []  # one all-layer arena growth
    assert np.array_equal(grown.tokens, single.tokens)
    assert np.array_equal(grown.final_hidden, single.final_hidden)


def _assert_allocs_exceed_earlier_frees(events):
    largest_free = 0
    for kind, nbytes in events:
        if kind == "free":
            largest_free = max(largest_free, nbytes)
        else:
            assert kind == "alloc" and nbytes > largest_free, (kind, nbytes, largest_free)
    assert largest_free > 0  # the run freed something, so the check has teeth


def test_every_alloc_exceeds_every_earlier_free():
    """The premise of the ledger's no-reuse model: no freed block could serve
    a later allocation, on engine runs that cross the 16-row growth and in
    the decode-memory simulator."""
    w = _toy_weights(seed=11)
    for engine_cls in (OptimizedEngine, ReferenceEngine):
        for mode, bs, bw in (("greedy", 2, 1), ("beam", 1, 4)):
            engine = engine_cls(w)
            engine.generate(GenerationRequest(_prompt(w.config, bs, 9), 20, mode=mode, bw=bw))
            _assert_allocs_exceed_earlier_frees(engine.last_ledger.events)

    for policy in ("segment", "standard"):
        ledger = simulate_decode_memory(policy, w.config, CacheShapeParams(2, 4, 40, 40))
        _assert_allocs_exceed_earlier_frees(ledger.events)


@pytest.mark.parametrize("mode,bs,bw,nr", [("greedy", 2, 1, 32), ("greedy", 1, 1, 20),
                                           ("greedy", 2, 1, 0), ("beam", 1, 4, 32),
                                           ("beam", 2, 2, 37), ("beam", 1, 4, 0)])
def test_optimized_ledger_matches_segment_simulator(mode, bs, bw, nr):
    """The runtime logs the segment policy event for event as the simulator
    states it: one alloc of the all-layer prompt arena, then one alloc and
    one free per growth of the all-layer response arena."""
    w = _toy_weights(seed=13, L=3)
    n_prompt = 7
    engine = OptimizedEngine(w)
    engine.generate(GenerationRequest(_prompt(w.config, bs, n_prompt), nr, mode=mode, bw=bw))
    simulated = simulate_decode_memory("segment", w.config, CacheShapeParams(bs, bw, n_prompt, nr))
    assert engine.last_ledger.events == simulated.events
    assert simulated.events[0] == ("alloc", bs * n_prompt * cache_token_bytes(w.config))
    assert sum(kind == "free" for kind, _ in simulated.events) == max(0, -(-nr // STEP) - 1)


def _cache_buffers(run):
    """Every array held by every KV cache of an engine run, found by walking
    the caches' attributes rather than through any cache method."""
    for cache in vars(run).values():
        if isinstance(cache, (PromptKV, ResponseKV, StandardKV)):
            for value in vars(cache).values():
                for a in value if isinstance(value, list) else [value]:
                    if isinstance(a, np.ndarray):
                        yield a


def _reconciled(engine_cls, checked_runs):
    """``engine_cls`` asserting, after prefill and after every decode step,
    that the ledger's active bytes are exactly the bytes of the live caches."""
    class Reconciled(engine_cls):
        def _check(self, run):
            buffers = list(_cache_buffers(run))
            assert buffers and all(b.dtype == np.float32 for b in buffers)
            assert self.last_ledger.active_bytes == kv_bytes(self.config, *buffers)
            checked_runs.append(run)

        def _prefill(self, run):
            out = super()._prefill(run)
            self._check(run)
            return out

        def _decode_step(self, run, tokens, t, state):
            out = super()._decode_step(run, tokens, t, state)
            self._check(run)
            return out

    return Reconciled


@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
@pytest.mark.parametrize("mode,bs,bw", [("greedy", 2, 1), ("beam", 1, 4), ("beam", 2, 2)])
def test_ledger_active_bytes_equal_live_cache_bytes(engine_cls, mode, bs, bw):
    """Ledger reconciliation: at every step the alloc/free log agrees with
    the buffers the caches actually hold, across the 16-row growth."""
    w = _toy_weights(seed=15, L=3)
    nr = 20
    checked = []
    engine = _reconciled(engine_cls, checked)(w)
    res = engine.generate(GenerationRequest(_prompt(w.config, bs, 6), nr, mode=mode, bw=bw))
    assert len(checked) == nr + 1  # prefill and every decode step
    assert any(kind == "free" for kind, _ in engine.last_ledger.events)
    assert res.tokens.shape == (bs, bw, nr)


@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
def test_prompt_cache_owns_its_buffers(engine_cls):
    """Stored prompt K/V are buffers of their own, not views that would keep
    the whole fused q/k/v projection alive behind the bytes the ledger counts."""
    w = _toy_weights(seed=16)
    runs = []
    engine = _reconciled(engine_cls, runs)(w)
    engine.generate(GenerationRequest(_prompt(w.config, 2, 9), 0, mode="beam", bw=2))
    (run,) = runs
    buffers = list(_cache_buffers(run))
    assert len(buffers) >= 2 * w.config.L
    for b in buffers:
        assert b.flags.owndata


# -- instrumentation --------------------------------------------------------------------

def test_optimized_decode_has_no_data_movement_ops():
    w = _toy_weights()
    nr = 10
    res = generate(w, GenerationRequest(_prompt(w.config, 1, 6), nr, mode="beam", bw=4))
    assert res.counters.cat_ops == 0
    assert res.counters.index_select_ops == 0
    assert res.counters.layout_conversions == 2 * nr  # two per step, independent of L


def test_reference_decode_counts_cat_and_index_select():
    w = _toy_weights()
    nr = 6
    res = reference_generate(w, GenerationRequest(_prompt(w.config, 1, 6), nr,
                                                  mode="beam", bw=4))
    assert res.counters.cat_ops == 2 * w.config.L * nr
    assert res.counters.index_select_ops == 2 * w.config.L * nr
    assert res.counters.layout_conversions == 0


def test_reference_ledger_allocs_follow_contiguous_growth():
    """Each decode step reallocates BS*BW*(Np+t) cached tokens across layers."""
    w = _toy_weights(seed=9)
    cfg = w.config
    bs, bw, n_prompt, nr = 1, 4, 6, 5
    engine = ReferenceEngine(w)
    engine.generate(GenerationRequest(_prompt(cfg, bs, n_prompt, seed=5), nr,
                                      mode="beam", bw=bw))
    allocs = [n for kind, n in engine.last_ledger.events if kind == "alloc"]
    tok = cache_token_bytes(cfg)
    assert sum(allocs[:cfg.L]) == bs * bw * n_prompt * tok  # prefill rows
    per_step = allocs[cfg.L:]
    assert len(per_step) == cfg.L * nr
    for t in range(1, nr + 1):
        step_total = sum(per_step[(t - 1) * cfg.L: t * cfg.L])
        assert step_total == bs * bw * (n_prompt + t) * tok


def test_optimized_memory_summary_matches_formulas():
    w = _toy_weights(seed=9)
    cfg = w.config
    bs, bw, n_prompt, nr = 2, 4, 10, 20
    res = generate(w, GenerationRequest(_prompt(cfg, bs, n_prompt, seed=6), nr,
                                        mode="beam", bw=bw))
    tok = cache_token_bytes(cfg)
    assert res.memory["prompt_kv_bytes"] == bs * n_prompt * tok  # no beam factor
    assert res.memory["final_active_bytes"] == segment_cache_bytes(
        cfg, CacheShapeParams(bs, bw, n_prompt, nr))
    ref = reference_generate(w, GenerationRequest(_prompt(cfg, bs, n_prompt, seed=6), nr,
                                                  mode="beam", bw=bw))
    assert ref.memory["prompt_kv_bytes"] == bs * bw * n_prompt * tok


# -- determinism --------------------------------------------------------------------------

def test_same_seed_bit_identical_tokens():
    w = _toy_weights(seed=21)
    req = GenerationRequest(_prompt(w.config, 1, 8, seed=8), 10, mode="beam", bw=4)
    a = generate(w, req)
    b = generate(ToyWeights.random(w.config, seed=21), req)
    assert np.array_equal(a.tokens, b.tokens)


# -- request validation --------------------------------------------------------------------

def test_request_validation():
    with pytest.raises(ValueError):
        GenerationRequest(np.zeros((2, 0), dtype=int), 4)
    with pytest.raises(ValueError):
        GenerationRequest(np.zeros((1, 4), dtype=int), -1)
    with pytest.raises(ValueError):
        GenerationRequest(np.zeros((1, 4), dtype=int), 4, mode="greedy", bw=2)
    with pytest.raises(ValueError):
        GenerationRequest(np.zeros((1, 4), dtype=int), 4, mode="sample")
    with pytest.raises(ValueError, match="batch is empty"):
        GenerationRequest(np.zeros((0, 4), dtype=int), 4)
    with pytest.raises(ValueError, match="n_response must be an integer"):
        GenerationRequest(np.zeros((1, 4), dtype=int), 2.5)
    with pytest.raises(ValueError, match="token ids must be integers"):
        GenerationRequest(np.array([[1.7, 2.2]]), 4)
    for bad in (2.5, True, 4.0):
        with pytest.raises(ValueError, match="bw must be an integer"):
            GenerationRequest(np.zeros((1, 4), dtype=int), 4, mode="beam", bw=bad)


@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
@pytest.mark.parametrize("nr", [0, 3])
def test_vocab_smaller_than_beam_width_rejected_before_prefill(monkeypatch, engine_cls, nr):
    """Two tokens cannot fill four beams; that is a request error whether or
    not the request decodes, raised before the engine allocates or prefills."""
    w = _toy_weights(vocab=2)
    engine = engine_cls(w)

    def refuse(*args, **kwargs):
        raise AssertionError("the run began before the request was checked")

    monkeypatch.setattr(engine_cls, "_begin", refuse)
    with pytest.raises(ValueError, match="vocabulary of 2 cannot fill 4 beams"):
        engine.generate(GenerationRequest(_prompt(w.config, 1, 3), nr, mode="beam", bw=4))
    assert engine.last_ledger is None


def test_out_of_vocab_prompt_rejected():
    w = _toy_weights()
    with pytest.raises(ValueError):
        generate(w, GenerationRequest(np.array([[w.config.vocab]]), 1, mode="greedy", bw=1))


def test_prompt_beyond_max_pos_rejected():
    cfg = toy_config(max_pos=16)
    w = ToyWeights.random(cfg, seed=0)
    with pytest.raises(ValueError):
        generate(w, GenerationRequest(np.zeros((1, 10), dtype=int), 10, mode="greedy", bw=1))


# -- weight file round trip -------------------------------------------------------------------

def test_weight_file_round_trip_is_byte_exact(tmp_path):
    w = _toy_weights(seed=33, L=2, H=2, D=8, vocab=16)
    path = tmp_path / "weights.bin"
    save_weights(path, w)
    loaded = load_weights(path)
    assert loaded.config == w.config
    for (na, a), (nb, b) in zip(w.named_tensors(), loaded.named_tensors()):
        assert na == nb
        assert a.tobytes() == b.tobytes()
    path2 = tmp_path / "again.bin"
    save_weights(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("cfg", [toy_config(), toy_config(L=3, H=2, D=4, vocab=10, ff_dim=6)],
                         ids=["toy", "L3"])
def test_random_weights_follow_the_hand_written_draw(cfg):
    """One Gaussian stream drawn in file order: embedding, then per layer
    w_qkv, w_o, w_gate, w_up, w_down, then head; every norm gain is one."""
    rng = np.random.default_rng(4)

    def draw(*shape):
        return (rng.standard_normal(shape) * 0.02).astype(np.float32)

    dm, ff, vocab = cfg.d_model, cfg.ff_dim, cfg.vocab
    embedding = draw(vocab, dm)
    layers = [(draw(dm, 3 * dm), draw(dm, dm), draw(dm, ff), draw(dm, ff), draw(ff, dm))
              for _ in range(cfg.L)]
    head = draw(dm, vocab)

    ones = np.ones(dm, dtype=np.float32)
    w = ToyWeights.random(cfg, seed=4)
    assert len(w.layers) == cfg.L
    pairs = [(w.embedding, embedding), (w.final_norm, ones), (w.head, head)]
    for lw, drawn in zip(w.layers, layers):
        pairs += zip((lw.w_qkv, lw.w_o, lw.w_gate, lw.w_up, lw.w_down), drawn)
        pairs += [(lw.rmsnorm_1, ones), (lw.rmsnorm_2, ones)]
    for got, want in pairs:
        np.testing.assert_array_equal(got, want, strict=True)


def test_loaded_weights_generate_identically(tmp_path):
    w = _toy_weights(seed=34)
    path = tmp_path / "w.bin"
    save_weights(path, w)
    req = GenerationRequest(_prompt(w.config, 1, 6, seed=9), 8, mode="greedy", bw=1)
    assert np.array_equal(generate(w, req).tokens, generate(load_weights(path), req).tokens)
