import contextlib
import gc
import hashlib
import json
import math
import multiprocessing
import multiprocessing.util
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

import seglm.engine as engine_module
from seglm import ops, verify
from seglm.beam import BeamSearchState
from seglm.config import toy_config
from seglm.engine import (MAX_POS, GenerationRequest, OptimizedEngine, ReferenceEngine,
                          ToyWeights, load_weights, save_weights)
from seglm.kvcache import (CacheShapeParams, PromptKV, ResponseKV, StandardKV,
                           cache_token_bytes, kv_bytes, segment_cache_bytes,
                           simulate_decode_memory)
from seglm.sdpa import DECODE_BLOCK, KEY_BLOCK
from seglm.verify import CROSS_ENGINE_CONFIGS, _cross_engine_configs, engines_agree


EPS = 1e-5  # the rmsnorm epsilon every layer uses


def _toy_weights(seed=7, **cfg_kw):
    cfg = toy_config(**cfg_kw)
    return ToyWeights.random(cfg, seed=seed)


def _prompt(cfg, bs, n, seed=1):
    return np.random.default_rng(seed).integers(0, cfg.vocab, size=(bs, n))


@pytest.fixture(autouse=True)
def _no_worker_left():
    """No test leaves a worker process behind: an engine's workers stop when
    it is closed or collected."""
    yield
    gc.collect()
    left = [p.pid for p in multiprocessing.active_children() if p.name == "seglm-worker"]
    assert not left, f"worker processes {left} outlived their engines"


# -- hand traces -----------------------------------------------------------------

def test_single_layer_single_token_hand_trace():
    """Prefill logits of a one-layer, one-token model, retraced step by step
    with explicit float64 arithmetic."""
    cfg = toy_config(L=1, H=1, D=2, vocab=3, ff_dim=2)
    w = ToyWeights.random(cfg, seed=0)
    prompt = np.array([[1]])

    res = OptimizedEngine(w).generate(GenerationRequest(prompt, 0, bw=1))

    def rms(x):
        return np.asarray(x, np.float64) / math.sqrt(np.mean(np.square(np.asarray(x, np.float64))) + EPS)

    lw = w.layers[0]
    x = w.embedding[1].astype(np.float64)
    h = rms(x) * lw["rmsnorm_1"]
    qkv = lw["w_qkv"] @ h  # projections are output-major [out, in]
    v = qkv[4:6]  # single prompt token: attention context == value
    x = x + lw["w_o"] @ v
    h2 = rms(x) * lw["rmsnorm_2"]
    gate = lw["w_gate"] @ h2
    x = x + lw["w_down"] @ ((gate / (1 + np.exp(-gate))) * (lw["w_up"] @ h2))
    hidden = rms(x) * w.final_norm
    logits = w.head @ hidden

    assert np.max(np.abs(res.final_hidden[0] - hidden)) < 1e-5
    assert np.max(np.abs(w.head @ res.final_hidden[0] - logits)) < 1e-5


def test_identity_weight_model_reference_trace():
    """One layer with identity-like linears and a zero MLP, traced by hand,
    checked against the reference engine's first generated token."""
    cfg = toy_config(L=1, H=1, D=2, vocab=4, ff_dim=2)
    eye = np.eye(2, dtype=np.float32)
    emb = np.array([[0.5, 0.1], [0.2, -0.4], [-0.3, 0.3], [0.1, 0.9]], dtype=np.float32)
    head = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.5, -1.0]], dtype=np.float32)
    w = ToyWeights(cfg, {
        "embedding": emb,
        "layers.0.rmsnorm_1": np.ones(2, dtype=np.float32),
        "layers.0.rmsnorm_2": np.ones(2, dtype=np.float32),
        "layers.0.w_qkv": np.concatenate([eye, eye, eye], axis=0),  # output-major q, k, v row blocks
        "layers.0.w_o": eye,
        "layers.0.w_gate": np.zeros((2, 2), dtype=np.float32),
        "layers.0.w_up": np.zeros((2, 2), dtype=np.float32),
        "layers.0.w_down": np.zeros((2, 2), dtype=np.float32),
        "final_norm": np.ones(2, dtype=np.float32),
        "head": head,
    })

    prompt = np.array([[2]])
    res = ReferenceEngine(w).generate(GenerationRequest(prompt, 1, bw=1))

    def rms(x):
        return x / math.sqrt(np.mean(np.square(x)) + EPS)

    x = emb[2].astype(np.float64)
    x = x + rms(x)          # q = k = v = rms(x); single-token context is v; w_o = I
    logits = head @ rms(x)  # zero MLP leaves the residual unchanged
    assert res.tokens[0, 0, 0] == int(np.argmax(logits))


# -- cross-engine agreement ------------------------------------------------------------

def _engines_agree(cfg, weight_seed, prompt_seed, bs, n_prompt, n_response, bw, width):
    """``verify.engines_agree``, the optimized engine on ``width`` usable
    CPUs over a BLAS on one thread per call, so that it runs in
    ``min(width, BS)`` groups of items. Returns the attempt whose tokens
    matched, 0 at the first seed."""
    with pytest.MonkeyPatch.context() as patch:
        _split(patch, width)
        attempt, opt, _ = engines_agree(cfg, weight_seed, prompt_seed, bs, n_prompt,
                                        n_response, bw)
    assert opt.groups == min(width, bs)
    return attempt


# The first nine edges are ``seglm gen --engine both`` runs, their weights and
# prompt drawn from one seed. Those that gen runs unsplit over a multi-threaded
# BLAS run at width 1; the two split runs and most other edges run at width 2,
# as on two CPUs with BLAS pinned to one thread.
@pytest.mark.parametrize("cfg_kw, seed, bs, n_prompt, prompt_seed, nr, bw, width", [
    # gen's default model and beam: a 40-step beam-4 decode
    pytest.param({}, 7, 1, 32, 7, 40, 4, 1, id="both"),
    # three prefill query tiles, the last one partial
    pytest.param({}, 7, 1, 300, 7, 8, 4, 1, id="multi-tile"),
    # an 8-row decode, as the reference engine runs the long-prompt-beam benchmark's
    pytest.param({}, 7, 2, 64, 7, 16, 4, 1, id="eight-rows"),
    # a BW 3 decode whose gathered response outgrows one DECODE_BLOCK tile; its
    # smallest selection gap is 9.5e-5
    pytest.param({}, 57, 2, 20, 57, DECODE_BLOCK + 1, 3, 1, id="gathered-tiles"),
    # the only token comes from the trimmed prefill: the last layer's one query
    # per item, one past a KEY_BLOCK edge, folds two key tiles
    pytest.param({}, 7, 2, KEY_BLOCK + 1, 7, 1, 2, 1, id="last-query"),
    # a prompt one past a DECODE_BLOCK edge: each decode step folds two prompt tiles
    pytest.param({}, 7, 2, DECODE_BLOCK + 1, 7, 4, 2, 1, id="prompt-tiles"),
    # five items in uneven groups, [0, 2) and [2, 5)
    pytest.param({}, 7, 5, 200, 7, 8, 2, 2, id="uneven-groups"),
    # the wide-beam benchmark shape, split
    pytest.param({}, 7, 4, 64, 7, 64, 8, 2, id="wide-beam-split"),
    # the greedy benchmark shape: argmax selection and one rotary table per run
    pytest.param({}, 7, 4, 32, 7, 160, 1, 1, id="greedy-bench"),
    pytest.param({}, 7, 1, 8, 1, 12, 1, 2, id="greedy-12-steps"),
    pytest.param({}, 7, 1, 32, 2, 40, 4, 2, id="beam4-40-steps"),
    # a DECODE_BLOCK+22-token prompt spans five prefill tiles and two decode
    # prompt tiles, and DECODE_BLOCK+6 steps grow the response into a second
    # decode tile, so both kernels cross every tile edge; top-candidate gaps
    # are >= 2.4e-4 in both modes
    pytest.param({}, 79, 2, DECODE_BLOCK + 22, 4, DECODE_BLOCK + 6, 1, 2, id="key-tiles-greedy"),
    pytest.param({}, 79, 2, DECODE_BLOCK + 22, 4, DECODE_BLOCK + 6, 2, 2, id="key-tiles-beam"),
    # no decode step: tokens are empty, so the prefill's logits carry the check
    pytest.param({}, 11, 2, 16, 3, 0, 1, 2, id="prefill-logits-greedy"),
    pytest.param({}, 11, 2, 16, 3, 0, 4, 2, id="prefill-logits-beam"),
    pytest.param({}, 13, 2, 6, 10, 1, 1, 2, id="one-decode-step-logits"),
    # D 128, the presets' head size, over a prompt one past a KEY_BLOCK edge;
    # its smallest selection gap is 1.7e-4
    pytest.param(dict(L=1, H=2, D=128), 7, 3, KEY_BLOCK + 1, 1, 8, 4, 1, id="d128-width1"),
    pytest.param(dict(L=1, H=2, D=128), 7, 3, KEY_BLOCK + 1, 1, 8, 4, 2, id="d128-width2"),
    # three items, each its own beam search
    pytest.param({}, 19, 3, 12, 12, 9, 4, 1, id="multi-batch-beam"),
])
def test_engines_agree_at_edges(cfg_kw, seed, bs, n_prompt, prompt_seed, nr, bw, width):
    """At each edge the tokens are identical at the first seed, however
    close the selections."""
    assert _engines_agree(toy_config(**cfg_kw), seed, prompt_seed, bs, n_prompt, nr, bw,
                          width) == 0


@pytest.mark.parametrize("i", range(CROSS_ENGINE_CONFIGS))
def test_engines_agree_at_drawn_shapes(i):
    """At ``seglm verify``'s shapes, split at widths 2 to 4, the engines
    agree under verify's rule: identical tokens, or a near-tie flip that a
    reseed clears."""
    _engines_agree(*_cross_engine_configs()[i], width=2 + i % 3)


def test_a_wrong_ancestry_gather_fails_the_cross_engine_check(monkeypatch):
    """A beam gather that keeps each slot's own ancestry row, not its
    parent's, fails verify's cross-engine check, and the detail names the
    divergence: near-tie reseeds do not hide it."""
    record = BeamSearchState.record

    def own_row(self, tokens, parents):
        prev = self.gather_indices
        record(self, tokens, parents)
        self.gather_indices[:, :, :-1] = prev

    monkeypatch.setattr(BeamSearchState, "record", own_row)
    res = verify.check_cross_engine()
    assert not res.passed and "tokens diverge at step" in res.detail, res.detail


@pytest.mark.parametrize("engine", [OptimizedEngine, ReferenceEngine])
def test_engines_reject_odd_head_dim_at_construction(engine):
    """Rotary embedding pairs dimension i with i+D/2, so an odd D is refused
    before any cache is allocated, whatever built the weights."""
    w = _toy_weights(H=3, D=5)
    with pytest.raises(ValueError, match=r"D=5.*i\+D/2"):
        engine(w)


def test_multi_batch_beam_cross_engine():
    """Batch items run independent beam searches: swapping the items
    permutes the tokens the same way. The engines' agreement at this shape
    is the edge ``multi-batch-beam``."""
    w = _toy_weights(seed=19)
    prompt = _prompt(w.config, 3, 12, seed=12)
    engine = OptimizedEngine(w)
    opt = engine.generate(GenerationRequest(prompt, 9, bw=4))
    swapped = engine.generate(GenerationRequest(prompt[::-1].copy(), 9, bw=4))
    assert np.array_equal(swapped.tokens, opt.tokens[::-1])


def test_zero_response_request():
    w = _toy_weights()
    req = GenerationRequest(_prompt(w.config, 2, 5), 0, bw=4)
    opt = OptimizedEngine(w).generate(req)
    ref = ReferenceEngine(w).generate(req)
    assert opt.tokens.shape == (2, 4, 0)
    assert opt.first_token_latency_s > 0
    assert opt.next_token_latency_s is None
    assert np.array_equal(opt.tokens, ref.tokens)


# -- groups of items in worker processes ----------------------------------------------

def _record_projections(monkeypatch, tmp_path):
    """Patch every projection to log (weight, rows of x, process) per call;
    ops.linear serves fused_qkv and gated_mlp, the engine's own name o-proj
    and head. Workers forked after the patch log to the same file. Returns
    a function that reads back, and clears, the calls logged so far."""
    log = tmp_path / "projections.log"
    linear = ops.linear

    def recording_linear(x, w):
        with open(log, "a") as f:  # one short append per call: lines never interleave
            f.write(f"{id(w)} {x.size // x.shape[-1]} {os.getpid()}\n")
        return linear(x, w)

    monkeypatch.setattr(ops, "linear", recording_linear)
    monkeypatch.setattr(engine_module, "linear", recording_linear)

    def calls():
        lines = log.read_text().splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        return [tuple(int(field) for field in line.split()) for line in lines]

    return calls


def _split(monkeypatch, width, blas_threads=1):
    """Requests on ``width`` usable CPUs with a BLAS that reports
    ``blas_threads`` threads per call; a split needs it to report 1."""
    monkeypatch.setattr(engine_module, "WIDTH", width)
    monkeypatch.setattr(engine_module, "_blas_threads", lambda: blas_threads)


def _pids(engine):
    return [worker.process.pid for worker in engine._workers]


def test_optimized_prefill_trims_only_the_last_layer(monkeypatch, tmp_path):
    """The optimized prefill runs the last layer's o-proj and MLP on the last
    prompt position alone; its qkv projection and every earlier layer see
    every row. The request is split into groups of items, [0, 1) in the
    caller and [1, 3) in a worker, each projected on its own rows and
    running the head on its own items' last rows, so per projection the
    rows summed over the groups are those of one whole-batch call. The
    reference prefill is neither split nor trimmed: every projection sees
    every beam-expanded row, so it stays an independent oracle of both."""
    _split(monkeypatch, 2)
    calls = _record_projections(monkeypatch, tmp_path)
    w = _toy_weights()
    bs, bw, n_prompt, L = 3, 2, 9, w.config.L
    req = GenerationRequest(_prompt(w.config, bs, n_prompt), 0, bw=bw)
    per_layer = 5  # qkv, o-proj, gate, up, down
    name_of = {id(a): name for name, a in w.tensors.items()}

    assert OptimizedEngine(w).generate(req).groups == 2
    logged = calls()
    rows, n_calls = Counter(), Counter()
    for weight, n, _ in logged:
        rows[name_of[weight]] += n
        n_calls[name_of[weight]] += 1
    trimmed = {f"layers.{L - 1}.{p}" for p in ("w_o", "w_gate", "w_up", "w_down")}
    expected = {name: bs if name in trimmed else bs * n_prompt
                for name in name_of.values() if name.split(".")[-1].startswith("w_")}
    assert rows == {**expected, "head": bs}
    assert n_calls == {name: 2 for name in [*expected, "head"]}  # one call per group
    assert len({pid for *_, pid in logged} - {os.getpid()}) == 1  # and one worker

    ReferenceEngine(w).generate(req)
    assert [n for _, n, _ in calls()] == [bs * bw * n_prompt] * (L * per_layer) + [bs * bw]


def test_width_one_is_one_run_in_the_callers_process(monkeypatch, tmp_path):
    """With one usable CPU the optimized request is one whole-batch run in
    the caller's process, the order of projections that of the unsplit
    stack, and no worker is forked."""
    _split(monkeypatch, 1)
    calls = _record_projections(monkeypatch, tmp_path)
    w = _toy_weights()
    bs, n_prompt, L = 3, 9, w.config.L
    engine = OptimizedEngine(w)
    res = engine.generate(GenerationRequest(_prompt(w.config, bs, n_prompt), 0, bw=2))
    assert res.groups == 1 and engine._workers == []
    logged = calls()
    per_layer = 5
    # every row up to the last layer's qkv; then its o-proj, gate, up, down and the head
    assert [n for _, n, _ in logged] == ([bs * n_prompt] * ((L - 1) * per_layer + 1)
                                         + [bs] * per_layer)
    assert {pid for *_, pid in logged} == {os.getpid()}


@pytest.mark.parametrize("blas_threads, groups", [(2, 1), (1, 2), (None, 2)],
                         ids=["multi-threaded-blas", "one-thread-blas", "unknown-blas"])
def test_prefill_splits_only_over_a_one_thread_blas(monkeypatch, tmp_path, blas_threads, groups):
    """On two usable CPUs a request splits into two groups of items only
    when the BLAS runs one thread per call, or its count cannot be read; a
    BLAS on two threads already spreads each product over both cores, so
    the request is then one whole-batch run in the caller's process."""
    _split(monkeypatch, 2, blas_threads)
    calls = _record_projections(monkeypatch, tmp_path)
    w = _toy_weights()
    bs, n_prompt = 3, 9
    res = OptimizedEngine(w).generate(GenerationRequest(_prompt(w.config, bs, n_prompt), 0, bw=2))
    assert res.groups == groups
    logged = calls()
    qkv_0 = id(w.tensors["layers.0.w_qkv"])
    assert sorted(n for weight, n, _ in logged if weight == qkv_0) == (
        [bs * n_prompt] if groups == 1 else [n_prompt, 2 * n_prompt])  # items [0, 1), [1, 3)
    assert len({pid for *_, pid in logged}) == groups


def test_blas_thread_count_is_read_from_the_loaded_openblas():
    """numpy's wheels load OpenBLAS; its thread count is read from the
    library itself, so a process pinned to one BLAS thread reads 1."""
    try:
        with open("/proc/self/maps") as maps:
            has_openblas = "openblas" in maps.read()
    except OSError:
        has_openblas = False
    if not has_openblas:
        pytest.skip("no OpenBLAS mapped into this process")
    threads = engine_module._blas_threads()
    assert isinstance(threads, int) and threads >= 1
    src = os.path.dirname(os.path.dirname(engine_module.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    pinned = subprocess.run(
        [sys.executable, "-c", "from seglm.engine import _blas_threads; print(_blas_threads())"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert pinned.stdout.split() == ["1"]


@pytest.mark.parametrize("huge_items", [[0, 1, 2], [2]], ids=["all", "worker-group-only"])
def test_prefill_groups_run_under_the_callers_numpy_error_state(monkeypatch, huge_items):
    """A worker runs each range under the caller's numpy error state, sent
    with it, so a hidden state that overflows reaches rmsnorm's own check
    in every group. The worker here is forked outside any request, under
    numpy's default state: without the state sent, numpy's RuntimeWarning,
    an error under this suite's warnings setting, which the worker
    inherits, would come first."""
    _split(monkeypatch, 2)
    w = _toy_weights(seed=23)
    prompt = _prompt(w.config, 3, 4) % (w.config.vocab - 1)
    prompt[huge_items] = w.config.vocab - 1  # the one token whose embedding row is huge
    w.embedding[-1] = 3e38
    engine = OptimizedEngine(w)
    engine._fork(1)
    with pytest.raises(ValueError, match="overflows float32"):
        engine.generate(GenerationRequest(prompt, 2))
    engine.close()


def test_more_groups_than_cores_give_the_one_group_run(monkeypatch):
    """Eight one-item groups, seven of them in workers, whatever the cores:
    the tokens are the one-group run's and its hidden state within 1e-5."""
    w = _toy_weights(seed=31)
    req = GenerationRequest(_prompt(w.config, 8, 6), 3, bw=2)
    _split(monkeypatch, 1)
    serial = OptimizedEngine(w).generate(req)
    _split(monkeypatch, 8)
    engine = OptimizedEngine(w)
    split = engine.generate(req)
    assert split.groups == 8 and len(engine._workers) == 7
    assert np.array_equal(split.tokens, serial.tokens) and serial.min_top_gap > 1e-3
    assert np.max(np.abs(split.final_hidden - serial.final_hidden)) <= 1e-5
    engine.close()


def _split_request_in_child(make_engine, request, queue):
    engine = make_engine()
    result = engine.generate(request)
    pids = _pids(engine)
    engine.close()
    queue.put((result.tokens, result.groups, pids, all(map(_reaped, pids))))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_runs_a_split_prefill(monkeypatch):
    """A child forked from a caller that has workers forgets them: its own
    split request, on a new engine and then on the one it inherited, forks
    workers of its own rather than write into the caller's pipes. Its
    ``close()`` reaps them, the inherited finalizer stopping only the
    child's workers, and its exit leaves the caller's workers serving."""
    _split(monkeypatch, 2)
    w = _toy_weights(seed=26)
    req = GenerationRequest(_prompt(w.config, 2, 5), 2)
    engine = OptimizedEngine(w)
    want = engine.generate(req).tokens  # the caller's worker now exists
    ctx = multiprocessing.get_context("fork")
    for make_engine in (lambda: OptimizedEngine(w), lambda: engine):
        queue = ctx.Queue()
        child = ctx.Process(target=_split_request_in_child, args=(make_engine, req, queue))
        child.start()
        try:
            got, groups, child_pids, reaped = queue.get(timeout=20)
        finally:
            child.join(timeout=20)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert groups == 2 and np.array_equal(got, want)
        assert len(child_pids) == 1 and not set(child_pids) & set(_pids(engine)) and reaped
        again = engine.generate(req)
        assert again.groups == 2 and np.array_equal(again.tokens, want)
    engine.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_leaves_the_callers_workers_alone(monkeypatch):
    """A child forked with os.fork inherits the engine with the finalizer
    that stops its workers, which the child's exit would run, and
    multiprocessing's record of them, whose exit handler would terminate
    them. The child forgets both, so the caller's worker serves on."""
    _split(monkeypatch, 2)
    w = _toy_weights(seed=25)
    req = GenerationRequest(_prompt(w.config, 2, 5), 2)
    engine = OptimizedEngine(w)
    want = engine.generate(req).tokens
    (pid,) = _pids(engine)
    child = os.fork()
    if child == 0:  # run what the child's exit would run, and report whether it forgot
        code = 1
        try:
            forgot = engine._workers == [] and pid not in {
                p.pid for p in multiprocessing.active_children()}
            engine._stop_workers()
            multiprocessing.util._exit_function()
            code = 0 if forgot else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _pids(engine) == [pid] and np.array_equal(engine.generate(req).tokens, want)
    engine.close()


BENCH_MODEL = dict(L=4, H=8, D=32, vocab=256, ff_dim=512)  # perfbench's model


@pytest.mark.parametrize("bs, bw, n_prompt, nr, width", [
    (2, 4, 512, 4, 2), (4, 1, 32, 24, 2), (4, 8, 64, 8, 2), (3, 2, 40, 8, 2), (3, 2, 40, 8, 3),
    (5, 2, 40, 8, 4),
], ids=["long-prompt-beam", "long-response-greedy", "wide-beam", "bs3-width2", "bs3-width3",
        "bs5-width4"])
def test_split_request_matches_the_unsplit_run(monkeypatch, bs, bw, n_prompt, nr, width):
    """At the benchmark's shapes, with fewer steps, at BS 3 on two and three
    CPUs, and at BS 5 on four, whose three workers return groups of one and
    two items: the split run gives the unsplit run's tokens, its hidden
    state within 1e-4 and its memory bytes and counters exactly. Its ledger
    holds each group's two allocs in item order, summing to the unsplit
    one's bytes."""
    w = ToyWeights.random(toy_config(**BENCH_MODEL), seed=7)
    req = GenerationRequest(_prompt(w.config, bs, n_prompt, seed=3), nr, bw=bw)
    _split(monkeypatch, 1)
    whole_engine = OptimizedEngine(w)
    whole = whole_engine.generate(req)
    _split(monkeypatch, width)
    engine = OptimizedEngine(w)
    split = engine.generate(req)
    n = min(width, bs)
    assert (whole.groups, split.groups) == (1, n)
    assert np.array_equal(split.tokens, whole.tokens)
    assert np.max(np.abs(split.final_hidden - whole.final_hidden)) <= 1e-4
    assert split.memory == whole.memory and split.counters == whole.counters
    ledger, whole_ledger = engine.last_ledger, whole_engine.last_ledger
    assert (ledger.active_bytes, ledger.reserved_bytes) == (whole_ledger.active_bytes,
                                                            whole_ledger.reserved_bytes)
    tok = cache_token_bytes(w.config)
    items = [bs * (g + 1) // n - bs * g // n for g in range(n)]
    assert ledger.events == [event for k in items for event in
                             (("alloc", k * n_prompt * tok), ("alloc", k * bw * nr * tok))]
    engine.close()


def test_one_item_runs_in_the_caller_bit_for_bit(monkeypatch):
    """A request of one item is one range on any number of CPUs: no worker
    is forked and every output is the width-1 run's, bit for bit."""
    w = _toy_weights(seed=27)
    req = GenerationRequest(_prompt(w.config, 1, 12), 6, bw=4)
    results = {}
    for width in (1, 2):
        _split(monkeypatch, width)
        engine = OptimizedEngine(w)
        results[width] = engine.generate(req), engine.last_ledger.events
        assert engine._workers == []
    (got, got_events), (want, want_events) = results[2], results[1]
    assert got.groups == want.groups == 1
    assert got.tokens.tobytes() == want.tokens.tobytes()
    assert got.final_hidden.tobytes() == want.final_hidden.tobytes()
    assert (got.memory, got.counters, got.min_top_gap) == (want.memory, want.counters,
                                                           want.min_top_gap)
    assert got_events == want_events


def test_a_worker_error_names_its_traceback_and_the_next_request_runs(monkeypatch):
    """An error in a worker's range is raised in the caller with the
    worker's pid and traceback; an error in the caller's range is raised
    after every worker has replied. Either way no ledger is left of the
    request, and the pipes stay in step: the next request, on other
    prompts, gets its own tokens from the same worker."""
    w = _toy_weights(seed=23)
    w.embedding[-1] = 3e38  # the one token whose embedding row overflows
    clean = [GenerationRequest(_prompt(w.config, 3, 4, seed=s) % (w.config.vocab - 1), 2)
             for s in (4, 5, 6)]
    _split(monkeypatch, 1)
    want = [OptimizedEngine(w).generate(req).tokens for req in clean]
    _split(monkeypatch, 2)
    engine = OptimizedEngine(w)
    assert np.array_equal(engine.generate(clean[0]).tokens, want[0])
    (pid,) = _pids(engine)
    for i, (huge_item, in_worker) in enumerate(((2, True), (0, False)), start=1):
        prompt = clean[0].prompt.copy()
        prompt[huge_item] = w.config.vocab - 1
        with pytest.raises(ValueError, match="overflows float32") as raised:
            engine.generate(GenerationRequest(prompt, 2))
        assert engine.last_ledger is None
        message = str(raised.value)
        assert (f"raised in worker process {pid}:" in message) == in_worker
        if in_worker:
            assert "Traceback (most recent call last)" in message and "in rmsnorm" in message
        assert np.array_equal(engine.generate(clean[i]).tokens, want[i])
        assert _pids(engine) == [pid]
    engine.close()


def test_a_killed_worker_fails_one_request_and_is_replaced(monkeypatch):
    """A worker killed between requests fails the next split request with an
    error naming its pid and exit code; the engine drops its workers, and
    the request after forks new ones and succeeds."""
    _split(monkeypatch, 2)
    w = _toy_weights(seed=28)
    req = GenerationRequest(_prompt(w.config, 2, 5), 3, bw=2)
    engine = OptimizedEngine(w)
    want = engine.generate(req).tokens
    (worker,) = engine._workers
    pid = worker.process.pid
    os.kill(pid, signal.SIGKILL)
    worker.process.join(10)
    with pytest.raises(RuntimeError, match=rf"worker process {pid} died \(exit code -9\)"):
        engine.generate(req)
    assert engine._workers == []
    got = engine.generate(req)
    assert got.groups == 2 and np.array_equal(got.tokens, want)
    assert _pids(engine) != [pid]
    engine.close()


def test_an_interrupt_drops_only_the_workers_its_request_used(monkeypatch):
    """An interrupt in the caller's range is re-raised. A request of one
    item, one range with no workers, leaves the engine's idle worker
    serving; a split request, whose worker the interrupt leaves out of step,
    drops it and reaps it. The next split request forks a new worker and
    gets the tokens it got before."""
    _split(monkeypatch, 2)
    w = _toy_weights(seed=34)
    req = GenerationRequest(_prompt(w.config, 2, 5), 3, bw=2)
    engine = OptimizedEngine(w)
    want = engine.generate(req).tokens
    (pid,) = _pids(engine)

    def interrupted(request):
        raise KeyboardInterrupt

    engine._run = interrupted
    with pytest.raises(KeyboardInterrupt):
        engine.generate(GenerationRequest(req.prompt[:1], 3, bw=2))
    assert _pids(engine) == [pid]
    with pytest.raises(KeyboardInterrupt):
        engine.generate(req)
    assert engine._workers == [] and _reaped(pid)
    del engine._run
    got = engine.generate(req)
    assert got.groups == 2 and np.array_equal(got.tokens, want)
    assert len(_pids(engine)) == 1 and _pids(engine) != [pid]
    engine.close()


def _reaped(pid):
    """Whether this process's child ``pid`` is gone and reaped."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_workers_are_reaped_on_close_and_on_collection(monkeypatch):
    """``close()`` stops and reaps every worker, and a later split request
    forks new ones; collecting the engine stops and reaps those."""
    _split(monkeypatch, 3)
    w = _toy_weights(seed=29)
    req = GenerationRequest(_prompt(w.config, 3, 5), 2)
    engine = OptimizedEngine(w)
    engine.generate(req)
    closed = _pids(engine)
    assert len(closed) == 2
    engine.close()
    assert engine._workers == [] and all(map(_reaped, closed))
    assert engine.generate(req).groups == 3
    collected = _pids(engine)
    assert len(collected) == 2 and not set(collected) & set(closed)
    del engine
    gc.collect()
    assert all(map(_reaped, collected))


def test_a_stopped_worker_is_killed_after_five_seconds():
    """A worker that cannot read the EOF ``close()`` brings, here one stopped
    by SIGSTOP, is killed once ``close()`` has waited 5 s for it, and
    reaped."""
    engine = OptimizedEngine(_toy_weights(seed=35))
    (worker,) = engine._fork(1)
    os.kill(worker.process.pid, signal.SIGSTOP)
    start = time.monotonic()
    engine.close()
    assert time.monotonic() - start >= 5
    assert worker.process.exitcode == -signal.SIGKILL and _reaped(worker.process.pid)
    assert engine._workers == []


def _exited(pid):
    """Whether ``pid`` has exited: no /proc entry, or a zombie that its new
    parent has yet to reap."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_their_caller_is_killed(tmp_path):
    """A caller killed outright runs no finalizer; its workers see EOF on
    their pipes, which no other process holds open, and exit within 10 s."""
    script = (
        "import os, signal\n"
        "import seglm.engine as engine\n"
        "from seglm.config import toy_config\n"
        "engine.WIDTH, engine._blas_threads = 2, lambda: 1\n"
        "e = engine.OptimizedEngine(engine.ToyWeights.random(toy_config(), seed=7))\n"
        "e.generate(engine.GenerationRequest([[1, 2, 3], [4, 5, 6]], 2))\n"
        "print(*(w.process.pid for w in e._workers), flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n")
    src = os.path.dirname(os.path.dirname(engine_module.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "pids.txt"
    with open(out, "w") as stdout:  # a file, not a pipe the workers would hold open
        caller = subprocess.run([sys.executable, "-c", script], env=env, stdout=stdout,
                                timeout=60)
    assert caller.returncode == -signal.SIGKILL
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == 1
    deadline = time.monotonic() + 10
    while not all(map(_exited, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if not _exited(pid)]
    for pid in left:  # leave no orphan behind, even when failing
        os.kill(pid, signal.SIGKILL)
    assert not left, f"workers {left} outlived their killed caller"


@contextlib.contextmanager
def _another_thread():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join()


def test_no_worker_is_forked_while_another_thread_runs(monkeypatch):
    """A forked child can deadlock on a lock another thread held at the fork,
    which Python 3.12 warns about, and the workers serve one request at a
    time. So with a live extra thread a request runs as one group and warns
    of nothing, even once the engine has a worker."""
    _split(monkeypatch, 2)
    w = _toy_weights(seed=30)
    req = GenerationRequest(_prompt(w.config, 2, 5), 2)
    engine = OptimizedEngine(w)
    with _another_thread(), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert engine.generate(req).groups == 1
    assert engine._workers == []
    assert engine.generate(req).groups == 2
    with _another_thread():
        assert engine.generate(req).groups == 1
    assert len(engine._workers) == 1
    engine.close()


def test_concurrent_requests_on_one_engine_get_their_own_tokens(monkeypatch):
    """Requests from two threads on one engine that has a worker each get
    their own tokens, and none splits while both threads run."""
    w = _toy_weights(seed=24)
    reqs = [GenerationRequest(_prompt(w.config, 2, 5, seed=s), 6, bw=2) for s in range(6)]
    _split(monkeypatch, 1)
    want = [OptimizedEngine(w).generate(req).tokens for req in reqs]
    _split(monkeypatch, 2)
    engine = OptimizedEngine(w)
    assert engine.generate(reqs[0]).groups == 2  # the worker is forked before any other thread
    got = [None] * len(reqs)

    def serve(indices):
        for i in indices:
            got[i] = engine.generate(reqs[i])

    threads = [threading.Thread(target=serve, args=(range(k, len(reqs), 2),)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    for g, expect in zip(got, want):
        assert np.array_equal(g.tokens, expect) and g.groups == 1
    engine.close()


def test_workers_are_forked_as_requests_need_them(monkeypatch):
    """On four CPUs a request of two items forks one worker, not three; a
    request of four items on the same engine then forks two more and keeps
    the first, and gets the one-group run's tokens."""
    w = _toy_weights(seed=33)
    small = GenerationRequest(_prompt(w.config, 2, 5), 2, bw=2)
    large = GenerationRequest(_prompt(w.config, 4, 5, seed=3), 3, bw=2)
    _split(monkeypatch, 1)
    want = OptimizedEngine(w).generate(large)
    _split(monkeypatch, 4)
    engine = OptimizedEngine(w)
    assert engine.generate(small).groups == 2
    first = _pids(engine)
    assert len(first) == 1
    got = engine.generate(large)
    assert got.groups == 4 and len(engine._workers) == 3 and _pids(engine)[:1] == first
    assert np.array_equal(got.tokens, want.tokens) and want.min_top_gap > 1e-3
    engine.close()


def test_weights_are_read_only_once_workers_hold_them(monkeypatch):
    """A worker holds the weights as they were when it was forked, so from
    then on an in-place write raises instead of leaving it stale."""
    _split(monkeypatch, 2)
    w = _toy_weights(seed=32)
    engine = OptimizedEngine(w)
    w.embedding[0, 0] += 0.0  # writable until a worker is forked
    engine.generate(GenerationRequest(_prompt(w.config, 2, 5), 1))
    for array in (w.embedding, w.layers[0]["w_qkv"], w.head, w.final_norm[None]):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
    engine.close()


# -- prefill/decode consistency ------------------------------------------------------

@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
@pytest.mark.parametrize("seed, cfg_kw, bs, n_prompt, nr", [
    (0, {}, 1, 8, 20),
    (1, dict(L=3, H=2, D=8, vocab=32), 2, 5, 9),
    (2, dict(L=1, H=4, D=16, vocab=96), 3, 1, 6),
], ids=["growth", "deep", "one-token-prompt"])
def test_prefill_of_prompt_plus_response_reproduces_greedy_decode(
        engine_cls, seed, cfg_kw, bs, n_prompt, nr):
    """Prefilling the prompt plus the generated tokens must reach the final
    hidden state greedy decode reached: an independent route through the
    shared layer body that uses no decode-time position, cache or gather."""
    w = _toy_weights(seed=seed, **cfg_kw)
    engine = engine_cls(w)
    prompt = _prompt(w.config, bs, n_prompt, seed=seed + 100)
    decoded = engine.generate(GenerationRequest(prompt, nr, bw=1))
    full = np.concatenate([prompt, decoded.tokens[:, 0]], axis=1)
    prefilled = engine.generate(GenerationRequest(full, 0, bw=1))
    assert np.max(np.abs(prefilled.final_hidden - decoded.final_hidden)) <= 1e-4


# -- ledger --------------------------------------------------------------------------------

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
    a later allocation. The standard policy frees a smaller buffer than each
    one it allocates; the segment policy, in engine runs and in the
    decode-memory simulator, frees nothing at all."""
    w = _toy_weights(seed=11)
    for bs, bw in ((2, 1), (1, 4)):
        request = GenerationRequest(_prompt(w.config, bs, 9), 20, bw=bw)
        reference, optimized = ReferenceEngine(w), OptimizedEngine(w)
        reference.generate(request)
        _assert_allocs_exceed_earlier_frees(reference.last_ledger.events)
        optimized.generate(request)
        assert all(kind == "alloc" for kind, _ in optimized.last_ledger.events)

    p = CacheShapeParams(2, 4, 40, 40)
    _assert_allocs_exceed_earlier_frees(simulate_decode_memory("standard", w.config, p).events)
    assert all(kind == "alloc" for kind, _ in simulate_decode_memory("segment", w.config, p).events)


@pytest.mark.parametrize("mode,bs,bw,nr", [("greedy", 2, 1, 32), ("greedy", 1, 1, 20),
                                           ("greedy", 2, 1, 0), ("beam", 1, 4, 32),
                                           ("beam", 2, 2, 37), ("beam", 1, 4, 0)])
def test_optimized_ledger_matches_segment_simulator(monkeypatch, mode, bs, bw, nr):
    """One run logs the segment policy event for event as the simulator
    states it: one alloc of the all-layer prompt arena, one of the all-layer
    response arena at its final size, and no free. (A split request logs
    each group's run in turn; see test_split_request_matches_the_unsplit_run.)"""
    _split(monkeypatch, 1)
    w = _toy_weights(seed=13, L=3)
    n_prompt = 7
    engine = OptimizedEngine(w)
    req = GenerationRequest(_prompt(w.config, bs, n_prompt), nr, bw=bw)
    assert req.mode == mode
    res = engine.generate(req)
    p = CacheShapeParams(bs, bw, n_prompt, nr)
    simulated = simulate_decode_memory("segment", w.config, p)
    assert engine.last_ledger.events == simulated.events
    tok = cache_token_bytes(w.config)
    response = [("alloc", bs * bw * nr * tok)] if nr else []  # an empty arena logs nothing
    assert simulated.events == [("alloc", bs * n_prompt * tok)] + response
    assert (res.memory["peak_reserved_bytes"] == res.memory["final_active_bytes"]
            == segment_cache_bytes(w.config, p))


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
    """``engine_cls`` whose run asserts, after prefill and after every decode
    step, that the ledger's active bytes are exactly the bytes of the live
    caches: by the caches' own rule, and as half of numpy's ``nbytes``
    (float32 held, fp16 accounted), which no width or element count in
    ``kv_bytes`` reaches."""
    class ReconciledRun(engine_cls.run_class):
        def __init__(self, engine, request, ledger):
            super().__init__(engine, request, ledger)
            self.ledger = ledger

        def _check(self):
            buffers = list(_cache_buffers(self))
            active = self.ledger.active_bytes
            assert buffers and all(b.dtype == np.float32 for b in buffers)
            assert active == kv_bytes(*buffers)
            assert 2 * active == sum(b.nbytes for b in buffers)
            checked_runs.append(self)

        def prefill(self, table):
            out = super().prefill(table)
            self._check()
            return out

        def decode_step(self, tokens, table, state):
            out = super().decode_step(tokens, table, state)
            self._check()
            return out

    class Reconciled(engine_cls):
        run_class = ReconciledRun

    return Reconciled


@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
@pytest.mark.parametrize("mode,bs,bw", [("greedy", 2, 1), ("beam", 1, 4), ("beam", 2, 2)])
def test_ledger_active_bytes_equal_live_cache_bytes(engine_cls, mode, bs, bw):
    """Ledger reconciliation: at every step the alloc/free log agrees with
    the buffers the caches actually hold; only the standard cache frees."""
    w = _toy_weights(seed=15, L=3)
    nr = 20
    checked = []
    engine = _reconciled(engine_cls, checked)(w)
    req = GenerationRequest(_prompt(w.config, bs, 6), nr, bw=bw)
    assert req.mode == mode
    res = engine.generate(req)
    assert len(checked) == nr + 1  # prefill and every decode step
    frees = any(kind == "free" for kind, _ in engine.last_ledger.events)
    assert frees == (engine_cls is ReferenceEngine)
    assert res.tokens.shape == (bs, bw, nr)


@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
def test_prompt_cache_owns_its_buffers(engine_cls):
    """Stored prompt K/V are buffers of their own, not views that would keep
    the whole fused q/k/v projection alive behind the bytes the ledger counts."""
    w = _toy_weights(seed=16)
    runs = []
    engine = _reconciled(engine_cls, runs)(w)
    engine.generate(GenerationRequest(_prompt(w.config, 2, 9), 0, bw=2))
    (run,) = runs
    buffers = list(_cache_buffers(run))
    assert len(buffers) >= 2 * w.config.L
    for b in buffers:
        assert b.flags.owndata


# -- instrumentation --------------------------------------------------------------------

def test_reference_ledger_allocs_follow_contiguous_growth():
    """Each decode step reallocates BS*BW*(Np+t) cached tokens across layers."""
    w = _toy_weights(seed=9)
    cfg = w.config
    bs, bw, n_prompt, nr = 1, 4, 6, 5
    engine = ReferenceEngine(w)
    engine.generate(GenerationRequest(_prompt(cfg, bs, n_prompt, seed=5), nr,
                                      bw=bw))
    allocs = [n for kind, n in engine.last_ledger.events if kind == "alloc"]
    tok = cache_token_bytes(cfg)
    assert sum(allocs[:cfg.L]) == bs * bw * n_prompt * tok  # prefill rows
    per_step = allocs[cfg.L:]
    assert len(per_step) == cfg.L * nr
    for t in range(1, nr + 1):
        step_total = sum(per_step[(t - 1) * cfg.L: t * cfg.L])
        assert step_total == bs * bw * (n_prompt + t) * tok


# -- determinism --------------------------------------------------------------------------

def test_same_seed_bit_identical_tokens():
    w = _toy_weights(seed=21)
    req = GenerationRequest(_prompt(w.config, 1, 8, seed=8), 10, bw=4)
    a = OptimizedEngine(w).generate(req)
    b = OptimizedEngine(ToyWeights.random(w.config, seed=21)).generate(req)
    assert np.array_equal(a.tokens, b.tokens)


@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
def test_one_engine_serves_requests_of_different_shapes(engine_cls):
    """Each request's state lives in its run: one engine serving requests of
    different batch sizes, beam widths and lengths in turn gives each of them
    what a fresh engine gives, down to the ledger's events."""
    w = _toy_weights(seed=23)
    shared = engine_cls(w)
    for seed, (bs, bw, n_prompt, nr) in enumerate([(2, 4, 9, 6), (3, 1, 5, 0), (1, 2, 17, 4)]):
        req = GenerationRequest(_prompt(w.config, bs, n_prompt, seed=seed), nr, bw=bw)
        fresh = engine_cls(w)
        got, want = shared.generate(req), fresh.generate(req)
        assert got.tokens.shape == (bs, bw, nr)
        assert np.array_equal(got.tokens, want.tokens)
        assert got.final_hidden.tobytes() == want.final_hidden.tobytes()
        assert got.memory == want.memory
        assert got.counters == want.counters
        assert shared.last_ledger.events == fresh.last_ledger.events


@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
def test_generate_leaves_the_callers_numpy_error_state_alone(engine_cls):
    """``generate`` silences numpy's overflow and invalid-value warnings only
    while it runs; the caller's settings hold again afterwards."""
    w = _toy_weights(seed=22)
    with np.errstate(over="raise", invalid="raise"):
        before = np.geterr()
        engine_cls(w).generate(GenerationRequest(_prompt(w.config, 1, 4), 3, bw=2))
        assert np.geterr() == before


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
    with pytest.raises(ValueError, match="contradicts bw == 1"):
        GenerationRequest(np.zeros((1, 4), dtype=int), 4, mode="beam")
    assert GenerationRequest(np.zeros((1, 4), dtype=int), 4).mode == "greedy"
    assert GenerationRequest(np.zeros((1, 4), dtype=int), 4, bw=2).mode == "beam"
    with pytest.raises(ValueError, match="batch is empty"):
        GenerationRequest(np.zeros((0, 4), dtype=int), 4)
    with pytest.raises(ValueError, match="n_response must be an integer"):
        GenerationRequest(np.zeros((1, 4), dtype=int), 2.5)
    with pytest.raises(ValueError, match="token ids must be integers"):
        GenerationRequest(np.array([[1.7, 2.2]]), 4)
    for bad in (2.5, True, 4.0):
        with pytest.raises(ValueError, match="bw must be an integer"):
            GenerationRequest(np.zeros((1, 4), dtype=int), 4, bw=bad)


@pytest.mark.parametrize("engine_cls", [OptimizedEngine, ReferenceEngine])
@pytest.mark.parametrize("nr", [0, 3])
def test_vocab_smaller_than_beam_width_rejected_before_prefill(monkeypatch, engine_cls, nr):
    """Two tokens cannot fill four beams; that is a request error whether or
    not the request decodes, raised before the engine allocates or prefills."""
    w = _toy_weights(vocab=2)
    engine = engine_cls(w)

    def refuse(*args, **kwargs):
        raise AssertionError("the run began before the request was checked")

    monkeypatch.setattr(engine_cls, "run_class", refuse)
    with pytest.raises(ValueError, match="vocabulary of 2 cannot fill 4 beams"):
        engine.generate(GenerationRequest(_prompt(w.config, 1, 3), nr, bw=4))
    assert engine.last_ledger is None


def test_out_of_vocab_prompt_rejected():
    w = _toy_weights()
    with pytest.raises(ValueError):
        OptimizedEngine(w).generate(GenerationRequest(np.array([[w.config.vocab]]), 1, bw=1))


def test_prompt_beyond_max_pos_rejected(monkeypatch):
    """A request one position over ``MAX_POS`` is rejected before any cache
    is allocated; one at the limit gets as far as allocating."""
    w = _toy_weights(L=1, H=1, D=2, vocab=4, ff_dim=2)
    prompt = np.zeros((1, MAX_POS - 9), dtype=int)

    def refuse(*args, **kwargs):
        raise AssertionError("the run began before the request was checked")

    for engine_cls in (OptimizedEngine, ReferenceEngine):
        monkeypatch.setattr(engine_cls, "run_class", refuse)
        engine = engine_cls(w)
        with pytest.raises(ValueError, match=f"maximum position length {MAX_POS}"):
            engine.generate(GenerationRequest(prompt, 10, bw=1))
        assert engine.last_ledger is None
        with pytest.raises(AssertionError, match="the run began"):
            engine.generate(GenerationRequest(prompt, 9, bw=1))


# -- weight file round trip -------------------------------------------------------------------

def test_weight_file_round_trip_is_byte_exact(tmp_path):
    w = _toy_weights(seed=33, L=2, H=2, D=8, vocab=16)
    path = tmp_path / "weights.bin"
    save_weights(path, w)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header == {"config": asdict(w.config)}
    loaded = load_weights(path)
    assert loaded.config == w.config
    assert list(loaded.tensors) == list(w.tensors)
    for name, a in w.tensors.items():
        assert a.tobytes() == loaded.tensors[name].tobytes()
    path2 = tmp_path / "again.bin"
    save_weights(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


WEIGHT_MAP_DEFECTS = {  # defect -> the error it raises, naming the tensor
    "missing-name": "weight tensor layers.1.w_o is missing",
    "extra-name": "weight tensor layers.2.w_qkv is not in the layout of its config (L=2)",
    "misshapen": "weight tensor layers.0.w_up: expected shape (128, 64), got (64, 128)",
    "non-finite": "weight tensor head holds non-finite values",
    "non-float32": "weight tensor layers.1.w_gate: expected float32, got float64",
}


@pytest.mark.parametrize("defect", sorted(WEIGHT_MAP_DEFECTS))
def test_weights_constructor_checks_the_map(defect):
    """``ToyWeights(config, tensors)`` takes a map holding exactly the names
    of ``weight_layout(config)``, each float32 with its laid-out shape and
    finite values, and refuses any other map naming the tensor at fault."""
    cfg = toy_config()  # L=2, d_model 64, ff_dim 128
    tensors = dict(ToyWeights.random(cfg, seed=0).tensors)
    if defect == "missing-name":
        del tensors["layers.1.w_o"]
    elif defect == "extra-name":  # a third layer under L = 2
        tensors["layers.2.w_qkv"] = tensors["layers.1.w_qkv"]
    elif defect == "misshapen":  # input-major, as projections were once stored
        tensors["layers.0.w_up"] = tensors["layers.0.w_up"].T
    elif defect == "non-float32":  # save_weights would write it as float32
        tensors["layers.1.w_gate"] = tensors["layers.1.w_gate"].astype(np.float64)
    else:
        tensors["head"] = tensors["head"].copy()
        tensors["head"][3, 5] = np.inf
    with pytest.raises(ValueError, match=re.escape(WEIGHT_MAP_DEFECTS[defect])):
        ToyWeights(cfg, tensors)


@pytest.mark.parametrize("cfg", [toy_config(), toy_config(L=3, H=2, D=4, vocab=10, ff_dim=6)],
                         ids=["toy", "L3"])
def test_random_weights_follow_the_hand_written_draw(cfg):
    """One Gaussian stream drawn in file order: embedding, then per layer
    w_qkv, w_o, w_gate, w_up, w_down, then head; every norm gain is one.
    Each projection is drawn input-major [in, out] and stored transposed."""
    rng = np.random.default_rng(4)

    def draw(*shape):
        return (rng.standard_normal(shape) * 0.02).astype(np.float32)

    dm, ff, vocab = cfg.d_model, cfg.ff_dim, cfg.vocab
    embedding = draw(vocab, dm)
    layers = [(draw(dm, 3 * dm).T, draw(dm, dm).T, draw(dm, ff).T, draw(dm, ff).T,
               draw(ff, dm).T) for _ in range(cfg.L)]
    head = draw(dm, vocab).T

    ones = np.ones(dm, dtype=np.float32)
    w = ToyWeights.random(cfg, seed=4)
    assert len(w.layers) == cfg.L
    pairs = [(w.embedding, embedding), (w.final_norm, ones), (w.head, head)]
    for lw, drawn in zip(w.layers, layers):
        pairs += zip((lw["w_qkv"], lw["w_o"], lw["w_gate"], lw["w_up"], lw["w_down"]), drawn)
        pairs += [(lw["rmsnorm_1"], ones), (lw["rmsnorm_2"], ones)]
    for got, want in pairs:
        np.testing.assert_array_equal(got, want, strict=True)


# sha256 of save_weights(ToyWeights.random(toy_config(), seed=0)), as it was
# written when every projection was held row-major
SEED_0_WEIGHT_FILE_SHA256 = "9d05c843888ccb88f7b51cc6df5c0db77c8642e8a3a8810a2fc860b7db963edd"


def test_weights_hold_projections_column_major_from_every_source(tmp_path):
    """``ToyWeights`` drawn at random, built from a map of C-order arrays or
    loaded from a file holds every projection column-major, so that its
    ``w.T`` is C-contiguous, and the embedding row-major, each with the
    values it was given. The caller's map is left as it was, and a seed's
    weight file is byte for byte the one it always was."""
    cfg = toy_config()
    drawn = ToyWeights.random(cfg, seed=0)
    path = tmp_path / "w.bin"
    save_weights(path, drawn)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SEED_0_WEIGHT_FILE_SHA256
    given = {name: np.ascontiguousarray(a) for name, a in drawn.tensors.items()}
    kept = {name: (a, a.copy()) for name, a in given.items()}
    from_map = ToyWeights(cfg, given)
    assert given.keys() == kept.keys()
    for name, (a, values) in kept.items():
        assert given[name] is a and a.flags.c_contiguous
        np.testing.assert_array_equal(a, values, strict=True)

    for w in (drawn, from_map, load_weights(path)):
        assert list(w.tensors) == list(given)
        for name, a in w.tensors.items():
            np.testing.assert_array_equal(a, given[name], strict=True)
        assert w.embedding is w.tensors["embedding"] and w.embedding.flags.c_contiguous
        projections = [("head", w.head)] + [(f"layers.{i}.{k}", a) for i, lw in enumerate(w.layers)
                                            for k, a in lw.items() if k.startswith("w_")]
        assert len(projections) == 5 * cfg.L + 1
        for name, a in projections:
            assert a is w.tensors[name] and a.T.flags.c_contiguous, name


def test_loaded_weights_generate_identically(tmp_path):
    w = _toy_weights(seed=34)
    path = tmp_path / "w.bin"
    save_weights(path, w)
    req = GenerationRequest(_prompt(w.config, 1, 6, seed=9), 8, bw=1)
    assert np.array_equal(OptimizedEngine(w).generate(req).tokens,
                          OptimizedEngine(load_weights(path)).generate(req).tokens)
