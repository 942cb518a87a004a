"""Acceptance checks, runnable from the CLI (`seglm verify`) and from pytest.

Each check re-derives its expected values through an independent route
(closed forms, brute-force scans, the materializing oracle, the reference
engine) rather than trusting the code path under test.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from .config import preset, toy_config
from . import engine
from .engine import (GenerationRequest, OptimizedEngine, ReferenceEngine, ToyWeights,
                     one_blas_thread)
from .fusion import apply_fusion_passes, build_standard_decoder_graph, op_count_report
from .kvcache import (CacheShapeParams, MemoryLedger, ResponseKV, bs_max_under_budget,
                      cache_token_bytes, memsim_row, segment_cache_bytes,
                      simulate_decode_memory, standard_cache_bytes)
from .sdpa import DECODE_BLOCK, SdpaDecodeInputs, sdpa_decode_fused, sdpa_decode_oracle

GB = 10 ** 9  # decimal GB for display
SDPA_SEED = 1234           # seed of the randomized fused-vs-oracle shapes
CROSS_ENGINE_CONFIGS = 20  # toy configs the two engines must agree on
CROSS_ENGINE_SEED = 77
SPLIT_CASE = 1             # the cross-engine config run split into groups of items
TIE_GAP = 1e-3             # a token flip is excused only below this selection margin
MAX_RESEEDS = 20           # near-tie reseeds allowed per cross-engine config


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _run(name: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    except Exception as exc:  # a check that raises has failed; the other checks still run
        detail = f"raised {type(exc).__name__}: {exc}"
        passed = False
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


# -- 1: exact cache-size golden values ---------------------------------------

def check_memsim_goldens() -> CheckResult:
    def body() -> str:
        cfg = preset("gptj-6b")
        p = CacheShapeParams(bs=32, bw=4, n_prompt=1024, n_response=1024)
        row = memsim_row(cfg, "gptj-6b", p)
        assert row["standard_bytes"] == 137_438_953_472, row
        assert row["segment_bytes"] == 85_899_345_920, row
        assert round(row["standard_bytes"] / GB) == 137
        assert round(row["segment_bytes"] / GB) == 86
        assert row["ratio"] == 0.625, row["ratio"]
        assert round(row["saving_bytes"] / GB, 1) == 51.5
        return "standard 137 GB, segment 86 GB, ratio 0.625, saving 51.5 GB"

    return _run("memsim-goldens", body)


# -- 2: fused attention vs materializing oracle ------------------------------

def _random_decode_inputs(rng: np.random.Generator) -> SdpaDecodeInputs:
    # both segments reach their third decode tile
    n_prompt = int(rng.integers(0, 2 * DECODE_BLOCK + 33))
    n_resp = int(rng.integers(0, 2 * DECODE_BLOCK + 2))
    if n_prompt + n_resp == 0:
        n_prompt = 1
    bs = int(rng.integers(1, 5))
    bw = int(rng.integers(1, 5))
    # past one decode tile, fewer and narrower heads keep the materializing
    # oracle cheap; batch and beam, which the gather and the shared prompt
    # depend on, keep their full range
    long = n_prompt + n_resp > DECODE_BLOCK
    h = int(rng.integers(1, 3 if long else 9))
    d = int(rng.choice([16, 32] if long else [16, 32, 64]))
    rows = bs * bw

    def g(*shape):
        return rng.standard_normal(shape, dtype=np.float32)

    return SdpaDecodeInputs(
        q=g(1, rows, h, d),
        prompt_k=g(bs, n_prompt, h, d),
        prompt_v=g(bs, n_prompt, h, d),
        resp_k=g(n_resp, rows, h, d),
        resp_v=g(n_resp, rows, h, d),
        indices=rng.integers(0, bw, size=(bs, bw, n_resp)),
    )


def check_sdpa_fused_vs_oracle(cases: int = 200) -> CheckResult:
    def body() -> str:
        rng = np.random.default_rng(SDPA_SEED)
        worst = 0.0
        for _ in range(cases):
            inp = _random_decode_inputs(rng)
            diff = float(np.max(np.abs(sdpa_decode_fused(inp) - sdpa_decode_oracle(inp))))
            worst = max(worst, diff)
            assert diff <= 1e-4, f"fused vs oracle diverged by {diff:.2e}"
        return f"{cases} randomized cases, worst |diff| = {worst:.2e} <= 1e-4"

    return _run("sdpa-fused-vs-oracle", body)


# -- 3: cross-engine token and hidden-state equivalence ----------------------

def _cross_engine_configs():
    """The first two configs are pinned: a 40-step beam run, and BS 3, which
    ``check_cross_engine`` runs split (on two cores, unevenly: items [0, 1)
    and [1, 3)); the rest are random."""
    rng = np.random.default_rng(CROSS_ENGINE_SEED)
    cases = [dict(L=2, H=4, D=16, vocab=64, bs=1, bw=4, n_prompt=32, n_response=40),
             dict(L=2, H=4, D=16, vocab=64, bs=3, bw=4, n_prompt=40, n_response=12)]
    while len(cases) < CROSS_ENGINE_CONFIGS:
        bw = int(rng.choice([1, 4]))
        vocab = int(rng.integers(max(16, bw), 129))
        cases.append(dict(
            L=int(rng.integers(1, 4)),
            H=int(rng.integers(1, 5)),
            D=int(rng.choice([8, 16, 32])),
            vocab=vocab,
            bs=int(rng.integers(1, 3)),
            bw=bw,
            n_prompt=int(rng.integers(1, 65)),
            n_response=int(rng.integers(1, 49)),
        ))
    return cases


def _run_engine_pair(case: dict, seed: int):
    """Run both engines on one case and require identical token sequences.

    A disagreement is excused (and the case reseeded, up to ``MAX_RESEEDS``
    times) only when some selection came within ``TIE_GAP`` of a tie; a
    flipped near-tie says nothing about the pipelines; a disagreement at a
    wide margin is a real divergence and fails immediately.
    """
    cfg = toy_config(L=case["L"], H=case["H"], D=case["D"], vocab=case["vocab"])
    for attempt in range(MAX_RESEEDS):
        s = seed + 1000 * attempt
        weights = ToyWeights.random(cfg, seed=s)
        rng = np.random.default_rng(s + 1)
        prompt = rng.integers(0, cfg.vocab, size=(case["bs"], case["n_prompt"]))
        request = GenerationRequest(prompt, case["n_response"], bw=case["bw"])
        opt = OptimizedEngine(weights).generate(request)
        ref = ReferenceEngine(weights).generate(request)
        if np.array_equal(opt.tokens, ref.tokens):
            return opt, ref
        if min(opt.min_top_gap, ref.min_top_gap) >= TIE_GAP:
            raise AssertionError(
                f"token sequences diverge at a selection margin >= {TIE_GAP} for case {case}"
            )
    raise AssertionError(f"token sequences kept hitting near-ties for case {case}")


def check_cross_engine() -> CheckResult:
    def body() -> str:
        worst_hidden = 0.0
        for i, case in enumerate(_cross_engine_configs()):
            # an optimized request splits only over a BLAS on one thread per call
            with one_blas_thread() if i == SPLIT_CASE else contextlib.nullcontext():
                opt, ref = _run_engine_pair(case, seed=CROSS_ENGINE_SEED + 31 * i)
            if i == SPLIT_CASE:
                split_groups = opt.groups
                assert engine.WIDTH < 2 or split_groups >= 2, \
                    f"the BS 3 run on {engine.WIDTH} CPUs ran in {split_groups} group(s)"
            diff = float(np.max(np.abs(opt.final_hidden - ref.final_hidden)))
            worst_hidden = max(worst_hidden, diff)
            assert diff <= 1e-4, f"final hidden states diverge by {diff:.2e} for case {case}"
        return (f"{CROSS_ENGINE_CONFIGS} toy configs (incl. a 40-step beam run and a BS 3 run "
                f"in {split_groups} groups): identical tokens, "
                f"worst hidden |diff| = {worst_hidden:.2e}")

    return _run("cross-engine-equivalence", body)


# -- 4: segment response arena ----------------------------------------------

def check_response_arena() -> CheckResult:
    def body() -> str:
        cfg = toy_config(L=1, H=2, D=4)
        ledger = MemoryLedger()
        cache = ResponseKV(cfg, bs=1, bw=2, n_response=40, ledger=ledger)
        closed_form = segment_cache_bytes(cfg, CacheShapeParams(1, 2, 0, 40))
        assert ledger.events == [("alloc", closed_form)], ledger.events
        rng = np.random.default_rng(5)
        ks, vs = [], []
        for _ in range(40):
            k = rng.standard_normal((1, 2, cfg.H, cfg.D)).astype(np.float32)
            v = rng.standard_normal((1, 2, cfg.H, cfg.D)).astype(np.float32)
            ks.append(k)
            vs.append(v)
            cache.append(0, k, v)
        got_k, got_v = cache.valid(0)
        oracle_k = np.concatenate(ks, axis=0)
        oracle_v = np.concatenate(vs, axis=0)
        assert np.array_equal(got_k, oracle_k) and np.array_equal(got_v, oracle_v), \
            "cache rows differ from the running-concatenation oracle"
        try:
            cache.append(0, ks[0], vs[0])
        except ValueError:
            pass
        else:
            raise AssertionError("a 41st append into a 40-row arena did not raise")
        assert ledger.events == [("alloc", closed_form)], ledger.events
        return (f"one alloc of {closed_form} bytes (the closed form), 40 appends bit-exact, "
                "the 41st raises, no further ledger event")

    return _run("segment-response-arena", body)


# -- 5: fusion counts ---------------------------------------------------------

def check_fusion_counts() -> CheckResult:
    def body() -> str:
        std = build_standard_decoder_graph("decode")
        assert std.count_kind("Cat") == 2, std.count_kind("Cat")
        assert std.count_kind("IndexSelect") == 2
        assert std.count_kind("Transpose") >= 1
        opt = apply_fusion_passes(std)
        rep = op_count_report(opt)
        assert rep["total"] == 9, rep["total"]
        assert rep["counts"]["by_tag"]["data-movement"] == 0
        assert rep["counts"]["by_tag"]["element-wise"] == 0
        opt_prefill = apply_fusion_passes(build_standard_decoder_graph("prefill"))
        assert op_count_report(opt_prefill)["total"] == 9
        return (f"standard decode graph: {std.count_kind('Cat')} cat, "
                f"{std.count_kind('IndexSelect')} index-select, "
                f"{std.count_kind('Transpose')} transpose; optimized graph: 9 ops, "
                f"0 data-movement, 0 element-wise")

    return _run("fusion-counts", body)


# -- 6: fragmentation model ---------------------------------------------------

def check_fragmentation_model() -> CheckResult:
    def body() -> str:
        cfg = preset("gptj-6b")
        p = CacheShapeParams(bs=4, bw=4, n_prompt=1024, n_response=128)
        tok = cache_token_bytes(cfg)
        std = simulate_decode_memory("standard", cfg, p)
        closed_form = sum(p.bs * p.bw * (p.n_prompt + t) * tok
                          for t in range(1, p.n_response + 1))
        assert std.reserved_bytes == closed_form, (std.reserved_bytes, closed_form)
        seg = simulate_decode_memory("segment", cfg, p)
        final = segment_cache_bytes(cfg, p)
        assert seg.reserved_bytes == seg.active_bytes == final, (seg.reserved_bytes, final)
        assert seg.reserved_bytes < std.reserved_bytes, (seg.reserved_bytes, std.reserved_bytes)
        return (f"standard peak == per-step sum ({closed_form:,} bytes); "
                f"segment peak == final active == closed form ({final:,}) "
                f"< standard peak")

    return _run("fragmentation-model", body)


# -- 7: largest-batch inversion under a byte budget ---------------------------

def check_bsmax_inversion() -> CheckResult:
    def body() -> str:
        cfg = preset("gptj-6b")
        budget = 64 * GB  # one device tile
        seg = bs_max_under_budget(cfg, "segment", budget, bw=4, n_prompt=1024, n_response=1024)
        std = bs_max_under_budget(cfg, "standard", budget, bw=4, n_prompt=1024, n_response=1024)
        assert seg == 23 and std == 14, (seg, std)

        def brute(policy_fn):  # independent scan of the same budget
            best = 0
            for bs in range(1, 4096):
                if policy_fn(cfg, CacheShapeParams(bs, 4, 1024, 1024)) <= budget:
                    best = bs
                else:
                    break
            return best

        assert brute(segment_cache_bytes) == 23
        assert brute(standard_cache_bytes) == 14
        assert seg > std
        return "64 GB budget: segment fits BS=23 vs standard BS=14 (brute-force verified)"

    return _run("bsmax-inversion", body)


# -- 8: desk-scale substitution: instrumented data-movement counters ----------

def check_no_data_movement() -> CheckResult:
    def body() -> str:
        cfg = toy_config()
        weights = ToyWeights.random(cfg, seed=3)
        prompt = np.random.default_rng(4).integers(0, cfg.vocab, size=(1, 8))
        request = GenerationRequest(prompt, 20, bw=4)
        opt = OptimizedEngine(weights).generate(request)
        ref = ReferenceEngine(weights).generate(request)
        assert opt.counters.cat_ops == 0 and opt.counters.index_select_ops == 0, opt.counters
        assert opt.counters.layout_conversions == 2 * request.n_response, opt.counters
        assert ref.counters.cat_ops == 2 * cfg.L * request.n_response
        assert ref.counters.index_select_ops == 2 * cfg.L * request.n_response
        return (f"optimized decode: 0 cat / 0 index-select tensor ops, "
                f"{opt.counters.layout_conversions} layout conversions (2 per step); "
                f"reference decode: {ref.counters.cat_ops} cat, "
                f"{ref.counters.index_select_ops} index-select")

    return _run("no-data-movement-counters", body)


def run_checks(quick: bool = False) -> list[CheckResult]:
    sdpa_cases = 20 if quick else 200
    return [
        check_memsim_goldens(),
        check_sdpa_fused_vs_oracle(cases=sdpa_cases),
        check_cross_engine(),
        check_response_arena(),
        check_fusion_counts(),
        check_fragmentation_model(),
        check_bsmax_inversion(),
        check_no_data_movement(),
    ]
