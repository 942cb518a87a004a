import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seglm import sdpa
from seglm.config import toy_config
from seglm.kvcache import MemoryLedger, PromptKV, ResponseKV
from seglm.sdpa import (DECODE_BLOCK, KEY_BLOCK, OnlineSoftmax, SdpaDecodeInputs,
                        sdpa_decode_fused, sdpa_decode_oracle, sdpa_materialized, sdpa_prefill)

# key counts on and next to the prefill tile edges
TILE_EDGES = sorted({0, 1} | {k * KEY_BLOCK + e for k in (1, 2) for e in (-1, 0, 1)})
# key counts on and next to the first decode tile edge, and one past the second
DECODE_EDGES = [DECODE_BLOCK - 1, DECODE_BLOCK, DECODE_BLOCK + 1, 2 * DECODE_BLOCK + 1]


def _rand_inputs(rng, bs, bw, h, d, n_prompt, n_resp):
    rows = bs * bw
    return SdpaDecodeInputs(
        q=rng.standard_normal((1, rows, h, d)).astype(np.float32),
        prompt_k=rng.standard_normal((bs, n_prompt, h, d)).astype(np.float32),
        prompt_v=rng.standard_normal((bs, n_prompt, h, d)).astype(np.float32),
        resp_k=rng.standard_normal((n_resp, rows, h, d)).astype(np.float32),
        resp_v=rng.standard_normal((n_resp, rows, h, d)).astype(np.float32),
        indices=rng.integers(0, bw, size=(bs, bw, n_resp)),
    )


# -- prefill -----------------------------------------------------------------------

def test_prefill_single_key_returns_value_exactly():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((2, 1, 3, 4)).astype(np.float32)
    k = rng.standard_normal((2, 1, 3, 4)).astype(np.float32)
    v = rng.standard_normal((2, 1, 3, 4)).astype(np.float32)
    out = sdpa_prefill(q, k, v)
    assert np.array_equal(out, v)  # single-key softmax weight is exactly 1


def test_prefill_causal_first_position_sees_only_first_key():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((1, 2, 1, 4)).astype(np.float32)
    k = rng.standard_normal((1, 2, 1, 4)).astype(np.float32)
    v = rng.standard_normal((1, 2, 1, 4)).astype(np.float32)
    out = sdpa_prefill(q, k, v)
    assert np.allclose(out[0, 0], v[0, 0], atol=1e-6)


def test_prefill_matches_materialized_oracle():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((2, 16, 4, 8)).astype(np.float32)
    k = rng.standard_normal((2, 16, 4, 8)).astype(np.float32)
    v = rng.standard_normal((2, 16, 4, 8)).astype(np.float32)
    out = sdpa_prefill(q, k, v)
    oracle = sdpa_materialized(q.astype(np.float64), k.astype(np.float64), v.astype(np.float64))
    assert np.max(np.abs(out - oracle)) <= 1e-5
    assert out.shape == q.shape  # batch first, like the inputs


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([n for n in TILE_EDGES if n >= 1]),
       nq=st.sampled_from([1, 2, KEY_BLOCK - 1, KEY_BLOCK, KEY_BLOCK + 1, None]),
       bs=st.integers(1, 2), h=st.integers(1, 3), d=st.sampled_from([4, 16]),
       seed=st.integers(0, 2**32 - 1))
def test_prefill_matches_oracle_at_tile_edges(n, nq, bs, h, d, seed):
    """The last ``nq`` positions (None: all n) attend every key before them,
    so Nk - Nq falls both on and off a tile edge."""
    nq = n if nq is None else nq
    assume(nq <= n)
    rng = np.random.default_rng(seed)
    k, v = (rng.standard_normal((bs, n, h, d)).astype(np.float32) for _ in range(2))
    q = rng.standard_normal((bs, nq, h, d)).astype(np.float32)
    oracle = sdpa_materialized(q.astype(np.float64), k.astype(np.float64), v.astype(np.float64))
    out = sdpa_prefill(q, k, v)
    assert out.shape == q.shape
    assert np.max(np.abs(out - oracle)) <= 1e-5


def test_prefill_rejects_mismatched_shapes():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((1, 2, 1, 4)).astype(np.float32)
    with pytest.raises(ValueError):
        sdpa_prefill(q, q[:, :1], q)  # more queries than keys
    with pytest.raises(ValueError):
        sdpa_prefill(q[0], q[0], q[0])
    for other in (np.concatenate([q, q]), np.concatenate([q, q], axis=2), q[..., :2]):
        with pytest.raises(ValueError):  # BS, H or D of q differs from k's
            sdpa_prefill(other, q, q)
    with pytest.raises(ValueError):
        sdpa_prefill(q[:, :0], q, q)  # zero queries over two keys


def test_prefill_zero_length_rejected():
    z = np.zeros((1, 0, 1, 4), dtype=np.float32)
    with pytest.raises(ValueError):
        sdpa_prefill(z, z, z)


# -- fused decode ------------------------------------------------------------------

def test_decode_single_prompt_key_returns_value():
    rng = np.random.default_rng(4)
    inp = _rand_inputs(rng, bs=1, bw=1, h=2, d=4, n_prompt=1, n_resp=0)
    out = sdpa_decode_fused(inp)
    assert np.array_equal(out.reshape(2, 4), inp.prompt_v[0, 0])


def test_decode_gather_reads_the_indexed_slot():
    """Beam position 2 (slot w=1) at the first response step gathers slot 3:
    plant a dominating key/value there and watch it win."""
    bs, bw, h, d = 1, 4, 1, 8
    rows = bs * bw
    q = np.zeros((1, rows, h, d), dtype=np.float32)
    q[0, 1, 0, 0] = 20.0  # slot 1's query aligned with the sentinel key
    prompt_k = np.zeros((bs, 2, h, d), dtype=np.float32)
    prompt_v = np.zeros((bs, 2, h, d), dtype=np.float32)
    resp_k = np.zeros((1, rows, h, d), dtype=np.float32)
    resp_v = np.zeros((1, rows, h, d), dtype=np.float32)
    resp_k[0, 3, 0, 0] = 20.0           # sentinel key in cache slot 3, step 0
    resp_v[0, 3, 0, :] = 7.0            # sentinel value
    indices = np.zeros((bs, bw, 1), dtype=np.int64)
    indices[0, 1, 0] = 3
    out = sdpa_decode_fused(SdpaDecodeInputs(q, prompt_k, prompt_v, resp_k, resp_v, indices))
    assert np.allclose(out[0, 1, 0], 7.0, atol=1e-5)   # slot 1 reads resp slot 3
    assert np.allclose(out[0, 0, 0], 0.0, atol=1e-5)   # slot 0 reads its own zeros


def test_decode_fused_matches_oracle_random_case():
    rng = np.random.default_rng(5)
    inp = _rand_inputs(rng, bs=2, bw=4, h=2, d=16, n_prompt=8, n_resp=5)
    assert np.max(np.abs(sdpa_decode_fused(inp) - sdpa_decode_oracle(inp))) <= 1e-5


@pytest.mark.parametrize("seed", range(30))
def test_decode_fused_vs_oracle_randomized(seed):
    rng = np.random.default_rng(100 + seed)
    bs = int(rng.integers(1, 5))
    bw = int(rng.integers(1, 5))
    h = int(rng.integers(1, 9))
    d = int(rng.choice([16, 32, 64]))
    n_prompt = int(rng.integers(0, 97))
    n_resp = int(rng.integers(0, 65))
    if n_prompt + n_resp == 0:
        n_prompt = 3
    inp = _rand_inputs(rng, bs, bw, h, d, n_prompt, n_resp)
    assert np.max(np.abs(sdpa_decode_fused(inp) - sdpa_decode_oracle(inp))) <= 1e-4


@settings(max_examples=40, deadline=None)
@given(n_prompt=st.sampled_from(sorted({*TILE_EDGES, *DECODE_EDGES})),
       n_resp=st.sampled_from(sorted({*TILE_EDGES, *DECODE_EDGES})),
       bs=st.integers(1, 3), bw=st.integers(1, 4), h=st.integers(1, 3),
       d=st.sampled_from([4, 16]), seed=st.integers(0, 2**32 - 1))
def test_decode_fused_vs_oracle_at_tile_edges(n_prompt, n_resp, bs, bw, h, d, seed):
    assume(n_prompt + n_resp > 0)
    inp = _rand_inputs(np.random.default_rng(seed), bs, bw, h, d, n_prompt, n_resp)
    assert np.max(np.abs(sdpa_decode_fused(inp) - sdpa_decode_oracle(inp))) <= 1e-4


@pytest.mark.parametrize("n_prompt", sorted({0, 3, KEY_BLOCK + 1, *DECODE_EDGES}))
@pytest.mark.parametrize("n_resp", sorted({1, KEY_BLOCK - 1, KEY_BLOCK, KEY_BLOCK + 1,
                                           2 * KEY_BLOCK + 1, *DECODE_EDGES}))
def test_decode_fused_vs_oracle_at_bw_1(n_prompt, n_resp):
    """At BW = 1 the response tiles are read as plain slices, not gathered."""
    inp = _rand_inputs(np.random.default_rng(n_prompt * 1000 + n_resp), 3, 1, 2, 8,
                       n_prompt, n_resp)
    assert np.max(np.abs(sdpa_decode_fused(inp) - sdpa_decode_oracle(inp))) <= 1e-4


def test_kernels_fold_one_update_per_tile(monkeypatch):
    """Decode folds ceil(Np/W) + ceil(Nr/W) tiles of W = DECODE_BLOCK keys,
    each key once; prefill of T query tiles of B = KEY_BLOCK keys folds only
    the T(T+1)/2 tiles on or below the causal diagonal, and of the last
    query alone ceil(Nk/B) tiles."""
    widths = []
    update = OnlineSoftmax.update

    def counting_update(self, scores, values):
        widths.append(scores.shape[-1])
        update(self, scores, values)

    monkeypatch.setattr(OnlineSoftmax, "update", counting_update)
    rng = np.random.default_rng(14)
    for bw in (1, 2):
        for n_prompt, n_resp in [(1, 0), (0, 1), (DECODE_BLOCK, DECODE_BLOCK),
                                 (DECODE_BLOCK + 22, 70), (2 * DECODE_BLOCK + 1, DECODE_BLOCK - 1)]:
            widths.clear()
            sdpa_decode_fused(_rand_inputs(rng, 2, bw, 2, 4, n_prompt, n_resp))
            assert len(widths) == (math.ceil(n_prompt / DECODE_BLOCK)
                                   + math.ceil(n_resp / DECODE_BLOCK))
            assert sum(widths) == n_prompt + n_resp
    for n in (1, KEY_BLOCK, KEY_BLOCK + 1, 3 * KEY_BLOCK - 1, 4 * KEY_BLOCK):
        widths.clear()
        q = rng.standard_normal((1, n, 2, 4)).astype(np.float32)
        sdpa_prefill(q, q, q)
        tiles = math.ceil(n / KEY_BLOCK)
        assert len(widths) == tiles * (tiles + 1) // 2
        widths.clear()
        sdpa_prefill(q[:, -1:], q, q)  # one query folds each key tile once
        assert len(widths) == tiles


@pytest.mark.parametrize("bw", [1, 2, 3])
def test_decode_reads_greedy_response_tiles_without_a_gather(monkeypatch, bw):
    """Every decode tile goes through ``_fold_batch_first``. Prompt tiles are
    views of the prompt K/V. At BW = 1 a response tile is a view of the
    response K/V, not a gathered copy; at BW > 1 it is gathered."""
    tiles = []
    fold = sdpa._fold_batch_first

    def recording_fold(state, q, kt, vt):
        tiles.append((kt, vt))
        fold(state, q, kt, vt)

    monkeypatch.setattr(sdpa, "_fold_batch_first", recording_fold)
    n_prompt, n_resp = DECODE_BLOCK + 1, 2 * DECODE_BLOCK + 1
    inp = _rand_inputs(np.random.default_rng(17), 2, bw, 2, 4, n_prompt, n_resp)
    sdpa_decode_fused(inp)
    prompt_tiles = math.ceil(n_prompt / DECODE_BLOCK)
    assert len(tiles) == prompt_tiles + math.ceil(n_resp / DECODE_BLOCK)
    for kt, vt in tiles[:prompt_tiles]:
        assert np.shares_memory(kt, inp.prompt_k) and np.shares_memory(vt, inp.prompt_v)
    for kt, vt in tiles[prompt_tiles:]:
        assert kt.shape[0] == 2 * bw
        assert np.shares_memory(kt, inp.resp_k) == np.shares_memory(vt, inp.resp_v) == (bw == 1)


@pytest.mark.parametrize("n", [1, KEY_BLOCK, KEY_BLOCK + 1, 3 * KEY_BLOCK - 1])
def test_kernels_keep_their_score_tile_bounds(monkeypatch, n):
    """Every score tile a kernel folds stays within its docstring's bound:
    KEY_BLOCK^2 x BS x H in prefill, DECODE_BLOCK x BS*BW x H in decode.
    Decode runs on n keys scaled from prefill's tile width to its own, so
    both kernels meet the same positions relative to their tile edges."""
    sizes = []
    update = OnlineSoftmax.update

    def recording_update(self, scores, values):
        sizes.append(scores.size)
        update(self, scores, values)

    monkeypatch.setattr(OnlineSoftmax, "update", recording_update)
    rng = np.random.default_rng(16)
    bs, h, d = 2, 3, 4
    q = rng.standard_normal((bs, n, h, d)).astype(np.float32)
    sdpa_prefill(q, q, q)
    assert sizes and max(sizes) <= KEY_BLOCK ** 2 * bs * h
    for bw in (1, 3):
        sizes.clear()
        n_decode = n * DECODE_BLOCK // KEY_BLOCK
        sdpa_decode_fused(_rand_inputs(rng, bs, bw, h, d, n_prompt=n_decode, n_resp=n_decode))
        assert sizes and max(sizes) <= DECODE_BLOCK * bs * bw * h


@pytest.mark.parametrize("seed", range(3))
def test_prefill_rescales_when_a_later_key_tile_raises_the_max(seed):
    """The scores ramp up along the keys and are scaled x30, so a query's
    running max rises in later key tiles, often by more than float32's exp
    range: the earlier tiles' rescale factor alpha underflows to 0. q and k
    are small integers, so every score is exact in float32 and the gap to
    the float64 oracle is the recurrence's own."""
    bs, n, h, d = 3, 3 * KEY_BLOCK + 5, 8, 16
    rng = np.random.default_rng(200 + seed)
    q, k = (rng.integers(-1, 2, (bs, n, h, d)).astype(np.float32) for _ in range(2))
    v = rng.standard_normal((bs, n, h, d)).astype(np.float32)
    q[..., 0] = 2
    k[..., 0] = (np.arange(n) // 16)[None, :, None]
    q *= np.float32(30)
    q64, k64, v64 = (x.astype(np.float64) for x in (q, k, v))

    # per query, how far each key tile's max rises above the max of the tiles before it
    s = np.einsum("bqhd,bkhd->bhqk", q64, k64) / math.sqrt(d)
    s = np.where(np.tril(np.ones((n, n), dtype=bool)), s, -np.inf)
    tile_max = np.stack([s[..., t:t + KEY_BLOCK].max(axis=-1) for t in range(0, n, KEY_BLOCK)])
    rise = tile_max[1:] - np.maximum.accumulate(tile_max, axis=0)[:-1]
    assert ((rise > 0) & (rise < 50)).any()  # alpha strictly between 0 and 1
    assert (rise > 104).any()  # e^-104 is 0 in float32

    oracle = sdpa_materialized(q64, k64, v64)
    assert np.max(np.abs(sdpa_prefill(q, k, v) - oracle)) <= 1e-5


def test_decode_zero_keys_rejected():
    with pytest.raises(ValueError):
        _rand_inputs(np.random.default_rng(6), bs=1, bw=1, h=1, d=4, n_prompt=0, n_resp=0)


def test_from_caches_rejects_batch_first_q():
    """The shape check, not a layout tag, catches a q left batch first."""
    cfg = toy_config(L=1, H=2, D=4)
    rng = np.random.default_rng(8)
    prompt_kv = PromptKV(cfg, bs=1, n_prompt=3, ledger=MemoryLedger())
    kv = rng.standard_normal((1, 3, cfg.H, cfg.D)).astype(np.float32)
    prompt_kv.store(0, kv, kv)
    resp_kv = ResponseKV(cfg, bs=1, bw=2, n_response=1, ledger=MemoryLedger())
    row = rng.standard_normal((1, 2, cfg.H, cfg.D)).astype(np.float32)
    resp_kv.append(0, row, row)
    indices = np.zeros((1, 2, 1), dtype=np.int64)
    q = rng.standard_normal((1, 2, cfg.H, cfg.D)).astype(np.float32)  # sequence first
    SdpaDecodeInputs.from_caches(q, prompt_kv, resp_kv, 0, indices)
    with pytest.raises(ValueError):
        SdpaDecodeInputs.from_caches(q.transpose(1, 0, 2, 3), prompt_kv, resp_kv, 0, indices)


def test_decode_indices_out_of_range_rejected():
    rng = np.random.default_rng(7)
    inp_kwargs = dict(
        q=rng.standard_normal((1, 2, 1, 4)).astype(np.float32),
        prompt_k=rng.standard_normal((1, 3, 1, 4)).astype(np.float32),
        prompt_v=rng.standard_normal((1, 3, 1, 4)).astype(np.float32),
        resp_k=rng.standard_normal((2, 2, 1, 4)).astype(np.float32),
        resp_v=rng.standard_normal((2, 2, 1, 4)).astype(np.float32),
    )
    for indices, match in [(np.full((1, 2, 2), 2), r"\[0, 2\)"),
                           (np.ones((1, 2, 2)), "dtype float64"),  # in range, but not an index
                           (np.ones((1, 2, 2), dtype=bool), "dtype bool")]:
        with pytest.raises(ValueError, match=match):
            SdpaDecodeInputs(indices=indices, **inp_kwargs)


def test_decode_indices_out_of_range_rejected_at_bw_1():
    """The BW = 1 kernel never reads the indices, so ``validate`` alone must
    reject any index other than an integer 0."""
    rng = np.random.default_rng(15)
    inp = _rand_inputs(rng, bs=2, bw=1, h=1, d=4, n_prompt=3, n_resp=2)
    one_past = np.zeros((2, 1, 2), dtype=np.int64)
    one_past[1, 0, 1] = 1
    for indices, match in [(one_past, r"\[0, 1\)"),
                           (np.full((2, 1, 2), 0.5), "dtype float64"),  # in range, not an index
                           (np.zeros((2, 1, 2), dtype=bool), "dtype bool")]:
        with pytest.raises(ValueError, match=match):
            SdpaDecodeInputs(inp.q, inp.prompt_k, inp.prompt_v, inp.resp_k, inp.resp_v, indices)


# -- oracle cross-checks --------------------------------------------------------------

def test_oracle_zero_values_give_zero_output():
    rng = np.random.default_rng(8)
    inp = _rand_inputs(rng, bs=1, bw=2, h=2, d=8, n_prompt=4, n_resp=3)
    inp.prompt_v[:] = 0
    inp.resp_v[:] = 0
    assert np.allclose(sdpa_decode_oracle(inp), 0.0)
    assert np.allclose(sdpa_decode_fused(inp), 0.0)


def test_oracle_identity_indices_equals_prefill_last_query():
    """With bw=1 and identity indices, decode attention over prompt+response
    equals causal prefill of the concatenated sequence at the last position."""
    rng = np.random.default_rng(9)
    bs, h, d, n_prompt, n_resp = 2, 2, 8, 6, 4
    n = n_prompt + n_resp
    q_full = rng.standard_normal((bs, n, h, d)).astype(np.float32)
    k_full = rng.standard_normal((bs, n, h, d)).astype(np.float32)
    v_full = rng.standard_normal((bs, n, h, d)).astype(np.float32)
    pre = sdpa_prefill(q_full, k_full, v_full)

    inp = SdpaDecodeInputs(
        q=q_full[:, -1][None].transpose(0, 1, 2, 3).reshape(1, bs, h, d),
        prompt_k=k_full[:, :n_prompt],
        prompt_v=v_full[:, :n_prompt],
        resp_k=np.ascontiguousarray(k_full[:, n_prompt:].transpose(1, 0, 2, 3)),
        resp_v=np.ascontiguousarray(v_full[:, n_prompt:].transpose(1, 0, 2, 3)),
        indices=np.zeros((bs, 1, n_resp), dtype=np.int64),
    )
    got = sdpa_decode_oracle(inp).reshape(bs, h, d)
    assert np.max(np.abs(got - pre[:, -1])) <= 1e-5


# -- fused-kernel properties -----------------------------------------------------------

def test_constant_values_yield_constant_output():
    """Softmax weights across both segments sum to one."""
    rng = np.random.default_rng(10)
    inp = _rand_inputs(rng, bs=2, bw=2, h=2, d=8, n_prompt=6, n_resp=5)
    c = rng.standard_normal(8).astype(np.float32)
    inp.prompt_v[:] = c
    inp.resp_v[:] = c
    out = sdpa_decode_fused(inp).reshape(-1, 8)
    assert np.max(np.abs(out - c)) <= 1e-6


def test_prompt_reversal_gives_same_result():
    rng = np.random.default_rng(11)
    inp = _rand_inputs(rng, bs=1, bw=2, h=2, d=16, n_prompt=12, n_resp=4)
    out = sdpa_decode_fused(inp)
    rev = SdpaDecodeInputs(inp.q, inp.prompt_k[:, ::-1], inp.prompt_v[:, ::-1],
                           inp.resp_k, inp.resp_v, inp.indices)
    assert np.max(np.abs(sdpa_decode_fused(rev) - out)) <= 1e-5


def test_prompt_sharing_across_beams():
    """Identical queries + identical index rows => identical outputs per beam;
    the prompt segment has no beam axis to diverge on."""
    rng = np.random.default_rng(12)
    bs, bw, h, d = 2, 4, 2, 8
    q1 = rng.standard_normal((1, bs, 1, h, d)).astype(np.float32)
    q = np.broadcast_to(q1, (1, bs, bw, h, d)).reshape(1, bs * bw, h, d).copy()
    resp1 = rng.standard_normal((3, bs, 1, h, d)).astype(np.float32)
    resp = np.broadcast_to(resp1, (3, bs, bw, h, d)).reshape(3, bs * bw, h, d).copy()
    inp = SdpaDecodeInputs(
        q=q,
        prompt_k=rng.standard_normal((bs, 5, h, d)).astype(np.float32),
        prompt_v=rng.standard_normal((bs, 5, h, d)).astype(np.float32),
        resp_k=resp,
        resp_v=resp.copy(),
        indices=np.zeros((bs, bw, 3), dtype=np.int64),
    )
    out = sdpa_decode_fused(inp).reshape(bs, bw, h, d)
    for w in range(1, bw):
        assert np.array_equal(out[:, 0], out[:, w])


def test_online_softmax_state_invariant():
    """After each tile, acc/l equals the exact softmax-weighted mean over the
    keys processed so far; masked (-inf) keys carry no weight."""
    rng = np.random.default_rng(13)
    scores = rng.standard_normal(10).astype(np.float32)
    scores[5:7] = -np.inf  # part of the widest tile is masked
    values = rng.standard_normal((10, 4)).astype(np.float32)
    state = OnlineSoftmax((), 4)
    end = 0
    for width in (1, 3, 6):
        state.update(scores[end:end + width], values[end:end + width])
        end += width
        w = np.exp(scores[:end] - scores[:end].max())
        expected = (w[:, None] * values[:end]).sum(axis=0) / w.sum()
        assert np.allclose(state.acc / state.l, expected, atol=1e-5)

    # a fully masked tile leaves a fresh state empty (no NaN from -inf - -inf)
    fresh = OnlineSoftmax((), 4)
    fresh.update(np.full(3, -np.inf, dtype=np.float32), values[:3])
    assert fresh.m == -np.inf and fresh.l == 0 and not fresh.acc.any()
    fresh.update(scores[:5], values[:5])
    w = np.exp(scores[:5] - scores[:5].max())
    assert np.allclose(fresh.acc / fresh.l, (w[:, None] * values[:5]).sum(axis=0) / w.sum(),
                       atol=1e-5)
