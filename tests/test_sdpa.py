import numpy as np
import pytest

from seglm.config import toy_config
from seglm.kvcache import PromptKV, ResponseKV
from seglm.sdpa import (OnlineSoftmax, SdpaDecodeInputs, sdpa_decode_fused,
                        sdpa_decode_oracle, sdpa_prefill)


def materialized_prefill_oracle(q, k, v):
    """Full-score causal softmax attention on [BS, N, H, D], independent of
    the streaming implementation."""
    bs, n, h, d = q.shape
    s = np.einsum("bihd,bjhd->bhij", q, k).astype(np.float64) / np.sqrt(d)
    mask = np.tril(np.ones((n, n), dtype=bool))
    s = np.where(mask, s, -np.inf)
    m = s.max(axis=-1, keepdims=True)
    w = np.exp(s - m)
    w = w / w.sum(axis=-1, keepdims=True)
    return np.einsum("bhij,bjhd->bihd", w, v)


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
    assert np.max(np.abs(out - materialized_prefill_oracle(q, k, v))) <= 1e-5
    assert out.shape == q.shape  # batch first, like the inputs


def test_prefill_rejects_mismatched_shapes():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((1, 2, 1, 4)).astype(np.float32)
    with pytest.raises(ValueError):
        sdpa_prefill(q, q[:, :1], q)
    with pytest.raises(ValueError):
        sdpa_prefill(q[0], q[0], q[0])


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


def test_decode_zero_keys_rejected():
    with pytest.raises(ValueError):
        _rand_inputs(np.random.default_rng(6), bs=1, bw=1, h=1, d=4, n_prompt=0, n_resp=0)


def test_from_caches_rejects_batch_first_q():
    """The shape check, not a layout tag, catches a q left batch first."""
    cfg = toy_config(L=1, H=2, D=4)
    rng = np.random.default_rng(8)
    prompt_kv = PromptKV(cfg, bs=1, n_prompt=3)
    kv = rng.standard_normal((1, 3, cfg.H, cfg.D)).astype(np.float32)
    prompt_kv.store(0, kv, kv)
    resp_kv = ResponseKV(cfg, bs=1, bw=2)
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
    with pytest.raises(ValueError):
        SdpaDecodeInputs(indices=np.full((1, 2, 2), 2), **inp_kwargs)


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
    """acc/l equals the exact softmax-weighted mean over processed keys."""
    rng = np.random.default_rng(13)
    scores = rng.standard_normal(10).astype(np.float32)
    values = rng.standard_normal((10, 4)).astype(np.float32)
    state = OnlineSoftmax((), 4)
    for i in range(10):
        state.update(np.float32(scores[i]), values[i])
        w = np.exp(scores[:i + 1] - scores[:i + 1].max())
        expected = (w[:, None] * values[:i + 1]).sum(axis=0) / w.sum()
        assert np.allclose(state.acc / state.l, expected, atol=1e-5)
