import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglm.ops import (fused_qkv, gated_mlp, linear, log_softmax, rmsnorm, rope, rope_table,
                       silu, to_batch_first, to_sequence_first)


def matmul_oracle(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Triple-loop matmul over the last axis, independent of BLAS."""
    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    out = np.zeros((x2.shape[0], w.shape[1]), dtype=np.float64)
    for i in range(x2.shape[0]):
        for j in range(w.shape[1]):
            acc = 0.0
            for k in range(x2.shape[1]):
                acc += float(x2[i, k]) * float(w[k, j])
            out[i, j] = acc
    return out.reshape(lead + (w.shape[1],))


def permute_oracle(arr: np.ndarray) -> np.ndarray:
    """Element-by-element index permutation (b, n, h, d) -> (n, b, h, d)."""
    b, n, h, d = arr.shape
    out = np.empty((n, b, h, d), dtype=arr.dtype)
    for i in range(b):
        for j in range(n):
            for k in range(h):
                for m in range(d):
                    out[j, i, k, m] = arr[i, j, k, m]
    return out


def _normal(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


# -- rmsnorm -------------------------------------------------------------------

def test_rmsnorm_of_ones_returns_weight():
    w = np.array([0.5, -2.0, 3.0], dtype=np.float32)
    y = rmsnorm(np.ones(3, dtype=np.float32), w, eps=0.0)
    assert np.allclose(y, w, atol=1e-7)


def test_rmsnorm_hand_value():
    # rms([3, 4]) = sqrt(12.5); y = x / rms
    y = rmsnorm(np.array([3.0, 4.0]), np.array([1.0, 1.0]), eps=0.0)
    expected = np.array([3.0, 4.0]) / math.sqrt(12.5)
    assert np.allclose(y, expected, atol=1e-5)
    assert abs(y[0] - 0.84853) < 1e-4 and abs(y[1] - 1.13137) < 1e-4


def test_rmsnorm_zero_vector():
    y = rmsnorm(np.zeros(4), np.ones(4), eps=1e-5)
    assert np.array_equal(y, np.zeros(4, dtype=np.float32))


def test_rmsnorm_output_rms_is_one():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 7, 16)).astype(np.float32)
    y = rmsnorm(x, np.ones(16), eps=0.0)
    rms = np.sqrt(np.mean(np.square(y), axis=-1))
    assert np.allclose(rms, 1.0, atol=1e-5)


def test_rmsnorm_dimension_mismatch():
    with pytest.raises(ValueError):
        rmsnorm(np.zeros((2, 3)), np.ones(4))


# -- linear --------------------------------------------------------------------

def test_linear_identity_weight():
    x = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
    assert np.allclose(linear(x, np.eye(4, dtype=np.float32)), x, atol=1e-7)


def test_linear_matches_triple_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3)).astype(np.float32)
    w = rng.standard_normal((3, 4)).astype(np.float32)
    assert np.allclose(linear(x, w), matmul_oracle(x, w), atol=1e-6)


def test_linear_dimension_mismatch():
    with pytest.raises(ValueError):
        linear(np.zeros((2, 3)), np.zeros((4, 5)))


# -- fused qkv -----------------------------------------------------------------

def test_fused_qkv_equals_column_split_linears():
    rng = np.random.default_rng(3)
    heads, d = 2, 4
    dm = heads * d
    x = rng.standard_normal((3, 5, dm)).astype(np.float32)
    w = rng.standard_normal((dm, 3 * dm)).astype(np.float32)
    q, k, v = fused_qkv(x, w, heads, d)
    for i, part in enumerate((q, k, v)):
        ref = linear(x, w[:, i * dm:(i + 1) * dm]).reshape(3, 5, heads, d)
        assert np.allclose(part, ref, atol=1e-6, rtol=0)


def test_fused_qkv_zero_input():
    q, k, v = fused_qkv(np.zeros((2, 4)), np.ones((4, 12)), 2, 2)
    assert not q.any() and not k.any() and not v.any()
    assert q.shape == (2, 2, 2)


def test_fused_qkv_scalar_case():
    # d_model = 1: y = x * w, split into thirds
    q, k, v = fused_qkv(np.array([[2.0]]), np.array([[1.0, 2.0, 3.0]]), 1, 1)
    assert q.reshape(-1).tolist() == [2.0]
    assert k.reshape(-1).tolist() == [4.0]
    assert v.reshape(-1).tolist() == [6.0]


def test_fused_qkv_shape_mismatch():
    with pytest.raises(ValueError):
        fused_qkv(np.zeros((2, 4)), np.zeros((4, 8)), 2, 2)


# -- rope ----------------------------------------------------------------------

def test_rope_zero_positions_is_identity():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((2, 3, 2, 8)).astype(np.float32)
    k = rng.standard_normal((2, 3, 2, 8)).astype(np.float32)
    q2, k2 = rope(q, k, rope_table(np.zeros((2, 3), dtype=np.int64), 8))
    assert np.allclose(q2, q, atol=1e-7)
    assert np.allclose(k2, k, atol=1e-7)


@pytest.mark.parametrize("style", ["half", "interleaved"])
def test_rope_hand_rotation_d2(style):
    # D=2, pos=1, pair angle = 1 * theta^0 = 1 rad
    q = np.array([[[1.0, 0.0]]])  # [1 position, 1 head, D=2]
    k = np.zeros_like(q)
    q2, _ = rope(q, k, rope_table(np.array([1]), 2), style=style)
    assert abs(q2[0, 0, 0] - math.cos(1.0)) < 1e-6
    assert abs(q2[0, 0, 1] - math.sin(1.0)) < 1e-6
    assert abs(q2[0, 0, 0] - 0.54030) < 1e-4
    assert abs(q2[0, 0, 1] - 0.84147) < 1e-4


@pytest.mark.parametrize("style", ["half", "interleaved"])
def test_rope_preserves_pair_norms(style):
    rng = np.random.default_rng(5)
    q = rng.standard_normal((4, 2, 8)).astype(np.float32)
    k = rng.standard_normal((4, 2, 8)).astype(np.float32)
    q2, k2 = rope(q, k, rope_table(np.arange(4), 8), style=style)
    for x, x2 in ((q, q2), (k, k2)):
        if style == "half":
            pairs = np.stack([x[..., :4], x[..., 4:]], axis=-1)
            pairs2 = np.stack([x2[..., :4], x2[..., 4:]], axis=-1)
        else:
            pairs = np.stack([x[..., 0::2], x[..., 1::2]], axis=-1)
            pairs2 = np.stack([x2[..., 0::2], x2[..., 1::2]], axis=-1)
        assert np.allclose(np.linalg.norm(pairs, axis=-1),
                           np.linalg.norm(pairs2, axis=-1), atol=1e-6)


def test_rope_styles_differ_for_wide_heads():
    rng = np.random.default_rng(6)
    q = rng.standard_normal((1, 1, 8)).astype(np.float32)
    k = q.copy()
    qa, _ = rope(q, k, rope_table(np.array([3]), 8), style="half")
    qb, _ = rope(q, k, rope_table(np.array([3]), 8), style="interleaved")
    assert not np.allclose(qa, qb, atol=1e-4)


def _rope_inline(x, positions, theta, style):
    """Rotary embedding with its angles computed in place, per call."""
    half = x.shape[-1] // 2
    inv_freq = np.power(np.float32(theta),
                        -(np.arange(half, dtype=np.float32) * np.float32(2.0 / x.shape[-1])))
    ang = np.asarray(positions, dtype=np.float32)[..., None] * inv_freq
    cos, sin = np.cos(ang)[..., None, :], np.sin(ang)[..., None, :]
    if style == "half":
        x1, x2 = x[..., :half], x[..., half:]
        return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)
    out = np.empty_like(x)
    x1, x2 = x[..., 0::2], x[..., 1::2]
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


@pytest.mark.parametrize("style", ["half", "interleaved"])
@pytest.mark.parametrize("lead, positions", [
    ((3, 7), np.arange(7)[None, :]),  # prefill: [BS, Np] against [1, Np]
    ((1, 6), np.array([[41]])),       # decode: [1, rows] against [[p]]
], ids=["prefill", "decode"])
def test_shared_rope_table_is_bit_identical_per_layer(style, lead, positions):
    """One table reused by every layer rotates exactly as angles computed
    afresh in each layer."""
    table = rope_table(positions, 16, 500.0)
    for layer in range(3):
        q = _normal(lead + (2, 16), 10 + layer)
        k = _normal(lead + (2, 16), 20 + layer)
        q2, k2 = rope(q, k, table, style)
        assert q2.tobytes() == _rope_inline(q, positions, 500.0, style).tobytes()
        assert k2.tobytes() == _rope_inline(k, positions, 500.0, style).tobytes()


def test_rope_table_for_other_head_dim_rejected():
    with pytest.raises(ValueError, match="head dim 4"):
        rope(np.zeros((1, 1, 8)), np.zeros((1, 1, 8)), rope_table(np.array([0]), 4))


def test_rope_odd_head_dim_rejected():
    with pytest.raises(ValueError, match="even"):
        rope_table(np.array([0]), 3)
    with pytest.raises(ValueError, match="even"):
        rope(np.zeros((1, 1, 3)), np.zeros((1, 1, 3)), rope_table(np.array([0]), 2))


def test_rope_position_length_mismatch_rejected():
    with pytest.raises(ValueError):
        rope(np.zeros((2, 5, 1, 4)), np.zeros((2, 5, 1, 4)), rope_table(np.arange(4), 4))


# -- gated mlp -----------------------------------------------------------------

def test_gated_mlp_zero_input():
    rng = np.random.default_rng(7)
    w = [rng.standard_normal(s).astype(np.float32) for s in ((4, 6), (4, 6), (6, 4))]
    assert not gated_mlp(np.zeros((2, 4)), *w).any()


def test_gated_mlp_scalar_value():
    one = np.ones((1, 1), dtype=np.float32)
    y = float(gated_mlp(one, one, one, one)[0, 0])
    assert abs(y - 1.0 / (1.0 + math.exp(-1.0))) < 1e-6
    assert abs(y - 0.73106) < 1e-5


def test_gated_mlp_matches_unfused_steps():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 4)).astype(np.float32)
    wg = rng.standard_normal((4, 6)).astype(np.float32)
    wu = rng.standard_normal((4, 6)).astype(np.float32)
    wd = rng.standard_normal((6, 4)).astype(np.float32)
    gate = x @ wg
    expected = (gate * (1.0 / (1.0 + np.exp(-gate))) * (x @ wu)) @ wd
    assert np.allclose(gated_mlp(x, wg, wu, wd), expected, atol=1e-6)


def test_silu_extremes_do_not_overflow():
    y = silu(np.array([-1000.0, 0.0, 1000.0], dtype=np.float32))
    assert np.allclose(y, [0.0, 0.0, 1000.0])


# -- purity / misc --------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_ops_are_pure(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 6)).astype(np.float32)
    w = rng.standard_normal((6, 6)).astype(np.float32)
    assert np.array_equal(linear(x, w), linear(x, w))
    assert np.array_equal(rmsnorm(x, np.ones(6)), rmsnorm(x, np.ones(6)))


def test_log_softmax_normalizes():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 10)).astype(np.float32)
    p = np.exp(log_softmax(x))
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-5)


# -- layout conversions ---------------------------------------------------------

def test_to_sequence_first_small_example():
    s = to_sequence_first(np.arange(6, dtype=np.float32).reshape(2, 3, 1, 1))
    assert s.shape == (3, 2, 1, 1)
    assert s.ravel().tolist() == [0, 3, 1, 4, 2, 5]


def test_to_batch_first_inverse_example():
    b = to_batch_first(np.array([0, 3, 1, 4, 2, 5], dtype=np.float32).reshape(3, 2, 1, 1))
    assert b.shape == (2, 3, 1, 1)
    assert b.ravel().tolist() == [0, 1, 2, 3, 4, 5]


def test_single_batch_single_seq_conversion_copies_data():
    t = _normal((1, 1, 4, 8), seed=3)
    s = to_sequence_first(t)
    assert np.array_equal(s.ravel(), t.ravel())
    # an explicit copy even where the transpose alone would be a view
    assert s.flags.c_contiguous and not np.shares_memory(s, t)


def test_zero_size_conversion_permitted():
    assert to_sequence_first(np.zeros((2, 0, 3, 1), dtype=np.float32)).shape == (0, 2, 3, 1)


def test_layout_conversions_require_rank_4():
    for convert in (to_sequence_first, to_batch_first):
        with pytest.raises(ValueError):
            convert(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            convert(np.zeros((1, 2, 3, 4, 5), dtype=np.float32))


def test_to_sequence_first_matches_permutation_oracle():
    t = _normal((4, 5, 2, 3), seed=11)
    assert np.array_equal(to_sequence_first(t), permute_oracle(t))


def test_to_batch_first_matches_permutation_oracle():
    t = _normal((5, 4, 2, 3), seed=12)
    # the inverse direction permutes (n, b, h, d) -> (b, n, h, d); reuse the
    # oracle, which is its own inverse up to axis naming
    assert np.array_equal(to_batch_first(t), permute_oracle(t))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 31 - 1))
def test_layout_round_trip_is_identity(b, n, h, d, seed):
    t = _normal((b, n, h, d), seed)
    assert np.array_equal(to_batch_first(to_sequence_first(t)), t)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 31 - 1))
def test_layout_conversion_preserves_element_sum_exactly(b, n, h, d, seed):
    t = _normal((b, n, h, d), seed)
    # data only moves; the multiset of elements is unchanged
    assert np.array_equal(np.sort(to_sequence_first(t), axis=None), np.sort(t, axis=None))
