import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglm.ops import (ROW_BOUND, fused_qkv, gated_mlp, linear, log_softmax,
                       rmsnorm, rope, rope_table, to_batch_first, to_sequence_first)


def matmul_oracle(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Triple-loop x @ w.T over the last axis for an output-major weight
    w [out, in], independent of BLAS."""
    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    out = np.zeros((x2.shape[0], w.shape[0]), dtype=np.float64)
    for i in range(x2.shape[0]):
        for j in range(w.shape[0]):
            acc = 0.0
            for k in range(x2.shape[1]):
                acc += float(x2[i, k]) * float(w[j, k])
            out[i, j] = acc
    return out.reshape(lead + (w.shape[0],))


def _silu_oracle(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x) with sigmoid taken from exp(-|x|) on each side of 0,
    so neither branch can overflow."""
    x = np.asarray(x, dtype=np.float32)
    z = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)).astype(np.float32)
    return x * sig


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


@pytest.mark.parametrize("big", [3e38, 2e19, np.inf, np.nan])
def test_rmsnorm_rejects_a_mean_square_that_is_not_finite(big):
    """Squaring in float32 overflows past ~1.8e19; the row must not quietly
    normalize to 0, whichever row of the batch holds it."""
    x = np.ones((3, 4), dtype=np.float32)
    x[1, 2] = big
    with pytest.raises(ValueError, match="overflows float32"):
        with np.errstate(over="ignore"):  # the square's own RuntimeWarning
            rmsnorm(x, np.ones(4))
    assert np.isfinite(rmsnorm(np.full(4, 1e18, dtype=np.float32), np.ones(4))).all()


# -- linear --------------------------------------------------------------------

def test_linear_identity_weight():
    x = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
    assert np.allclose(linear(x, np.eye(4, dtype=np.float32)), x, atol=1e-7)


def test_linear_matches_triple_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3)).astype(np.float32)
    w = rng.standard_normal((4, 3)).astype(np.float32)  # output-major [out, in]
    assert np.allclose(linear(x, w), matmul_oracle(x, w), atol=1e-6)


# 4, 8 and 32 rows are decode steps, 32 and 64 warm-up prefills, and 128, 256
# and 1024 the benchmark's prefills
@pytest.mark.parametrize("rows", sorted({1, 2, 3, 4, 7, 8, 32, 64, 128, 129, 256, 1024,
                                         ROW_BOUND - 1, ROW_BOUND, ROW_BOUND + 1}))
def test_linear_matches_oracle_on_both_sides_of_the_row_bound(rows):
    """Each of the two product forms gives a C-contiguous float32 result
    equal to the triple loop, for 1-D, 2-D and 3-D inputs; the rows of a
    product just above the bound equal those computed just below it."""
    rng = np.random.default_rng(rows)
    w = rng.uniform(-1, 1, (6, 5)).astype(np.float32)  # output-major [out, in]
    x = rng.uniform(-1, 1, (rows, 5)).astype(np.float32)
    split = next(k for k in (2, 3, 1) if rows % k == 0)
    leads = [(rows,), (split, rows // split)] + ([()] if rows == 1 else [])
    expected = matmul_oracle(x, w)
    for lead in leads:
        y = linear(x.reshape(lead + (5,)), w)
        assert y.shape == lead + (6,) and y.dtype == np.float32 and y.flags.c_contiguous
        assert np.max(np.abs(y.reshape(rows, 6) - expected)) <= 1e-6
    if rows == ROW_BOUND + 1:
        assert np.max(np.abs(linear(x, w)[:ROW_BOUND] - linear(x[:ROW_BOUND], w))) <= 1e-6


def test_linear_dimension_mismatch():
    with pytest.raises(ValueError):
        linear(np.zeros((2, 3)), np.zeros((4, 5)))


# -- fused qkv -----------------------------------------------------------------

def test_fused_qkv_equals_column_split_linears():
    rng = np.random.default_rng(3)
    heads, d = 2, 4
    dm = heads * d
    x = rng.standard_normal((3, 5, dm)).astype(np.float32)
    w = rng.standard_normal((3 * dm, dm)).astype(np.float32)
    qk, v = fused_qkv(x, w, heads, d)
    assert qk.shape == (3, 5, 2 * heads, d) and v.shape == (3, 5, heads, d)
    # q, k, v are the weight's row blocks; q's heads come first in qk
    for i, part in enumerate((qk[..., :heads, :], qk[..., heads:, :], v)):
        ref = linear(x, w[i * dm:(i + 1) * dm]).reshape(3, 5, heads, d)
        assert np.allclose(part, ref, atol=1e-6, rtol=0)


def test_fused_qkv_zero_input():
    qk, v = fused_qkv(np.zeros((2, 4)), np.ones((12, 4)), 2, 2)
    assert not qk.any() and not v.any()
    assert qk.shape == (2, 4, 2) and v.shape == (2, 2, 2)


def test_fused_qkv_scalar_case():
    # d_model = 1: y = x * w, split into thirds
    qk, v = fused_qkv(np.array([[2.0]]), np.array([[1.0], [2.0], [3.0]]), 1, 1)
    assert qk.reshape(-1).tolist() == [2.0, 4.0]  # q, then k
    assert v.reshape(-1).tolist() == [6.0]


def test_fused_qkv_shape_mismatch():
    with pytest.raises(ValueError):
        fused_qkv(np.zeros((2, 4)), np.zeros((4, 8)), 2, 2)


# -- rope ----------------------------------------------------------------------

def test_rope_zero_positions_is_identity():
    rng = np.random.default_rng(4)
    qk = rng.standard_normal((2, 3, 4, 8)).astype(np.float32)
    assert np.allclose(rope(qk, rope_table(np.zeros((2, 3), dtype=np.int64), 8)), qk, atol=1e-7)


def test_rope_hand_rotation_d2():
    # D=2, pos=1, pair angle = 1 * theta^0 = 1 rad
    q = np.array([[[1.0, 0.0]]])  # [1 position, 1 head, D=2]
    q2 = rope(q, rope_table(np.array([1]), 2))
    assert abs(q2[0, 0, 0] - math.cos(1.0)) < 1e-6
    assert abs(q2[0, 0, 1] - math.sin(1.0)) < 1e-6
    assert abs(q2[0, 0, 0] - 0.54030) < 1e-4
    assert abs(q2[0, 0, 1] - 0.84147) < 1e-4


def test_rope_table_holds_both_halves():
    """C = [cos, cos] and S = [-sin, sin], per position, over one head axis of 1."""
    cos, sin = rope_table(np.array([[0, 3]]), 4)
    assert cos.shape == sin.shape == (1, 2, 1, 4)
    ang = 3 * np.array([1.0, 10000.0 ** -0.5])
    assert np.allclose(cos[0, 1, 0], np.tile(np.cos(ang), 2), atol=1e-6)
    assert np.allclose(sin[0, 1, 0], np.concatenate([-np.sin(ang), np.sin(ang)]), atol=1e-6)


def test_rope_preserves_pair_norms():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4, 8)).astype(np.float32)
    x2 = rope(x, rope_table(np.arange(4), 8))
    pairs = np.stack([x[..., :4], x[..., 4:]], axis=-1)
    pairs2 = np.stack([x2[..., :4], x2[..., 4:]], axis=-1)
    assert np.allclose(np.linalg.norm(pairs, axis=-1), np.linalg.norm(pairs2, axis=-1), atol=1e-6)


def _rope_inline(x, positions, theta):
    """Rotary embedding with its angles computed in place, per call, as
    each pair (i, i + D/2) rotated on its own."""
    half = x.shape[-1] // 2
    inv_freq = np.power(np.float32(theta),
                        -(np.arange(half, dtype=np.float32) * np.float32(2.0 / x.shape[-1])))
    ang = np.asarray(positions, dtype=np.float32)[..., None] * inv_freq
    cos, sin = np.cos(ang)[..., None, :], np.sin(ang)[..., None, :]
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


@pytest.mark.parametrize("lead, positions", [
    ((3, 7), np.arange(7)[None, :]),  # prefill: [BS, Np] against [1, Np]
    ((1, 6), np.array([[41]])),       # decode: [1, rows] against [[p]]
], ids=["prefill", "decode"])
def test_shared_rope_table_is_bit_identical_per_layer(lead, positions):
    """One table reused by every layer rotates a fused q|k block, as
    ``fused_qkv`` lays it out, exactly as angles computed afresh in each
    layer rotate q and k pair by pair, each on its own."""
    table = rope_table(positions, 16, 500.0)
    for layer in range(3):
        qk = fused_qkv(_normal(lead + (32,), 10 + layer), _normal((96, 32), 20 + layer), 2, 16)[0]
        q, k = qk[..., :2, :], qk[..., 2:, :]
        qk2 = rope(qk, table)
        assert qk2[..., :2, :].tobytes() == _rope_inline(q, positions, 500.0).tobytes()
        assert qk2[..., 2:, :].tobytes() == _rope_inline(k, positions, 500.0).tobytes()


def test_decode_table_rows_are_bit_identical_to_one_position_tables():
    """A run's decode table, built once, gives each step exactly the table
    of that step's position built alone."""
    positions = np.arange(37, 37 + 160)
    cos, sin = rope_table(positions[:, None, None], 32)
    for t, p in enumerate(positions):
        one_cos, one_sin = rope_table(np.array([[p]]), 32)
        assert cos[t].tobytes() == one_cos.tobytes() and sin[t].tobytes() == one_sin.tobytes()


def test_rope_table_for_other_head_dim_rejected():
    with pytest.raises(ValueError, match="head dim 4"):
        rope(np.zeros((1, 2, 8)), rope_table(np.array([0]), 4))


def test_rope_odd_head_dim_rejected():
    with pytest.raises(ValueError, match="even"):
        rope_table(np.array([0]), 3)
    with pytest.raises(ValueError, match="even"):
        rope(np.zeros((1, 2, 3)), rope_table(np.array([0]), 2))


def test_rope_position_length_mismatch_rejected():
    with pytest.raises(ValueError):
        rope(np.zeros((2, 5, 2, 4)), rope_table(np.arange(4), 4))


# -- gated mlp -----------------------------------------------------------------

def test_gated_mlp_zero_input():
    rng = np.random.default_rng(7)
    w = [rng.standard_normal(s).astype(np.float32) for s in ((6, 4), (6, 4), (4, 6))]
    assert not gated_mlp(np.zeros((2, 4)), *w).any()


def test_gated_mlp_scalar_value():
    one = np.ones((1, 1), dtype=np.float32)
    y = float(gated_mlp(one, one, one, one)[0, 0])
    assert abs(y - 1.0 / (1.0 + math.exp(-1.0))) < 1e-6
    assert abs(y - 0.73106) < 1e-5


def test_gated_mlp_matches_unfused_steps():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 4)).astype(np.float32)
    wg = rng.standard_normal((6, 4)).astype(np.float32)
    wu = rng.standard_normal((6, 4)).astype(np.float32)
    wd = rng.standard_normal((4, 6)).astype(np.float32)
    gate = x @ wg.T
    expected = (gate * (1.0 / (1.0 + np.exp(-gate))) * (x @ wu.T)) @ wd.T
    assert np.allclose(gated_mlp(x, wg, wu, wd), expected, atol=1e-6)


def test_gated_mlp_writes_only_its_own_buffers():
    """At the engine's prefill shape the in-place MLP leaves its input and
    weights bytewise unchanged and matches the unfused steps."""
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1024, 256)).astype(np.float32)
    wg, wu = (np.float32(0.02) * rng.standard_normal((512, 256), dtype=np.float32)
              for _ in range(2))
    wd = np.float32(0.02) * rng.standard_normal((256, 512), dtype=np.float32)
    before = [a.tobytes() for a in (x, wg, wu, wd)]
    y = gated_mlp(x, wg, wu, wd)
    assert [a.tobytes() for a in (x, wg, wu, wd)] == before
    expected = linear(_silu_oracle(linear(x, wg)) * linear(x, wu), wd)
    assert np.max(np.abs(y - expected)) <= 1e-6


def _silu_through_gated_mlp(x) -> np.ndarray:
    """SiLU of ``x`` read off a one-unit gated MLP whose gate reads ``x``, whose
    up projection reads a constant-1 column and whose down projection is 1,
    so the output is exactly the MLP's SiLU of ``x``."""
    x = np.asarray(x, dtype=np.float32)
    inputs = np.stack([x, np.ones_like(x)], axis=1)
    w_gate = np.array([[1.0, 0.0]], dtype=np.float32)
    w_up = np.array([[0.0, 1.0]], dtype=np.float32)
    return gated_mlp(inputs, w_gate, w_up, np.ones((1, 1), dtype=np.float32))[:, 0]


def test_silu_extremes_do_not_overflow():
    y = _silu_through_gated_mlp([-1000.0, 0.0, 1000.0])
    assert np.allclose(y, [0.0, 0.0, 1000.0])


def test_silu_matches_oracle_over_float32_range():
    big = np.finfo(np.float32).max
    x = np.concatenate([np.linspace(-100, 100, 400_001, dtype=np.float32),
                        np.array([1e4, -1e4, big, -big, 0.0, -0.0], dtype=np.float32)])
    y = _silu_through_gated_mlp(x)
    assert np.isfinite(y).all()
    assert np.allclose(y, _silu_oracle(x), rtol=1e-5, atol=1e-6)


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
