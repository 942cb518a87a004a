import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seglm import beam
from seglm.beam import BeamSearchState, beam_step, build_gather_indices


def forward_ancestry_oracle(parents: list[np.ndarray], upto: int) -> np.ndarray:
    """Rebuild each beam's full ancestry as explicit path lists, forwards."""
    bs, bw = parents[0].shape
    # paths[b][w] = list of slots the current slot-w hypothesis occupied at
    # each past step, maintained by explicit copy/reorder every step
    paths = [[[w] for w in range(bw)] for _ in range(bs)]
    for t in range(1, upto):
        p = parents[t]
        for b in range(bs):
            paths[b] = [paths[b][p[b, w]] + [w] for w in range(bw)]
    out = np.zeros((bs, bw, upto), dtype=np.int64)
    for b in range(bs):
        for w in range(bw):
            out[b, w] = paths[b][w]
    return out


def per_item_beam_step(log_probs, state: BeamSearchState):
    """The per-item selection loop: one stable argsort of all BW*V candidates
    per batch item. Updates cum_log_probs and min_top_gap, not the history."""
    lp = np.asarray(log_probs, dtype=np.float64)
    bs, bw = state.bs, state.bw
    vocab = lp.shape[1]
    tokens = np.zeros((bs, bw), dtype=np.int64)
    parents = np.zeros((bs, bw), dtype=np.int64)
    for b in range(bs):
        flat = (state.cum_log_probs[b][:, None] + lp[b * bw:(b + 1) * bw]).ravel()
        order = np.argsort(-flat, kind="stable")
        top = order[:bw]
        ranked = flat[order[:bw + 1]] if flat.size > bw else flat[top]
        finite = ranked[np.isfinite(ranked)]
        if finite.size >= 2:
            state.min_top_gap = min(state.min_top_gap, float(np.min(finite[:-1] - finite[1:])))
        parents[b] = top // vocab
        tokens[b] = top % vocab
        state.cum_log_probs[b] = flat[top]
    return tokens, parents


def test_beam_step_bw1_is_argmax():
    state = BeamSearchState(bs=2, bw=1)
    lp = np.log(np.array([[0.1, 0.7, 0.2], [0.5, 0.25, 0.25]]))
    tokens, parents = beam_step(lp, state)
    assert tokens.ravel().tolist() == [1, 0]
    assert parents.ravel().tolist() == [0, 0]


def test_beam_step_two_beam_derived_case():
    # cum = [0, -0.1]; brute force over all 6 candidates picks
    # -0.1 (w0, v0) then -0.15 (w1, v0)
    state = BeamSearchState(bs=1, bw=2)
    state.cum_log_probs[:] = np.array([[0.0, -0.1]])
    lp = np.array([[-0.1, -2.0, -2.0], [-0.05, -2.0, -2.0]])
    cands = sorted(
        ((state.cum_log_probs[0, w] + lp[w, v], w, v) for w in range(2) for v in range(3)),
        key=lambda c: (-c[0], c[1], c[2]))
    tokens, parents = beam_step(lp, state)
    assert parents.ravel().tolist() == [c[1] for c in cands[:2]] == [0, 1]
    assert tokens.ravel().tolist() == [c[2] for c in cands[:2]] == [0, 0]
    assert np.allclose(state.cum_log_probs, [[-0.1, -0.15]])


def test_first_step_draws_only_from_beam_zero():
    state = BeamSearchState(bs=2, bw=3)
    rng = np.random.default_rng(0)
    lp = rng.standard_normal((6, 8))
    lp = lp - np.log(np.exp(lp).sum(axis=1, keepdims=True))
    _, parents = beam_step(lp, state)
    assert (parents == 0).all()


def test_vocab_smaller_than_beam_width_rejected():
    state = BeamSearchState(bs=1, bw=4)
    with pytest.raises(ValueError):
        beam_step(np.zeros((4, 3)), state)


def test_all_equal_log_probs_tie_break_is_lexicographic():
    state = BeamSearchState(bs=1, bw=3)
    state.cum_log_probs[:] = 0.0  # every slot live, as after the first step
    tokens, parents = beam_step(np.zeros((3, 5)), state)
    # scores all equal: stable order picks flat indices 0, 1, 2 = (w0,v0..v2)
    assert parents.ravel().tolist() == [0, 0, 0]
    assert tokens.ravel().tolist() == [0, 1, 2]


def test_cum_log_probs_nonincreasing():
    state = BeamSearchState(bs=1, bw=2)
    rng = np.random.default_rng(1)
    prev = state.cum_log_probs.copy()
    for _ in range(10):
        lp = rng.standard_normal((2, 6))
        lp = lp - np.log(np.exp(lp).sum(axis=1, keepdims=True))
        beam_step(lp, state)
        finite = np.isfinite(prev)
        assert (state.cum_log_probs.max() <= prev[finite].max() + 1e-12)
        prev = state.cum_log_probs.copy()


def _log_probs(rng, rows, vocab, case):
    x = rng.standard_normal((rows, vocab))
    if case == "identical-rows":
        x[:] = x[0]
    lp = x - np.log(np.exp(x).sum(axis=1, keepdims=True))
    return np.round(lp) if case in ("rounded", "identical-rows") else lp


@pytest.mark.parametrize("bw", [1, 4, 8])
def test_batched_selection_matches_per_item_loop(bw, monkeypatch):
    """Bit-equal to the per-item loop from the first step (slots 1.. at -inf)
    on, with exact ties from rounding, identical rows and vocab == BW."""
    fallbacks = []

    def counting_stable_order(flat):
        fallbacks.append(flat.size)
        return np.argsort(-flat, kind="stable")

    monkeypatch.setattr(beam, "_stable_order", counting_stable_order)
    rng = np.random.default_rng(bw)
    bs = 3
    for case in ("random", "rounded", "identical-rows", "vocab-eq-bw"):
        vocab = bw if case == "vocab-eq-bw" else 24
        batched, oracle = BeamSearchState(bs, bw), BeamSearchState(bs, bw)
        for _ in range(10):
            lp = _log_probs(rng, bs * bw, vocab, case)
            tokens, parents = beam_step(lp, batched)
            want_tokens, want_parents = per_item_beam_step(lp, oracle)
            assert np.array_equal(tokens, want_tokens), case
            assert np.array_equal(parents, want_parents), case
            assert batched.cum_log_probs.tobytes() == oracle.cum_log_probs.tobytes(), case
            assert batched.min_top_gap == oracle.min_top_gap, case
    assert fallbacks  # ties across the top-(BW+1) cut took the stable path


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_log_probs_rejected(bad):
    state = BeamSearchState(bs=2, bw=2)
    lp = np.full((4, 5), np.log(0.2))
    lp[3, 1] = bad
    with pytest.raises(ValueError, match="row 3"):
        beam_step(lp, state)
    assert state.tokens_history == []


def test_minus_inf_log_probs_allowed():
    state = BeamSearchState(bs=1, bw=2)
    lp = np.log(np.array([[0.5, 0.5, 1.0], [0.2, 0.8, 1.0]]))
    lp[:, 2] = -np.inf  # a token of probability 0
    tokens, _ = beam_step(lp, state)
    assert tokens.ravel().tolist() == [0, 1]


# -- gather indices --------------------------------------------------------------

@pytest.mark.parametrize("bs, bw, steps", [(4, 1, 160), (2, 4, 48), (4, 8, 64), (3, 5, 17)])
def test_grown_gather_tensor_equals_backtrack(bs, bw, steps):
    """The tensor grown one column per selection equals the full backtrack
    of the same history at every step."""
    rng = np.random.default_rng(bs * 100 + bw)
    state = BeamSearchState(bs, bw)
    for t in range(1, steps + 1):
        state.record(rng.integers(0, 50, size=(bs, bw)), rng.integers(0, bw, size=(bs, bw)))
        assert np.array_equal(state.gather_indices,
                              build_gather_indices(state.parents_history, t))


def test_identity_parents_give_identity_indices():
    parents = [np.tile(np.arange(3), (2, 1)) for _ in range(5)]
    idx = build_gather_indices(parents, 5)
    for t in range(5):
        assert np.array_equal(idx[:, :, t], parents[0])


def test_surviving_path_through_slot_three():
    # slot 1's ancestry passes through slot 3 at response step 0
    p0 = np.zeros((1, 4), dtype=np.int64)
    p1 = np.array([[0, 3, 2, 1]])
    idx = build_gather_indices([p0, p1], 2)
    assert idx[0, 1, 0] == 3
    assert idx[0, 1, 1] == 1  # newest column is the identity


def test_last_column_is_identity():
    rng = np.random.default_rng(2)
    parents = [rng.integers(0, 4, size=(2, 4)) for _ in range(6)]
    idx = build_gather_indices(parents, 6)
    assert np.array_equal(idx[:, :, -1], np.tile(np.arange(4), (2, 1)))


def test_matches_forward_reconstruction_oracle():
    rng = np.random.default_rng(3)
    parents = [rng.integers(0, 4, size=(1, 4)) for _ in range(6)]
    idx = build_gather_indices(parents, 6)
    assert np.array_equal(idx, forward_ancestry_oracle(parents, 6))


@settings(max_examples=50, deadline=None)
@given(bs=st.integers(1, 3), bw=st.integers(1, 5), steps=st.integers(1, 10),
       seed=st.integers(0, 2 ** 31 - 1))
def test_gather_indices_property_vs_oracle(bs, bw, steps, seed):
    rng = np.random.default_rng(seed)
    parents = [rng.integers(0, bw, size=(bs, bw)) for _ in range(steps)]
    idx = build_gather_indices(parents, steps)
    assert np.array_equal(idx, forward_ancestry_oracle(parents, steps))
    # every column maps [0, bw) into [0, bw)
    assert idx.min() >= 0 and idx.max() < bw


@settings(max_examples=50, deadline=None)
@given(bs=st.integers(1, 2), bw=st.integers(1, 4), steps=st.integers(1, 8),
       seed=st.integers(0, 2 ** 31 - 1))
def test_token_gather_round_trip(bs, bw, steps, seed):
    """Gathering slot-major tokens through the indices equals the sequences
    built by explicitly copying/reordering beams each step."""
    rng = np.random.default_rng(seed)
    parents = [rng.integers(0, bw, size=(bs, bw)) for _ in range(steps)]
    parents[0][:] = 0
    tokens = [rng.integers(0, 100, size=(bs, bw)) for _ in range(steps)]

    seqs = [[[] for _ in range(bw)] for _ in range(bs)]
    for t in range(steps):
        for b in range(bs):
            seqs[b] = [seqs[b][parents[t][b, w]] + [int(tokens[t][b, w])] for w in range(bw)]

    idx = build_gather_indices(parents, steps)
    stacked = np.stack(tokens, axis=2)
    gathered = np.take_along_axis(stacked, idx, axis=1)
    for b in range(bs):
        for w in range(bw):
            assert gathered[b, w].tolist() == seqs[b][w]


def test_mid_run_backtrack_uses_prefix_of_history():
    """Rebuilding at step t reads only parents[0:t], as the decode loop does."""
    rng = np.random.default_rng(4)
    parents = [rng.integers(0, 3, size=(1, 3)) for _ in range(5)]
    partial = build_gather_indices(parents[:3], 3)
    assert np.array_equal(partial, forward_ancestry_oracle(parents[:3], 3))
    full = build_gather_indices(parents, 5)
    assert full.shape == (1, 3, 5)


def test_out_of_range_parents_rejected():
    with pytest.raises(ValueError):
        build_gather_indices([np.array([[0, 5]])], 1)


def test_too_few_parent_records_rejected():
    with pytest.raises(ValueError):
        build_gather_indices([np.zeros((1, 2), dtype=int)], 2)


@pytest.mark.parametrize("records", [
    [np.zeros((1, 2), dtype=int), np.zeros((1, 3), dtype=int)],
    [np.zeros((2, 2), dtype=int), np.zeros((1, 2), dtype=int)],
    [np.zeros(2, dtype=int)],
], ids=["wider-later", "fewer-items-later", "one-dimensional"])
def test_wrong_shaped_parent_record_rejected(records):
    with pytest.raises(ValueError, match="shape"):
        build_gather_indices(records, len(records))
