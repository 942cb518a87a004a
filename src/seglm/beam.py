"""Beam search state, per-step top-BW selection, and parent backtracking.

The gather-indices tensor maps (final beam slot, response step) to the cache
slot holding that step's K/V on the beam's surviving ancestry path. Column
t-1 is the identity (the newest row is read at the beam's own slot); earlier
columns follow the recorded parents backwards. ``BeamSearchState`` grows it
by one column per selection; ``build_gather_indices`` rebuilds it from the
whole parent history.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

# Alias for readability: per batch item a [BW, N_response] matrix of slots.
BeamIndices = np.ndarray


class BeamSearchState:
    """Cumulative scores plus per-step token / parent history.

    At the first selection the prompt is replicated across beams, so slots
    1..BW-1 start at -inf and the initial top-BW draws from slot 0 only.
    ``min_top_gap`` tracks the smallest score gap among the sorted top BW+1
    candidates at any selection, used to detect near-ties.
    ``gather_indices`` is the [BS, BW, t] gather tensor after t selections,
    equal to ``build_gather_indices(parents_history, t)``.
    """

    def __init__(self, bs: int, bw: int):
        if bs < 1 or bw < 1:
            raise ValueError("batch size and beam width must be >= 1")
        self.bs = bs
        self.bw = bw
        self.cum_log_probs = np.zeros((bs, bw), dtype=np.float64)
        self.cum_log_probs[:, 1:] = -np.inf
        self.tokens_history: list[np.ndarray] = []
        self.parents_history: list[np.ndarray] = []
        self.min_top_gap = np.inf
        self.gather_indices = np.empty((bs, bw, 0), dtype=np.int64)

    def record(self, tokens: np.ndarray, parents: np.ndarray) -> None:
        """Append one selection's [BS, BW] tokens and parents, and grow the
        gather tensor by one column: new slot w takes the ancestry row of its
        parent, then reads the newest step at its own slot."""
        self.tokens_history.append(tokens)
        self.parents_history.append(parents)
        prev = self.gather_indices
        grown = np.empty(prev.shape[:2] + (prev.shape[2] + 1,), dtype=np.int64)
        grown[:, :, :-1] = prev[np.arange(self.bs)[:, None], parents]
        grown[:, :, -1] = np.arange(self.bw)
        self.gather_indices = grown


def _stable_order(flat: np.ndarray) -> np.ndarray:
    """Candidate indices of one item, best score first, ties toward the
    smaller index."""
    return np.argsort(-flat, kind="stable")


def _top_order(flat: np.ndarray, k: int) -> np.ndarray:
    """The first k of ``_stable_order`` for every row of [BS, n] scores.

    argpartition finds the k best of each row and one lexsort orders them by
    (score descending, index ascending). That set is only the stable one if
    the cut value is not tied with a candidate outside it; such rows take
    ``_stable_order`` instead.
    """
    cand = np.argpartition(-flat, k - 1, axis=1)[:, :k]
    score = np.take_along_axis(flat, cand, axis=1)
    order = np.take_along_axis(cand, np.lexsort((cand, -score), axis=1), axis=1)
    tied = np.count_nonzero(flat >= score.min(axis=1, keepdims=True), axis=1) > k
    for b in np.flatnonzero(tied):
        order[b] = _stable_order(flat[b])[:k]
    return order


def beam_step(log_probs, state: BeamSearchState):
    """Select the top-BW continuations of every batch item at once.

    ``log_probs`` is [BS*BW, V] of log-softmax outputs; -inf is allowed, NaN
    and +inf are rejected. Candidates are cum_log_probs[w] + log_probs[w, v];
    ties break toward the smaller (w, v) pair. Returns (tokens, parents),
    each [BS, BW], and records them on the state.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    bs, bw = state.bs, state.bw
    if lp.ndim != 2 or lp.shape[0] != bs * bw:
        raise ValueError(f"expected log-probs of shape ({bs * bw}, V), got {lp.shape}")
    vocab = lp.shape[1]
    if vocab < bw:
        raise ValueError(f"vocabulary of {vocab} cannot fill {bw} beams")

    if not lp.max() < np.inf:  # -inf is a legal log-prob; NaN and +inf are not
        row = int(np.argmin((lp < np.inf).all(axis=1)))
        raise ValueError(f"log-probs row {row} holds NaN or +inf")

    flat = (state.cum_log_probs[:, :, None] + lp.reshape(bs, bw, vocab)).reshape(bs, -1)
    order = _top_order(flat, min(bw + 1, flat.shape[1]))
    ranked = np.take_along_axis(flat, order, axis=1)
    if ranked.shape[1] >= 2:
        # -inf candidates rank last and their gaps are infinite, so only
        # pairs whose lower member is finite count
        finite = np.isfinite(ranked[:, 1:])
        gaps = np.subtract(ranked[:, :-1], ranked[:, 1:], where=finite,
                           out=np.full(finite.shape, np.inf))
        state.min_top_gap = min(state.min_top_gap, float(gaps.min()))
    top = order[:, :bw]
    parents = top // vocab
    tokens = top % vocab
    state.cum_log_probs[:] = ranked[:, :bw]
    state.record(tokens, parents)
    return tokens, parents


def build_gather_indices(parents: Sequence[np.ndarray], upto_step: int) -> BeamIndices:
    """Backtrack parent traces into the [BS, BW, upto_step] gather tensor.

    For each final slot w: cursor = w; for t' from upto_step-1 down to 0,
    indices[:, w, t'] = cursor, then cursor = parents[t'][cursor]. The last
    column is therefore the identity and earlier columns follow the
    surviving path.
    """
    if upto_step < 1:
        raise ValueError("upto_step must be >= 1")
    if len(parents) < upto_step:
        raise ValueError(f"need {upto_step} parent records, have {len(parents)}")
    records = parents[:upto_step]
    expected = np.shape(records[0])
    if len(expected) != 2:
        raise ValueError(f"parents[0] has shape {expected}, expected (BS, BW)")
    for t, record in enumerate(records):
        if np.shape(record) != expected:
            raise ValueError(f"parents[{t}] has shape {np.shape(record)}, expected {expected}")
    p = np.stack(records)  # [upto_step, BS, BW]
    bs, bw = expected
    out_of_range = ((p < 0) | (p >= bw)).any(axis=(1, 2))
    if out_of_range.any():
        raise ValueError(f"parents[{int(np.argmax(out_of_range))}] contains out-of-range slots")
    out = np.empty((bs, bw, upto_step), dtype=np.int64)
    rows = np.arange(bs)[:, None]
    cursor = np.broadcast_to(np.arange(bw, dtype=np.int64), (bs, bw))
    for t in range(upto_step - 1, -1, -1):
        out[:, :, t] = cursor
        cursor = p[t][rows, cursor]
    return out
