"""Beam search state, per-step top-BW selection, and parent backtracking.

The gather-indices tensor maps (final beam slot, response step) to the cache
slot holding that step's K/V on the beam's surviving ancestry path. Column
t-1 is the identity (the newest row is read at the beam's own slot); earlier
columns follow the recorded parents backwards.
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


def beam_step(log_probs, state: BeamSearchState):
    """Select the top-BW continuations per batch item.

    ``log_probs`` is [BS*BW, V] of log-softmax outputs. Candidates are
    cum_log_probs[w] + log_probs[w, v]; ties break toward the smaller (w, v)
    pair. Returns (tokens, parents), each [BS, BW], and appends them to the
    state.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    bs, bw = state.bs, state.bw
    if lp.ndim != 2 or lp.shape[0] != bs * bw:
        raise ValueError(f"expected log-probs of shape ({bs * bw}, V), got {lp.shape}")
    vocab = lp.shape[1]
    if vocab < bw:
        raise ValueError(f"vocabulary of {vocab} cannot fill {bw} beams")

    tokens = np.zeros((bs, bw), dtype=np.int64)
    parents = np.zeros((bs, bw), dtype=np.int64)
    for b in range(bs):
        flat = (state.cum_log_probs[b][:, None] + lp[b * bw:(b + 1) * bw]).ravel()
        order = np.argsort(-flat, kind="stable")
        top = order[:bw]
        ranked = flat[order[:bw + 1]] if flat.size > bw else flat[top]
        finite = ranked[np.isfinite(ranked)]  # gaps against -inf candidates are infinite
        if finite.size >= 2:
            state.min_top_gap = min(state.min_top_gap, float(np.min(finite[:-1] - finite[1:])))
        parents[b] = top // vocab
        tokens[b] = top % vocab
        state.cum_log_probs[b] = flat[top]

    state.tokens_history.append(tokens)
    state.parents_history.append(parents)
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
    bs, bw = parents[0].shape
    out = np.zeros((bs, bw, upto_step), dtype=np.int64)
    cursor = np.broadcast_to(np.arange(bw, dtype=np.int64), (bs, bw)).copy()
    for t in range(upto_step - 1, -1, -1):
        out[:, :, t] = cursor
        p = np.asarray(parents[t])
        if p.shape != (bs, bw):
            raise ValueError(f"parents[{t}] has shape {p.shape}, expected {(bs, bw)}")
        if p.size and (p.min() < 0 or p.max() >= bw):
            raise ValueError(f"parents[{t}] contains out-of-range slots")
        cursor = np.take_along_axis(p, cursor, axis=1)
    return out
