"""KV-cache policies and size-only memory accounting.

This module is the one statement of the segment policy. It has two rules:

- The prompt is stored once per batch item, shared across beams: one
  [L, BS, N_prompt, H, D] arena for all layers, batch first, allocated
  whole when the run begins.
- The response grows in fixed steps: one [L, N_step, BS*BW, H, D] arena for
  all layers, sequence first, that grows by ``STEP`` rows per layer at a
  time, all layers at once. Growth allocates the larger arena, copies the
  written rows, then frees the old arena.

So a run's ledger logs one prompt alloc, then one alloc and one free per
growth: exactly the events of ``simulate_decode_memory("segment")``. The
closed forms (``segment_cache_bytes``, ``standard_cache_bytes``) give the
final-step bytes, and ``bs_max_under_budget`` inverts them. The standard
baseline rebuilds one contiguous [BS*BW, N_total, H, D] buffer per decode
step via gather (index select) and concat.

The ledger models sizes only, never addresses: fragmentation is
reserved - active bytes. Every byte a cache accounts is read off the buffer
that holds it by ``kv_bytes``: element count times the config's
``dtype_bytes`` (2 for fp16 bookkeeping), even though stored data is float32.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig

STEP = 16  # response-arena growth quantum, rows per layer

# --------------------------------------------------------------------------
# Size formulas
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CacheShapeParams:
    """Runtime request shape for cache sizing."""

    bs: int
    bw: int
    n_prompt: int
    n_response: int

    def __post_init__(self) -> None:
        if min(self.bs, self.n_prompt, self.n_response) < 0:
            raise ValueError("cache shape parameters must be >= 0")
        if self.bw < 1:
            raise ValueError(f"beam width bw must be >= 1, got {self.bw}")


def kv_bytes(config: ModelConfig, *buffers: np.ndarray) -> int:
    """Accounted bytes of cache buffers: element count x ``config.dtype_bytes``."""
    return sum(b.size for b in buffers) * config.dtype_bytes


def cache_token_bytes(config: ModelConfig) -> int:
    """Bytes of cached K+V for one token across all layers: 2*L*H*D*dtype_bytes."""
    return 2 * config.L * config.H * config.D * config.dtype_bytes


def standard_cache_bytes(config: ModelConfig, p: CacheShapeParams) -> int:
    """Contiguous-cache bytes at the last step: BS*BW*(Np+Nr) tokens."""
    return p.bs * p.bw * (p.n_prompt + p.n_response) * cache_token_bytes(config)


def segment_cache_bytes(config: ModelConfig, p: CacheShapeParams) -> int:
    """Segment-cache bytes at the last step.

    The prompt is stored once per batch item (no beam factor); the response
    buffer is rounded up to a whole number of growth steps:
    BS * (Np + BW * ceil(Nr/STEP)*STEP) tokens.
    """
    rounded = -(-p.n_response // STEP) * STEP  # ceil
    return p.bs * (p.n_prompt + p.bw * rounded) * cache_token_bytes(config)


def bs_max_under_budget(config: ModelConfig, policy: str, budget_bytes: int,
                        bw: int, n_prompt: int, n_response: int) -> int:
    """Largest BS whose cache fits the budget (inclusive). Raises when even
    BS=1 does not fit.

    A budget binds the final-step cache bytes of the closed forms above.
    Those equal the final active bytes of ``simulate_decode_memory`` and of
    a run's ledger. They are not the ledger's reserved peak, which also
    counts every block freed on the way (``MemoryLedger`` never reuses one).
    """
    fn = segment_cache_bytes if policy == "segment" else standard_cache_bytes
    per_bs = fn(config, CacheShapeParams(1, bw, n_prompt, n_response))
    if per_bs <= 0:
        raise ValueError("degenerate request shape has no cache footprint")
    if per_bs > budget_bytes:
        raise ValueError(f"budget of {budget_bytes} bytes is too small for batch size 1")
    return budget_bytes // per_bs


# --------------------------------------------------------------------------
# Ledger
# --------------------------------------------------------------------------

class MemoryLedger:
    """Event log of alloc / free with byte-level accounting.

    Freed bytes stay reserved: no later alloc is served from them, so
    ``reserved_bytes`` never falls and is its own peak. A pool of freed
    blocks would never serve an alloc anyway, because every cache
    allocation is strictly larger than every block freed before it: a
    response arena grows by ``STEP`` rows from the one it replaces, a
    standard-cache step reallocates one more row than the last, and the
    prompt arena is never freed. ``reserved_bytes`` is therefore the peak,
    and fragmentation (reserved - active) is the sum of all frees.
    """

    def __init__(self):
        self.events: list[tuple[str, int]] = []
        self.active_bytes = 0
        self.reserved_bytes = 0

    @property
    def fragmentation(self) -> int:
        return self.reserved_bytes - self.active_bytes

    def alloc(self, nbytes: int) -> None:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("cannot allocate a negative size")
        if nbytes == 0:
            return
        self.events.append(("alloc", nbytes))
        self.active_bytes += nbytes
        self.reserved_bytes += nbytes

    def free(self, nbytes: int) -> None:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("cannot free a negative size")
        if nbytes == 0:
            return
        if nbytes > self.active_bytes:
            raise ValueError("freeing more bytes than are active")
        self.events.append(("free", nbytes))
        self.active_bytes -= nbytes


# --------------------------------------------------------------------------
# Cache buffers
# --------------------------------------------------------------------------

def _owned(x) -> np.ndarray:
    """``x`` as float32 in a buffer of its own: a view (such as V, a slice of
    the fused q/k/v projection) is copied so the cache does not keep the
    larger array it views alive."""
    a = np.asarray(x, dtype=np.float32)
    return a if a.flags.owndata else a.copy()


class PromptKV:
    """Prompt K/V of all layers in one arena, [L, BS, N_prompt, H, D], batch
    first and shared by every beam.

    The arena is allocated whole, one ledger alloc, when the run begins.
    Each layer's slice is written once at prefill and immutable afterwards.
    """

    def __init__(self, config: ModelConfig, bs: int, n_prompt: int, ledger: MemoryLedger):
        self.config = config
        self._stored = [False] * config.L
        self._k = np.zeros((config.L, bs, n_prompt, config.H, config.D), dtype=np.float32)
        self._v = np.zeros_like(self._k)
        ledger.alloc(kv_bytes(config, self._k, self._v))

    def total_bytes(self) -> int:
        return kv_bytes(self.config, self._k, self._v)

    def store(self, layer: int, k, v) -> None:
        if self._stored[layer]:
            raise ValueError("prompt KV is write-once")
        k, v = np.asarray(k), np.asarray(v)
        expect = self._k.shape[1:]
        if k.shape != expect or v.shape != expect:
            raise ValueError(f"prompt K/V must be batch-first {expect}, got {k.shape} / {v.shape}")
        self._k[layer] = k
        self._v[layer] = v
        self._stored[layer] = True

    def layer(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        if not self._stored[i]:
            raise ValueError(f"prompt KV for layer {i} not populated")
        return self._k[i], self._v[i]


class ResponseKV:
    """Response K/V of all layers in one arena, [L, N_step, BS*BW, H, D].

    Each layer's rows [0, length(layer)) hold written data; the rest of the
    shared capacity is reserved. All layers append in lockstep, so the
    append that finds its layer full grows every layer by ``STEP`` rows at
    once: one alloc of the larger arena, one copy, one free of the old one.
    """

    def __init__(self, config: ModelConfig, bs: int, bw: int, ledger: MemoryLedger):
        self.config = config
        self.bs = bs
        self.bw = bw
        self.ledger = ledger
        self._capacity = 0
        self._length = [0] * config.L
        self._k = np.zeros((config.L, 0, self.rows, config.H, config.D), dtype=np.float32)
        self._v = np.zeros_like(self._k)

    @property
    def rows(self) -> int:
        return self.bs * self.bw

    def length(self, layer: int) -> int:
        return self._length[layer]

    def capacity(self, layer: int) -> int:
        """Rows reserved per layer; the same for every layer."""
        return self._capacity

    def total_bytes(self) -> int:
        return kv_bytes(self.config, self._k, self._v)

    def _as_row(self, x, name: str) -> np.ndarray:
        c = self.config
        a = np.asarray(x, dtype=np.float32)
        if a.shape != (1, self.rows, c.H, c.D):
            raise ValueError(f"{name} must have shape (1, {self.rows}, {c.H}, {c.D}), got {a.shape}")
        return a[0]

    def append(self, layer: int, k_t, v_t) -> None:
        k_row = self._as_row(k_t, "k_t")
        v_row = self._as_row(v_t, "v_t")

        if self._length[layer] == self._capacity:
            c = self.config
            old_cap, new_cap = self._capacity, self._capacity + STEP
            new_k = np.zeros((c.L, new_cap, self.rows, c.H, c.D), dtype=np.float32)
            new_v = np.zeros_like(new_k)
            new_k[:, :old_cap] = self._k
            new_v[:, :old_cap] = self._v
            self.ledger.alloc(kv_bytes(c, new_k, new_v))
            self.ledger.free(kv_bytes(c, self._k, self._v))  # a no-op at the first growth
            self._k, self._v, self._capacity = new_k, new_v, new_cap

        row = self._length[layer]
        self._k[layer, row] = k_row
        self._v[layer, row] = v_row
        self._length[layer] = row + 1

    def valid(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the written rows [0, length) of one layer's K and V."""
        n = self._length[layer]
        return self._k[layer, :n], self._v[layer, :n]


class StandardKV:
    """Per-layer contiguous K/V, [BS*BW, N_total, H, D] batch first.

    Each decode step gathers the past rows by beam order (index select),
    concatenates the new row, and stores the result in a freshly allocated
    buffer; the old buffer is freed. ``counters`` (an ``OpCounters``) counts
    the index selects and concats.
    """

    def __init__(self, config: ModelConfig, bs: int, bw: int, ledger: MemoryLedger, counters):
        self.config = config
        self.bs = bs
        self.bw = bw
        self.ledger = ledger
        self.counters = counters
        self._k: list[np.ndarray | None] = [None] * config.L
        self._v: list[np.ndarray | None] = [None] * config.L

    @property
    def rows(self) -> int:
        return self.bs * self.bw

    def total_bytes(self) -> int:
        return kv_bytes(self.config, *(a for a in self._k + self._v if a is not None))

    def store_prompt(self, layer: int, k, v) -> None:
        c = self.config
        k, v = _owned(k), _owned(v)
        expect = (self.rows, k.shape[1], c.H, c.D)
        if k.shape != expect or v.shape != expect:
            raise ValueError(f"prompt rows must be [BS*BW, N, H, D], got {k.shape} / {v.shape}")
        if self._k[layer] is not None:
            raise ValueError("prompt already stored for this layer")
        self._k[layer] = k
        self._v[layer] = v
        self.ledger.alloc(kv_bytes(c, k, v))

    def step(self, layer: int, k_t, v_t, beam_reorder) -> tuple[np.ndarray, np.ndarray]:
        """Gather past rows by ``beam_reorder`` (global row indices in
        [0, BS*BW)), concat the new K_t/V_t, and swap in the new buffer.
        Returns the new (K, V)."""
        rows = self.rows
        k_row = self._one_step_rows(k_t, "k_t")
        v_row = self._one_step_rows(v_t, "v_t")
        reorder = np.asarray(beam_reorder)
        if reorder.shape != (rows,):
            raise ValueError(f"beam_reorder must have shape ({rows},), got {reorder.shape}")
        if reorder.size and (reorder.min() < 0 or reorder.max() >= rows):
            raise ValueError("beam_reorder index out of range")

        old_k, old_v = self._k[layer], self._v[layer]
        if old_k is None:
            raise ValueError("prompt rows must be stored before stepping")

        gathered_k = old_k[reorder]  # index select on the batch*beam axis
        gathered_v = old_v[reorder]
        self.counters.index_select_ops += 2
        new_k = np.concatenate([gathered_k, k_row], axis=1)
        new_v = np.concatenate([gathered_v, v_row], axis=1)
        self.counters.cat_ops += 2

        self.ledger.alloc(kv_bytes(self.config, new_k, new_v))
        self.ledger.free(kv_bytes(self.config, old_k, old_v))
        self._k[layer] = new_k
        self._v[layer] = new_v
        return new_k, new_v

    def _one_step_rows(self, x, name: str) -> np.ndarray:
        c = self.config
        a = np.asarray(x, dtype=np.float32)
        if a.shape != (self.rows, 1, c.H, c.D):
            raise ValueError(
                f"{name} must have shape ({self.rows}, 1, {c.H}, {c.D}), got {a.shape}"
            )
        return a

    def layer(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        k, v = self._k[i], self._v[i]
        if k is None or v is None:
            raise ValueError(f"cache for layer {i} not populated")
        return k, v


# --------------------------------------------------------------------------
# Decode-phase allocation simulator
# --------------------------------------------------------------------------

def simulate_decode_memory(policy: str, config: ModelConfig,
                           p: CacheShapeParams) -> MemoryLedger:
    """Replay the decode-phase allocation trace of one policy, sizes only,
    and return the ledger that logged it.

    Segment: the all-layer prompt arena is part of the decode-phase live
    set, so the trace opens with it; the all-layer response arena then grows
    ``STEP`` rows at a time (alloc new, free old). Standard: the trace holds
    only the per-step reallocation of the contiguous buffer; the
    prefill-phase buffer it replaces at step 1 lives outside the decode
    trace.
    """
    if policy not in ("standard", "segment"):
        raise ValueError(f"policy must be 'standard' or 'segment', got {policy!r}")
    ledger = MemoryLedger()
    tok = cache_token_bytes(config)

    if policy == "segment":
        ledger.alloc(p.bs * p.n_prompt * tok)
        cap = 0
        for t in range(1, p.n_response + 1):
            if t > cap:
                new_cap = cap + STEP
                ledger.alloc(p.bs * p.bw * new_cap * tok)
                if cap:
                    ledger.free(p.bs * p.bw * cap * tok)
                cap = new_cap
    else:
        prev = 0
        for t in range(1, p.n_response + 1):
            size = p.bs * p.bw * (p.n_prompt + t) * tok
            ledger.alloc(size)
            if prev:
                ledger.free(prev)
            prev = size

    return ledger


def memsim_row(config: ModelConfig, model: str, p: CacheShapeParams) -> dict:
    """One memory-table row; byte fields are canonical, GB fields are display."""
    std = standard_cache_bytes(config, p)
    seg = segment_cache_bytes(config, p)
    return {
        "model": model,
        "BS": p.bs,
        "BW": p.bw,
        "N_prompt": p.n_prompt,
        "N_response": p.n_response,
        "dtype_bytes": config.dtype_bytes,
        "standard_bytes": std,
        "segment_bytes": seg,
        "ratio": (seg / std) if std else 0.0,
        "saving_bytes": std - seg,
    }


MEMSIM_COLUMNS = ("model", "BS", "BW", "N_prompt", "N_response", "dtype_bytes",
                  "standard_bytes", "segment_bytes", "ratio", "saving_bytes")
