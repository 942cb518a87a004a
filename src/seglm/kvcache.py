"""KV-cache policies and size-only memory accounting.

This module is the one statement of the segment policy. It has two rules:

- The prompt is stored once per batch item, shared across beams: one
  K and one V arena for all layers, batch first, each (item, head) panel
  contiguous: K keys last, [L, BS, H, D, N_prompt], and V head major,
  [L, BS, H, N_prompt, D]. Callers see [BS, N_prompt, H, D] views.
  Prefill writes each layer exactly once, every item at a time: a split
  request runs each range of items as a request of its own, with a cache
  of its own.
- The response is stored per beam row: one [L, N_response, BS*BW, H, D]
  arena for all layers, sequence first.

A request fixes its response length before the run begins, so both arenas
are allocated whole, at their final size, when it begins. A run's ledger
therefore logs exactly two allocs and no free: the events of
``simulate_decode_memory("segment")``. The arenas are left uninitialized,
since clearing them would cost time inside the request (~1.3 ms on the
wide-beam shape): no row is read before it is written, as
``PromptKV.layer`` refuses a layer not stored and ``ResponseKV.valid``
returns only the rows appended. The closed forms
(``segment_cache_bytes``, ``standard_cache_bytes``) give the final-step
bytes, and ``bs_max_under_budget`` inverts them. The standard baseline
rebuilds one contiguous [BS*BW, N_total, H, D] buffer per decode step via
gather (index select) and concat.

The ledger models sizes only, never addresses: fragmentation is
reserved - active bytes. Every byte a cache accounts is read off the buffer
that holds it by ``kv_bytes``: element count times ``DTYPE_BYTES``, the fp16
width the paper counts its saving in, even though stored data is float32.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig

DTYPE_BYTES = 2  # accounted bytes per cached element: fp16, though buffers hold float32

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


def kv_bytes(*buffers: np.ndarray) -> int:
    """Accounted bytes of cache buffers: element count x ``DTYPE_BYTES``."""
    return sum(b.size for b in buffers) * DTYPE_BYTES


def cache_token_bytes(config: ModelConfig) -> int:
    """Bytes of cached K+V for one token across all layers: 2*L*H*D*DTYPE_BYTES."""
    return 2 * config.L * config.H * config.D * DTYPE_BYTES


def standard_cache_bytes(config: ModelConfig, p: CacheShapeParams) -> int:
    """Contiguous-cache bytes at the last step: BS*BW*(Np+Nr) tokens."""
    return p.bs * p.bw * (p.n_prompt + p.n_response) * cache_token_bytes(config)


def segment_cache_bytes(config: ModelConfig, p: CacheShapeParams) -> int:
    """Segment-cache bytes: the prompt once per batch item (no beam factor)
    and the response once per beam row, BS * (Np + BW*Nr) tokens."""
    return p.bs * (p.n_prompt + p.bw * p.n_response) * cache_token_bytes(config)


def _check_policy(policy: str) -> None:
    if policy not in ("standard", "segment"):
        raise ValueError(f"policy must be 'standard' or 'segment', got {policy!r}")


def bs_max_under_budget(config: ModelConfig, policy: str, budget_bytes: int,
                        bw: int, n_prompt: int, n_response: int) -> int:
    """Largest BS whose cache fits the budget (inclusive); 0 when even BS=1
    does not fit.

    A budget binds the final-step cache bytes of the closed forms above.
    Those equal the final active bytes of ``simulate_decode_memory`` and of
    a run's ledger. For the segment policy they are also its reserved peak,
    as it frees nothing; the standard policy's reserved peak also counts
    every buffer it freed on the way (``MemoryLedger`` never reuses one).
    """
    _check_policy(policy)
    fn = segment_cache_bytes if policy == "segment" else standard_cache_bytes
    per_bs = fn(config, CacheShapeParams(1, bw, n_prompt, n_response))
    if per_bs <= 0:
        raise ValueError("degenerate request shape has no cache footprint")
    return max(budget_bytes // per_bs, 0)


# --------------------------------------------------------------------------
# Ledger
# --------------------------------------------------------------------------

class MemoryLedger:
    """Event log of alloc / free with byte-level accounting.

    Freed bytes stay reserved: no later alloc is served from them, so
    ``reserved_bytes`` never falls and is its own peak. A pool of freed
    blocks would never serve an alloc anyway: the segment caches free
    nothing, and each standard-cache step reallocates one more row than the
    buffer it frees. Fragmentation (reserved - active) is the sum of all
    frees.
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

def _shaped(x, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``x`` as float32, or a ValueError naming ``name`` if it is not ``shape``."""
    a = np.asarray(x, dtype=np.float32)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {tuple(map(int, shape))}, got {a.shape}")
    return a


def _owned(x) -> np.ndarray:
    """``x`` as float32 in a buffer of its own: a view (such as V, a slice of
    the fused q/k/v projection) is copied so the cache does not keep the
    larger array it views alive."""
    a = np.asarray(x, dtype=np.float32)
    return a if a.flags.owndata else a.copy()


class PromptKV:
    """Prompt K/V of all layers, batch first and shared by every beam, in one
    K arena [L, BS, H, D, N_prompt] (keys last) and one V arena
    [L, BS, H, N_prompt, D] (head major).

    The memory order is the decode kernel's: a prompt tile's scores are one
    [BW, D] x [D, tile] product and its weighted sum one [BW, tile] x
    [tile, D] product per item and head, so each (item, head) panel of K^T
    and of V is contiguous rather than N_prompt rows at a stride of H*D
    elements. ``store`` takes batch-first [BS, N_prompt, H, D] K/V and its
    one copy into the arena is the layout conversion; ``layer`` returns
    [BS, N_prompt, H, D] views of the arena, transposed back without a copy.

    Both arenas are allocated whole, one ledger alloc, when the run begins.
    Each layer's slice is written once at prefill and immutable afterwards;
    ``layer(i)`` refuses a layer that is not stored.
    """

    def __init__(self, config: ModelConfig, bs: int, n_prompt: int, ledger: MemoryLedger):
        self._stored = [False] * config.L
        self._k = np.empty((config.L, bs, config.H, config.D, n_prompt), dtype=np.float32)
        self._v = np.empty((config.L, bs, config.H, n_prompt, config.D), dtype=np.float32)
        ledger.alloc(kv_bytes(self._k, self._v))

    def total_bytes(self) -> int:
        return kv_bytes(self._k, self._v)

    def store(self, layer: int, k, v) -> None:
        """Write layer ``layer``'s batch-first [BS, N_prompt, H, D] K/V."""
        if self._stored[layer]:
            raise ValueError(f"prompt KV is write-once: layer {layer} is already stored")
        k, v = np.asarray(k), np.asarray(v)
        bs, h, n_prompt, d = self._v.shape[1:]
        expect = (bs, n_prompt, h, d)
        if k.shape != expect or v.shape != expect:
            raise ValueError(f"prompt K/V must be batch-first {expect}, got {k.shape} / {v.shape}")
        self._k[layer] = k.transpose(0, 2, 3, 1)
        self._v[layer] = v.transpose(0, 2, 1, 3)
        self._stored[layer] = True

    def layer(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of one layer's K and V as [BS, N_prompt, H, D]."""
        if not self._stored[i]:
            raise ValueError(f"prompt KV for layer {i} not populated")
        return self._k[i].transpose(0, 3, 1, 2), self._v[i].transpose(0, 2, 1, 3)


class ResponseKV:
    """Response K/V of all layers in one arena, [L, N_response, BS*BW, H, D],
    sequence first.

    The arena is allocated at its final size, one ledger alloc, when the run
    begins. Each layer's rows [0, n) hold its n appended steps; appending to
    a full layer raises.
    """

    def __init__(self, config: ModelConfig, bs: int, bw: int, n_response: int,
                 ledger: MemoryLedger):
        self.config = config
        self.rows = bs * bw
        self._length = [0] * config.L
        self._k = np.empty((config.L, n_response, self.rows, config.H, config.D),
                           dtype=np.float32)
        self._v = np.empty_like(self._k)
        ledger.alloc(kv_bytes(self._k, self._v))

    def capacity(self, layer: int) -> int:
        """Rows reserved per layer; the same for every layer."""
        return self._k.shape[1]

    def total_bytes(self) -> int:
        return kv_bytes(self._k, self._v)

    def append(self, layer: int, k_t, v_t) -> None:
        c = self.config
        shape = (1, self.rows, c.H, c.D)
        k_row, v_row = _shaped(k_t, shape, "k_t")[0], _shaped(v_t, shape, "v_t")[0]
        row = self._length[layer]
        if row == self.capacity(layer):
            raise ValueError(f"response arena of layer {layer} is full at {row} rows")
        self._k[layer, row] = k_row
        self._v[layer, row] = v_row
        self._length[layer] = row + 1

    def valid(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the written rows [0, n) of one layer's K and V."""
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
        return kv_bytes(*(a for a in self._k + self._v if a is not None))

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
        self.ledger.alloc(kv_bytes(k, v))

    def step(self, layer: int, k_t, v_t, beam_reorder) -> tuple[np.ndarray, np.ndarray]:
        """Gather past rows by ``beam_reorder`` (global row indices in
        [0, BS*BW)), concat the new K_t/V_t, and swap in the new buffer.
        Returns the new (K, V)."""
        c, rows = self.config, self.rows
        shape = (rows, 1, c.H, c.D)
        k_row, v_row = _shaped(k_t, shape, "k_t"), _shaped(v_t, shape, "v_t")
        reorder = np.asarray(beam_reorder)
        if reorder.shape != (rows,):
            raise ValueError(f"beam_reorder must have shape ({rows},), got {reorder.shape}")
        if reorder.dtype.kind not in "iu":
            raise ValueError(f"beam_reorder must hold integer rows, got dtype {reorder.dtype}")
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

        self.ledger.alloc(kv_bytes(new_k, new_v))
        self.ledger.free(kv_bytes(old_k, old_v))
        self._k[layer] = new_k
        self._v[layer] = new_v
        return new_k, new_v


# --------------------------------------------------------------------------
# Decode-phase allocation simulator
# --------------------------------------------------------------------------

def simulate_decode_memory(policy: str, config: ModelConfig,
                           p: CacheShapeParams) -> MemoryLedger:
    """Replay the decode-phase allocation trace of one policy, sizes only,
    and return the ledger that logged it.

    Segment: the two all-layer arenas, prompt then response, each
    allocated once at its final size. Standard: the trace holds only the
    per-step reallocation of the contiguous buffer; the prefill-phase buffer
    it replaces at step 1 lives outside the decode trace.
    """
    _check_policy(policy)
    ledger = MemoryLedger()
    tok = cache_token_bytes(config)

    if policy == "segment":
        ledger.alloc(p.bs * p.n_prompt * tok)
        ledger.alloc(p.bs * p.bw * p.n_response * tok)
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
        "standard_bytes": std,
        "segment_bytes": seg,
        "ratio": (seg / std) if std else 0.0,
        "saving_bytes": std - seg,
    }


MEMSIM_COLUMNS = ("model", "BS", "BW", "N_prompt", "N_response",
                  "standard_bytes", "segment_bytes", "ratio", "saving_bytes")
