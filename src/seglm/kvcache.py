"""KV-cache policies and size-only memory accounting.

The segment policy keeps prompt K/V ([BS, N_prompt, H, D], batch first,
shared across beams) and response K/V ([N_step, BS*BW, H, D], sequence
first) in separate buffers. Response buffers grow by ``step`` rows at a
time: growth allocates the larger block, copies the written rows, then
frees the old block. The standard baseline rebuilds one contiguous
[BS*BW, N_total, H, D] buffer per decode step via gather (index select) and
concat.

The ledger models sizes only, never addresses: fragmentation is
reserved - active bytes. Byte accounting uses the config's ``dtype_bytes``
(2 for fp16 bookkeeping) even though stored data is float32.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig


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
        if min(self.bs, self.bw, self.n_prompt, self.n_response) < 0:
            raise ValueError("cache shape parameters must be >= 0")


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
    BS * (Np + BW * ceil(Nr/step)*step) tokens.
    """
    step = config.step
    rounded = -(-p.n_response // step) * step  # ceil
    return p.bs * (p.n_prompt + p.bw * rounded) * cache_token_bytes(config)


# --------------------------------------------------------------------------
# Ledger
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerSummary:
    peak_reserved: int
    final_active: int
    fragmentation: int


class MemoryLedger:
    """Event log of alloc / free with byte-level accounting.

    Freed bytes stay reserved: no later alloc is served from them, so
    ``reserved_bytes`` never falls and is its own peak. A pool of freed
    blocks would never serve an alloc anyway, because every cache
    allocation is strictly larger than every block freed before it: a
    response block grows by ``step`` rows from the one it replaces, a
    standard-cache step reallocates one more row than the last, and prompt
    blocks are never freed. The summary's ``peak_reserved`` is therefore
    ``reserved_bytes``, and fragmentation (reserved - active) is the sum of
    all frees.
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

    def summary(self) -> LedgerSummary:
        return LedgerSummary(self.reserved_bytes, self.active_bytes, self.fragmentation)


# --------------------------------------------------------------------------
# Cache buffers
# --------------------------------------------------------------------------

class PromptKV:
    """Per-layer prompt K/V, [BS, N_prompt, H, D] batch first, beam-shared.

    Written once at prefill, immutable afterwards.
    """

    def __init__(self, config: ModelConfig, bs: int, n_prompt: int):
        self.config = config
        self.bs = bs
        self.n_prompt = n_prompt
        self._k: list[np.ndarray | None] = [None] * config.L
        self._v: list[np.ndarray | None] = [None] * config.L

    @property
    def layer_bytes(self) -> int:
        c = self.config
        return 2 * self.bs * self.n_prompt * c.H * c.D * c.dtype_bytes

    @property
    def total_bytes(self) -> int:
        return self.config.L * self.layer_bytes

    def store(self, layer: int, k, v, ledger: MemoryLedger | None = None) -> None:
        if self._k[layer] is not None:
            raise ValueError("prompt KV is write-once")
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        expect = (self.bs, self.n_prompt, self.config.H, self.config.D)
        if k.shape != expect or v.shape != expect:
            raise ValueError(f"prompt K/V must be batch-first {expect}, got {k.shape} / {v.shape}")
        self._k[layer] = k
        self._v[layer] = v
        if ledger is not None:
            ledger.alloc(self.layer_bytes)

    def layer(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        k, v = self._k[i], self._v[i]
        if k is None or v is None:
            raise ValueError(f"prompt KV for layer {i} not populated")
        return k, v


class ResponseKV:
    """Per-layer response K/V, [N_step, BS*BW, H, D] sequence first.

    Rows [0, length) hold written data; rows [length, capacity) are reserved.
    Appending past capacity grows the buffer by ``step`` rows: one alloc of
    the larger block, a row copy, and one free of the old block.
    """

    def __init__(self, config: ModelConfig, bs: int, bw: int):
        self.config = config
        self.bs = bs
        self.bw = bw
        self._k: list[np.ndarray | None] = [None] * config.L
        self._v: list[np.ndarray | None] = [None] * config.L
        self._capacity = [0] * config.L
        self._length = [0] * config.L

    @property
    def rows(self) -> int:
        return self.bs * self.bw

    def block_bytes(self, capacity_rows: int) -> int:
        c = self.config
        return 2 * capacity_rows * self.rows * c.H * c.D * c.dtype_bytes

    def length(self, layer: int) -> int:
        return self._length[layer]

    def capacity(self, layer: int) -> int:
        return self._capacity[layer]

    def total_bytes(self) -> int:
        return sum(self.block_bytes(c) for c in self._capacity)

    @staticmethod
    def _as_row(x, rows: int, h: int, d: int, name: str) -> np.ndarray:
        a = np.asarray(x, dtype=np.float32)
        if a.shape == (1, rows, h, d):
            a = a[0]
        if a.shape != (rows, h, d):
            raise ValueError(f"{name} must have shape (1, {rows}, {h}, {d}), got {a.shape}")
        return a

    def append(self, layer: int, k_t, v_t, ledger: MemoryLedger | None = None) -> None:
        c = self.config
        k_row = self._as_row(k_t, self.rows, c.H, c.D, "k_t")
        v_row = self._as_row(v_t, self.rows, c.H, c.D, "v_t")

        if self._length[layer] == self._capacity[layer]:
            old_cap = self._capacity[layer]
            new_cap = old_cap + c.step
            new_k = np.zeros((new_cap, self.rows, c.H, c.D), dtype=np.float32)
            new_v = np.zeros_like(new_k)
            if old_cap:
                new_k[: self._length[layer]] = self._k[layer][: self._length[layer]]
                new_v[: self._length[layer]] = self._v[layer][: self._length[layer]]
            if ledger is not None:
                ledger.alloc(self.block_bytes(new_cap))
                if old_cap:
                    ledger.free(self.block_bytes(old_cap))
            self._k[layer] = new_k
            self._v[layer] = new_v
            self._capacity[layer] = new_cap

        row = self._length[layer]
        self._k[layer][row] = k_row
        self._v[layer][row] = v_row
        self._length[layer] = row + 1

    def valid(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the written rows [0, length) of one layer's K and V."""
        n = self._length[layer]
        if self._k[layer] is None:
            c = self.config
            empty = np.zeros((0, self.rows, c.H, c.D), dtype=np.float32)
            return empty, empty
        return self._k[layer][:n], self._v[layer][:n]


class StandardKV:
    """Per-layer contiguous K/V, [BS*BW, N_total, H, D] batch first.

    Each decode step gathers the past rows by beam order (index select),
    concatenates the new row, and stores the result in a freshly allocated
    buffer; the old buffer is freed.
    """

    def __init__(self, config: ModelConfig, bs: int, bw: int, counters=None):
        self.config = config
        self.bs = bs
        self.bw = bw
        self.counters = counters
        self._k: list[np.ndarray | None] = [None] * config.L
        self._v: list[np.ndarray | None] = [None] * config.L

    @property
    def rows(self) -> int:
        return self.bs * self.bw

    def block_bytes(self, n_total: int) -> int:
        c = self.config
        return 2 * self.rows * n_total * c.H * c.D * c.dtype_bytes

    def n_total(self, layer: int) -> int:
        k = self._k[layer]
        return 0 if k is None else k.shape[1]

    def total_bytes(self) -> int:
        return sum(self.block_bytes(self.n_total(l)) for l in range(self.config.L))

    def store_prompt(self, layer: int, k, v, ledger: MemoryLedger | None = None) -> None:
        c = self.config
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        expect = (self.rows, k.shape[1], c.H, c.D)
        if k.shape != expect or v.shape != expect:
            raise ValueError(f"prompt rows must be [BS*BW, N, H, D], got {k.shape} / {v.shape}")
        if self._k[layer] is not None:
            raise ValueError("prompt already stored for this layer")
        self._k[layer] = k
        self._v[layer] = v
        if ledger is not None:
            ledger.alloc(self.block_bytes(k.shape[1]))

    def step(self, layer: int, k_t, v_t, beam_reorder,
             ledger: MemoryLedger | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Gather past rows by ``beam_reorder`` (global row indices in
        [0, BS*BW)), concat the new K_t/V_t, and swap in the new buffer.
        Returns the new (K, V)."""
        c = self.config
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
        old_n = old_k.shape[1]

        gathered_k = old_k[reorder]  # index select on the batch*beam axis
        gathered_v = old_v[reorder]
        if self.counters is not None:
            self.counters.index_select_ops += 2
        new_k = np.concatenate([gathered_k, k_row], axis=1)
        new_v = np.concatenate([gathered_v, v_row], axis=1)
        if self.counters is not None:
            self.counters.cat_ops += 2

        if ledger is not None:
            ledger.alloc(self.block_bytes(old_n + 1))
            ledger.free(self.block_bytes(old_n))
        self._k[layer] = new_k
        self._v[layer] = new_v
        return new_k, new_v

    def _one_step_rows(self, x, name: str) -> np.ndarray:
        c = self.config
        a = np.asarray(x, dtype=np.float32)
        if a.shape == (self.rows, c.H, c.D):
            a = a[:, None]
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
                           p: CacheShapeParams) -> LedgerSummary:
    """Replay the decode-phase allocation trace of one policy, sizes only.

    Segment: the persistent prompt buffer is part of the decode-phase live
    set, so the trace opens with it; response buffers then grow step-wise
    (alloc new, free old). Standard: the trace holds only the per-step
    reallocation of the contiguous buffer; the prefill-phase buffer it
    replaces at step 1 lives outside the decode trace.
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
                new_cap = cap + config.step
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

    return ledger.summary()


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
