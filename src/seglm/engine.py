"""Autoregressive generation in two variants used as mutual oracles.

The optimized path propagates sequence-first hidden states through the
decoder stack (exactly two layout conversions per decode step), writes each
step's K/V into the pre-allocated segment cache, and calls the fused
two-segment attention kernel, with no cat or index-select tensor ops during
decode. The reference path is the conventional batch-first pipeline:
beam-expanded prompt, per-step gather + concat into a contiguous cache, and
``sdpa_materialized``, the full softmax both fused kernels are checked against.

An engine keeps only the model and the generation loop; each request is a run
of the engine's cache policy (``_SegmentRun``, ``_StandardRun``) that owns its
caches, counters and steps. Both engines share token selection and one
decoder-layer body (``_DecoderEngine._layers``) into which each run plugs only
its attention and KV cache, so token-for-token equality between them
exercises exactly the optimized pipeline (layouts, segment cache, fused
kernel) against the unfused one. The shared layer body itself is checked by
hand traces and by the prefill/decode consistency of each engine. The
optimized prefill runs its last layer past K/V on the last prompt position
alone, the only one the head reads; the reference prefill runs every layer
on every row, so their equality checks that cut as well.

The optimized prefill splits the batch into ``min(PREFILL_WIDTH, BS)``
contiguous groups of items, ``PREFILL_WIDTH`` being the number of CPUs the
process may run on. Each group runs the decoder stack on its own prompts
and stores its own items' K/V; the caller's thread runs the first group and
one process-wide thread pool the others, each under the caller's numpy
error state, and the head then runs once on every item's last row. One
group (one CPU, or BS = 1) is one plain call on the caller's thread, bit
for bit the unsplit stack. A split changes only how many rows each
projection multiplies at once: where a group's count falls in another BLAS
rounding class than the whole batch's, values move in the last bits. On
the benchmark's shapes only the last layer's trimmed rows did, one per
item of a group, which moves the prefill's logits and hidden state.
Counters and ledger events never change, and a token can flip only at a
selection that close to a tie. Decode is not split.
"""
from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from math import prod

import numpy as np

from .beam import BeamSearchState, beam_step, build_gather_indices
from .config import ModelConfig
from .kvcache import (CacheShapeParams, MemoryLedger, PromptKV, ResponseKV, StandardKV,
                      standard_cache_bytes)
from .ops import (fused_qkv, gated_mlp, linear, log_softmax, rmsnorm, rope, rope_table,
                  to_batch_first, to_sequence_first)
from .sdpa import SdpaDecodeInputs, sdpa_decode_fused, sdpa_materialized, sdpa_prefill

MAX_POS = 4096  # longest prompt plus response a request may ask for


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Most groups an optimized prefill splits its batch items into, one per
# usable CPU. The caller's thread runs the first group and one process-wide
# pool of PREFILL_WIDTH - 1 threads, created on first use, runs the rest.
PREFILL_WIDTH = _usable_cpus()
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the pool object was copied but none of its threads
    were, so a task submitted to it would never run."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork on Windows
    os.register_at_fork(after_in_child=_forget_pool)


def _in_groups(fn, n_items: int) -> list:
    """``fn(items)`` over ``min(PREFILL_WIDTH, n_items)`` contiguous ranges of
    near-equal size that split ``range(n_items)``, concurrently; the results
    in item order. One group is a plain call on the caller's thread.

    Every group has run to its end when this returns or raises; a group's
    exception is raised here, the first group's before any other."""
    global _pool
    n = min(PREFILL_WIDTH, n_items)
    groups = [range(n_items * g // n, n_items * (g + 1) // n) for g in range(n)]
    if n == 1:
        return [fn(groups[0])]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(PREFILL_WIDTH - 1, thread_name_prefix="seglm-prefill")
    futures = [_pool.submit(fn, items) for items in groups[1:]]
    try:
        first = fn(groups[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


@dataclass
class OpCounters:
    """Instrumentation: tensor-level data-movement ops observed during a run."""

    layout_conversions: int = 0
    cat_ops: int = 0
    index_select_ops: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class GenerationRequest:
    prompt: np.ndarray          # [BS, N_prompt] token ids
    n_response: int
    mode: str | None = None     # worked out from bw: "greedy" iff bw == 1
    bw: int = 1

    def __post_init__(self) -> None:
        prompt = np.asarray(self.prompt)
        if prompt.ndim != 2 or prompt.shape[1] < 1:
            raise ValueError("prompt must be [BS, N_prompt] with N_prompt >= 1")
        if prompt.shape[0] < 1:
            raise ValueError("prompt batch is empty: BS must be >= 1")
        if prompt.dtype.kind not in "iu":
            raise ValueError(f"prompt token ids must be integers, got dtype {prompt.dtype}")
        self.prompt = prompt.astype(np.int64, copy=False)
        if isinstance(self.n_response, bool) or not isinstance(self.n_response, (int, np.integer)):
            raise ValueError(f"n_response must be an integer, got {self.n_response!r}")
        if self.n_response < 0:
            raise ValueError("n_response must be >= 0")
        if isinstance(self.bw, bool) or not isinstance(self.bw, (int, np.integer)):
            raise ValueError(f"bw must be an integer, got {self.bw!r}")
        if self.bw < 1:
            raise ValueError("beam width must be >= 1")
        mode = "greedy" if self.bw == 1 else "beam"
        if self.mode not in (None, mode):
            raise ValueError(f"mode {self.mode!r} contradicts bw == {self.bw}: "
                             "greedy decoding is bw == 1, beam search is bw > 1")
        self.mode = mode


@dataclass
class GenerationResult:
    tokens: np.ndarray          # [BS, BW, n_response]
    final_hidden: np.ndarray    # [BS*BW, d_model], post-final-norm at the last step
    first_token_latency_s: float
    next_token_latency_s: float | None  # mean over decode steps 2..N
    total_latency_s: float
    memory: dict
    counters: OpCounters
    min_top_gap: float

    def to_json_dict(self) -> dict:
        return {
            "tokens": self.tokens.tolist(),
            "min_top_gap": None if np.isinf(self.min_top_gap) else self.min_top_gap,
            "memory": self.memory,
            "counters": self.counters.as_dict(),
            "timing": {
                "first_token_latency_ms": self.first_token_latency_s * 1e3,
                "next_token_latency_ms":
                    None if self.next_token_latency_s is None else self.next_token_latency_s * 1e3,
                "total_latency_s": self.total_latency_s,
            },
        }


def weight_layout(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every weight tensor's name and shape, in weight-file and random-draw
    order. A generator, so reading a prefix costs only its length: the
    loader walks it only as far as a file's blob reaches.

    Every projection (the ``w_*`` tensors and ``head``) is output-major,
    [out, in]; the embedding is [vocab, d_model]."""
    dm, ff, vocab = config.d_model, config.ff_dim, config.vocab
    layer = [("rmsnorm_1", (dm,)), ("rmsnorm_2", (dm,)), ("w_qkv", (3 * dm, dm)),
             ("w_o", (dm, dm)), ("w_gate", (ff, dm)), ("w_up", (ff, dm)), ("w_down", (dm, ff))]
    yield "embedding", (vocab, dm)
    for i in range(config.L):
        for name, shape in layer:
            yield f"layers.{i}.{name}", shape
    yield "final_norm", (dm,)
    yield "head", (vocab, dm)


WEIGHT_SCALE = 0.02  # standard deviation of every drawn weight


class ToyWeights:
    """Seeded Gaussian weights for desk-scale runs; no real checkpoints.

    ``tensors`` maps each name of ``weight_layout(config)`` to its array and
    is checked once, here: every layout name present, no other name, each
    shape as laid out, every array float32 and every value finite.
    ``embedding``, ``final_norm``, ``head`` and ``layers[i]`` (layer i's
    arrays, keyed ``rmsnorm_1`` ... ``w_down``) refer into it."""

    def __init__(self, config: ModelConfig, tensors: dict[str, np.ndarray]):
        shapes = dict(weight_layout(config))
        extra = sorted(tensors.keys() - shapes.keys())
        if extra:
            raise ValueError(f"weight tensor {extra[0]} is not in the layout of its config "
                             f"(L={config.L})")
        for name, shape in shapes.items():
            arr = tensors.get(name)
            if arr is None:
                raise ValueError(f"weight tensor {name} is missing")
            if arr.shape != shape:
                raise ValueError(f"weight tensor {name}: expected shape {shape}, got {arr.shape}")
            if arr.dtype != np.float32:  # save_weights writes float32
                raise ValueError(f"weight tensor {name}: expected float32, got {arr.dtype}")
            if not np.isfinite(arr).all():
                raise ValueError(f"weight tensor {name} holds non-finite values")
        self.config = config
        self.tensors = tensors
        self.embedding = tensors["embedding"]
        self.final_norm = tensors["final_norm"]
        self.head = tensors["head"]
        self.layers = [{name[len(prefix):]: arr for name, arr in tensors.items()
                        if name.startswith(prefix)}
                       for prefix in (f"layers.{i}." for i in range(config.L))]

    @classmethod
    def random(cls, config: ModelConfig, seed: int = 0) -> "ToyWeights":
        """Draw every tensor in layout order, except the norm gains, which are
        ones; the draws are standard normals times ``WEIGHT_SCALE``.

        Each projection is drawn input-major, [in, out], and stored transposed,
        so a seed gives the same model as when projections were stored
        input-major; the float32 conversion writes the transpose."""
        rng = np.random.default_rng(seed)

        def draw(name, shape):
            if "norm" in name:
                return np.ones(shape, dtype=np.float32)
            if name == "embedding":
                return (rng.standard_normal(shape) * WEIGHT_SCALE).astype(np.float32)
            drawn = rng.standard_normal(shape[::-1]) * WEIGHT_SCALE
            return drawn.T.astype(np.float32, order="C")

        return cls(config, {name: draw(name, shape) for name, shape in weight_layout(config)})


def save_weights(path, weights: ToyWeights) -> None:
    """A one-line JSON header, ``{"config": {...}}``, then every tensor of
    ``weight_layout`` packed back to back as little-endian float32; the
    round trip is byte-exact."""
    header = {"config": asdict(weights.config)}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name, _ in weight_layout(weights.config):
            f.write(np.ascontiguousarray(weights.tensors[name], dtype="<f4").tobytes())


def load_weights(path) -> ToyWeights:
    """Read a ``save_weights`` file. Its header must hold exactly ``config``,
    and its blob exactly the tensors of that config's layout. The layout is
    walked only as far as the blob reaches, so a header claiming a huge
    ``L`` costs no more than the file's size."""
    with open(path, "rb") as f:
        line = f.readline()
        blob = f.read()
    try:  # ValueError: not UTF-8, not JSON, or a config field out of range
        header = json.loads(line.decode("utf-8"))
        extra = sorted(set(header) - {"config"})
        config = ModelConfig(**header["config"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"weight file {path} has a malformed header: "
                         f"{type(exc).__name__}: {exc}") from None
    if extra:
        raise ValueError(f"weight file {path} header holds {extra[0]!r}; "
                         "it may hold only 'config'")
    tensors, offset = {}, 0
    for name, shape in weight_layout(config):
        count = prod(shape)
        if offset + 4 * count > len(blob):
            raise ValueError(f"weight file {path} holds {len(blob)} bytes of tensor data, "
                             f"which end inside tensor {name!r} of its config (L={config.L})")
        tensors[name] = np.frombuffer(blob, dtype="<f4", count=count,
                                      offset=offset).reshape(shape).copy()
        offset += 4 * count
    if offset != len(blob):
        raise ValueError(f"weight file {path} holds {len(blob) - offset} bytes past the "
                         f"last tensor of its config (L={config.L})")
    try:
        return ToyWeights(config, tensors)
    except ValueError as exc:  # a non-finite value
        raise ValueError(f"weight file {path}: {exc}") from None


# --------------------------------------------------------------------------
# Engines
# --------------------------------------------------------------------------

class _DecoderEngine:
    """Shared generation loop and decoder stack. ``generate`` drives the
    ``prefill``, ``decode_step`` and ``cache_bytes`` of a subclass's run."""

    run_class: type  # called as run_class(engine, request, ledger)

    def __init__(self, weights: ToyWeights):
        if weights.config.D % 2 != 0:
            raise ValueError(f"head dim D must be even, got D={weights.config.D}: rotary "
                             "embedding pairs dimension i with i+D/2")
        self.weights = weights
        self.config = weights.config
        # the last run's ledger, read by the tests and by perfbench/bench.py
        self.last_ledger: MemoryLedger | None = None

    def check_request(self, request: GenerationRequest) -> None:
        """Raise ValueError if this model cannot run ``request``; ``generate``
        calls it before anything is allocated."""
        cfg = self.config
        if request.prompt.min() < 0 or request.prompt.max() >= cfg.vocab:
            raise ValueError(f"prompt token ids must lie in [0, {cfg.vocab})")
        if request.prompt.shape[1] + request.n_response > MAX_POS:
            raise ValueError(f"prompt plus response exceeds the maximum position length {MAX_POS}")
        if request.bw > cfg.vocab:
            raise ValueError(f"vocabulary of {cfg.vocab} cannot fill {request.bw} beams")

    # A value numpy would warn about reaches rmsnorm's or beam_step's own
    # non-finite check, which names it; numpy's warning would only come first.
    @np.errstate(over="ignore", invalid="ignore")
    def generate(self, request: GenerationRequest) -> GenerationResult:
        self.check_request(request)
        bs, _ = request.prompt.shape
        bw = request.bw
        nr = request.n_response
        ledger = MemoryLedger()
        self.last_ledger = ledger
        run = self.run_class(self, request, ledger)

        t0 = time.perf_counter()
        logits, hidden = run.prefill()  # [BS*BW, vocab], [BS*BW, d_model]
        state = BeamSearchState(bs, bw)
        if nr > 0:
            beam_step(log_softmax(logits), state)
        first_s = time.perf_counter() - t0

        step_times: list[float] = []
        for t in range(1, nr + 1):
            ts = time.perf_counter()
            current = state.tokens_history[-1].reshape(-1)
            logits, hidden = run.decode_step(current, t, state)
            if t < nr:  # the final step yields the final hidden state only
                beam_step(log_softmax(logits), state)
            step_times.append(time.perf_counter() - ts)
        total_s = time.perf_counter() - t0

        if nr > 0:
            idx = build_gather_indices(state.parents_history, nr)
            stacked = np.stack(state.tokens_history, axis=2)  # [BS, BW, Nr] slot-major
            tokens = np.take_along_axis(stacked, idx, axis=1)
        else:
            tokens = np.zeros((bs, bw, 0), dtype=np.int64)

        next_s = float(np.mean(step_times[1:])) if len(step_times) >= 2 else None
        return GenerationResult(
            tokens=tokens,
            final_hidden=hidden,
            first_token_latency_s=first_s,
            next_token_latency_s=next_s,
            total_latency_s=total_s,
            memory={**run.cache_bytes(),
                    "final_active_bytes": ledger.active_bytes,
                    "peak_reserved_bytes": ledger.reserved_bytes,
                    "fragmentation_bytes": ledger.fragmentation},
            counters=run.counters,
            min_top_gap=state.min_top_gap,
        )

    def _layers(self, x, positions, attend, read=None):
        """Run the decoder stack on hidden states ``x`` [..., d_model].

        ``attend(layer, q, k, v)`` gets the rotated q, k and v, each [..., H, D]
        over the leading dims of ``x``, caches K/V the engine's way, and
        returns the attention context in q's shape.

        ``read`` indexes the rows of ``x`` whose output the caller reads; by
        default, all of them. The last layer still projects k and v on every
        row, since the cache must hold every position's K/V, but cuts q and
        the residual stream to ``read`` before attention, so its attention
        queries, o-proj, second norm and MLP run on those rows alone, and
        the stack returns only them. No earlier layer is cut: each of its
        rows feeds the keys and values of the layers after it.
        """
        cfg = self.config
        table = rope_table(positions, cfg.D)
        for layer, lw in enumerate(self.weights.layers):
            h = rmsnorm(x, lw["rmsnorm_1"])
            q, k, v = fused_qkv(h, lw["w_qkv"], cfg.H, cfg.D)
            q, k = rope(q, k, table)
            if read is not None and layer == cfg.L - 1:
                q, x = q[read], x[read]
            ctx = attend(layer, q, k, v)
            x = x + linear(ctx.reshape(x.shape), lw["w_o"])
            x = x + gated_mlp(rmsnorm(x, lw["rmsnorm_2"]), lw["w_gate"], lw["w_up"], lw["w_down"])
        return x

    def _head(self, x):
        """Final norm and lm head on [rows, d_model]: returns (logits, hidden)."""
        hidden = rmsnorm(x, self.weights.final_norm)
        return linear(hidden, self.weights.head), hidden


class _SegmentRun:
    """One request on the segment cache: prompt K/V once per item, response K/V in an arena."""

    def __init__(self, engine: _DecoderEngine, request: GenerationRequest, ledger: MemoryLedger):
        bs, n_prompt = request.prompt.shape
        self.engine = engine
        self.request = request
        self.prompt_kv = PromptKV(engine.config, bs, n_prompt, ledger)
        self.resp_kv = ResponseKV(engine.config, bs, request.bw, request.n_response, ledger)
        self.counters = OpCounters()

    def prefill(self):
        engine = self.engine
        prompt = self.request.prompt  # [BS, Np]; no beam expansion
        positions = np.arange(prompt.shape[1])[None, :]
        errors = np.geterr()

        def group_layers(items):
            def attend(layer, q, k, v):
                self.prompt_kv.store(layer, k, v, items)
                return sdpa_prefill(q, k, v)

            # a pool thread starts from numpy's default error state, not the caller's
            with np.errstate(**errors):
                # only the last prompt position reaches the head
                return engine._layers(engine.weights.embedding[prompt[items.start:items.stop]],
                                      positions, attend, np.s_[:, -1:])

        # the items' prompts are independent, so groups of them run on separate cores
        x = np.concatenate(_in_groups(group_layers, prompt.shape[0]))
        logits, hidden = engine._head(x[:, -1, :])
        # beams share the single prompt computation; replicate for selection
        bw = self.request.bw
        return np.repeat(logits, bw, axis=0), np.repeat(hidden, bw, axis=0)

    def decode_step(self, tokens, t, state):
        engine = self.engine
        cfg = engine.config
        rows = tokens.size  # BS*BW
        n_prompt = self.request.prompt.shape[1]

        x = to_sequence_first(engine.weights.embedding[tokens].reshape(rows, 1, cfg.H, cfg.D))
        self.counters.layout_conversions += 1

        positions = np.array([[n_prompt + t - 1]])
        indices = state.gather_indices  # [BS, BW, t], grown by beam_step

        def attend(layer, q, k, v):
            self.resp_kv.append(layer, k, v)  # row t-1 of the pre-allocated arena
            return sdpa_decode_fused(SdpaDecodeInputs.from_caches(
                q, self.prompt_kv, self.resp_kv, layer, indices))

        x = engine._layers(x.reshape(1, rows, cfg.d_model), positions, attend)
        x = to_batch_first(x.reshape(1, rows, cfg.H, cfg.D))
        self.counters.layout_conversions += 1
        return engine._head(x.reshape(rows, cfg.d_model))

    def cache_bytes(self) -> dict:
        return {"policy": "segment",
                "prompt_kv_bytes": self.prompt_kv.total_bytes(),
                "response_kv_bytes": self.resp_kv.total_bytes()}


class OptimizedEngine(_DecoderEngine):
    """Sequence-first decode, segment KV cache, fused two-segment attention."""

    run_class = _SegmentRun


class _StandardRun:
    """One request on the standard cache: one beam-expanded K/V buffer per layer."""

    def __init__(self, engine: _DecoderEngine, request: GenerationRequest, ledger: MemoryLedger):
        self.engine = engine
        self.request = request
        self.counters = OpCounters()
        self.kv = StandardKV(engine.config, request.prompt.shape[0], request.bw, ledger,
                             self.counters)

    def prefill(self):
        def attend(layer, q, k, v):
            self.kv.store_prompt(layer, k, v)
            return sdpa_materialized(q, k, v)

        engine = self.engine
        prompt = np.repeat(self.request.prompt, self.request.bw, axis=0)  # beam-expanded [BS*BW, Np]
        positions = np.arange(prompt.shape[1])[None, :]
        x = engine._layers(engine.weights.embedding[prompt], positions, attend)
        return engine._head(x[:, -1, :])

    def decode_step(self, tokens, t, state):
        engine = self.engine
        bs, n_prompt = self.request.prompt.shape
        bw = self.request.bw
        x = engine.weights.embedding[tokens][:, None, :]  # [B, 1, dm] batch first throughout
        positions = np.array([[n_prompt + t - 1]])
        parents = state.parents_history[t - 1]
        reorder = (np.arange(bs)[:, None] * bw + parents).reshape(-1)

        def attend(layer, q, k, v):
            k_all, v_all = self.kv.step(layer, k, v, reorder)
            return sdpa_materialized(q, k_all, v_all)  # the one newest query sees every key

        x = engine._layers(x, positions, attend)
        return engine._head(x[:, 0, :])

    def cache_bytes(self) -> dict:
        bs, n_prompt = self.request.prompt.shape
        prompt_only = CacheShapeParams(bs, self.request.bw, n_prompt, 0)
        return {"policy": "standard",
                # closed form: after step 1 no buffer holds the prompt rows alone
                "prompt_kv_bytes": standard_cache_bytes(self.engine.config, prompt_only),
                "kv_bytes": self.kv.total_bytes()}


class ReferenceEngine(_DecoderEngine):
    """Batch-first baseline: beam-expanded prompt, contiguous cache rebuilt by
    gather + concat each step, materialized softmax attention."""

    run_class = _StandardRun
