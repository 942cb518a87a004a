"""Autoregressive generation in two variants used as mutual oracles.

The optimized path propagates sequence-first hidden states through the
decoder stack (exactly two layout conversions per decode step), writes each
step's K/V into the pre-allocated segment cache, and calls the fused
two-segment attention kernel, with no cat or index-select tensor ops during
decode. The reference path is the conventional batch-first pipeline:
beam-expanded prompt, per-step gather + concat into a contiguous cache, and
``sdpa_materialized``, the full softmax both fused kernels are checked against.

An engine keeps the model, its worker processes if optimized, and the
generation loop, which owns the rotary positions and token selection.
Each request is a run of the engine's cache policy (``_SegmentRun``,
``_StandardRun``) that owns its caches, attention and counters. Both
engines share one decoder-layer body (``_DecoderEngine._layers``) into
which each run plugs only its attention and KV cache, so token-for-token
equality between them exercises exactly the optimized pipeline (layouts,
segment cache, fused kernel) against the unfused one. The shared layer
body itself is checked by hand traces and by the prefill/decode
consistency of each engine. The optimized prefill runs its last layer past
K/V on the last prompt position alone, the only one the head reads; the
reference prefill runs every layer on every row, so their equality checks
that cut as well.

The optimized engine splits a request into ``min(WIDTH, BS)`` contiguous
ranges of items of near-equal size, ``WIDTH`` being the number of CPUs the
process may run on: items never interact, each running its own beam
search on its own prompt. Each range is an ordinary request, run by an
ordinary ``_SegmentRun``, prefill and decode alike. The caller's process
runs the first range. Long-lived worker processes, forked by the engine as
its requests need them, run the others, each under the caller's numpy
error state, and send back their results, which the caller merges in item
order. There is one range, run in the caller exactly as an unsplit
request, where the loaded OpenBLAS runs more than one thread per call
(it already spreads each product over the cores), where the platform has
no fork, or where the caller is not the process's only thread (a child
forked while other threads run can deadlock on a lock one of them held,
and the workers serve one request at a time). The reference engine never
splits. A worker lives until EOF on its pipe, which ``close()``, the
engine's collection and the caller's death each bring about; the one
finalizer an engine keeps for its whole life also stops workers forked
after a ``close()``. A process forked from the caller forgets the caller's
workers.

``generate`` merges one group or many by one rule. It concatenates tokens
and hidden states in item order and takes the least selection margin. It
replays every group's ledger events, in item order, into one ledger, sums
the groups' cache bytes, which equal the unsplit closed forms, and reads
the ledger-derived bytes once, off the replayed ledger. Counters are one
group's (see ``OpCounters``). First-token latency is the latest group's,
and next-token latency runs from the latest end of step 1 to the latest
end of step N. A split changes only how many rows each projection
multiplies at once: where a group's count falls in another BLAS rounding
class than the whole batch's, values move in the last bits, and a token
can flip only at a selection that close to a tie.
"""
from __future__ import annotations

import ctypes
import functools
import json
import multiprocessing
import multiprocessing.process
import os
import signal
import threading
import time
import traceback
import weakref
from collections.abc import Iterator
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


# Most ranges of items an optimized request splits into, one per usable CPU,
# when the BLAS runs one thread per call. The caller runs the first range
# and the engine's worker processes, up to WIDTH - 1 of them, the rest.
WIDTH = _usable_cpus()


@functools.cache
def _openblas():
    """The loaded OpenBLAS's thread-count getter, found as threadpoolctl
    finds it: a library mapped into this process whose file name holds
    ``openblas``, asked through ctypes. numpy's wheels bundle it as
    scipy_openblas, with a 64_ suffix on 64-bit indices. None if there is
    none or the platform has no /proc/self/maps."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in maps)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5])}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if get is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    return get
    return None


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs per call, or None if unknown."""
    get = _openblas()
    return None if get is None else get()


@dataclass
class OpCounters:
    """Instrumentation: tensor-level data-movement ops observed during a run.

    They count per decode pipeline. Every group of a split request runs the
    same pipeline, so its counters are one group's: the merge checks that
    every group's are equal and reports that one set, and times
    ``GenerationResult.groups`` is the total over the groups."""

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
    # (latest end of step N - latest end of step 1) / (N - 1) over the groups
    next_token_latency_s: float | None
    total_latency_s: float
    memory: dict
    counters: OpCounters        # one group's; see OpCounters
    min_top_gap: float
    groups: int = 1             # ranges of items the request ran in, each in its own process

    def to_json_dict(self) -> dict:
        return {
            "tokens": self.tokens.tolist(),
            "min_top_gap": None if np.isinf(self.min_top_gap) else self.min_top_gap,
            "memory": self.memory,
            "counters": self.counters.as_dict(),
            "groups": self.groups,
            "timing": {
                "first_token_latency_ms": self.first_token_latency_s * 1e3,
                "next_token_latency_ms":
                    None if self.next_token_latency_s is None else self.next_token_latency_s * 1e3,
                "total_latency_s": self.total_latency_s,
            },
        }


@dataclass
class _Group:
    """One run of a range of a request's items, as a worker sends it back:
    its outputs, counters, cache bytes and ledger, and the
    ``time.perf_counter`` times of its first token and of the end of each
    decode step. On Linux that clock is CLOCK_MONOTONIC, one clock for
    every process."""

    tokens: np.ndarray
    final_hidden: np.ndarray
    min_top_gap: float
    counters: OpCounters
    cache_bytes: dict
    ledger: MemoryLedger
    first_token: float
    step_ends: list[float]


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
    """Shared generation loop and decoder stack. ``_run`` owns the rotary
    positions, selection and the token read-out, and drives a subclass's
    run, which keeps only its caches, attention and counters. ``generate``
    merges the groups of items ``_run_groups`` ran by one rule, whether
    one group or many."""

    run_class: type  # called as run_class(engine, request, ledger)

    def __init__(self, weights: ToyWeights):
        if weights.config.D % 2 != 0:
            raise ValueError(f"head dim D must be even, got D={weights.config.D}: rotary "
                             "embedding pairs dimension i with i+D/2")
        self.weights = weights
        self.config = weights.config
        # the last completed request's ledger, None while a request runs or
        # after one raised; read by the tests and by perfbench/bench.py
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
        self.last_ledger = None
        self.check_request(request)
        t0 = time.perf_counter()
        groups = self._run_groups(request)
        total_s = time.perf_counter() - t0
        ledger = MemoryLedger()  # every group's events, replayed in item order
        for g in groups:
            for kind, nbytes in g.ledger.events:
                getattr(ledger, kind)(nbytes)
        first = groups[0]
        memory = {key: sum(g.cache_bytes[key] for g in groups) if isinstance(value, int) else value
                  for key, value in first.cache_bytes.items()}
        memory.update(final_active_bytes=ledger.active_bytes,
                      peak_reserved_bytes=ledger.reserved_bytes,
                      fragmentation_bytes=ledger.fragmentation)
        assert all(g.counters == first.counters for g in groups), \
            "every group of a request runs the same decode pipeline"
        step_ends = [max(ends) for ends in zip(*(g.step_ends for g in groups))]
        self.last_ledger = ledger
        return GenerationResult(
            tokens=np.concatenate([g.tokens for g in groups]),
            final_hidden=np.concatenate([g.final_hidden for g in groups]),
            first_token_latency_s=max(g.first_token for g in groups) - t0,
            next_token_latency_s=((step_ends[-1] - step_ends[0]) / (len(step_ends) - 1)
                                  if len(step_ends) >= 2 else None),
            total_latency_s=total_s,
            memory=memory,
            counters=first.counters,
            min_top_gap=min(g.min_top_gap for g in groups),
            groups=len(groups),
        )

    def _run_groups(self, request: GenerationRequest) -> list[_Group]:
        """Run ``request`` in groups of items; here, one group in this process."""
        return [self._run(request)]

    def _run(self, request: GenerationRequest) -> _Group:
        """Run ``request`` whole in this process; the rotary tables are built
        once, and each decode step gets its row of them."""
        bs, n_prompt = request.prompt.shape
        bw, nr = request.bw, request.n_response
        prompt_table = rope_table(np.arange(n_prompt)[None, :], self.config.D)
        # step t's row: position n_prompt + t - 1, as [1, 1] over the step's rows
        cos, sin = rope_table(np.arange(n_prompt, n_prompt + nr)[:, None, None], self.config.D)
        ledger = MemoryLedger()
        run = self.run_class(self, request, ledger)

        logits, hidden = run.prefill(prompt_table)  # [BS*BW, vocab], [BS*BW, d_model]
        state = BeamSearchState(bs, bw)
        if nr > 0:
            beam_step(log_softmax(logits), state)
        first_token = time.perf_counter()

        step_ends: list[float] = []
        for t, table in enumerate(zip(cos, sin), start=1):
            current = state.tokens_history[-1].reshape(-1)
            logits, hidden = run.decode_step(current, table, state)
            if t < nr:  # the final step yields the final hidden state only
                beam_step(log_softmax(logits), state)
            step_ends.append(time.perf_counter())

        if nr > 0:
            idx = build_gather_indices(state.parents_history, nr)
            stacked = np.stack(state.tokens_history, axis=2)  # [BS, BW, Nr] slot-major
            tokens = np.take_along_axis(stacked, idx, axis=1)
        else:
            tokens = np.zeros((bs, bw, 0), dtype=np.int64)
        return _Group(tokens, hidden, state.min_top_gap, run.counters, run.cache_bytes(), ledger,
                      first_token, step_ends)

    def _layers(self, x, table, attend, read=None):
        """Run the decoder stack on hidden states ``x`` [..., d_model].

        ``table`` is the ``rope_table`` of the positions of ``x``, shared by
        every layer. ``attend(layer, q, k, v)`` gets the rotated q and k and
        the v, each [..., H, D] over the leading dims of ``x``, caches K/V
        the engine's way, and returns the attention context in q's shape.
        q and k are rotated in one pass, as one block of 2H heads, and
        reach ``attend`` as views of it.

        ``read`` indexes the rows of ``x`` whose output the caller reads; by
        default, all of them. The last layer still projects k and v on every
        row, since the cache must hold every position's K/V, but cuts q and
        the residual stream to ``read`` before attention, so its attention
        queries, o-proj, second norm and MLP run on those rows alone, and
        the stack returns only them. No earlier layer is cut: each of its
        rows feeds the keys and values of the layers after it.
        """
        cfg = self.config
        for layer, lw in enumerate(self.weights.layers):
            h = rmsnorm(x, lw["rmsnorm_1"])
            qk, v = fused_qkv(h, lw["w_qkv"], cfg.H, cfg.D)
            qk = rope(qk, table)
            q, k = qk[..., :cfg.H, :], qk[..., cfg.H:, :]
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

    def prefill(self, table):
        def attend(layer, q, k, v):
            self.prompt_kv.store(layer, k, v)
            return sdpa_prefill(q, k, v)

        engine = self.engine
        prompt = self.request.prompt  # [BS, Np]; no beam expansion
        # only the last prompt position reaches the head
        x = engine._layers(engine.weights.embedding[prompt], table, attend, np.s_[:, -1:])
        logits, hidden = engine._head(x[:, -1, :])
        # beams share the single prompt computation; replicate for selection
        bw = self.request.bw
        return np.repeat(logits, bw, axis=0), np.repeat(hidden, bw, axis=0)

    def decode_step(self, tokens, table, state):
        engine = self.engine
        cfg = engine.config
        rows = tokens.size  # BS*BW

        x = to_sequence_first(engine.weights.embedding[tokens].reshape(rows, 1, cfg.H, cfg.D))
        self.counters.layout_conversions += 1

        indices = state.gather_indices  # [BS, BW, t], grown by beam_step

        def attend(layer, q, k, v):
            self.resp_kv.append(layer, k, v)  # row t-1 of the pre-allocated arena
            return sdpa_decode_fused(SdpaDecodeInputs.from_caches(
                q, self.prompt_kv, self.resp_kv, layer, indices))

        x = engine._layers(x.reshape(1, rows, cfg.d_model), table, attend)
        x = to_batch_first(x.reshape(1, rows, cfg.H, cfg.D))
        self.counters.layout_conversions += 1
        return engine._head(x.reshape(rows, cfg.d_model))

    def cache_bytes(self) -> dict:
        return {"policy": "segment",
                "prompt_kv_bytes": self.prompt_kv.total_bytes(),
                "response_kv_bytes": self.resp_kv.total_bytes()}


@dataclass
class _Worker:
    """A worker process and the caller's end of its pipe."""

    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection

    def send(self, job) -> None:
        try:
            self.conn.send(job)
        except OSError:
            raise self._died() from None

    def receive(self) -> _Group | Exception:
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise self._died() from None

    def _died(self) -> RuntimeError:
        self.process.join(1)  # reaped, it has an exit code
        return RuntimeError(f"worker process {self.process.pid} died "
                            f"(exit code {self.process.exitcode})")


def _worker_error(exc: Exception) -> Exception:
    """``exc``, raised in this worker, as the caller will raise it: its
    message followed by this worker's pid and traceback, of its own type
    where that is a built-in one taking a message, else a RuntimeError."""
    text = f"{exc}\n\nraised in worker process {os.getpid()}:\n{traceback.format_exc()}"
    kind = type(exc)
    if kind.__module__ == "builtins":
        try:
            return kind(text)
        except Exception:
            pass
    return RuntimeError(f"{kind.__name__}: {text}")


def _keep_freed_memory() -> None:
    """In a worker: glibc's malloc serves every block below 32 MiB from its
    heap and keeps up to 64 MiB freed at the heap's top, so each request
    reuses the pages the one before it touched. By default it returns them
    to the kernel after each request, and the next one faults them in
    again: ~3200 faults a long-prompt-beam request, which made the worker's
    first token ~12 ms later than the caller's on the same work. The
    caller's process keeps its own settings. Does nothing where the C
    library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at its largest
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _serve(engine: OptimizedEngine, conn, caller_end) -> None:
    """A worker's loop: run each request sent on ``conn``, a range of the
    caller's items, under the caller's numpy error state and send back its
    ``_Group``, or the error it raised. Returns at EOF, which comes once no
    process holds the caller's end open: when the caller closes it
    (``close()`` or the engine's collection) or dies."""
    caller_end.close()  # while this process holds the caller's end, EOF never comes
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    _keep_freed_memory()
    while True:
        try:
            request, errors = conn.recv()
        except EOFError:
            return
        try:
            with np.errstate(**errors):
                reply = engine._run(request)
        except Exception as exc:
            reply = _worker_error(exc)
        try:
            conn.send(reply)
        except OSError:  # the caller dropped this worker
            return


def _stop(workers: list[_Worker]) -> None:
    """Close each worker's pipe, which it reads as EOF and exits, and reap
    it; one still running 5 s later (stopped, or its pipe still held open
    by a process forked without Python's at-fork hooks) is killed.
    Empties ``workers``."""
    for worker in workers:
        worker.conn.close()
    for worker in workers:
        worker.process.join(5)
        if worker.process.exitcode is None:
            worker.process.kill()
            worker.process.join()
    workers.clear()


_FORKED: weakref.WeakSet = weakref.WeakSet()  # engines that have forked workers


def _forget_workers() -> None:
    """In a forked child: the workers of the process it was forked from are
    not its own. Close its copies of their pipes, so that a worker still
    sees EOF when its caller dies, and drop them from the list the engine's
    finalizer stops, so the child's finalizer stops only the workers the
    child forks itself, and from multiprocessing's children, whose exit
    handler would terminate them."""
    for engine in list(_FORKED):
        for worker in engine._workers:
            worker.conn.close()
            multiprocessing.process._children.discard(worker.process)
        engine._workers.clear()


if hasattr(os, "register_at_fork"):  # no fork on Windows
    os.register_at_fork(after_in_child=_forget_workers)


class OptimizedEngine(_DecoderEngine):
    """Sequence-first decode, segment KV cache, fused two-segment attention.

    A request is split into ranges of items; the module docstring says
    when, and how long the worker processes that run them live."""

    run_class = _SegmentRun

    def __init__(self, weights: ToyWeights):
        super().__init__(weights)
        self._workers: list[_Worker] = []
        self._stop_workers = weakref.finalize(self, _stop, self._workers)

    def close(self) -> None:
        """Stop and reap this engine's workers; a later split request forks
        new ones, which the engine's collection stops in turn."""
        _stop(self._workers)

    def _run_groups(self, request: GenerationRequest) -> list[_Group]:
        """Run ``request`` in one range of items per usable CPU, the caller
        running the first and the workers the others. There is one range, a
        split with no workers, where the platform has no fork, where another
        thread runs (see the module docstring), or where the loaded OpenBLAS
        runs more than one thread per call; a count that cannot be read (no
        OpenBLAS found) leaves the split as it is. Splitting over such a
        BLAS, each process pinned to one thread, made wide-beam's first
        token ~1.5x later in a process that also makes unsplit
        multi-threaded BLAS calls (see README). Every reply is read before
        any error is raised, the caller's first, so each pipe stays in step
        for the next request; a dead worker, or an interrupt of a request
        that used workers, drops all the workers instead."""
        bs = request.prompt.shape[0]
        n = min(WIDTH, bs)
        if n > 1 and (not hasattr(os, "fork") or threading.active_count() > 1
                      or _blas_threads() not in (None, 1)):
            n = 1
        parts = [GenerationRequest(request.prompt[bs * g // n: bs * (g + 1) // n],
                                   request.n_response, bw=request.bw) for g in range(n)]
        workers = self._fork(n - 1)
        errors = np.geterr()
        try:
            for worker, part in zip(workers, parts[1:]):
                worker.send((part, errors))
            try:
                own: _Group | Exception = self._run(parts[0])
            except Exception as exc:
                own = exc
            groups = [own] + [worker.receive() for worker in workers]
        except BaseException:
            if workers:
                self.close()
            raise
        for group in groups:
            if isinstance(group, Exception):
                raise group
        return groups

    def _fork(self, n: int) -> list[_Worker]:
        """This engine's first ``n`` workers, forking those it lacks; a
        forked worker holds the weights as they are at the fork, so from
        then on they are read-only."""
        if len(self._workers) < n:
            for array in self.weights.tensors.values():
                array.flags.writeable = False
            _FORKED.add(self)
            fork = multiprocessing.get_context("fork")
            while len(self._workers) < n:
                caller_end, worker_end = fork.Pipe()
                process = fork.Process(target=_serve, args=(self, worker_end, caller_end),
                                       name="seglm-worker", daemon=True)
                process.start()
                worker_end.close()
                self._workers.append(_Worker(process, caller_end))
        return self._workers[:n]


class _StandardRun:
    """One request on the standard cache: one beam-expanded K/V buffer per layer."""

    def __init__(self, engine: _DecoderEngine, request: GenerationRequest, ledger: MemoryLedger):
        self.engine = engine
        self.request = request
        self.counters = OpCounters()
        self.kv = StandardKV(engine.config, request.prompt.shape[0], request.bw, ledger,
                             self.counters)

    def prefill(self, table):
        def attend(layer, q, k, v):
            self.kv.store_prompt(layer, k, v)
            return sdpa_materialized(q, k, v)

        engine = self.engine
        prompt = np.repeat(self.request.prompt, self.request.bw, axis=0)  # beam-expanded [BS*BW, Np]
        x = engine._layers(engine.weights.embedding[prompt], table, attend)
        return engine._head(x[:, -1, :])

    def decode_step(self, tokens, table, state):
        engine = self.engine
        bs = self.request.prompt.shape[0]
        bw = self.request.bw
        x = engine.weights.embedding[tokens][:, None, :]  # [B, 1, dm] batch first throughout
        parents = state.parents_history[-1]
        reorder = (np.arange(bs)[:, None] * bw + parents).reshape(-1)

        def attend(layer, q, k, v):
            k_all, v_all = self.kv.step(layer, k, v, reorder)
            return sdpa_materialized(q, k_all, v_all)  # the one newest query sees every key

        x = engine._layers(x, table, attend)
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
