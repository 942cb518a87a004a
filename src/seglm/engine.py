"""Autoregressive generation in two variants used as mutual oracles.

The optimized path propagates sequence-first hidden states through the
decoder stack (exactly two layout conversions per decode step), writes each
step's K/V into the pre-allocated segment cache, and calls the fused
two-segment attention kernel, with no cat or index-select tensor ops during
decode. The reference path is the conventional batch-first pipeline:
beam-expanded prompt, per-step gather + concat into a contiguous cache, and
materialized softmax attention with explicit transposes.

Both engines share token selection and one decoder-layer body
(``_DecoderEngine._layers``) into which each plugs only its attention and KV
cache, so token-for-token equality between them exercises exactly the
optimized pipeline (layouts, segment cache, fused kernel) against the unfused
one. The shared layer body itself is checked by hand traces and by the
prefill/decode consistency of each engine.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from math import prod, sqrt

import numpy as np

from .beam import BeamSearchState, beam_step, build_gather_indices
from .config import ModelConfig
from .kvcache import (CacheShapeParams, MemoryLedger, PromptKV, ResponseKV, StandardKV,
                      standard_cache_bytes)
from .ops import (LayerWeights, fused_qkv, gated_mlp, linear, log_softmax, rmsnorm, rope,
                  rope_table, to_batch_first, to_sequence_first)
from .sdpa import SdpaDecodeInputs, sdpa_decode_fused, sdpa_prefill


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
    mode: str = "greedy"
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
        if self.mode not in ("greedy", "beam"):
            raise ValueError(f"mode must be 'greedy' or 'beam', got {self.mode!r}")
        if self.mode == "greedy" and self.bw != 1:
            raise ValueError("greedy decoding requires bw == 1")
        if self.bw < 1:
            raise ValueError("beam width must be >= 1")


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


def weight_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every weight tensor's name and shape, in weight-file and random-draw order."""
    dm, ff, vocab = config.d_model, config.ff_dim, config.vocab
    layer = [("rmsnorm_1", (dm,)), ("rmsnorm_2", (dm,)), ("w_qkv", (dm, 3 * dm)),
             ("w_o", (dm, dm)), ("w_gate", (dm, ff)), ("w_up", (dm, ff)), ("w_down", (ff, dm))]
    return ([("embedding", (vocab, dm))]
            + [(f"layers.{i}.{name}", shape) for i in range(config.L) for name, shape in layer]
            + [("final_norm", (dm,)), ("head", (dm, vocab))])


def weight_manifest(config: ModelConfig) -> tuple[list[dict], int]:
    """The weight file's tensor manifest, ``weight_layout`` packed back to back
    as float32, and the blob length it covers."""
    manifest, offset = [], 0
    for name, shape in weight_layout(config):
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 4 * prod(shape)
    return manifest, offset


WEIGHT_SCALE = 0.02  # standard deviation of every drawn weight


class ToyWeights:
    """Seeded Gaussian weights for desk-scale runs; no real checkpoints."""

    def __init__(self, config: ModelConfig, embedding: np.ndarray,
                 layers: list[LayerWeights], final_norm: np.ndarray,
                 head: np.ndarray, seed: int = 0):
        self.config = config
        self.embedding = embedding
        self.layers = layers
        self.final_norm = final_norm
        self.head = head
        self.seed = seed
        self.validate()

    @classmethod
    def from_tensors(cls, config: ModelConfig, tensors: dict[str, np.ndarray],
                     seed: int = 0) -> "ToyWeights":
        """Weights from a {name: tensor} dict named as in ``weight_layout``."""
        layers = [LayerWeights(**{name.rsplit(".", 1)[1]: arr for name, arr in tensors.items()
                                  if name.startswith(f"layers.{i}.")}) for i in range(config.L)]
        return cls(config, tensors["embedding"], layers, tensors["final_norm"], tensors["head"], seed)

    def validate(self) -> None:
        if len(self.layers) != self.config.L:
            raise ValueError(f"expected {self.config.L} layers, got {len(self.layers)}")
        for (name, arr), (_, shape) in zip(self.named_tensors(), weight_layout(self.config)):
            if arr.shape != shape:
                raise ValueError(f"weight tensor {name}: expected shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"weight tensor {name} holds non-finite values")

    @classmethod
    def random(cls, config: ModelConfig, seed: int = 0) -> "ToyWeights":
        """Draw every tensor in layout order, except the norm gains, which are
        ones; the draws are standard normals times ``WEIGHT_SCALE``."""
        rng = np.random.default_rng(seed)
        tensors = {name: np.ones(shape, dtype=np.float32) if "norm" in name
                   else (rng.standard_normal(shape) * WEIGHT_SCALE).astype(np.float32)
                   for name, shape in weight_layout(config)}
        return cls.from_tensors(config, tensors, seed)

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """(name, tensor) for every weight, in ``weight_layout`` order."""
        out = []
        for name, _ in weight_layout(self.config):
            *layer, field = name.split(".")
            out.append((name, getattr(self.layers[int(layer[1])] if layer else self, field)))
        return out


def save_weights(path, weights: ToyWeights) -> None:
    """JSON header (config + tensor manifest) followed by a raw little-endian
    float32 blob; the round trip is byte-exact."""
    manifest, _ = weight_manifest(weights.config)
    header = {"config": asdict(weights.config), "seed": weights.seed, "tensors": manifest}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for _, arr in weights.named_tensors():
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _manifest_error(listed: list, names: list, expected: list[dict]) -> str:
    """The first way manifest ``listed``, whose entries are named ``names``,
    differs from ``expected``."""
    known = [entry["name"] for entry in expected]
    for i, name in enumerate(names):
        if name in names[:i]:
            return f"lists tensor {name!r} twice"
        if name not in known:
            return f"holds tensor {name!r}, for which its config has no slot"
        if listed[i] != expected[i]:
            return f"lists {listed[i]} where its layout has {expected[i]}"
    return f"has no tensor {expected[len(names)]['name']!r}"


def load_weights(path) -> ToyWeights:
    """Read a ``save_weights`` file. Its manifest must equal ``weight_manifest``
    of its config, and its blob must end where that manifest does."""
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        blob = f.read()
    try:
        config = ModelConfig(**header["config"])
        listed = header["tensors"]
        names = [entry["name"] for entry in listed]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"weight file {path} has a malformed header: {exc!r}") from None
    manifest, end = weight_manifest(config)
    if listed != manifest:
        raise ValueError(f"weight file {path} {_manifest_error(listed, names, manifest)}")
    if len(blob) != end:
        raise ValueError(f"weight file {path} holds {len(blob)} bytes of tensor data, but its "
                         f"manifest packs {end}, ending with tensor {manifest[-1]['name']!r}")
    tensors = {entry["name"]: np.frombuffer(blob, dtype="<f4", count=prod(entry["shape"]),
                                            offset=entry["offset"]).reshape(entry["shape"]).copy()
               for entry in manifest}
    return ToyWeights.from_tensors(config, tensors, header.get("seed", 0))


# --------------------------------------------------------------------------
# Engines
# --------------------------------------------------------------------------

class _DecoderEngine:
    """Shared generation loop and decoder stack; subclasses provide prefill /
    decode framing, the attention each layer plugs in, and memory."""

    def __init__(self, weights: ToyWeights):
        self.weights = weights
        self.config = weights.config
        self.last_ledger: MemoryLedger | None = None  # instrumentation for tests

    def generate(self, request: GenerationRequest) -> GenerationResult:
        cfg = self.config
        if request.prompt.min() < 0 or request.prompt.max() >= cfg.vocab:
            raise ValueError(f"prompt token ids must lie in [0, {cfg.vocab})")
        if request.prompt.shape[1] + request.n_response > cfg.max_pos:
            raise ValueError("prompt plus response exceeds the maximum position length")
        if request.bw > cfg.vocab:
            raise ValueError(f"vocabulary of {cfg.vocab} cannot fill {request.bw} beams")

        bs, _ = request.prompt.shape
        bw = request.bw
        nr = request.n_response
        counters = OpCounters()
        ledger = MemoryLedger()
        self.last_ledger = ledger
        run = self._begin(request, ledger, counters)

        t0 = time.perf_counter()
        logits, hidden = self._prefill(run)  # [BS*BW, vocab], [BS*BW, d_model]
        state = BeamSearchState(bs, bw)
        if nr > 0:
            beam_step(log_softmax(logits), state)
        first_s = time.perf_counter() - t0

        step_times: list[float] = []
        for t in range(1, nr + 1):
            ts = time.perf_counter()
            current = state.tokens_history[-1].reshape(-1)
            logits, hidden = self._decode_step(run, current, t, state)
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
            memory={**self._cache_bytes(run),
                    "final_active_bytes": ledger.active_bytes,
                    "peak_reserved_bytes": ledger.reserved_bytes,
                    "fragmentation_bytes": ledger.fragmentation},
            counters=counters,
            min_top_gap=state.min_top_gap,
        )

    def _layers(self, x, positions, attend):
        """Run the decoder stack on hidden states ``x`` [..., d_model].

        ``attend(layer, q, k, v)`` gets the rotated q, k and v, each [..., H, D]
        over the leading dims of ``x``, caches K/V the engine's way, and
        returns the attention context in that same [..., H, D] shape.
        """
        cfg = self.config
        table = rope_table(positions, cfg.D, cfg.rope_theta)
        for layer, lw in enumerate(self.weights.layers):
            h = rmsnorm(x, lw.rmsnorm_1, cfg.eps)
            q, k, v = fused_qkv(h, lw.w_qkv, cfg.H, cfg.D)
            q, k = rope(q, k, table, cfg.rope_style)
            ctx = attend(layer, q, k, v)
            x = x + linear(ctx.reshape(x.shape), lw.w_o)
            x = x + gated_mlp(rmsnorm(x, lw.rmsnorm_2, cfg.eps), lw.w_gate, lw.w_up, lw.w_down)
        return x

    def _head(self, x):
        """Final norm and lm head on [rows, d_model]: returns (logits, hidden)."""
        hidden = rmsnorm(x, self.weights.final_norm, self.config.eps)
        return linear(hidden, self.weights.head), hidden

    # subclass interface -----------------------------------------------------
    def _begin(self, request, ledger, counters):
        raise NotImplementedError

    def _prefill(self, run):
        raise NotImplementedError

    def _decode_step(self, run, tokens, t, state):
        raise NotImplementedError

    def _cache_bytes(self, run) -> dict:
        """The cache policy and the bytes each of its caches holds."""
        raise NotImplementedError


@dataclass
class _OptimizedRun:
    request: GenerationRequest
    prompt_kv: PromptKV
    resp_kv: ResponseKV
    counters: OpCounters


class OptimizedEngine(_DecoderEngine):
    """Sequence-first decode, segment KV cache, fused two-segment attention."""

    def _begin(self, request, ledger, counters) -> _OptimizedRun:
        bs, n_prompt = request.prompt.shape
        return _OptimizedRun(
            request=request,
            prompt_kv=PromptKV(self.config, bs, n_prompt, ledger),
            resp_kv=ResponseKV(self.config, bs, request.bw, ledger),
            counters=counters,
        )

    def _prefill(self, run: _OptimizedRun):
        def attend(layer, q, k, v):
            run.prompt_kv.store(layer, k, v)
            return sdpa_prefill(q, k, v)

        prompt = run.request.prompt  # [BS, Np]; no beam expansion
        positions = np.arange(prompt.shape[1])[None, :]
        x = self._layers(self.weights.embedding[prompt], positions, attend)
        logits, hidden = self._head(x[:, -1, :])
        # beams share the single prompt computation; replicate for selection
        bw = run.request.bw
        return np.repeat(logits, bw, axis=0), np.repeat(hidden, bw, axis=0)

    def _decode_step(self, run: _OptimizedRun, tokens, t, state):
        cfg = self.config
        rows = tokens.size  # BS*BW
        n_prompt = run.request.prompt.shape[1]

        x = to_sequence_first(self.weights.embedding[tokens].reshape(rows, 1, cfg.H, cfg.D))
        run.counters.layout_conversions += 1

        positions = np.array([[n_prompt + t - 1]])
        indices = state.gather_indices  # [BS, BW, t], grown by beam_step

        def attend(layer, q, k, v):
            run.resp_kv.append(layer, k, v)  # row t-1 of the pre-allocated arena
            return sdpa_decode_fused(SdpaDecodeInputs.from_caches(
                q, run.prompt_kv, run.resp_kv, layer, indices))

        x = self._layers(x.reshape(1, rows, cfg.d_model), positions, attend)
        x = to_batch_first(x.reshape(1, rows, cfg.H, cfg.D))
        run.counters.layout_conversions += 1
        return self._head(x.reshape(rows, cfg.d_model))

    def _cache_bytes(self, run: _OptimizedRun) -> dict:
        return {"policy": "segment",
                "prompt_kv_bytes": run.prompt_kv.total_bytes(),
                "response_kv_bytes": run.resp_kv.total_bytes()}


@dataclass
class _ReferenceRun:
    request: GenerationRequest
    kv: StandardKV


class ReferenceEngine(_DecoderEngine):
    """Batch-first baseline: beam-expanded prompt, contiguous cache rebuilt by
    gather + concat each step, materialized softmax attention."""

    def _begin(self, request, ledger, counters) -> _ReferenceRun:
        bs, _ = request.prompt.shape
        return _ReferenceRun(
            request=request,
            kv=StandardKV(self.config, bs, request.bw, ledger, counters),
        )

    @staticmethod
    def _attention(q, k, v, causal: bool):
        """Materialized softmax attention on [B, N, H, D] via explicit transposes."""
        scale = np.float32(1.0 / sqrt(q.shape[-1]))
        qt = q.transpose(0, 2, 1, 3)  # [B, H, Nq, D]
        kt = k.transpose(0, 2, 1, 3)
        vt = v.transpose(0, 2, 1, 3)
        s = (qt @ kt.transpose(0, 1, 3, 2)) * scale  # [B, H, Nq, Nk]
        if causal:
            nq, nk = s.shape[-2], s.shape[-1]
            keep = np.arange(nk)[None, :] <= np.arange(nq)[:, None] + (nk - nq)
            s = np.where(keep, s, np.float32(-np.inf))
        m = s.max(axis=-1, keepdims=True)
        p = np.exp(s - m)
        p = p / p.sum(axis=-1, keepdims=True)
        ctx = p @ vt
        return ctx.transpose(0, 2, 1, 3)  # back to [B, Nq, H, D]

    def _prefill(self, run: _ReferenceRun):
        def attend(layer, q, k, v):
            run.kv.store_prompt(layer, k, v)
            return self._attention(q, k, v, causal=True)

        prompt = np.repeat(run.request.prompt, run.request.bw, axis=0)  # beam-expanded [BS*BW, Np]
        positions = np.arange(prompt.shape[1])[None, :]
        x = self._layers(self.weights.embedding[prompt], positions, attend)
        return self._head(x[:, -1, :])

    def _decode_step(self, run: _ReferenceRun, tokens, t, state):
        bs, n_prompt = run.request.prompt.shape
        bw = run.request.bw
        x = self.weights.embedding[tokens][:, None, :]  # [B, 1, dm] batch first throughout
        positions = np.array([[n_prompt + t - 1]])
        parents = state.parents_history[t - 1]
        reorder = (np.arange(bs)[:, None] * bw + parents).reshape(-1)

        def attend(layer, q, k, v):
            k_all, v_all = run.kv.step(layer, k, v, reorder)
            return self._attention(q, k_all, v_all, causal=False)  # single newest query

        x = self._layers(x, positions, attend)
        return self._head(x[:, 0, :])

    def _cache_bytes(self, run: _ReferenceRun) -> dict:
        bs, n_prompt = run.request.prompt.shape
        prompt_only = CacheShapeParams(bs, run.request.bw, n_prompt, 0)
        return {"policy": "standard",
                # closed form: after step 1 no buffer holds the prompt rows alone
                "prompt_kv_bytes": standard_cache_bytes(self.config, prompt_only),
                "kv_bytes": run.kv.total_bytes()}


def generate(weights: ToyWeights, request: GenerationRequest) -> GenerationResult:
    """Run the optimized engine."""
    return OptimizedEngine(weights).generate(request)


def reference_generate(weights: ToyWeights, request: GenerationRequest) -> GenerationResult:
    """Run the reference engine (same contract, unfused pipeline)."""
    return ReferenceEngine(weights).generate(request)
