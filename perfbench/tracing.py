"""Span recording around the layer calls of ``seglm.engine``, and kernel work
computed from tensor shapes.

The runtime has no tracing of its own, so the benchmark wraps the public
functions each layer exposes at the point where ``seglm.engine`` calls them:
the module-level names the engine imported (ops, sdpa kernels, beam
selection, layout conversions) and the cache methods it calls on
``PromptKV`` / ``ResponseKV`` / ``SdpaDecodeInputs``. Everything is single
threaded, so one stack of open spans gives each span its parent.
``instrumented`` installs the wrappers and always restores the originals.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import seglm.engine as engine
from seglm.kvcache import PromptKV, ResponseKV
from seglm.sdpa import SdpaDecodeInputs

F32_BYTES = 4  # activations and cache buffers are stored as float32


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into SpanRecorder.spans
    request: int | None
    attrs: dict | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class SpanRecorder:
    """In-memory span log. A span takes its slot when it opens, so a parent
    always precedes its children; start, end and attributes are filled in
    when it closes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.request))
        self._open.append(idx)
        return idx

    def _exit(self, idx: int, start: float, end: float, attrs: dict | None) -> None:
        self._open.pop()
        span = self.spans[idx]
        span.start, span.end, span.attrs = start, end, attrs

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """Open a span; with ``request`` set it becomes that request's root."""
        if request is not None:
            self.request = request
        idx = self._enter(name)
        start = perf_counter()
        try:
            yield self.spans[idx]
        finally:
            self._exit(idx, start, perf_counter(), None)
            if request is not None:
                self.request = None

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span. ``before(args, kwargs)`` runs ahead of the
        timed call and its value is handed to ``after(args, kwargs, value)``,
        which runs after the clock stops and returns the span's attributes."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = self._enter(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._exit(idx, start, end, after(args, kwargs, state) if after else None)
        return wrapper

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "request", "attrs"],
            "spans": [[s.name, s.start, s.end, s.parent, s.request, s.attrs]
                      for s in self.spans],
        }


# -- kernel work computed from shapes (not measured) --------------------------

def decode_work(inp: SdpaDecodeInputs) -> dict:
    """One ``sdpa_decode_fused`` call: multiply-adds of q.k and p.v counted as
    two flops each (softmax exponentials not counted). Bytes: the prompt K/V
    once per batch item (beams share them), the response K/V rows gathered
    through the beam indices, q in, context out, and the index tensor."""
    bs, bw, n_prompt, n_resp, h, d = inp.dims
    keys = n_prompt + n_resp
    moved = F32_BYTES * h * d * (2 * bs * n_prompt + 2 * bs * bw * n_resp + 2 * bs * bw)
    return {"keys": keys,
            "flops": 4 * bs * bw * h * keys * d,
            "bytes": moved + inp.indices.itemsize * bs * bw * n_resp}


def prefill_work(q, causal: bool) -> dict:
    """One ``sdpa_prefill`` call over [BS, N, H, D]: the query-key pairs the
    causal mask admits (N(N+1)/2 per batch item and head), two flops per
    multiply-add of q.k and p.v. Bytes: q, K, V read once, context written."""
    bs, n, h, d = q.shape
    pairs = n * (n + 1) // 2 if causal else n * n
    return {"flops": 4 * bs * h * pairs * d, "bytes": F32_BYTES * 4 * bs * n * h * d}


def _decode_attrs(args, kwargs, _):
    return decode_work(args[0])


def _prefill_attrs(args, kwargs, _):
    causal = args[3] if len(args) > 3 else kwargs.get("causal", True)
    return prefill_work(args[0], causal)


def _capacity_before(args, kwargs):
    resp_kv, layer = args[0], args[1]
    return resp_kv.capacity(layer)


def _grew(args, kwargs, capacity_before):
    resp_kv, layer = args[0], args[1]
    return {"grew": resp_kv.capacity(layer) != capacity_before}


# (owner, attribute, span name, before, after)
TARGETS = (
    (engine, "rmsnorm", "ops.rmsnorm", None, None),
    (engine, "fused_qkv", "ops.fused_qkv", None, None),
    (engine, "rope", "ops.rope", None, None),
    (engine, "gated_mlp", "ops.gated_mlp", None, None),
    (engine, "linear", "ops.linear", None, None),
    (engine, "log_softmax", "ops.log_softmax", None, None),
    (engine, "sdpa_prefill", "sdpa.prefill", None, _prefill_attrs),
    (engine, "sdpa_decode_fused", "sdpa.decode", None, _decode_attrs),
    (engine, "beam_step", "beam.step", None, None),
    (engine, "build_gather_indices", "beam.gather_indices", None, None),
    (engine, "to_sequence_first", "tensor.layout_convert", None, None),
    (engine, "to_batch_first", "tensor.layout_convert", None, None),
    (SdpaDecodeInputs, "from_caches", "sdpa.decode_inputs", None, None),
    (PromptKV, "store", "kvcache.prompt_store", None, None),
    (ResponseKV, "append", "kvcache.response_append", _capacity_before, _grew),
)


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Install span wrappers on every target; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, before, after in TARGETS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(name, original.__func__, before, after))
            else:
                wrapped = recorder.wrap(name, original, before, after)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    if any(vars(owner)[attr] is not original for owner, attr, original in saved):
        raise RuntimeError("a span wrapper was not removed")
