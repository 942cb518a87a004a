"""The benchmark's span wrappers (perfbench/tracing.py) still fit the engine.

perfbench wraps names that ``seglm.engine`` imports and cache methods it
calls, by their current positional signatures. A rename or a signature
change there breaks only the benchmark, so this runs one toy beam request
plainly and under every wrapper.
"""
from pathlib import Path

import numpy as np

from seglm.config import toy_config
from seglm.engine import GenerationRequest, OptimizedEngine, ToyWeights

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_target_records_and_leaves_results_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    w = ToyWeights.random(toy_config(), seed=3)
    prompt = np.random.default_rng(4).integers(0, w.config.vocab, size=(2, 5))
    request = GenerationRequest(prompt, 17, mode="beam", bw=2)

    plain = OptimizedEngine(w).generate(request)
    with tracing.instrumented(tracing.SpanRecorder()) as recorder:
        traced = OptimizedEngine(w).generate(request)

    recorded = {span.name for span in recorder.spans}
    assert {name for _, _, name, _, _ in tracing.TARGETS} <= recorded
    grew = [span.attrs["grew"] for span in recorder.spans
            if span.name == "kvcache.response_append"]
    assert len(grew) == w.config.L * 17 and sum(grew) == 0  # the arena is sized at the start
    assert np.array_equal(traced.tokens, plain.tokens)
    assert np.array_equal(traced.final_hidden, plain.final_hidden)
