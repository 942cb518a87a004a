"""seglm: desk-scale LLM inference runtime built around a segment KV cache,
a fused two-segment attention kernel with beam-index gather, and decoder-layer
operator fusion, verified against an in-repo naive reference engine."""

__version__ = "0.1.0"
