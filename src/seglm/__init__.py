"""seglm: desk-scale LLM inference runtime built around a segment KV cache,
a fused two-segment attention kernel with beam-index gather, and decoder-layer
operator fusion, verified against an in-repo naive reference engine."""

from .beam import BeamSearchState, beam_step, build_gather_indices
from .config import PRESETS, ModelConfig, preset, toy_config
from .engine import (GenerationRequest, GenerationResult, OpCounters, OptimizedEngine,
                     ReferenceEngine, ToyWeights, load_weights, save_weights,
                     weight_layout)
from .fusion import OpGraph, OpNode, apply_fusion_passes, build_standard_decoder_graph, op_count_report
from .kvcache import (CacheShapeParams, MemoryLedger, PromptKV, ResponseKV, StandardKV,
                      cache_token_bytes, kv_bytes, segment_cache_bytes,
                      simulate_decode_memory, standard_cache_bytes)
from .ops import (LayerWeights, fused_qkv, gated_mlp, linear, rmsnorm, rope, rope_table,
                  to_batch_first, to_sequence_first)
from .sdpa import (OnlineSoftmax, SdpaDecodeInputs, sdpa_decode_fused, sdpa_decode_oracle,
                   sdpa_materialized, sdpa_prefill)

__all__ = [
    "BeamSearchState", "beam_step", "build_gather_indices",
    "PRESETS", "ModelConfig", "preset", "toy_config",
    "GenerationRequest", "GenerationResult", "OpCounters", "OptimizedEngine",
    "ReferenceEngine", "ToyWeights", "load_weights", "save_weights", "weight_layout",
    "OpGraph", "OpNode", "apply_fusion_passes", "build_standard_decoder_graph",
    "op_count_report",
    "CacheShapeParams", "MemoryLedger", "PromptKV", "ResponseKV",
    "StandardKV", "cache_token_bytes", "kv_bytes", "segment_cache_bytes",
    "simulate_decode_memory", "standard_cache_bytes",
    "LayerWeights", "fused_qkv", "gated_mlp", "linear", "rmsnorm", "rope", "rope_table",
    "to_batch_first", "to_sequence_first",
    "OnlineSoftmax", "SdpaDecodeInputs", "sdpa_decode_fused", "sdpa_decode_oracle",
    "sdpa_materialized", "sdpa_prefill",
]

__version__ = "0.1.0"
