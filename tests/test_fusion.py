import json
from collections import Counter

import pytest

from seglm.fusion import (OpGraph, apply_fusion_passes, build_standard_decoder_graph,
                          op_count_report)

# Golden node totals for our primitive decomposition; the class-level
# constraints below are asserted independently of these.
N_STD_DECODE = 36
N_STD_PREFILL = 33

OPTIMIZED_KINDS = [
    "FusedRMSNorm", "FusedQKVLinear", "FusedRoPE", "FusedSDPA",
    "LinearAddResidual", "FusedRMSNorm", "LinearActivation", "LinearMul",
    "LinearAddResidual",
]


def test_decode_graph_cat_and_index_select_counts():
    g = build_standard_decoder_graph("decode")
    assert g.count_kind("Cat") == 2
    assert g.count_kind("IndexSelect") == 2
    assert g.count_kind("Transpose") == 4  # q, k, v and the context
    assert g.count_kind("Linear") == 7
    assert g.count_kind("BatchGeMM") == 2
    assert g.count_kind("Softmax") == 1


def test_prefill_graph_has_no_past_kv_ops():
    g = build_standard_decoder_graph("prefill")
    assert g.count_kind("IndexSelect") == 0
    assert g.count_kind("Cat") == 0
    assert g.count_kind("Mask") == 1


def test_standard_node_totals_pinned():
    assert len(build_standard_decoder_graph("decode").nodes) == N_STD_DECODE
    assert len(build_standard_decoder_graph("prefill").nodes) == N_STD_PREFILL
    assert N_STD_DECODE > 9 and N_STD_PREFILL > 9


def test_graph_is_acyclic_single_entry_single_exit():
    for phase in ("prefill", "decode"):
        g = build_standard_decoder_graph(phase)
        assert g.is_acyclic()
        assert len(g.entries()) == 1
        assert len(g.exits()) == 1
        o = apply_fusion_passes(g)
        assert o.is_acyclic()
        assert len(o.entries()) == 1
        assert len(o.exits()) == 1


@pytest.mark.parametrize("phase", ["prefill", "decode"])
def test_fused_graph_has_exactly_nine_ops(phase):
    o = apply_fusion_passes(build_standard_decoder_graph(phase))
    assert len(o.nodes) == 9
    assert [n.kind for n in o.node_list()] == OPTIMIZED_KINDS


@pytest.mark.parametrize("phase", ["prefill", "decode"])
def test_fused_graph_removes_orange_and_yellow_classes(phase):
    o = apply_fusion_passes(build_standard_decoder_graph(phase))
    by_tag = op_count_report(o)["counts"]["by_tag"]
    assert by_tag["data-movement"] == 0
    assert by_tag["element-wise"] == 0


def test_fusion_is_idempotent():
    g = build_standard_decoder_graph("decode")
    once = apply_fusion_passes(g)
    twice = apply_fusion_passes(once)
    assert [n.kind for n in once.node_list()] == [n.kind for n in twice.node_list()]
    assert len(once.edges) == len(twice.edges)
    assert op_count_report(once)["counts"] == op_count_report(twice)["counts"]


def test_fusion_is_deterministic():
    a = op_count_report(apply_fusion_passes(build_standard_decoder_graph("decode")))
    b = op_count_report(apply_fusion_passes(build_standard_decoder_graph("decode")))
    assert a == b


def test_report_empty_graph_is_all_zeros():
    rep = op_count_report(OpGraph("decode"))
    assert rep["total"] == 0
    assert rep["counts"]["by_kind"] == {}
    assert all(v == 0 for v in rep["counts"]["by_tag"].values())


def test_report_histogram_matches_node_multiset():
    g = build_standard_decoder_graph("decode")
    rep = op_count_report(g)
    assert rep["counts"]["by_kind"] == dict(sorted(Counter(
        n.kind for n in g.nodes.values()).items()))
    assert rep["total"] == len(g.nodes)
    assert sum(rep["counts"]["by_kind"].values()) == rep["total"]


def test_decode_histogram_matches_hand_enumeration():
    """Golden tally of the builder's emission list: two 5-primitive norm
    chains, q/k/v/o + gate/up/down projections, two 2-primitive rotary
    chains, per-tensor transposes, past-KV gather + concat pairs, the
    two-GeMM attention core, and the element-wise tail."""
    expected = {
        "Activation": 1,
        "BatchGeMM": 2,
        "Cat": 2,
        "ElementwiseAdd": 2,
        "ElementwiseMul": 1,
        "IndexSelect": 2,
        "Linear": 7,
        "RMSNormPrimitive": 10,
        "RoPEPrimitive": 4,
        "Softmax": 1,
        "Transpose": 4,
    }
    rep = op_count_report(build_standard_decoder_graph("decode"))
    assert rep["counts"]["by_kind"] == expected
    assert rep["total"] == sum(expected.values()) == 36


def test_report_is_json_serializable_and_tagged():
    g = build_standard_decoder_graph("decode")
    rep = op_count_report(g)
    parsed = json.loads(json.dumps(rep))
    assert parsed["phase"] == "decode"
    movement = [n for n in parsed["nodes"] if "data-movement" in n["tags"]]
    assert len(movement) == rep["counts"]["by_tag"]["data-movement"] == 8


def test_unknown_phase_rejected():
    with pytest.raises(ValueError):
        build_standard_decoder_graph("training")


FUSED_EDGES = sorted([
    (("FusedRMSNorm", "attn_norm"), ("FusedQKVLinear", "qkv_proj")),
    (("FusedQKVLinear", "qkv_proj"), ("FusedRoPE", "rope")),
    (("FusedQKVLinear", "qkv_proj"), ("FusedSDPA", "sdpa")),
    (("FusedRoPE", "rope"), ("FusedSDPA", "sdpa")),
    (("FusedSDPA", "sdpa"), ("LinearAddResidual", "o_proj")),
    (("LinearAddResidual", "o_proj"), ("FusedRMSNorm", "mlp_norm")),
    (("LinearAddResidual", "o_proj"), ("LinearAddResidual", "down_proj")),
    (("FusedRMSNorm", "mlp_norm"), ("LinearActivation", "gate_proj")),
    (("FusedRMSNorm", "mlp_norm"), ("LinearMul", "up_proj")),
    (("LinearActivation", "gate_proj"), ("LinearMul", "up_proj")),
    (("LinearMul", "up_proj"), ("LinearAddResidual", "down_proj")),
])


@pytest.mark.parametrize("phase,n_std_edges", [("decode", 41), ("prefill", 36)])
def test_graph_wiring_pinned(phase, n_std_edges):
    """Which nodes are linked, not only how many: every fused edge by
    (kind, role), the standard edge total, and the entry / exit roles."""
    def key(g, nid):
        return g.nodes[nid].kind, g.nodes[nid].role

    std = build_standard_decoder_graph(phase)
    fused = apply_fusion_passes(std)
    assert len(std.edges) == n_std_edges
    assert [key(std, i) for i in std.entries()] == [("RMSNormPrimitive", "attn_norm.pow")]
    assert [key(std, i) for i in std.exits()] == [("ElementwiseAdd", "residual_mlp")]
    assert sorted((key(fused, s), key(fused, d)) for s, d in fused.edges) == FUSED_EDGES
    assert [key(fused, i) for i in fused.entries()] == [("FusedRMSNorm", "attn_norm")]
    assert [key(fused, i) for i in fused.exits()] == [("LinearAddResidual", "down_proj")]


def test_graph_guards():
    g = OpGraph("decode")
    with pytest.raises(ValueError, match="unknown op kind"):
        g.add("Conv2d", "x")
    a = g.add("Linear", "a")
    with pytest.raises(ValueError, match="not nodes of the graph"):
        g.add("Linear", "b", a, 99)
    b = g.add("Linear", "b", a)
    c = g.add("Linear", "c", b)
    assert g.is_acyclic()
    g.merge([a, c], "LinearMul", "ac")  # b now reads the fused node and feeds it
    assert not g.is_acyclic()
