"""Decoder-layer operator graphs and the fusion passes that shrink them.

A graph is an ordered node list: each node names the ids of the nodes it
reads, and every node is placed after its inputs, so the list is always in
topological order and the edges follow from the inputs.

``build_standard_decoder_graph`` emits the conventional Llama-style layer
(primitive norm chains, separate q/k/v projections, transpose / cat /
index-select data movement around attention, standalone element-wise ops).
``apply_fusion_passes`` removes the data movement, merges the projections,
collapses the primitive chains and absorbs element-wise successors, leaving
exactly nine fused operations. Analysis only: graphs are never executed.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


DATA_MOVEMENT = frozenset({"Transpose", "Cat", "IndexSelect"})
ELEMENT_WISE = frozenset({"ElementwiseAdd", "ElementwiseMul", "Activation"})
FUSED_MODULE = frozenset({
    "FusedRMSNorm", "FusedQKVLinear", "FusedRoPE", "FusedSDPA",
    "LinearAddResidual", "LinearActivation", "LinearMul",
})

KINDS = frozenset({
    "Linear", "RMSNormPrimitive", "RoPEPrimitive", "BatchGeMM", "Softmax",
    "Mask", "Transpose", "Cat", "IndexSelect", "ElementwiseAdd",
    "ElementwiseMul", "Activation",
}) | FUSED_MODULE

TAGS = {"data-movement": DATA_MOVEMENT, "element-wise": ELEMENT_WISE,
        "fused-module": FUSED_MODULE}


@dataclass
class OpNode:
    id: int
    kind: str
    role: str = ""  # builder hint consumed by the fusion passes
    inputs: tuple[int, ...] = ()  # ids of the nodes this one reads

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(tag for tag, kinds in TAGS.items() if self.kind in kinds)


class OpGraph:
    """Operator graph for one decoder layer, as nodes in topological order."""

    def __init__(self, phase: str):
        if phase not in ("prefill", "decode"):
            raise ValueError(f"phase must be 'prefill' or 'decode', got {phase!r}")
        self.phase = phase
        self.nodes: dict[int, OpNode] = {}

    def add(self, kind: str, role: str = "", *inputs: int) -> int:
        """Append a node that reads ``inputs``, which must already be in the graph."""
        if kind not in KINDS:
            raise ValueError(f"unknown op kind {kind!r}")
        missing = [i for i in inputs if i not in self.nodes]
        if missing:
            raise ValueError(f"input ids {missing} are not nodes of the graph")
        nid = max(self.nodes, default=-1) + 1  # a removed id is read by no node
        self.nodes[nid] = OpNode(nid, kind, role, tuple(inputs))
        return nid

    @property
    def edges(self) -> set[tuple[int, int]]:
        return {(src, n.id) for n in self.nodes.values() for src in n.inputs}

    def copy(self) -> "OpGraph":
        g = OpGraph(self.phase)
        g.nodes = {i: OpNode(n.id, n.kind, n.role, n.inputs) for i, n in self.nodes.items()}
        return g

    def _redirect(self, group: set[int], to: tuple[int, ...]) -> None:
        """Make every reader of a node in ``group`` read ``to`` in its place."""
        for n in self.nodes.values():
            if not group.isdisjoint(n.inputs):
                ins = [j for i in n.inputs for j in (to if i in group else (i,))]
                n.inputs = tuple(dict.fromkeys(ins))

    def remove_splice(self, nid: int) -> None:
        """Delete a node; its readers read its inputs instead."""
        self._redirect({nid}, self.nodes.pop(nid).inputs)

    def merge(self, ids, kind: str, role: str = "") -> int:
        """Replace a node set by one fused node, placed where the last of them
        was, that reads their outside inputs and is read by their readers."""
        group = set(ids)
        members = [n for n in self.nodes.values() if n.id in group]
        inputs = dict.fromkeys(i for n in members for i in n.inputs if i not in group)
        fused = self.nodes.pop(self.add(kind, role, *inputs))
        nodes = {}
        for nid, n in self.nodes.items():
            if nid == members[-1].id:
                nodes[fused.id] = fused
            elif nid not in group:
                nodes[nid] = n
        self.nodes = nodes
        self._redirect(group, (fused.id,))
        return fused.id

    def entries(self) -> list[int]:
        return [i for i, n in self.nodes.items() if not n.inputs]

    def exits(self) -> list[int]:
        read = {src for n in self.nodes.values() for src in n.inputs}
        return [i for i in self.nodes if i not in read]

    def is_acyclic(self) -> bool:
        """True when every node reads only nodes placed before it."""
        placed: set[int] = set()
        for nid, n in self.nodes.items():
            if not placed.issuperset(n.inputs):
                return False
            placed.add(nid)
        return True

    def node_list(self) -> list[OpNode]:
        """Nodes in graph (topological) order."""
        return list(self.nodes.values())

    def count_kind(self, kind: str) -> int:
        return sum(1 for n in self.nodes.values() if n.kind == kind)


def build_standard_decoder_graph(phase: str) -> OpGraph:
    """Conventional decoder layer: fine-grained primitives plus the transpose /
    cat / index-select data movement around attention.

    Past-KV index-select nodes read this layer's own K/V projection output
    (the time-collapsed cache edge) so the layer keeps a single entry.
    """
    g = OpGraph(phase)
    decode = phase == "decode"

    def chain(kind: str, role: str, steps: tuple[str, ...], *src: int) -> int:
        for step in steps:
            src = (g.add(kind, f"{role}.{step}", *src),)
        return src[0]

    norm_steps = ("pow", "mean", "add", "rsqrt", "mul")
    rope_steps = ("rotate_even", "rotate_odd")

    n1 = chain("RMSNormPrimitive", "attn_norm", norm_steps)
    lin_q = g.add("Linear", "q_proj", n1)
    lin_k = g.add("Linear", "k_proj", n1)
    lin_v = g.add("Linear", "v_proj", n1)
    rope_q = chain("RoPEPrimitive", "rope_q", rope_steps, lin_q)
    rope_k = chain("RoPEPrimitive", "rope_k", rope_steps, lin_k)

    t_q = g.add("Transpose", "q", rope_q)
    t_k = g.add("Transpose", "k", rope_k)
    t_v = g.add("Transpose", "v", lin_v)
    if decode:
        is_k = g.add("IndexSelect", "past_k", rope_k)
        is_v = g.add("IndexSelect", "past_v", lin_v)
        k_src = g.add("Cat", "k", t_k, is_k)
        v_src = g.add("Cat", "v", t_v, is_v)
    else:
        k_src, v_src = t_k, t_v

    scores = g.add("BatchGeMM", "qk", t_q, k_src)
    if not decode:  # a single decode query attends everything; no mask needed
        scores = g.add("Mask", "causal", scores)
    sm = g.add("Softmax", "attn", scores)
    gemm_pv = g.add("BatchGeMM", "pv", sm, v_src)

    t_ctx = g.add("Transpose", "ctx", gemm_pv)
    lin_o = g.add("Linear", "o_proj", t_ctx)
    add1 = g.add("ElementwiseAdd", "residual_attn", lin_o)

    n2 = chain("RMSNormPrimitive", "mlp_norm", norm_steps, add1)
    lin_gate = g.add("Linear", "gate_proj", n2)
    lin_up = g.add("Linear", "up_proj", n2)
    act = g.add("Activation", "gate_act", lin_gate)
    mul = g.add("ElementwiseMul", "gate_mul", act, lin_up)
    lin_down = g.add("Linear", "down_proj", mul)
    g.add("ElementwiseAdd", "residual_mlp", lin_down, add1)

    return g


def apply_fusion_passes(g: OpGraph) -> OpGraph:
    """Layout-elimination plus fusion, applied in order:

    1. delete all data-movement nodes (transpose / cat / index-select),
    2. merge the q/k/v projections into one fused projection,
    3. collapse norm / rotary / attention primitive chains into single kernels,
    4. absorb element-wise successors into their preceding Linear.

    Idempotent: running the passes on an already-fused graph changes nothing.
    """
    g = g.copy()

    for nid in [i for i, n in g.nodes.items() if "data-movement" in n.tags]:
        g.remove_splice(nid)

    qkv = [i for i, n in g.nodes.items()
           if n.kind == "Linear" and n.role in ("q_proj", "k_proj", "v_proj")]
    if len(qkv) == 3:
        g.merge(qkv, "FusedQKVLinear", "qkv_proj")

    norms: dict[str, list[int]] = {}  # one chain per role prefix, e.g. "attn_norm.*"
    for i, n in g.nodes.items():
        if n.kind == "RMSNormPrimitive":
            norms.setdefault(n.role.split(".")[0], []).append(i)
    for role, chain in norms.items():
        g.merge(chain, "FusedRMSNorm", role)

    rope = [i for i, n in g.nodes.items() if n.kind == "RoPEPrimitive"]
    if rope:
        g.merge(rope, "FusedRoPE", "rope")

    sdpa = [i for i, n in g.nodes.items() if n.kind in ("BatchGeMM", "Mask", "Softmax")]
    if sdpa:
        g.merge(sdpa, "FusedSDPA", "sdpa")

    absorb_kind = {
        "Activation": "LinearActivation",
        "ElementwiseMul": "LinearMul",
        "ElementwiseAdd": "LinearAddResidual",
    }
    for ew_kind, fused_kind in absorb_kind.items():
        for nid in [i for i, n in g.nodes.items() if n.kind == ew_kind]:
            lin_inputs = [i for i in g.nodes[nid].inputs if g.nodes[i].kind == "Linear"]
            if len(lin_inputs) == 1:
                g.merge([lin_inputs[0], nid], fused_kind, g.nodes[lin_inputs[0]].role)

    return g


def op_count_report(g: OpGraph) -> dict:
    """Deterministic histogram of a graph's ops by kind and by tag."""
    nodes = g.node_list()
    by_kind = dict(sorted(Counter(n.kind for n in nodes).items()))
    by_tag = {tag: sum(1 for n in nodes if tag in n.tags) for tag in TAGS}
    return {
        "phase": g.phase,
        "nodes": [{"kind": n.kind, "tags": list(n.tags)} for n in nodes],
        "counts": {"by_kind": by_kind, "by_tag": by_tag},
        "total": len(nodes),
    }
