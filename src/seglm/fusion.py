"""Decoder-layer operator graphs and the fusion passes that shrink them.

``build_standard_decoder_graph`` emits the conventional Llama-style layer
(primitive norm chains, separate q/k/v projections, transpose / cat /
index-select data movement around attention, standalone element-wise ops).
``apply_fusion_passes`` removes the data movement, merges the projections,
collapses the primitive chains and absorbs element-wise successors, leaving
exactly nine fused operations. Analysis only: graphs are never executed.
"""
from __future__ import annotations

import heapq
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

TAG_NAMES = ("data-movement", "element-wise", "fused-module")


def tags_for(kind: str) -> tuple[str, ...]:
    tags = []
    if kind in DATA_MOVEMENT:
        tags.append("data-movement")
    if kind in ELEMENT_WISE:
        tags.append("element-wise")
    if kind in FUSED_MODULE:
        tags.append("fused-module")
    return tuple(tags)


@dataclass
class OpNode:
    id: int
    kind: str
    role: str = ""  # builder hint consumed by the fusion passes

    @property
    def tags(self) -> tuple[str, ...]:
        return tags_for(self.kind)


class OpGraph:
    """Directed acyclic operator graph for one decoder layer."""

    def __init__(self, phase: str):
        if phase not in ("prefill", "decode"):
            raise ValueError(f"phase must be 'prefill' or 'decode', got {phase!r}")
        self.phase = phase
        self.nodes: dict[int, OpNode] = {}
        self.edges: set[tuple[int, int]] = set()
        self._next_id = 0

    def add(self, kind: str, role: str = "") -> int:
        if kind not in KINDS:
            raise ValueError(f"unknown op kind {kind!r}")
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = OpNode(nid, kind, role)
        return nid

    def connect(self, src: int, dst: int) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise ValueError("edge endpoints must be existing nodes")
        self.edges.add((src, dst))

    def preds(self, nid: int) -> list[int]:
        return sorted(s for s, d in self.edges if d == nid)

    def succs(self, nid: int) -> list[int]:
        return sorted(d for s, d in self.edges if s == nid)

    def copy(self) -> "OpGraph":
        g = OpGraph(self.phase)
        g.nodes = {i: OpNode(n.id, n.kind, n.role) for i, n in self.nodes.items()}
        g.edges = set(self.edges)
        g._next_id = self._next_id
        return g

    def remove_splice(self, nid: int) -> None:
        """Delete a node, reconnecting its predecessors to its successors."""
        ps, ss = self.preds(nid), self.succs(nid)
        self.edges = {(s, d) for s, d in self.edges if s != nid and d != nid}
        for p in ps:
            for s in ss:
                self.edges.add((p, s))
        del self.nodes[nid]

    def merge(self, ids, kind: str, role: str = "") -> int:
        """Replace a node set by one fused node inheriting all external edges."""
        group = set(ids)
        new = self.add(kind, role)
        for s, d in list(self.edges):
            if s in group and d in group:
                self.edges.discard((s, d))
            elif s in group:
                self.edges.discard((s, d))
                self.edges.add((new, d))
            elif d in group:
                self.edges.discard((s, d))
                self.edges.add((s, new))
        for nid in group:
            del self.nodes[nid]
        return new

    def entries(self) -> list[int]:
        have_pred = {d for _, d in self.edges}
        return sorted(i for i in self.nodes if i not in have_pred)

    def exits(self) -> list[int]:
        have_succ = {s for s, _ in self.edges}
        return sorted(i for i in self.nodes if i not in have_succ)

    def is_acyclic(self) -> bool:
        return len(self._topo_order()) == len(self.nodes)

    def _topo_order(self) -> list[int]:
        indeg = {i: 0 for i in self.nodes}
        for _, d in self.edges:
            indeg[d] += 1
        ready = [i for i, k in indeg.items() if k == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for s in self.succs(n):
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
        return order

    def node_list(self) -> list[OpNode]:
        """Nodes in deterministic (topological, id-tie-broken) order."""
        order = self._topo_order()
        if len(order) != len(self.nodes):  # cyclic fallback; never hit for valid graphs
            order = sorted(self.nodes)
        return [self.nodes[i] for i in order]

    def count_kind(self, kind: str) -> int:
        return sum(1 for n in self.nodes.values() if n.kind == kind)

    def count_tag(self, tag: str) -> int:
        return sum(1 for n in self.nodes.values() if tag in n.tags)


def build_standard_decoder_graph(phase: str) -> OpGraph:
    """Conventional decoder layer: fine-grained primitives plus the transpose /
    cat / index-select data movement around attention.

    Past-KV index-select nodes are wired from this layer's own K/V projection
    output (the time-collapsed cache edge) so the layer keeps a single entry.
    """
    g = OpGraph(phase)
    decode = phase == "decode"

    def rms_chain(role: str, src: int | None) -> tuple[int, int]:
        prims = [g.add("RMSNormPrimitive", f"{role}.{p}")
                 for p in ("pow", "mean", "add", "rsqrt", "mul")]
        for a, b in zip(prims, prims[1:]):
            g.connect(a, b)
        if src is not None:
            g.connect(src, prims[0])
        return prims[0], prims[-1]

    def rope_chain(role: str, src: int) -> int:
        a = g.add("RoPEPrimitive", f"{role}.rotate_even")
        b = g.add("RoPEPrimitive", f"{role}.rotate_odd")
        g.connect(src, a)
        g.connect(a, b)
        return b

    _, n1 = rms_chain("attn_norm", None)

    lin_q = g.add("Linear", "q_proj")
    lin_k = g.add("Linear", "k_proj")
    lin_v = g.add("Linear", "v_proj")
    for lin in (lin_q, lin_k, lin_v):
        g.connect(n1, lin)

    rope_q = rope_chain("rope_q", lin_q)
    rope_k = rope_chain("rope_k", lin_k)

    t_q = g.add("Transpose", "q")
    t_k = g.add("Transpose", "k")
    t_v = g.add("Transpose", "v")
    g.connect(rope_q, t_q)
    g.connect(rope_k, t_k)
    g.connect(lin_v, t_v)

    if decode:
        is_k = g.add("IndexSelect", "past_k")
        is_v = g.add("IndexSelect", "past_v")
        cat_k = g.add("Cat", "k")
        cat_v = g.add("Cat", "v")
        g.connect(rope_k, is_k)
        g.connect(lin_v, is_v)
        g.connect(t_k, cat_k)
        g.connect(is_k, cat_k)
        g.connect(t_v, cat_v)
        g.connect(is_v, cat_v)
        k_src, v_src = cat_k, cat_v
    else:
        k_src, v_src = t_k, t_v

    gemm_qk = g.add("BatchGeMM", "qk")
    g.connect(t_q, gemm_qk)
    g.connect(k_src, gemm_qk)
    sm_in = gemm_qk
    if not decode:  # a single decode query attends everything; no mask needed
        mask = g.add("Mask", "causal")
        g.connect(gemm_qk, mask)
        sm_in = mask
    sm = g.add("Softmax", "attn")
    g.connect(sm_in, sm)
    gemm_pv = g.add("BatchGeMM", "pv")
    g.connect(sm, gemm_pv)
    g.connect(v_src, gemm_pv)

    t_ctx = g.add("Transpose", "ctx")
    g.connect(gemm_pv, t_ctx)
    lin_o = g.add("Linear", "o_proj")
    g.connect(t_ctx, lin_o)
    add1 = g.add("ElementwiseAdd", "residual_attn")
    g.connect(lin_o, add1)

    _, n2 = rms_chain("mlp_norm", add1)
    lin_gate = g.add("Linear", "gate_proj")
    lin_up = g.add("Linear", "up_proj")
    g.connect(n2, lin_gate)
    g.connect(n2, lin_up)
    act = g.add("Activation", "gate_act")
    g.connect(lin_gate, act)
    mul = g.add("ElementwiseMul", "gate_mul")
    g.connect(act, mul)
    g.connect(lin_up, mul)
    lin_down = g.add("Linear", "down_proj")
    g.connect(mul, lin_down)
    add2 = g.add("ElementwiseAdd", "residual_mlp")
    g.connect(lin_down, add2)
    g.connect(add1, add2)

    return g


def _components(g: OpGraph, ids: set[int]) -> list[set[int]]:
    """Weakly connected components of the subgraph induced on ``ids``."""
    remaining = set(ids)
    comps = []
    adj: dict[int, set[int]] = {i: set() for i in ids}
    for s, d in g.edges:
        if s in ids and d in ids:
            adj[s].add(d)
            adj[d].add(s)
    while remaining:
        seed = min(remaining)
        comp, frontier = {seed}, [seed]
        while frontier:
            n = frontier.pop()
            for m in adj[n]:
                if m not in comp:
                    comp.add(m)
                    frontier.append(m)
        comps.append(comp)
        remaining -= comp
    return sorted(comps, key=min)


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

    qkv = sorted(i for i, n in g.nodes.items()
                 if n.kind == "Linear" and n.role in ("q_proj", "k_proj", "v_proj"))
    if len(qkv) == 3:
        g.merge(qkv, "FusedQKVLinear", "qkv_proj")

    rms = {i for i, n in g.nodes.items() if n.kind == "RMSNormPrimitive"}
    for comp in _components(g, rms):
        role = g.nodes[min(comp)].role.split(".")[0]
        g.merge(comp, "FusedRMSNorm", role)

    rope = {i for i, n in g.nodes.items() if n.kind == "RoPEPrimitive"}
    if rope:
        g.merge(rope, "FusedRoPE", "rope")

    sdpa = {i for i, n in g.nodes.items() if n.kind in ("BatchGeMM", "Mask", "Softmax")}
    if sdpa:
        g.merge(sdpa, "FusedSDPA", "sdpa")

    absorb_kind = {
        "Activation": "LinearActivation",
        "ElementwiseMul": "LinearMul",
        "ElementwiseAdd": "LinearAddResidual",
    }
    for ew_kind in ("Activation", "ElementwiseMul", "ElementwiseAdd"):
        for nid in sorted(i for i, n in g.nodes.items() if n.kind == ew_kind):
            if nid not in g.nodes:
                continue
            lin_preds = [p for p in g.preds(nid) if g.nodes[p].kind == "Linear"]
            if len(lin_preds) == 1:
                g.merge([lin_preds[0], nid], absorb_kind[ew_kind], g.nodes[lin_preds[0]].role)

    return g


def op_count_report(g: OpGraph) -> dict:
    """Deterministic histogram of a graph's ops by kind and by tag."""
    nodes = g.node_list()
    by_kind = dict(sorted(Counter(n.kind for n in nodes).items()))
    by_tag = {tag: sum(1 for n in nodes if tag in n.tags) for tag in TAG_NAMES}
    return {
        "phase": g.phase,
        "nodes": [{"kind": n.kind, "tags": list(n.tags)} for n in nodes],
        "counts": {"by_kind": by_kind, "by_tag": by_tag},
        "total": len(nodes),
    }
