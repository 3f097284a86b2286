"""Instruction-level graph construction, graph-attention encoding, and
per-block attention pooling.

Each instruction of a function is a node; control-flow edges connect the
last instruction of a block to the first of its successor, and sequential
edges connect adjacent instructions within a block. Attention coefficients
are additive scores with leaky slope 0.2; the update nonlinearity is the
exponential linear unit. Heads are concatenated on all but the final layer,
which averages them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cfg import FunctionCfg
from ..errors import DimensionMismatch
from .params import EncoderParams

__all__ = ["InstructionGraph", "build_instruction_graph", "union_graphs",
           "encode_graph", "pool_block"]

_LEAKY_SLOPE = np.float32(0.2)


@dataclass(frozen=True)
class InstructionGraph:
    features: np.ndarray    # num_nodes x d
    block_spans: tuple      # block_id -> (first_node, instr_count)
    edges_cfg: tuple        # (src_node, dst_node)
    edges_seq: tuple


def build_instruction_graph(cfg: FunctionCfg, fused: dict) -> InstructionGraph:
    """Assemble node features from per-block fused matrices, in
    (block_id, intra-block index) order. CFG edges follow the function's
    successor lists: by source block, then by destination block."""
    spans = []
    rows = []
    cursor = 0
    for block in cfg.blocks:
        z = fused[block.block_id]
        if z.shape[0] != block.instr_count:
            raise DimensionMismatch(
                f"block {block.block_id}: {z.shape[0]} rows for "
                f"{block.instr_count} instructions")
        spans.append((cursor, block.instr_count))
        rows.append(np.asarray(z, dtype=np.float32))
        cursor += block.instr_count
    features = np.concatenate(rows, axis=0) if rows else np.zeros((0, 0), np.float32)

    edges_seq = []
    for first, count in spans:
        for t in range(count - 1):
            edges_seq.append((first + t, first + t + 1))
    edges_cfg = [(first + count - 1, spans[dst][0])
                 for (first, count), dsts in zip(spans, cfg.successors)
                 for dst in dsts]
    return InstructionGraph(features, tuple(spans), tuple(edges_cfg),
                            tuple(edges_seq))


def union_graphs(graphs) -> InstructionGraph:
    """The disjoint union of instruction graphs: their nodes end to end, in
    order, with each graph's spans and edges shifted by its first node.
    Attention is node-local, so encoding the union encodes each graph."""
    spans, edges_cfg, edges_seq = [], [], []
    offset = 0
    for g in graphs:
        spans += [(first + offset, count) for first, count in g.block_spans]
        edges_cfg += [(s + offset, d + offset) for s, d in g.edges_cfg]
        edges_seq += [(s + offset, d + offset) for s, d in g.edges_seq]
        offset += g.features.shape[0]
    return InstructionGraph(np.concatenate([g.features for g in graphs]),
                            tuple(spans), tuple(edges_cfg), tuple(edges_seq))


def _elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, np.float32(0.0)))).astype(
        np.float32, copy=False)


def _leaky_relu(x):
    return np.where(x > 0, x, _LEAKY_SLOPE * x).astype(np.float32, copy=False)


def _gat_layer(x, src, dst, starts, layer, average_heads):
    """One attention layer, all heads at once: ``layer["w"]`` holds the
    heads' (d_in, head_dim) weights side by side, and the head count is
    that of the (heads, head_dim) ``layer["a_src"]``. The edges are sorted
    by ``dst`` and ``starts[i]`` is where node ``i``'s in-edges begin;
    every node has a self-loop, so no segment is empty."""
    heads, head_dim = layer["a_src"].shape
    n = x.shape[0]
    proj = (x @ layer["w"]).reshape(n, heads, head_dim)
    score_src = np.einsum("nhd,hd->nh", proj, layer["a_src"])
    score_dst = np.einsum("nhd,hd->nh", proj, layer["a_dst"])
    edge_score = _leaky_relu(score_src[src] + score_dst[dst])   # (E, H)

    # softmax over each node's in-edges
    seg_max = np.maximum.reduceat(edge_score, starts, axis=0)
    exp_score = np.exp(edge_score - seg_max[dst])
    denom = np.add.reduceat(exp_score, starts, axis=0)
    coeff = exp_score / denom[dst]

    agg = np.add.reduceat(coeff[:, :, None] * proj[src], starts, axis=0)
    out = _elu(agg)                                             # (N, H, dh)
    if average_heads:
        return out.mean(axis=1)
    return out.reshape(n, heads * head_dim)


def encode_graph(graph: InstructionGraph, params: EncoderParams) -> np.ndarray:
    """Run the attention layers over CFG+sequence edges plus self-loops.
    Returns refined node states of shape (num_nodes, graph_dim)."""
    seq_dim = params.config.seq_dim
    x = graph.features.astype(np.float32)
    n = x.shape[0]
    if n == 0:
        raise DimensionMismatch("graph has no nodes")
    if x.shape[1] != seq_dim:
        raise DimensionMismatch(f"node dim {x.shape[1]} != {seq_dim}")
    if n == 1:
        # numpy sends a one-row product to gemv, which rounds differently
        # from the gemm of larger graphs: add an isolated copy of the node
        return encode_graph(union_graphs([graph, graph]), params)[:1]
    edges = np.array(graph.edges_cfg + graph.edges_seq,
                     dtype=np.int64).reshape(-1, 2)
    loops = np.arange(n, dtype=np.int64)
    src = np.concatenate([edges[:, 0], loops])
    dst = np.concatenate([edges[:, 1], loops])
    # group the edges by destination, keeping their order within a group
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    starts = np.searchsorted(dst, loops)
    last = len(params.gat_layers) - 1
    for idx, layer in enumerate(params.gat_layers):
        x = _gat_layer(x, src, dst, starts, layer, average_heads=(idx == last))
    return x


def pool_block(node_states: np.ndarray, params: EncoderParams) -> np.ndarray:
    """softmax(a^T tanh(W V^T)) V — a convex combination of the block's
    instruction states."""
    v = np.asarray(node_states, dtype=np.float32)
    if v.ndim != 2 or v.shape[0] < 1:
        raise DimensionMismatch("node_states must be a nonempty 2-D array")
    dim = v.shape[1]
    if dim not in params.pool:
        raise DimensionMismatch(f"no pooling parameters for dim {dim}")
    w, a = params.pool[dim]
    scores = a @ np.tanh(w @ v.T)  # (k,)
    scores = scores - scores.max()
    weights = np.exp(scores)
    weights /= weights.sum()
    return (weights @ v).astype(np.float32)
