import numpy as np
import pytest

from deltascan.cfg import analyze_contract
from deltascan.encoder import (build_instruction_graph, encode_graph,
                               fuse_block, pool_block, InstructionGraph)
from deltascan.errors import DimensionMismatch
from fixtures import build_contract, setter_body
from oracles.gat_ref import dense_gat


def _fused_for(cfg, config, value=0.5):
    return {b.block_id: np.full((b.instr_count, config.seq_dim), value,
                                dtype=np.float32) for b in cfg.blocks}


def _single_function(code):
    analysis = analyze_contract(code)
    return analysis.functions[0]


def test_graph_construction_counts(config):
    # one function with an internal branch: check node/edge bookkeeping
    fn = _single_function(build_contract([
        ("setApprovalForAll(address,bool)", setter_body(3))]))
    graph = build_instruction_graph(fn, _fused_for(fn, config))
    total = sum(b.instr_count for b in fn.blocks)
    assert graph.features.shape == (total, config.seq_dim)
    assert len(graph.edges_seq) == sum(b.instr_count - 1 for b in fn.blocks)
    # one E_CFG edge per successor of a block
    assert len(graph.edges_cfg) == sum(len(dsts) for dsts in fn.successors)
    # E_CFG edges go last-instruction -> first-instruction
    spans = dict(enumerate(graph.block_spans))
    for src_node, dst_node in graph.edges_cfg:
        assert any(src_node == first + count - 1
                   for first, count in graph.block_spans)
        assert any(dst_node == first for first, count in graph.block_spans)
    # disjoint by construction
    assert not (set(graph.edges_cfg) & set(graph.edges_seq))


def test_node_order_is_block_then_intra_index(config):
    fn = _single_function(build_contract([
        ("setApprovalForAll(address,bool)", setter_body(3))]))
    fused = {b.block_id: np.arange(b.instr_count, dtype=np.float32)[:, None]
             * np.ones(config.seq_dim, dtype=np.float32) + b.block_id * 100
             for b in fn.blocks}
    graph = build_instruction_graph(fn, fused)
    cursor = 0
    for block in fn.blocks:
        first, count = graph.block_spans[block.block_id]
        assert first == cursor
        np.testing.assert_array_equal(graph.features[first:first + count],
                                      fused[block.block_id])
        cursor += count


def test_encode_graph_matches_dense_oracle(params, config):
    """3-node chain fixture (and a denser 6-node graph) against the dense
    reference implementation."""
    rng = np.random.default_rng(11)
    for n, edges in [(3, [(0, 1), (1, 2)]),
                     (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])]:
        feats = rng.standard_normal((n, config.seq_dim)).astype(np.float32)
        graph = InstructionGraph(feats, ((0, n),), tuple(edges), ())
        ours = encode_graph(graph, params)
        ref = dense_gat(feats, edges, params.gat_layers)
        assert ours.shape == (n, config.graph_dim)
        assert np.abs(ours - ref).max() <= 1e-5


def test_encode_graph_high_fan_in_unsorted_edges(params, config):
    """A JUMPDEST reached by a dynamic JUMP: one node with 91 in-edges,
    edges listed out of dst order, and a node with no edges at all."""
    rng = np.random.default_rng(12)
    n, hub, isolated = 100, 95, 99
    feats = rng.standard_normal((n, config.seq_dim)).astype(np.float32)
    edges = [(i, hub) for i in range(90)]
    edges += [(i, i + 1) for i in range(90, 98)]
    edges += [(hub, i) for i in range(0, 90, 9)]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    assert [d for _, d in edges] != sorted(d for _, d in edges)
    assert all(isolated not in edge for edge in edges)
    half = len(edges) // 2
    graph = InstructionGraph(feats, ((0, n),), tuple(edges[:half]),
                             tuple(edges[half:]))
    ours = encode_graph(graph, params)
    ref = dense_gat(feats, edges, params.gat_layers)
    assert ours.shape == (n, config.graph_dim)
    assert np.abs(ours - ref).max() <= 1e-5


def test_encode_graph_unit_basis_chain(params, config):
    feats = np.zeros((3, config.seq_dim), dtype=np.float32)
    feats[0, 0] = feats[1, 1] = feats[2, 2] = 1.0
    graph = InstructionGraph(feats, ((0, 3),), ((0, 1), (1, 2)), ())
    ours = encode_graph(graph, params)
    ref = dense_gat(feats, [(0, 1), (1, 2)], params.gat_layers)
    assert np.abs(ours - ref).max() <= 1e-5


def test_isolated_node_self_loop_only(params, config):
    feats = np.ones((1, config.seq_dim), dtype=np.float32)
    graph = InstructionGraph(feats, ((0, 1),), (), ())
    out = encode_graph(graph, params)
    assert out.shape == (1, config.graph_dim)
    assert np.isfinite(out).all()


def test_permutation_equivariance(params, config):
    rng = np.random.default_rng(21)
    feats = rng.standard_normal((4, config.seq_dim)).astype(np.float32)
    edges = [(0, 1), (1, 2), (2, 3)]
    base = encode_graph(InstructionGraph(feats, ((0, 4),), tuple(edges), ()),
                        params)
    perm = [2, 0, 3, 1]  # new label of old node i
    p_edges = tuple((perm[a], perm[b]) for a, b in edges)
    p_feats = np.empty_like(feats)
    for old, new in enumerate(perm):
        p_feats[new] = feats[old]
    permuted = encode_graph(InstructionGraph(p_feats, ((0, 4),), p_edges, ()),
                            params)
    for old, new in enumerate(perm):
        np.testing.assert_allclose(permuted[new], base[old], atol=1e-5)


def test_encode_graph_rejects_bad_input(params, config):
    with pytest.raises(DimensionMismatch):
        encode_graph(InstructionGraph(np.zeros((0, config.seq_dim),
                                               dtype=np.float32),
                                      (), (), ()), params)
    with pytest.raises(DimensionMismatch):
        encode_graph(InstructionGraph(np.zeros((2, 7), dtype=np.float32),
                                      ((0, 2),), (), ()), params)


def test_pool_identical_rows_is_identity(params, config):
    v = np.full((5, config.graph_dim), 1.75, dtype=np.float32)
    np.testing.assert_allclose(pool_block(v, params), v[0], atol=1e-6)


def test_pool_single_row_is_identity(params, config):
    row = np.arange(config.graph_dim, dtype=np.float32)[None, :]
    np.testing.assert_allclose(pool_block(row, params), row[0], atol=1e-6)


def test_pool_matches_hand_computation(params, config):
    rng = np.random.default_rng(31)
    v = rng.standard_normal((2, config.graph_dim)).astype(np.float32)
    w, a = params.pool[config.graph_dim]
    scores = np.array([float(a @ np.tanh(w @ v[0])),
                       float(a @ np.tanh(w @ v[1]))])
    e = np.exp(scores - scores.max())
    weights = e / e.sum()
    expected = weights[0] * v[0] + weights[1] * v[1]
    np.testing.assert_allclose(pool_block(v, params), expected, atol=1e-6)


def test_pool_stays_in_convex_hull(params, config):
    rng = np.random.default_rng(41)
    v = rng.standard_normal((6, config.graph_dim)).astype(np.float32)
    pooled = pool_block(v, params)
    assert (pooled <= v.max(axis=0) + 1e-6).all()
    assert (pooled >= v.min(axis=0) - 1e-6).all()


def test_fused_rows_must_match_instr_count(config):
    fn = _single_function(build_contract([
        ("setApprovalForAll(address,bool)", setter_body(3))]))
    fused = _fused_for(fn, config)
    first = fn.blocks[0].block_id
    fused[first] = fused[first][:-1]
    with pytest.raises(DimensionMismatch):
        build_instruction_graph(fn, fused)


def test_cfg_edges_follow_successor_lists(config):
    """E_CFG holds each successor pair, mapped from the last instruction of
    its source block to the first of its destination, in successor-list
    order: by source block, then by destination block."""
    fn = _single_function(build_contract([
        ("setApprovalForAll(address,bool)", setter_body(3))]))
    graph = build_instruction_graph(fn, _fused_for(fn, config))
    spans = graph.block_spans
    expected = [(spans[src][0] + spans[src][1] - 1, spans[dst][0])
                for src, dsts in enumerate(fn.successors) for dst in dsts]
    assert len(expected) > 1
    assert graph.edges_cfg == tuple(expected)
    assert list(graph.edges_cfg) == sorted(set(graph.edges_cfg))
