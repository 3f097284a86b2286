import numpy as np
import pytest

from deltascan.cfg import analyze_contract, extract_paths
from deltascan.encoder import embed_function, sequence
from deltascan.encoder.params import init_params
from deltascan.errors import EmptyFunction
from fixtures import build_contract, setter_body, vulnerable_mint_body
from oracles.attention_ref import attention_layer


def _embed(code, vocab, params, config, **kwargs):
    analysis = analyze_contract(code)
    fn = analysis.functions[0]
    paths = extract_paths(fn)
    return fn, embed_function(fn, paths, vocab, params, config, **kwargs)


def test_single_block_function_shape(small_vocab, params, config):
    fn, emb = _embed(build_contract([("mint(address,uint256)",
                                      vulnerable_mint_body(2))]),
                     small_vocab, params, config)
    assert len(emb.block_vectors) == len(fn.blocks)
    for vec in emb.block_vectors:
        assert vec.shape == (config.block_dim,)
        assert vec.dtype == np.float32
        assert np.isfinite(vec).all()
    assert emb.selector == fn.selector
    assert emb.function_id == fn.function_id


def test_embedding_deterministic_across_runs(small_vocab, config):
    code = build_contract([("approve(address,uint256)", setter_body(1))])
    p1, p2 = init_params(config), init_params(config)
    _, e1 = _embed(code, small_vocab, p1, config)
    _, e2 = _embed(code, small_vocab, p2, config)
    for a, b in zip(e1.block_vectors, e2.block_vectors):
        assert a.tobytes() == b.tobytes()


def test_all_variants_yield_block_dim_vectors(small_vocab, params, config):
    code = build_contract([("approve(address,uint256)", setter_body(1))])
    for use_seq, use_graph in [(True, True), (False, True),
                               (True, False), (False, False)]:
        _, emb = _embed(code, small_vocab, params, config,
                        use_sequence=use_seq, use_graph=use_graph)
        for vec in emb.block_vectors:
            assert vec.shape == (config.block_dim,)
            assert np.isfinite(vec).all()


def test_variants_differ_from_full_pipeline(small_vocab, params, config):
    code = build_contract([("approve(address,uint256)", setter_body(1))])
    _, full = _embed(code, small_vocab, params, config)
    for kwargs in [{"use_sequence": False}, {"use_graph": False},
                   {"use_sequence": False, "use_graph": False}]:
        _, variant = _embed(code, small_vocab, params, config, **kwargs)
        deltas = [float(np.linalg.norm(a - b)) for a, b in
                  zip(full.block_vectors, variant.block_vectors)]
        assert max(deltas) > 0.0


def test_unreachable_block_uses_fallback(small_vocab, params, config):
    code = build_contract([("approve(address,uint256)", setter_body(1))])
    analysis = analyze_contract(code)
    fn = analysis.functions[0]
    # starve the path budget so only one path exists; blocks off that path
    # must fall back to projected word embeddings
    paths = extract_paths(fn, max_paths=1)
    covered = set(paths[0].blocks)
    emb = embed_function(fn, paths, small_vocab, params, config)
    assert emb.fallback_blocks == len(fn.blocks) - len(covered)
    full = embed_function(fn, extract_paths(fn), small_vocab, params, config)
    assert full.fallback_blocks < emb.fallback_blocks or \
        full.fallback_blocks == 0


def test_truncation_counter(small_vocab, params, config):
    # a long straight-line body overflows m_max in a single path
    from fixtures import Asm

    def body(a, tag):
        a.op("JUMPDEST")
        for _ in range(config.m_max):
            a.op("DUP1").op("POP")
        a.op("STOP")
    code = build_contract([("approve(address,uint256)", body)])
    fn = analyze_contract(code).functions[0]
    emb = embed_function(fn, extract_paths(fn), small_vocab, params, config)
    assert emb.paths_truncated >= 1
    assert all(np.isfinite(v).all() for v in emb.block_vectors)


def test_empty_function_rejected(small_vocab, params, config):
    from deltascan.cfg import FunctionCfg
    empty = FunctionCfg((b"", 0), None, 0, (), frozenset())
    with pytest.raises(EmptyFunction):
        embed_function(empty, [], small_vocab, params, config)


def test_embedding_independent_of_other_functions(small_vocab, params, config):
    # the same function body embeds identically regardless of siblings
    body = vulnerable_mint_body(4)
    solo = build_contract([("mint(address,uint256)", body)])
    pair = build_contract([("mint(address,uint256)", body),
                           ("approve(address,uint256)", setter_body(1))])

    def mint_embedding(code):
        analysis = analyze_contract(code)
        fn = next(f for f in analysis.functions
                  if f.selector == bytes.fromhex("40c10f19"))
        return embed_function(fn, extract_paths(fn), small_vocab, params,
                              config)
    a = mint_embedding(solo)
    b = mint_embedding(pair)
    assert len(a.block_vectors) == len(b.block_vectors)
    for va, vb in zip(a.block_vectors, b.block_vectors):
        assert va.tobytes() == vb.tobytes()


def test_block_vectors_match_einsum_oracle(small_vocab, params, config,
                                           monkeypatch):
    """Encoder rewrites keep block vectors within 1e-5 of the reference."""
    code = build_contract([("approve(address,uint256)", setter_body(1))])
    fn, emb = _embed(code, small_vocab, params, config)
    monkeypatch.setattr(sequence, "_attention_layer", attention_layer)
    _, ref = _embed(code, small_vocab, params, config)
    assert len(emb.block_vectors) == len(fn.blocks) > 1
    for a, b in zip(emb.block_vectors, ref.block_vectors):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-5)
