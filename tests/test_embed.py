import numpy as np
import pytest

from deltascan.cfg import analyze_contract, extract_paths
from deltascan.encoder import embed, embed_function, train_vocabulary
from deltascan.encoder.params import init_params
from deltascan.encoder.vocab import Vocabulary
from deltascan.errors import EmptyFunction
from fixtures import (MINT_SIGNATURE, build_contract, cei_mint_body,
                      getter_body, loop_body, make_corpus, setter_body,
                      vulnerable_mint_body)
from oracles.attention_ref import encode_reference


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


def test_block_vectors_match_oracle(small_vocab, params, config,
                                    monkeypatch):
    """Encoder rewrites keep block vectors within 1e-5 of the reference."""
    code = build_contract([("approve(address,uint256)", setter_body(1))])
    fn, emb = _embed(code, small_vocab, params, config)
    monkeypatch.setattr(embed, "encode_sequences", encode_reference)
    _, ref = _embed(code, small_vocab, params, config)
    assert len(emb.block_vectors) == len(fn.blocks) > 1
    for a, b in zip(emb.block_vectors, ref.block_vectors):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-5)


def test_block_vectors_are_pinned(params, config):
    """Golden block vectors of the guarded setter under the full encoder:
    each block's norm and first four components. Word vectors are seeded,
    not trained, so only the encoder's numerics move this pin; a change
    to them must update it on purpose."""
    fn = analyze_contract(build_contract(
        [("approve(address,uint256)", setter_body(1))])).functions[0]
    tokens = sorted({ins.opcode.mnemonic for block in fn.blocks
                     for ins in block.instructions})
    rng = np.random.default_rng(0)
    vocab = Vocabulary({t: rng.standard_normal(config.word_dim)
                        .astype(np.float32) for t in tokens},
                       config.word_dim, b"")
    emb = embed_function(fn, extract_paths(fn), vocab, params, config)
    golden = [
        (1.217757, [-0.0123, -0.08284, 0.232287, -0.159222]),
        (0.946413, [0.016841, -0.044035, 0.121874, -0.083968]),
        (1.04475, [0.026197, -0.051311, 0.173162, -0.147315]),
    ]
    assert len(emb.block_vectors) == len(golden)
    for vec, (norm, head) in zip(emb.block_vectors, golden):
        np.testing.assert_allclose(np.linalg.norm(vec), norm, rtol=0,
                                   atol=1e-5)
        np.testing.assert_allclose(vec[:4], head, rtol=0, atol=1e-5)


def test_mint_selector_discrimination(params, config):
    """Under the mint selector, the full encoder's distance from the
    vulnerable mint (max over a body's blocks of the distance to the
    nearest vulnerable block, as the decision rule measures it) is 0 for a
    clone at another slot and rises from CEI to getter to setter to loop.
    CEI and the getter still fall within the default threshold 0.1."""
    corpus = []
    for _, _, code in make_corpus(3, seed=7):
        for fn in analyze_contract(code).functions:
            corpus += [[ins.opcode.mnemonic for bid in path.blocks
                        for ins in fn.blocks[bid].instructions]
                       for path in extract_paths(fn)]
    vocab = train_vocabulary(corpus, config)

    def blocks(body):
        fn = analyze_contract(build_contract(
            [(MINT_SIGNATURE, body)])).functions[0]
        return embed_function(fn, extract_paths(fn), vocab, params,
                              config).block_vectors

    vulnerable = np.stack(blocks(vulnerable_mint_body(5)))
    distance = {}
    for name, body in [("clone", vulnerable_mint_body(9)),
                       ("cei", cei_mint_body(5)), ("getter", getter_body(5)),
                       ("setter", setter_body(5)), ("loop", loop_body(3))]:
        distance[name] = max(
            float(np.sqrt(((vulnerable - vec) ** 2).sum(axis=1).min()))
            for vec in blocks(body))
    assert distance["clone"] == 0.0
    assert (distance["cei"] < distance["getter"] < distance["setter"]
            < distance["loop"])
    assert distance["setter"] > 0.1 and distance["loop"] > 0.1


def test_shared_dict_encodes_each_distinct_path_once(small_vocab, params,
                                                     config, monkeypatch):
    """Functions sharing one dict encode a path once, in one call per
    function with misses, and embed bit-identically to separate calls."""
    code = build_contract([("approve(address,uint256)", setter_body(1)),
                           ("setConfig(uint256)", setter_body(2)),
                           ("mint(address,uint256)", vulnerable_mint_body(3))])
    functions = [(fn, extract_paths(fn))
                 for fn in analyze_contract(code).functions]
    alone = [embed_function(fn, paths, small_vocab, params, config)
             for fn, paths in functions]
    batches = []
    encode = embed.encode_sequences

    def counted(batch, *args):
        batches.append(len(batch))
        return encode(batch, *args)
    monkeypatch.setattr(embed, "encode_sequences", counted)
    encoded = {}
    shared = [embed_function(fn, paths, small_vocab, params, config,
                             encoded=encoded)
              for fn, paths in functions]
    distinct = {tuple(ins.opcode.mnemonic for bid in p.blocks
                      for ins in fn.blocks[bid].instructions)
                for fn, paths in functions for p in paths}
    assert sum(batches) == len(encoded) == len(distinct)
    assert len(batches) < len(functions)  # the twin setter needs no call
    for a, b in zip(alone, shared):
        assert a.paths_truncated == b.paths_truncated
        assert [v.tobytes() for v in a.block_vectors] == \
            [v.tobytes() for v in b.block_vectors]
