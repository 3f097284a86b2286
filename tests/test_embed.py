import numpy as np
import pytest

from deltascan.cfg import analyze_contract, enumerate_paths
from deltascan.encoder import (embed, embed_contract, embed_function,
                               embed_path, encode_sequences, fuse_block,
                               train_vocabulary)
from deltascan.encoder import memo as memo_module
from deltascan.encoder.params import init_params
from deltascan.encoder.vocab import Vocabulary
from deltascan.errors import EmptyFunction
from fixtures import (MINT_SIGNATURE, build_contract, cei_mint_body,
                      getter_body, loop_body, make_corpus, setter_body,
                      token_bytes, vulnerable_mint_body)
from oracles.attention_ref import encode_reference


def _embed(code, vocab, params, config, **kwargs):
    analysis = analyze_contract(code)
    fn = analysis.functions[0]
    paths = enumerate_paths(fn).paths
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


@pytest.mark.parametrize("change", [{"seq_heads": 4}, {"m_max": 8},
                                    {"seed": 7}, {"alpha": 0.3}],
                         ids=["seq_heads", "m_max", "seed", "alpha"])
def test_embed_function_refuses_another_config(small_vocab, params, config,
                                               change):
    """The encoder's settings are those its params were drawn for: a config
    that differs from ``params.config`` is refused, not mixed in."""
    from dataclasses import replace
    code = build_contract([(MINT_SIGNATURE, vulnerable_mint_body(3))])
    with pytest.raises(ValueError):
        _embed(code, small_vocab, params, replace(config, **change))
    fn, emb = _embed(code, small_vocab, params, replace(config))
    (alone,) = embed_contract([(fn, enumerate_paths(fn).paths)], small_vocab,
                              params)
    assert _bits([emb]) == _bits([alone])


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


def test_start_positions_are_cumulative_instr_counts(small_vocab, params,
                                                    config, monkeypatch):
    """Fusion reads each block's slice of an encoded path where the
    instructions of the blocks before it on the path end."""
    fused = []

    def record(occurrences, *args):
        fused.append([(rows.tobytes(), start) for rows, start in occurrences])
        return fuse_block(occurrences, *args)
    monkeypatch.setattr(embed, "fuse_block", record)
    code = build_contract([("transferFrom(address,address,uint256)",
                            setter_body(4)), ("owner()", loop_body(3))])
    longest = 0
    for fn in analyze_contract(code).functions:
        paths = enumerate_paths(fn).paths
        longest = max(longest, *(len(p.blocks) for p in paths))
        expected = [[] for _ in fn.blocks]
        for p in paths:
            tokens = b"".join(fn.blocks[bid].ops for bid in p.blocks)
            (rows,) = encode_sequences(
                [embed_path(tokens, small_vocab, config)], params)
            for k, bid in enumerate(p.blocks):
                start = sum(fn.blocks[b].instr_count for b in p.blocks[:k])
                count = fn.blocks[bid].instr_count
                expected[bid].append((rows[start:start + count].tobytes(),
                                      start))
        fused.clear()
        embed_function(fn, paths, small_vocab, params, config)
        assert fused == [occ for occ in expected if occ]
    assert longest == 3  # the loop's paths


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
    paths = enumerate_paths(fn, max_paths=1).paths
    covered = set(paths[0].blocks)
    emb = embed_function(fn, paths, small_vocab, params, config)
    assert emb.fallback_blocks == len(fn.blocks) - len(covered)
    full = embed_function(fn, enumerate_paths(fn).paths, small_vocab, params,
                          config)
    assert full.fallback_blocks < emb.fallback_blocks or \
        full.fallback_blocks == 0


def test_sequence_off_makes_every_block_a_fallback_block(small_vocab, params,
                                                         config):
    """With the sequence stage off no path is encoded, so every block takes
    the fallback rows, whatever paths the function has."""
    code = build_contract([("approve(address,uint256)", setter_body(1))])
    fn = analyze_contract(code).functions[0]
    for paths in (enumerate_paths(fn).paths, enumerate_paths(fn, 1).paths):
        for use_graph in (True, False):
            emb = embed_function(fn, paths, small_vocab, params, config,
                                 use_sequence=False, use_graph=use_graph)
            assert (emb.fallback_blocks, emb.paths_truncated) == (
                len(fn.blocks), 0)


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
    emb = embed_function(fn, enumerate_paths(fn).paths, small_vocab, params,
                         config)
    assert emb.paths_truncated >= 1
    assert all(np.isfinite(v).all() for v in emb.block_vectors)


def test_empty_function_rejected(small_vocab, params, config):
    from deltascan.cfg import FunctionCfg
    empty = FunctionCfg((b"", 0), None, 0, (), ())
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
        return embed_function(fn, enumerate_paths(fn).paths, small_vocab,
                              params, config)
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
    emb = embed_function(fn, enumerate_paths(fn).paths, vocab, params, config)
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
            corpus += [token_bytes([ins.opcode.mnemonic for bid in path.blocks
                                    for ins in fn.blocks[bid].instructions])
                       for path in enumerate_paths(fn).paths]
    vocab = train_vocabulary(corpus, config)

    def blocks(body):
        fn = analyze_contract(build_contract(
            [(MINT_SIGNATURE, body)])).functions[0]
        return embed_function(fn, enumerate_paths(fn).paths, vocab, params,
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


def _items(code, max_paths=None):
    return [(fn, enumerate_paths(fn).paths if max_paths is None
             else enumerate_paths(fn, max_paths=max_paths).paths)
            for fn in analyze_contract(code).functions if fn.blocks]


def _straight_line_body(length):
    def body(a, tag):
        a.op("JUMPDEST")
        for _ in range(length):
            a.op("DUP1").op("POP")
        a.op("STOP")
    return body


VARIANTS = [(True, True), (False, True), (True, False), (False, False)]


@pytest.mark.parametrize("use_sequence, use_graph", VARIANTS,
                         ids=["full", "no_sequence", "no_graph", "no_both"])
def test_contract_pass_equals_per_function(small_vocab, params, config,
                                           use_sequence, use_graph):
    """One contract pass gives every function the bits embed_function gives
    it alone: functions that share paths (twin setters), a one-token path
    (the lone STOP of a contract without a dispatcher: one graph node), a
    path budget that leaves fallback blocks, and a path cut at m_max."""
    items = _items(build_contract([
        ("approve(address,uint256)", setter_body(1)),
        ("setConfig(uint256)", setter_body(2)),
        ("owner()", getter_body(3)),
        ("mint(address,uint256)", vulnerable_mint_body(3))]))
    items += _items(bytes.fromhex("00"))
    items.append((items[0][0],
                  enumerate_paths(items[0][0], max_paths=1).paths))
    items += _items(build_contract([
        ("approve(address,uint256)", _straight_line_body(config.m_max))]))
    assert [len(fn.blocks[0].instructions) for fn, _ in items].count(1) == 1

    together = embed_contract(items, small_vocab, params,
                              use_sequence, use_graph)
    assert len(together) == len(items)
    for (fn, paths), emb in zip(items, together):
        alone = embed_function(fn, paths, small_vocab, params, config,
                               use_sequence, use_graph)
        assert emb.function_id == alone.function_id
        assert emb.paths_truncated == alone.paths_truncated
        assert emb.fallback_blocks == alone.fallback_blocks
        assert [v.tobytes() for v in emb.block_vectors] == \
            [v.tobytes() for v in alone.block_vectors]
    assert any(emb.fallback_blocks for emb in together)
    assert any(emb.paths_truncated for emb in together) == use_sequence


def test_contract_pass_rejects_a_function_without_blocks(small_vocab, params,
                                                         config):
    from deltascan.cfg import FunctionCfg
    empty = FunctionCfg((b"", 0), None, 0, (), ())
    items = _items(build_contract([("owner()", getter_body(0))]))
    with pytest.raises(EmptyFunction):
        embed_contract(items + [(empty, [])], small_vocab, params)
    stats = {}
    assert embed_contract([], small_vocab, params, stats=stats) == []
    assert stats["paths_encoded"] == 0


def test_contract_pass_encodes_each_distinct_path_once(small_vocab, params,
                                                       config, monkeypatch):
    """A contract pass makes one encode_sequences call, holding each
    distinct path of its functions once, and one encode_graph call over the
    instructions of its distinct functions: a twin is served the entry of
    the first, even without a memo. ``stats`` counts the functions and
    paths and times the stages."""
    items = _items(build_contract([
        ("approve(address,uint256)", setter_body(1)),
        ("setConfig(uint256)", setter_body(2)),
        ("mint(address,uint256)", vulnerable_mint_body(3))]))
    batches, nodes = [], []
    encode_sequences, encode_graph = embed.encode_sequences, embed.encode_graph

    def count_paths(batch, *args):
        batches.append(len(batch))
        return encode_sequences(batch, *args)

    def count_nodes(graph, *args):
        nodes.append(graph.features.shape[0])
        return encode_graph(graph, *args)
    monkeypatch.setattr(embed, "encode_sequences", count_paths)
    monkeypatch.setattr(embed, "encode_graph", count_nodes)
    stats = {}
    together = embed_contract(items, small_vocab, params, stats=stats)
    paths = [tuple(ins.opcode.mnemonic for bid in p.blocks
                   for ins in fn.blocks[bid].instructions)
             for fn, paths in items for p in paths]
    assert batches == [stats["paths_encoded"]] == [len(set(paths))]
    assert len(set(paths)) < len(paths)  # the twin setter adds no path
    distinct = {tuple(tuple(ins.opcode.mnemonic for ins in b.instructions)
                      for b in fn.blocks): fn for fn, _ in items}
    assert stats["functions_reused"] == len(items) - len(distinct) == 1
    assert nodes == [sum(b.instr_count for fn in distinct.values()
                         for b in fn.blocks)]
    assert set(stats) == {"functions_reused", "paths_encoded", *embed.STAGES}
    assert all(stats[name] >= 0 for name in embed.STAGES)
    assert _bits(together) == _bits([embed_function(
        fn, paths, small_vocab, params, config) for fn, paths in items])


def _memo_items(config, slot):
    """Functions whose paths include a one-token path (a contract without
    a dispatcher) and a path cut at m_max; ``slot`` changes immediates
    only, so every slot gives the same token paths."""
    items = _items(build_contract([
        ("approve(address,uint256)", setter_body(slot)),
        ("mint(address,uint256)", vulnerable_mint_body(slot))]))
    items += _items(bytes.fromhex("00"))
    items += _items(build_contract([
        ("approve(address,uint256)", _straight_line_body(config.m_max))]))
    return items


def _bits(embeddings) -> list:
    return [(e.function_id, e.paths_truncated, e.fallback_blocks,
             [v.tobytes() for v in e.block_vectors]) for e in embeddings]


def test_memo_hits_give_the_bits_of_embed_function(small_vocab, config,
                                                   monkeypatch):
    """Clones of the functions a pass over another contract embedded (one
    with a one-token path, one with a path cut at m_max) are served from
    the memo whole, with the bits embed_function gives each alone: the
    second pass encodes nothing. Under another variant the functions are
    embedded again, their paths encoded again."""
    params = init_params(config)
    memo = params.memo.bind(small_vocab)
    first = _memo_items(config, 1)
    stats = {}
    embed_contract(first, small_vocab, params, stats=stats, memo=memo)
    encoded = stats["paths_encoded"]
    # one entry per distinct function: the two fallbacks are twins, so the
    # pass embeds one and serves the other
    assert len(memo) == len(first) - stats["functions_reused"]
    assert stats["functions_reused"] == 1
    assert memo.nbytes == sum(array.nbytes for array, _ in memo.values())
    assert any(truncated for _, (truncated, _) in memo.values())
    assert min(len(vectors) for vectors, _ in memo.values()) == 1

    clones = _memo_items(config, 7)
    assert [fn.function_id for fn, _ in clones] != \
        [fn.function_id for fn, _ in first]
    alone = {use_graph: [embed_function(fn, paths, small_vocab,
                                        init_params(config), config,
                                        use_graph=use_graph)
                         for fn, paths in clones]
             for use_graph in (True, False)}
    calls = []
    encode_sequences = embed.encode_sequences

    def count(batch, *args):
        calls.append(len(batch))
        return encode_sequences(batch, *args)
    monkeypatch.setattr(embed, "encode_sequences", count)
    stats = {}
    served = embed_contract(clones, small_vocab, params, stats=stats,
                            memo=memo)
    assert stats["functions_reused"] == len(clones)
    assert stats["paths_encoded"] == 0 and calls == []
    assert _bits(served) == _bits(alone[True])
    stats = {}
    served = embed_contract(clones, small_vocab, params, use_graph=False,
                            stats=stats, memo=memo)
    assert stats["functions_reused"] == 1  # the twin fallback only
    assert calls == [stats["paths_encoded"]] == [encoded]
    assert _bits(served) == _bits(alone[False])
    assert any(e.paths_truncated for e in served)


def _swap_opcode(fn, block_id, position, mnemonic):
    """``fn`` with one instruction's opcode replaced by ``mnemonic``."""
    from dataclasses import replace
    from deltascan.evm import OPCODES, disassemble
    opcode = next(op for op in OPCODES if op.mnemonic == mnemonic)
    block = fn.blocks[block_id]
    i = block.lo + position
    code = bytearray(block.program.code_body)
    code[block.program.starts[i]] = opcode.byte_value
    program = disassemble(bytes(code))
    assert program.starts == block.program.starts
    assert program.instruction(i).opcode == opcode
    blocks = list(fn.blocks)
    blocks[block_id] = replace(block, program=program)
    return replace(fn, blocks=tuple(blocks))


def test_memo_misses_a_function_one_opcode_edge_or_path_away(small_vocab,
                                                             config):
    """A function that differs from a memo entry in one opcode, one edge or
    one path is embedded, not served, and gets the bits of embed_function;
    one that differs in immediates only is served."""
    from dataclasses import replace
    fn, paths = _items(build_contract([
        ("approve(address,uint256)", setter_body(1))]))[0]
    assert len(paths) == 2 and sum(map(len, fn.successors)) > 1
    params = init_params(config)
    memo = params.memo.bind(small_vocab)
    embed_contract([(fn, paths)], small_vocab, params, memo=memo)
    clone, clone_paths = _items(build_contract([
        ("approve(address,uint256)", setter_body(9))]))[0]
    last = fn.blocks[-1].instr_count - 1
    assert fn.blocks[-1].instructions[last].opcode.mnemonic != "RETURN"
    swapped = _swap_opcode(fn, len(fn.blocks) - 1, last, "RETURN")
    # drop the last edge: the last successor of the last block that has one
    src = max(i for i, dsts in enumerate(fn.successors) if dsts)
    successors = list(fn.successors)
    successors[src] = successors[src][:-1]
    for item, reused in [
            ((clone, clone_paths), 1),
            ((swapped, paths), 0),
            ((replace(fn, successors=tuple(successors)), paths), 0),
            ((fn, paths[:1]), 0),
            ((fn, paths[::-1]), 0)]:
        stats = {}
        (served,) = embed_contract([item], small_vocab, params, stats=stats,
                                   memo=memo)
        assert stats["functions_reused"] == reused
        assert _bits([served]) == _bits([embed_function(
            *item, small_vocab, init_params(config), config)])
    # each miss was added: a second pass serves all of them
    stats = {}
    embed_contract([(swapped, paths), (fn, paths[:1])], small_vocab, params,
                   stats=stats, memo=memo)
    assert stats["functions_reused"] == 2


def test_memo_rows_are_read_only(small_vocab, config):
    params = init_params(config)
    memo = params.memo.bind(small_vocab)
    embed_contract(_memo_items(config, 1), small_vocab, params, memo=memo)
    for rows, _ in memo.values():
        assert not rows.flags.writeable and rows.base is None
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


def test_memo_resets_on_another_vocabulary(small_vocab, config):
    """A memo filled under one vocabulary object is emptied, not served,
    when bound to another vocabulary object, even an equal one."""
    params = init_params(config)
    items = _memo_items(config, 1)
    memo = params.memo.bind(small_vocab)
    embed_contract(items, small_vocab, params, memo=memo)
    assert params.memo.bind(small_vocab) is memo and len(memo) > 0

    twin = Vocabulary(small_vocab.vectors, small_vocab.word_dim,
                      small_vocab.training_corpus_hash)
    memo = params.memo.bind(twin)
    assert len(memo) == 0 and memo.nbytes == 0
    stats = {}
    embed_contract(items, twin, params, stats=stats, memo=memo)
    assert stats["functions_reused"] == 1  # the twin fallback only
    assert len(memo) == len(items) - 1


def test_memo_evicts_least_recently_used_past_its_budget(small_vocab, config,
                                                         monkeypatch):
    """The memo never holds more block vector bytes than its budget: the
    entries used least recently go first, and the bits stay those of
    embed_function. A served vector is read-only."""
    budget = 3 * config.block_dim * 4  # three block vectors
    monkeypatch.setattr(memo_module, "MEMO_BYTES", budget)
    params = init_params(config)
    memo = params.memo.bind(small_vocab)
    items = _memo_items(config, 1)
    assert [len(fn.blocks) for fn, _ in items] == [3, 1, 1, 1, 1, 1]
    truncated = reused = 0
    for fn, paths in items + items:
        stats = {}
        served = embed_contract([(fn, paths)], small_vocab, params,
                                stats=stats, memo=memo)
        assert memo.nbytes == sum(a.nbytes for a, _ in memo.values()) <= budget
        assert _bits(served) == _bits([embed_function(
            fn, paths, small_vocab, init_params(config), config)])
        with pytest.raises(ValueError):
            served[0].block_vectors[0][0] = 1.0
        truncated += served[0].paths_truncated
        reused += stats["functions_reused"]
    assert truncated == 2  # the m_max-long path, both times
    # the two fallbacks are twins, three functions apart: the second is
    # served in each round, every other function is evicted before it
    # comes round again
    assert len(memo) == 3 and reused == 2

    # least recently used first: a hit moves an entry to the back, and an
    # eviction drops the oldest entry
    memo.clear()
    vectors = np.ones((1, config.block_dim), np.float32)
    for i, key in enumerate("fgh"):
        memo.add((True, True, key), vectors * i, (0, i))
    assert memo.hit((True, True, "f"))[0].tobytes() == (vectors * 0).tobytes()
    memo.add((True, False, "i"), vectors * 3, (1, 0))
    assert [key[2] for key in memo] == ["h", "f", "i"]
    assert memo.nbytes == 3 * vectors.nbytes
    # an entry past the whole budget is returned, not kept
    big, counts = memo.add((False, True, "j"),
                           np.ones((4, config.block_dim), np.float32), (1, 1))
    assert len(big) == 4 and counts == (1, 1)
    assert len(memo) == 0 and memo.nbytes == 0


def test_embed_function_never_touches_the_params_memo(small_vocab, config):
    params = init_params(config)
    for fn, paths in _memo_items(config, 1):
        embed_function(fn, paths, small_vocab, params, config)
    assert len(params.memo) == 0 and params.memo.owner is None
