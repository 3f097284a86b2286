import hashlib
import io
import json
import re
import shlex
import struct
import sys
import zlib
from dataclasses import fields, replace
from pathlib import Path

import pytest

import deltascan.cfg as cfg
import deltascan.pipeline as pipeline
from deltascan.cfg import analyze_contract, enumerate_paths
from deltascan.cli import _compile_inputs, main, parse_config_file
from deltascan.detectors import signature_selector
from deltascan.encoder import (EmbeddingConfig, embed, embed_contract,
                               embed_function)
from deltascan.encoder.embed import STAGES
from deltascan.index import decide_similar
from deltascan.errors import DeltascanError, VocabularyDiverged
from deltascan.evm import strip_metadata
from deltascan.pipeline import (ABLATION_VARIANTS, DEFAULT_THRESHOLDS,
                                PipelineConfig, cmd_ablate, cmd_detect,
                                cmd_embed, read_bytecode_file)
from fixtures import (MINT_SIGNATURE as MINT, Asm, build_contract,
                      cei_mint_body, getter_body, loop_body, make_corpus,
                      setter_body, vulnerable_mint_body)

APPROVE = "approve(address,uint256)"
BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name, _, code in make_corpus(6, vulnerable=True):
        (root / f"{name}.bin").write_bytes(code)
    return root


@pytest.fixture(scope="module")
def built_index(corpus_dir, tmp_path_factory):
    """Index built once over the vulnerable corpus; reused read-only."""
    index_path = tmp_path_factory.mktemp("idx") / "test.idx"
    config = PipelineConfig(index_path=str(index_path))
    summary = cmd_embed(config, sorted(map(str, corpus_dir.glob("*.bin"))))
    return config, summary


@pytest.fixture(scope="module")
def mixed_inputs(corpus_dir, tmp_path_factory):
    """The vulnerable corpus (mint) plus an approve setter mapped from an
    external report: an index of them holds two selectors."""
    root = tmp_path_factory.mktemp("mixed")
    (root / "Token.bin").write_bytes(build_contract([
        (APPROVE, setter_body(7)), ("owner()", getter_body(1))]))
    (root / "report.json").write_text(json.dumps([
        {"contract": "Token", "function": APPROVE,
         "defect": "WeakAuthValidation"}]))
    return [*sorted(map(str, corpus_dir.glob("*.bin"))),
            str(root / "Token.bin"), str(root / "report.json")]


@pytest.fixture(scope="module")
def mixed_index(mixed_inputs, tmp_path_factory):
    config = PipelineConfig(
        index_path=str(tmp_path_factory.mktemp("mixed_idx") / "mixed.idx"))
    summary = cmd_embed(config, mixed_inputs)
    assert summary["functions_stored"] == 7
    return config, summary


def _variant_index(inputs, variant) -> tuple:
    """(config, vocabulary, params, index) of an in-memory index that an
    encoder variant builds from ``inputs``, as ``cmd_ablate`` builds it;
    the config's threshold lets every same-selector function match."""
    _, use_sequence, use_graph = variant
    config = PipelineConfig(threshold=float("inf"))
    plan = pipeline._plan_embed(config, inputs)
    params = pipeline.init_params(config.embedding)
    index, _ = pipeline._build_index(plan, params, use_sequence, use_graph)
    return config, plan.vocab, params, index


def test_read_bytecode_file_hex_and_binary(tmp_path):
    hex_file = tmp_path / "a.hex"
    hex_file.write_text("0x6001600201\n")
    assert read_bytecode_file(hex_file) == bytes.fromhex("6001600201")
    bin_file = tmp_path / "b.bin"
    bin_file.write_bytes(b"\x60\x01\x00")
    assert read_bytecode_file(bin_file) == b"\x60\x01\x00"


@pytest.mark.parametrize("content,expected", [
    (b"0x6001", b"\x60\x01"),
    (b"0X6001", b"\x60\x01"),
    (b"6001", b"\x60\x01"),
    (b"ABCDEF", b"\xab\xcd\xef"),
    (b"0xaBcD", b"\xab\xcd"),
    (b"123", b"\x01\x23"),            # odd length: a leading 0 is padded
    (b"0x1", b"\x01"),
    (b"  0x6001 \n", b"\x60\x01"),
    (b"\t6001\r\n", b"\x60\x01"),
    (b"60 01", b"60 01"),               # not hex: the raw bytes
    (b"60g1", b"60g1"),
    (b"0x0x60", b"0x0x60"),
    (b"0x", b"0x"),
    (b" 0x \n", b" 0x \n"),
    (b"", b""),
    (b"\n", b"\n"),
    (b"\xff\x60\x01", b"\xff\x60\x01"),  # non-ASCII
    (b"60\xe9", b"60\xe9"),
    (b"\x60\x01\x00", b"\x60\x01\x00"),  # binary
])
def test_read_bytecode_file_hex_rules(tmp_path, content, expected):
    path = tmp_path / "c.bin"
    path.write_bytes(content)
    assert read_bytecode_file(path) == expected


def test_config_invariants():
    for threshold in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            PipelineConfig(threshold=threshold)
    with pytest.raises(ValueError):
        PipelineConfig(max_paths=0)
    PipelineConfig(threshold=float("inf"))
    # no field selects an encoder variant or seed
    assert [f.name for f in fields(PipelineConfig)] == [
        "embedding", "max_paths", "threshold", "index_path", "cache_dir",
        "api_base_url", "api_key"]


def test_embed_summary(built_index):
    _, summary = built_index
    assert summary["contracts_processed"] == 6
    assert summary["contracts_failed"] == {}
    assert summary["builtin_findings"] == 6
    assert summary["functions_stored"] == 6
    assert summary["vectors_stored"] >= 6
    assert summary["unmapped_records"] == []


def test_embed_zero_defects(tmp_path):
    clean = tmp_path / "clean.bin"
    clean.write_bytes(build_contract([("balanceOf(address)", getter_body(0))]))
    config = PipelineConfig(index_path=str(tmp_path / "c.idx"))
    summary = cmd_embed(config, [str(clean)])
    assert summary["functions_stored"] == 0
    assert summary["vectors_stored"] == 0


def test_embed_deterministic_index_bytes(tmp_path, corpus_dir):
    inputs = sorted(map(str, corpus_dir.glob("*.bin")))[:3]
    p1, p2 = tmp_path / "one.idx", tmp_path / "two.idx"
    cmd_embed(PipelineConfig(index_path=str(p1)), inputs)
    cmd_embed(PipelineConfig(index_path=str(p2)), inputs)
    assert p1.read_bytes() == p2.read_bytes()
    assert Path(str(p1) + ".vocab").read_bytes() == \
        Path(str(p2) + ".vocab").read_bytes()


def test_embed_with_external_report(tmp_path):
    code = build_contract([("transferFrom(address,address,uint256)",
                            setter_body(2))])
    (tmp_path / "Token.bin").write_bytes(code)
    report = [{"contract": "Token",
               "function": "transferFrom(address,address,uint256)",
               "defect": "WeakAuthValidation"},
              {"contract": "Nowhere", "function": "f()",
               "defect": "WeakAuthValidation"}]
    (tmp_path / "report.json").write_text(json.dumps(report))
    config = PipelineConfig(index_path=str(tmp_path / "r.idx"))
    summary = cmd_embed(config, [str(tmp_path / "Token.bin"),
                                 str(tmp_path / "report.json")])
    assert summary["mapped_records"] == 1
    assert summary["functions_stored"] == 1
    assert len(summary["unmapped_records"]) == 1
    # the stored label is retrievable by a detect over the same bytecode
    results = cmd_detect(config, [str(tmp_path / "Token.bin")])
    (res,) = results
    assert [f.matched_function for f in res.findings] == \
        ["transferFrom(address,address,uint256)"]
    assert res.findings[0].defect_class.value == "WeakAuthValidation"


def test_embed_batch_resilience(tmp_path):
    good = tmp_path / "good.bin"
    good.write_bytes(build_contract([("mint(address,uint256)",
                                      vulnerable_mint_body(1))]))
    missing = tmp_path / "missing.bin"
    config = PipelineConfig(index_path=str(tmp_path / "b.idx"))
    summary = cmd_embed(config, [str(good), str(missing)])
    assert summary["contracts_processed"] == 1
    assert str(missing) in summary["contracts_failed"]


def test_detect_self_match(built_index, corpus_dir, tmp_path):
    config, _ = built_index
    copies = []
    for f in sorted(corpus_dir.glob("*.bin")):
        c = tmp_path / ("copy_" + f.name)
        c.write_bytes(f.read_bytes())
        copies.append(str(c))
    results = cmd_detect(config, copies)
    for res in results:
        assert res.error is None
        original = res.contract.removeprefix("copy_")
        self_matches = [f for f in res.findings
                        if f.matched_contract == original]
        assert self_matches, res.contract
        assert all(f.max_block_distance == 0.0 for f in self_matches)
        assert res.timings_ms["embedding"] >= sum(
            res.timings_ms[name] for name in STAGES) >= 0
        assert res.counters["functions_embedded"] >= 1


@pytest.mark.parametrize("variant", ABLATION_VARIANTS,
                         ids=[v[0] for v in ABLATION_VARIANTS])
def test_detect_embeds_under_the_configured_variant(corpus_dir, variant):
    """Each finding of _detect_one under an encoder variant, against the
    index that variant builds, carries the distance that embed_function
    under the same variant gives, function by function, and each contract
    finds its own mint at 0.0."""
    _, use_sequence, use_graph = variant
    files = sorted(map(str, corpus_dir.glob("*.bin")))
    config, vocab, params, index = _variant_index(files, variant)
    for path in files[:2]:
        a = pipeline._analyze_one(Path(path).stem, read_bytecode_file(path),
                                  config.max_paths, index.selectors())
        res = pipeline._detect_one(a, config, index, vocab, params,
                                   use_sequence, use_graph)
        expected = []
        for fn in analyze_contract(read_bytecode_file(path)).functions:
            if fn.blocks:
                emb = embed_function(
                    fn, list(enumerate_paths(fn, config.max_paths).paths),
                    vocab, params, config.embedding,
                    use_sequence=use_sequence, use_graph=use_graph)
                expected += decide_similar(emb, index, config.threshold)
        assert res.findings
        assert [(f.query_function_id, f.matched_contract, f.matched_function,
                 f.max_block_distance) for f in res.findings] == \
            [(f.query_function_id, f.matched_contract, f.matched_function,
              f.max_block_distance) for f in expected]
        assert [f.max_block_distance for f in res.findings
                if f.matched_contract == a.name] == [0.0]


def test_full_variant_builds_the_embedded_index(built_index, corpus_dir,
                                                tmp_path):
    """cmd_embed writes the full variant's in-memory index and vocabulary."""
    config, _ = built_index
    _, vocab, _, index = _variant_index(
        sorted(map(str, corpus_dir.glob("*.bin"))), ABLATION_VARIANTS[0])
    pipeline.save_index(index, tmp_path / "full.idx")
    pipeline.save_vocabulary(vocab, tmp_path / "full.vocab")
    assert (tmp_path / "full.idx").read_bytes() == \
        Path(config.index_path).read_bytes()
    assert (tmp_path / "full.vocab").read_bytes() == \
        Path(config.vocab_path).read_bytes()


def test_detect_counts_distinct_paths_encoded(mixed_index, tmp_path):
    """Twin setters under the two indexed selectors share their paths'
    token sequences, and each distinct one is encoded once."""
    config, _ = mixed_index
    code = build_contract([(MINT, setter_body(1)),
                           (APPROVE, setter_body(2)),
                           ("owner()", getter_body(3))])
    target = tmp_path / "twins.bin"
    target.write_bytes(code)
    (res,) = cmd_detect(config, [str(target)])
    indexed = {signature_selector(MINT), signature_selector(APPROVE)}
    paths = [tuple(ins.opcode.mnemonic for bid in p.blocks
                   for ins in fn.blocks[bid].instructions)
             for fn in analyze_contract(code).functions
             if fn.selector in indexed
             for p in enumerate_paths(fn, config.max_paths).paths]
    assert res.counters["functions_embedded"] == 2
    assert res.counters["paths_encoded"] == len(set(paths)) < len(paths)


def test_detect_refuses_a_config_other_than_its_params_own(mixed_index,
                                                         tmp_path):
    """Handed params, cmd_detect takes no second encoder description: a
    config.embedding other than params.config raises before any scan, an
    equal one scans."""
    config, _ = mixed_index
    target = tmp_path / "mint.bin"
    target.write_bytes(build_contract([(MINT, vulnerable_mint_body(4))]))
    index = pipeline.load_index(config.index_path)
    vocab = pipeline.load_vocabulary(config.vocab_path)
    params = pipeline.init_params(EmbeddingConfig())
    other = replace(config, embedding=EmbeddingConfig(m_max=8))
    with pytest.raises(ValueError, match="encoder params"):
        cmd_detect(other, [str(target)], index=index, vocab=vocab,
                   params=params)
    assert len(params.memo) == 0  # nothing was encoded
    equal = replace(config, embedding=EmbeddingConfig())
    (res,) = cmd_detect(equal, [str(target)], index=index, vocab=vocab,
                        params=params)
    assert res.error is None
    assert res.findings and res.counters["paths_encoded"] > 0


def test_second_detect_serves_every_path_from_the_memo(mixed_index, tmp_path,
                                                       monkeypatch):
    """cmd_detect calls that share params and vocabulary embed a function
    once: a second call over the same contracts makes no encoder call and
    serves every function the first one embedded, with the same findings
    and nearest distances."""
    config, _ = mixed_index
    target = tmp_path / "twins.bin"
    target.write_bytes(build_contract([(MINT, vulnerable_mint_body(4)),
                                       (APPROVE, setter_body(2))]))
    index = pipeline.load_index(config.index_path)
    vocab = pipeline.load_vocabulary(config.vocab_path)
    params = pipeline.init_params(config.embedding)  # an empty memo
    (first,) = cmd_detect(config, [str(target)], index=index, vocab=vocab,
                          params=params)
    assert first.counters["paths_encoded"] > 0
    assert first.counters["functions_reused"] == 0
    calls = []
    for stage in ("encode_sequences", "fuse_block", "encode_graph",
                  "pool_block"):
        monkeypatch.setattr(embed, stage,
                            lambda *args, stage=stage: calls.append(stage))
    (second,) = cmd_detect(config, [str(target)], index=index, vocab=vocab,
                           params=params)
    assert calls == []
    assert second.counters["paths_encoded"] == 0
    assert second.counters["functions_reused"] == \
        second.counters["functions_embedded"] == 2
    assert _finding_bits(second.findings) == _finding_bits(first.findings)
    assert second.nearest == first.nearest


def test_detect_takes_all_three_artifacts_or_none(mixed_index, tmp_path):
    """Handed some of index, vocab and params but not all, cmd_detect
    raises before any scan rather than fail on the missing one."""
    config, _ = mixed_index
    target = tmp_path / "mint.bin"
    target.write_bytes(build_contract([(MINT, vulnerable_mint_body(4))]))
    artifacts = {"index": pipeline.load_index(config.index_path),
                 "vocab": pipeline.load_vocabulary(config.vocab_path),
                 "params": pipeline.init_params(config.embedding)}
    for given in ({"index"}, {"vocab"}, {"params"}, {"index", "vocab"},
                  {"index", "params"}, {"vocab", "params"}):
        with pytest.raises(ValueError, match="together"):
            cmd_detect(config, [str(target)],
                       **{name: artifacts[name] for name in given})
    assert len(artifacts["params"].memo) == 0  # nothing was embedded
    (loaded,) = cmd_detect(config, [str(target)])
    (handed,) = cmd_detect(config, [str(target)], **artifacts)
    assert loaded.error is None and loaded.findings
    assert _finding_bits(handed.findings) == _finding_bits(loaded.findings)


def test_embed_encodes_each_distinct_path_once_across_contracts(
        tmp_path, monkeypatch):
    """cmd_embed shares one memo across its contracts: clones that differ
    in immediates only send their paths to the encoder once."""
    root = tmp_path / "clones"
    root.mkdir()
    for slot in (1, 2, 3):
        (root / f"Clone{slot}.bin").write_bytes(
            build_contract([(MINT, vulnerable_mint_body(slot))]))
    encoded = []
    encode_sequences = embed.encode_sequences

    def count(batch, *args):
        encoded.extend(batch)
        return encode_sequences(batch, *args)
    monkeypatch.setattr(embed, "encode_sequences", count)
    config = PipelineConfig(index_path=str(tmp_path / "clones.idx"))
    summary = cmd_embed(config, sorted(map(str, root.glob("*.bin"))))
    assert summary["functions_stored"] == 3
    fn = analyze_contract((root / "Clone1.bin").read_bytes()).functions[0]
    paths = enumerate_paths(fn, config.max_paths).paths
    assert 0 < len(encoded) == len({tuple(ins.opcode.mnemonic
                                          for bid in p.blocks
                                          for ins in fn.blocks[bid].instructions)
                                    for p in paths})


def test_nearest_same_selector_distance_on_every_embedded_function(
        mixed_index, corpus_dir, tmp_path):
    """``nearest`` holds, per embedded selector, the smallest max block
    distance to a stored function: 0.0 for a self-match, and above the
    threshold for a gated-in function that matches nothing. The findings
    are those of a run that does not ask for it."""
    config, _ = mixed_index
    original = sorted(corpus_dir.glob("*.bin"))[0]
    miss = tmp_path / "miss.bin"
    miss.write_bytes(build_contract([(APPROVE, loop_body(5))]))
    clone, far = cmd_detect(config, [str(original), str(miss)])
    mint, approve = ("0x" + signature_selector(s).hex() for s in (MINT, APPROVE))
    assert clone.nearest[mint] == 0.0
    assert min(f.max_block_distance for f in clone.findings) == 0.0
    assert far.findings == []
    assert set(far.nearest) == {approve}
    assert far.nearest[approve] > config.threshold
    assert far.to_json_dict()["nearest"] == far.nearest
    index = pipeline.load_index(config.index_path)
    emb = embed_function(*_only_function(miss.read_bytes(), APPROVE, config),
                         pipeline.load_vocabulary(config.vocab_path),
                         pipeline.init_params(config.embedding),
                         config.embedding)
    unbounded = decide_similar(emb, index, float("inf"))
    assert far.nearest[approve] == unbounded[0].max_block_distance
    # the distinct stored functions of each embedded function's bucket:
    # the six stored mints are clones, so one of them is compared
    assert len(index.bucket(signature_selector(MINT)).members) == 6
    for res in (clone, far):
        assert res.counters["functions_compared"] == sum(
            len(index.bucket(bytes.fromhex(s[2:])).starts)
            for s in res.nearest) == len(res.nearest)


def _only_function(code, signature, config) -> tuple:
    fn = next(f for f in analyze_contract(code).functions
              if f.selector == signature_selector(signature))
    return fn, list(enumerate_paths(fn, config.max_paths).paths)


def _mixed_contract() -> bytes:
    """Indexed selectors (mint, approve), unindexed ones (a getter, a
    loop), and the dispatcher's anonymous fallback."""
    return build_contract([("owner()", getter_body(4)),
                           (MINT, cei_mint_body(9)),
                           ("setConfig(uint256)", loop_body(3)),
                           (APPROVE, getter_body(2))])


def _finding_bits(findings) -> list:
    return [(f.query_function_id, f.matched_contract, f.matched_function,
             f.defect_class, f.block_distances, f.decision_threshold)
            for f in findings]


@pytest.mark.parametrize("variant", ABLATION_VARIANTS,
                         ids=[v[0] for v in ABLATION_VARIANTS])
def test_selector_gate_keeps_every_finding_bit_for_bit(mixed_inputs, variant):
    """Gated _detect_one under an encoder variant, against the index that
    variant builds, gives the findings of an ungated pass that embeds
    every function with blocks and decides each one: same functions,
    same matches, the same distance bits."""
    _, use_sequence, use_graph = variant
    config, vocab, params, index = _variant_index(mixed_inputs, variant)
    code = _mixed_contract()
    functions = [fn for fn in analyze_contract(code).functions if fn.blocks]
    assert None in [fn.selector for fn in functions]  # the fallback
    ungated = embed_contract(
        [(fn, list(enumerate_paths(fn, config.max_paths).paths))
         for fn in functions], vocab, params, use_sequence=use_sequence,
        use_graph=use_graph)
    expected = [f for emb in ungated
                for f in decide_similar(emb, index, config.threshold)]
    res = pipeline._detect_one(
        pipeline._analyze_one("mixed", code, config.max_paths,
                              index.selectors()), config,
        index, vocab, params, use_sequence, use_graph)
    assert {f.query_function_id[1] for f in expected} == \
        {signature_selector(MINT), signature_selector(APPROVE)}
    assert all(f.max_block_distance > 0 for f in expected)  # no clones
    assert _finding_bits(res.findings) == _finding_bits(expected)
    assert res.counters["functions_embedded"] == 2
    assert res.counters["functions_gated"] == len(functions) - 2 == 3


def test_selector_gate_never_embeds_a_function_it_cannot_match(
        mixed_index, tmp_path, monkeypatch):
    config, _ = mixed_index
    code = _mixed_contract()
    target = tmp_path / "mixed.bin"
    target.write_bytes(code)
    passed = []

    def spy(items, *args, **kwargs):
        passed.extend(cfg.selector for cfg, _ in items)
        return embed_contract(items, *args, **kwargs)
    monkeypatch.setattr(pipeline, "embed_contract", spy)
    (res,) = cmd_detect(config, [str(target)])
    assert res.error is None
    assert sorted(passed) == sorted([signature_selector(MINT),
                                     signature_selector(APPROVE)])


def test_detect_without_an_indexed_selector_embeds_nothing(mixed_index,
                                                          tmp_path):
    config, _ = mixed_index
    clean = tmp_path / "clean.bin"
    clean.write_bytes(build_contract([("getConfig()", getter_body(1)),
                                      ("pause()", cei_mint_body(2))]))
    (res,) = cmd_detect(config, [str(clean)])
    assert res.error is None
    assert res.findings == []
    assert res.counters["functions_embedded"] == 0
    assert res.counters["paths_encoded"] == 0
    assert res.counters["functions_gated"] == 3  # getter, pause, fallback


def test_detect_error_in_one_contract_spares_the_others(mixed_index,
                                                        tmp_path,
                                                        monkeypatch):
    """An exception from the encoder pass becomes that contract's error;
    the call goes on and scans the next file."""
    config, _ = mixed_index
    bad, good = tmp_path / "bad.bin", tmp_path / "good.bin"
    bad.write_bytes(build_contract([(APPROVE, setter_body(2))]))
    good.write_bytes(build_contract([(MINT, vulnerable_mint_body(9))]))

    def diverged(items, *args, **kwargs):
        if any(cfg.selector == signature_selector(APPROVE)
               for cfg, _ in items):
            raise FloatingPointError("non-finite block vector")
        return embed_contract(items, *args, **kwargs)
    monkeypatch.setattr(pipeline, "embed_contract", diverged)
    res_bad, res_good = cmd_detect(config, [str(bad), str(good)])
    assert res_bad.error == "non-finite block vector"
    assert res_bad.findings == []
    assert res_bad.code_hash  # analysis succeeded before the failure
    assert res_good.error is None
    assert res_good.findings


def test_detect_counts_functions_at_path_cap(mixed_index, tmp_path):
    """``paths_capped`` counts the embedded functions whose enumeration
    stopped at the cap; a gated function's paths are never enumerated."""
    config, _ = mixed_index
    code = build_contract([(APPROVE, setter_body(1)),
                           ("setApprovalForAll(address,bool)", setter_body(3)),
                           ("owner()", getter_body(3))])
    target = tmp_path / "branchy.bin"
    target.write_bytes(code)
    (res,) = cmd_detect(config, [str(target)])
    assert res.counters["paths_capped"] == 0
    capped = replace(config, max_paths=1)
    over = [fn.selector for fn in analyze_contract(code).functions
            if len(enumerate_paths(fn, config.max_paths).paths) > 1]
    assert len(over) == 2
    (res,) = cmd_detect(capped, [str(target)])
    assert res.counters["functions_embedded"] == 1
    assert res.counters["paths_capped"] == \
        over.count(signature_selector(APPROVE)) == 1


def test_detect_enumerates_paths_of_indexed_selectors_only(
        mixed_index, tmp_path, monkeypatch):
    """The selector gate acts before path enumeration: cmd_detect
    enumerates the paths of the functions under an indexed selector, and of
    no other function."""
    config, _ = mixed_index
    target = tmp_path / "mixed.bin"
    target.write_bytes(_mixed_contract())
    enumerated = []

    def spy(fn, *args, **kwargs):
        enumerated.append(fn.selector)
        return enumerate_paths(fn, *args, **kwargs)
    monkeypatch.setattr(pipeline, "enumerate_paths", spy)
    (res,) = cmd_detect(config, [str(target)])
    assert res.error is None
    assert sorted(enumerated) == sorted([signature_selector(MINT),
                                         signature_selector(APPROVE)])
    assert res.counters["functions_gated"] == 3


def test_scan_path_builds_no_instruction_object(mixed_index, mixed_inputs,
                                                tmp_path, monkeypatch):
    """The front end, path enumeration, cmd_detect and cmd_embed read
    opcode bytes only, so they build no Instruction for any block, carved
    or not; reading a block's instructions builds exactly that block's."""
    from deltascan.evm import Program
    config, _ = mixed_index
    target = tmp_path / "mixed.bin"
    target.write_bytes(_mixed_contract())
    built = []
    build = Program.instruction

    def spy(program, i):
        built.append(i)
        return build(program, i)
    monkeypatch.setattr(Program, "instruction", spy)
    gate = {signature_selector(MINT), signature_selector(APPROVE)}
    analysis = analyze_contract(_mixed_contract(), gate)
    assert len(analysis.functions) == 2
    assert len(analysis.program.instructions) == len(analysis.program.ops)
    for fn in analysis.functions:
        assert enumerate_paths(fn).paths
    (res,) = cmd_detect(config, [str(target)])
    assert res.error is None and res.counters["functions_embedded"] == 2
    cmd_embed(replace(config, index_path=str(tmp_path / "again.idx")),
              mixed_inputs)
    assert built == []
    block = analysis.functions[0].blocks[-1]
    offsets = [ins.offset for ins in block.instructions]
    assert built == list(range(block.lo, block.hi))
    assert offsets == analysis.program.starts[block.lo:block.hi]


def test_gated_scan_resolves_and_builds_only_spine_and_carved_blocks(
        tmp_path, monkeypatch):
    """A gated scan of the large bench round resolves the edges of no
    block but the dispatcher spine's and the carved functions', as its
    ``blocks_resolved`` counter says, and builds a BasicBlock for the
    carved blocks only: never the contract's whole block tuple."""
    monkeypatch.syspath_prepend(str(BENCH))
    import corpora
    contracts, report = corpora.large_index()
    files = []
    for contract in contracts:
        files.append(tmp_path / f"{contract.name}.bin")
        files[-1].write_bytes(contract.code)
    (tmp_path / "report.json").write_text(json.dumps(report))
    config = PipelineConfig(index_path=str(tmp_path / "large.idx"))
    cmd_embed(config, [*map(str, files), str(tmp_path / "report.json")])
    artifacts = {"index": pipeline.load_index(config.index_path),
                 "vocab": pipeline.load_vocabulary(config.vocab_path),
                 "params": pipeline.init_params(config.embedding)}

    spine, built, analyses = [], [], []
    find, block, analyze = (cfg._find_selector_patterns, cfg.BasicBlock,
                            pipeline.analyze_contract)

    def find_spy(program, lo, hi):
        spine.append(lo)
        return find(program, lo, hi)

    def block_spy(*args):
        built.append(args[1:3])
        return block(*args)

    def analyze_spy(*args):
        analyses.append(analyze(*args))
        return analyses[-1]
    monkeypatch.setattr(cfg, "_find_selector_patterns", find_spy)
    monkeypatch.setattr(cfg, "BasicBlock", block_spy)
    monkeypatch.setattr(pipeline, "analyze_contract", analyze_spy)
    target = tmp_path / "scan.bin"
    embedded = 0
    for contract in corpora.large_round(1):
        target.write_bytes(contract.code)
        spine.clear()
        built.clear()
        (res,) = cmd_detect(config, [str(target)], **artifacts)
        assert res.error is None
        analysis = analyses[-1]
        carved = [(b.lo, b.hi) for fn in analysis.functions
                  for b in fn.blocks]
        resolved = res.counters["blocks_resolved"]
        assert 0 < resolved <= len(set(spine)) + len(carved)
        assert len(spine) + len(carved) < len(analysis.blocks)
        assert sorted(built) == sorted(carved)
        assert isinstance(analysis.blocks, cfg.Blocks)  # no built copy
        embedded += res.counters["functions_embedded"]
    assert embedded > 0


def test_embed_enumerates_paths_once(built_index, corpus_dir, tmp_path,
                                     monkeypatch):
    """The detector reuses the paths cmd_embed already holds: it
    enumerates none of its own, and finds the same defects."""
    import deltascan.detectors as detectors
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_paths(*args, **kwargs)
    monkeypatch.setattr(detectors, "enumerate_paths", counted)
    config, summary = built_index
    again = replace(config, index_path=str(tmp_path / "again.idx"))
    repeat = cmd_embed(again, sorted(map(str, corpus_dir.glob("*.bin"))))
    assert calls == []
    for key in ("builtin_findings", "functions_stored", "vectors_stored"):
        assert repeat[key] == summary[key]
    assert Path(again.index_path).read_bytes() == \
        Path(config.index_path).read_bytes()


def test_detect_never_runs_detectors(built_index, corpus_dir, monkeypatch):
    config, _ = built_index

    def boom(*args, **kwargs):
        raise AssertionError("detect phase must not invoke detectors")
    monkeypatch.setattr(pipeline, "detect_bypass_reentrancy", boom)
    monkeypatch.setattr(pipeline, "parse_report_file", boom)
    inputs = sorted(map(str, corpus_dir.glob("*.bin")))[:2]
    results = cmd_detect(config, inputs)
    assert all(r.error is None for r in results)


def test_scan_code_hash_is_sha256_of_stripped_body(built_index, tmp_path):
    config, _ = built_index
    code = build_contract([(MINT, vulnerable_mint_body())], with_metadata=True)
    path = tmp_path / "meta.bin"
    path.write_bytes(code)
    (res,) = cmd_detect(config, [str(path)])
    assert res.error is None
    assert res.code_hash == hashlib.sha256(strip_metadata(code)[0]).hexdigest()


def test_detect_never_calls_keccak(built_index, corpus_dir, monkeypatch):
    config, _ = built_index
    inputs = sorted(map(str, corpus_dir.glob("*.bin")))[:3]
    want = [(r.code_hash, _finding_bits(r.findings))
            for r in cmd_detect(config, inputs)]
    assert any(bits for _, bits in want)

    def boom(data):
        raise AssertionError("a scan must not hash with keccak")
    monkeypatch.setattr("deltascan.evm.keccak256", boom)
    monkeypatch.setattr("deltascan.keccak.keccak256", boom)
    monkeypatch.setattr("deltascan.detectors.keccak256", boom)
    results = cmd_detect(config, inputs)
    assert all(r.error is None for r in results)
    assert [(r.code_hash, _finding_bits(r.findings)) for r in results] == want


def test_detect_no_selector_overlap_yields_nothing(built_index, tmp_path):
    config, _ = built_index
    clean = tmp_path / "clean.bin"
    clean.write_bytes(build_contract([("getConfig()", getter_body(1)),
                                      ("pause()", cei_mint_body(2))]))
    (res,) = cmd_detect(config, [str(clean)])
    assert res.findings == []


def test_detect_identical_code_identical_findings(built_index, corpus_dir,
                                                  tmp_path):
    config, _ = built_index
    source = sorted(corpus_dir.glob("*.bin"))[0]
    a, b = tmp_path / "nameA.bin", tmp_path / "nameB.bin"
    a.write_bytes(source.read_bytes())
    b.write_bytes(source.read_bytes())
    res_a, res_b = cmd_detect(config, [str(a), str(b)])
    assert res_a.code_hash == res_b.code_hash
    assert [(f.matched_contract, f.matched_function, f.block_distances)
            for f in res_a.findings] == \
        [(f.matched_contract, f.matched_function, f.block_distances)
         for f in res_b.findings]


def test_detect_batch_resilience(built_index, corpus_dir, tmp_path):
    config, _ = built_index
    good = sorted(map(str, corpus_dir.glob("*.bin")))[0]
    results = cmd_detect(config, [good, str(tmp_path / "absent.bin")])
    assert results[0].error is None
    assert results[1].error is not None
    assert results[1].findings == []


def _tree(root) -> dict:
    return {p: p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def test_ablate_counts_monotone_in_threshold(tmp_path):
    """Each variant scans against the index it builds itself, so every one
    finds all 9 self-matches of three vulnerable mints (each against each
    stored clone, all at 0.0) at every threshold. cmd_ablate writes no
    file and never reads config.index_path."""
    files = []
    for name, _, code in make_corpus(3):
        files.append(tmp_path / f"{name}.bin")
        files[-1].write_bytes(code)
    setter = tmp_path / "Setter.bin"
    setter.write_bytes(build_contract([(MINT, setter_body(3)),
                                       ("owner()", getter_body(1))]))
    before = _tree(tmp_path)
    config = PipelineConfig(index_path=str(tmp_path / "absent" / "x.idx"))
    table = cmd_ablate(config, files, files)
    assert list(table) == [(name, t) for name, *_ in ABLATION_VARIANTS
                           for t in DEFAULT_THRESHOLDS]
    assert set(table.values()) == {9}
    # a setter under the mint selector, matched by no stored mint at 0.01
    # and by all three at 2.0, under every variant
    swept = cmd_ablate(config, files, [*files, setter])
    for name, *_ in ABLATION_VARIANTS:
        counts = [swept[(name, t)] for t in DEFAULT_THRESHOLDS]
        assert counts == sorted(counts)
        assert counts[0] == 9 and counts[-1] == 12
    assert _tree(tmp_path) == before


def test_ablate_one_params_object_gives_the_bits_of_fresh_ones(mixed_inputs,
                                                               tmp_path):
    """Memo entries are kept per variant: with one params object shared by
    every variant, as cmd_ablate shares it, each variant finds what it
    finds with fresh params, bit for bit, and the ablation table is that of
    fresh params. The variants' distances differ, so serving one variant's
    vectors to another would show."""
    scan = tmp_path / "mixed.bin"
    scan.write_bytes(_mixed_contract())
    scan_files = [f for f in mixed_inputs if f.endswith(".bin")] + [str(scan)]
    config = PipelineConfig(threshold=float("inf"))
    plan = pipeline._plan_embed(config, mixed_inputs)
    analyzed = [pipeline._analyze_one(Path(f).stem, read_bytecode_file(f),
                                      config.max_paths) for f in scan_files]
    shared = pipeline.init_params(config.embedding)
    nearest, table = {}, {}
    for name, use_sequence, use_graph in ABLATION_VARIANTS:
        outputs = []
        for params in (shared, pipeline.init_params(config.embedding)):
            index, _ = pipeline._build_index(plan, params, use_sequence,
                                             use_graph)
            outputs.append([pipeline._detect_one(
                a, config, index, plan.vocab, params, use_sequence,
                use_graph) for a in analyzed])
        with_shared, with_fresh = ([(_finding_bits(r.findings), r.nearest)
                                    for r in results] for results in outputs)
        assert with_shared == with_fresh
        nearest[name] = [n for _, n in with_fresh]
        distances = [f.max_block_distance for r in outputs[1]
                     for f in r.findings]
        for threshold in DEFAULT_THRESHOLDS:
            table[(name, threshold)] = sum(d <= threshold for d in distances)
    assert len({repr(n) for n in nearest.values()}) == len(ABLATION_VARIANTS)
    assert {key[:2] for key in shared.memo if not isinstance(key[0], str)} \
        == {(use_sequence, use_graph)
            for _, use_sequence, use_graph in ABLATION_VARIANTS}
    assert cmd_ablate(PipelineConfig(), mixed_inputs, scan_files) == table


def test_ablate_rejects_an_unreadable_scan_input(tmp_path):
    with pytest.raises(FileNotFoundError):
        cmd_ablate(PipelineConfig(), [], [str(tmp_path / "absent.bin")])


def test_scan_result_json_schema(built_index, corpus_dir):
    config, _ = built_index
    (res,) = cmd_detect(config, sorted(map(str, corpus_dir.glob("*.bin")))[:1])
    doc = res.to_json_dict()
    assert set(doc) >= {"contract", "code_hash", "findings", "timings_ms",
                        "counters"}
    for finding in doc["findings"]:
        assert set(finding) == {"selector", "defect", "max_block_distance",
                                "matched"}
        assert set(finding["matched"]) == {"contract", "function"}
        assert finding["selector"].startswith("0x")
    json.dumps(doc)  # serializable


# --- CLI ---

def test_cli_disasm(tmp_path, capsys):
    f = tmp_path / "c.hex"
    f.write_text("0x6001600201")
    assert main(["disasm", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0 PUSH1 0x01", "2 PUSH1 0x02", "4 ADD"]


@pytest.mark.parametrize("stdin", ["zz\n", "60 01\n"])
def test_cli_bad_hex_on_stdin_is_one_error_line(stdin, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(["disasm", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input is not hex bytecode: ")
    assert len(err.splitlines()) == 1


def test_cli_hex_on_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0x6001\n"))
    assert main(["disasm", "-"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 PUSH1 0x01"]


@pytest.mark.parametrize("text", ["0x123\n", "0X6001", " 600 \n"])
def test_cli_hex_on_stdin_reads_as_from_a_file(text, tmp_path, monkeypatch,
                                               capsys):
    f = tmp_path / "c.hex"
    f.write_text(text)
    assert main(["disasm", str(f)]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["disasm", "-"]) == 0
    assert capsys.readouterr().out == from_file != ""


def test_cli_cfg(tmp_path, capsys):
    f = tmp_path / "c.hex"
    f.write_text("600456005b00")
    assert main(["cfg", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "block 0 0 jump" in out
    assert "edge 0 2 jump_taken" in out


def _dynamic_dispatch_code() -> bytes:
    """Two selectors and a fallback; the second function jumps to a target
    read from calldata."""
    a = Asm()
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    a.op("DUP1").op("PUSH4", bytes.fromhex("095ea7b3")).op("EQ")
    a.push_label("approve").op("JUMPI")
    a.op("DUP1").op("PUSH4", bytes.fromhex("8da5cb5b")).op("EQ")
    a.push_label("route").op("JUMPI")
    a.push(0).op("DUP1").op("REVERT")
    a.label("approve")
    setter_body(2)(a, "approve")
    a.label("route").op("JUMPDEST").push(4).op("CALLDATALOAD").op("JUMP")
    a.op("JUMPDEST").push(1).op("SLOAD").op("POP").op("STOP")
    return a.assemble()


def test_cli_cfg_prints_every_block_and_edge_of_a_dynamic_jump(tmp_path,
                                                                capsys):
    """``cfg`` resolves the whole contract: every block, static edge,
    dynamic edge and function, the lines the eager front end printed."""
    f = tmp_path / "dynamic.hex"
    f.write_text(_dynamic_dispatch_code().hex())
    assert main(["cfg", str(f)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "block 0 0 jumpi", "block 1 17 jumpi", "block 2 28 revert",
        "block 3 32 jumpi", "block 4 40 revert", "block 5 44 stop",
        "block 6 52 jump", "block 7 57 stop",
        "edge 0 1 jumpi_false", "edge 0 3 jumpi_true",
        "edge 1 2 jumpi_false", "edge 1 6 jumpi_true",
        "edge 3 4 jumpi_false", "edge 3 5 jumpi_true",
        "edge 6 3 jump_taken", "edge 6 5 jump_taken",
        "edge 6 6 jump_taken", "edge 6 7 jump_taken",
        "func 095ea7b3 3", "func 8da5cb5b 6", "func fallback 2"]


def test_cli_embed_detect_round_trip(tmp_path, corpus_dir, capsys):
    idx = tmp_path / "cli.idx"
    inputs = sorted(str(p) for p in corpus_dir.glob("*.bin"))[:2]
    assert main(["--index", str(idx), "embed", *inputs]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["functions_stored"] == 2

    assert main(["--index", str(idx), "detect", inputs[0]]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(lines) == 1
    assert lines[0]["findings"]
    assert lines[0]["findings"][0]["max_block_distance"] == 0.0


def test_embed_stops_on_a_diverged_vocabulary(tmp_path, capsys):
    """On a corpus past the trainer's divergence (every weight NaN),
    embed raises with the cause and writes no file, and the CLI reports
    it as one error line."""
    for name, _, code in make_corpus(40, seed=7):
        (tmp_path / f"{name}.bin").write_bytes(code)
    inputs = sorted(map(str, tmp_path.glob("*.bin")))
    idx = tmp_path / "diverged.idx"
    with pytest.raises(VocabularyDiverged, match=r"^(\d+) of \1 word vectors "
                       r"are not finite after training on \d+ path tokens$"):
        cmd_embed(PipelineConfig(index_path=str(idx)), inputs)
    assert main(["--index", str(idx), "embed", *inputs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "word vectors are not finite" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert [p for p in tmp_path.iterdir() if p.suffix != ".bin"] == []


def test_cli_detect_on_a_non_utf8_index_name_is_one_error_line(
        tmp_path, corpus_dir, capsys):
    idx = tmp_path / "name.idx"
    inputs = sorted(str(p) for p in corpus_dir.glob("*.bin"))[:1]
    assert main(["--index", str(idx), "embed", *inputs]) == 0
    capsys.readouterr()
    # the first entry's contract name made invalid UTF-8, the CRC kept valid
    data = bytearray(idx.read_bytes())
    (length,) = struct.unpack("<H", data[21:23])
    data[23:23 + length] = b"\xff" * length
    data[17:21] = struct.pack("<I", zlib.crc32(bytes(data[21:])))
    idx.write_bytes(bytes(data))
    assert main(["--index", str(idx), "detect", inputs[0]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad string in index file")
    assert len(captured.err.splitlines()) == 1


def test_cli_threshold_flag(tmp_path, corpus_dir, capsys):
    idx = tmp_path / "cli2.idx"
    inputs = sorted(str(p) for p in corpus_dir.glob("*.bin"))[:1]
    assert main(["--index", str(idx), "embed", *inputs]) == 0
    capsys.readouterr()
    assert main(["--index", str(idx), "--threshold", "0.5",
                 "detect", inputs[0]]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line)["findings"]


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "scan.conf"
    cfg.write_text("""
        threshold = 0.25        # decision cutoff
        max_paths = 16
        index_path = /tmp/x.idx
    """)
    values = parse_config_file(cfg)
    assert values == {"threshold": 0.25, "max_paths": 16,
                      "index_path": "/tmp/x.idx"}
    bad = tmp_path / "bad.conf"
    bad.write_text("unknown_key = 3")
    with pytest.raises(DeltascanError):
        parse_config_file(bad)
    # no key selects an encoder variant or seed
    for text in ("use_graph = false", "use_sequence = true",
                 "allow_no_stages = yes", "seed = 1"):
        bad.write_text(text)
        key = text.split()[0]
        with pytest.raises(DeltascanError, match=f"unknown key '{key}'"):
            parse_config_file(bad)
    no_eq = tmp_path / "noeq.conf"
    no_eq.write_text("threshold 0.5")
    with pytest.raises(DeltascanError):
        parse_config_file(no_eq)
    workers = tmp_path / "workers.conf"
    workers.write_text("workers = 2")
    with pytest.raises(DeltascanError, match="unknown key 'workers'"):
        parse_config_file(workers)
    for text in ("max_paths = abc", "max_paths = 1.5", "threshold = high"):
        bad_value = tmp_path / "value.conf"
        bad_value.write_text(f"# scan settings\n{text}\n")
        with pytest.raises(DeltascanError, match=re.escape(f"{bad_value}:2: bad ")):
            parse_config_file(bad_value)


@pytest.mark.parametrize("argv", [
    ["--threshold", "-1"],
    ["--max-paths", "0"],
    ["--threshold", "nan"],
])
def test_cli_rejected_config_value_is_one_error_line(argv, tmp_path, capsys):
    code = tmp_path / "a.bin"
    code.write_text("0x6001")
    assert main([*argv, "--index", str(tmp_path / "x.idx"),
                 "detect", str(code)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad configuration: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--no-seq", "detect"],
    ["--no-graph", "detect"],
    ["--seed", "7", "detect"],
    ["detect", "--force"],
])
def test_cli_has_no_encoder_variant_or_seed_flag(argv, tmp_path, capsys):
    code = tmp_path / "a.bin"
    code.write_text("0x6001")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, str(code)])
    assert exit_info.value.code == 2  # argparse's usage error
    err = capsys.readouterr().err
    assert err.startswith("usage: deltascan") and "error: " in err


def test_cli_ablate_prints_variants_in_order(tmp_path, corpus_dir, capsys):
    inputs = sorted(str(p) for p in corpus_dir.glob("*.bin"))[:2]
    assert main(["--index", str(tmp_path / "absent.idx"), "ablate", *inputs,
                 "--scan", inputs[0], "--thresholds", "0.5", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "variant\tt=0.5\tt=1", *(f"{name}\t2\t2"
                                 for name, *_ in ABLATION_VARIANTS)]
    assert not (tmp_path / "absent.idx").exists()


@pytest.mark.parametrize("thresholds", [["-1"], ["0.1", "nan"]])
def test_cli_ablate_rejects_a_threshold_not_above_zero(thresholds, tmp_path,
                                                      capsys):
    code = tmp_path / "a.bin"
    code.write_text("0x6001")
    assert main(["ablate", str(code), "--scan", str(code),
                 "--thresholds", *thresholds]) == 1
    assert capsys.readouterr().err == \
        "error: bad configuration: thresholds must be positive\n"


def test_cli_bad_config_file_value_is_one_error_line(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("threshold = 0.2\nmax_paths = abc\n")
    code = tmp_path / "a.bin"
    code.write_text("0x6001")
    assert main(["--config", str(conf), "detect", str(code)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {conf}:2: bad int 'abc'\n"


def test_cli_env_api_key(tmp_path, monkeypatch):
    from deltascan.cli import build_parser, build_pipeline_config
    monkeypatch.setenv("DELTASCAN_API_KEY", "sekrit")
    args = build_parser().parse_args(["detect", "x.bin"])
    config = build_pipeline_config(args)
    assert config.api_key == "sekrit"


def test_cli_fetch_requires_api_url(capsys):
    rc = main(["fetch", "0x" + "ab" * 20])
    assert rc == 2
    assert "api" in capsys.readouterr().err.lower()


def test_cli_missing_file_is_error(tmp_path, capsys):
    assert main(["disasm", str(tmp_path / "nope.bin")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_unreadable_input_is_one_error_line(tmp_path, capsys):
    assert main(["disasm", str(tmp_path)]) == 1  # a directory
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(tmp_path) in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("report", [b'[{"contract": "a"', b"\xff\xfe"],
                         ids=["truncated", "not_utf8"])
def test_cli_embed_on_a_malformed_report_is_one_error_line(report, tmp_path,
                                                           corpus_dir, capsys):
    bad = tmp_path / "report.json"
    bad.write_bytes(report)
    idx = tmp_path / "report.idx"
    inputs = sorted(str(p) for p in corpus_dir.glob("*.bin"))[:1]
    assert main(["--index", str(idx), "embed", *inputs, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: record -1: not ")
    assert len(captured.err.splitlines()) == 1
    assert not idx.exists()


@pytest.mark.parametrize("other", [
    [(APPROVE, getter_body(1)), (MINT, vulnerable_mint_body(6))],
    [(MINT, vulnerable_mint_body(6))]], ids=["other_index", "same_index"])
def test_cli_refuses_two_embed_inputs_with_one_name(other, tmp_path, capsys):
    """A contract is named by its file stem, which report records address
    it by: a/token.bin and b/token.bin, each with a flagged mint at another
    or the same function index, would be stored as one contract. embed and
    ablate refuse them with one error line naming both paths."""
    paths = []
    for sub, functions in (("a", [(MINT, vulnerable_mint_body(5))]),
                           ("b", other)):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "token.bin")
        paths[-1].write_bytes(build_contract(functions))
    idx = tmp_path / "dup.idx"
    inputs = [str(p) for p in paths]
    for argv in (["embed", *inputs], ["ablate", *inputs, "--scan", inputs[0]]):
        assert main(["--index", str(idx), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {paths[0]} and {paths[1]} both name "
                                "contract 'token'\n")
    assert not idx.exists()
    assert cmd_embed(PipelineConfig(index_path=str(idx)),
                     inputs[:1])["builtin_findings"] == 1


def test_compile_cmd_quotes_input_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    source = tmp_path / "dir with space" / "a b;touch pwned.sol"
    source.parent.mkdir()
    source.write_text("0x600160020100")
    echo = "import sys; print(open(sys.argv[1]).read())"
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(echo)} {{input}}"
    (out,) = _compile_inputs([str(source)], cmd, tmp_path / "compiled")
    assert Path(out).read_bytes() == bytes.fromhex("600160020100")
    assert not (tmp_path / "pwned.sol").exists()


def test_compile_outputs_of_same_stem_stay_apart(tmp_path):
    sources = []
    for sub, code in (("a", "0x6001"), ("b", "0x6002")):
        (tmp_path / sub).mkdir()
        sources.append(tmp_path / sub / "x.sol")
        sources[-1].write_text(code)
    echo = "import sys; print(open(sys.argv[1]).read())"
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(echo)} {{input}}"
    outs = _compile_inputs([str(s) for s in sources], cmd,
                           tmp_path / "compiled")
    assert [Path(o).name for o in outs] == ["x.bin", "x.bin"]
    assert [Path(o).read_bytes() for o in outs] == [b"\x60\x01", b"\x60\x02"]


def test_compile_cmd_with_non_hex_output_is_an_error(tmp_path):
    source = tmp_path / "a.sol"
    source.write_text("not bytecode")
    echo = "import sys; print(open(sys.argv[1]).read())"
    cmd = f"{shlex.quote(sys.executable)} -c {shlex.quote(echo)} {{input}}"
    with pytest.raises(DeltascanError, match="not hex bytecode"):
        _compile_inputs([str(source)], cmd, tmp_path / "compiled")
