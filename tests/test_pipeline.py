import json
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import deltascan.pipeline as pipeline
from deltascan.cfg import analyze_contract, enumerate_paths
from deltascan.cli import _compile_inputs, main, parse_config_file
from deltascan.encoder import embed_function
from deltascan.encoder.embed import STAGES
from deltascan.index import decide_similar
from deltascan.errors import DeltascanError
from deltascan.pipeline import (PipelineConfig, cmd_ablate, cmd_detect,
                                cmd_embed, read_bytecode_file)
from fixtures import (build_contract, cei_mint_body, getter_body, make_corpus,
                      setter_body, vulnerable_mint_body)


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


def test_read_bytecode_file_hex_and_binary(tmp_path):
    hex_file = tmp_path / "a.hex"
    hex_file.write_text("0x6001600201\n")
    assert read_bytecode_file(hex_file) == bytes.fromhex("6001600201")
    bin_file = tmp_path / "b.bin"
    bin_file.write_bytes(b"\x60\x01\x00")
    assert read_bytecode_file(bin_file) == b"\x60\x01\x00"


def test_config_invariants():
    with pytest.raises(ValueError):
        PipelineConfig(threshold=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(workers=0)
    with pytest.raises(ValueError):
        PipelineConfig(use_sequence=False, use_graph=False)
    PipelineConfig(use_sequence=False, use_graph=False, allow_no_stages=True)


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


@pytest.mark.parametrize("variant", pipeline.ABLATION_VARIANTS,
                         ids=[v[0] for v in pipeline.ABLATION_VARIANTS])
def test_detect_embeds_under_the_configured_variant(built_index, corpus_dir,
                                                    variant):
    """Each finding of cmd_detect under an encoder variant carries the
    distance that embed_function under the same variant gives, function by
    function; the threshold lets every same-selector function match."""
    _, use_sequence, use_graph = variant
    config = replace(built_index[0], use_sequence=use_sequence,
                     use_graph=use_graph, allow_no_stages=True,
                     threshold=float("inf"))
    files = sorted(map(str, corpus_dir.glob("*.bin")))[:2]
    index = pipeline.load_index(config.index_path)
    vocab = pipeline.load_vocabulary(config.vocab_path)
    params = pipeline.init_params(config.embedding)
    for path, res in zip(files, cmd_detect(config, files)):
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


def test_detect_counts_distinct_paths_encoded(built_index, tmp_path):
    config, _ = built_index
    code = build_contract([("approve(address,uint256)", setter_body(1)),
                           ("setConfig(uint256)", setter_body(2)),
                           ("owner()", getter_body(3))])
    target = tmp_path / "twins.bin"
    target.write_bytes(code)
    (res,) = cmd_detect(config, [str(target)])
    paths = [tuple(ins.opcode.mnemonic for bid in p.blocks
                   for ins in fn.blocks[bid].instructions)
             for fn in analyze_contract(code).functions
             for p in enumerate_paths(fn, config.max_paths).paths]
    assert res.counters["paths_encoded"] == len(set(paths)) < len(paths)


def test_detect_counts_functions_at_path_cap(built_index, tmp_path):
    config, _ = built_index
    code = build_contract([("approve(address,uint256)", setter_body(1)),
                           ("setApprovalForAll(address,bool)", setter_body(3)),
                           ("owner()", getter_body(3))])
    target = tmp_path / "branchy.bin"
    target.write_bytes(code)
    (res,) = cmd_detect(config, [str(target)])
    assert res.counters["paths_capped"] == 0
    capped = replace(config, max_paths=1)
    functions = analyze_contract(code).functions
    over = sum(len(enumerate_paths(fn, config.max_paths).paths) > 1
               for fn in functions)
    assert over == 2
    (res,) = cmd_detect(capped, [str(target)])
    assert res.counters["paths_capped"] == over


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


def test_detect_with_workers(built_index, corpus_dir):
    config, _ = built_index
    inputs = sorted(map(str, corpus_dir.glob("*.bin")))
    serial = cmd_detect(config, inputs)
    from dataclasses import replace
    parallel = cmd_detect(replace(config, workers=4), inputs)
    assert [(r.contract, sorted(f.matched_contract for f in r.findings))
            for r in serial] == \
        [(r.contract, sorted(f.matched_contract for f in r.findings))
         for r in parallel]


def test_ablate_counts_monotone_in_threshold(built_index, corpus_dir):
    config, _ = built_index
    inputs = sorted(map(str, corpus_dir.glob("*.bin")))[:3]
    table = cmd_ablate(config, inputs)
    variants = {v for v, _ in table}
    assert variants == {"full", "no_sequence", "no_graph", "no_both"}
    for variant in variants:
        counts = [table[(variant, t)] for t in (0.01, 0.1, 1.0, 2.0)]
        assert counts == sorted(counts)
    # the full pipeline finds its self-matches at the default threshold
    assert table[("full", 0.1)] >= 3


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


def test_cli_cfg(tmp_path, capsys):
    f = tmp_path / "c.hex"
    f.write_text("600456005b00")
    assert main(["cfg", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "block 0 0 jump" in out
    assert "edge 0 2 jump_taken" in out


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
        use_graph = false
        index_path = /tmp/x.idx
    """)
    values = parse_config_file(cfg)
    assert values == {"threshold": 0.25, "max_paths": 16,
                      "use_graph": False, "index_path": "/tmp/x.idx"}
    bad = tmp_path / "bad.conf"
    bad.write_text("unknown_key = 3")
    with pytest.raises(DeltascanError):
        parse_config_file(bad)
    no_eq = tmp_path / "noeq.conf"
    no_eq.write_text("threshold 0.5")
    with pytest.raises(DeltascanError):
        parse_config_file(no_eq)


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
