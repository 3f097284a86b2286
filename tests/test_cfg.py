import hashlib
import json
import random
from itertools import accumulate
from pathlib import Path

import pytest

from deltascan.cfg import (_find_selector_patterns, analyze_contract,
                           enumerate_paths, partition_blocks,
                           recover_functions, resolve_edges)
from deltascan.detectors import DefectClass, DefectRecord, map_report
from deltascan.encoder import Vocabulary
from deltascan.evm import assemble, disassemble, strip_metadata
from deltascan.index import AnnIndex
from deltascan.pipeline import PipelineConfig, cmd_detect
from fixtures import (Asm, build_contract, getter_body, loop_body,
                      make_corpus, setter_body, vulnerable_mint_body)
from oracles import edges_ref
from oracles.keccak_ref import keccak256 as keccak_ref
from oracles.partition_ref import partition as partition_ref
from oracles.selector_ref import find_selector_patterns as selectors_ref

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _blocks(code_hex):
    return partition_blocks(disassemble(bytes.fromhex(code_hex)))


def test_hand_trace_jump_fixture():
    # PUSH1 04; JUMP; STOP; JUMPDEST; STOP
    blocks = _blocks("600456005b00")
    spans = [(b.start_offset, [i.opcode.mnemonic for i in b.instructions],
              b.terminator_kind) for b in blocks]
    assert spans == [
        (0, ["PUSH1", "JUMP"], "jump"),
        (3, ["STOP"], "stop"),
        (4, ["JUMPDEST", "STOP"], "stop"),
    ]
    edges = resolve_edges(blocks)
    assert {(e.src, e.dst, e.kind) for e in edges} == {(0, 2, "jump_taken")}


def test_hand_trace_jumpi_fixture():
    # PUSH1 01; PUSH1 06; JUMPI; STOP; JUMPDEST; STOP
    blocks = _blocks("6001600657005b00")
    spans = [(b.start_offset, b.instr_count, b.terminator_kind)
             for b in blocks]
    assert spans == [(0, 3, "jumpi"), (5, 1, "stop"), (6, 2, "stop")]
    edges = resolve_edges(blocks)
    assert {(e.src, e.dst, e.kind) for e in edges} == {
        (0, 2, "jumpi_true"), (0, 1, "jumpi_false")}


def test_single_stop_block():
    blocks = _blocks("00")
    assert len(blocks) == 1
    assert blocks[0].terminator_kind == "stop"
    assert list(resolve_edges(blocks)) == []


def test_block_cover_property():
    program = disassemble(bytes.fromhex("600456005b006001600657005b00"))
    blocks = partition_blocks(program)
    flattened = [i for b in blocks for i in b.instructions]
    assert flattened == list(program.instructions)


def test_dynamic_jump_over_approximates_to_all_jumpdests():
    # JUMP with a non-constant target; two JUMPDESTs in the program
    code = assemble("CALLDATALOAD\nJUMP\nJUMPDEST\nSTOP\nJUMPDEST\nSTOP")
    blocks = partition_blocks(disassemble(code))
    edges = resolve_edges(blocks)
    dynamic = {(e.src, e.dst) for e in edges if e.dynamic}
    assert dynamic == {(0, 1), (0, 2)}


def test_no_dispatcher_yields_anonymous_function():
    blocks = _blocks("00")
    selmap, functions = recover_functions(blocks, resolve_edges(blocks))
    assert selmap.entries == {}
    (fn,) = functions
    assert fn.selector is None
    assert len(fn.blocks) == 1


def test_dispatcher_recovery_matches_keccak_oracle():
    sig = "transferFrom(address,address,uint256)"
    expected = keccak_ref(sig.encode())[:4]
    assert expected == bytes.fromhex("23b872dd")
    analysis = analyze_contract(build_contract([(sig, getter_body(1))]))
    assert set(analysis.selector_map.entries) == {expected}
    selected = [f for f in analysis.functions if f.selector == expected]
    assert len(selected) == 1


def test_two_selector_dispatcher_plus_fallback():
    approve = keccak_ref(b"approve(address,uint256)")[:4]
    setall = keccak_ref(b"setApprovalForAll(address,bool)")[:4]
    assert (approve.hex(), setall.hex()) == ("095ea7b3", "a22cb465")
    analysis = analyze_contract(build_contract([
        ("approve(address,uint256)", getter_body(2)),
        ("setApprovalForAll(address,bool)", setter_body(3)),
    ]))
    assert set(analysis.selector_map.entries) == {approve, setall}
    assert analysis.selector_map.fallback_entry is not None
    selectors = [f.selector for f in analysis.functions]
    assert approve in selectors and setall in selectors
    assert None in selectors  # the fallback function


def test_callvalue_guard_before_dispatcher_keeps_selectors():
    functions = [("approve(address,uint256)", getter_body(2)),
                 ("setApprovalForAll(address,bool)", setter_body(3))]
    plain = analyze_contract(build_contract(functions))
    guarded = analyze_contract(build_contract(functions, callvalue_guard=True))
    assert set(guarded.selector_map.entries) == set(plain.selector_map.entries)
    assert len(guarded.selector_map.entries) == 2

    def bodies(analysis):
        return {fn.selector: [[i.opcode.mnemonic for i in b.instructions]
                              for b in fn.blocks]
                for fn in analysis.functions}
    assert bodies(guarded) == bodies(plain)


def test_functions_exclude_dispatcher_and_other_entries():
    analysis = analyze_contract(build_contract([
        ("approve(address,uint256)", getter_body(2)),
        ("setApprovalForAll(address,bool)", setter_body(3)),
    ]))
    for fn in analysis.functions:
        mnemonics = {i.opcode.mnemonic
                     for b in fn.blocks for i in b.instructions}
        assert "PUSH4" not in mnemonics  # no dispatcher block leaked
        # entry block ids are dense and local
        assert sorted(b.block_id for b in fn.blocks) == list(range(len(fn.blocks)))
        assert fn.entry_block < len(fn.blocks)
        assert len(fn.successors) == len(fn.blocks)
        for dsts in fn.successors:
            assert list(dsts) == sorted(set(dsts))
            assert all(dst < len(fn.blocks) for dst in dsts)


def _paths_of(code, max_paths=64):
    analysis = analyze_contract(code)
    (fn,) = [f for f in analysis.functions if f.selector is None] \
        if not analysis.selector_map.entries else analysis.functions[:1]
    return fn, enumerate_paths(fn, max_paths).paths


def test_diamond_paths():
    # A: JUMPI to C else fallthrough B; B,C jump to D; D halts
    code = assemble("""
        CALLDATALOAD
        PUSH1 0x07
        JUMPI
        PUSH1 0x0b
        JUMP
        JUMPDEST
        PUSH1 0x0b
        JUMP
        JUMPDEST
        STOP
    """)
    fn, paths = _paths_of(code)
    as_ids = [list(p.blocks) for p in paths]
    # successor order is ascending block id: fallthrough B (1) before C (2)
    assert as_ids == [[0, 1, 3], [0, 2, 3]]
    for p in paths:
        assert p.terminal_reason == "natural_exit"


def test_cycle_paths_loop_avoiding():
    # A -> {B, E}; B -> A (cycle); E halts
    code = assemble("""
        JUMPDEST
        CALLDATALOAD
        PUSH1 0x08
        JUMPI
        PUSH1 0x00
        JUMP
        JUMPDEST
        STOP
    """)
    fn, paths = _paths_of(code)
    traced = [(list(p.blocks), p.terminal_reason) for p in paths]
    assert ([0, 1], "all_successors_visited") in traced
    assert ([0, 2], "natural_exit") in traced
    assert len(traced) == 2


def test_single_block_path_positions():
    fn, paths = _paths_of(b"\x00")
    (p,) = paths
    assert list(p.blocks) == [0]
    assert p.terminal_reason == "natural_exit"


def test_max_paths_cap_and_flag():
    # wide fan-out: a dynamic jump to many JUMPDESTs
    lines = ["CALLDATALOAD", "JUMP"]
    for _ in range(10):
        lines += ["JUMPDEST", "CALLDATALOAD", "JUMP"]
    lines += ["JUMPDEST", "STOP"]
    code = assemble("\n".join(lines))
    analysis = analyze_contract(code)
    (fn,) = analysis.functions
    enum = enumerate_paths(fn, max_paths=5)
    assert len(enum.paths) == 5
    assert enum.hit_cap
    # budget monotonicity: a larger cap extends, never reorders
    full = enumerate_paths(fn, max_paths=200)
    assert len(full.paths) == 200
    assert [p.blocks for p in enum.paths] == [p.blocks for p in full.paths[:5]]


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_hit_cap_only_when_a_path_past_the_cap_exists(cap):
    """A diamond has two paths: the cap is hit at 1, not at 2 or 3, and the
    paths kept are the first ``cap`` of them."""
    code = assemble("PUSH1 0x01\nPUSH1 0x08\nJUMPI\nPUSH1 0x00\nPOP\n"
                    "JUMPDEST\nSTOP")
    (fn,) = analyze_contract(code).functions
    enum = enumerate_paths(fn, max_paths=cap)
    assert [p.blocks for p in enum.paths] == [(0, 1, 2), (0, 2)][:cap]
    assert enum.hit_cap == (cap < 2)


def test_paths_never_repeat_blocks():
    code = build_contract([("totalSupply()", loop_body(3))])
    analysis = analyze_contract(code)
    for fn in analysis.functions:
        for p in enumerate_paths(fn).paths:
            assert len(set(p.blocks)) == len(p.blocks)


def test_analysis_determinism():
    code = build_contract([("ownerOf(uint256)", vulnerable_mint_body(9))])
    a1, a2 = analyze_contract(code), analyze_contract(code)
    assert a1.selector_map.entries == a2.selector_map.entries
    for f1, f2 in zip(a1.functions, a2.functions):
        assert f1.function_id == f2.function_id
        assert [b.start_offset for b in f1.blocks] == \
            [b.start_offset for b in f2.blocks]
        assert f1.successors == f2.successors
        assert [p.blocks for p in enumerate_paths(f1).paths] == \
            [p.blocks for p in enumerate_paths(f2).paths]


def test_avg_block_len_positive():
    code = build_contract([("balanceOf(address)", getter_body(0))])
    for fn in analyze_contract(code).functions:
        assert fn.avg_block_len > 0


def _fan_out(width):
    """A dynamic JUMP whose over-approximation fans out to ``width`` blocks
    that each jump dynamically again."""
    lines = ["CALLDATALOAD", "JUMP"]
    for _ in range(width):
        lines += ["JUMPDEST", "CALLDATALOAD", "JUMP"]
    return assemble("\n".join(lines + ["JUMPDEST", "STOP"]))


def _fixture_codes():
    codes = [code for _, _, code in make_corpus(20)]
    codes += [code for _, _, code in make_corpus(20, vulnerable=False)]
    codes += [
        build_contract([("approve(address,uint256)", getter_body(2)),
                        ("totalSupply()", loop_body(3))],
                       callvalue_guard=True),
        assemble("CALLDATALOAD\nPUSH1 0x07\nJUMPI\nPUSH1 0x0b\nJUMP\n"
                 "JUMPDEST\nPUSH1 0x0b\nJUMP\nJUMPDEST\nSTOP"),
        assemble("JUMPDEST\nCALLDATALOAD\nPUSH1 0x08\nJUMPI\n"
                 "PUSH1 0x00\nJUMP\nJUMPDEST\nSTOP"),
        _fan_out(10),
    ]
    return codes


def test_partition_matches_leader_set_oracle():
    edge_cases = [
        b"",
        bytes.fromhex("005b00"),      # JUMPDEST right after a terminator
        bytes.fromhex("6001505b"),    # trailing JUMPDEST
        bytes.fromhex("6001506100"),  # truncated PUSH2 at the end
        bytes.fromhex("600c215b0ef600"),  # undefined bytes
        bytes.fromhex("5b5b5b"),
    ]
    rng = random.Random(5)
    noise = [bytes(rng.randrange(256) for _ in range(rng.randrange(1, 80)))
             for _ in range(200)]
    for code in edge_cases + _fixture_codes() + noise:
        blocks = partition_blocks(disassemble(code))
        assert [(b.start_offset, b.instr_count, b.terminator_kind)
                for b in blocks] == partition_ref(code), code.hex()
        assert [b.block_id for b in blocks] == list(range(len(blocks)))
    assert partition_ref(bytes.fromhex("005b00")) == [
        (0, 1, "stop"), (1, 2, "stop")]
    assert partition_ref(bytes.fromhex("600c215b0ef600")) == [
        (0, 2, "invalid"), (3, 2, "invalid"), (5, 1, "invalid"),
        (6, 1, "stop")]


def _analysis_record(code):
    """The front end's whole output for one contract, as JSON values:
    blocks, contract edges with kind and ``dynamic``, the selector map, and
    per function its blocks, successor pairs and paths (two caps)."""
    a = analyze_contract(code)
    functions = []
    for fn in a.functions:
        tag = fn.function_id[1]
        paths = {}
        for cap in (3, 64):
            enum = enumerate_paths(fn, cap)
            # each block's start on the path, as fusion accumulates it
            paths[cap] = [[list(p.blocks),
                           list(accumulate((fn.blocks[bid].instr_count
                                            for bid in p.blocks[:-1]),
                                           initial=0)),
                           p.terminal_reason] for p in enum.paths]
            paths[cap].append(enum.hit_cap)
        functions.append({
            "id": [fn.function_id[0].hex(),
                   tag.hex() if isinstance(tag, bytes) else tag],
            "entry": fn.entry_block,
            "blocks": [[b.block_id, b.start_offset, b.instr_count,
                        b.terminator_kind] for b in fn.blocks],
            "edges": [[src, dst] for src, dsts in enumerate(fn.successors)
                      for dst in dsts],
            "paths": paths,
        })
    return {
        "blocks": [[b.start_offset, b.instr_count, b.terminator_kind]
                   for b in a.blocks],
        "edges": sorted([e.src, e.dst, e.kind, e.dynamic] for e in a.edges),
        "selectors": sorted([sel.hex(), bid] for sel, bid
                            in a.selector_map.entries.items()),
        "fallback": a.selector_map.fallback_entry,
        "functions": functions,
    }


# sha256 of the records below, computed with the leader-set partition and
# the edge-set function carving that successor lists replaced
ANALYSIS_DIGEST = ("017098d5e7c8ca66f2f753ae994bcd08"
                   "bc61d9c9a5d184ceab1861b5c50c21ee")


def test_fixture_analysis_digest_is_pinned():
    """Every block, edge, selector, successor pair and path of the fixture
    corpus, as the leader-set partition and the edge-set carving gave
    them."""
    records = [_analysis_record(code) for code in _fixture_codes()]
    assert sum(len(r["functions"]) for r in records) > 150
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == ANALYSIS_DIGEST


def test_gated_analysis_carves_exactly_the_gated_functions():
    """Under a selector gate, the functions are those of the ungated
    analysis whose selector the gate holds, equal field for field; the
    fallback and the anonymous function are never carved, and the
    program, blocks, edges and selector map are the ungated ones."""
    absent = b"\xde\xad\xbe\xef"
    carved = 0
    for code in _fixture_codes():
        full = analyze_contract(code)
        selectors = sorted(full.selector_map.entries)
        assert absent not in selectors
        for gate in (set(), set(selectors[:1]), set(selectors), {absent},
                     dict.fromkeys(selectors[1:] + [absent]).keys()):
            gated = analyze_contract(code, gate)
            expected = tuple(fn for fn in full.functions
                             if fn.selector in gate)
            assert gated.functions == expected
            assert (gated.program, gated.blocks, list(gated.edges),
                    gated.selector_map) == (full.program, full.blocks,
                                            list(full.edges),
                                            full.selector_map)
            carved += len(expected)
    assert carved > 150


def _short_push_code(selector, other):
    """A dispatcher that compares ``selector`` (whose first byte is 0) as
    a PUSH3 and ``other`` as a PUSH4."""
    a = Asm()
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    a.op("DUP1").op("PUSH3", selector[1:]).op("EQ")
    a.push_label("short").op("JUMPI")
    a.op("DUP1").op("PUSH4", other).op("EQ")
    a.push_label("wide").op("JUMPI")
    a.push(0).op("DUP1").op("REVERT")
    a.label("short")
    getter_body(1)(a, "short")
    a.label("wide")
    setter_body(2)(a, "wide")
    return a.assemble()


def test_short_push_selector_is_recovered_and_maps():
    """solc pushes a selector at its minimal width: 0x00fdd58e is compared
    as PUSH3 0xfdd58e, and must still be recovered."""
    signature = "balanceOf(address,uint256)"
    selector = keccak_ref(signature.encode())[:4]
    assert selector.hex() == "00fdd58e"
    other = keccak_ref(b"approve(address,uint256)")[:4]
    analysis = analyze_contract(_short_push_code(selector, other))
    assert set(analysis.selector_map.entries) == {selector, other}
    selectors = [fn.selector for fn in analysis.functions]
    assert selector in selectors and other in selectors
    (fn,) = [f for f in analysis.functions if f.selector == selector]
    assert fn.function_id == (analysis.program.code_hash, selector)
    record = DefectRecord("Token", signature, DefectClass.WeakAuthValidation)
    mapped, unmapped = map_report([record], {"Token": (
        analysis.program.code_hash, analysis.selector_map)})
    assert unmapped == []
    assert [m.function_id for m in mapped] == [fn.function_id]


def test_selector_patterns_match_the_instruction_oracle():
    """The byte-based matcher finds the (selector, dest) pairs that the
    Instruction-based one found, on every block: the fixture corpus, the
    short-push dispatcher, pushes cut off by the end of code, and random
    bytes drawn mostly from the opcodes a selector check is made of."""
    check = bytes.fromhex("80630a0b0c0d14610102" "57")  # DUP1 PUSH4 EQ PUSH2 JUMPI
    truncated = [check + bytes([0x5F + n]) + b"\xee" * (n - 1)
                 for n in range(1, 5)]  # PUSH1-4 missing their last byte
    truncated += [bytes([0x5F + n]) + b"\xee" * (n - 1) for n in range(1, 5)]
    truncated += [check[:-4] + bytes([0x5F + n]) + b"\x01" * (n - 1)
                  for n in range(1, 5)]  # the dest push cut off
    rng = random.Random(7)
    alphabet = [0x60, 0x61, 0x62, 0x63, 0x5F, 0x7F, 0x80, 0x81, 0x90, 0x14,
                0x57, 0x56, 0x5B, 0x00]
    noise = [bytes(rng.choice(alphabet) if rng.random() < 0.8
                   else rng.randrange(256) for _ in range(rng.randrange(1, 120)))
             for _ in range(200)]
    short = _short_push_code(bytes.fromhex("00fdd58e"),
                             bytes.fromhex("095ea7b3"))
    found = 0
    for code in _fixture_codes() + [short] + truncated + noise:
        for block in partition_blocks(disassemble(code)):
            want = selectors_ref(block.instructions)
            assert _find_selector_patterns(
                block.program, block.lo, block.hi) == want, code.hex()
            found += len(want)
    assert found > 100


@pytest.mark.parametrize("code, expected", [
    (assemble("CALLDATALOAD\nJUMP\nJUMPDEST\nSTOP\nJUMPDEST\nSTOP"), 2),
    (_fan_out(10), 11 * 11),  # 11 dynamic JUMPs to 11 JUMPDEST blocks
    (assemble("CALLDATALOAD\nPUSH1 0x07\nJUMPI\nPUSH1 0x0b\nJUMP\n"
              "JUMPDEST\nPUSH1 0x0b\nJUMP\nJUMPDEST\nSTOP"), 0),
])
def test_scan_counts_instructions_dynamic_edges_and_stage_times(
        code, expected, tmp_path, params):
    """A detect line counts the contract's instructions and its
    over-approximated edges, and times the four front-end stages within
    ``analysis``."""
    path = tmp_path / "contract.bin"
    path.write_bytes(code)
    index = AnnIndex(params.config.block_dim)  # empty: nothing is embedded
    vocab = Vocabulary({}, params.config.word_dim, b"\0" * 32)
    (result,) = cmd_detect(PipelineConfig(), [str(path)], index=index,
                           vocab=vocab, params=params)
    assert result.error is None
    edges = resolve_edges(partition_blocks(disassemble(code)))
    assert result.counters["dynamic_edges"] == expected == sum(
        e.dynamic for e in edges)
    assert result.counters["instructions"] == len(disassemble(code).starts)
    stages = [result.timings_ms[name]
              for name in ("decode", "blocks", "edges", "functions")]
    assert all(ms >= 0 for ms in stages)
    assert sum(stages) <= result.timings_ms["analysis"]


def _non_jumpdest_selector_code(good, bad):
    """A dispatcher whose check for ``bad`` jumps to the start of a block
    that is no JUMPDEST, where the EVM would revert on entry."""
    a = Asm()
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    a.op("DUP1").op("PUSH4", good).op("EQ").push_label("good").op("JUMPI")
    a.op("DUP1").op("PUSH4", bad).op("EQ").push_label("bad").op("JUMPI")
    a.push(0).op("DUP1").op("REVERT")
    a.label("good")
    getter_body(1)(a, "good")
    a.label("bad").push(2).op("SLOAD").op("POP").op("STOP")
    return a.assemble()


def test_selector_checked_into_a_non_jumpdest_block_maps_no_function():
    """A selector maps to a block only when its check jumps to a JUMPDEST,
    the rule by which the jump itself gets an edge: a check that lands on
    another block start yields no entry and no function."""
    good = keccak_ref(b"approve(address,uint256)")[:4]
    bad = keccak_ref(b"owner()")[:4]
    code = _non_jumpdest_selector_code(good, bad)
    analysis = analyze_contract(code)
    program, blocks = analysis.program, analysis.blocks
    check, landing = blocks[1], blocks[4]
    assert program.push_value(check.hi - 2) == landing.start_offset
    assert program.ops[landing.lo] != 0x5B
    assert analysis.selector_map.entries == {good: 3}
    assert [fn.selector for fn in analysis.functions] == [good, None]
    assert {(e.src, e.dst, e.kind) for e in analysis.edges
            if e.src == 1} == {(1, 2, "jumpi_false")}
    assert analyze_contract(code, {bad}).functions == ()


def _edge_cases():
    """Jumps at offset 0, to offset 0, to a PUSH, to a 0x5B byte inside
    PUSH data, off the end of code and after PUSH0, and PUSHes cut off by
    the end of code."""
    return [bytes.fromhex(h) for h in (
        "56", "57", "565b00", "575b00", "5b5f56", "5f56", "600056",
        "5b600056", "6003565b", "60045600", "6002565b00", "61005b56",
        "600456615b00", "6003575b", "60ff56", "5b6156", "56615b", "5b5b57",
        "5d56")]


def _random_codes(rng, count):
    """Byte strings of 1-3000 bytes, most bytes drawn from the opcodes that
    jumps are made of, so that many targets land on JUMPDESTs and many do
    not."""
    alphabet = [0x56, 0x57, 0x5B, 0x5F, 0x60, 0x60, 0x61, 0x00, 0x80, 0x15]
    codes = []
    for k in range(count):
        size = rng.randrange(1, 3001 if k % 2 else 300)
        codes.append(bytes(rng.choice(alphabet) if rng.random() < 0.7
                           else rng.randrange(256) for _ in range(size)))
    return codes


def test_lazy_edges_equal_the_eager_oracle(monkeypatch):
    """Blocks and edges resolved on demand, in any order, are those that
    an eager partition and resolution give: the same block bounds, ``succ``,
    ``static``, number of edges, iteration order and ``dynamic_count``,
    which is counted before any block is resolved. Over the fixtures, the
    bench rounds of seeds 1-3, and random bytes."""
    monkeypatch.syspath_prepend(str(BENCH))
    import corpora
    rng = random.Random(29)
    codes = _fixture_codes() + _edge_cases() + _random_codes(rng, 120) + [
        _short_push_code(bytes.fromhex("00fdd58e"), bytes.fromhex("095ea7b3")),
        _non_jumpdest_selector_code(b"\x01\x02\x03\x04", b"\x05\x06\x07\x08")]
    for seed in (1, 2, 3):
        codes += [c.code for c in corpora.clones_round(seed)]
        codes += [c.code for c in corpora.large_round(seed)]
    dynamic = resolved_targets = 0
    for code in codes:
        program = disassemble(strip_metadata(code)[0])
        bounds = edges_ref.partition(program)
        ref = edges_ref.Edges(program, bounds)
        blocks = partition_blocks(program)
        assert list(zip(blocks.lo, blocks.hi)) == bounds, code.hex()
        assert [(b.block_id, b.lo, b.hi) for b in blocks] == [
            (i, lo, hi) for i, (lo, hi) in enumerate(bounds)]
        edges = resolve_edges(blocks)
        assert (edges.dynamic_count, edges.resolved_count) == (
            ref.dynamic_count, 0), code.hex()
        order = list(range(len(blocks)))
        rng.shuffle(order)
        for b in order:
            assert (edges.succ(b), edges.static(b)) == (
                ref.succ[b], ref.static[b]), code.hex()
        assert edges.resolved_count == len(blocks)
        fresh = resolve_edges(blocks)
        assert len(fresh) == len(ref)
        listed = [(e.src, e.dst, e.kind, e.dynamic) for e in fresh]
        assert listed == list(ref) and sorted(listed) == sorted(ref)
        dynamic += ref.dynamic_count
        resolved_targets += sum(kind in ("jump_taken", "jumpi_true")
                                for out in ref.static for kind in out)
    assert dynamic > 1000 and resolved_targets > 1000
