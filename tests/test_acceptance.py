"""Acceptance gate: one test per criterion, each recording a single
machine-greppable PASS/FAIL line. The lines are replayed after the run by
the terminal-summary hook in conftest.py so they survive output capture.

Tolerances are pinned in the assertions; criterion 12 is an explicit
non-reproducibility statement, not a measurement.
"""

import random
import statistics
import string
import time

import numpy as np
import pytest

from deltascan import (AnnIndex, EntryLabel, IndexEntry, analyze_contract,
                       decide_similar, detect_bypass_reentrancy, disassemble,
                       embed_function, enumerate_paths, fusion_weights,
                       load_index, reserialize, save_index, signature_selector,
                       train_vocabulary)
from deltascan.cfg import partition_blocks, resolve_edges
from deltascan.detectors import DefectClass
from deltascan.encoder import (EmbeddingConfig, FunctionEmbedding,
                               InstructionGraph, PathEmbedding, embed_path,
                               encode_graph, encode_sequences, pool_block)
from deltascan.encoder.params import init_params
from deltascan.evm import assemble
from deltascan.pipeline import PipelineConfig, cmd_detect, cmd_embed
from fixtures import build_contract, cei_mint_body, make_corpus, \
    token_bytes, vulnerable_mint_body
from oracles.gat_ref import dense_gat
from oracles.keccak_ref import keccak256 as keccak_ref


VERDICTS: list = []


def _verdict(number, title, passed, detail=""):
    line = f"ACCEPTANCE {number:02d} {title}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    VERDICTS.append(line)
    print(line, flush=True)
    assert passed, line


def test_criterion_01_disassembler_totality_round_trip():
    rng = random.Random(20_260_823)
    started = time.perf_counter()
    failures = 0
    for _ in range(10_000):
        blob = rng.randbytes(rng.randint(0, 512))
        if reserialize(disassemble(blob)) != blob:
            failures += 1
    elapsed = time.perf_counter() - started
    _verdict(1, "disassembler round-trip 10k strings", failures == 0
             and elapsed < 10.0,
             f"{failures} failures, {elapsed:.2f}s (< 10s)")


def test_criterion_02_cfg_hand_trace_fixtures():
    ok = True
    blocks = partition_blocks(disassemble(bytes.fromhex("600456005b00")))
    ok &= [(b.start_offset, b.instr_count, b.terminator_kind)
           for b in blocks] == [(0, 2, "jump"), (3, 1, "stop"),
                                (4, 2, "stop")]
    ok &= {(e.src, e.dst, e.kind) for e in resolve_edges(blocks)} == \
        {(0, 2, "jump_taken")}

    blocks = partition_blocks(disassemble(bytes.fromhex("6001600657005b00")))
    ok &= [(b.start_offset, b.instr_count, b.terminator_kind)
           for b in blocks] == [(0, 3, "jumpi"), (5, 1, "stop"),
                                (6, 2, "stop")]
    ok &= {(e.src, e.dst, e.kind) for e in resolve_edges(blocks)} == \
        {(0, 2, "jumpi_true"), (0, 1, "jumpi_false")}

    # diamond: A -> {B, C} -> D
    diamond = assemble("CALLDATALOAD\nPUSH1 0x07\nJUMPI\nPUSH1 0x0b\nJUMP\n"
                       "JUMPDEST\nPUSH1 0x0b\nJUMP\nJUMPDEST\nSTOP")
    (fn,) = analyze_contract(diamond).functions
    ok &= [list(p.blocks) for p in enumerate_paths(fn).paths] == \
        [[0, 1, 3], [0, 2, 3]]

    # cycle: A -> {B -> A, E}
    cycle = assemble("JUMPDEST\nCALLDATALOAD\nPUSH1 0x08\nJUMPI\n"
                     "PUSH1 0x00\nJUMP\nJUMPDEST\nSTOP")
    (fn,) = analyze_contract(cycle).functions
    traced = {(tuple(p.blocks), p.terminal_reason)
              for p in enumerate_paths(fn).paths}
    ok &= traced == {((0, 1), "all_successors_visited"),
                     ((0, 2), "natural_exit")}
    _verdict(2, "CFG hand-trace and path fixtures exact", bool(ok))


def test_criterion_03_fusion_oracle():
    config = EmbeddingConfig()
    avg = 11.7
    w = fusion_weights([0, avg], avg, config)
    value_ok = abs(w[0] - 0.3053) <= 1e-3 and abs(w[1] - 0.6947) <= 1e-3
    law_ok = True
    rng = random.Random(3)
    for _ in range(1000):
        positions = [rng.randint(0, 400)
                     for _ in range(rng.randint(1, 9))]
        avg_len = rng.uniform(0.5, 30.0)
        weights = fusion_weights(positions, avg_len, config)
        law_ok &= abs(float(weights.sum()) - 1.0) <= 1e-9
        order = sorted(range(len(positions)), key=positions.__getitem__)
        law_ok &= all(weights[a] <= weights[b] + 1e-12
                      for a, b in zip(order, order[1:]))
    _verdict(3, "fusion-weight oracle and weight law", value_ok and law_ok,
             f"w=[{w[0]:.4f}, {w[1]:.4f}] vs [0.3053, 0.6947] +-1e-3")


def _embed_contract(code, vocab, params, config):
    analysis = analyze_contract(code)
    out = []
    for fn in analysis.functions:
        paths = enumerate_paths(fn).paths
        out.append(embed_function(fn, paths, vocab, params, config))
    return out


def test_criterion_04_encoder_determinism():
    config = EmbeddingConfig()  # seed 42
    code = build_contract([("mint(address,uint256)", vulnerable_mint_body(5))])
    corpus = [token_bytes(["PUSH1", "SLOAD", "CALL", "SSTORE", "STOP"])] * 5
    run1 = _embed_contract(code, train_vocabulary(corpus, config),
                           init_params(config), config)
    run2 = _embed_contract(code, train_vocabulary(corpus, config),
                           init_params(config), config)
    identical = all(
        a.function_id == b.function_id and
        all(x.tobytes() == y.tobytes()
            for x, y in zip(a.block_vectors, b.block_vectors))
        for a, b in zip(run1, run2))
    _verdict(4, "encoder bit-determinism under seed 42", identical,
             "tolerance 0")


def test_criterion_05_masking_pooling_graph_oracle():
    config = EmbeddingConfig()
    params = init_params(config)
    corpus = [token_bytes(["PUSH1", "ADD", "MSTORE", "RETURN", "STOP",
                           "CALL"])] * 5
    vocab = train_vocabulary(corpus, config)

    # path isolation: a longer path poked with 9.0 in the same batch
    # leaves the clean path's rows as they are alone
    clean = embed_path(token_bytes(["PUSH1", "ADD", "MSTORE", "RETURN"]),
                       vocab, config)
    neighbour = embed_path(token_bytes(["PUSH1", "ADD", "MSTORE", "RETURN"]
                                       * 50), vocab, config).rows.copy()
    neighbour[100:200] = 9.0
    isolation_delta = float(np.abs(
        encode_sequences([clean], params)[0] -
        encode_sequences([PathEmbedding(neighbour, False), clean],
                         params)[1]).max())

    row = np.full((6, config.graph_dim), -0.75, dtype=np.float32)
    pool_delta = float(np.abs(pool_block(row, params) - row[0]).max())

    rng = np.random.default_rng(55)
    feats = rng.standard_normal((3, config.seq_dim)).astype(np.float32)
    chain = InstructionGraph(feats, ((0, 3),), ((0, 1), (1, 2)), ())
    gat_delta = float(np.abs(
        encode_graph(chain, params) -
        dense_gat(feats, [(0, 1), (1, 2)], params.gat_layers)).max())

    ok = isolation_delta <= 1e-6 and pool_delta <= 1e-6 and gat_delta <= 1e-5
    _verdict(5, "path-isolation/pooling/graph-oracle properties", ok,
             f"neighbour {isolation_delta:.2e}<=1e-6, pool {pool_delta:.2e}<=1e-6, "
             f"gat {gat_delta:.2e}<=1e-5")


def test_criterion_06_selector_law():
    mismatches = 0
    for sig, expected in [
            ("transferFrom(address,address,uint256)", "23b872dd"),
            ("approve(address,uint256)", "095ea7b3"),
            ("setApprovalForAll(address,bool)", "a22cb465")]:
        if signature_selector(sig).hex() != expected:
            mismatches += 1
        if keccak_ref(sig.encode())[:4].hex() != expected:
            mismatches += 1
    types = ["address", "bool", "uint256", "uint8", "int64", "bytes32",
             "bytes", "string", "uint256[]", "address[4]",
             "(uint256,bool)", "(address,(uint256,bytes))[]"]
    rng = random.Random(6)
    for _ in range(1000):
        name = "".join(rng.choices(string.ascii_letters + "_$",
                                   k=rng.randint(1, 16)))
        sig = f"{name}({','.join(rng.choices(types, k=rng.randint(0, 5)))})"
        if signature_selector(sig) != keccak_ref(sig.encode())[:4]:
            mismatches += 1
    _verdict(6, "selector law vs independent keccak", mismatches == 0,
             f"{mismatches} mismatches over 1003 signatures")


def test_criterion_07_reentrancy_detector_fixtures():
    vulnerable = build_contract([("mint(address,uint256)",
                                  vulnerable_mint_body(5))])
    safe = build_contract([("mint(address,uint256)", cei_mint_body(5))])

    def findings(code, max_paths=64):
        return [r for fn in analyze_contract(code).functions
                for r in detect_bypass_reentrancy(
                    fn, enumerate_paths(fn, max_paths).paths, "c")]
    flagged = len(findings(vulnerable)) == 1
    clean = len(findings(safe)) == 0
    monotone = True
    for k in (1, 2, 8, 64):
        small = {r.function_signature for r in findings(vulnerable, k)}
        large = {r.function_signature for r in findings(vulnerable, 64)}
        monotone &= small <= large
    _verdict(7, "reentrancy fixtures (vulnerable/CEI/monotone)",
             flagged and clean and monotone)


def test_criterion_08_exact_decision_and_persistence(tmp_path):
    # 6 selector buckets of 60 functions each; every function stores 1-4
    # blocks of one of 4 shared bodies (norms about 1.5, as block vectors
    # have), so equal bodies recur under every selector
    rng = np.random.default_rng(88)
    selectors = [bytes([0xA0, 0, 0, s]) for s in range(6)]
    bodies = (0.13 * rng.standard_normal((4, 4, 128))).astype(np.float32)
    defects = list(DefectClass)
    index = AnnIndex(128)
    for sel in selectors:
        for j in range(60):
            body, blocks = rng.integers(4), rng.integers(1, 5)
            sigma = rng.choice([0.0, 0.002, 0.05])
            label = (f"c{sel[-1]}_{j}", f"f{j}()", defects[j % 3])
            for b in range(blocks):
                vec = bodies[body, b] + sigma * rng.standard_normal(128)
                index.insert(IndexEntry(vec.astype(np.float32), EntryLabel(
                    label[0], label[1], sel, b, label[2])))
    stored = np.stack([e.vector for e in index.entries]).astype(np.float64)
    keys = [(e.label.selector,) + e.label.function_key for e in index.entries]

    queries = []
    for q in range(120):
        body, blocks = rng.integers(4), rng.integers(1, 5)
        vecs = bodies[body, :blocks] + rng.choice([0.0, 0.002, 0.004]) * \
            rng.standard_normal((blocks, 128))
        queries.append(FunctionEmbedding(
            (b"q", q), selectors[q % 6], tuple(vecs.astype(np.float32))))

    def brute(query):
        # max over query blocks of the min distance to a stored function's
        # blocks, for every stored function under the query's selector
        gaps = np.sqrt(((np.stack(query.block_vectors)[:, None, :]
                         .astype(np.float64) - stored[None]) ** 2).sum(axis=2))
        worst = {}
        for key in dict.fromkeys(k for k in keys if k[0] == query.selector):
            cols = [i for i, k in enumerate(keys) if k == key]
            worst[key[1:]] = float(gaps[:, cols].min(axis=1).max())
        return worst

    threshold = 0.1
    started = time.perf_counter()
    exact, matches, max_err = True, 0, 0.0
    near = []
    for query in queries:
        worst = brute(query)
        near += [d for d in worst.values() if abs(d - threshold) < 0.02]
        want = {k: d for k, d in worst.items() if d <= threshold}
        got = {(f.matched_contract, f.matched_function, f.defect_class):
               f.max_block_distance
               for f in decide_similar(query, index, threshold)}
        exact &= set(got) == set(want)
        max_err = max([max_err] + [abs(got[k] - want[k])
                                   for k in set(got) & set(want)])
        matches += len(want)

    path = tmp_path / "exact.idx"
    save_index(index, path)
    loaded = load_index(path)
    equivalent = all(decide_similar(q, index, threshold) ==
                     decide_similar(q, loaded, threshold) for q in queries)
    elapsed = time.perf_counter() - started
    ok = (exact and max_err <= 1e-5 and equivalent and matches > 0
          and not near and elapsed < 10.0)
    _verdict(8, "exact same-selector decision and save/load equivalence", ok,
             f"{len(queries)} queries over 360 functions in 6 selectors, "
             f"{matches} matches {'equal to' if exact else 'UNLIKE'} brute "
             f"force, max |d - brute| {max_err:.1e} <= 1e-5, "
             f"{len(near)} distances near the threshold, round-trip "
             f"{'ok' if equivalent else 'BROKEN'}, {elapsed:.2f}s (< 10s)")


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    vulnerable = make_corpus(20, vulnerable=True, seed=7)
    files = []
    for name, _, code in vulnerable:
        p = root / f"{name}.bin"
        p.write_bytes(code)
        files.append(p)
    config = PipelineConfig(index_path=str(root / "e2e.idx"))
    summary = cmd_embed(config, [str(f) for f in files])
    return root, config, summary, files


def test_criterion_09_end_to_end_self_retrieval(e2e, tmp_path):
    root, config, summary, files = e2e
    copies = []
    for f in files:
        c = tmp_path / ("copy_" + f.name)
        c.write_bytes(f.read_bytes())
        copies.append(str(c))
    results = cmd_detect(config, copies)
    redetected = 0
    for res in results:
        original = res.contract.removeprefix("copy_")
        if any(f.matched_contract == original and f.max_block_distance == 0.0
               for f in res.findings):
            redetected += 1

    clean_files = []
    for name, _, code in make_corpus(20, vulnerable=False, seed=8):
        p = tmp_path / f"{name}.bin"
        p.write_bytes(code)
        clean_files.append(str(p))
    clean_results = cmd_detect(config, clean_files)
    clean_findings = sum(len(r.findings) for r in clean_results)

    ok = (summary["functions_stored"] == 20 and redetected == 20
          and clean_findings == 0)
    _verdict(9, "end-to-end self-retrieval + selector gate", ok,
             f"{redetected}/20 re-detected at distance 0, "
             f"{clean_findings} findings on 20 clean contracts")


def test_criterion_10_near_clone_threshold_sweep(e2e, tmp_path):
    root, config, summary, files = e2e
    from dataclasses import replace
    mutated = []
    for f in files:
        raw = bytearray(f.read_bytes())
        # flip the value of the last PUSH1 immediate (an SSTORE key in the
        # stored vulnerable mint); width and offsets unchanged
        idx = max(i for i in range(len(raw) - 1) if raw[i] == 0x60)
        raw[idx + 1] ^= 0x3F
        p = tmp_path / ("mut_" + f.name)
        p.write_bytes(bytes(raw))
        mutated.append(str(p))

    counts = {}
    for threshold in (0.01, 0.1, 1.0, 2.0):
        results = cmd_detect(replace(config, threshold=threshold), mutated)
        counts[threshold] = sum(
            1 for res in results
            if any(f.matched_contract == res.contract.removeprefix("mut_")
                   for f in res.findings))
    series = [counts[t] for t in (0.01, 0.1, 1.0, 2.0)]
    monotone = series == sorted(series)
    _verdict(10, "near-clone survival monotone across thresholds", monotone,
             f"surviving matches {series} at thresholds [0.01, 0.1, 1, 2]")


def test_criterion_11_throughput_sanity(e2e):
    root, config, summary, files = e2e
    results = cmd_detect(config, [str(f) for f in files])
    per_contract = [sum(r.timings_ms.values()) / 1e3 for r in results
                    if r.error is None]
    median = statistics.median(per_contract)
    ok = len(per_contract) == 20 and median <= 10.0
    _verdict(11, "throughput sanity", ok,
             f"median {median:.3f}s <= 10s over 20 synthesized ERC-721-style "
             f"contracts (offline substitute for on-chain bytecode)")


def test_criterion_12_non_reproducible_statement():
    statement = (
        "precision/recall tables, the tool-comparison table, and the defect "
        "distribution figure are NOT reproduced: they require the original "
        "contract datasets and manual true/false-positive labeling, which "
        "are not available; criteria 1-11 substitute for them")
    _verdict(12, "non-reproducible metrics declared", True, statement)
