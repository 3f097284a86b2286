import struct
import zlib

import numpy as np
import pytest

from deltascan.detectors import DefectClass
from deltascan.encoder.embed import FunctionEmbedding
from deltascan.encoder.vocab import (Vocabulary, load_vocabulary,
                                     save_vocabulary)
from deltascan.errors import CorruptFile, DimensionMismatch
from deltascan.index import (AnnIndex, EntryLabel, IndexEntry, decide_similar,
                             load_index, save_index)
from oracles.decide_ref import decide_ref

DIM = 128


def _label(contract="C", ref="mint(address,uint256)", selector=b"\x40\xc1\x0f\x19",
           block_id=0, defect=DefectClass.BypassAuthReentrancy):
    return EntryLabel(contract, ref, selector, block_id, defect)


def _entry(vec, **kwargs):
    v = np.zeros(DIM, dtype=np.float32)
    v[:len(vec)] = vec
    return IndexEntry(v, _label(**kwargs))


def _clustered(count, seed=7, centers=40, sigma=0.4):
    """Clustered vectors: the regime the index actually serves (near-clone
    block embeddings), and the regime its recall is specified for."""
    rng = np.random.default_rng(seed)
    mu = rng.standard_normal((centers, DIM)) * 3.0
    assign = rng.integers(0, centers, size=count)
    return (mu[assign] + sigma * rng.standard_normal((count, DIM))
            ).astype(np.float32)


def test_self_retrieval_distance_zero():
    index = AnnIndex(DIM)
    v = np.arange(DIM, dtype=np.float32)
    index.insert(IndexEntry(v, _label()))
    ((entry_id, dist),) = index.query(v, k=1)
    assert entry_id == 0
    assert dist <= 1e-9


def test_three_four_five_triangle():
    index = AnnIndex(DIM)
    index.insert(_entry([3.0, 4.0]))
    ((_, dist),) = index.query(np.zeros(DIM, dtype=np.float32), k=1)
    assert dist == pytest.approx(5.0, abs=1e-6)


def test_function_keys_by_selector():
    """One key per stored function, in insertion order, however many
    blocks it has; anonymous functions sit under the empty selector, so a
    query without a selector (None) finds nothing."""
    index = AnnIndex(DIM)
    index.insert(_entry([1.0], contract="A"))
    index.insert(_entry([2.0], contract="A", block_id=1))
    index.insert(_entry([3.0], contract="B"))
    index.insert(_entry([4.0], contract="C", ref="fallback", selector=b""))
    mint = b"\x40\xc1\x0f\x19"
    assert list(index.bucket(mint).members) == [
        ("A", "mint(address,uint256)", DefectClass.BypassAuthReentrancy),
        ("B", "mint(address,uint256)", DefectClass.BypassAuthReentrancy)]
    assert list(index.bucket(b"").members) == [
        ("C", "fallback", DefectClass.BypassAuthReentrancy)]
    assert index.bucket(b"\x00" * 4) is None
    assert index.bucket(None) is None


def test_selectors_is_a_live_view_of_the_held_selectors():
    index = AnnIndex(DIM)
    selectors = index.selectors()
    assert list(selectors) == []
    index.insert(_entry([1.0], contract="A"))
    index.insert(_entry([2.0], contract="B", selector=b"\x00" * 4))
    index.insert(_entry([3.0], contract="A", block_id=1))
    assert list(selectors) == [b"\x40\xc1\x0f\x19", b"\x00" * 4]
    assert b"\x00" * 4 in selectors and b"\x01" * 4 not in selectors


def test_empty_index_query():
    assert AnnIndex(DIM).query(np.zeros(DIM, dtype=np.float32), k=3) == []


def test_k_larger_than_count():
    index = AnnIndex(DIM)
    for i in range(4):
        index.insert(_entry([float(i)], block_id=i))
    got = index.query(np.zeros(DIM, dtype=np.float32), k=100)
    assert len(got) == 4
    dists = [d for _, d in got]
    assert dists == sorted(dists)


def test_dimension_mismatch():
    index = AnnIndex(DIM)
    with pytest.raises(DimensionMismatch):
        index.insert(IndexEntry(np.zeros(3, dtype=np.float32), _label()))
    index.insert(_entry([1.0]))
    with pytest.raises(DimensionMismatch):
        index.query(np.zeros(5, dtype=np.float32))


def test_distances_match_linear_scan_values():
    vectors = _clustered(300)
    index = AnnIndex(DIM)
    for i, v in enumerate(vectors):
        index.insert(IndexEntry(v, _label(block_id=i)))
    rng = np.random.default_rng(1)
    for _ in range(20):
        probe = vectors[rng.integers(0, 300)] + \
            0.05 * rng.standard_normal(DIM).astype(np.float32)
        (top_id, top_dist) = index.query(probe, k=1)[0]
        exact = np.linalg.norm(vectors - probe, axis=1)
        assert top_dist == pytest.approx(float(exact[top_id]), abs=1e-5)


def test_recall_vs_linear_scan_1000():
    vectors = _clustered(1000)
    index = AnnIndex(DIM)
    for i, v in enumerate(vectors):
        index.insert(IndexEntry(v, _label(block_id=i)))
    rng = np.random.default_rng(2)
    probes = vectors[rng.integers(0, 1000, size=100)] + \
        0.1 * rng.standard_normal((100, DIM)).astype(np.float32)
    for probe in probes:
        exact = np.linalg.norm(vectors - probe, axis=1)
        truth = np.argsort(exact, kind="stable")[:10].tolist()
        got = index.query(probe, k=10)
        assert [i for i, _ in got] == truth
        assert [d for _, d in got] == exact[truth].tolist()


def test_save_load_query_equivalence(tmp_path):
    vectors = _clustered(100, seed=4)
    index = AnnIndex(DIM)
    for i, v in enumerate(vectors):
        index.insert(IndexEntry(
            v, _label(contract=f"c{i % 5}", block_id=i)))
    path = tmp_path / "round.idx"
    save_index(index, path)
    loaded = load_index(path)
    assert len(loaded) == len(index)
    rng = np.random.default_rng(5)
    for _ in range(20):
        probe = rng.standard_normal(DIM).astype(np.float32)
        assert index.query(probe, k=5) == loaded.query(probe, k=5)
    # labels survive byte-exactly
    for a, b in zip(index.entries, loaded.entries):
        assert a.label == b.label
        assert a.vector.tobytes() == b.vector.tobytes()


def test_empty_index_round_trip(tmp_path):
    path = tmp_path / "empty.idx"
    save_index(AnnIndex(DIM), path)
    loaded = load_index(path)
    assert len(loaded) == 0
    assert loaded.query(np.zeros(DIM, dtype=np.float32)) == []


def test_corrupt_files_rejected(tmp_path):
    index = AnnIndex(DIM)
    index.insert(_entry([1.0]))
    path = tmp_path / "ok.idx"
    save_index(index, path)
    raw = path.read_bytes()

    bad = tmp_path / "magic.idx"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(CorruptFile):
        load_index(bad)

    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(raw[:-10])
    with pytest.raises(CorruptFile):
        load_index(trunc)

    flipped = bytearray(raw)
    flipped[-1] ^= 0xFF
    corrupt = tmp_path / "bits.idx"
    corrupt.write_bytes(bytes(flipped))
    with pytest.raises(CorruptFile):
        load_index(corrupt)

    trailing = tmp_path / "trailing.idx"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(CorruptFile):
        load_index(trailing)


def test_every_bit_flip_and_truncation_is_rejected(tmp_path):
    """Both loaders reject a small file with any one bit flipped, or cut
    at any length."""
    index = AnnIndex(8)
    index.insert(IndexEntry(np.arange(8, dtype=np.float32), _label()))
    vocab = Vocabulary({"ADD": np.full(4, 0.5, np.float32),
                        "PUSH1": np.arange(4, dtype=np.float32)}, 4,
                       bytes(range(32)))
    for save, load, obj, name in [(save_index, load_index, index, "a.idx"),
                                  (save_vocabulary, load_vocabulary, vocab,
                                   "a.vocab")]:
        path = tmp_path / name
        save(obj, path)
        raw = path.read_bytes()
        load(path)
        damaged = [raw[:length] for length in range(len(raw))]
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << bit % 8
            damaged.append(bytes(flipped))
        for data in damaged:
            path.write_bytes(data)
            with pytest.raises(CorruptFile):
                load(path)


def _with_contract_name(path, name: bytes):
    """Rewrite the first entry's one-byte contract name, CRC kept valid."""
    data = bytearray(path.read_bytes())
    assert data[21:23] == struct.pack("<H", 1)
    data[23:24] = name
    data[17:21] = struct.pack("<I", zlib.crc32(bytes(data[21:])))
    path.write_bytes(bytes(data))


def test_non_utf8_string_with_a_valid_checksum_is_corrupt(tmp_path):
    path = tmp_path / "name.idx"
    save_index(_populated_index([[1.0]]), path)
    _with_contract_name(path, b"D")
    assert load_index(path).entries[0].label.contract_name == "D"
    _with_contract_name(path, b"\xff")
    with pytest.raises(CorruptFile, match="bad string in index file"):
        load_index(path)


def test_version_1_file_rejected(tmp_path):
    """Versions 1 and 2 hold vectors of earlier encoders and are refused."""
    # version 1, the HNSW-graph layout: magic, <HHBHHQ header, CRC-32,
    # entries, graph
    payload = struct.pack("<iqQQ", -1, -1, 42, 0)
    old = tmp_path / "v1.idx"
    old.write_bytes(b"DSIX" + struct.pack("<HHBHHQ", 1, DIM, 1, 16, 200, 0) +
                    struct.pack("<I", zlib.crc32(payload)) + payload)
    with pytest.raises(CorruptFile, match="unsupported index version 1"):
        load_index(old)
    # version 2, the current layout written by the random-feature encoder
    path = tmp_path / "v2.idx"
    save_index(_populated_index([[1.0, 0.0], [0.0, 1.0]]), path)
    data = bytearray(path.read_bytes())
    data[4:6] = struct.pack("<H", 2)
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFile, match="unsupported index version 2"):
        load_index(path)


def _query_fn(vectors, selector=b"\x40\xc1\x0f\x19"):
    vs = []
    for vec in vectors:
        v = np.zeros(DIM, dtype=np.float32)
        v[:len(vec)] = vec
        vs.append(v)
    return FunctionEmbedding((b"hash", selector), selector, tuple(vs))


def _populated_index(block_vecs, **label_kwargs):
    index = AnnIndex(DIM)
    for i, vec in enumerate(block_vecs):
        v = np.zeros(DIM, dtype=np.float32)
        v[:len(vec)] = vec
        index.insert(IndexEntry(v, _label(block_id=i, **label_kwargs)))
    return index


def test_decide_similar_self_match():
    index = _populated_index([[1.0], [0.0, 2.0]])
    findings = decide_similar(_query_fn([[1.0], [0.0, 2.0]]), index)
    assert len(findings) == 1
    f = findings[0]
    assert f.max_block_distance == 0.0
    assert f.defect_class is DefectClass.BypassAuthReentrancy
    assert f.matched_contract == "C"


def test_decide_similar_block_over_threshold():
    index = _populated_index([[1.0], [0.0, 2.0]])
    findings = decide_similar(_query_fn([[1.0], [0.0, 2.2]]), index,
                              threshold=0.1)
    assert findings == []


def test_decide_similar_rejects_a_threshold_not_above_zero():
    index = _populated_index([[1.0]])
    for threshold in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="threshold must be positive"):
            decide_similar(_query_fn([[1.0]]), index, threshold=threshold)
    assert decide_similar(_query_fn([[1.0]]), index, threshold=float("inf"))


def test_decide_similar_selector_gate():
    index = _populated_index([[1.0]])
    same_vec_other_selector = _query_fn([[1.0]], selector=b"\x01\x02\x03\x04")
    assert decide_similar(same_vec_other_selector, index) == []
    anonymous = FunctionEmbedding((b"h", 0), None,
                                  (np.zeros(DIM, dtype=np.float32),))
    assert decide_similar(anonymous, index) == []


def test_decide_similar_threshold_monotonicity():
    index = _populated_index([[1.0], [0.0, 2.0]])
    query = _query_fn([[1.05], [0.0, 2.0]])
    matched = {}
    for t in (0.01, 0.1, 1.0, 2.0):
        matched[t] = {(f.matched_contract, f.matched_function)
                      for f in decide_similar(query, index, threshold=t)}
    assert matched[0.01] <= matched[0.1] <= matched[1.0] <= matched[2.0]
    assert not matched[0.01]
    assert matched[1.0]


def test_decide_similar_greedy_with_replacement():
    # two query blocks both nearest the same stored block: allowed
    index = _populated_index([[1.0]])
    findings = decide_similar(_query_fn([[1.0], [1.0]]), index)
    assert len(findings) == 1
    assert findings[0].block_distances == (0.0, 0.0)


def test_decide_similar_finds_match_among_other_selector_crowd():
    # equal boilerplate blocks under many other selectors must not hide
    # the one stored function under the query's selector
    index = AnnIndex(DIM)
    v = np.ones(DIM, dtype=np.float32)
    for i in range(60):
        index.insert(IndexEntry(v, _label(
            contract=f"crowd{i}", selector=struct.pack(">I", i + 1))))
    index.insert(IndexEntry(v, _label(contract="target")))
    findings = decide_similar(_query_fn([[1.0] * DIM]), index)
    assert [f.matched_contract for f in findings] == ["target"]
    assert findings[0].block_distances == (0.0,)



def test_decide_similar_keeps_the_nearest_distance_per_selector():
    """``nearest`` gets the smallest max block distance over the stored
    functions under the query's selector, matched or not, across calls;
    the findings are those of a call without it."""
    index = AnnIndex(DIM)
    for contract, x in (("far", 3.0), ("near", 0.5), ("farther", 4.0)):
        index.insert(_entry([x], contract=contract))
    nearest = {}
    query = _query_fn([[0.0]])
    assert decide_similar(query, index, nearest=nearest) == []
    assert nearest == {query.selector: 0.5}
    matched = decide_similar(_query_fn([[3.0]]), index, threshold=0.1,
                             nearest=nearest)
    assert [f.matched_contract for f in matched] == ["far"]
    assert matched == decide_similar(_query_fn([[3.0]]), index, threshold=0.1)
    assert nearest == {query.selector: 0.0}
    other = {}
    decide_similar(_query_fn([[0.0]], selector=b"\x01\x02\x03\x04"), index,
                   nearest=other)
    assert other == {}  # no stored function under that selector


def _loop_distances(query_fn, index, key) -> tuple:
    """The decision rule's block distances, one query block at a time."""
    stored = np.stack([e.vector for e in index.function_entries(key)])
    out = []
    for vec in query_fn.block_vectors:
        diff = stored - vec
        out.append(float(np.sqrt((diff * diff).sum(axis=1).min())))
    return tuple(out)


def test_decide_similar_distances_are_those_of_a_per_block_loop():
    """All query blocks compared at once give the bits of one block at a
    time, and a function's stacked vectors follow inserts made into it
    after a compare."""
    vectors = _clustered(40, seed=3)
    index = AnnIndex(DIM)
    for i, vec in enumerate(vectors[:30]):
        index.insert(IndexEntry(vec, _label(contract=f"C{i % 3}",
                                            block_id=i // 3)))
    query = FunctionEmbedding((b"hash", b"\x40\xc1\x0f\x19"),
                              b"\x40\xc1\x0f\x19", tuple(vectors[25:37]))
    for grow in range(2):
        findings = decide_similar(query, index, threshold=float("inf"))
        assert len(findings) == 3
        for f in findings:
            key = (f.matched_contract, f.matched_function, f.defect_class)
            assert f.block_distances == _loop_distances(query, index, key)
        # a new block of C0 equal to query block 8: its distance drops to 0
        index.insert(IndexEntry(vectors[33], _label(contract="C0",
                                                    block_id=10 + grow)))
    (c0,) = [f for f in findings if f.matched_contract == "C0"]
    assert c0.block_distances[8] == 0.0


def _bits(distances) -> tuple:
    return tuple(float(d).hex() for d in distances)


def _assert_decides_as_the_oracle(query, index, threshold, nearest=()):
    """Findings (labels, order, ``block_distances`` bits) and ``nearest``
    equal to those of the per-function loop, from the same starting
    ``nearest``."""
    records = [(e.label.function_key, e.label.selector, e.vector)
               for e in index.entries]
    got_nearest, want_nearest = dict(nearest), dict(nearest)
    got = decide_similar(query, index, threshold, nearest=got_nearest)
    want = decide_ref(list(query.block_vectors), query.selector, records,
                      threshold, want_nearest)
    assert [(f.matched_contract, f.matched_function, f.defect_class,
             _bits(f.block_distances)) for f in got] == \
        [(c, fn, d, _bits(b)) for c, fn, d, b in want]
    assert all(f.query_function_id == query.function_id
               and f.decision_threshold == threshold for f in got)
    assert {s: d.hex() for s, d in got_nearest.items()} == \
        {s: d.hex() for s, d in want_nearest.items()}
    return got


def _clone_heavy_index(vectors, seed=5):
    """A clone-heavy mint bucket: the first two blocks of ``vectors`` as
    one function stored under 12 contracts, each twice (two defect
    classes, so contract and function tie), next to single-label
    functions of other vectors, one at the clones' distance from any
    query, and the same clone vectors under another selector."""
    rng = np.random.default_rng(seed)
    index = AnnIndex(DIM)
    clone = vectors[:2]
    for i in range(12):
        for defect in (DefectClass.BypassAuthReentrancy,
                       DefectClass.WeakAuthValidation):
            for b, vec in enumerate(clone):
                index.insert(IndexEntry(vec, _label(
                    contract=f"clone{i % 7}", ref=f"f{i}", block_id=b,
                    defect=defect)))
        if i % 4 == 0:  # interleave other functions
            for b in range(1 + i // 4):
                index.insert(IndexEntry(vectors[2 + i // 4 + b], _label(
                    contract=f"other{i}", block_id=b)))
    index.insert(IndexEntry(clone[0], _label(contract="twin", ref="z")))
    index.insert(IndexEntry(clone[1], _label(contract="twin", ref="z",
                                             block_id=1)))
    for b, vec in enumerate(clone):
        index.insert(IndexEntry(vec, _label(contract="elsewhere", block_id=b,
                                            selector=b"\x01\x02\x03\x04")))
    index.insert(IndexEntry(rng.standard_normal(DIM).astype(np.float32),
                            _label(contract="noise")))
    return index


def test_decide_similar_equals_the_per_function_loop_on_clone_buckets():
    """Many labels over one function's vectors, with ties in distance,
    contract and function, against the per-function loop: at a tight
    threshold, a mid one and ``inf``, from an empty and a preset
    ``nearest``."""
    vectors = _clustered(12, seed=11, centers=3)
    index = _clone_heavy_index(vectors)
    mint = b"\x40\xc1\x0f\x19"
    assert len(index.bucket(mint).starts) == 5 < len(index.bucket(mint).members)
    queries = [FunctionEmbedding((b"q", mint), mint, tuple(vectors[:2])),
               FunctionEmbedding((b"q", mint), mint, tuple(vectors[:1])),
               FunctionEmbedding((b"q", mint), mint, tuple(vectors[1:8]))]
    for query in queries:
        for threshold in (1e-6, 2.0, 6.0, float("inf")):
            for nearest in ((), {mint: 0.25}, {mint: 1e9}):
                _assert_decides_as_the_oracle(query, index, threshold,
                                              nearest)
    findings = _assert_decides_as_the_oracle(queries[0], index, 1e-6)
    assert len(findings) == 25  # 24 clone labels and the twin
    assert len({id(f.block_distances) for f in findings}) == 1


def test_decide_similar_equals_the_per_function_loop_after_inserts():
    """An insert after a decide rebuilds the selector's bucket: a clone
    that gains a block leaves its group, a new label joins one, and a
    new selector gets a bucket of its own."""
    vectors = _clustered(12, seed=12, centers=3)
    index = _clone_heavy_index(vectors)
    mint, other = b"\x40\xc1\x0f\x19", b"\x01\x02\x03\x04"
    query = FunctionEmbedding((b"q", mint), mint, tuple(vectors[:3]))
    _assert_decides_as_the_oracle(query, index, float("inf"))
    before = index.bucket(mint)
    index.insert(IndexEntry(vectors[2], _label(contract="clone3", ref="f3",
                                               block_id=2)))
    assert index.bucket(other) is index.bucket(other)  # kept
    assert index.bucket(mint) is not before
    _assert_decides_as_the_oracle(query, index, float("inf"))
    _assert_decides_as_the_oracle(query, index, 3.0)
    index.insert(IndexEntry(vectors[0], _label(contract="late", block_id=0)))
    index.insert(IndexEntry(vectors[1], _label(contract="late", block_id=1)))
    index.insert(IndexEntry(vectors[5], _label(contract="new", selector=b"\x09" * 4)))
    _assert_decides_as_the_oracle(query, index, float("inf"))
    for selector in (other, b"\x09" * 4):
        _assert_decides_as_the_oracle(FunctionEmbedding(
            (b"q", selector), selector, tuple(vectors[4:7])), index,
            float("inf"))


def test_decide_similar_equals_the_per_function_loop_on_one_and_many():
    """Buckets of one distinct function of one block, and of 40 distinct
    functions of 1-5 blocks, queried by 1-9 blocks."""
    rng = np.random.default_rng(13)
    vectors = _clustered(200, seed=13)
    single = AnnIndex(DIM)
    single.insert(IndexEntry(vectors[0], _label()))
    many = AnnIndex(DIM)
    row = 0
    for i in range(40):
        for b in range(1 + i % 5):
            many.insert(IndexEntry(vectors[row], _label(contract=f"C{i}",
                                                        block_id=b)))
            row += 1
    assert len(many.bucket(b"\x40\xc1\x0f\x19").starts) == 40
    for index in (single, many):
        for q in range(1, 10):
            picks = rng.integers(0, len(vectors), size=q)
            query = _query_fn([])
            query = FunctionEmbedding(query.function_id, query.selector,
                                      tuple(vectors[picks]))
            for threshold in (0.5, 4.0, float("inf")):
                _assert_decides_as_the_oracle(query, index, threshold)


def test_a_clone_bucket_stacks_each_distinct_function_once():
    """120 labels over 5 distinct functions: the bucket holds each
    distinct function's blocks once, a label's vectors are its rows of
    it, and the decision rule reports 5 functions compared."""
    vectors = _clustered(20, seed=14)
    distinct = [vectors[0:1], vectors[1:3], vectors[3:6], vectors[6:8],
                vectors[8:9]]
    index = AnnIndex(DIM)
    for copy in range(24):
        for f, blocks in enumerate(distinct):
            for b, vec in enumerate(blocks):
                index.insert(IndexEntry(vec, _label(
                    contract=f"C{copy}", ref=f"f{f}", block_id=b)))
    mint = b"\x40\xc1\x0f\x19"
    bucket = index.bucket(mint)
    assert len(bucket.members) == 120
    assert bucket.starts.tolist() == [0, 1, 3, 6, 8]
    assert bucket.stack.shape == (9, DIM)
    key = ("C17", "f2", DefectClass.BypassAuthReentrancy)
    start = bucket.starts[bucket.members[key]]
    assert np.array_equal(bucket.stack[start:start + 3], np.stack(
        [e.vector for e in index.function_entries(key)]))
    stats = {}
    findings = decide_similar(FunctionEmbedding(
        (b"q", mint), mint, tuple(distinct[2])), index, 1e-6, stats=stats)
    assert stats == {"functions_compared": 5}
    assert [f.matched_function for f in findings] == ["f2"] * 24
    assert [f.matched_contract for f in findings] == sorted(
        f"C{i}" for i in range(24))
    decide_similar(FunctionEmbedding((b"q", mint), mint, tuple(distinct[0])),
                   index, stats=stats)
    assert stats == {"functions_compared": 10}
    assert index.bucket(mint) is bucket  # built once
