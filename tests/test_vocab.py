import hashlib

import numpy as np
import pytest

from deltascan.cfg import analyze_contract, enumerate_paths
from deltascan.encoder import (EmbeddingConfig, load_vocabulary,
                               save_vocabulary, train_vocabulary)
from deltascan.encoder.vocab import _add_rows, _window_pairs
from deltascan.errors import CorruptFile, EmptyCorpus
from fixtures import make_corpus


def test_single_token_corpus_shape(config):
    vocab = train_vocabulary([["STOP"]], config)
    assert "STOP" in vocab
    assert vocab.lookup("STOP").shape == (64,)
    assert vocab.lookup("STOP").dtype == np.float32


def test_oov_returns_zero_vector(config):
    vocab = train_vocabulary([["STOP", "ADD"]], config)
    zero = vocab.lookup("NOT_AN_OPCODE")
    assert zero.shape == (64,)
    assert not zero.any()
    assert "NOT_AN_OPCODE" not in vocab


def test_empty_corpus_raises(config):
    with pytest.raises(EmptyCorpus):
        train_vocabulary([], config)
    with pytest.raises(EmptyCorpus):
        train_vocabulary([[], []], config)


def test_config_is_required():
    with pytest.raises(TypeError):
        train_vocabulary([["STOP"]])


def test_training_is_deterministic(small_vocab, config):
    corpus = [["PUSH1", "ADD", "STOP"], ["MLOAD", "PUSH1", "ADD"]] * 3
    v1 = train_vocabulary(corpus, config)
    v2 = train_vocabulary(corpus, config)
    assert v1.training_corpus_hash == v2.training_corpus_hash
    for token in v1.vectors:
        assert v1.vectors[token].tobytes() == v2.vectors[token].tobytes()


def test_different_corpora_have_different_hashes(config):
    a = train_vocabulary([["ADD", "STOP"]], config)
    b = train_vocabulary([["MUL", "STOP"]], config)
    assert a.training_corpus_hash != b.training_corpus_hash


def test_cooccurring_tokens_correlate(config):
    # PUSH1/ADD always co-occur; XOR lives in disjoint sequences
    corpus = [["PUSH1", "ADD"]] * 40 + [["XOR", "MLOAD"]] * 40
    vocab = train_vocabulary(corpus, config)

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    push_add = cos(vocab.lookup("PUSH1"), vocab.lookup("ADD"))
    push_xor = cos(vocab.lookup("PUSH1"), vocab.lookup("XOR"))
    assert push_add > push_xor


def test_save_load_round_trip(tmp_path, small_vocab):
    path = tmp_path / "vocab.dsvw"
    save_vocabulary(small_vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.word_dim == small_vocab.word_dim
    assert loaded.training_corpus_hash == small_vocab.training_corpus_hash
    assert set(loaded.vectors) == set(small_vocab.vectors)
    for token in small_vocab.vectors:
        assert loaded.vectors[token].tobytes() == \
            small_vocab.vectors[token].tobytes()


def test_load_rejects_corrupt_files(tmp_path, small_vocab):
    path = tmp_path / "vocab.dsvw"
    save_vocabulary(small_vocab, path)
    raw = path.read_bytes()
    (tmp_path / "bad_magic").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CorruptFile):
        load_vocabulary(tmp_path / "bad_magic")
    (tmp_path / "truncated").write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CorruptFile):
        load_vocabulary(tmp_path / "truncated")
    flipped = bytearray(raw)
    flipped[-33] ^= 0x01  # last vector byte, just before the corpus digest
    (tmp_path / "flipped").write_bytes(bytes(flipped))
    with pytest.raises(CorruptFile):
        load_vocabulary(tmp_path / "flipped")
    (tmp_path / "trailing").write_bytes(raw + b"\x00")
    with pytest.raises(CorruptFile):
        load_vocabulary(tmp_path / "trailing")


def _vocab_digest(vocab) -> str:
    digest = hashlib.sha256()
    for token in sorted(vocab.vectors):
        digest.update(token.encode() + b"\0" + vocab.vectors[token].tobytes())
    digest.update(vocab.training_corpus_hash)
    return digest.hexdigest()


@pytest.mark.parametrize("count, prefix, largest", [
    (3, "a917984304442546", 0.56),      # converges
    (10, "e32c97b9d4a12462", 1.6e6),    # diverges, still finite
    (40, "4933eb789bb30d45", None),     # every weight NaN
])
def test_vocabulary_digest_is_pinned(count, prefix, largest, config):
    """Golden bits of the vocabulary trained on the paths of
    make_corpus(count). Past about 2000 path tokens the trainer diverges,
    and on diverged weights any change of rounding or summation order
    changes the vocabulary; a change to the trainer's numerics must update
    these pins on purpose."""
    corpus = []
    for _, _, code in make_corpus(count, seed=7):
        for fn in analyze_contract(code).functions:
            corpus += [[ins.opcode.mnemonic for bid in path.blocks
                        for ins in fn.blocks[bid].instructions]
                       for path in enumerate_paths(fn).paths]
    with np.errstate(all="ignore"):
        vocab = train_vocabulary(corpus, config)
    weights = np.stack(list(vocab.vectors.values()))
    if largest is None:
        assert np.isnan(weights).all()
    else:
        np.testing.assert_allclose(np.abs(weights).max(), largest, rtol=0.02)
    assert _vocab_digest(vocab)[:16] == prefix


@pytest.mark.parametrize("case", ["duplicates", "magnitudes", "one-row",
                                  "nan-payloads"])
def test_add_rows_matches_add_at_bits(case):
    rng = np.random.default_rng(11)
    rows, dim = 40, 64
    if case == "one-row":          # one row hit 6144 times, the rest never
        index = np.full(6144, 7)
    else:                          # few rows take most hits; 25..39 never
        index = rng.choice(25, size=6144, p=np.arange(25, 0, -1) / 325)
    values = rng.standard_normal((index.size, dim)).astype(np.float32)
    w = rng.standard_normal((rows, dim)).astype(np.float32)
    if case == "magnitudes":       # 1e-3 .. 1e9, so the order of sums shows
        values *= np.float32(10.0) ** rng.integers(-3, 10, values.shape)
        w *= np.float32(1e9)
    if case == "nan-payloads":     # NaNs of two payloads meet
        nans = np.uint32([0x7FC00001, 0xFFC00002]).view(np.float32)
        values[::3] = nans[0]
        w[::2] = nans[1]
    expected = w.copy()
    np.add.at(expected, index, values)
    _add_rows(w, index, lambda sel: values[sel])
    if case == "nan-payloads":     # which NaN survives may differ
        nan = np.isnan(expected)
        assert (np.isnan(w) == nan).all()
        w[nan] = expected[nan] = 0
    assert w.tobytes() == expected.tobytes()


def test_window_pairs_match_nested_loop():
    window = 5
    sequences = [list(range(100 * n, 100 * n + n)) for n in range(1, 13)]
    centers, contexts = [], []
    for ids in sequences:
        for pos, center in enumerate(ids):
            for ctx in range(max(0, pos - window),
                             min(len(ids), pos + window + 1)):
                if ctx != pos:
                    centers.append(center)
                    contexts.append(ids[ctx])
    flat = np.array([t for ids in sequences for t in ids], dtype=np.int64)
    lengths = np.array([len(ids) for ids in sequences], dtype=np.int64)
    got_centers, got_contexts = _window_pairs(flat, lengths, window)
    assert got_centers.tolist() == centers
    assert got_contexts.tolist() == contexts
