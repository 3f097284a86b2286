import hashlib
import struct
import zlib

import numpy as np
import pytest

from deltascan.cfg import analyze_contract, enumerate_paths
from deltascan.encoder import (EmbeddingConfig, load_vocabulary,
                               save_vocabulary, train_vocabulary)
from deltascan.encoder.vocab import TOKEN_BYTES, _add_rows, _window_pairs
from deltascan.errors import CorruptFile, EmptyCorpus
from deltascan.evm import BYTE_MNEMONICS
from fixtures import make_corpus, token_bytes


def test_single_token_corpus_shape(config):
    vocab = train_vocabulary([token_bytes(["STOP"])], config)
    assert "STOP" in vocab.vectors
    assert vocab.rows(token_bytes(["STOP"]))[0].shape == (64,)
    assert vocab.rows(token_bytes(["STOP"]))[0].dtype == np.float32


def test_oov_returns_zero_vector(config):
    vocab = train_vocabulary([token_bytes(["STOP", "ADD"])], config)
    zero = vocab.rows(token_bytes(["MUL"]))[0]
    assert zero.shape == (64,)
    assert not zero.any()
    assert "MUL" not in vocab.vectors


def test_rows_read_each_byte_through_its_mnemonic(small_vocab):
    """Every byte, undefined ones too, reads the vector of its mnemonic,
    or zeros when the vocabulary does not hold that token."""
    table = small_vocab.rows(bytes(range(256)))
    assert table.shape == (256, small_vocab.word_dim)
    assert table.dtype == np.float32
    for byte in range(256):
        row = small_vocab.rows(bytes([byte]))
        assert row.shape == (1, small_vocab.word_dim)
        vec = small_vocab.vectors.get(BYTE_MNEMONICS[byte])
        expected = np.zeros(small_vocab.word_dim, np.float32) \
            if vec is None else vec
        assert row[0].tobytes() == table[byte].tobytes() == \
            expected.tobytes()
    assert small_vocab.rows(b"").shape == (0, small_vocab.word_dim)


def test_undefined_bytes_train_as_invalid(config):
    """An undefined opcode byte is the token INVALID, as 0xFE is."""
    raw = train_vocabulary([bytes([0x60, 0x0C, 0x01, 0xEF])], config)
    mapped = train_vocabulary([bytes([0x60, 0x0C, 0x01, 0xEF])
                               .translate(TOKEN_BYTES)], config)
    assert set(raw.vectors) == {"PUSH1", "INVALID", "ADD"}
    assert raw.training_corpus_hash == mapped.training_corpus_hash
    for token, vec in raw.vectors.items():
        assert vec.tobytes() == mapped.vectors[token].tobytes()


def test_empty_corpus_raises(config):
    with pytest.raises(EmptyCorpus):
        train_vocabulary([], config)
    with pytest.raises(EmptyCorpus):
        train_vocabulary([b"", b""], config)


def test_config_is_required():
    with pytest.raises(TypeError):
        train_vocabulary([token_bytes(["STOP"])])


def test_training_is_deterministic(small_vocab, config):
    corpus = [token_bytes(["PUSH1", "ADD", "STOP"]),
              token_bytes(["MLOAD", "PUSH1", "ADD"])] * 3
    v1 = train_vocabulary(corpus, config)
    v2 = train_vocabulary(corpus, config)
    assert v1.training_corpus_hash == v2.training_corpus_hash
    for token in v1.vectors:
        assert v1.vectors[token].tobytes() == v2.vectors[token].tobytes()


def test_different_corpora_have_different_hashes(config):
    a = train_vocabulary([token_bytes(["ADD", "STOP"])], config)
    b = train_vocabulary([token_bytes(["MUL", "STOP"])], config)
    assert a.training_corpus_hash != b.training_corpus_hash


def test_cooccurring_tokens_correlate(config):
    # PUSH1/ADD always co-occur; XOR lives in disjoint sequences
    corpus = ([token_bytes(["PUSH1", "ADD"])] * 40
              + [token_bytes(["XOR", "MLOAD"])] * 40)
    vocab = train_vocabulary(corpus, config)

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    push_add = cos(vocab.vectors["PUSH1"], vocab.vectors["ADD"])
    push_xor = cos(vocab.vectors["PUSH1"], vocab.vectors["XOR"])
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


def test_load_rejects_an_unknown_mnemonic(tmp_path):
    """A file whose checksum holds but which names a token no opcode has
    is refused, not read as an out-of-vocabulary token."""
    path = tmp_path / "one.vocab"
    for token in (b"STOP", b"NOPE"):
        payload = (struct.pack("<H", len(token)) + token
                   + np.ones(2, dtype="<f4").tobytes() + bytes(32))
        path.write_bytes(b"DSVW" + struct.pack("<HHII", 2, 2, 1,
                                               zlib.crc32(payload))
                         + payload)
        if token == b"STOP":
            assert list(load_vocabulary(path).vectors) == ["STOP"]
    with pytest.raises(CorruptFile, match="unknown token"):
        load_vocabulary(path)


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
            corpus += [token_bytes([ins.opcode.mnemonic for bid in path.blocks
                                    for ins in fn.blocks[bid].instructions])
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
