import hashlib
import struct
import zlib

import numpy as np
import pytest

from deltascan.cfg import analyze_contract, enumerate_paths
from deltascan.encoder import (EmbeddingConfig, load_vocabulary,
                               save_vocabulary, train_vocabulary)
from deltascan.encoder.vocab import TOKEN_BYTES, _window_pairs
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


def _token_digest(vocab) -> str:
    digest = hashlib.sha256("\0".join(vocab.vectors).encode())
    digest.update(vocab.training_corpus_hash)
    return digest.hexdigest()


@pytest.mark.parametrize("count, prefix, largest, trace, quadratic", [
    (3, "53523b6747a0b632", 2.19, 66.7617544, 83.3999165),
    (10, "5f2feb7beb962cbb", 1.86, 65.3552055, 85.6898968),
    (40, "dfaaa056ce608c33", 2.01, 66.1259745, 85.621704),
], ids=["make_corpus3", "make_corpus10", "make_corpus40"])
def test_vocabulary_digest_is_pinned(count, prefix, largest, trace, quadratic,
                                     config):
    """Golden values of the vocabulary trained on the paths of
    make_corpus(count): a digest of its tokens in order and of its corpus
    hash, its largest element, and the trace and one seeded quadratic form
    of the Gram matrix W W^T. The Gram matrix does not depend on the basis
    or the signs the SVD picks, and a LAPACK build that rounds differently
    moves it by about 1e-7, so the float bits are not pinned. A change to
    the numerics (the counts, the PMI, the smoothing, W + C) must update
    these pins on purpose."""
    corpus = []
    for _, _, code in make_corpus(count, seed=7):
        for fn in analyze_contract(code).functions:
            corpus += [token_bytes([ins.opcode.mnemonic for bid in path.blocks
                                    for ins in fn.blocks[bid].instructions])
                       for path in enumerate_paths(fn).paths]
    vocab = train_vocabulary(corpus, config)
    assert _token_digest(vocab)[:16] == prefix
    words = np.stack(list(vocab.vectors.values())).astype(np.float64)
    np.testing.assert_allclose(np.abs(words).max(), largest, rtol=0.02)
    gram = words @ words.T
    probe = np.random.default_rng(0).random(len(gram))
    np.testing.assert_allclose([np.trace(gram), probe @ gram @ probe],
                               [trace, quadratic], rtol=1e-6)


def test_vectors_factorise_the_ppmi_matrix(config):
    """The word plus context vectors W + C of the SVD M = U S V^T of the
    PPMI matrix M have the Gram matrix U S U^T + V S V^T + M + M^T =
    sqrt(M M^T) + sqrt(M^T M) + M + M^T, whatever basis the SVD picks for
    equal singular values. M is built here pair by pair, and the square
    roots come from eigendecompositions, not from an SVD. Each column's
    largest-magnitude entry is positive, and the columns past the rank are
    zero."""
    rng = np.random.default_rng(5)
    names = ["PUSH1", "ADD", "MLOAD", "SSTORE", "CALLER", "EQ", "JUMPI",
             "STOP"]
    corpus = [token_bytes([names[i] for i in rng.integers(0, 8, size=n)])
              for n in rng.integers(1, 30, size=40)]
    vocab = train_vocabulary(corpus, config)
    tokens = sorted(vocab.vectors)
    pairs = {}
    for seq in corpus:
        words = [BYTE_MNEMONICS[b] for b in seq]
        for i, center in enumerate(words):
            for j in range(max(0, i - config.window),
                           min(len(words), i + config.window + 1)):
                if j != i:
                    key = (center, words[j])
                    pairs[key] = pairs.get(key, 0) + 1
    rows = {t: sum(n for (w, _), n in pairs.items() if w == t)
            for t in tokens}
    smoothed = {t: sum(n for (_, c), n in pairs.items() if c == t) ** 0.75
                for t in tokens}
    total = sum(smoothed.values())
    m = np.array([[max(0.0, np.log(pairs[(w, c)] * total
                                   / (rows[w] * smoothed[c])))
                   if (w, c) in pairs else 0.0 for c in tokens]
                  for w in tokens])

    def sqrt_psd(a):
        values, vectors = np.linalg.eigh(a)
        return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.T
    expected = sqrt_psd(m @ m.T) + sqrt_psd(m.T @ m) + m + m.T
    words = np.stack([vocab.vectors[t] for t in tokens]).astype(np.float64)
    np.testing.assert_allclose(words @ words.T, expected, atol=1e-4)
    assert not words[:, len(tokens):].any()
    largest = words[np.abs(words).argmax(axis=0), np.arange(words.shape[1])]
    assert (largest[:len(tokens)] > 0).all()


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
