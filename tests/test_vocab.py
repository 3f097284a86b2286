import numpy as np
import pytest

from deltascan.encoder import (EmbeddingConfig, load_vocabulary,
                               save_vocabulary, train_vocabulary)
from deltascan.errors import CorruptFile, EmptyCorpus


def test_single_token_corpus_shape():
    vocab = train_vocabulary([["STOP"]])
    assert "STOP" in vocab
    assert vocab.lookup("STOP").shape == (64,)
    assert vocab.lookup("STOP").dtype == np.float32


def test_oov_returns_zero_vector():
    vocab = train_vocabulary([["STOP", "ADD"]])
    zero = vocab.lookup("NOT_AN_OPCODE")
    assert zero.shape == (64,)
    assert not zero.any()
    assert "NOT_AN_OPCODE" not in vocab


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        train_vocabulary([])
    with pytest.raises(EmptyCorpus):
        train_vocabulary([[], []])


def test_training_is_deterministic(small_vocab, config):
    corpus = [["PUSH1", "ADD", "STOP"], ["MLOAD", "PUSH1", "ADD"]] * 3
    v1 = train_vocabulary(corpus, config)
    v2 = train_vocabulary(corpus, config)
    assert v1.training_corpus_hash == v2.training_corpus_hash
    for token in v1.vectors:
        assert v1.vectors[token].tobytes() == v2.vectors[token].tobytes()


def test_different_corpora_have_different_hashes():
    a = train_vocabulary([["ADD", "STOP"]])
    b = train_vocabulary([["MUL", "STOP"]])
    assert a.training_corpus_hash != b.training_corpus_hash


def test_cooccurring_tokens_correlate():
    # PUSH1/ADD always co-occur; XOR lives in disjoint sequences
    corpus = [["PUSH1", "ADD"]] * 40 + [["XOR", "MLOAD"]] * 40
    vocab = train_vocabulary(corpus)

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
