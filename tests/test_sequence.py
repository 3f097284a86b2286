import tracemalloc

import numpy as np
import pytest

from deltascan.encoder import (EmbeddingConfig, embed_path, encode_sequences,
                               PathEmbedding)
from deltascan.encoder.sequence import _attention_layer, _segment_groups
from deltascan.errors import DimensionMismatch
from fixtures import token_bytes
from oracles.attention_ref import encode_reference


def test_embed_path_shape_and_padding(small_vocab, config):
    """A path holds one word-vector row per token and no padding."""
    pe = embed_path(token_bytes(["PUSH1", "ADD"]), small_vocab, config)
    assert pe.rows.shape == (2, config.word_dim)
    assert pe.rows.dtype == np.float32
    assert pe.valid_len == 2
    np.testing.assert_array_equal(pe.rows[0], small_vocab.vectors["PUSH1"])
    np.testing.assert_array_equal(pe.rows[1], small_vocab.vectors["ADD"])
    assert not pe.truncated


def test_embed_path_empty(small_vocab, config):
    pe = embed_path(b"", small_vocab, config)
    assert pe.valid_len == 0
    assert pe.rows.shape == (0, config.word_dim)
    assert not pe.truncated


def test_embed_path_truncation(small_vocab, config):
    tokens = token_bytes(["ADD"] * (config.m_max + 10))
    pe = embed_path(tokens, small_vocab, config)
    assert pe.valid_len == config.m_max
    assert pe.rows.shape == (config.m_max, config.word_dim)
    assert pe.truncated


def test_encode_output_shape(small_vocab, config, params):
    batch = [embed_path(token_bytes(["PUSH1", "ADD", "STOP"]), small_vocab,
                        config)
             for _ in range(3)]
    out = encode_sequences(batch, params)
    assert len(out) == 3
    for rows in out:
        assert rows.shape == (3, config.seq_dim)
        assert rows.dtype == np.float32


def test_identical_paths_encode_identically(small_vocab, config, params):
    a = embed_path(token_bytes(["PUSH1", "SLOAD", "CALL"]), small_vocab,
                   config)
    b = embed_path(token_bytes(["PUSH1", "SLOAD", "CALL"]), small_vocab,
                   config)
    filler = embed_path(token_bytes(["JUMPDEST", "STOP"]), small_vocab,
                        config)
    out = encode_sequences([a, filler, b], params)
    np.testing.assert_array_equal(out[0], out[2])


def test_determinism(small_vocab, config, params):
    batch = [embed_path(token_bytes(["DUP1", "PUSH4", "EQ"]), small_vocab,
                        config)]
    (o1,) = encode_sequences(batch, params)
    (o2,) = encode_sequences(batch, params)
    assert o1.tobytes() == o2.tobytes()


def test_output_holds_valid_rows_only(small_vocab, config, params):
    pe = embed_path(token_bytes(["PUSH1", "ADD"]), small_vocab, config)
    (rows,) = encode_sequences([pe], params)
    assert rows.shape == (2, config.seq_dim)


def test_fully_masked_path_is_finite(small_vocab, config, params):
    empty = embed_path(b"", small_vocab, config)
    other = embed_path(token_bytes(["STOP"]), small_vocab, config)
    out = encode_sequences([empty, other], params)
    assert all(np.isfinite(rows).all() for rows in out)
    assert out[0].shape == (0, config.seq_dim)


def test_dimension_mismatch_rejected(params, config):
    for rows in (np.zeros((1, 32)), np.zeros((0, 32)), np.zeros(64)):
        bad = PathEmbedding(rows.astype(np.float32), False)
        with pytest.raises(DimensionMismatch):
            encode_sequences([bad], params)
    with pytest.raises(DimensionMismatch):
        encode_sequences([], params)


def _attention_pack(rng, config, lengths):
    x = rng.standard_normal((sum(lengths), config.seq_dim)).astype(np.float32)
    return x, _segment_groups(lengths, config.m_max)


def test_segment_groups_chunk_equal_length_runs():
    """Runs of equal lengths share a group, chunked so that segments *
    length**2 <= m_max**2; a length change starts a new group."""
    assert _segment_groups([2] * 5 + [3, 2], 4) == [
        (0, 4, 2), (8, 1, 2), (10, 1, 3), (13, 1, 2)]
    assert _segment_groups([512] * 3, 512) == [
        (0, 1, 512), (512, 1, 512), (1024, 1, 512)]
    assert _segment_groups([20] * 700, 512) == [(0, 655, 20),
                                               (13100, 45, 20)]


def test_attention_rows_sum_to_one(params, config):
    """Softmax weights sum to one, so a segment of identical rows, whose
    values are all equal, returns its value (x @ wv) @ wo on every row."""
    rng = np.random.default_rng(0)
    layer = params.seq_layers[0]
    x, groups = _attention_pack(rng, config, [5, 9, 3])
    x[5:14] = x[7]
    out = _attention_layer(x, groups, layer, config.seq_heads)
    expected = (x[7] @ layer["wv"]) @ layer["wo"]
    for row in out[5:14]:
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-6)


def test_attention_segments_do_not_interact(params, config):
    """Changing one segment of a pack leaves every other segment's rows
    bit-identical."""
    rng = np.random.default_rng(1)
    layer = params.seq_layers[2]
    x, groups = _attention_pack(rng, config, [4, 1, 30, 7])
    before = _attention_layer(x, groups, layer, config.seq_heads)
    x[5:35] = rng.standard_normal((30, config.seq_dim))
    after = _attention_layer(x, groups, layer, config.seq_heads)
    assert not np.array_equal(before[5:35], after[5:35])
    assert np.array_equal(before[:5], after[:5])
    assert np.array_equal(before[35:], after[35:])


def _random_path(rng, config, valid_len, magnitude=1.0):
    rows = magnitude * rng.standard_normal((valid_len, config.word_dim))
    return PathEmbedding(rows.astype(np.float32), False)


@pytest.mark.parametrize("lengths, magnitude", [
    ([3, 17, 1, 40, 9], 1.0),
    ([0, 12, 5], 1.0),
    ([512], 1.0),
    # 1e10: the length a diverged vocabulary gives its word vectors
    ([4, 30, 11], 1e10),
], ids=["ragged", "fully-masked", "m_max-long", "diverged-scale"])
def test_encode_matches_oracle(lengths, magnitude, params, config):
    """The packed encoder stays within 1e-5 of the padded float64
    exact-softmax reference."""
    rng = np.random.default_rng(0)
    batch = [_random_path(rng, config, n, magnitude) for n in lengths]
    out = encode_sequences(batch, params)
    expected = encode_reference(batch, params)
    for rows, want in zip(out, expected):
        assert np.isfinite(rows).all()
        np.testing.assert_allclose(rows, want, rtol=0, atol=1e-5)


def test_zero_length_paths_encode_to_no_rows(params, config):
    """A path comes back as exactly valid_len rows: none for a zero-length
    path, and no row of a nonempty path is all zero."""
    rng = np.random.default_rng(3)
    lengths = [0, 5, 0, 1, 33]
    batch = [_random_path(rng, config, n) for n in lengths]
    out = encode_sequences(batch, params)
    for rows, n in zip(out, lengths):
        assert rows.shape == (n, config.seq_dim)
        assert rows.any(axis=1).all()
    assert encode_sequences(batch[:1], params)[0].shape == \
        (0, config.seq_dim)


def test_encoding_is_bitwise_batch_invariant(params, config):
    """A path encodes to the same bits alone, among other paths, and in
    reversed order, so equal paths stored and scanned in different batches
    sit at distance exactly 0."""
    rng = np.random.default_rng(5)
    lengths = [0, 1, 2, 512, 7, 1, 40]
    batch = [_random_path(rng, config, n) for n in lengths]
    together = encode_sequences(batch, params)
    backwards = encode_sequences(batch[::-1], params)[::-1]
    for i, path in enumerate(batch):
        alone = encode_sequences([path], params)[0]
        assert np.array_equal(alone, together[i]), lengths[i]
        assert np.array_equal(alone, backwards[i]), lengths[i]


def test_long_paths_group_bitwise_and_chunked(params, config):
    """Twenty m_max-long paths encode to the same bits together as one at a
    time, and attention takes them one group of one path at a time: one
    path's (8, 512, 512) float32 scores are 8 MiB, so the peak stays far
    below the 160 MiB that twenty at once would need."""
    rng = np.random.default_rng(7)
    batch = [_random_path(rng, config, config.m_max) for _ in range(20)]
    tracemalloc.start()
    try:
        together = encode_sequences(batch, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for path, rows in zip(batch, together):
        assert np.array_equal(encode_sequences([path], params)[0],
                              rows)
    scores = config.seq_heads * config.m_max ** 2 * 4
    assert peak < 20 * scores / 2, peak
