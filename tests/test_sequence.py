import numpy as np
import pytest

from deltascan.encoder import (EmbeddingConfig, embed_path, encode_sequences,
                               PathEmbedding, sequence)
from deltascan.encoder.params import init_params
from deltascan.errors import DimensionMismatch
from oracles.attention_ref import approx_attention, attention_layer


def test_embed_path_shape_and_padding(small_vocab, config):
    pe = embed_path(["PUSH1", "ADD"], small_vocab, config)
    assert pe.matrix.shape == (config.m_max, config.word_dim)
    assert pe.valid_len == 2
    np.testing.assert_array_equal(pe.matrix[0], small_vocab.lookup("PUSH1"))
    np.testing.assert_array_equal(pe.matrix[1], small_vocab.lookup("ADD"))
    assert not pe.matrix[2:].any()
    assert list(pe.mask[:3]) == [True, True, False]
    assert not pe.truncated


def test_embed_path_empty(small_vocab, config):
    pe = embed_path([], small_vocab, config)
    assert pe.valid_len == 0
    assert not pe.mask.any()
    assert not pe.matrix.any()


def test_embed_path_truncation(small_vocab, config):
    tokens = ["ADD"] * (config.m_max + 10)
    pe = embed_path(tokens, small_vocab, config)
    assert pe.valid_len == config.m_max
    assert pe.truncated


def test_encode_output_shape(small_vocab, config, params):
    batch = [embed_path(["PUSH1", "ADD", "STOP"], small_vocab, config,
                        path_index=i) for i in range(3)]
    out = encode_sequences(batch, params, config)
    assert out.shape == (3, config.m_max, config.seq_dim)
    assert out.dtype == np.float32


def test_identical_paths_encode_identically(small_vocab, config, params):
    a = embed_path(["PUSH1", "SLOAD", "CALL"], small_vocab, config, 0)
    b = embed_path(["PUSH1", "SLOAD", "CALL"], small_vocab, config, 1)
    filler = embed_path(["JUMPDEST", "STOP"], small_vocab, config, 2)
    out = encode_sequences([a, filler, b], params, config)
    np.testing.assert_array_equal(out[0], out[2])


def test_determinism(small_vocab, config, params):
    batch = [embed_path(["DUP1", "PUSH4", "EQ"], small_vocab, config)]
    o1 = encode_sequences(batch, params, config)
    o2 = encode_sequences(batch, params, config)
    assert o1.tobytes() == o2.tobytes()


def test_masked_rows_do_not_influence_output(small_vocab, config, params):
    tokens = ["PUSH1", "MSTORE", "RETURN", "ADD"]
    clean = embed_path(tokens, small_vocab, config)
    dirty_matrix = clean.matrix.copy()
    dirty_matrix[10:20] = 7.5  # poke masked padding rows
    dirty = PathEmbedding(0, dirty_matrix, clean.valid_len, clean.mask, False)
    out_clean = encode_sequences([clean], params, config)
    out_dirty = encode_sequences([dirty], params, config)
    assert np.abs(out_clean[0, :4] - out_dirty[0, :4]).max() <= 1e-6


def test_masked_output_rows_are_zero(small_vocab, config, params):
    pe = embed_path(["PUSH1", "ADD"], small_vocab, config)
    out = encode_sequences([pe], params, config)
    assert not out[0, 2:].any()


def test_fully_masked_path_is_finite(small_vocab, config, params):
    empty = embed_path([], small_vocab, config)
    other = embed_path(["STOP"], small_vocab, config)
    out = encode_sequences([empty, other], params, config)
    assert np.isfinite(out).all()
    assert not out[0].any()


def test_dimension_mismatch_rejected(params, config):
    bad = PathEmbedding(0, np.zeros((config.m_max, 32), dtype=np.float32), 1,
                        np.arange(config.m_max) < 1, False)
    with pytest.raises(DimensionMismatch):
        encode_sequences([bad], params, config)
    with pytest.raises(DimensionMismatch):
        encode_sequences([], params, config)


def test_attention_rows_sum_to_one(params, config):
    rng = np.random.default_rng(0)
    head_dim = config.seq_dim // config.seq_heads
    omega = params.seq_layers[0]["omega"][0]
    q = rng.standard_normal((16, head_dim)).astype(np.float32)
    k = rng.standard_normal((16, head_dim)).astype(np.float32)
    attn = approx_attention(q, k, omega)
    np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-6)
    assert (attn >= 0).all()


def test_attention_correlates_with_exact_softmax(params, config):
    """FAVOR+ fidelity: Pearson r against exact softmax attention, averaged
    over 100 seeded fixtures, must be >= 0.9 for moderate-scale inputs."""
    rng = np.random.default_rng(42)
    head_dim = config.seq_dim // config.seq_heads
    omega = params.seq_layers[0]["omega"][0]
    rs = []
    for _ in range(100):
        length = int(rng.integers(4, 33))
        q = (0.45 * rng.standard_normal((length, head_dim))).astype(np.float32)
        k = (0.45 * rng.standard_normal((length, head_dim))).astype(np.float32)
        approx = approx_attention(q, k, omega)
        scale = head_dim ** -0.25
        logits = (q * scale) @ (k * scale).T
        logits -= logits.max(axis=1, keepdims=True)
        exact = np.exp(logits)
        exact /= exact.sum(axis=1, keepdims=True)
        r = np.corrcoef(approx.ravel(), exact.ravel())[0, 1]
        rs.append(r)
    assert float(np.mean(rs)) >= 0.9


def _random_path(rng, config, valid_len, magnitude=1.0):
    matrix = np.zeros((config.m_max, config.word_dim), dtype=np.float32)
    matrix[:valid_len] = magnitude * rng.standard_normal(
        (valid_len, config.word_dim))
    return PathEmbedding(0, matrix, valid_len,
                         np.arange(config.m_max) < valid_len, False)


@pytest.mark.parametrize("lengths, magnitude", [
    ([3, 17, 1, 40, 9], 1.0),
    ([0, 12, 5], 1.0),
    ([512], 1.0),
    # 1e10: the length a diverged vocabulary gives its word vectors
    ([4, 30, 11], 1e10),
], ids=["ragged", "fully-masked", "m_max-long", "diverged-scale"])
def test_encode_matches_einsum_oracle(lengths, magnitude, params, config,
                                      monkeypatch):
    """The matmul attention stays within 1e-5 of the einsum reference."""
    rng = np.random.default_rng(0)
    batch = [_random_path(rng, config, n, magnitude) for n in lengths]
    out = encode_sequences(batch, params, config)
    monkeypatch.setattr(sequence, "_attention_layer", attention_layer)
    expected = encode_sequences(batch, params, config)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-5)


def test_attention_layer_is_zero_on_padded_rows(params, config):
    """Padded rows, including a fully padded sequence, leave the layer as
    exact zeros, as in the reference."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 8, config.seq_dim)).astype(np.float32)
    mask = np.arange(8)[None, :] < np.array([[0], [5]])
    layer = params.seq_layers[0]
    out = sequence._attention_layer(x, mask, layer, config.seq_heads)
    ref = attention_layer(x, mask, layer, config.seq_heads)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-5)
    assert not out[0].any() and not out[1, 5:].any()
