"""Path embedding and the frozen sequence encoder.

The encoder is a 6-layer multi-head attention stack with exact softmax
attention, plus position-wise feed-forward blocks, residual connections,
and layer normalization.

A batch is encoded packed: the valid rows of its paths are laid end to end
in one (T, d) array, with no padding, and each path is a segment of it.
The projections, layer norms and feed-forward blocks run per row on the
whole pack. Attention runs per segment: for a segment of L rows it forms
the (heads, L, L) scores q k^T / sqrt(dh), turns them in place into
softmax weights (row max subtracted, exp, divided by the row sum) and
multiplies them by v. Paths are at most m_max = 512 tokens long, so the
largest scores array is (8, 512, 512) float32, 8 MB. A path's encoding
depends on its own rows only, bit for bit, so it is the same in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch
from .config import EmbeddingConfig
from .params import EncoderParams
from .vocab import Vocabulary

_LN_EPS = np.float32(1e-5)


@dataclass(frozen=True)
class PathEmbedding:
    path_index: int
    matrix: np.ndarray   # m_max x word_dim, rows >= valid_len are zero
    valid_len: int
    mask: np.ndarray     # bool, length m_max
    truncated: bool


def embed_path(tokens: list, vocab: Vocabulary,
               config: EmbeddingConfig | None = None,
               path_index: int = 0) -> PathEmbedding:
    """Stack per-token word vectors, zero-padded/truncated to m_max."""
    config = config or EmbeddingConfig()
    m_max = config.m_max
    truncated = len(tokens) > m_max
    tokens = tokens[:m_max]
    matrix = np.zeros((m_max, config.word_dim), dtype=np.float32)
    for row, token in enumerate(tokens):
        matrix[row] = vocab.lookup(token)
    mask = np.zeros(m_max, dtype=bool)
    mask[:len(tokens)] = True
    return PathEmbedding(path_index, matrix, len(tokens), mask, truncated)


def _layer_norm(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return ((x - mean) / np.sqrt(var + _LN_EPS)) * gain + bias


def _attention_layer(x, starts, lengths, layer, heads):
    """Exact softmax attention over packed segments.

    x is (T, d): the rows of every segment, end to end. A row attends only
    to rows of its own segment, which starts at ``starts[s]`` and holds
    ``lengths[s]`` rows.
    """
    total, d = x.shape
    head_dim = d // heads

    def split(mat):
        return (x @ mat).reshape(total, heads, head_dim).transpose(1, 0, 2)

    q = split(layer["wq"]) * np.float32(head_dim ** -0.5)  # (h, T, dh)
    k = split(layer["wk"])
    v = split(layer["wv"])

    out = np.empty((total, heads, head_dim), dtype=np.float32)
    for start, length in zip(starts, lengths):
        rows = slice(start, start + length)
        scores = q[:, rows] @ k[:, rows].transpose(0, 2, 1)  # (h, L, L)
        scores -= scores.max(axis=2, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=2, keepdims=True)
        out[rows] = (scores @ v[:, rows]).transpose(1, 0, 2)
    return out.reshape(total, d) @ layer["wo"]


def encode_sequences(batch, params: EncoderParams,
                     config: EmbeddingConfig | None = None) -> np.ndarray:
    """Encode a batch of PathEmbeddings into an (n, m_max, seq_dim) tensor.

    Rows at or past a path's valid_len are zero in the output, and a path's
    rows depend on that path alone: it encodes bit-identically in any batch.
    """
    config = config or params.config
    if not batch:
        raise DimensionMismatch("empty batch")
    for p in batch:
        if p.matrix.shape[1] != config.word_dim:
            raise DimensionMismatch(
                f"word dim {p.matrix.shape[1]} != {config.word_dim}")

    out = np.zeros((len(batch), config.m_max, config.seq_dim),
                   dtype=np.float32)
    owners = [i for i, p in enumerate(batch) if p.valid_len > 0]
    if not owners:
        return out
    lengths = np.array([batch[i].valid_len for i in owners])
    rows = [batch[i].matrix[:batch[i].valid_len] for i in owners]
    if lengths.sum() == 1:
        # numpy sends a one-row product to gemv, which rounds differently
        # from the gemm of longer packs: add an unowned one-row segment
        rows.append(rows[0])
        lengths = np.array([1, 1])
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))

    x = np.concatenate(rows).astype(np.float32) @ params.input_proj \
        + params.input_bias
    for layer in params.seq_layers:
        attn = _attention_layer(x, starts, lengths, layer, config.seq_heads)
        x = _layer_norm(x + attn, layer["ln1_g"], layer["ln1_b"])
        hidden = np.maximum(x @ layer["w1"] + layer["b1"], np.float32(0.0))
        x = _layer_norm(x + hidden @ layer["w2"] + layer["b2"],
                        layer["ln2_g"], layer["ln2_b"])

    for i, start, length in zip(owners, starts, lengths):
        out[i, :length] = x[start:start + length]
    return out
