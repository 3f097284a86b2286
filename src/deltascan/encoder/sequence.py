"""Path embedding and the frozen sequence encoder.

A path is embedded from its token bytes (``vocab.TOKEN_BYTES``): the
vocabulary's row of each of its first m_max tokens, with no padding. The
encoder is a 6-layer multi-head attention stack with exact softmax
attention, plus position-wise feed-forward blocks, residual connections,
and layer normalization. The layers are frozen at their seed, so the
layer norms have no gain or bias and the feed-forward blocks no biases:
those a trained encoder would learn start at 1 and 0, where they change
nothing (see ``params``). Every setting is read from ``params.config``.

A batch is encoded packed: the rows of its paths are laid end to end
in one (T, d) array, shortest path first, with no padding, and each path is
a segment of it. The projections, layer norms and feed-forward blocks run
per row on the whole pack. Attention runs per group of consecutive
segments of equal length L: for S of them it forms the (heads, S, L, L)
scores q k^T / sqrt(dh) in one batched matmul, turns them in place into
softmax weights (row max subtracted, exp, divided by the row sum) and
multiplies them by v. The groups are built once per call and chunked so
that S * L**2 <= m_max**2, so no scores array is larger than that of one
m_max = 512 token path, (8, 512, 512) float32, 8 MB. Each segment's slice
of a group is the same BLAS product a lone segment would get, so a path's
encoding depends on its own rows only, bit for bit: it is the same in any
batch. The function entries of the encoder memo (``memo.EncoderMemo``)
rest on this: a function's block vectors, made from its paths in one
batch, are served to every later pass that holds the same function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ..errors import DimensionMismatch
from .config import EmbeddingConfig
from .params import EncoderParams
from .vocab import Vocabulary

_LN_EPS = np.float32(1e-5)


@dataclass(frozen=True)
class PathEmbedding:
    """The word vectors of a path's first m_max tokens, one float32 row
    per token and no padding; ``truncated`` when the path was longer."""
    rows: np.ndarray     # (valid_len, word_dim)
    truncated: bool

    @property
    def valid_len(self) -> int:
        return self.rows.shape[0]


def embed_path(tokens: bytes, vocab: Vocabulary,
               config: EmbeddingConfig) -> PathEmbedding:
    """The word vectors of the path's first m_max token bytes."""
    return PathEmbedding(vocab.rows(tokens[:config.m_max]),
                         len(tokens) > config.m_max)


def _layer_norm(x):
    """(x - mean) / sqrt(var + eps) over the last axis, with the mean and
    variance computed as ``x.mean`` and ``x.var`` compute them (float32
    sums divided by the intp count), the mean only once."""
    count = np.intp(x.shape[-1])
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    centred = x - mean
    var = np.add.reduce(np.square(centred), axis=-1, keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    centred /= np.sqrt(var + _LN_EPS)
    return centred


def _segment_groups(lengths, m_max: int) -> list:
    """(first row, segments, length) of each run of consecutive packed
    segments of equal length, chunked so that segments * length**2 <=
    m_max**2. ``lengths`` are the segments' row counts, in pack order."""
    groups = []
    row = 0
    for length, run in groupby(lengths):
        count = len(list(run))
        cap = max(1, m_max * m_max // (length * length))
        for first in range(0, count, cap):
            segments = min(cap, count - first)
            groups.append((row, segments, length))
            row += segments * length
    return groups


def _attention_layer(x, groups, layer, heads):
    """Exact softmax attention over packed segments.

    x is (T, d): the rows of every segment, end to end. A row attends only
    to rows of its own segment. ``groups`` (see ``_segment_groups``) covers
    the pack with runs of equal-length segments.
    """
    total, d = x.shape
    head_dim = d // heads

    def split(mat):
        return (x @ mat).reshape(total, heads, head_dim)

    q = split(layer["wq"]) * np.float32(head_dim ** -0.5)  # (T, h, dh)
    k = split(layer["wk"])
    v = split(layer["wv"])

    out = np.empty((total, heads, head_dim), dtype=np.float32)
    for row, segments, length in groups:
        rows = slice(row, row + segments * length)

        def group(a):  # (h, S, L, dh) view
            return a[rows].reshape(segments, length, heads,
                                   head_dim).transpose(2, 0, 1, 3)

        scores = group(q) @ group(k).swapaxes(2, 3)  # (h, S, L, L)
        scores -= np.maximum.reduce(scores, axis=3, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=3, keepdims=True)
        out[rows].reshape(segments, length, heads, head_dim)[...] = (
            scores @ group(v)).transpose(1, 2, 0, 3)
    return out.reshape(total, d) @ layer["wo"]


def encode_sequences(batch, params: EncoderParams) -> list:
    """Encode a batch of PathEmbeddings: one (valid_len, seq_dim) float32
    array per path, in batch order. A path's rows depend on that path
    alone: it encodes bit-identically in any batch.
    """
    config = params.config
    if not batch:
        raise DimensionMismatch("empty batch")
    for p in batch:
        if p.rows.shape[1:] != (config.word_dim,):
            raise DimensionMismatch(
                f"path rows {p.rows.shape} != (n, {config.word_dim})")

    out = [np.zeros((0, config.seq_dim), dtype=np.float32)] * len(batch)
    owners = sorted((i for i, p in enumerate(batch) if p.valid_len > 0),
                    key=lambda i: batch[i].valid_len)
    if not owners:
        return out
    lengths = [batch[i].valid_len for i in owners]
    rows = [batch[i].rows for i in owners]
    if lengths == [1]:
        # numpy sends a one-row product to gemv, which rounds differently
        # from the gemm of longer packs: add an unowned one-row segment
        rows.append(rows[0])
        lengths.append(1)
    groups = _segment_groups(lengths, config.m_max)

    x = np.concatenate(rows).astype(np.float32, copy=False) @ params.input_proj
    for layer in params.seq_layers:
        attn = _attention_layer(x, groups, layer, config.seq_heads)
        x = _layer_norm(x + attn)
        hidden = np.maximum(x @ layer["w1"], np.float32(0.0))
        x = _layer_norm(x + hidden @ layer["w2"])

    row = 0
    for i, length in zip(owners, lengths):
        out[i] = x[row:row + length]
        row += length
    return out
