"""Path embedding and the frozen sequence encoder.

The encoder is a 6-layer multi-head attention stack whose softmax kernel is
approximated with positive orthogonal random features (linear attention),
plus position-wise feed-forward blocks, residual connections, and layer
normalization. Masked (padding) positions neither attend nor contribute.

Attention never forms the (L, L) matrix. Per layer and head it computes
the logits q.omega^T and k.omega^T as batched matmuls, turns each logits
buffer in place into its positive features
exp(w.x - |x|^2/2 - C) / sqrt(m), then takes phi_q (phi_k^T v) over
phi_q (phi_k^T 1), again as matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch
from .config import EmbeddingConfig
from .params import EncoderParams
from .vocab import Vocabulary

_EPS = np.float32(1e-6)
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


def _attention_layer(x, mask, layer, heads):
    n, length, d = x.shape
    head_dim = d // heads
    scale = np.float32(head_dim ** -0.25)

    def split(mat):
        return (x @ mat).reshape(n, length, heads, head_dim).transpose(0, 2, 1, 3)

    q = split(layer["wq"]) * scale  # (n, h, L, dh)
    k = split(layer["wk"]) * scale
    v = split(layer["wv"])

    # phi_q, phi_k start as the logits w.x and become the features in place,
    # so only these two (n, h, L, m) arrays are alive at once
    omega_t = layer["omega"].transpose(0, 2, 1)  # (h, dh, m)
    phi_q = q @ omega_t
    phi_k = k @ omega_t
    padded = ~mask
    for phi, proj in ((phi_q, q), (phi_k, k)):
        phi -= 0.5 * (proj * proj).sum(-1)[..., None]
        # indexing an (n, L, h, m) view writes the padded rows only
        phi.transpose(0, 2, 1, 3)[padded] = np.float32(-1e30)

    # shared stabilizer per (sequence, head), over unmasked positions only
    stabilizer = np.maximum(phi_q.max(axis=(2, 3)), phi_k.max(axis=(2, 3)))
    # fully-masked sequences: no valid positions, keep exp() in range
    stabilizer[stabilizer < np.float32(-1e29)] = 0.0
    stabilizer = stabilizer[:, :, None, None]

    # exp(w.x - |x|^2/2 - C) / sqrt(m); padded positions underflow to zero
    root_m = np.float32(np.sqrt(phi_q.shape[-1]))
    for phi in (phi_q, phi_k):
        phi -= stabilizer
        np.exp(phi, out=phi)
        phi /= root_m

    kv = phi_k.transpose(0, 1, 3, 2) @ v  # (n, h, m, dh)
    z = phi_k.sum(axis=2)[..., None]  # (n, h, m, 1)
    numer = phi_q @ kv
    denom = phi_q @ z + _EPS
    out = (numer / denom).transpose(0, 2, 1, 3).reshape(n, length, d)
    return out @ layer["wo"]


def encode_sequences(batch, params: EncoderParams,
                     config: EmbeddingConfig | None = None) -> np.ndarray:
    """Encode a batch of PathEmbeddings into an (n, m_max, seq_dim) tensor.

    Rows at masked positions are zero in the output and never influence
    unmasked positions.
    """
    config = config or params.config
    if not batch:
        raise DimensionMismatch("empty batch")
    matrices = np.stack([p.matrix for p in batch]).astype(np.float32)
    masks = np.stack([p.mask for p in batch])
    if matrices.shape[2] != config.word_dim:
        raise DimensionMismatch(
            f"word dim {matrices.shape[2]} != {config.word_dim}")

    # work on the occupied prefix only; padding rows are zero by contract
    work_len = max(1, int(masks.sum(axis=1).max()))
    x = matrices[:, :work_len, :] @ params.input_proj + params.input_bias
    mask = masks[:, :work_len]
    x = np.where(mask[..., None], x, np.float32(0.0))

    for layer in params.seq_layers:
        attn = _attention_layer(x, mask, layer, config.seq_heads)
        x = _layer_norm(x + attn, layer["ln1_g"], layer["ln1_b"])
        hidden = np.maximum(x @ layer["w1"] + layer["b1"], np.float32(0.0))
        x = _layer_norm(x + hidden @ layer["w2"] + layer["b2"],
                        layer["ln2_g"], layer["ln2_b"])
        x = np.where(mask[..., None], x, np.float32(0.0))

    out = np.zeros((len(batch), config.m_max, config.seq_dim), dtype=np.float32)
    out[:, :work_len, :] = x
    return out

