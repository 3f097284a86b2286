"""Einsum reference for the sequence encoder's random-feature attention.

`attention_layer` is the layer as first written: explicit `np.einsum`
products, out-of-place feature maps, and a padded (n, L) batch with a
mask. `encode_reference` is the padded encoder loop that drives it, with
the same arguments and output as `deltascan.encoder.encode_sequences`; it
shares no code with the packed encoder, so a test can compare the two.
`approx_attention` builds the explicit (L, L) attention matrix that the
linear path factorizes, for one head.
"""

import numpy as np

_EPS = np.float32(1e-6)
_LN_EPS = np.float32(1e-5)


def _positive_features(centered, stabilizer):
    """exp(w.x - |x|^2/2 - C) / sqrt(m); centered (..., L, m).

    Masked positions arrive pre-set to a large negative value, so they
    underflow to exactly zero here.
    """
    m = centered.shape[-1]
    return np.exp((centered - stabilizer).astype(np.float32)) / \
        np.float32(np.sqrt(m))


def attention_layer(x, mask, layer, heads):
    n, length, d = x.shape
    head_dim = d // heads
    scale = np.float32(head_dim ** -0.25)

    def split(mat):
        return (x @ mat).reshape(n, length, heads, head_dim).transpose(0, 2, 1, 3)

    q = split(layer["wq"]) * scale  # (n, h, L, dh)
    k = split(layer["wk"]) * scale
    v = split(layer["wv"])

    omega = layer["omega"]  # (h, m_feat, dh)
    logits_q = np.einsum("nhld,hmd->nhlm", q, omega)
    logits_k = np.einsum("nhld,hmd->nhlm", k, omega)
    sq_q = 0.5 * (q * q).sum(-1)
    sq_k = 0.5 * (k * k).sum(-1)

    # shared stabilizer per (sequence, head), over unmasked positions only
    valid = mask[:, None, :, None]  # (n, 1, L, 1)
    neg_inf = np.float32(-1e30)
    cand_q = np.where(valid, logits_q - sq_q[..., None], neg_inf)
    cand_k = np.where(valid, logits_k - sq_k[..., None], neg_inf)
    stabilizer = np.maximum(cand_q.max(axis=(2, 3)), cand_k.max(axis=(2, 3)))
    # fully-masked sequences: no valid positions, keep exp() in range
    stabilizer = np.where(stabilizer < np.float32(-1e29), np.float32(0.0),
                          stabilizer)[:, :, None, None]

    phi_q = _positive_features(cand_q, stabilizer)
    phi_k = _positive_features(cand_k, stabilizer)

    kv = np.einsum("nhlm,nhld->nhmd", phi_k, v)
    z = phi_k.sum(axis=2)  # (n, h, m)
    numer = np.einsum("nhlm,nhmd->nhld", phi_q, kv)
    denom = np.einsum("nhlm,nhm->nhl", phi_q, z)[..., None] + _EPS
    out = (numer / denom).transpose(0, 2, 1, 3).reshape(n, length, d)
    return out @ layer["wo"]


def _layer_norm(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return ((x - mean) / np.sqrt(var + _LN_EPS)) * gain + bias


def encode_reference(batch, params, config):
    """(n, m_max, seq_dim) encoding of a batch of PathEmbeddings, computed
    on the batch padded to its longest path, with masked rows zeroed."""
    matrices = np.stack([p.matrix for p in batch]).astype(np.float32)
    masks = np.stack([p.mask for p in batch])
    work_len = max(1, int(masks.sum(axis=1).max()))
    x = matrices[:, :work_len, :] @ params.input_proj + params.input_bias
    mask = masks[:, :work_len]
    x = np.where(mask[..., None], x, np.float32(0.0))

    for layer in params.seq_layers:
        attn = attention_layer(x, mask, layer, config.seq_heads)
        x = _layer_norm(x + attn, layer["ln1_g"], layer["ln1_b"])
        hidden = np.maximum(x @ layer["w1"] + layer["b1"], np.float32(0.0))
        x = _layer_norm(x + hidden @ layer["w2"] + layer["b2"],
                        layer["ln2_g"], layer["ln2_b"])
        x = np.where(mask[..., None], x, np.float32(0.0))

    out = np.zeros((len(batch), config.m_max, config.seq_dim), dtype=np.float32)
    out[:, :work_len, :] = x
    return out


def approx_attention(q: np.ndarray, k: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Explicit random-feature attention matrix for one head.

    q, k: (L, head_dim) already projected; omega: (m_feat, head_dim).
    Returns the row-normalized (L, L) matrix the linear path factorizes.
    """
    scale = np.float32(q.shape[-1] ** -0.25)
    q = q * scale
    k = k * scale
    lq = q @ omega.T - 0.5 * (q * q).sum(-1, keepdims=True)
    lk = k @ omega.T - 0.5 * (k * k).sum(-1, keepdims=True)
    stab = max(lq.max(), lk.max())
    phi_q = np.exp(lq - stab)
    phi_k = np.exp(lk - stab)
    scores = phi_q @ phi_k.T
    return scores / (scores.sum(axis=1, keepdims=True) + 1e-30)
