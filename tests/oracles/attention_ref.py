"""Padded exact-softmax reference for the sequence encoder.

`encode_reference` takes the same arguments as
`deltascan.encoder.encode_sequences` and returns the same encoding, one
(valid_len, seq_dim) float32 array per path, but computes it in float64 on
the batch
padded to its longest path, with padded keys masked out of the softmax
and padded rows zeroed after every layer. It shares no code with the
packed encoder, so a test can compare the two.
"""

import numpy as np


def _layer_norm(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5) * gain + bias


def encode_reference(batch, params, config):
    mask = np.stack([p.mask for p in batch])
    length = max(1, int(mask.sum(axis=1).max()))
    rows = mask[:, :length, None]         # (n, L, 1)
    keys = mask[:, None, None, :length]   # (n, 1, 1, L)
    n, heads = len(batch), config.seq_heads
    head_dim = config.seq_dim // heads
    x = np.stack([p.matrix[:length] for p in batch]).astype(np.float64)
    x = np.where(rows, x @ params.input_proj + params.input_bias, 0.0)

    def split(mat):  # (n, h, L, dh)
        return (x @ mat).reshape(n, length, heads, head_dim).swapaxes(1, 2)

    for layer in params.seq_layers:
        q, k, v = split(layer["wq"]), split(layer["wk"]), split(layer["wv"])
        scores = q @ k.swapaxes(2, 3) / np.sqrt(head_dim)
        scores = np.where(keys, scores, -1e300)
        weights = np.exp(scores - scores.max(axis=3, keepdims=True))
        weights /= weights.sum(axis=3, keepdims=True)
        attn = (weights @ v).swapaxes(1, 2).reshape(n, length, -1)
        x = _layer_norm(x + attn @ layer["wo"], layer["ln1_g"], layer["ln1_b"])
        hidden = np.maximum(x @ layer["w1"] + layer["b1"], 0.0)
        x = _layer_norm(x + hidden @ layer["w2"] + layer["b2"],
                        layer["ln2_g"], layer["ln2_b"])
        x = np.where(rows, x, 0.0)

    return [x[i, :p.valid_len].astype(np.float32)
            for i, p in enumerate(batch)]
