"""Frozen encoder weights.

No training happens anywhere: every matrix is drawn once from a seeded
generator (uniform scaled by 1/sqrt(fan_in)) and never updated, so
outputs are bit-reproducible for equal (seed, config). Attention is exact
softmax, so a sequence layer holds only its projection, feed-forward and
layer-norm arrays. Parameters for the ablation variants (pooling over 96-
or 64-dim inputs, projections up to the block dimension) are drawn
unconditionally so every variant shares one params object.

Each params object also carries the memo of the sequence encodings made
with it (``memo``, see ``memo.PathMemo``): it lives and dies with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import EmbeddingConfig
from .memo import PathMemo


def _uniform(rng, shape, fan_in):
    scale = 1.0 / np.sqrt(fan_in)
    return ((rng.random(shape) * 2.0 - 1.0) * scale).astype(np.float32)


@dataclass(frozen=True)
class EncoderParams:
    config: EmbeddingConfig
    input_proj: np.ndarray      # word_dim -> seq_dim
    input_bias: np.ndarray
    word_to_seq: np.ndarray     # fallback / no-sequence projection
    seq_layers: tuple           # per-layer dict of arrays
    gat_layers: tuple           # per-layer dict of arrays
    gat_weights: tuple          # per GAT layer, (d_in, heads*head_dim)
    pool: dict                  # input dim -> (W, a)
    block_proj: dict            # input dim -> projection to block_dim
    memo: PathMemo = field(default_factory=PathMemo, compare=False,
                           repr=False)


def init_params(config: EmbeddingConfig | None = None) -> EncoderParams:
    config = config or EmbeddingConfig()
    rng = np.random.default_rng(config.seed)
    d_s, d_w, d_g = config.seq_dim, config.word_dim, config.graph_dim

    input_proj = _uniform(rng, (d_w, d_s), d_w)
    input_bias = np.zeros(d_s, dtype=np.float32)
    word_to_seq = _uniform(rng, (d_w, d_s), d_w)

    seq_layers = []
    for _ in range(config.seq_layers):
        layer = {
            "wq": _uniform(rng, (d_s, d_s), d_s),
            "wk": _uniform(rng, (d_s, d_s), d_s),
            "wv": _uniform(rng, (d_s, d_s), d_s),
            "wo": _uniform(rng, (d_s, d_s), d_s),
            "w1": _uniform(rng, (d_s, config.ff_dim), d_s),
            "b1": np.zeros(config.ff_dim, dtype=np.float32),
            "w2": _uniform(rng, (config.ff_dim, d_s), config.ff_dim),
            "b2": np.zeros(d_s, dtype=np.float32),
            "ln1_g": np.ones(d_s, dtype=np.float32),
            "ln1_b": np.zeros(d_s, dtype=np.float32),
            "ln2_g": np.ones(d_s, dtype=np.float32),
            "ln2_b": np.zeros(d_s, dtype=np.float32),
        }
        seq_layers.append(layer)

    gat_layers, gat_weights = [], []
    in_dim = d_s
    for layer_idx, heads in enumerate(config.gat_heads):
        head_out = d_g // heads
        # the heads' weights side by side in one matrix; "w" views it
        # (heads, in_dim, head_out), with the bytes of the stacked draws
        w = np.empty((in_dim, heads * head_out), dtype=np.float32)
        for h in range(heads):
            w[:, h * head_out:(h + 1) * head_out] = _uniform(
                rng, (in_dim, head_out), in_dim)
        gat_weights.append(w)
        gat_layers.append({
            "w": w.reshape(in_dim, heads, head_out).transpose(1, 0, 2),
            "a_src": _uniform(rng, (heads, head_out), head_out),
            "a_dst": _uniform(rng, (heads, head_out), head_out),
        })
        # heads concatenated except the final layer, which averages
        in_dim = d_g if layer_idx < len(config.gat_heads) - 1 else d_g
    pool = {}
    for dim in sorted({d_g, d_s, d_w}):
        pool[dim] = (_uniform(rng, (config.pool_hidden, dim), dim),
                     _uniform(rng, (config.pool_hidden,), config.pool_hidden))
    block_proj = {}
    for dim in sorted({d_s, d_w} - {config.block_dim}):
        block_proj[dim] = _uniform(rng, (dim, config.block_dim), dim)

    return EncoderParams(config, input_proj, input_bias, word_to_seq,
                         tuple(seq_layers), tuple(gat_layers),
                         tuple(gat_weights), pool, block_proj)
