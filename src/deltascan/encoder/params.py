"""Frozen encoder weights: the one description of the encoder.

No training happens anywhere: every matrix is drawn once from a seeded
generator (uniform scaled by 1/sqrt(fan_in)) and never updated, so
outputs are bit-reproducible for equal (seed, config). Attention is exact
softmax, so a sequence layer holds only its projection and feed-forward
matrices. The layer-norm gains and biases and the feed-forward and input
biases of a trained encoder would sit at their initial 1 and 0 here, where
they change no bit, so none is stored. Parameters for the ablation
variants (pooling over 96- or 64-dim inputs, projections up to the block
dimension) are drawn unconditionally so every variant shares one params
object.

Every stage reads its settings from ``config``, the one the weights were
drawn for. Each params object also carries the memo of the path
encodings and function block vectors made with it (``memo``, see
``memo.EncoderMemo``): it lives and dies with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import EmbeddingConfig
from .memo import EncoderMemo


def _uniform(rng, shape, fan_in):
    scale = 1.0 / np.sqrt(fan_in)
    return ((rng.random(shape) * 2.0 - 1.0) * scale).astype(np.float32)


@dataclass(frozen=True)
class EncoderParams:
    config: EmbeddingConfig
    input_proj: np.ndarray      # word_dim -> seq_dim
    word_to_seq: np.ndarray     # fallback / no-sequence projection
    seq_layers: tuple           # per-layer dict of arrays
    gat_layers: tuple           # per-layer dict of arrays
    pool: dict                  # input dim -> (W, a)
    block_proj: dict            # input dim -> projection to block_dim
    memo: EncoderMemo = field(default_factory=EncoderMemo, compare=False,
                           repr=False)


def init_params(config: EmbeddingConfig | None = None) -> EncoderParams:
    config = config or EmbeddingConfig()
    rng = np.random.default_rng(config.seed)
    d_s, d_w, d_g = config.seq_dim, config.word_dim, config.graph_dim

    input_proj = _uniform(rng, (d_w, d_s), d_w)
    word_to_seq = _uniform(rng, (d_w, d_s), d_w)

    seq_layers = []
    for _ in range(config.seq_layers):
        seq_layers.append({
            "wq": _uniform(rng, (d_s, d_s), d_s),
            "wk": _uniform(rng, (d_s, d_s), d_s),
            "wv": _uniform(rng, (d_s, d_s), d_s),
            "wo": _uniform(rng, (d_s, d_s), d_s),
            "w1": _uniform(rng, (d_s, config.ff_dim), d_s),
            "w2": _uniform(rng, (config.ff_dim, d_s), config.ff_dim),
        })

    gat_layers = []
    in_dim = d_s
    for heads in config.gat_heads:
        head_out = d_g // heads
        # "w" holds the heads' weights side by side, each drawn in turn
        w = np.empty((in_dim, heads * head_out), dtype=np.float32)
        for h in range(heads):
            w[:, h * head_out:(h + 1) * head_out] = _uniform(
                rng, (in_dim, head_out), in_dim)
        gat_layers.append({
            "w": w,
            "a_src": _uniform(rng, (heads, head_out), head_out),
            "a_dst": _uniform(rng, (heads, head_out), head_out),
        })
        in_dim = d_g  # heads concatenated, or averaged on the final layer
    pool = {}
    for dim in sorted({d_g, d_s, d_w}):
        pool[dim] = (_uniform(rng, (config.pool_hidden, dim), dim),
                     _uniform(rng, (config.pool_hidden,), config.pool_hidden))
    block_proj = {}
    for dim in sorted({d_s, d_w} - {config.block_dim}):
        block_proj[dim] = _uniform(rng, (dim, config.block_dim), dim)

    return EncoderParams(config, input_proj, word_to_seq, tuple(seq_layers),
                         tuple(gat_layers), pool, block_proj)
