"""Hyperparameters of the embedding stack."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EmbeddingConfig:
    word_dim: int = 64
    seq_dim: int = 96
    graph_dim: int = 128
    block_dim: int = 128
    window: int = 5
    seq_layers: int = 6
    seq_heads: int = 8
    gat_heads: tuple = (8, 8, 1)   # one head count per GAT layer
    alpha: float = 0.6
    clip_cap: float = 5.0
    m_max: int = 512
    pool_hidden: int = 64
    seed: int = 42
    ff_dim: int = 192

    def __post_init__(self):
        if min(self.word_dim, self.seq_dim, self.graph_dim, self.block_dim,
               self.m_max, self.pool_hidden) <= 0:
            raise ValueError("all dimensions must be positive")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if min(self.seq_heads, *self.gat_heads) <= 0:
            raise ValueError("head counts must be positive")
        if self.seq_dim % self.seq_heads:
            raise ValueError("seq_dim must be divisible by seq_heads")
        for heads in self.gat_heads:
            if self.graph_dim % heads:
                raise ValueError("graph_dim must be divisible by every "
                                 "layer's head count")
