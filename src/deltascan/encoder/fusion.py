"""Position-weighted fusion of a block's contextual slices across paths.

The weight of an occurrence grows with its start position inside the path
(normalized by the function's average block length, clipped, then passed
through exp and softmax), so deeper occurrences dominate.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch
from .config import EmbeddingConfig

__all__ = ["fusion_weights", "fuse_block"]


def fusion_weights(start_positions, avg_block_len: float,
                   config: EmbeddingConfig) -> np.ndarray:
    """softmax(exp(alpha * clip((s - s_min)/avg_block_len, 0, cap)))."""
    s = np.asarray(start_positions, dtype=np.float64)
    if s.size == 0:
        raise ShapeMismatch("no start positions")
    if avg_block_len <= 0:
        raise ValueError("avg_block_len must be positive")
    ratio = np.clip((s - s.min()) / avg_block_len, 0.0, config.clip_cap)
    scores = np.exp(config.alpha * ratio)
    scores = scores - scores.max()  # stability; softmax is shift-invariant
    weights = np.exp(scores)
    return weights / weights.sum()


def fuse_block(occurrences, avg_block_len: float,
               config: EmbeddingConfig) -> np.ndarray:
    """Convex combination of a block's per-path slices.

    occurrences: list of (slice of shape k_j x d, start_position).
    """
    if not occurrences:
        raise ShapeMismatch("block has no occurrences")
    shapes = {tuple(h.shape) for h, _ in occurrences}
    if len(shapes) != 1:
        raise ShapeMismatch(f"occurrence slices disagree in shape: {shapes}")
    if len(occurrences) == 1 and avg_block_len > 0:
        # the weight is exactly 1.0; adding 0.0 turns -0.0 into 0.0 as the
        # sum below, which starts from 0.0, does
        return np.add(occurrences[0][0], np.float32(0.0), dtype=np.float32)
    weights = fusion_weights([s for _, s in occurrences], avg_block_len, config)
    fused = np.zeros(occurrences[0][0].shape, dtype=np.float64)
    for (h, _), w in zip(occurrences, weights):
        fused += w * h.astype(np.float64)
    return fused.astype(np.float32)
