import math
import random

import numpy as np
import pytest

from deltascan.encoder import fuse_block, fusion_weights
from deltascan.errors import ShapeMismatch


def _oracle(start_positions, avg_len, alpha=0.6, cap=5.0):
    """Independent scalar evaluation: softmax(exp(alpha*clip((s-min)/L,0,c)))."""
    s_min = min(start_positions)
    scores = [math.exp(alpha * min(max((s - s_min) / avg_len, 0.0), cap))
              for s in start_positions]
    top = max(scores)
    exp = [math.exp(v - top) for v in scores]
    total = sum(exp)
    return [v / total for v in exp]


def test_two_point_oracle_value(config):
    avg = 7.3
    got = fusion_weights([0, avg], avg, config)
    assert got == pytest.approx([0.3053, 0.6947], abs=1e-3)
    assert got == pytest.approx(_oracle([0, avg], avg), abs=1e-9)


def test_single_occurrence_is_one(config):
    assert fusion_weights([17], 3.0, config) == pytest.approx([1.0], abs=1e-12)


def test_equal_positions_split_evenly(config):
    got = fusion_weights([10, 10], 4.2, config)
    assert got == pytest.approx([0.5, 0.5], abs=1e-12)


def test_weight_law_on_random_position_sets(config):
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randint(1, 8)
        positions = [rng.randint(0, 500) for _ in range(n)]
        avg = rng.uniform(0.5, 40.0)
        w = fusion_weights(positions, avg, config)
        assert abs(float(w.sum()) - 1.0) <= 1e-9
        assert (w > 0).all()
        # non-decreasing in s_i
        order = sorted(range(n), key=lambda i: positions[i])
        for a, b in zip(order, order[1:]):
            assert w[a] <= w[b] + 1e-12
        assert list(w) == pytest.approx(_oracle(positions, avg), abs=1e-9)


def test_clip_saturation_makes_weights_position_independent(config):
    avg = 2.0
    cap = config.clip_cap
    deep = [int(avg * cap) + 10, int(avg * cap) + 500]
    w = fusion_weights([0] + deep, avg, config)
    assert w[1] == pytest.approx(w[2], abs=1e-12)


def test_fuse_single_occurrence_identity(config):
    h = np.arange(12, dtype=np.float32).reshape(3, 4)
    fused = fuse_block([(h, 9)], 2.5, config)
    np.testing.assert_allclose(fused, h, atol=1e-7)


def test_fuse_single_occurrence_bits(config):
    """One occurrence gives the bits of the weighted float64 sum from 0.0
    that several get: its values, with -0.0 read as 0.0, in float32."""
    h = np.array([[-0.0, 0.0, -1.5, 3e-39], [1e30, -2.0, np.nan, np.inf]],
                 dtype=np.float32)
    fused = fuse_block([(h, 4)], 1.5, config)
    expected = (0.0 + 1.0 * h.astype(np.float64)).astype(np.float32)
    assert fused.dtype == np.float32 and fused is not h
    assert fused.tobytes() == expected.tobytes()
    assert not np.signbit(fused[0, 0])


def test_fuse_identical_slices_convexity(config):
    h = np.full((2, 5), 3.25, dtype=np.float32)
    fused = fuse_block([(h, 0), (h, 31)], 4.0, config)
    np.testing.assert_allclose(fused, h, atol=1e-6)


def test_fuse_two_point_oracle_composition(config):
    avg = 6.0
    h1 = np.ones((2, 3), dtype=np.float32)
    h2 = 2 * np.ones((2, 3), dtype=np.float32)
    fused = fuse_block([(h1, 0), (h2, int(avg))], avg, config)
    expected = 0.3053 * h1 + 0.6947 * h2
    np.testing.assert_allclose(fused, expected, atol=1e-4)


def test_fuse_shape_mismatch(config):
    with pytest.raises(ShapeMismatch):
        fuse_block([(np.zeros((2, 3)), 0), (np.zeros((3, 3)), 1)], 2.0,
                   config)
    with pytest.raises(ShapeMismatch):
        fuse_block([], 2.0, config)
    with pytest.raises(ShapeMismatch):
        fusion_weights([], 2.0, config)
