import hashlib
from dataclasses import replace

import numpy as np
import pytest

from deltascan.encoder import EmbeddingConfig
from deltascan.encoder.params import init_params


def _flat_arrays(params):
    """Every array of the params, in the order they are drawn: the input
    and no-sequence projections, each sequence layer by sorted key, each
    GAT layer's a_dst, a_src and w, pooling by sorted dim as (W, a), block
    projections by sorted dim. A GAT layer's w comes as its heads' weights
    one after another, (heads, d_in, head_dim)."""
    yield params.input_proj
    yield params.word_to_seq
    for layer in params.seq_layers:
        for key in sorted(layer):
            yield layer[key]
    for layer in params.gat_layers:
        heads, head_dim = layer["a_src"].shape
        yield layer["a_dst"]
        yield layer["a_src"]
        yield layer["w"].reshape(-1, heads, head_dim).transpose(1, 0, 2)
    for dim in sorted(params.pool):
        yield from params.pool[dim]
    for dim in sorted(params.block_proj):
        yield params.block_proj[dim]


def test_same_seed_reproduces_weights_bit_exactly(config):
    a, b = init_params(config), init_params(config)
    for x, y in zip(_flat_arrays(a), _flat_arrays(b)):
        assert x.tobytes() == y.tobytes()


def test_init_params_digest_is_pinned():
    """The frozen weights, byte for byte, in the order of ``_flat_arrays``.
    A change to the draw order, a shape or a dtype changes this digest."""
    arrays = list(_flat_arrays(init_params(EmbeddingConfig())))
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    assert len(arrays) == 55
    assert digest.hexdigest() == (
        "8ba639ab216fc3b81e381b9ba82eb6d260525537712f2daa8848c161e2d1791d")


def test_no_array_is_constant(params):
    """Every stored array is drawn from the generator: none holds one
    value throughout, as an identity gain or a zero bias would."""
    for array in _flat_arrays(params):
        assert np.unique(array).size > 1, array.shape


def test_different_seed_differs(config):
    a = init_params(config)
    b = init_params(replace(config, seed=43))
    assert any(x.tobytes() != y.tobytes()
               for x, y in zip(_flat_arrays(a), _flat_arrays(b)))


def test_shapes(config, params):
    assert params.input_proj.shape == (config.word_dim, config.seq_dim)
    assert len(params.seq_layers) == config.seq_layers
    for layer in params.seq_layers:
        assert set(layer) == {"wq", "wk", "wv", "wo", "w1", "w2"}
    assert len(params.gat_layers) == len(config.gat_heads)
    for heads, layer in zip(config.gat_heads, params.gat_layers):
        assert layer["a_src"].shape[0] == heads
    assert set(params.pool) == {config.word_dim, config.seq_dim,
                                config.graph_dim}
    assert set(params.block_proj) == {config.word_dim, config.seq_dim}


def test_gat_weights_are_each_layers_heads_side_by_side(params, config):
    """A GAT layer's w is one contiguous (d_in, heads * head_dim) matrix
    holding its heads' weights side by side, each head its own draw; the
    head count is that of a_src and a_dst, (heads, head_dim)."""
    in_dim = config.seq_dim
    for heads, layer in zip(config.gat_heads, params.gat_layers, strict=True):
        head_dim = config.graph_dim // heads
        w = layer["w"]
        assert w.shape == (in_dim, heads * head_dim) and w.flags.c_contiguous
        assert layer["a_src"].shape == layer["a_dst"].shape == (heads,
                                                                head_dim)
        slices = {w[:, h * head_dim:(h + 1) * head_dim].tobytes()
                  for h in range(heads)}
        assert len(slices) == heads
        in_dim = config.graph_dim


def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(seq_dim=97)  # not divisible by 8 heads
    with pytest.raises(ValueError):
        EmbeddingConfig(word_dim=0)
    for heads in ({"seq_heads": 0}, {"seq_heads": -8},
                  {"gat_heads": (8, 0, 1)}, {"gat_heads": (8, 8, -1)}):
        with pytest.raises(ValueError, match="head counts must be positive"):
            EmbeddingConfig(**heads)
