import hashlib
from dataclasses import replace

import numpy as np
import pytest

from deltascan.encoder import EmbeddingConfig
from deltascan.encoder.params import init_params


def _flat_arrays(params):
    yield params.input_proj
    yield params.word_to_seq
    for layer in params.seq_layers:
        for key in sorted(layer):
            yield layer[key]
    for layer in params.gat_layers:
        for key in sorted(layer):
            yield layer[key]
    for dim in sorted(params.pool):
        yield from params.pool[dim]
    for dim in sorted(params.block_proj):
        yield params.block_proj[dim]


def test_same_seed_reproduces_weights_bit_exactly(config):
    a, b = init_params(config), init_params(config)
    for x, y in zip(_flat_arrays(a), _flat_arrays(b)):
        assert x.tobytes() == y.tobytes()


def test_init_params_digest_is_pinned():
    """The frozen weights, byte for byte: input projection and bias, the
    no-sequence projection, each sequence then each GAT layer by sorted
    key, pooling by sorted dim as (W, a), block projections by sorted
    dim. A change to the draw order, a shape or a dtype changes this
    digest."""
    params = init_params(EmbeddingConfig())
    arrays = [params.input_proj, params.input_bias, params.word_to_seq]
    for layer in params.seq_layers + params.gat_layers:
        arrays += [layer[key] for key in sorted(layer)]
    for dim in sorted(params.pool):
        arrays += params.pool[dim]
    arrays += [params.block_proj[dim] for dim in sorted(params.block_proj)]
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    assert len(arrays) == 92
    assert digest.hexdigest() == (
        "bba013e6e40755e537fe30091662dd70861f02b4274839177c298a98aa4057c0")


def test_different_seed_differs(config):
    a = init_params(config)
    b = init_params(replace(config, seed=43))
    assert any(x.tobytes() != y.tobytes()
               for x, y in zip(_flat_arrays(a), _flat_arrays(b)))


def test_shapes(config, params):
    assert params.input_proj.shape == (config.word_dim, config.seq_dim)
    assert len(params.seq_layers) == config.seq_layers
    for layer in params.seq_layers:
        assert set(layer) == {"wq", "wk", "wv", "wo", "w1", "b1", "w2", "b2",
                              "ln1_g", "ln1_b", "ln2_g", "ln2_b"}
    assert len(params.gat_layers) == config.gat_layers
    for heads, layer in zip(config.gat_heads, params.gat_layers):
        assert layer["w"].shape[0] == heads
    assert set(params.pool) == {config.word_dim, config.seq_dim,
                                config.graph_dim}
    assert set(params.block_proj) == {config.word_dim, config.seq_dim}


def test_gat_weights_are_each_layers_heads_side_by_side(params):
    for layer, w in zip(params.gat_layers, params.gat_weights, strict=True):
        heads, d_in, head_dim = layer["w"].shape
        assert w.shape == (d_in, heads * head_dim) and w.flags.c_contiguous
        for h in range(heads):
            assert w[:, h * head_dim:(h + 1) * head_dim].tobytes() == \
                layer["w"][h].tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(seq_dim=97)  # not divisible by 8 heads
    with pytest.raises(ValueError):
        EmbeddingConfig(gat_heads=(8, 8))  # head list shorter than layers
    with pytest.raises(ValueError):
        EmbeddingConfig(word_dim=0)
