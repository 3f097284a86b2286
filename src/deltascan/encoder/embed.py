"""End-to-end function embedding: paths -> word vectors -> sequence
encoding -> per-block fusion -> instruction graph -> graph encoding ->
attention pooling. One vector per basic block.

Ablation switches mirror the detection variants: with the sequence stage
off, raw word embeddings are projected and fused directly; with the graph
stage off, fused block features are pooled as-is. Pooled vectors whose
dimension differs from block_dim are mapped up by a fixed seeded projection
so every variant yields comparable block vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cfg import FunctionCfg
from ..errors import EmptyFunction
from .config import EmbeddingConfig
from .fusion import fuse_block
from .graph import build_instruction_graph, encode_graph, pool_block
from .params import EncoderParams
from .sequence import embed_path, encode_sequences
from .vocab import Vocabulary

__all__ = ["FunctionEmbedding", "embed_function"]


@dataclass(frozen=True)
class FunctionEmbedding:
    function_id: tuple
    selector: bytes | None
    block_vectors: tuple          # one per basic block, in block_id order
    paths_truncated: int = 0
    fallback_blocks: int = 0

    @property
    def block_dim(self) -> int:
        return self.block_vectors[0].shape[0] if self.block_vectors else 0


def _block_tokens(block) -> list:
    return [ins.opcode.mnemonic for ins in block.instructions]


def embed_function(cfg: FunctionCfg, paths, vocab: Vocabulary,
                   params: EncoderParams,
                   config: EmbeddingConfig | None = None,
                   use_sequence: bool = True,
                   use_graph: bool = True,
                   encoded: dict | None = None) -> FunctionEmbedding:
    """Embed one function into per-block vectors.

    ``encoded`` maps a path's token tuple to its encoded rows (valid_len of
    them) and its truncated flag. Only paths missing from it are encoded, once each, and
    then added, so one dict passed to every function of a contract encodes
    each distinct path of the contract once. The dict is only valid for the
    vocab, params and config it was filled with.
    """
    config = config or params.config
    if not cfg.blocks:
        raise EmptyFunction(f"function {cfg.function_id} has no blocks")

    avg_len = cfg.avg_block_len
    word_rows = {b.block_id: np.stack([vocab.lookup(t) for t in _block_tokens(b)])
                 for b in cfg.blocks}

    truncated = 0
    fallback = 0
    occurrences = {b.block_id: [] for b in cfg.blocks}

    if use_sequence:
        encoded = {} if encoded is None else encoded
        keys = [tuple(t for bid in path.blocks
                      for t in _block_tokens(cfg.blocks[bid]))
                for path in paths]
        misses = list(dict.fromkeys(k for k in keys if k not in encoded))
        if misses:
            batch = [embed_path(list(k), vocab, config, path_index=i)
                     for i, k in enumerate(misses)]
            out = encode_sequences(batch, params, config)
            for key, pe, rows in zip(misses, batch, out):
                encoded[key] = (rows[:pe.valid_len].copy(), pe.truncated)
        for key, path in zip(keys, paths):
            rows, cut = encoded[key]
            truncated += cut
            for bid, start in zip(path.blocks, path.start_positions):
                count = cfg.blocks[bid].instr_count
                if start + count <= len(rows):  # drop occurrences cut by m_max
                    occurrences[bid].append((rows[start:start + count], start))
    else:
        # fuse projected raw word embeddings at each path occurrence
        for path in paths:
            for bid, start in zip(path.blocks, path.start_positions):
                slice_ = word_rows[bid] @ params.word_to_seq
                occurrences[bid].append((slice_, start))

    fused = {}
    for block in cfg.blocks:
        occ = occurrences[block.block_id]
        if occ:
            fused[block.block_id] = fuse_block(occ, avg_len, config)
        else:
            fallback += 1
            fused[block.block_id] = (
                word_rows[block.block_id] @ params.word_to_seq).astype(np.float32)

    if use_graph:
        graph = build_instruction_graph(cfg, fused)
        states = encode_graph(graph, params, config)
        spans = graph.block_spans
        per_block = [states[first:first + count]
                     for first, count in spans]
    elif use_sequence:
        per_block = [fused[b.block_id] for b in cfg.blocks]
    else:
        # both stages off: pool raw word embeddings directly
        per_block = [word_rows[b.block_id].astype(np.float32)
                     for b in cfg.blocks]

    vectors = []
    for block_states in per_block:
        z = pool_block(block_states, params)
        if z.shape[0] != config.block_dim:
            z = (z @ params.block_proj[z.shape[0]]).astype(np.float32)
        if not np.all(np.isfinite(z)):
            raise FloatingPointError("non-finite block vector")
        vectors.append(z)

    return FunctionEmbedding(cfg.function_id, cfg.selector, tuple(vectors),
                             paths_truncated=truncated,
                             fallback_blocks=fallback)
