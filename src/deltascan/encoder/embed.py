"""End-to-end embedding: paths -> word vectors -> sequence encoding ->
per-block fusion -> instruction graph -> graph encoding -> attention
pooling. One vector per basic block.

A contract is embedded in one pass (``embed_contract``): the distinct
token sequences of all its functions' paths are encoded in one
``encode_sequences`` call, each function's blocks are fused from its own
paths, and one ``encode_graph`` call runs over the disjoint union of the
functions' instruction graphs. A path encodes to the same bits in any
batch and graph attention is node-local, so every block vector is the same,
bit for bit, as when its function is embedded alone (``embed_function``).

Ablation switches mirror the detection variants: with the sequence stage
off, raw word embeddings are projected and fused directly; with the graph
stage off, fused block features are pooled as-is. Pooled vectors whose
dimension differs from block_dim are mapped up by a fixed seeded projection
so every variant yields comparable block vectors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..cfg import FunctionCfg
from ..errors import EmptyFunction
from .config import EmbeddingConfig
from .fusion import fuse_block
from .graph import (build_instruction_graph, encode_graph, pool_block,
                    union_graphs)
from .params import EncoderParams
from .sequence import embed_path, encode_sequences
from .vocab import Vocabulary

__all__ = ["FunctionEmbedding", "STAGES", "embed_contract", "embed_function"]

STAGES = ("sequence", "fusion", "graph", "pool")  # timed parts of a pass


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


def _word_rows(block, vocab: Vocabulary) -> np.ndarray:
    return np.stack([vocab.lookup(t) for t in _block_tokens(block)])


def _fuse_function(cfg: FunctionCfg, paths, encoded_paths, vocab, params,
                   config) -> tuple:
    """Fused (instr_count, seq_dim) features of each block of one function,
    from the block's occurrences on the function's paths: encoded rows
    when ``encoded_paths`` (one (rows, truncated) per path) is given,
    projected word vectors when it is None. A block on no path falls back
    to its projected word vectors.

    Returns (fused per block, raw word rows per block or None, paths
    truncated, fallback blocks).
    """
    occurrences = [[] for _ in cfg.blocks]
    truncated = 0
    word_rows = None
    if encoded_paths is None:
        word_rows = [_word_rows(block, vocab) for block in cfg.blocks]
        for path in paths:
            for bid, start in zip(path.blocks, path.start_positions):
                occurrences[bid].append((word_rows[bid] @ params.word_to_seq,
                                         start))
    else:
        for (rows, cut), path in zip(encoded_paths, paths):
            truncated += cut
            for bid, start in zip(path.blocks, path.start_positions):
                count = cfg.blocks[bid].instr_count
                if start + count <= len(rows):  # drop those cut by m_max
                    occurrences[bid].append((rows[start:start + count], start))
    fused = []
    fallback = 0
    for block, occ in zip(cfg.blocks, occurrences):
        if occ:
            fused.append(fuse_block(occ, cfg.avg_block_len, config))
        else:
            fallback += 1
            rows = (word_rows[block.block_id] if word_rows is not None
                    else _word_rows(block, vocab))
            fused.append((rows @ params.word_to_seq).astype(np.float32))
    return fused, word_rows, truncated, fallback


def embed_contract(items, vocab: Vocabulary, params: EncoderParams,
                   config: EmbeddingConfig | None = None,
                   use_sequence: bool = True,
                   use_graph: bool = True,
                   stats: dict | None = None) -> list:
    """Embed the functions of one contract in one pass.

    ``items`` is a list of ``(FunctionCfg, paths)``; the result holds one
    FunctionEmbedding per item, in order. When ``stats`` is given, it
    receives ``paths_encoded`` (distinct path token sequences encoded) and
    the milliseconds of the pass's stages, named in STAGES.
    """
    config = config or params.config
    for cfg, _ in items:
        if not cfg.blocks:
            raise EmptyFunction(f"function {cfg.function_id} has no blocks")
    marks = [time.perf_counter()]

    # sequence: every distinct path of the contract, encoded in one call
    keys = [None] * len(items)  # per function, its paths' token tuples
    if use_sequence:
        keys = [[tuple(t for bid in path.blocks
                       for t in _block_tokens(cfg.blocks[bid]))
                 for path in paths] for cfg, paths in items]
    encoded = dict.fromkeys(k for function in keys if function
                            for k in function)  # token tuple -> (rows, cut)
    if encoded:
        batch = [embed_path(list(k), vocab, config, path_index=i)
                 for i, k in enumerate(encoded)]
        out = encode_sequences(batch, params, config)
        for key, pe, rows in zip(list(encoded), batch, out):
            encoded[key] = (rows, pe.truncated)
    marks.append(time.perf_counter())

    # fusion: each function's blocks from that function's own paths
    fusions = [_fuse_function(cfg, paths,
                              None if function is None
                              else [encoded[k] for k in function],
                              vocab, params, config)
               for (cfg, paths), function in zip(items, keys)]
    marks.append(time.perf_counter())

    # graph: one encoding of the union of the functions' instruction graphs
    if use_graph and items:
        union = union_graphs([build_instruction_graph(cfg, fused) for
                              (cfg, _), (fused, *_) in zip(items, fusions)])
        states = encode_graph(union, params, config)
        per_block = [states[first:first + count]
                     for first, count in union.block_spans]
    elif use_sequence:
        per_block = [rows for fused, *_ in fusions for rows in fused]
    else:
        # both stages off: pool raw word embeddings directly
        per_block = [rows.astype(np.float32)
                     for _, word_rows, *_ in fusions for rows in word_rows]
    marks.append(time.perf_counter())

    vectors = []
    for block_states in per_block:
        z = pool_block(block_states, params)
        if z.shape[0] != config.block_dim:
            z = (z @ params.block_proj[z.shape[0]]).astype(np.float32)
        if not np.all(np.isfinite(z)):
            raise FloatingPointError("non-finite block vector")
        vectors.append(z)
    embeddings = []
    for (cfg, _), (_, _, truncated, fallback) in zip(items, fusions):
        embeddings.append(FunctionEmbedding(
            cfg.function_id, cfg.selector, tuple(vectors[:len(cfg.blocks)]),
            paths_truncated=truncated, fallback_blocks=fallback))
        vectors = vectors[len(cfg.blocks):]
    marks.append(time.perf_counter())

    if stats is not None:
        stats["paths_encoded"] = len(encoded)
        for name, begin, end in zip(STAGES, marks, marks[1:]):
            stats[name] = (end - begin) * 1e3
    return embeddings


def embed_function(cfg: FunctionCfg, paths, vocab: Vocabulary,
                   params: EncoderParams,
                   config: EmbeddingConfig | None = None,
                   use_sequence: bool = True,
                   use_graph: bool = True) -> FunctionEmbedding:
    """Embed one function into per-block vectors: a contract pass over
    that function alone."""
    return embed_contract([(cfg, paths)], vocab, params, config,
                          use_sequence, use_graph)[0]
