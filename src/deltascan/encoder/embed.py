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

Tokens are token bytes (``vocab.TOKEN_BYTES``) throughout: a pass
translates each block's opcode bytes once, and the memo key, the path
sequences and the word vector rows (``Vocabulary.rows``) of fallback
blocks and of the sequence-off variants all read those bytes.

A pass first looks each function up by its key (``_function_key``: the
variant, its blocks' token bytes, successor lists and paths) in a
``memo.EncoderMemo``. A function the memo holds is served from it whole:
sequence, fusion, graph and pooling are skipped. Each other distinct
function is embedded once and added to it, and its twins in the pass are
served that entry. Either way the bits are those a new embedding would
give: the graph encoding of a union of only the missed functions is, for
each of them, that of the whole contract. The pipeline passes the memo of
its encoder params, so a scan of many clones embeds each distinct function
once. Given no memo, a pass makes a fresh one, so ``embed_function`` never
reads the params' memo and embeds its function afresh.

Every stage reads its settings from ``params.config``, the config the
weights were drawn for, so a pass cannot mix weights with the settings of
another encoder. ``embed_function`` takes a config too, and refuses one
that is not equal to ``params.config``.

Ablation switches mirror the detection variants: with the sequence stage
off, a block's features are its raw word embeddings, projected once (the
same rows on every path, so there is nothing to fuse); with the graph
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
from .memo import EncoderMemo
from .params import EncoderParams
from .sequence import embed_path, encode_sequences
from .vocab import TOKEN_BYTES, Vocabulary

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


def _fuse_function(cfg: FunctionCfg, paths, encoded_paths, tokens: tuple,
                   vocab, params) -> tuple:
    """Fused (instr_count, seq_dim) features of each block of one function,
    whose blocks' token bytes are ``tokens``. With ``encoded_paths`` (one
    (rows, truncated) per path), a block fuses its slices of the encoded
    rows of the function's paths, each starting where the instructions of
    the blocks before it on the path end; a block with no such slice falls
    back to its projected word vectors. With ``encoded_paths`` None, every
    block is its projected word vectors, and the blocks on no path are the
    fallback ones.

    Returns (fused per block, raw word rows per block or None, paths
    truncated, fallback blocks).
    """
    if encoded_paths is None:
        word_rows = [vocab.rows(t) for t in tokens]
        fused = [(rows @ params.word_to_seq).astype(np.float32)
                 for rows in word_rows]
        on_path = {bid for path in paths for bid in path.blocks}
        return fused, word_rows, 0, len(cfg.blocks) - len(on_path)
    occurrences = [[] for _ in cfg.blocks]
    truncated = 0
    for (rows, cut), path in zip(encoded_paths, paths):
        truncated += cut
        start = 0
        for bid in path.blocks:
            count = cfg.blocks[bid].instr_count
            if start + count <= len(rows):  # drop those cut by m_max
                occurrences[bid].append((rows[start:start + count], start))
            start += count
    fused = []
    fallback = 0
    for t, occ in zip(tokens, occurrences):
        if occ:
            fused.append(fuse_block(occ, cfg.avg_block_len, params.config))
        else:
            fallback += 1
            fused.append((vocab.rows(t) @ params.word_to_seq
                          ).astype(np.float32))
    return fused, None, truncated, fallback


def _function_key(cfg: FunctionCfg, paths, tokens: tuple, use_sequence: bool,
                  use_graph: bool) -> tuple:
    """Everything a function's block vectors and counts depend on, under
    one params object and vocabulary: the variant, each block's tokens in
    block order (as token bytes), its successor lists (the CFG edges
    ``build_instruction_graph`` reads), and each path's blocks, which fix
    its start positions and tokens, the fallback blocks and the path cap.
    Ids, selectors and immediates are not in it."""
    return (use_sequence, use_graph, tokens, cfg.successors,
            tuple(path.blocks for path in paths))


def embed_contract(items, vocab: Vocabulary, params: EncoderParams,
                   use_sequence: bool = True,
                   use_graph: bool = True,
                   stats: dict | None = None,
                   memo: EncoderMemo | None = None) -> list:
    """Embed the functions of one contract in one pass.

    ``items`` is a list of ``(FunctionCfg, paths)``; the result holds one
    FunctionEmbedding per item, in order. A function ``memo`` (bound to
    ``vocab``) holds is served from it; each other distinct function is
    embedded once and added to it. Given no memo, the pass makes a fresh
    one, so twins within the pass are still embedded once. When ``stats``
    is given, it receives ``functions_reused`` (items not embedded by this
    pass), ``paths_encoded`` (distinct path token sequences of the embedded
    functions sent to the encoder) and the milliseconds of the pass's
    stages, named in STAGES.
    """
    config = params.config
    memo = EncoderMemo() if memo is None else memo
    for cfg, _ in items:
        if not cfg.blocks:
            raise EmptyFunction(f"function {cfg.function_id} has no blocks")
    marks = [time.perf_counter()]

    # functions: those the memo holds are served; of the others, each
    # distinct one is embedded once, below
    block_tokens = [tuple(block.ops.translate(TOKEN_BYTES)
                          for block in cfg.blocks) for cfg, _ in items]
    keys = [_function_key(cfg, paths, t, use_sequence, use_graph)
            for (cfg, paths), t in zip(items, block_tokens)]
    # function key -> (vectors, (truncated, fallback)), None until embedded
    served = {key: memo.hit(key) for key in keys}
    missed = {}  # function key -> (cfg, paths, tokens) of its first item
    for key, (cfg, paths), t in zip(keys, items, block_tokens):
        if served[key] is None:
            missed.setdefault(key, (cfg, paths, t))

    # sequence: every distinct path of the functions to embed, encoded in
    # one call
    path_keys = [None] * len(missed)  # per function, its paths' tokens
    if use_sequence:
        path_keys = [[b"".join([t[bid] for bid in path.blocks])
                      for path in paths] for _, paths, t in missed.values()]
    encoded = dict.fromkeys(k for function in path_keys if function
                            for k in function)  # token bytes -> (rows, cut)
    if encoded:
        batch = [embed_path(k, vocab, config) for k in encoded]
        out = encode_sequences(batch, params)
        for k, pe, rows in zip(encoded, batch, out):
            encoded[k] = (rows, pe.truncated)
    marks.append(time.perf_counter())

    # fusion: each function's blocks from that function's own paths
    fusions = [_fuse_function(cfg, paths,
                              None if function is None
                              else [encoded[k] for k in function],
                              t, vocab, params)
               for (cfg, paths, t), function in zip(missed.values(),
                                                    path_keys)]
    marks.append(time.perf_counter())

    # graph: one encoding of the union of the functions' instruction graphs
    if use_graph and missed:
        union = union_graphs([build_instruction_graph(cfg, fused) for
                              (cfg, *_), (fused, *_) in zip(missed.values(),
                                                            fusions)])
        states = encode_graph(union, params)
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
    for (key, (cfg, *_)), (_, _, truncated, fallback) in zip(missed.items(),
                                                            fusions):
        own, vectors = vectors[:len(cfg.blocks)], vectors[len(cfg.blocks):]
        served[key] = memo.add(key, np.stack(own), (truncated, fallback))
    embeddings = [FunctionEmbedding(cfg.function_id, cfg.selector,
                                    tuple(served[key][0]), *served[key][1])
                  for (cfg, _), key in zip(items, keys)]
    marks.append(time.perf_counter())

    if stats is not None:
        stats["functions_reused"] = len(items) - len(missed)
        stats["paths_encoded"] = len(encoded)
        for name, begin, end in zip(STAGES, marks, marks[1:]):
            stats[name] = (end - begin) * 1e3
    return embeddings


def embed_function(cfg: FunctionCfg, paths, vocab: Vocabulary,
                   params: EncoderParams, config: EmbeddingConfig,
                   use_sequence: bool = True,
                   use_graph: bool = True) -> FunctionEmbedding:
    """Embed one function into per-block vectors: a contract pass over
    that function alone. ``config`` must equal ``params.config``."""
    if config != params.config:
        raise ValueError("config differs from the one the encoder params "
                         "were drawn for")
    return embed_contract([(cfg, paths)], vocab, params, use_sequence,
                          use_graph)[0]
