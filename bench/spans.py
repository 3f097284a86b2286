"""Spans around calls into deltascan's layers, recorded from outside.

The program is not edited: ``install`` replaces the names through which one
layer calls the next (``deltascan.pipeline.embed_function``,
``deltascan.encoder.embed.encode_sequences``, ``AnnIndex.query``, ...) with
wrappers that time the call, note its parent span and add the layer's work
counts, and ``uninstall`` puts the originals back. Spans are kept in memory
and written out when the run ends.

A layer's self time is the duration of its spans minus the part of them
that child spans cover, so the self times of one traced unit sum to its
wall time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import deltascan.cfg as cfg
import deltascan.detectors as detectors
import deltascan.encoder.embed as embed
import deltascan.evm as evm
import deltascan.index as index
import deltascan.pipeline as pipeline


def _paths(counts, result, args, kwargs):
    counts["cfg.paths"] += len(result.paths)
    counts["cfg.paths_capped"] += int(result.hit_cap)


def _edges(counts, result, args, kwargs):
    counts["cfg.edges"] += len(result)
    counts["cfg.dynamic_edges"] += sum(e.dynamic for e in result)


def _sequences(counts, result, args, kwargs):
    batch = args[0]
    counts["encoder.sequence_calls"] += 1
    counts["encoder.padded_tokens"] += len(batch) * max(
        1, max(p.valid_len for p in batch))


def _graph(counts, result, args, kwargs):
    counts["encoder.graph_nodes"] += result.features.shape[0]
    counts["encoder.graph_edges"] += (len(result.edges_cfg)
                                      + len(result.edges_seq))


def _count(name, size=None):
    def add(counts, result, args, kwargs):
        counts[name] += size(result, args) if size else 1
    return add


# (owner, attribute, layer, counter); owners are the namespaces the calling
# layer looks the name up in, so the wrapper sits on the call edge.
PATCHES = [
    (evm, "strip_metadata", "evm.decode", None),
    (evm, "disassemble", "evm.decode",
     _count("evm.instructions", lambda r, a: len(r.instructions))),
    (evm, "keccak256", "keccak",
     _count("keccak.bytes", lambda r, a: len(a[0]))),
    (detectors, "keccak256", "keccak",
     _count("keccak.bytes", lambda r, a: len(a[0]))),
    (cfg, "partition_blocks", "cfg.blocks", None),
    (cfg, "resolve_edges", "cfg.edges", _edges),
    (cfg, "recover_functions", "cfg.functions", None),
    (pipeline, "analyze_contract", "cfg.analyze", None),
    (pipeline, "enumerate_paths", "cfg.paths", _paths),
    (detectors, "enumerate_paths", "cfg.paths", _paths),
    (pipeline, "detect_bypass_reentrancy", "detectors.reentrancy", None),
    (pipeline, "parse_report_file", "detectors.map_report", None),
    (pipeline, "map_report", "detectors.map_report", None),
    (pipeline, "init_params", "encoder.params", None),
    (pipeline, "load_vocabulary", "encoder.vocab_load", None),
    (pipeline, "train_vocabulary", "encoder.vocab_train", None),
    (pipeline, "embed_function", "encoder.embed_self", None),
    (embed, "embed_path", "encoder.embed_path",
     _count("encoder.path_tokens", lambda r, a: r.valid_len)),
    (embed, "encode_sequences", "encoder.sequence", _sequences),
    (embed, "fuse_block", "encoder.fusion", None),
    (embed, "build_instruction_graph", "encoder.graph_build", _graph),
    (embed, "encode_graph", "encoder.gat", None),
    (embed, "pool_block", "encoder.pool", None),
    (pipeline, "load_index", "index.load", None),
    (pipeline, "save_index", "index.save", None),
    (pipeline, "save_vocabulary", "index.save", None),
    (index.AnnIndex, "insert", "index.insert", _count("index.inserts")),
    (index.AnnIndex, "query", "index.query", _count("index.queries")),
    (pipeline, "decide_similar", "index.decide",
     _count("index.matches", lambda r, a: len(r))),
    (pipeline, "cmd_embed", "pipeline", None),
    (pipeline, "cmd_detect", "pipeline", None),
]
# counted, not timed: one call per candidate function ``decide_similar``
# gathers from the HNSW hits
COUNT_ONLY = [(index.AnnIndex, "function_entries", _count("index.candidates"))]

# per-layer metric name of each span's self time
SELF_METRIC = {
    "evm.decode": "evm.decode_ms", "keccak": "keccak.ms",
    "cfg.blocks": "cfg.blocks_ms", "cfg.edges": "cfg.edges_ms",
    "cfg.functions": "cfg.functions_ms", "cfg.analyze": "cfg.analyze_self_ms",
    "cfg.paths": "cfg.paths_ms",
    "detectors.reentrancy": "detectors.reentrancy_ms",
    "detectors.map_report": "detectors.map_report_ms",
    "encoder.params": "encoder.params_ms",
    "encoder.vocab_load": "encoder.vocab_load_ms",
    "encoder.vocab_train": "encoder.vocab_train_ms",
    "encoder.embed_self": "encoder.embed_self_ms",
    "encoder.embed_path": "encoder.embed_path_ms",
    "encoder.sequence": "encoder.sequence_ms",
    "encoder.fusion": "encoder.fusion_ms",
    "encoder.graph_build": "encoder.graph_build_ms",
    "encoder.gat": "encoder.gat_ms", "encoder.pool": "encoder.pool_ms",
    "index.load": "index.load_ms", "index.save": "index.save_ms",
    "index.insert": "index.insert_ms", "index.query": "index.query_ms",
    "index.decide": "index.decide_ms", "pipeline": "pipeline.self_ms",
    "bench": "trace.unattributed_ms",
}
COUNTS = ["evm.instructions", "keccak.bytes", "cfg.edges", "cfg.dynamic_edges",
          "cfg.paths", "cfg.paths_capped", "encoder.sequence_calls",
          "encoder.path_tokens", "encoder.padded_tokens",
          "encoder.graph_nodes", "encoder.graph_edges", "index.inserts",
          "index.queries", "index.candidates", "index.matches"]


class Tracer:
    """Records spans [name, parent index, start, end] while active."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.active = False
        self._stack = []
        self._saved = []

    def _wrap(self, layer, func, counter):
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            span = [layer, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, result, args, kwargs)
            return result
        return traced

    def _wrap_count(self, func, counter):
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            if self.active:
                counter(self.counts, result, args, kwargs)
            return result
        return counted

    def install(self):
        for owner, attr, layer, counter in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, counter))
        for owner, attr, counter in COUNT_ONLY:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_count(original, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self):
        """A 'bench' span around one traced unit, whose self time is the
        benchmark's own work between program calls."""
        self.active = True
        span = ["bench", -1, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
            self.active = False

    def self_times_ms(self) -> dict:
        """Self time per per-layer metric name, over every span so far."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SELF_METRIC.values(), 0.0)
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[SELF_METRIC[name]] += (end - start - child[i]) * 1e3
        return out
