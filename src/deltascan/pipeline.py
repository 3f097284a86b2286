"""Two-phase scan orchestration.

A contract's functions are analysed once: each travels as one
``(FunctionCfg, paths)`` pair, with the paths enumerated for it, to the
detector, the vocabulary corpus and the encoder.

Embed phase: analyze contracts, run the builtin reentrancy detector, merge
external report records, and store block vectors of defective functions in
the index. A contract is named by its file stem, the name report records
address it by, so two embed inputs with one stem are refused. Detect
phase: analyze new contracts under the selector gate (only the functions
under a selector the index holds are carved, have their paths enumerated
and are embedded), and compare each with every stored function under its
selector; no detectors run (that is the whole point of the cheaper second
phase). Only ``cmd_ablate`` runs encoder
variants, on in-memory indexes it builds, and gates its scans the same way.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cfg import ContractAnalysis, analyze_contract, enumerate_paths
from .detectors import detect_bypass_reentrancy, map_report, parse_report_file
# embed_function is not called here, but stays importable from this
# module: bench/spans.py hooks ``pipeline.embed_function``
from .encoder import (EmbeddingConfig, Vocabulary, embed_contract,
                      embed_function, load_vocabulary, save_vocabulary,
                      train_vocabulary)
from .encoder.embed import STAGES
from .encoder.params import init_params
from .errors import (DeltascanError, EmptyCorpus, SchemaError,
                     VocabularyDiverged)
from .evm import decode_hex
from .index import AnnIndex, EntryLabel, IndexEntry, decide_similar, load_index, save_index

logger = logging.getLogger(__name__)

__all__ = ["PipelineConfig", "ScanResult", "cmd_embed", "cmd_detect",
           "cmd_ablate", "read_bytecode_file"]

ABLATION_VARIANTS = (
    ("full", True, True),
    ("no_sequence", False, True),
    ("no_graph", True, False),
    ("no_both", False, False),
)
DEFAULT_THRESHOLDS = (0.01, 0.1, 1.0, 2.0)


@dataclass(frozen=True)
class PipelineConfig:
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    max_paths: int = 64
    threshold: float = 0.1
    index_path: str = "deltascan.idx"
    cache_dir: str = ".deltascan-cache"
    api_base_url: str | None = None
    api_key: str | None = None

    def __post_init__(self):
        if not self.threshold > 0:  # NaN too
            raise ValueError("threshold must be positive")
        if self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")

    @property
    def vocab_path(self) -> str:
        return str(self.index_path) + ".vocab"


@dataclass
class ScanResult:
    contract: str
    code_hash: str
    findings: list = field(default_factory=list)
    timings_ms: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    nearest: dict = field(default_factory=dict)  # "0x"+selector -> distance
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "contract": self.contract,
            "code_hash": self.code_hash,
            "findings": [
                {
                    "selector": "0x" + f.query_function_id[1].hex(),
                    "defect": f.defect_class.value,
                    "max_block_distance": f.max_block_distance,
                    "matched": {"contract": f.matched_contract,
                                "function": f.matched_function},
                }
                for f in self.findings
            ],
            "timings_ms": self.timings_ms,
            "counters": self.counters,
            "nearest": self.nearest,
            **({"error": self.error} if self.error else {}),
        }


def read_bytecode_file(path) -> bytes:
    """Read a bytecode file: hex text as ``evm.decode_hex`` reads it, or
    else its raw bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        code = decode_hex(raw.decode("ascii"))
    except UnicodeDecodeError:
        return raw
    return raw if code is None else code


@dataclass
class _Analyzed:
    name: str
    analysis: ContractAnalysis
    functions: list        # (FunctionCfg, paths) of each analysed function
    hit_cap: int
    timings_ms: dict


def _analyze_one(name: str, code: bytes, max_paths: int,
                 selectors=None) -> _Analyzed:
    """Analyze a contract and enumerate its functions' paths; given
    ``selectors``, only for the functions under them (the selector gate)."""
    timings = {}
    t0 = time.perf_counter()
    analysis = analyze_contract(code, selectors)
    timings["analysis"] = (time.perf_counter() - t0) * 1e3
    timings.update(analysis.timings_ms)  # its stages
    t0 = time.perf_counter()
    functions = []
    hit_cap = 0
    for fn in analysis.functions:
        enum = enumerate_paths(fn, max_paths)
        functions.append((fn, enum.paths))
        hit_cap += int(enum.hit_cap)
    timings["paths"] = (time.perf_counter() - t0) * 1e3
    return _Analyzed(name, analysis, functions, hit_cap, timings)


def _contract_corpus(analyzed: _Analyzed) -> list:
    """The opcode bytes of each path of each function."""
    return [b"".join([fn.blocks[bid].ops for bid in path.blocks])
            for fn, paths in analyzed.functions for path in paths]


def _load_inputs(inputs) -> tuple:
    """Split input paths into bytecode files and .json report files."""
    bytecode, reports = [], []
    for item in inputs:
        path = Path(item)
        if path.suffix.lower() == ".json":
            reports.append(path)
        else:
            bytecode.append(path)
    return bytecode, reports


@dataclass
class _EmbedPlan:
    """What ``cmd_embed`` stores, decided before any encoder runs."""
    analyzed: list
    vocab: Vocabulary
    stored: list           # (analyzed, fn index, function_ref, DefectClass)
    summary: dict          # the counts of cmd_embed's summary known by then


def _plan_embed(config: PipelineConfig, inputs) -> _EmbedPlan:
    """Analyze, detect, map reports, train the vocabulary, and list each
    function to store once: the work of every encoder variant alike.
    Raises VocabularyDiverged when a trained word vector is not finite, and
    DeltascanError when two bytecode inputs share a stem or a report file
    is not a JSON array."""
    bytecode_files, report_files = _load_inputs(inputs)
    named = {}  # contract name -> its input
    for path in bytecode_files:
        if path.stem in named:
            raise DeltascanError(f"{named[path.stem]} and {path} both name "
                                 f"contract {path.stem!r}")
        named[path.stem] = path
    external_records = []
    report_errors = []
    for path in report_files:
        try:
            records, errors = parse_report_file(path.read_bytes())
        except SchemaError as exc:
            raise DeltascanError(f"{path}: {exc}") from None
        external_records.extend(records)
        report_errors.extend(errors)

    failures = {}
    analyzed = []
    for path in bytecode_files:
        try:
            analyzed.append(_analyze_one(path.stem, read_bytecode_file(path),
                                         config.max_paths))
        except Exception as exc:  # batch never aborts on one contract
            logger.warning("embed: %s failed: %s", path, exc)
            failures[str(path)] = str(exc)

    timings = {}  # each analysis stage summed over the contracts
    for a in analyzed:
        for name, ms in a.timings_ms.items():
            timings[name] = timings.get(name, 0.0) + ms

    # builtin detector + external report mapping
    t0 = time.perf_counter()
    builtin: list = []  # (analyzed, function index, DefectRecord)
    for a in analyzed:
        for i, (fn, paths) in enumerate(a.functions):
            for record in detect_bypass_reentrancy(fn, paths, a.name):
                builtin.append((a, i, record))
    mapped, unmapped = map_report(
        external_records, {a.name: a.analysis.selector_map for a in analyzed})
    timings["detector"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    corpus = [seq for a in analyzed for seq in _contract_corpus(a)]
    path_tokens = sum(map(len, corpus))
    try:
        vocab = train_vocabulary(corpus, config.embedding)
    except EmptyCorpus:
        vocab = Vocabulary({}, config.embedding.word_dim, b"\x00" * 32)
    timings["vocabulary"] = (time.perf_counter() - t0) * 1e3
    diverged = sum(not np.isfinite(v).all() for v in vocab.vectors.values())
    if diverged:
        raise VocabularyDiverged(
            f"{diverged} of {len(vocab.vectors)} word vectors are not "
            f"finite after training on {path_tokens} path tokens")

    to_embed: list = []  # (analyzed, fn index, function_ref, DefectClass)
    for a, i, record in builtin:
        fn = a.functions[i][0]
        ref = ("0x" + fn.selector.hex()) if fn.selector else record.function_signature
        to_embed.append((a, i, ref, record.defect_class))
    # an ungated analysis carves a function under every mapped selector
    by_selector = {(a.name, fn.selector): (a, i) for a in analyzed
                   for i, (fn, _) in enumerate(a.functions)}
    for record, selector in mapped:
        a, i = by_selector[(record.contract_name, selector)]
        to_embed.append((a, i, record.function_signature,
                         record.defect_class))

    # deterministic insertion order, each (function, ref, defect) once
    to_embed.sort(key=lambda item: (item[0].name, item[1], item[2],
                                    item[3].value))
    stored = {}
    for a, i, ref, defect in to_embed:
        stored.setdefault((a.name, i, ref, defect), (a, i, ref, defect))
    return _EmbedPlan(analyzed, vocab, list(stored.values()), {
        "contracts_processed": len(analyzed),
        "contracts_failed": failures,
        "functions_stored": len(stored),
        "builtin_findings": len(builtin),
        "mapped_records": len(mapped),
        "unmapped_records": [(r.contract_name, r.function_signature, reason)
                             for r, reason in unmapped],
        "report_schema_errors": [str(e) for e in report_errors],
        "paths_truncated_enumerations": sum(a.hit_cap for a in analyzed),
        "path_tokens": path_tokens,
        "timings_ms": timings,
    })


def _build_index(plan: _EmbedPlan, params, use_sequence: bool = True,
                 use_graph: bool = True) -> tuple:
    """Embed the plan's functions under one encoder variant into a new
    index. Returns (index, milliseconds spent embedding)."""
    memo = params.memo.bind(plan.vocab)
    index = AnnIndex(params.config.block_dim)
    embed_ms = 0.0
    # one pass per contract over its distinct functions to store
    for _, group in itertools.groupby(plan.stored,
                                      key=lambda item: id(item[0])):
        group = list(group)
        a = group[0][0]
        functions = list(dict.fromkeys(i for _, i, _, _ in group))
        t0 = time.perf_counter()
        embedded = embed_contract(
            [a.functions[i] for i in functions], plan.vocab, params,
            use_sequence=use_sequence, use_graph=use_graph, memo=memo)
        embed_ms += (time.perf_counter() - t0) * 1e3
        by_function = dict(zip(functions, embedded))
        for _, i, ref, defect in group:
            selector = a.functions[i][0].selector or b""
            for block_id, vec in enumerate(by_function[i].block_vectors):
                label = EntryLabel(a.name, ref, selector, block_id, defect)
                index.insert(IndexEntry(vec, label))
    return index, embed_ms


def cmd_embed(config: PipelineConfig, inputs) -> dict:
    """Analyze contracts, gather defect labels, embed defective functions
    with the full encoder, and write the index (plus its vocabulary
    sidecar). The summary's ``timings_ms`` holds the analysis stages summed
    over the contracts, ``detector``, ``vocabulary`` (corpus and
    training), ``embedding`` and ``save`` (both files)."""
    plan = _plan_embed(config, inputs)
    timings = plan.summary["timings_ms"]
    params = init_params(config.embedding)
    index, timings["embedding"] = _build_index(plan, params)
    t0 = time.perf_counter()
    save_index(index, config.index_path)
    save_vocabulary(plan.vocab, config.vocab_path)
    timings["save"] = (time.perf_counter() - t0) * 1e3

    total_ms = (timings.get("analysis", 0.0) + timings.get("paths", 0.0)
                + timings["embedding"])
    return {**plan.summary, "vectors_stored": len(index),
            "mean_contract_ms": total_ms / max(len(plan.analyzed), 1)}


def _detect_one(a: _Analyzed, config: PipelineConfig, index: AnnIndex,
                vocab, params, use_sequence: bool = True,
                use_graph: bool = True) -> ScanResult:
    """Embed, in one pass, the functions of one contract analyzed under
    the selector gate, and decide each against the index, built under the
    same encoder variant. A function that an earlier call with the same
    ``params``, ``vocab`` and variant embedded, or its clone, is served
    whole from the params' memo, and so is a twin of a function of the
    same contract; the counters say how many."""
    result = ScanResult(a.name, a.analysis.program.code_hash.hex(),
                        timings_ms=dict(a.timings_ms))
    stats = {}
    t0 = time.perf_counter()
    embeddings = embed_contract(
        a.functions, vocab, params, use_sequence=use_sequence,
        use_graph=use_graph, stats=stats, memo=params.memo.bind(vocab))
    result.timings_ms["embedding"] = (time.perf_counter() - t0) * 1e3
    result.timings_ms.update((name, stats[name]) for name in STAGES)
    t0 = time.perf_counter()
    nearest, compared = {}, {"functions_compared": 0}
    for emb in embeddings:
        result.findings.extend(decide_similar(
            emb, index, threshold=config.threshold, nearest=nearest,
            stats=compared))
    result.timings_ms["query"] = (time.perf_counter() - t0) * 1e3
    result.nearest = {"0x" + selector.hex(): distance
                      for selector, distance in nearest.items()}
    result.counters = {"instructions": len(a.analysis.program.starts),
                       "dynamic_edges": a.analysis.edges.dynamic_count,
                       "blocks_resolved": a.analysis.edges.resolved_count,
                       "paths_truncated": sum(
                           e.paths_truncated for e in embeddings),
                       "paths_encoded": stats["paths_encoded"],
                       "paths_capped": a.hit_cap,
                       "fallback_blocks": sum(
                           e.fallback_blocks for e in embeddings),
                       "functions_embedded": len(embeddings),
                       "functions_reused": stats["functions_reused"],
                       "functions_gated": (a.analysis.function_count
                                           - len(embeddings)),
                       **compared}
    return result


def cmd_detect(config: PipelineConfig, inputs, index=None, vocab=None,
               params=None) -> list:
    """Analyze each contract under the selector gate (the selectors the
    index holds), embed the functions that pass it and decide them against
    the index. Returns a list of ScanResult; a contract
    that fails carries its error and never aborts the call. Detectors and
    report parsing never run here. ``index``, ``vocab`` and ``params`` are
    given together, or else all three are loaded; given ``params``,
    ``config.embedding`` must equal ``params.config``."""
    bytecode_files, _ = _load_inputs(inputs)
    given = [artifact is not None for artifact in (index, vocab, params)]
    if any(given) and not all(given):
        raise ValueError("index, vocab and params are given together or "
                         "not at all")
    if index is None:
        index = load_index(config.index_path)
        vocab = load_vocabulary(config.vocab_path)
        params = init_params(config.embedding)
    if config.embedding != params.config:
        raise ValueError("config.embedding is not the encoder params' own")

    results = []
    selectors = index.selectors()
    for path in bytecode_files:
        name, a = path.stem, None
        try:
            a = _analyze_one(name, read_bytecode_file(path), config.max_paths,
                             selectors)
            results.append(_detect_one(a, config, index, vocab, params))
        except Exception as exc:  # the call never aborts on one contract
            code_hash = a.analysis.program.code_hash.hex() if a else ""
            results.append(ScanResult(name, code_hash, error=str(exc)))
    return results


def cmd_ablate(config: PipelineConfig, embed_inputs, scan_inputs,
               thresholds=DEFAULT_THRESHOLDS) -> dict:
    """Finding counts per (variant, threshold): each encoder variant builds
    its own in-memory index from ``embed_inputs`` and scans ``scan_inputs``
    with the same encoder. The analysis, the labels and the vocabulary are
    shared by every variant; no file is read from ``config.index_path`` or
    written. An unreadable scan input raises rather than count as 0."""
    plan = _plan_embed(config, embed_inputs)
    params = init_params(config.embedding)
    # every variant's index holds the plan's functions, so one gate
    selectors = {a.functions[i][0].selector for a, i, _, _ in plan.stored}
    scans = [_analyze_one(path.stem, read_bytecode_file(path),
                          config.max_paths, selectors)
             for path in _load_inputs(scan_inputs)[0]]
    scan_config = replace(config, threshold=max(thresholds))
    table = {}
    for name, use_sequence, use_graph in ABLATION_VARIANTS:
        index, _ = _build_index(plan, params, use_sequence, use_graph)
        distances = [f.max_block_distance for a in scans
                     for f in _detect_one(a, scan_config, index, plan.vocab,
                                          params, use_sequence,
                                          use_graph).findings]
        for threshold in thresholds:
            table[(name, threshold)] = sum(d <= threshold for d in distances)
    return table
