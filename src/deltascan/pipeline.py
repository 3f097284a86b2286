"""Two-phase scan orchestration.

Embed phase: analyze contracts, run the builtin reentrancy detector, merge
external report records, and store block vectors of defective functions in
the index. Detect phase: analyze new contracts, embed only the functions
the selector gate lets through (those under a selector the index holds),
and compare each with every stored function under its selector; no
detectors run (that is the whole point of the cheaper second phase).
"""

from __future__ import annotations

import itertools
import logging
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .cfg import ContractAnalysis, analyze_contract, enumerate_paths
from .detectors import detect_bypass_reentrancy, map_report, parse_report_file
# embed_function is not called here, but stays importable from this
# module: bench/spans.py hooks ``pipeline.embed_function``
from .encoder import (EmbeddingConfig, Vocabulary, embed_contract,
                      embed_function, load_vocabulary, save_vocabulary,
                      train_vocabulary)
from .encoder.embed import STAGES
from .encoder.params import init_params
from .errors import EmptyCorpus
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
    use_sequence: bool = True
    use_graph: bool = True
    allow_no_stages: bool = False

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")
        if not (self.use_sequence or self.use_graph or self.allow_no_stages):
            raise ValueError("at least one encoder stage must be enabled "
                             "(pass allow_no_stages for the ablation variant)")

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
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "contract": self.contract,
            "code_hash": self.code_hash,
            "findings": [
                {
                    "selector": "0x" + f.query_function_id[1].hex()
                    if isinstance(f.query_function_id[1], bytes) else
                    str(f.query_function_id[1]),
                    "defect": f.defect_class.value,
                    "max_block_distance": f.max_block_distance,
                    "matched": {"contract": f.matched_contract,
                                "function": f.matched_function},
                }
                for f in self.findings
            ],
            "timings_ms": self.timings_ms,
            "counters": self.counters,
            **({"error": self.error} if self.error else {}),
        }


_HEX = re.compile(r"[0-9a-fA-F]+")


def read_bytecode_file(path) -> bytes:
    """Read a bytecode file: hex text (optional 0x prefix) or raw binary."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("ascii").strip()
    except UnicodeDecodeError:
        return raw
    body = text[2:] if text.startswith(("0x", "0X")) else text
    if _HEX.fullmatch(body):
        return bytes.fromhex(body if len(body) % 2 == 0 else "0" + body)
    return raw


@dataclass
class _Analyzed:
    name: str
    analysis: ContractAnalysis
    paths: dict            # function index -> list of ExecutionPath
    hit_cap: int
    timings_ms: dict


def _analyze_one(name: str, code: bytes, max_paths: int) -> _Analyzed:
    timings = {}
    t0 = time.perf_counter()
    analysis = analyze_contract(code)
    timings["analysis"] = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    paths = {}
    hit_cap = 0
    for i, fn in enumerate(analysis.functions):
        enum = enumerate_paths(fn, max_paths)
        paths[i] = list(enum.paths)
        hit_cap += int(enum.hit_cap)
    timings["paths"] = (time.perf_counter() - t0) * 1e3
    return _Analyzed(name, analysis, paths, hit_cap, timings)


def _contract_corpus(analyzed: _Analyzed) -> list:
    corpus = []
    for i, fn in enumerate(analyzed.analysis.functions):
        for path in analyzed.paths[i]:
            corpus.append([ins.opcode.mnemonic
                           for bid in path.blocks
                           for ins in fn.blocks[bid].instructions])
    return corpus


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


def cmd_embed(config: PipelineConfig, inputs) -> dict:
    """Analyze contracts, gather defect labels, embed defective functions,
    and write the index (plus its vocabulary sidecar)."""
    bytecode_files, report_files = _load_inputs(inputs)
    external_records = []
    report_errors = []
    for path in report_files:
        records, errors = parse_report_file(Path(path).read_bytes())
        external_records.extend(records)
        report_errors.extend(errors)

    failures = {}
    analyzed = []
    for path in bytecode_files:
        try:
            analyzed.append(_analyze_one(Path(path).stem,
                                         read_bytecode_file(path),
                                         config.max_paths))
        except Exception as exc:  # batch never aborts on one contract
            logger.warning("embed: %s failed: %s", path, exc)
            failures[str(path)] = str(exc)

    # builtin detector + external report mapping
    selector_maps = {a.name: (a.analysis.program.code_hash,
                              a.analysis.selector_map) for a in analyzed}
    builtin: list = []  # (analyzed, function index, DefectRecord)
    for a in analyzed:
        for i, fn in enumerate(a.analysis.functions):
            for record in detect_bypass_reentrancy(fn, config.max_paths,
                                                   contract_name=a.name,
                                                   paths=a.paths[i]):
                builtin.append((a, i, record))
    mapped, unmapped = map_report(external_records, selector_maps)

    corpus = [seq for a in analyzed for seq in _contract_corpus(a)]
    try:
        vocab = train_vocabulary(corpus, config.embedding)
    except EmptyCorpus:
        vocab = Vocabulary({}, config.embedding.word_dim, b"\x00" * 32)
    params = init_params(config.embedding)

    index = AnnIndex(config.embedding.block_dim)

    to_embed: list = []  # (analyzed, fn index, function_ref, DefectClass)
    for a, i, record in builtin:
        fn = a.analysis.functions[i]
        ref = ("0x" + fn.selector.hex()) if fn.selector else record.function_signature
        to_embed.append((a, i, ref, record.defect_class))
    by_selector = {}
    for a in analyzed:
        for i, fn in enumerate(a.analysis.functions):
            if fn.selector is not None:
                by_selector[(a.name, fn.selector)] = (a, i)
    for md in mapped:
        hit = by_selector.get((md.record.contract_name, md.selector))
        if hit is not None:
            to_embed.append((hit[0], hit[1], md.record.function_signature,
                             md.record.defect_class))

    # deterministic insertion order, each (function, ref, defect) once
    to_embed.sort(key=lambda item: (item[0].name, item[1], item[2],
                                    item[3].value))
    stored = {}
    for a, i, ref, defect in to_embed:
        stored.setdefault((a.name, i, ref, defect), (a, i, ref, defect))
    embed_ms = 0.0
    # one pass per contract over its distinct functions to store
    for _, group in itertools.groupby(stored.values(),
                                      key=lambda item: id(item[0])):
        group = list(group)
        a = group[0][0]
        functions = list(dict.fromkeys(i for _, i, _, _ in group))
        t0 = time.perf_counter()
        embedded = embed_contract(
            [(a.analysis.functions[i], a.paths[i]) for i in functions],
            vocab, params, config.embedding,
            use_sequence=config.use_sequence, use_graph=config.use_graph)
        embed_ms += (time.perf_counter() - t0) * 1e3
        by_function = dict(zip(functions, embedded))
        for _, i, ref, defect in group:
            selector = a.analysis.functions[i].selector or b""
            for block_id, vec in enumerate(by_function[i].block_vectors):
                label = EntryLabel(a.name, ref, selector, block_id, defect)
                index.insert(IndexEntry(vec, label))

    save_index(index, config.index_path)
    save_vocabulary(vocab, config.vocab_path)

    total_analysis = sum(a.timings_ms["analysis"] + a.timings_ms["paths"]
                         for a in analyzed)
    return {
        "contracts_processed": len(analyzed),
        "contracts_failed": failures,
        "functions_stored": len(stored),
        "vectors_stored": len(index),
        "builtin_findings": len(builtin),
        "mapped_records": len(mapped),
        "unmapped_records": [(r.contract_name, r.function_signature, reason)
                             for r, reason in unmapped],
        "report_schema_errors": [str(e) for e in report_errors],
        "mean_contract_ms": ((total_analysis + embed_ms) / len(analyzed))
        if analyzed else 0.0,
        "paths_truncated_enumerations": sum(a.hit_cap for a in analyzed),
    }


def _load_artifacts(config: PipelineConfig) -> tuple:
    index = load_index(config.index_path)
    vocab = load_vocabulary(config.vocab_path)
    params = init_params(config.embedding)
    return index, vocab, params


def _can_match(fn, index: AnnIndex) -> bool:
    """The selector gate: a function matches only stored functions under
    its own selector (``decide_similar``), so one without blocks, without
    a selector, or under a selector the index does not hold cannot match."""
    return (bool(fn.blocks) and fn.selector is not None
            and bool(index.function_keys(fn.selector)))


def _detect_one(a: _Analyzed, config: PipelineConfig, index: AnnIndex,
                vocab, params) -> ScanResult:
    """Embed, in one pass, the functions of one analyzed contract that pass
    the selector gate, and decide each against the index."""
    result = ScanResult(a.name, a.analysis.program.code_hash.hex(),
                        timings_ms=dict(a.timings_ms))
    functions = [(fn, a.paths[i]) for i, fn in enumerate(a.analysis.functions)
                 if _can_match(fn, index)]
    stats = {}
    t0 = time.perf_counter()
    embeddings = embed_contract(
        functions, vocab, params, config.embedding,
        use_sequence=config.use_sequence, use_graph=config.use_graph,
        stats=stats)
    result.timings_ms["embedding"] = (time.perf_counter() - t0) * 1e3
    result.timings_ms.update((name, stats[name]) for name in STAGES)
    t0 = time.perf_counter()
    for emb in embeddings:
        result.findings.extend(decide_similar(
            emb, index, threshold=config.threshold))
    result.timings_ms["query"] = (time.perf_counter() - t0) * 1e3
    with_blocks = sum(bool(fn.blocks) for fn in a.analysis.functions)
    result.counters = {"paths_truncated": sum(
                           e.paths_truncated for e in embeddings),
                       "paths_encoded": stats["paths_encoded"],
                       "paths_capped": a.hit_cap,
                       "fallback_blocks": sum(
                           e.fallback_blocks for e in embeddings),
                       "functions_embedded": len(embeddings),
                       "functions_gated": with_blocks - len(embeddings)}
    return result


def cmd_detect(config: PipelineConfig, inputs, index=None, vocab=None,
               params=None) -> list:
    """Embed the functions of each contract that pass the selector gate and
    decide them against the index. Returns a list of ScanResult; a contract
    that fails carries its error and never aborts the call. Detectors and
    report parsing never run here."""
    bytecode_files, _ = _load_inputs(inputs)
    if index is None:
        index, vocab, params = _load_artifacts(config)

    results = []
    for path in bytecode_files:
        name, a = Path(path).stem, None
        try:
            a = _analyze_one(name, read_bytecode_file(path), config.max_paths)
            results.append(_detect_one(a, config, index, vocab, params))
        except Exception as exc:  # the call never aborts on one contract
            code_hash = a.analysis.program.code_hash.hex() if a else ""
            results.append(ScanResult(name, code_hash, error=str(exc)))
    return results


def cmd_ablate(config: PipelineConfig, inputs,
               thresholds=DEFAULT_THRESHOLDS) -> dict:
    """Detect under the four encoder variants across a threshold sweep;
    returns finding counts per (variant, threshold)."""
    bytecode_files, _ = _load_inputs(inputs)
    index, vocab, params = _load_artifacts(config)
    table = {}
    for name, use_seq, use_graph in ABLATION_VARIANTS:
        variant_cfg = replace(config, use_sequence=use_seq,
                              use_graph=use_graph, allow_no_stages=True,
                              threshold=max(thresholds))
        results = cmd_detect(variant_cfg, bytecode_files,
                             index=index, vocab=vocab, params=params)
        for threshold in thresholds:
            count = sum(
                1
                for r in results
                for f in r.findings
                if f.max_block_distance <= threshold)
            table[(name, threshold)] = count
    return table
