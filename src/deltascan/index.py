"""Labeled block-vector store, the per-function similarity decision rule,
and binary persistence.

The store is exact: it keeps every block vector, grouped by function, and
buckets the functions by selector. The decision rule compares a query
function with every stored function under its selector, so it never misses
one within the threshold. Distances are Euclidean.

For the decision rule, each selector's bucket is kept as one array
(``Bucket``), built on the first decision under the selector and dropped by
an insert under it: the bucket's distinct functions, a function being the
exact bytes of its stacked block vectors, stacked end to end, and each
member function's key with the distinct function it holds. Clones stored
under many labels are thus compared once per query, and a query is decided
against its whole bucket in one broadcast. Loading an index builds no
bucket.

``AnnIndex`` keeps its name although nothing approximate is left: the
benchmark's tracer (``bench/spans.py``) hooks ``index.AnnIndex`` by name,
and its ``insert``, ``query`` and ``function_entries``, so these stay until
a change to the benchmark.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .detectors import DefectClass
from .encoder.embed import FunctionEmbedding
from .errors import CorruptFile, DimensionMismatch

__all__ = ["EntryLabel", "IndexEntry", "Bucket", "AnnIndex", "Finding",
           "decide_similar", "save_index", "load_index"]

_MAGIC = b"DSIX"
# 3: the sequence encoder computes exact softmax attention. Stored vectors
# are only meaningful under the encoder that made them, so files written
# by an earlier encoder are refused rather than matched against.
_VERSION = 3
_METRIC_EUCLIDEAN = 1

_DEFECT_CODES = {cls: i for i, cls in enumerate(DefectClass)}
_DEFECT_FROM_CODE = {i: cls for cls, i in _DEFECT_CODES.items()}


@dataclass(frozen=True)
class EntryLabel:
    contract_name: str
    function_ref: str        # canonical signature, or "0x"+selector hex
    selector: bytes          # 4 bytes, or empty for anonymous functions
    block_id: int
    defect_class: DefectClass

    @property
    def function_key(self) -> tuple:
        return (self.contract_name, self.function_ref, self.defect_class)


@dataclass(frozen=True)
class IndexEntry:
    vector: np.ndarray
    label: EntryLabel


@dataclass(frozen=True)
class Finding:
    query_function_id: tuple
    matched_contract: str
    matched_function: str
    defect_class: DefectClass
    block_distances: tuple
    decision_threshold: float

    @property
    def max_block_distance(self) -> float:
        return max(self.block_distances)


@dataclass(frozen=True)
class Bucket:
    """The stored functions under one selector, as the decision rule reads
    them: ``stack`` holds the block vectors of each distinct function end
    to end, the one starting at row ``starts[g]`` being distinct function
    ``g``; ``members`` maps each stored function's key, in insertion
    order, to its distinct function."""
    stack: np.ndarray        # (rows, dim)
    starts: np.ndarray       # (distinct functions,)
    members: dict            # function_key -> distinct function


class AnnIndex:
    """Exact store of labeled block vectors, grouped by function, with the
    functions bucketed by selector."""

    def __init__(self, dim: int):
        self.dim = dim
        self.entries: list = []           # IndexEntry, in insertion order
        self._groups: dict = {}           # function_key -> [entry positions]
        self._by_selector: dict = {}      # selector -> [function keys]
        self._buckets: dict = {}          # selector -> Bucket, built on use

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, entry: IndexEntry) -> None:
        vec = np.asarray(entry.vector, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise DimensionMismatch(f"vector shape {vec.shape} != ({self.dim},)")
        label = entry.label
        positions = self._groups.get(label.function_key)
        if positions is None:
            positions = self._groups[label.function_key] = []
            self._by_selector.setdefault(label.selector, []).append(
                label.function_key)
        # a function stays under the selector of its first entry
        self._buckets.pop(self.entries[positions[0]].label.selector
                          if positions else label.selector, None)
        positions.append(len(self.entries))
        self.entries.append(IndexEntry(vec, label))

    def query(self, vector, k: int = 1) -> list:
        """k nearest entries as (position in ``entries``, euclidean
        distance), ascending; an exact scan, ties in insertion order."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self.entries:
            return []
        vec = np.asarray(vector, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise DimensionMismatch(f"vector shape {vec.shape} != ({self.dim},)")
        diff = np.stack([e.vector for e in self.entries]) - vec
        dists = np.sqrt((diff * diff).sum(axis=1))
        order = np.argsort(dists, kind="stable")[:k]
        return [(int(i), float(dists[i])) for i in order]

    def selectors(self):
        """The selectors the index holds a function under, as a live view:
        the selector gate of ``detect``."""
        return self._by_selector.keys()

    def function_entries(self, function_key) -> list:
        return [self.entries[i] for i in self._groups.get(function_key, ())]

    def bucket(self, selector) -> Bucket | None:
        """The stored functions under ``selector`` as one ``Bucket``, built
        on first use and again after an insert under the selector; None
        when the index holds none."""
        bucket = self._buckets.get(selector)
        if bucket is None and selector in self._by_selector:
            distinct, stacks, members = {}, [], {}
            for key in self._by_selector[selector]:
                stack = np.stack([e.vector for e in self.function_entries(key)])
                group = distinct.setdefault(stack.tobytes(), len(stacks))
                if group == len(stacks):
                    stacks.append(stack)
                members[key] = group
            starts = np.cumsum([0] + [len(s) for s in stacks[:-1]])
            bucket = self._buckets[selector] = Bucket(
                np.concatenate(stacks), starts, members)
        return bucket


def decide_similar(query_fn: FunctionEmbedding, index: AnnIndex,
                   threshold: float = 0.1, nearest: dict | None = None,
                   stats: dict | None = None) -> list:
    """Decision rule: a stored defective function matches when its
    selector equals the query's and every query block vector has a stored
    block vector within ``threshold`` (greedy nearest, with replacement).
    Every stored function under the query's selector is compared; a
    function stored under several labels is compared once, and each label
    gets a finding. When ``nearest`` is given, it keeps under the query's
    selector the smallest max block distance of any stored function
    compared, matched or not. When ``stats`` is given, its
    ``functions_compared`` grows by the distinct stored functions
    compared."""
    if not threshold > 0:  # NaN too
        raise ValueError("threshold must be positive")
    if not query_fn.block_vectors or query_fn.selector is None:
        return []  # selector gate: anonymous functions cannot match labels
    bucket = index.bucket(query_fn.selector)
    if bucket is None:
        return []

    query = np.stack(query_fn.block_vectors)[:, None, :]
    diff = bucket.stack[None, :, :] - query                    # (Q, rows, D)
    closest = np.minimum.reduceat((diff * diff).sum(axis=2), bucket.starts,
                                  axis=1)                      # (Q, distinct)
    distances = np.sqrt(closest).T.tolist()
    farthest = [max(d) for d in distances]
    if stats is not None:
        stats["functions_compared"] = (stats.get("functions_compared", 0)
                                       + len(farthest))
    if nearest is not None:
        nearest[query_fn.selector] = min(
            nearest.get(query_fn.selector, farthest[0]), *farthest)
    matched = {g: tuple(distances[g]) for g, d in enumerate(farthest)
               if d <= threshold}
    findings = [Finding(query_function_id=query_fn.function_id,
                        matched_contract=key[0],
                        matched_function=key[1],
                        defect_class=key[2],
                        block_distances=matched[g],
                        decision_threshold=threshold)
                for key, g in bucket.members.items() if g in matched]
    findings.sort(key=lambda f: (f.max_block_distance, f.matched_contract,
                                 f.matched_function))
    return findings


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CorruptFile("truncated index file")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (length,) = self.unpack("<H")
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFile(f"bad string in index file: {exc}") from exc


def save_index(index: AnnIndex, path) -> None:
    payload = bytearray()
    for entry in index.entries:
        label = entry.label
        payload += _pack_str(label.contract_name)
        payload += _pack_str(label.function_ref)
        payload += struct.pack("<B", len(label.selector)) + label.selector
        payload += struct.pack("<IB", label.block_id,
                               _DEFECT_CODES[label.defect_class])
        payload += entry.vector.astype("<f4").tobytes()
    header = _MAGIC + struct.pack("<HHBQ", _VERSION, index.dim,
                                  _METRIC_EUCLIDEAN, len(index.entries))
    checksum = struct.pack("<I", zlib.crc32(bytes(payload)))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(checksum)
        fh.write(payload)


def load_index(path) -> AnnIndex:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 21 or data[:4] != _MAGIC:
        raise CorruptFile("bad index magic")
    version, dim, metric, count = struct.unpack("<HHBQ", data[4:17])
    if version != _VERSION:
        raise CorruptFile(f"unsupported index version {version}")
    if metric != _METRIC_EUCLIDEAN:
        raise CorruptFile(f"unknown metric code {metric}")
    (checksum,) = struct.unpack("<I", data[17:21])
    payload = data[21:]
    if zlib.crc32(payload) != checksum:
        raise CorruptFile("index checksum mismatch")

    reader = _Reader(payload)
    index = AnnIndex(dim)
    for _ in range(count):
        contract = reader.string()
        function_ref = reader.string()
        (sel_len,) = reader.unpack("<B")
        selector = reader.take(sel_len)
        block_id, defect_code = reader.unpack("<IB")
        if defect_code not in _DEFECT_FROM_CODE:
            raise CorruptFile(f"unknown defect code {defect_code}")
        vec = np.frombuffer(reader.take(4 * dim), dtype="<f4").copy()
        label = EntryLabel(contract, function_ref, selector, block_id,
                           _DEFECT_FROM_CODE[defect_code])
        index.insert(IndexEntry(vec, label))
    if reader.pos != len(payload):
        raise CorruptFile("trailing bytes in index file")
    return index
