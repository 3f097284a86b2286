"""Basic-block partitioning, control-flow edges, dispatcher-based function
recovery, and loop-avoiding path enumeration over disassembled bytecode.

Every stage reads the program's arrays (instruction start offsets and
opcode bytes; see ``evm``), and none builds an ``Instruction``. A block is
an index range ``[lo, hi)`` into those arrays. The block bounds come from
one vectorised pass over the opcode bytes, which splits at the JUMPDESTs
and after the terminators (``Blocks``); a ``BasicBlock`` record is built
only where one is read. Edges are resolved on demand (``Edges``): a
block's successor list and static edges by kind are resolved the first
time the dispatcher walk or the carving of a function reads them, and
kept. A jump target is read only from the instruction before each
JUMP/JUMPI, and it names a block only when a JUMPDEST starts there; the
selector map reads its entries by the same rule. So an analysis decodes
the whole code but resolves only the dispatcher spine and the blocks of
the functions it carves; iterating the edges resolves every block. A
function carries its successors as one sorted tuple of distinct local
block ids per block, and everything downstream (paths, the instruction
graph, the encoder memo key) reads those lists.

Dynamic jumps (no PUSH-constant target) are over-approximated with edges to
every JUMPDEST block; paths are enumerated depth-first with successors in
ascending block-id order so results are deterministic.

Function recovery can be gated on a set of selectors: the selector map is
still recovered whole, but only the functions under those selectors are
carved. ``detect`` gates on the selectors its index holds, since no other
function can match.
"""

from __future__ import annotations

import re
import time
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evm import OPCODES, Program

__all__ = [
    "BasicBlock",
    "Blocks",
    "Edge",
    "Edges",
    "FunctionCfg",
    "ExecutionPath",
    "SelectorMap",
    "PathEnumeration",
    "partition_blocks",
    "resolve_edges",
    "recover_functions",
    "enumerate_paths",
    "analyze_contract",
    "ContractAnalysis",
]

HALTING_KINDS = frozenset({"stop", "return", "revert", "invalid", "selfdestruct"})


@dataclass(frozen=True)
class BasicBlock:
    """Instructions ``[lo, hi)`` of ``program``."""
    block_id: int
    lo: int
    hi: int
    program: Program = field(repr=False)

    @property
    def start_offset(self) -> int:
        return self.program.starts[self.lo]

    @property
    def terminator_kind(self) -> str:
        """How the block ends: by its last opcode, "fallthrough" when that
        is no terminator (the block ends before a JUMPDEST or the end)."""
        return _TERMINATOR_KINDS[self.program.ops[self.hi - 1]]

    @property
    def instr_count(self) -> int:
        return self.hi - self.lo

    @property
    def ops(self) -> bytes:
        """The opcode byte of each instruction."""
        return self.program.ops[self.lo:self.hi]

    @property
    def instructions(self) -> tuple:
        """The instructions, built on this read."""
        return self.program.instructions[self.lo:self.hi]


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: str  # jump_taken | jumpi_true | jumpi_false | fallthrough
    dynamic: bool = False


@dataclass(frozen=True)
class FunctionCfg:
    function_id: tuple  # (code_hash, selector bytes or entry offset)
    selector: bytes | None
    entry_block: int
    blocks: tuple  # BasicBlock with function-local dense ids
    successors: tuple  # per block, its distinct local successors, ascending

    @property
    def avg_block_len(self) -> float:
        if not self.blocks:
            return 0.0
        return sum(b.instr_count for b in self.blocks) / len(self.blocks)


@dataclass(frozen=True)
class ExecutionPath:
    blocks: tuple  # block ids, duplicate-free
    terminal_reason: str  # natural_exit | all_successors_visited


@dataclass(frozen=True)
class SelectorMap:
    entries: dict  # 4-byte selector -> contract-level entry block_id
    fallback_entry: int | None = None


@dataclass(frozen=True)
class PathEnumeration:
    paths: tuple
    hit_cap: bool


# the terminator kind of a block, by the opcode byte of its last instruction
_ENDS = {0x00: "stop", 0x56: "jump", 0x57: "jumpi", 0xF3: "return",
         0xFD: "revert", 0xFF: "selfdestruct"}
_TERMINATOR_KINDS = tuple(
    _ENDS.get(op.byte_value,
              "invalid" if op.mnemonic == "INVALID" else "fallthrough")
    for op in OPCODES)
# {PUSH1-4 selector; DUP/SWAP*; EQ; PUSH0-32 dest; JUMPI}
_SELECTOR_CHECK = re.compile(rb"[\x60-\x63][\x80-\x9f]*\x14[\x5f-\x7f]\x57")
# opcode byte translation tables, each to 1 or 0: whether a block ends after
# the byte (a terminator), whether one starts at it (JUMPDEST)
_ENDS_BLOCK = bytes(kind != "fallthrough" for kind in _TERMINATOR_KINDS)
_STARTS_BLOCK = bytes(byte == 0x5B for byte in range(256))
# opcode byte translation table: P for PUSH0-PUSH32, J for JUMP and JUMPI
_PUSH_JUMP = b"".join(b"P" if 0x5F <= byte <= 0x7F else
                      b"J" if byte in (0x56, 0x57) else b"."
                      for byte in range(256))


class Blocks(Sequence):
    """A program's basic blocks: block ``b`` is instructions
    ``[lo[b], hi[b])``. Its ``BasicBlock`` is built when it is read."""

    def __init__(self, program: Program, lo: list, hi: list):
        self.program, self.lo, self.hi = program, lo, hi

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, b: int) -> BasicBlock:
        b = range(len(self))[b]
        return BasicBlock(b, self.lo[b], self.hi[b], self.program)

    def jumpdest(self, offset: int) -> int | None:
        """The block that starts with the JUMPDEST at byte ``offset``, or
        None when no JUMPDEST starts there: the one rule for reading a jump
        target, shared by the edges and the selector map."""
        starts, ops = self.program.starts, self.program.ops
        i = bisect_left(starts, offset)
        if i == len(starts) or starts[i] != offset or ops[i] != 0x5B:
            return None
        return bisect_left(self.lo, i)  # a JUMPDEST always starts a block


def partition_blocks(program: Program) -> Blocks:
    """Find the basic blocks' bounds in one vectorised pass over the opcode
    bytes. A block ends after a (conditional) terminator and before a
    JUMPDEST: instruction ``i`` starts one when ``i`` is 0, instruction
    ``i - 1`` ends one, or instruction ``i`` is a JUMPDEST."""
    ops = program.ops
    after_end = np.frombuffer(b"\1" + ops.translate(_ENDS_BLOCK), np.uint8)
    jumpdest = np.frombuffer(ops.translate(_STARTS_BLOCK) + b"\1", np.uint8)
    bounds = np.flatnonzero(after_end | jumpdest).tolist()
    return Blocks(program, bounds[:-1], bounds[1:])


def _dynamic_jumps(ops: bytes) -> int:
    """The JUMPs and JUMPIs whose target is no constant: those not right
    after a PUSH0-PUSH32."""
    classes = ops.translate(_PUSH_JUMP)
    return classes.count(b"J") - classes.count(b"PJ")


class Edges:
    """A contract's control-flow edges as the front end reads them: per
    block, its ascending distinct successors (``succ(b)``) and its static
    edges as ``{kind: dst}`` (``static(b)``). A block's edges are resolved
    the first time either is read, and kept; ``resolved_count`` is the
    number of blocks resolved so far. ``dynamic_count``, the edges from
    each dynamic JUMP/JUMPI to each JUMPDEST block, is counted without
    resolving. Taking the number of edges or iterating them resolves every
    block; iteration makes the ``Edge`` records, dynamic ones included."""

    def __init__(self, blocks: Blocks):
        self._blocks = blocks
        self._succ = [None] * len(blocks)
        self._static = [None] * len(blocks)
        self._dynamic = {}  # block id -> kind of its dynamic edges
        self._last = len(blocks) - 1
        self.resolved_count = 0
        ops = blocks.program.ops
        self.dynamic_count = _dynamic_jumps(ops) * ops.count(0x5B)

    def succ(self, b: int) -> tuple:
        if self._succ[b] is None:
            self._resolve(b)
        return self._succ[b]

    def static(self, b: int) -> dict:
        if self._static[b] is None:
            self._resolve(b)
        return self._static[b]

    @cached_property
    def _jumpdests(self) -> tuple:
        """The JUMPDEST blocks, every dynamic jump's targets."""
        ops = self._blocks.program.ops
        return tuple(b for b, lo in enumerate(self._blocks.lo)
                     if ops[lo] == 0x5B)

    def _resolve(self, src: int):
        """The push-constant jump heuristic: a jump's target is the value
        of the PUSH right before it, if any."""
        blocks = self._blocks
        program = blocks.program
        hi = blocks.hi[src]
        op = program.ops[hi - 1]
        out = {}
        if op == 0x56 or op == 0x57:  # JUMP, JUMPI
            taken_kind = "jump_taken" if op == 0x56 else "jumpi_true"
            target = (program.push_value(hi - 2)
                      if hi - blocks.lo[src] >= 2 else None)
            if target is not None:
                dst = blocks.jumpdest(target)
                if dst is not None:
                    out[taken_kind] = dst
                # resolved-but-invalid target: statically a revert, no edge
            else:
                self._dynamic[src] = taken_kind
            if op == 0x57 and src < self._last:
                out["jumpi_false"] = src + 1
        elif src < self._last and _TERMINATOR_KINDS[op] == "fallthrough":
            out["fallthrough"] = src + 1
        self._static[src] = out
        if src in self._dynamic:
            self._succ[src] = tuple(sorted(set(self._jumpdests).union(
                out.values())))
        elif len(out) == 2:
            self._succ[src] = tuple(sorted(set(out.values())))
        else:
            self._succ[src] = tuple(out.values())
        self.resolved_count += 1

    def _resolve_all(self):
        for b in range(len(self._static)):
            self.static(b)

    def __len__(self) -> int:
        self._resolve_all()
        return sum(map(len, self._static)) + self.dynamic_count

    def __iter__(self):
        self._resolve_all()
        for src, out in enumerate(self._static):
            for kind, dst in out.items():
                yield Edge(src, dst, kind)
            kind = self._dynamic.get(src)
            if kind is not None:
                for dst in self._jumpdests:
                    yield Edge(src, dst, kind, dynamic=True)


def resolve_edges(blocks: Blocks) -> Edges:
    """The blocks' control-flow edges, each block's resolved when first
    read (see ``Edges``)."""
    return Edges(blocks)


def _find_selector_patterns(program: Program, lo: int, hi: int) -> list:
    """Match {PUSH1-4 sel; EQ; PUSH dest; JUMPI} within the dispatcher block
    ``[lo, hi)``, tolerating stack-shuffle opcodes between the stages. solc
    pushes a selector at its minimal width, so a shorter one is left-padded
    to 4 bytes. Matches cannot overlap: nothing inside one starts
    another."""
    code, starts = program.code_body, program.starts
    matches = []
    for match in _SELECTOR_CHECK.finditer(program.ops, lo, hi):
        first, dest = match.start(), match.end() - 2
        selector = code[starts[first] + 1:starts[first + 1]]
        matches.append((selector.rjust(4, b"\0"), program.push_value(dest)))
    return matches


def recover_functions(blocks: Blocks, edges: Edges, code_hash: bytes = b"",
                      selectors=None) -> tuple:
    """Scan the dispatcher spine for selector checks and carve per-function
    CFG subgraphs. Returns (SelectorMap, [FunctionCfg]); a contract with no
    dispatcher pattern yields one anonymous function over the whole graph.
    ``edges`` is ``resolve_edges(blocks)``; only the edges of the spine and
    of the carved blocks are resolved. A selector maps to a block only when
    its check jumps to a JUMPDEST, as a jump edge does.

    Given a container of 4-byte ``selectors``, only the functions under a
    selector in it are carved, and neither the fallback nor the anonymous
    function is; the selector map is complete either way. ``None`` carves
    every function."""
    if not blocks:
        return SelectorMap({}, None), []
    program, lo, hi = blocks.program, blocks.lo, blocks.hi
    succ = edges.succ

    # dispatcher spine: the chain of selector-miss continuations from block 0,
    # with each spine block's selector checks. A guard (a JUMPI without a
    # selector check whose miss reverts, such as solc's CALLVALUE check)
    # continues at its jump target instead.
    spine = {}  # spine block id -> its selector patterns, in spine order
    cursor = 0
    while cursor is not None and cursor not in spine:
        patterns = spine[cursor] = _find_selector_patterns(
            program, lo[cursor], hi[cursor])
        out = edges.static(cursor)
        nxt = out.get("jumpi_false", out.get("fallthrough"))
        taken = out.get("jumpi_true")
        if (nxt is not None and taken is not None and not patterns
                and program.ops[hi[nxt] - 1] == 0xFD):  # the miss reverts
            nxt = taken
        cursor = nxt

    selector_entries: dict = {}
    for patterns in spine.values():
        for selector, dest_offset in patterns:
            dst = blocks.jumpdest(dest_offset)
            if dst is not None and selector not in selector_entries:
                selector_entries[selector] = dst

    dispatcher_blocks = {bid for bid, patterns in spine.items()
                         if patterns} | {0}
    entry_blocks = set(selector_entries.values())

    if not selector_entries:
        if selectors is not None:
            return SelectorMap({}, None), []
        cfg = _carve_function(blocks, succ, entry=0, excluded=set(),
                              selector=None, code_hash=code_hash)
        return SelectorMap({}, None), [cfg]

    # fallback entry: where the spine ends up after every selector misses
    fallback_entry = None
    for bid in reversed(spine):
        if bid not in dispatcher_blocks and bid not in entry_blocks:
            fallback_entry = bid
            break

    functions = []
    for selector in sorted(selector_entries):
        if selectors is not None and selector not in selectors:
            continue
        entry = selector_entries[selector]
        excluded = dispatcher_blocks | (entry_blocks - {entry})
        functions.append(_carve_function(blocks, succ, entry, excluded,
                                         selector, code_hash))
    if fallback_entry is not None and selectors is None:
        excluded = dispatcher_blocks | entry_blocks
        functions.append(_carve_function(blocks, succ, fallback_entry,
                                         excluded, None, code_hash))
    return SelectorMap(dict(selector_entries), fallback_entry), functions


def _carve_function(blocks, succ, entry, excluded, selector, code_hash):
    """Reachable subgraph from ``entry``, truncated at excluded blocks,
    re-indexed with function-local dense block ids. ``succ(b)`` gives
    block ``b``'s ascending successor ids; only the reachable blocks' are
    read."""
    reachable = []
    stack, seen = [entry], {entry}
    while stack:
        bid = stack.pop()
        reachable.append(bid)
        for dst in reversed(succ(bid)):
            if dst not in seen and dst not in excluded:
                seen.add(dst)
                stack.append(dst)
    # block ids ascend with start offsets, so local ids keep their order
    reachable.sort()
    remap = {bid: new for new, bid in enumerate(reachable)}
    program, lo, hi = blocks.program, blocks.lo, blocks.hi
    local_blocks = tuple(BasicBlock(new, lo[bid], hi[bid], program)
                         for new, bid in enumerate(reachable))
    successors = tuple(tuple(remap[dst] for dst in succ(bid)
                             if dst in remap)
                       for bid in reachable)
    fid = (code_hash,
           selector if selector is not None else program.starts[lo[entry]])
    return FunctionCfg(fid, selector, remap[entry], local_blocks, successors)


def enumerate_paths(cfg: FunctionCfg, max_paths: int = 64) -> PathEnumeration:
    """Loop-avoiding DFS from the entry block; deterministic order. At most
    ``max_paths`` paths are kept; ``hit_cap`` says that the walk found one
    more, so some paths were never enumerated."""
    if max_paths < 1:
        raise ValueError("max_paths must be >= 1")
    if not cfg.blocks:
        return PathEnumeration((), False)
    succ = cfg.successors

    paths = []
    hit_cap = False

    def emit(path, reason):
        nonlocal hit_cap
        if len(paths) == max_paths:
            hit_cap = True
        else:
            paths.append(ExecutionPath(tuple(path), reason))

    # explicit-stack DFS: frames are (block_id, iterator over unvisited succs)
    path = [cfg.entry_block]
    on_path = {cfg.entry_block}
    frames = []

    def open_frame(bid):
        if cfg.blocks[bid].terminator_kind in HALTING_KINDS:
            emit(path, "natural_exit")
            return None
        next_blocks = [d for d in succ[bid] if d not in on_path]
        if not next_blocks:
            emit(path, "all_successors_visited")
            return None
        return iter(next_blocks)

    frame = open_frame(cfg.entry_block)
    if frame is not None:
        frames.append(frame)
    while frames and not hit_cap:
        dst = next(frames[-1], None)
        if dst is None or dst in on_path:
            if dst is None:
                frames.pop()
                on_path.discard(path.pop())
            continue
        path.append(dst)
        on_path.add(dst)
        child = open_frame(dst)
        if child is None:
            on_path.discard(path.pop())
        else:
            frames.append(child)
    return PathEnumeration(tuple(paths), hit_cap)


@dataclass(frozen=True)
class ContractAnalysis:
    program: Program
    partition: Blocks = field(compare=False, repr=False)  # see ``blocks``
    edges: Edges
    selector_map: SelectorMap  # complete, gated or not
    functions: tuple           # gated: only the functions under the selectors
    # milliseconds of the stages: decode, blocks, edges, functions
    timings_ms: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def blocks(self) -> tuple:
        """Every basic block of the contract, built on the first read."""
        return tuple(self.partition)


def analyze_contract(code: bytes, selectors=None) -> ContractAnalysis:
    """Full front-end: strip metadata, disassemble, partition, set up the
    edges, recover functions, and time each stage. Convenience composition
    used by the CLI and pipeline. Edges are resolved as function recovery
    reads them, so the ``functions`` stage holds their cost.

    Given ``selectors``, ``functions`` holds only the functions under a
    selector in it (see ``recover_functions``), each equal to the one an
    ungated analysis carves; the program, blocks, edges and selector map
    are complete either way."""
    from .evm import disassemble, strip_metadata

    marks = [time.perf_counter()]
    program = disassemble(strip_metadata(code)[0])
    marks.append(time.perf_counter())
    blocks = partition_blocks(program)
    marks.append(time.perf_counter())
    edges = resolve_edges(blocks)
    marks.append(time.perf_counter())
    selmap, functions = recover_functions(blocks, edges, program.code_hash,
                                          selectors)
    marks.append(time.perf_counter())
    timings = {name: (end - begin) * 1e3 for name, begin, end in
               zip(("decode", "blocks", "edges", "functions"), marks,
                   marks[1:])}
    return ContractAnalysis(program, blocks, edges, selmap,
                            tuple(functions), timings)
