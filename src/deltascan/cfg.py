"""Basic-block partitioning, control-flow edges, dispatcher-based function
recovery, and loop-avoiding path enumeration over disassembled bytecode.

Every stage reads the program's arrays (instruction start offsets and
opcode bytes; see ``evm``), and none builds an ``Instruction``. A block is
an index range ``[lo, hi)`` into those arrays. Blocks are split at the
JUMPDESTs and after the terminators that one regular-expression scan of
the opcode bytes finds. Edges are resolved once, into per-block successor
lists and static edges by kind (``Edges``), which the dispatcher walk and
the carving of each function read; a jump target is read only from the
instruction before each JUMP/JUMPI. A function carries its successors as
one sorted tuple of distinct local block ids per block, and everything
downstream (paths, the instruction graph, the encoder memo key) reads
those lists.

Dynamic jumps (no PUSH-constant target) are over-approximated with edges to
every JUMPDEST block; paths are enumerated depth-first with successors in
ascending block-id order so results are deterministic.

Function recovery can be gated on a set of selectors: the selector map,
the blocks and the contract's edges are still recovered whole, but only
the functions under those selectors are carved. ``detect`` gates on the
selectors its index holds, since no other function can match.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from .evm import OPCODES, Program

__all__ = [
    "BasicBlock",
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


class Edges:
    """A contract's control-flow edges as the front end reads them: per
    block, its ascending distinct successors (``succ``) and its static
    edges as ``{kind: dst}`` (``static``). A dynamic jump's edges to every
    JUMPDEST block are counted, and made into ``Edge`` records only when
    the edges are iterated."""

    def __init__(self, succ: list, static: list, dynamic: dict,
                 jumpdests: tuple):
        self.succ = succ            # block id -> tuple of successor ids
        self.static = static        # block id -> {kind: dst}, static only
        self._dynamic = dynamic     # block id -> kind of its dynamic edges
        self._jumpdests = jumpdests
        self.dynamic_count = len(dynamic) * len(jumpdests)
        self._len = sum(map(len, static)) + self.dynamic_count

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        jumpdests = self._jumpdests
        for src, out in enumerate(self.static):
            for kind, dst in out.items():
                yield Edge(src, dst, kind)
            kind = self._dynamic.get(src)
            if kind is not None:
                for dst in jumpdests:
                    yield Edge(src, dst, kind, dynamic=True)


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
# the opcode bytes where a block ends (terminators) or starts (JUMPDEST)
_BOUNDARIES = re.compile(b"[" + b"".join(
    re.escape(bytes([byte])) for byte, kind in enumerate(_TERMINATOR_KINDS)
    if kind != "fallthrough" or byte == 0x5B) + b"]")
# {PUSH1-4 selector; DUP/SWAP*; EQ; PUSH0-32 dest; JUMPI}
_SELECTOR_CHECK = re.compile(rb"[\x60-\x63][\x80-\x9f]*\x14[\x5f-\x7f]\x57")


def partition_blocks(program: Program) -> list:
    """Split instructions into basic blocks in one scan of the opcode
    bytes. A block ends after a (conditional) terminator and before a
    JUMPDEST."""
    ops = program.ops
    blocks = []
    start = 0
    for match in _BOUNDARIES.finditer(ops):
        idx = match.start()
        if ops[idx] == 0x5B:  # JUMPDEST
            if idx > start:
                blocks.append(BasicBlock(len(blocks), start, idx, program))
                start = idx
        else:
            blocks.append(BasicBlock(len(blocks), start, idx + 1, program))
            start = idx + 1
    if start < len(ops):
        blocks.append(BasicBlock(len(blocks), start, len(ops), program))
    return blocks


def resolve_edges(blocks: list) -> Edges:
    """Recover control-flow edges with the push-constant jump heuristic: a
    jump's target is the value of the PUSH right before it, if any."""
    program = blocks[0].program if blocks else None
    by_offset = {b.start_offset: b.block_id for b in blocks}
    jumpdests = tuple(b.block_id for b in blocks if program.ops[b.lo] == 0x5B)
    is_jumpdest = set(jumpdests)
    succ, static, dynamic = [], [], {}
    last = len(blocks) - 1
    for src, block in enumerate(blocks):
        hi = block.hi
        op = program.ops[hi - 1]
        out = {}
        if op == 0x56 or op == 0x57:  # JUMP, JUMPI
            taken_kind = "jump_taken" if op == 0x56 else "jumpi_true"
            target = program.push_value(hi - 2) if hi - block.lo >= 2 else None
            if target is not None:
                dst = by_offset.get(target)
                if dst is not None and dst in is_jumpdest:
                    out[taken_kind] = dst
                # resolved-but-invalid target: statically a revert, no edge
            else:
                dynamic[src] = taken_kind
            if op == 0x57 and src < last:
                out["jumpi_false"] = src + 1
        elif src < last and _TERMINATOR_KINDS[op] == "fallthrough":
            out["fallthrough"] = src + 1
        static.append(out)
        if src in dynamic:
            succ.append(tuple(sorted(is_jumpdest.union(out.values()))))
        elif len(out) == 2:
            succ.append(tuple(sorted(set(out.values()))))
        else:
            succ.append(tuple(out.values()))
    return Edges(succ, static, dynamic, jumpdests)


def _find_selector_patterns(block: BasicBlock) -> list:
    """Match {PUSH1-4 sel; EQ; PUSH dest; JUMPI} within a dispatcher block,
    tolerating stack-shuffle opcodes between the stages. solc pushes a
    selector at its minimal width, so a shorter one is left-padded to 4
    bytes. Matches cannot overlap: nothing inside one starts another."""
    program = block.program
    code, starts = program.code_body, program.starts
    matches = []
    for match in _SELECTOR_CHECK.finditer(program.ops, block.lo, block.hi):
        first, dest = match.start(), match.end() - 2
        selector = code[starts[first] + 1:starts[first + 1]]
        matches.append((selector.rjust(4, b"\0"), program.push_value(dest)))
    return matches


def recover_functions(blocks: list, edges: Edges, code_hash: bytes = b"",
                      selectors=None) -> tuple:
    """Scan the dispatcher spine for selector checks and carve per-function
    CFG subgraphs. Returns (SelectorMap, [FunctionCfg]); a contract with no
    dispatcher pattern yields one anonymous function over the whole graph.
    ``edges`` is ``resolve_edges(blocks)``.

    Given a container of 4-byte ``selectors``, only the functions under a
    selector in it are carved, and neither the fallback nor the anonymous
    function is; the selector map is complete either way. ``None`` carves
    every function."""
    if not blocks:
        return SelectorMap({}, None), []
    by_offset = {b.start_offset: b.block_id for b in blocks}
    succ, static = edges.succ, edges.static

    # dispatcher spine: the chain of selector-miss continuations from block 0,
    # with each spine block's selector checks. A guard (a JUMPI without a
    # selector check whose miss reverts, such as solc's CALLVALUE check)
    # continues at its jump target instead.
    spine = {}  # spine block id -> its selector patterns, in spine order
    cursor = 0
    while cursor is not None and cursor not in spine:
        patterns = spine[cursor] = _find_selector_patterns(blocks[cursor])
        out = static[cursor]
        nxt = out.get("jumpi_false", out.get("fallthrough"))
        taken = out.get("jumpi_true")
        if (nxt is not None and taken is not None
                and blocks[nxt].terminator_kind == "revert" and not patterns):
            nxt = taken
        cursor = nxt

    selector_entries: dict = {}
    for patterns in spine.values():
        for selector, dest_offset in patterns:
            dst = by_offset.get(dest_offset)
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
    re-indexed with function-local dense block ids. ``succ`` lists each
    block's ascending successor ids."""
    reachable = []
    stack, seen = [entry], {entry}
    while stack:
        bid = stack.pop()
        reachable.append(bid)
        for dst in reversed(succ[bid]):
            if dst not in seen and dst not in excluded:
                seen.add(dst)
                stack.append(dst)
    # block ids ascend with start offsets, so local ids keep their order
    reachable.sort()
    remap = {bid: new for new, bid in enumerate(reachable)}
    local_blocks = tuple(BasicBlock(new, b.lo, b.hi, b.program)
                         for new, b in enumerate([blocks[bid]
                                                  for bid in reachable]))
    successors = tuple(tuple(remap[dst] for dst in succ[bid]
                             if dst in remap)
                       for bid in reachable)
    fid = (code_hash, selector if selector is not None else blocks[entry].start_offset)
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
    blocks: tuple
    edges: Edges
    selector_map: SelectorMap  # complete, gated or not
    functions: tuple           # gated: only the functions under the selectors
    # milliseconds of the stages: decode, blocks, edges, functions
    timings_ms: dict = field(default_factory=dict, compare=False, repr=False)


def analyze_contract(code: bytes, selectors=None) -> ContractAnalysis:
    """Full front-end: strip metadata, disassemble, partition, resolve
    edges, recover functions, and time each stage. Convenience composition
    used by the CLI and pipeline.

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
    return ContractAnalysis(program, tuple(blocks), edges, selmap,
                            tuple(functions), timings)
