"""Basic-block partitioning, control-flow edges, dispatcher-based function
recovery, and loop-avoiding path enumeration over disassembled bytecode.

Each stage walks its input once. Blocks are split in one pass over the
instructions; the contract's edges are read once into a successor map,
which both the dispatcher walk and the carving of each function use. A
function carries its successors as one sorted tuple of distinct local
block ids per block, and everything downstream (paths, the instruction
graph, the encoder memo key) reads those lists.

Dynamic jumps (no PUSH-constant target) are over-approximated with edges to
every JUMPDEST block; paths are enumerated depth-first with successors in
ascending block-id order so results are deterministic.

Function recovery can be gated on a set of selectors: the selector map,
the blocks and the contract's edges are still recovered whole, but only
the functions under those selectors are carved. ``detect`` gates on the
selectors its index holds, since no other function can match.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evm import OPCODES, Program

__all__ = [
    "BasicBlock",
    "Edge",
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
    block_id: int
    start_offset: int
    instructions: tuple
    terminator_kind: str

    @property
    def instr_count(self) -> int:
        return len(self.instructions)


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
    start_positions: tuple  # cumulative instruction offsets
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


def partition_blocks(program: Program) -> list:
    """Split instructions into basic blocks in one pass. A block ends after
    a (conditional) terminator and before a JUMPDEST."""
    instructions = program.instructions
    blocks = []
    start = 0
    for idx, ins in enumerate(instructions):
        byte = ins.opcode.byte_value
        if byte == 0x5B and idx > start:  # JUMPDEST
            blocks.append(BasicBlock(len(blocks), instructions[start].offset,
                                     instructions[start:idx], "fallthrough"))
            start = idx
        kind = _TERMINATOR_KINDS[byte]
        if kind != "fallthrough":
            blocks.append(BasicBlock(len(blocks), instructions[start].offset,
                                     instructions[start:idx + 1], kind))
            start = idx + 1
    if start < len(instructions):
        blocks.append(BasicBlock(len(blocks), instructions[start].offset,
                                 instructions[start:], "fallthrough"))
    return blocks


def resolve_edges(blocks: list) -> set:
    """Recover control-flow edges with the push-constant jump heuristic."""
    by_offset = {b.start_offset: b.block_id for b in blocks}
    jumpdest_blocks = {b.block_id for b in blocks
                       if b.instructions[0].opcode.byte_value == 0x5B}
    edges = set()
    for block in blocks:
        kind = block.terminator_kind
        next_id = block.block_id + 1 if block.block_id + 1 < len(blocks) else None
        if kind == "fallthrough" and next_id is not None:
            edges.add(Edge(block.block_id, next_id, "fallthrough"))
            continue
        if kind in ("jump", "jumpi"):
            taken_kind = "jump_taken" if kind == "jump" else "jumpi_true"
            target = None
            if block.instr_count >= 2:
                target = block.instructions[-2].push_value
            if target is not None:
                dst = by_offset.get(target)
                if dst is not None and dst in jumpdest_blocks:
                    edges.add(Edge(block.block_id, dst, taken_kind))
                # resolved-but-invalid target: statically a revert, no edge
            else:
                for dst in jumpdest_blocks:
                    edges.add(Edge(block.block_id, dst, taken_kind, dynamic=True))
            if kind == "jumpi" and next_id is not None:
                edges.add(Edge(block.block_id, next_id, "jumpi_false"))
    return edges


def _find_selector_patterns(block: BasicBlock) -> list:
    """Match {PUSH1-4 sel; EQ; PUSH dest; JUMPI} within a dispatcher block,
    tolerating stack-shuffle opcodes between the stages. solc pushes a
    selector at its minimal width, so a shorter one is left-padded to 4
    bytes."""
    matches = []
    ins = block.instructions
    for i, first in enumerate(ins):
        if not 0x60 <= first.opcode.byte_value <= 0x63 or first.truncated:
            continue
        j = i + 1
        while j < len(ins) and ins[j].opcode.mnemonic.startswith(("DUP", "SWAP")):
            j += 1
        if j >= len(ins) or ins[j].opcode.byte_value != 0x14:  # EQ
            continue
        k = j + 1
        if k >= len(ins) or ins[k].push_value is None:
            continue
        if k + 1 >= len(ins) or not ins[k + 1].opcode.is_jumpi:
            continue
        matches.append((first.immediate.rjust(4, b"\0"), ins[k].push_value))
    return matches


def recover_functions(blocks: list, edges: set, code_hash: bytes = b"",
                      selectors=None) -> tuple:
    """Scan the dispatcher spine for selector checks and carve per-function
    CFG subgraphs. Returns (SelectorMap, [FunctionCfg]); a contract with no
    dispatcher pattern yields one anonymous function over the whole graph.

    Given a container of 4-byte ``selectors``, only the functions under a
    selector in it are carved, and neither the fallback nor the anonymous
    function is; the selector map is complete either way. ``None`` carves
    every function."""
    if not blocks:
        return SelectorMap({}, None), []
    by_offset = {b.start_offset: b.block_id for b in blocks}
    succ, static = {}, {}  # block id -> its successors; -> {kind: static dst}
    for e in edges:
        succ.setdefault(e.src, set()).add(e.dst)
        if not e.dynamic:
            static.setdefault(e.src, {})[e.kind] = e.dst
    succ = {src: sorted(dsts) for src, dsts in succ.items()}

    # dispatcher spine: the chain of selector-miss continuations from block 0,
    # with each spine block's selector checks. A guard (a JUMPI without a
    # selector check whose miss reverts, such as solc's CALLVALUE check)
    # continues at its jump target instead.
    spine = {}  # spine block id -> its selector patterns, in spine order
    cursor = 0
    while cursor is not None and cursor not in spine:
        patterns = spine[cursor] = _find_selector_patterns(blocks[cursor])
        out = static.get(cursor, {})
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
    re-indexed with function-local dense block ids. ``succ`` maps a block
    id to its ascending successor ids."""
    reachable = []
    stack, seen = [entry], {entry}
    while stack:
        bid = stack.pop()
        reachable.append(bid)
        for dst in reversed(succ.get(bid, ())):
            if dst not in seen and dst not in excluded:
                seen.add(dst)
                stack.append(dst)
    # block ids ascend with start offsets, so local ids keep their order
    reachable.sort()
    remap = {bid: new for new, bid in enumerate(reachable)}
    local_blocks = tuple(
        BasicBlock(remap[bid], blocks[bid].start_offset,
                   blocks[bid].instructions, blocks[bid].terminator_kind)
        for bid in reachable)
    successors = tuple(tuple(remap[dst] for dst in succ.get(bid, ())
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

    def positions(path):
        pos, total = [], 0
        for bid in path:
            pos.append(total)
            total += cfg.blocks[bid].instr_count
        return tuple(pos)

    def emit(path, reason):
        nonlocal hit_cap
        if len(paths) == max_paths:
            hit_cap = True
        else:
            paths.append(ExecutionPath(tuple(path), positions(path), reason))

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
    edges: frozenset
    selector_map: SelectorMap  # complete, gated or not
    functions: tuple           # gated: only the functions under the selectors


def analyze_contract(code: bytes, selectors=None) -> ContractAnalysis:
    """Full front-end: strip metadata, disassemble, partition, recover
    functions. Convenience composition used by the CLI and pipeline.

    Given ``selectors``, ``functions`` holds only the functions under a
    selector in it (see ``recover_functions``), each equal to the one an
    ungated analysis carves; the program, blocks, edges and selector map
    are complete either way."""
    from .evm import disassemble, strip_metadata

    program = disassemble(strip_metadata(code)[0])
    blocks = partition_blocks(program)
    edges = resolve_edges(blocks)
    selmap, functions = recover_functions(blocks, edges, program.code_hash,
                                          selectors)
    return ContractAnalysis(program, tuple(blocks), frozenset(edges),
                            selmap, tuple(functions))
