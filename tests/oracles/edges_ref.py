"""Eager basic blocks and control-flow edges of a decoded program.

Every block is split and every edge resolved up front, in one loop each,
the way the front end did before it resolved edges on demand. Reads a
program's arrays only (``starts``, ``ops``, ``code_body``): block ``i`` is
the instruction range ``blocks[i] = (lo, hi)``. A jump's target is the value
of the PUSH right before it, and it gets an edge only when that offset
starts a JUMPDEST block; a JUMP/JUMPI with no PUSH right before it gets an
edge to every JUMPDEST block.
"""

from .partition_ref import kind_of


def push_value(program, i):
    """The value pushed by instruction ``i``, or None when it is no PUSH or
    its immediate runs past the end of code."""
    n = program.ops[i] - 0x5F
    if n == 0:
        return 0
    pos = program.starts[i]
    if 0 < n <= 32 and pos + 1 + n <= len(program.code_body):
        return int.from_bytes(program.code_body[pos + 1:pos + 1 + n], "big")
    return None


def partition(program):
    """(lo, hi) of each block: split after each terminator and before each
    JUMPDEST."""
    ops = program.ops
    blocks, start = [], 0
    for idx, op in enumerate(ops):
        if op == 0x5B:
            if idx > start:
                blocks.append((start, idx))
                start = idx
        elif kind_of(op) != "fallthrough":
            blocks.append((start, idx + 1))
            start = idx + 1
    if start < len(ops):
        blocks.append((start, len(ops)))
    return blocks


class Edges:
    """Per block: ``succ[b]``, its ascending distinct successors, and
    ``static[b]``, its static edges as ``{kind: dst}``; ``dynamic[b]`` is
    the kind of a dynamic jump's edges."""

    def __init__(self, program, blocks):
        ops = program.ops
        by_offset = {program.starts[lo]: b for b, (lo, _) in enumerate(blocks)}
        self.jumpdests = tuple(b for b, (lo, _) in enumerate(blocks)
                               if ops[lo] == 0x5B)
        is_jumpdest = set(self.jumpdests)
        self.succ, self.static, self.dynamic = [], [], {}
        last = len(blocks) - 1
        for src, (lo, hi) in enumerate(blocks):
            op = ops[hi - 1]
            out = {}
            if op in (0x56, 0x57):
                taken = "jump_taken" if op == 0x56 else "jumpi_true"
                target = push_value(program, hi - 2) if hi - lo >= 2 else None
                if target is None:
                    self.dynamic[src] = taken
                elif by_offset.get(target) in is_jumpdest:
                    out[taken] = by_offset[target]
                if op == 0x57 and src < last:
                    out["jumpi_false"] = src + 1
            elif src < last and kind_of(op) == "fallthrough":
                out["fallthrough"] = src + 1
            self.static.append(out)
            dsts = set(out.values())
            if src in self.dynamic:
                dsts |= is_jumpdest
            self.succ.append(tuple(sorted(dsts)))
        self.dynamic_count = len(self.dynamic) * len(self.jumpdests)

    def __len__(self):
        return sum(map(len, self.static)) + self.dynamic_count

    def __iter__(self):
        """(src, dst, kind, dynamic) of every edge: per block, its static
        edges, then its dynamic ones."""
        for src, out in enumerate(self.static):
            for kind, dst in out.items():
                yield src, dst, kind, False
            if src in self.dynamic:
                for dst in self.jumpdests:
                    yield src, dst, self.dynamic[src], True
