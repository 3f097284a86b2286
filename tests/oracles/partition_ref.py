"""Leader-set basic-block partition of EVM bytecode (Shanghai fork).

Written from the definition, in two passes: first collect the leaders
(offset 0, every JUMPDEST, and every instruction that follows a block
terminator), then cut the instruction list at them. A terminator is STOP,
JUMP, JUMPI, RETURN, REVERT, SELFDESTRUCT, the designated INVALID or any
undefined byte. A PUSH running past the end of code is one instruction.
"""

# opcode bytes the Shanghai fork defines (0xFE is the designated INVALID)
DEFINED = frozenset(
    list(range(0x00, 0x0C)) + list(range(0x10, 0x1E)) + [0x20]
    + list(range(0x30, 0x49)) + list(range(0x50, 0x5C))
    + list(range(0x5F, 0xA5)) + list(range(0xF0, 0xF6))
    + [0xFA, 0xFD, 0xFE, 0xFF])
ENDS = {0x00: "stop", 0x56: "jump", 0x57: "jumpi", 0xF3: "return",
        0xFD: "revert", 0xFE: "invalid", 0xFF: "selfdestruct"}


def kind_of(op: int) -> str:
    if op in ENDS:
        return ENDS[op]
    return "fallthrough" if op in DEFINED else "invalid"


def instructions(code: bytes) -> list:
    """(offset, opcode byte) of each instruction."""
    out, pos = [], 0
    while pos < len(code):
        op = code[pos]
        out.append((pos, op))
        pos += 1 + (op - 0x5F if 0x60 <= op <= 0x7F else 0)
    return out


def partition(code: bytes) -> list:
    """(start offset, instruction count, terminator kind) of each block."""
    ins = instructions(code)
    if not ins:
        return []
    leaders = {0}
    for idx, (_, op) in enumerate(ins[:-1]):
        if kind_of(op) != "fallthrough":
            leaders.add(idx + 1)
    for idx, (_, op) in enumerate(ins):
        if op == 0x5B:  # JUMPDEST
            leaders.add(idx)
    bounds = sorted(leaders) + [len(ins)]
    return [(ins[lo][0], hi - lo, kind_of(ins[hi - 1][1]))
            for lo, hi in zip(bounds, bounds[1:])]
