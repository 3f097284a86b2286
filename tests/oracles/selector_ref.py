"""Dispatcher selector checks found by walking Instruction objects: the
matcher the front end used before it read opcode bytes, kept as written
except that it takes a block's instructions and tests JUMPI by its byte
(``Opcode.is_jumpi`` is gone). The byte-based matcher must agree with it.
"""


def find_selector_patterns(ins) -> list:
    """Match {PUSH1-4 sel; EQ; PUSH dest; JUMPI} within a dispatcher block,
    tolerating stack-shuffle opcodes between the stages. solc pushes a
    selector at its minimal width, so a shorter one is left-padded to 4
    bytes."""
    matches = []
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
        if k + 1 >= len(ins) or ins[k + 1].opcode.byte_value != 0x57:  # JUMPI
            continue
        matches.append((first.immediate.rjust(4, b"\0"), ins[k].push_value))
    return matches
