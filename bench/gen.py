"""Seeded generator of ERC-721-style runtime bytecode and defect reports.

Everything the benchmark feeds to deltascan is made here, from a seed that
is an argument of each corpus function, so the inputs do not move when the
test fixtures change. The shapes follow what solc emits: a selector
dispatcher, a non-payable CALLVALUE guard, owner checks that branch to a
revert block, internal calls that return through a dynamic JUMP, and an
optional CBOR metadata trailer.

A body is a callable ``body(asm, tag)`` that appends one function at the
current position; ``tag`` keeps its labels unique within the contract. Two
functions with the same ``kind`` assemble to the same opcode sequence and
the same control flow; only PUSH immediates (storage slots, constants)
differ, and tokenisation drops those, so their block vectors are equal.

Selectors are computed with the compact Keccak below, not with the
program's, so a selector fault in deltascan shows up as unmapped records
or missing findings instead of cancelling out.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from deltascan.evm import MNEMONICS

# -- selectors -------------------------------------------------------------

_MASK = (1 << 64) - 1
_ROT = [[0, 36, 3, 41, 18], [1, 44, 10, 45, 2], [62, 6, 43, 15, 61],
        [28, 55, 25, 21, 56], [27, 20, 39, 8, 14]]


def _round_constants():
    out, r = [], 1
    for _ in range(24):
        rc = 0
        for j in range(7):
            if r & 1:
                rc |= 1 << ((1 << j) - 1)
            r = ((r << 1) ^ 0x71) & 0xFF if r & 0x80 else r << 1
        out.append(rc)
    return out


_RC = _round_constants()


def _rotl(lane: int, n: int) -> int:
    return ((lane << n) | (lane >> (64 - n))) & _MASK


def keccak256(data: bytes) -> bytes:
    """Keccak-256 over a 5x5 lane matrix indexed a[x][y]."""
    rate = 136
    msg = bytearray(data) + b"\x01"
    msg += b"\x00" * (-len(msg) % rate)
    msg[-1] |= 0x80
    a = [[0] * 5 for _ in range(5)]
    for start in range(0, len(msg), rate):
        for i in range(rate // 8):
            lane = msg[start + 8 * i:start + 8 * i + 8]
            a[i % 5][i // 5] ^= int.from_bytes(lane, "little")
        for rc in _RC:
            c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4]
                 for x in range(5)]
            for x in range(5):
                d = c[x - 1] ^ _rotl(c[(x + 1) % 5], 1)
                for y in range(5):
                    a[x][y] ^= d
            b = [[0] * 5 for _ in range(5)]
            for x in range(5):
                for y in range(5):
                    b[y][(2 * x + 3 * y) % 5] = _rotl(a[x][y], _ROT[x][y])
            for x in range(5):
                for y in range(5):
                    a[x][y] = b[x][y] ^ ((~b[(x + 1) % 5][y])
                                         & b[(x + 2) % 5][y])
            a[0][0] ^= rc
    return b"".join(a[i % 5][i // 5].to_bytes(8, "little") for i in range(4))


@functools.lru_cache(maxsize=None)
def selector(signature: str) -> bytes:
    return keccak256(signature.encode())[:4]


# -- assembler -------------------------------------------------------------

_ENDS_BLOCK = {"JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID",
               "SELFDESTRUCT"}


class Asm:
    """Two-pass assembler with symbolic jump targets (PUSH2-width labels)."""

    def __init__(self):
        self.items = []

    def op(self, *mnemonics):
        for mnemonic in mnemonics:
            self.items.append(("op", mnemonic, b""))
        return self

    def push(self, value, width=1):
        self.items.append(("op", f"PUSH{width}", value.to_bytes(width, "big")))
        return self

    def push_label(self, name):
        self.items.append(("push_label", name))
        return self

    def label(self, name):
        self.items.append(("label", name))
        return self

    def blocks_since(self, start: int) -> int:
        """Basic blocks among the instructions appended since item ``start``,
        by the leader rule: the first instruction, every JUMPDEST, and every
        instruction after a jump or a halting opcode."""
        count, leader = 0, True
        for item in self.items[start:]:
            if item[0] == "label":
                continue
            mnemonic = "PUSH2" if item[0] == "push_label" else item[1]
            if leader or mnemonic == "JUMPDEST":
                count += 1
            leader = mnemonic in _ENDS_BLOCK
        return count

    def size(self) -> int:
        return sum(0 if item[0] == "label" else
                   3 if item[0] == "push_label" else 1 + len(item[2])
                   for item in self.items)

    def assemble(self) -> bytes:
        offsets, pos = {}, 0
        for item in self.items:
            if item[0] == "label":
                if item[1] in offsets:
                    raise ValueError(f"duplicate label {item[1]}")
                offsets[item[1]] = pos
            elif item[0] == "push_label":
                pos += 3
            else:
                pos += 1 + len(item[2])
        out = bytearray()
        for item in self.items:
            if item[0] == "label":
                continue
            if item[0] == "push_label":
                out.append(0x61)  # PUSH2
                out += offsets[item[1]].to_bytes(2, "big")
            else:
                out.append(MNEMONICS[item[1]].byte_value)
                out += item[2]
        return bytes(out)


def solc_metadata(rng: random.Random) -> bytes:
    """A well-formed solc CBOR trailer {ipfs: <34 bytes>, solc: 0.8.22}."""
    blob = (b"\xa2\x64ipfs\x58\x22" + rng.randbytes(34)
            + b"\x64solc\x43\x00\x08\x16")
    return blob + len(blob).to_bytes(2, "big")


# -- functions and contracts ------------------------------------------------


@dataclass(frozen=True)
class Function:
    signature: str
    kind: str                  # equal kinds => token-identical bodies
    body: object = field(compare=False, repr=False)
    defect: str | None = None  # planted label (a DefectClass value)
    via: str | None = None     # "detector" or "report" for labelled ones

    @property
    def selector(self) -> bytes:
        return selector(self.signature)


@dataclass
class Contract:
    name: str
    code: bytes
    functions: list
    blocks: dict               # signature -> basic blocks of its body
    group: str = ""            # which part of the round it belongs to


def build_contract(name, functions, rng=None, metadata=False, helpers=(),
                   blob=b"", group="") -> Contract:
    """Dispatcher + bodies (+ internal helpers) (+ data blob) (+ trailer).

    helpers: (label, body) pairs placed after the functions and reached only
    through internal calls; blob: bytes appended after all code, as solc
    appends the creation code of a contract that this one deploys.
    """
    a = Asm()
    a.push(0x80).push(0x40).op("MSTORE")
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    for i, fn in enumerate(functions):
        a.op("DUP1").push(int.from_bytes(fn.selector, "big"), 4)
        a.op("EQ").push_label(f"f{i}").op("JUMPI")
    a.push(0).op("DUP1", "REVERT")
    blocks = {}
    for i, fn in enumerate(functions):
        start = len(a.items)
        a.label(f"f{i}")
        fn.body(a, f"f{i}")
        blocks[fn.signature] = a.blocks_since(start)
    for label, body in helpers:
        a.label(label)
        body(a, label)
    code = a.assemble() + blob
    if metadata:
        code += solc_metadata(rng)
    return Contract(name, code, list(functions), blocks, group)


# -- function bodies -------------------------------------------------------


def _nonpayable(a: Asm, tag: str):
    """solc's CALLVALUE guard: revert when ether is attached."""
    a.op("JUMPDEST", "CALLVALUE", "DUP1", "ISZERO").push_label(f"{tag}_np")
    a.op("JUMPI").push(0).op("DUP1", "REVERT")
    a.label(f"{tag}_np").op("JUMPDEST", "POP")


def _require(a: Asm, tag: str):
    """Continue at ``tag`` when the top of stack is non-zero, else revert."""
    a.push_label(tag).op("JUMPI").push(0).op("DUP1", "REVERT")
    a.label(tag).op("JUMPDEST")


def _send_to_caller(a: Asm):
    # CALL(gas, CALLER, 0, 0, 0, 0, 0): zero-value call to the caller
    for _ in range(5):
        a.push(0)
    a.op("CALLER", "GAS", "CALL", "POP")


def _hop(a: Asm, tag: str):
    """A static jump to the next block, as solc emits between code tags."""
    a.push_label(tag).op("JUMP").label(tag).op("JUMPDEST")


def vulnerable_mint(slot: int, hops: int = 0):
    """Reads ``slot``, calls out, then writes ``slot``: the CEI violation the
    builtin reentrancy detector flags (BypassAuthReentrancy). Payable."""
    def body(a: Asm, tag: str):
        a.op("JUMPDEST").push(4).op("CALLDATALOAD", "DUP1", "ISZERO", "ISZERO")
        _require(a, f"{tag}_to")
        for h in range(hops):
            _hop(a, f"{tag}_h{h}")
        a.push(slot).op("SLOAD", "POP")
        _send_to_caller(a)
        a.push(1).push(slot).op("SSTORE", "STOP")
    return body


def cei_mint(slot: int):
    """The patched mint: the same instructions with the write moved ahead of
    the external call."""
    def body(a: Asm, tag: str):
        a.op("JUMPDEST").push(4).op("CALLDATALOAD", "DUP1", "ISZERO", "ISZERO")
        _require(a, f"{tag}_to")
        a.push(slot).op("SLOAD", "POP")
        a.push(1).push(slot).op("SSTORE")
        _send_to_caller(a)
        a.op("STOP")
    return body


def loose_setter(slot: int, hops: int = 0, checks: int = 0):
    """Unguarded setter (LoosePermManagement): anyone may write ``slot``."""
    def body(a: Asm, tag: str):
        _nonpayable(a, tag)
        for c in range(checks):
            a.push(4 + 32 * c).op("CALLDATALOAD", "DUP1", "ISZERO", "ISZERO")
            _require(a, f"{tag}_c{c}")
        for h in range(hops):
            _hop(a, f"{tag}_h{h}")
        a.push(4).op("CALLDATALOAD").push(slot).op("SSTORE", "STOP")
    return body


def guarded_setter(slot: int, owner_slot: int):
    """The patched setter: msg.sender must equal the stored owner."""
    def body(a: Asm, tag: str):
        _nonpayable(a, tag)
        a.push(owner_slot).op("SLOAD", "CALLER", "EQ")
        _require(a, f"{tag}_own")
        a.push(4).op("CALLDATALOAD").push(slot).op("SSTORE", "STOP")
    return body


def weak_auth(slot: int, owner_slot: int, hops: int = 0, checks: int = 0):
    """Owner check against tx.origin (WeakAuthValidation)."""
    def body(a: Asm, tag: str):
        _nonpayable(a, tag)
        a.push(owner_slot).op("SLOAD", "ORIGIN", "EQ")
        _require(a, f"{tag}_orig")
        for c in range(checks):
            a.push(4 + 32 * c).op("CALLDATALOAD", "DUP1", "ISZERO", "ISZERO")
            _require(a, f"{tag}_c{c}")
        for h in range(hops):
            _hop(a, f"{tag}_h{h}")
        a.push(4).op("CALLDATALOAD").push(slot).op("SSTORE", "STOP")
    return body


def getter(slot: int):
    def body(a: Asm, tag: str):
        _nonpayable(a, tag)
        a.push(slot).op("SLOAD").push(0x80).op("MSTORE")
        a.push(0x20).push(0x80).op("RETURN")
    return body


def counter_loop(limit: int):
    """for (i = 0; i != limit; i++) {} -- a back edge the path DFS cuts."""
    def body(a: Asm, tag: str):
        a.op("JUMPDEST").push(0)
        a.label(f"{tag}_loop").op("JUMPDEST", "DUP1").push(limit).op("EQ")
        a.push_label(f"{tag}_done").op("JUMPI")
        a.push(1).op("ADD").push_label(f"{tag}_loop").op("JUMP")
        a.label(f"{tag}_done").op("JUMPDEST", "POP", "STOP")
    return body


def diamonds(count: int, arith: list):
    """``count`` if/else diamonds in sequence: 2**count paths. ``arith``
    gives the opcode each arm applies (the opcode, not the count, is what a
    seed varies)."""
    def body(a: Asm, tag: str):
        _nonpayable(a, tag)
        a.push(4).op("CALLDATALOAD")
        for d in range(count):
            a.op("DUP1").push(1 << (d % 8)).op("AND")
            a.push_label(f"{tag}_t{d}").op("JUMPI")
            a.push(d + 1).op(arith[2 * d % len(arith)])
            a.push_label(f"{tag}_m{d}").op("JUMP")
            a.label(f"{tag}_t{d}").op("JUMPDEST").push(d + 2)
            a.op(arith[(2 * d + 1) % len(arith)])
            a.label(f"{tag}_m{d}").op("JUMPDEST")
        a.push(0).op("SSTORE", "STOP")
    return body


def require_chain(count: int, slot: int):
    """``count`` argument checks, each with its own revert exit."""
    def body(a: Asm, tag: str):
        _nonpayable(a, tag)
        for c in range(count):
            a.push(4 + 32 * c).op("CALLDATALOAD", "DUP1", "ISZERO", "ISZERO")
            _require(a, f"{tag}_r{c}")
            a.op("POP")
        a.push(4).op("CALLDATALOAD").push(slot).op("SSTORE", "STOP")
    return body


def art_renderer(rng: random.Random, words: int):
    """tokenURI of an on-chain-art collection: one long straight-line block
    writing ``words`` PUSH32 constants of SVG data into memory. It has no
    CALLVALUE guard, so the block is the function's single path."""
    data = [rng.randbytes(32) for _ in range(words)]

    def body(a: Asm, tag: str):
        a.op("JUMPDEST")
        for w, chunk in enumerate(data):
            a.push(int.from_bytes(chunk, "big"), 32)
            a.push(0x80 + 32 * w, 2).op("MSTORE")
        a.push(32 * words, 2).push(0x80).op("RETURN")
    return body


def internal_caller(helper: str, slot: int):
    """A payable function that calls ``helper`` and continues at the return
    label, the way solc compiles an internal function call."""
    def body(a: Asm, tag: str):
        a.op("JUMPDEST")
        a.push_label(f"{tag}_ret").push(4).op("CALLDATALOAD")
        a.push_label(helper).op("JUMP")
        a.label(f"{tag}_ret").op("JUMPDEST").push(slot).op("SSTORE", "STOP")
    return body


def internal_helper(a: Asm, tag: str):
    """Internal function body: returns through ``SWAP1 JUMP``, a jump whose
    target is not a PUSH constant (a dynamic JUMP)."""
    a.op("JUMPDEST").push(1).op("ADD", "SWAP1", "JUMP")


def revert_helper(a: Asm, tag: str):
    """A shared revert tail of the kind solc emits once per error and
    reaches by an internal jump: a JUMPDEST block that halts."""
    a.op("JUMPDEST").push(0).op("DUP1", "REVERT")


def creation_code(rng: random.Random, size: int) -> bytes:
    """Creation code of a child collection that this contract deploys: a
    constructor prologue plus a runtime body of about ``size`` bytes. Reached
    only through CODECOPY, never by a jump."""
    a = Asm()
    a.push(0x80).push(0x40).op("MSTORE", "CALLVALUE", "DUP1", "ISZERO")
    a.push_label("ctor").op("JUMPI").push(0).op("DUP1", "REVERT")
    a.label("ctor").op("JUMPDEST", "POP")
    a.push(0).op("CALLER").push(0).op("SSTORE")
    a.push_label("end").op("DUP1").push_label("rt").push(0).op("CODECOPY")
    a.push(0).op("RETURN", "INVALID")
    a.label("rt")
    prologue = a.size()
    for w in range(max(1, (size - prologue - 2) // 37)):
        a.push(int.from_bytes(rng.randbytes(32), "big"), 32)
        a.push(0x80 + 32 * (w % 64), 2).op("MSTORE")
    a.label("end").op("JUMPDEST", "STOP")
    return a.assemble()
