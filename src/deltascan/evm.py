"""EVM runtime bytecode decoding.

Instruction set pinned to the Shanghai fork (PUSH0 included). Every byte
string disassembles: undefined bytes decode as per-byte INVALID opcodes and
a PUSH running past the end of code becomes a truncated final instruction,
so re-serialization is always byte-exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from .errors import DeltascanError
# keccak256 is not called here (code_hash is SHA-256), but stays importable
# from this module: bench/spans.py hooks ``evm.keccak256``
from .keccak import keccak256

__all__ = [
    "Opcode",
    "Instruction",
    "Program",
    "OPCODES",
    "strip_metadata",
    "disassemble",
    "reserialize",
    "assemble",
    "parse_hex_input",
]


@dataclass(frozen=True)
class Opcode:
    mnemonic: str
    byte_value: int
    immediate_len: int = 0
    is_defined: bool = True

    @property
    def is_push(self) -> bool:
        return self.immediate_len > 0 or self.byte_value == 0x5F

    @property
    def is_terminator(self) -> bool:
        return self.byte_value in (0x00, 0xF3, 0xFD, 0xFF, 0x56) or self.mnemonic == "INVALID"

    @property
    def is_jump(self) -> bool:
        return self.byte_value == 0x56

    @property
    def is_jumpi(self) -> bool:
        return self.byte_value == 0x57

    @property
    def is_external_call(self) -> bool:
        return self.byte_value in (0xF1, 0xF2, 0xF4, 0xFA)

    @property
    def is_sload(self) -> bool:
        return self.byte_value == 0x54

    @property
    def is_sstore(self) -> bool:
        return self.byte_value == 0x55


# (byte, mnemonic)
_DEFINED = [
    (0x00, "STOP"), (0x01, "ADD"), (0x02, "MUL"), (0x03, "SUB"), (0x04, "DIV"),
    (0x05, "SDIV"), (0x06, "MOD"), (0x07, "SMOD"), (0x08, "ADDMOD"),
    (0x09, "MULMOD"), (0x0A, "EXP"), (0x0B, "SIGNEXTEND"), (0x10, "LT"),
    (0x11, "GT"), (0x12, "SLT"), (0x13, "SGT"), (0x14, "EQ"), (0x15, "ISZERO"),
    (0x16, "AND"), (0x17, "OR"), (0x18, "XOR"), (0x19, "NOT"), (0x1A, "BYTE"),
    (0x1B, "SHL"), (0x1C, "SHR"), (0x1D, "SAR"), (0x20, "KECCAK256"),
    (0x30, "ADDRESS"), (0x31, "BALANCE"), (0x32, "ORIGIN"), (0x33, "CALLER"),
    (0x34, "CALLVALUE"), (0x35, "CALLDATALOAD"), (0x36, "CALLDATASIZE"),
    (0x37, "CALLDATACOPY"), (0x38, "CODESIZE"), (0x39, "CODECOPY"),
    (0x3A, "GASPRICE"), (0x3B, "EXTCODESIZE"), (0x3C, "EXTCODECOPY"),
    (0x3D, "RETURNDATASIZE"), (0x3E, "RETURNDATACOPY"), (0x3F, "EXTCODEHASH"),
    (0x40, "BLOCKHASH"), (0x41, "COINBASE"), (0x42, "TIMESTAMP"),
    (0x43, "NUMBER"), (0x44, "PREVRANDAO"), (0x45, "GASLIMIT"),
    (0x46, "CHAINID"), (0x47, "SELFBALANCE"), (0x48, "BASEFEE"), (0x50, "POP"),
    (0x51, "MLOAD"), (0x52, "MSTORE"), (0x53, "MSTORE8"), (0x54, "SLOAD"),
    (0x55, "SSTORE"), (0x56, "JUMP"), (0x57, "JUMPI"), (0x58, "PC"),
    (0x59, "MSIZE"), (0x5A, "GAS"), (0x5B, "JUMPDEST"), (0x5F, "PUSH0"),
    (0xF0, "CREATE"), (0xF1, "CALL"), (0xF2, "CALLCODE"), (0xF3, "RETURN"),
    (0xF4, "DELEGATECALL"), (0xF5, "CREATE2"), (0xFA, "STATICCALL"),
    (0xFD, "REVERT"), (0xFE, "INVALID"), (0xFF, "SELFDESTRUCT"),
]


def _build_table() -> tuple:
    table = [None] * 256
    for byte, name in _DEFINED:
        table[byte] = Opcode(name, byte)
    for n in range(1, 33):
        table[0x5F + n] = Opcode(f"PUSH{n}", 0x5F + n, n)
    for n in range(1, 17):
        table[0x7F + n] = Opcode(f"DUP{n}", 0x7F + n)
        table[0x8F + n] = Opcode(f"SWAP{n}", 0x8F + n)
    for n in range(5):
        table[0xA0 + n] = Opcode(f"LOG{n}", 0xA0 + n)
    for byte in range(256):
        if table[byte] is None:
            table[byte] = Opcode("INVALID", byte, is_defined=False)
    return tuple(table)


OPCODES: tuple = _build_table()
MNEMONICS: dict = {op.mnemonic: op for op in OPCODES if op.is_defined}


@dataclass(frozen=True)
class Instruction:
    # disassemble() writes these fields straight into __dict__: a field
    # added here must be set there too (test_evm compares it with __init__)
    offset: int
    opcode: Opcode
    immediate: bytes = b""
    truncated: bool = False

    @property
    def size(self) -> int:
        return 1 + len(self.immediate)

    @property
    def push_value(self) -> int | None:
        """Integer value of a PUSH immediate (PUSH0 -> 0), else None."""
        if self.opcode.byte_value == 0x5F:
            return 0
        if self.opcode.immediate_len > 0 and not self.truncated:
            return int.from_bytes(self.immediate, "big")
        return None

    def __str__(self) -> str:
        if self.immediate:
            return f"{self.offset:#06x} {self.opcode.mnemonic} 0x{self.immediate.hex()}"
        return f"{self.offset:#06x} {self.opcode.mnemonic}"


@dataclass(frozen=True)
class Program:
    instructions: tuple
    stripped_metadata: bytes = b""
    code_body: bytes = b""

    @cached_property
    def code_hash(self) -> bytes:
        """SHA-256 of the code body (metadata trailer stripped): an
        identity only, so hashlib's C digest serves; not EXTCODEHASH."""
        return hashlib.sha256(self.code_body).digest()


def _cbor_item_end(blob: bytes, pos: int, depth: int = 0):
    """Return the end offset of the CBOR item at ``pos``, or None on doubt.

    Definite-length items of major types 0-5 only, which covers compiler
    metadata maps; anything else fails the check and nothing is stripped.
    """
    if depth > 8 or pos >= len(blob):
        return None
    initial = blob[pos]
    major, info = initial >> 5, initial & 0x1F
    pos += 1
    if info < 24:
        length = info
    elif info == 24:
        if pos >= len(blob):
            return None
        length = blob[pos]
        pos += 1
    elif info == 25:
        if pos + 2 > len(blob):
            return None
        length = int.from_bytes(blob[pos:pos + 2], "big")
        pos += 2
    else:
        return None
    if major in (0, 1):
        return pos
    if major in (2, 3):
        end = pos + length
        return end if end <= len(blob) else None
    if major in (4, 5):
        count = length * (2 if major == 5 else 1)
        for _ in range(count):
            pos = _cbor_item_end(blob, pos, depth + 1)
            if pos is None:
                return None
        return pos
    return None


def _cbor_map_keys(blob: bytes):
    """Text keys of a CBOR map occupying exactly ``blob``, or None."""
    if not blob or (blob[0] >> 5) != 5 or (blob[0] & 0x1F) >= 24:
        return None
    count = blob[0] & 0x1F
    keys, pos = [], 1
    for _ in range(count):
        key_end = _cbor_item_end(blob, pos)
        if key_end is None or (blob[pos] >> 5) != 3:
            return None
        header = 1 if (blob[pos] & 0x1F) < 24 else 2
        keys.append(blob[pos + header:key_end])
        pos = _cbor_item_end(blob, key_end)
        if pos is None:
            return None
    return keys if pos == len(blob) else None


def strip_metadata(code: bytes) -> tuple:
    """Split off the trailing compiler CBOR metadata blob, if positively
    identified. Returns (code_body, metadata); conservative on any doubt."""
    if len(code) < 4:
        return code, b""
    meta_len = int.from_bytes(code[-2:], "big")
    if meta_len + 2 > len(code):
        return code, b""
    candidate = code[len(code) - meta_len - 2:len(code) - 2]
    keys = _cbor_map_keys(candidate)
    if keys is None:
        return code, b""
    for key in keys:
        try:
            text = key.decode("utf-8")
        except UnicodeDecodeError:
            return code, b""
        if text == "solc" or text.startswith("ipfs") or text.startswith("bzzr"):
            return code[:len(code) - meta_len - 2], code[len(code) - meta_len - 2:]
    return code, b""


def disassemble(code_body: bytes) -> Program:
    """Decode a metadata-free byte string into a Program. Never fails."""
    instructions = []
    # The loop runs once per instruction, thousands of times per contract.
    # Names are bound to locals, and each frozen Instruction's fields are
    # written straight into its __dict__: the generated __init__ does the
    # same with one object.__setattr__ call per field, about 3x slower.
    append, opcodes = instructions.append, OPCODES
    new, cls = object.__new__, Instruction
    pos = 0
    end = len(code_body)
    while pos < end:
        opcode = opcodes[code_body[pos]]
        nxt = pos + 1 + opcode.immediate_len
        ins = new(cls)
        fields = ins.__dict__
        fields["offset"] = pos
        fields["opcode"] = opcode
        fields["immediate"] = code_body[pos + 1:nxt]
        fields["truncated"] = nxt > end  # a PUSH running past the end
        append(ins)
        pos = nxt
    return Program(tuple(instructions), b"", code_body)


def reserialize(program: Program) -> bytes:
    """Byte-exact inverse of disassemble (truncated tails kept as-is)."""
    out = bytearray()
    for ins in program.instructions:
        out.append(ins.opcode.byte_value)
        out += ins.immediate
    return bytes(out)


def assemble(source) -> bytes:
    """Assemble mnemonic lines (or a list of tokens) into bytecode.

    Accepts forms like ``PUSH1 0x04`` / ``JUMPDEST``; immediates are hex.
    Test-fixture convenience, not a full assembler.
    """
    if isinstance(source, str):
        tokens = [ln.split() for ln in source.splitlines() if ln.strip()]
    else:
        tokens = [t if isinstance(t, (list, tuple)) else str(t).split() for t in source]
    out = bytearray()
    for parts in tokens:
        op = MNEMONICS[parts[0].upper()]
        out.append(op.byte_value)
        if op.immediate_len:
            raw = parts[1][2:] if parts[1].startswith("0x") else parts[1]
            imm = int(raw, 16).to_bytes(op.immediate_len, "big")
            out += imm
    return bytes(out)


def parse_hex_input(text: str) -> bytes:
    """Parse a hex string with optional 0x prefix into bytes; raises
    DeltascanError with the reason when it is not an even-length hex string."""
    text = text.strip()
    if text.startswith(("0x", "0X")):
        text = text[2:]
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise DeltascanError(f"input is not hex bytecode: {exc}") from None
