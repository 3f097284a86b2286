import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from deltascan.cfg import partition_blocks
from deltascan.encoder.vocab import TOKEN_BYTES
from deltascan.errors import DeltascanError
from deltascan.evm import (BYTE_MNEMONICS, MNEMONICS, OPCODES, Instruction,
                           assemble, disassemble, parse_hex_input,
                           reserialize, strip_metadata)
from fixtures import (MINT_SIGNATURE, build_contract, getter_body,
                      solc_metadata, vulnerable_mint_body)
from oracles.cbor_ref import CborError, decode_item

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_opcode_table_covers_all_bytes():
    assert len(OPCODES) == 256
    for value, op in enumerate(OPCODES):
        assert op.byte_value == value
        if 0x60 <= value <= 0x7F:
            assert op.immediate_len == value - 0x5F
        else:
            assert op.immediate_len == 0


def test_undefined_bytes_decode_as_invalid_preserving_value():
    # 0x0c is not an assigned opcode; it must round-trip anyway
    op = OPCODES[0x0C]
    assert not op.is_defined
    assert op.byte_value == 0x0C
    program = disassemble(bytes([0x0C]))
    assert reserialize(program) == bytes([0x0C])


def test_push0_is_shanghai():
    assert OPCODES[0x5F].mnemonic == "PUSH0"
    assert OPCODES[0x5F].immediate_len == 0


def test_disassemble_simple_add():
    program = disassemble(bytes.fromhex("6001600201"))
    got = [(i.offset, i.opcode.mnemonic, i.immediate)
           for i in program.instructions]
    assert got == [(0, "PUSH1", b"\x01"), (2, "PUSH1", b"\x02"),
                   (4, "ADD", b"")]


def test_disassemble_stop():
    program = disassemble(b"\x00")
    assert [i.opcode.mnemonic for i in program.instructions] == ["STOP"]


def test_truncated_push_is_last_and_flagged():
    program = disassemble(bytes.fromhex("60"))
    (ins,) = program.instructions
    assert ins.opcode.mnemonic == "PUSH1"
    assert ins.immediate == b""
    assert ins.truncated
    assert reserialize(program) == b"\x60"


def test_offset_arithmetic():
    program = disassemble(bytes.fromhex("7f" + "00" * 32 + "0160020a"))
    offsets = [i.offset for i in program.instructions]
    for a, b in zip(program.instructions, program.instructions[1:]):
        assert b.offset == a.offset + 1 + len(a.immediate)
    assert offsets[0] == 0


def test_round_trip_random_bytestrings():
    rng = random.Random(1234)
    for _ in range(2000):
        blob = rng.randbytes(rng.randint(0, 512))
        assert reserialize(disassemble(blob)) == blob


def _reference_disassemble(code_body: bytes) -> tuple:
    """The plain loop: each Instruction built through its constructor."""
    instructions = []
    pos = 0
    while pos < len(code_body):
        opcode = OPCODES[code_body[pos]]
        immediate = code_body[pos + 1:pos + 1 + opcode.immediate_len]
        instructions.append(Instruction(pos, opcode, immediate,
                                        len(immediate) < opcode.immediate_len))
        pos += 1 + len(immediate)
    return tuple(instructions)


def _assert_same_program(code_body: bytes):
    got, want = disassemble(code_body), _reference_disassemble(code_body)
    assert got.code_body == code_body
    assert len(got.instructions) == len(want)
    assert tuple(got.instructions) == want
    assert got.starts == [b.offset for b in want]
    assert got.ops == bytes(b.opcode.byte_value for b in want)
    assert [got.push_value(i) for i in range(len(want))] == \
        [b.push_value for b in want]
    for a, b in zip(got.instructions, want):
        assert type(a) is Instruction
        assert type(a.immediate) is type(b.immediate)
        assert hash(a) == hash(b)


def test_disassemble_equals_constructor_loop_on_random_bytes():
    rng = random.Random(99)
    for _ in range(500):
        _assert_same_program(rng.randbytes(rng.randint(0, 600)))
    _assert_same_program(b"")
    _assert_same_program(bytes(range(256)))


@pytest.mark.parametrize("code_body", [
    b"\x60", b"\x7f" + b"\x01" * 31, b"\x60\x01\x61\x02",
    b"\x00" * 5 + b"\x7f" + b"\xff" * 16,
])
def test_disassemble_equals_constructor_loop_on_truncated_push(code_body):
    _assert_same_program(code_body)
    assert disassemble(code_body).instructions[-1].truncated


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_disassemble_equals_constructor_loop_on_large_contracts(
        seed, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import corpora
    for contract in corpora.large_round(seed):
        _assert_same_program(strip_metadata(contract.code)[0])


def test_disassembled_instructions_stay_frozen():
    ins = disassemble(b"\x60\x01").instructions[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ins.offset = 5


def test_invalid_count_matches_undefined_bytes():
    # all-0xfe input: every byte is the designated INVALID opcode
    program = disassemble(b"\xfe" * 7)
    assert sum(i.opcode.mnemonic == "INVALID" for i in program.instructions) == 7


def test_strip_metadata_empty_and_plain():
    assert strip_metadata(b"") == (b"", b"")
    code = bytes.fromhex("6001600201")
    assert strip_metadata(code) == (code, b"")


def test_strip_metadata_positive_case_agrees_with_cbor_oracle():
    body = bytes.fromhex("6001600201")
    meta = solc_metadata()
    stripped, got_meta = strip_metadata(body + meta)
    assert stripped == body
    assert got_meta == meta
    # last two bytes are the big-endian length of the CBOR map
    assert int.from_bytes(got_meta[-2:], "big") == len(got_meta) - 2
    decoded, end = decode_item(got_meta[:-2], 0)
    assert end == len(got_meta) - 2
    assert "solc" in decoded or any(str(k).startswith(("ipfs", "bzzr"))
                                    for k in decoded)


def test_strip_metadata_rejects_non_cbor_suffix():
    # plausible length suffix but garbage payload must not be stripped
    code = b"\x60\x01" * 30 + b"\x00\x20"
    assert strip_metadata(code) == (code, b"")


def test_strip_metadata_requires_known_key():
    # valid CBOR map, but no solc/ipfs/bzzr key -> conservative no-strip
    blob = b"\xa1\x61k\x41\x00"
    code = b"\x00" + blob + len(blob).to_bytes(2, "big")
    assert strip_metadata(code) == (code, b"")


def test_code_hash_covers_analyzed_region_only():
    body = bytes.fromhex("6001600201")
    with_meta = body + solc_metadata()
    assert disassemble(strip_metadata(with_meta)[0]).code_hash == \
        disassemble(body).code_hash


def test_code_hash_is_sha256_of_code_body():
    code = build_contract([(MINT_SIGNATURE, vulnerable_mint_body()),
                           ("owner()", getter_body(1))], with_metadata=True)
    body, meta = strip_metadata(code)
    assert meta
    program = disassemble(body)
    assert program.code_hash == hashlib.sha256(body).digest()
    assert len(program.code_hash) == 32


def test_code_hash_of_a_24kb_body():
    body = random.Random(5).randbytes(24 * 1024)
    assert disassemble(body).code_hash == hashlib.sha256(body).digest()


@pytest.mark.parametrize("text,expected", [
    ("0x6001", b"\x60\x01"),
    ("6001", b"\x60\x01"),
    ("  0x00 \n", b"\x00"),
    ("0x123", b"\x01\x23"),  # odd length: a leading 0, as in a file
])
def test_parse_hex_input(text, expected):
    assert parse_hex_input(text) == expected


@pytest.mark.parametrize("text", ["zz", "60 0g", "0x0x60", "60 01", "0x", ""])
def test_parse_hex_input_rejects_non_hex(text):
    with pytest.raises(DeltascanError, match="not hex bytecode"):
        parse_hex_input(text)


def test_assemble_helper_round_trips():
    code = assemble("PUSH1 0x04\nJUMP\nSTOP\nJUMPDEST\nSTOP")
    assert code == bytes.fromhex("600456005b00")
    names = [i.opcode.mnemonic for i in disassemble(code).instructions]
    assert names == ["PUSH1", "JUMP", "STOP", "JUMPDEST", "STOP"]


def test_tokens_are_mnemonics():
    # the encoder's tokens: one mnemonic per instruction, immediates dropped
    (block,) = partition_blocks(disassemble(bytes.fromhex("6001600201")))
    assert [BYTE_MNEMONICS[t] for t in block.ops.translate(TOKEN_BYTES)] \
        == ["PUSH1", "PUSH1", "ADD"]
