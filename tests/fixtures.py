"""Shared bytecode fixtures: a tiny label-aware assembler and a builder for
synthetic ERC-721-style contracts with a solc-shaped dispatcher.

Bodies are composable callables so tests can mix vulnerable and clean
functions freely and generate whole fixture corpora deterministically.
"""

from __future__ import annotations

import random

from deltascan.detectors import signature_selector
from deltascan.evm import MNEMONICS


class Asm:
    """Two-pass assembler with symbolic jump targets (PUSH2-width labels)."""

    def __init__(self):
        self._items = []

    def op(self, mnemonic, imm=b""):
        self._items.append(("op", mnemonic, bytes(imm)))
        return self

    def push(self, value, width=1):
        return self.op(f"PUSH{width}", value.to_bytes(width, "big"))

    def push_label(self, name):
        self._items.append(("push_label", name))
        return self

    def label(self, name):
        self._items.append(("label", name))
        return self

    def assemble(self) -> bytes:
        offsets, pos = {}, 0
        for item in self._items:
            if item[0] == "label":
                if item[1] in offsets:
                    raise ValueError(f"duplicate label {item[1]}")
                offsets[item[1]] = pos
            elif item[0] == "push_label":
                pos += 3
            else:
                pos += 1 + len(item[2])
        out = bytearray()
        for item in self._items:
            if item[0] == "label":
                continue
            if item[0] == "push_label":
                out.append(0x61)  # PUSH2
                out += offsets[item[1]].to_bytes(2, "big")
            else:
                out.append(MNEMONICS[item[1]].byte_value)
                out += item[2]
        return bytes(out)


def token_bytes(mnemonics) -> bytes:
    """The token bytes that ``mnemonics`` spell: the form the vocabulary
    and the sequence encoder read."""
    return bytes(MNEMONICS[m].byte_value for m in mnemonics)


def solc_metadata(ipfs_digest: bytes = b"\xaa" * 34) -> bytes:
    """A well-formed solc-style CBOR trailer {ipfs: ..., solc: 0.8.22}."""
    assert len(ipfs_digest) == 34
    blob = (b"\xa2"
            b"\x64ipfs" + b"\x58\x22" + ipfs_digest +
            b"\x64solc" + b"\x43\x00\x08\x16")
    return blob + len(blob).to_bytes(2, "big")


def _call_sequence(a: Asm):
    # CALL(gas, CALLER, 0, 0, 0, 0, 0): zero-value ether send to the caller
    for _ in range(5):
        a.push(0)
    a.op("CALLER").op("GAS").op("CALL").op("POP")


def vulnerable_mint_body(slot: int = 5):
    """SLOAD slot, external call, SSTORE same slot after: the CEI violation
    the builtin reentrancy detector targets."""
    def body(a: Asm, tag: str):
        a.op("JUMPDEST")
        a.push(slot).op("SLOAD").op("POP")
        _call_sequence(a)
        a.push(1).push(slot).op("SSTORE")
        a.op("STOP")
    return body


def cei_mint_body(slot: int = 5):
    """Same shape, but state is written before the external call."""
    def body(a: Asm, tag: str):
        a.op("JUMPDEST")
        a.push(slot).op("SLOAD").op("POP")
        a.push(1).push(slot).op("SSTORE")
        _call_sequence(a)
        a.op("STOP")
    return body


def getter_body(slot: int = 0):
    def body(a: Asm, tag: str):
        a.op("JUMPDEST")
        a.push(slot).op("SLOAD")
        a.push(0).op("MSTORE")
        a.push(0x20).push(0).op("RETURN")
    return body


def setter_body(slot: int = 0):
    """Guarded setter: branch gives the function two execution paths."""
    def body(a: Asm, tag: str):
        a.op("JUMPDEST")
        a.push(4).op("CALLDATALOAD")
        a.push_label(f"{tag}_store").op("JUMPI")
        a.push(0).op("DUP1").op("REVERT")
        a.label(f"{tag}_store").op("JUMPDEST")
        a.push(4).op("CALLDATALOAD").push(slot).op("SSTORE")
        a.op("STOP")
    return body


def loop_body(limit: int = 3):
    def body(a: Asm, tag: str):
        a.op("JUMPDEST")
        a.push(0)
        a.label(f"{tag}_loop").op("JUMPDEST")
        a.op("DUP1").push(limit).op("EQ")
        a.push_label(f"{tag}_done").op("JUMPI")
        a.push(1).op("ADD")
        a.push_label(f"{tag}_loop").op("JUMP")
        a.label(f"{tag}_done").op("JUMPDEST")
        a.op("POP").op("STOP")
    return body


def build_contract(functions, with_metadata: bool = False,
                   callvalue_guard: bool = False) -> bytes:
    """Assemble a dispatcher + bodies contract.

    functions: list of (selector bytes or canonical signature str, body).
    With ``callvalue_guard`` the dispatcher is preceded by solc's prologue
    for a contract without payable functions: the free-memory pointer
    store, then a revert unless CALLVALUE is zero.
    """
    a = Asm()
    if callvalue_guard:
        a.push(0x80).push(0x40).op("MSTORE")
        a.op("CALLVALUE").op("DUP1").op("ISZERO")
        a.push_label("no_value").op("JUMPI")
        a.push(0).op("DUP1").op("REVERT")
        a.label("no_value").op("JUMPDEST").op("POP")
    a.push(0).op("CALLDATALOAD").push(0xE0).op("SHR")
    resolved = [(signature_selector(sel) if isinstance(sel, str) else sel,
                 body) for sel, body in functions]
    for i, (selector, _) in enumerate(resolved):
        a.op("DUP1").op("PUSH4", selector).op("EQ")
        a.push_label(f"fn{i}").op("JUMPI")
    a.push(0).op("DUP1").op("REVERT")
    for i, (_, body) in enumerate(resolved):
        a.label(f"fn{i}")
        body(a, f"fn{i}")
    code = a.assemble()
    if with_metadata:
        code += solc_metadata()
    return code


# signature pools for corpus generation; all canonical ABI form
ERC721_SIGNATURES = [
    "balanceOf(address)",
    "ownerOf(uint256)",
    "approve(address,uint256)",
    "getApproved(uint256)",
    "setApprovalForAll(address,bool)",
    "isApprovedForAll(address,address)",
    "transferFrom(address,address,uint256)",
    "safeTransferFrom(address,address,uint256)",
    "tokenURI(uint256)",
    "totalSupply()",
]
MINT_SIGNATURE = "mint(address,uint256)"
CLEAN_SIGNATURES = [
    "getConfig()",
    "setConfig(uint256)",
    "pause()",
    "unpause()",
    "version()",
    "owner()",
    "renounce()",
    "nonce(address)",
    "deposit()",
    "withdrawTo(address)",
]


def make_corpus(count: int = 20, vulnerable: bool = True, seed: int = 7,
                signatures=None) -> list:
    """Deterministic list of (name, signature_list, bytecode) fixtures.

    With ``vulnerable`` each contract carries one reentrant mint; otherwise
    all bodies are clean and drawn from a disjoint signature pool.
    """
    rng = random.Random(seed)
    pool = list(signatures if signatures is not None
                else (ERC721_SIGNATURES if vulnerable else CLEAN_SIGNATURES))
    contracts = []
    for n in range(count):
        chosen = rng.sample(pool, k=rng.randint(2, min(4, len(pool))))
        slot_base = rng.randint(0, 20)
        functions = []
        for j, sig in enumerate(chosen):
            slot = slot_base + j
            kind = rng.choice(["getter", "setter", "loop", "cei"])
            if kind == "loop":
                body = loop_body(2 + rng.randint(0, 3))
            else:
                maker = {"getter": getter_body, "setter": setter_body,
                         "cei": cei_mint_body}[kind]
                body = maker(slot)
            functions.append((sig, body))
        sigs = list(chosen)
        if vulnerable:
            functions.append((MINT_SIGNATURE, vulnerable_mint_body(slot_base)))
            sigs.append(MINT_SIGNATURE)
        code = build_contract(functions, with_metadata=(n % 3 == 0))
        contracts.append((f"fixture{'V' if vulnerable else 'C'}{n:02d}",
                          sigs, code))
    return contracts
