"""The inputs of each workload, and what the generator planted in them.

``*_index`` functions return the defect corpus a detect workload indexes
(contracts plus a JSON report); ``*_round`` functions return the contracts
one round scans. Every function takes its seed as an argument; the defect
corpora and the probe contracts of ``detect-clones`` take none, because the
fault they hold must fail the same operations on every seed (see README).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gen import (Function, art_renderer, build_contract, cei_mint,
                 counter_loop, creation_code, diamonds, getter, guarded_setter,
                 internal_caller, internal_helper, loose_setter, require_chain,
                 revert_helper, vulnerable_mint, weak_auth)

BYPASS = "BypassAuthReentrancy"
WEAK = "WeakAuthValidation"
LOOSE = "LoosePermManagement"

MINT = "mint(address,uint256)"
TRANSFER_OWNERSHIP = "transferOwnership(address)"
SETTERS = [f"set{name}(uint256)" for name in (
    "BaseURI", "MintPrice", "MaxSupply", "Royalty", "Treasury", "Paused",
    "Reveal", "WalletLimit", "Signer", "MerkleRoot", "Fee", "Cap",
    "SaleStart", "SaleEnd", "Proxy", "Admin", "Minter", "Oracle", "Vault",
    "Delay")]
# selectors that no defect corpus uses
CLEAN = [
    "balanceOf(address)", "ownerOf(uint256)", "approve(address,uint256)",
    "getApproved(uint256)", "setApprovalForAll(address,bool)",
    "isApprovedForAll(address,address)",
    "transferFrom(address,address,uint256)",
    "safeTransferFrom(address,address,uint256)", "tokenURI(uint256)",
    "totalSupply()", "name()", "symbol()", "supportsInterface(bytes4)",
    "tokenByIndex(uint256)", "tokenOfOwnerByIndex(address,uint256)",
    "baseURI()", "maxSupply()", "price()", "paused()", "owner()",
    "royaltyInfo(uint256,uint256)", "contractURI()", "withdraw()",
    "burn(uint256)", "nonces(address)", "version()", "getConfig()",
    "setConfig(uint256)", "reveal()", "startSale()",
]


def _named(prefix: str, rng: random.Random, count: int) -> list:
    """``count`` distinct canonical signatures with seeded names."""
    names = rng.sample(range(100_000), count)
    return [f"{prefix}{n:05d}(uint256)" for n in names]


def _report(contract, fn):
    return {"contract": contract.name, "function": fn.signature,
            "defect": fn.defect}


# -- detect-clones ---------------------------------------------------------


def clones_index():
    """20 contracts x 3 unguarded setters with one body under 20 selectors
    (each selector in 3 contracts), plus 5 reentrant mints and 5 tx.origin
    checks. The 60 equal setters crowd the top-32 HNSW candidate cut of
    ``decide_similar``."""
    rng = random.Random(0)
    contracts, report = [], []
    for c in range(20):
        fns = [Function(SETTERS[(c + 7 * k) % 20], "loose_setter",
                        loose_setter(10 + k), LOOSE, "report")
               for k in range(3)]
        if c % 4 == 0:
            fns.append(Function(MINT, "vulnerable_mint", vulnerable_mint(3),
                                BYPASS, "detector"))
        elif c % 4 == 2:
            fns.append(Function(TRANSFER_OWNERSHIP, "weak_auth",
                                weak_auth(2, 1), WEAK, "report"))
        contract = build_contract(f"D{c:02d}", fns, rng, metadata=c % 3 == 0)
        contracts.append(contract)
        report += [_report(contract, fn) for fn in fns if fn.via == "report"]
    return contracts, report


# The kinds of a contract's clean functions follow from its size alone, so
# every seed gives a round the same mix of work; the seed draws selectors,
# constants, order and trailers.
CLEAN_KINDS = ("getter", "counter_loop", "require_chain")


def _clean_function(rng, signature, kind):
    if kind == "getter":
        return Function(signature, kind, getter(rng.randrange(64)))
    if kind == "counter_loop":
        return Function(signature, kind, counter_loop(rng.randrange(2, 9)))
    return Function(signature, kind, require_chain(1, rng.randrange(64)))


def probe_contracts():
    """Fixed bytes, one per stored setter selector: an unguarded-setter clone
    under that selector, its owner-guarded form under another stored setter
    selector, and a getter. Both setters sit among the 180 equal setter
    vectors, where the top-32 candidate cut loses same-selector matches."""
    rng = random.Random(1)
    return [build_contract(
        f"probe{i:02d}",
        [Function(sig, "loose_setter", loose_setter(40)),
         Function(SETTERS[(i + 10) % 20], "guarded_setter",
                  guarded_setter(41, 1)),
         Function("totalSupply()", "getter", getter(7))],
        rng, metadata=i % 3 == 0, group="probe")
        for i, sig in enumerate(SETTERS)]


def clones_round(seed: int) -> list:
    """50 contracts: the 20 fixed probes and 30 seeded ones, 10 in each
    group: clones of stored mints / tx.origin checks, patched forms under
    stored selectors (the CEI mint under mint, the msg.sender check under
    transferOwnership), and clean contracts. Every contract has 3-6
    functions; a third carry a metadata trailer."""
    rng = random.Random(seed)
    contracts = probe_contracts()
    seeded = []
    for group in ("clone", "patched", "clean"):
        sizes = [3, 3, 3, 3, 3, 4, 4, 4, 5, 6]
        rng.shuffle(sizes)
        for n, size in enumerate(sizes):
            planted = []
            if group == "clone":
                planted = [Function(MINT, "vulnerable_mint",
                                    vulnerable_mint(rng.randrange(64)))
                           if n % 2 == 0 else
                           Function(TRANSFER_OWNERSHIP, "weak_auth",
                                    weak_auth(rng.randrange(64),
                                              rng.randrange(64)))]
            elif group == "patched":
                planted = [Function(MINT, "cei_mint",
                                    cei_mint(rng.randrange(64)))
                           if n % 2 == 0 else
                           Function(TRANSFER_OWNERSHIP, "guarded_setter",
                                    guarded_setter(rng.randrange(64),
                                                   rng.randrange(64)))]
            names = rng.sample(CLEAN, size - len(planted))
            fns = planted + [_clean_function(rng, sig, CLEAN_KINDS[j % 3])
                             for j, sig in enumerate(names)]
            rng.shuffle(fns)
            seeded.append((group, n, fns))
    with_metadata = set(rng.sample(range(len(seeded)), len(seeded) // 3))
    for i, (group, n, fns) in enumerate(seeded):
        contracts.append(build_contract(f"{group}{n:02d}", fns, rng,
                                        metadata=i in with_metadata,
                                        group=group))
    rng.shuffle(contracts)
    return contracts


# -- detect-large ----------------------------------------------------------


def large_index():
    """A small defect corpus: the index does little on this workload."""
    rng = random.Random(2)
    specs = [
        ("E0", [Function(MINT, "vulnerable_mint", vulnerable_mint(3), BYPASS,
                         "detector"),
                Function(SETTERS[0], "loose_setter", loose_setter(10), LOOSE,
                         "report")]),
        ("E1", [Function(TRANSFER_OWNERSHIP, "weak_auth", weak_auth(2, 1),
                         WEAK, "report"),
                Function(SETTERS[1], "loose_setter", loose_setter(11), LOOSE,
                         "report")]),
        ("E2", [Function(SETTERS[0], "loose_setter", loose_setter(12), LOOSE,
                         "report"),
                Function("name()", "getter", getter(4))]),
    ]
    contracts = [build_contract(name, fns, rng) for name, fns in specs]
    report = [_report(c, fn) for c in contracts for fn in c.functions
              if fn.via == "report"]
    return contracts, report


_ARITH = ["ADD", "SUB", "MUL", "XOR", "OR", "AND"]


def _arith(rng, count):
    return [rng.choice(_ARITH) for _ in range(count)]


def _branchy(rng, name):
    """15 functions: diamonds, loops, require chains, getters, and the
    defect-corpus bodies (a clone of the stored mint and setter, their
    patched forms) under the stored selectors."""
    names = _named("op", rng, 11)
    fns = [Function(names.pop(), f"diamonds{count}",
                    diamonds(count, _arith(rng, 2 * count)))
           for count in (1, 1, 2, 2)]
    fns += [Function(names.pop(), "counter_loop",
                     counter_loop(rng.randrange(2, 200))) for _ in range(2)]
    fns += [Function(names.pop(), f"require{count}",
                     require_chain(count, rng.randrange(64)))
            for count in (1, 2)]
    fns += [Function(names.pop(), "getter", getter(rng.randrange(64)))
            for _ in range(3)]
    fns += [Function(MINT, "vulnerable_mint",
                     vulnerable_mint(rng.randrange(64))),
            Function(SETTERS[1], "loose_setter",
                     loose_setter(rng.randrange(64))),
            Function(SETTERS[0], "guarded_setter",
                     guarded_setter(rng.randrange(64), rng.randrange(64))),
            Function(TRANSFER_OWNERSHIP, "weak_auth",
                     weak_auth(rng.randrange(64), rng.randrange(64)))]
    rng.shuffle(fns)
    return build_contract(name, fns, rng, metadata=True, group="branchy")


REVERT_TAILS = 56


def large_round(seed: int) -> list:
    """Three contracts whose structure is fixed and whose selectors,
    constants, arithmetic opcodes, data and layout the seed draws:

    branchy     15 functions of diamonds, loops and require chains, with
                clones and patched forms of stored functions;
    art         24 KB: 16 functions, two of them on-chain-art renderers
                with straight-line blocks of 40 and 170 PUSH32 stores (the
                longer passes m_max), plus the creation code of a child
                collection;
    internal    15 functions; one makes an internal call whose return is a
                dynamic JUMP, so its CFG takes in every JUMPDEST of the
                contract, and its path enumeration stops at the 64-path cap
                among the contract's REVERT_TAILS shared revert tails.

    They are scanned in this order on every seed, so the process allocates
    in the same sequence and its peak RSS repeats. Their costs are far apart
    (about 1 : 1.2 : 1.8 in scan time), so the median contract of a run is
    always an ``art`` scan.
    """
    rng = random.Random(seed)
    contracts = [_branchy(rng, "branchy")]

    names = _named("art", rng, 15)
    fns = [Function(names.pop(), f"art{words}", art_renderer(rng, words))
           for words in (40, 170)]
    fns += [Function(names.pop(), "getter", getter(rng.randrange(64)))
            for _ in range(11)]
    fns += [Function(TRANSFER_OWNERSHIP, "weak_auth",
                     weak_auth(rng.randrange(64), rng.randrange(64))),
            Function(names.pop(), "counter_loop",
                     counter_loop(rng.randrange(2, 200))),
            Function(names.pop(), "guarded_setter",
                     guarded_setter(rng.randrange(64), rng.randrange(64)))]
    rng.shuffle(fns)
    body = build_contract("art", fns).code
    contracts.append(build_contract(
        "art", fns, rng, metadata=True,
        blob=creation_code(rng, 24_000 - len(body)), group="art"))

    # every JUMPDEST the dynamic JUMP reaches starts a short tail (a getter's
    # body after its CALLVALUE guard, or a revert tail), so the 64 capped
    # paths are 15-20 tokens long
    names = _named("call", rng, 15)
    fns = [Function(names.pop(), "getter", getter(rng.randrange(64)))
           for _ in range(14)]
    fns.insert(rng.randrange(len(fns) + 1),
               Function(names.pop(), "internal_caller",
                        internal_caller("helper", rng.randrange(64))))
    helpers = [("helper", internal_helper)] + [
        (f"revert{i}", revert_helper) for i in range(REVERT_TAILS)]
    contracts.append(build_contract(
        "internal", fns, rng, helpers=helpers,
        blob=creation_code(rng, 3_000), group="internal"))
    return contracts


# -- embed-defects ---------------------------------------------------------


CLEAN_CONTRACTS = 12


@dataclass
class EmbedCorpus:
    contracts: list
    report: list          # JSON records, including two that cannot map
    builtin: int          # functions the reentrancy detector must flag
    mapped: int           # report records that must map
    unmapped: list        # (contract, signature, reason prefix)


def embed_corpus(seed: int, call: int) -> EmbedCorpus:
    """One ``cmd_embed`` input: 4 labelled contracts, 12 clean ones, and a
    report. Labelled functions have 5-15 basic blocks; the token count of
    the corpus is fixed, because ``train_vocabulary`` turns to NaN on larger
    corpora (see CHANGES.md)."""
    rng = random.Random(seed * 1_000 + call)
    tag = f"c{call}"
    setters = rng.sample(SETTERS, 3)
    contracts, report = [], []
    labelled = [
        Function(MINT, "vulnerable_mint_h3",
                 vulnerable_mint(rng.randrange(64), hops=3), BYPASS,
                 "detector"),
        Function(TRANSFER_OWNERSHIP, "weak_auth_h2c1",
                 weak_auth(rng.randrange(64), rng.randrange(64), hops=2,
                           checks=1), WEAK, "report"),
        Function(setters[0], "loose_setter_h4c1",
                 loose_setter(rng.randrange(64), hops=4, checks=1), LOOSE,
                 "report"),
        Function(setters[1], "loose_setter_h6c2",
                 loose_setter(rng.randrange(64), hops=6, checks=2), LOOSE,
                 "report"),
    ]
    for i, fn in enumerate(labelled):
        extra = _clean_function(rng, rng.choice(CLEAN), "getter")
        contract = build_contract(f"{tag}L{i}", [fn, extra], rng,
                                  metadata=i % 3 == 0)
        contracts.append(contract)
        if fn.via == "report":
            report.append(_report(contract, fn))
    for i in range(CLEAN_CONTRACTS):
        fns = [_clean_function(rng, sig, kind) for sig, kind in
               zip(rng.sample(CLEAN, 2), ("counter_loop", "require_chain"))]
        contracts.append(build_contract(f"{tag}C{i}", fns, rng,
                                        metadata=i % 3 == 1))
    mapped = len(report)
    bad_signature = setters[2].replace("(", "( ")
    report += [
        {"contract": contracts[0].name, "function": bad_signature,
         "defect": LOOSE},
        {"contract": f"{tag}absent", "function": setters[2], "defect": LOOSE},
    ]
    unmapped = [(contracts[0].name, bad_signature, "malformed signature"),
                (f"{tag}absent", setters[2], "unknown contract")]
    rng.shuffle(report)
    return EmbedCorpus(contracts, report, 1, mapped, unmapped)
