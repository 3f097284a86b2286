import json
import random
import string

import pytest

from deltascan.cfg import analyze_contract, enumerate_paths
from deltascan.detectors import (DefectClass, DefectRecord,
                                 detect_bypass_reentrancy, map_report,
                                 parse_report_file, signature_selector,
                                 validate_signature)
from deltascan.errors import MalformedSignature, SchemaError
from fixtures import (build_contract, cei_mint_body, getter_body,
                      vulnerable_mint_body)
from oracles.keccak_ref import keccak256 as keccak_ref


def test_erc721_selectors_match_oracle():
    cases = {
        "transferFrom(address,address,uint256)": "23b872dd",
        "approve(address,uint256)": "095ea7b3",
        "setApprovalForAll(address,bool)": "a22cb465",
    }
    for sig, expected in cases.items():
        assert signature_selector(sig).hex() == expected
        assert keccak_ref(sig.encode())[:4].hex() == expected


_TYPES = ["address", "bool", "uint256", "uint8", "bytes32", "bytes",
          "string", "int128", "address[]", "uint256[3]", "(uint256,address)"]


def test_selector_law_random_signatures():
    rng = random.Random(99)
    for _ in range(300):
        name = "".join(rng.choices(string.ascii_letters, k=rng.randint(1, 12)))
        params = ",".join(rng.choices(_TYPES, k=rng.randint(0, 4)))
        sig = f"{name}({params})"
        assert signature_selector(sig) == keccak_ref(sig.encode())[:4]


@pytest.mark.parametrize("bad", [
    "transferFrom(address, address, uint256)",  # whitespace
    "mint(uint,uint,address)",                  # non-canonical uint
    "mint",                                     # no parameter list
    "(address)",                                # no name
    "mint(address",                             # unbalanced
    "mint(address,)",                           # empty param
    "mint(ufloat256)",                          # unknown type
])
def test_malformed_signatures_rejected(bad):
    with pytest.raises(MalformedSignature):
        signature_selector(bad)


@pytest.mark.parametrize("good", [
    "totalSupply()",
    "f(uint256[][3])",
    "g((uint256,(address,bool))[],bytes4)",
    "_x$1(function)",
])
def test_canonical_signatures_accepted(good):
    validate_signature(good)
    assert len(signature_selector(good)) == 4


def _functions(code):
    return analyze_contract(code).functions


def _detect(fn, max_paths=64):
    """The detector over the paths the pipeline enumerates for ``fn``."""
    return detect_bypass_reentrancy(fn, enumerate_paths(fn, max_paths).paths,
                                    "c")


def test_vulnerable_mint_flagged():
    code = build_contract([("mint(address,uint256)",
                            vulnerable_mint_body(5))])
    records = [r for fn in _functions(code) for r in _detect(fn)]
    assert len(records) == 1
    rec = records[0]
    assert rec.contract_name == "c"
    assert rec.defect_class is DefectClass.BypassAuthReentrancy
    assert rec.source == "builtin_detector"
    assert rec.function_signature == "unknown_0x40c10f19()"
    assert rec.evidence


def test_cei_variant_not_flagged():
    code = build_contract([("mint(address,uint256)", cei_mint_body(5))])
    assert not any(_detect(fn) for fn in _functions(code))


def test_no_external_call_not_flagged():
    code = build_contract([("balanceOf(address)", getter_body(0))])
    assert not any(_detect(fn) for fn in _functions(code))


def test_different_slot_after_call_not_flagged():
    # reads slot 5, writes slot 6 after the call: keys don't intersect
    from fixtures import Asm, _call_sequence

    def body(a, tag):
        a.op("JUMPDEST")
        a.push(5).op("SLOAD").op("POP")
        _call_sequence(a)
        a.push(1).push(6).op("SSTORE")
        a.op("STOP")
    code = build_contract([("mint(address,uint256)", body)])
    assert not any(_detect(fn) for fn in _functions(code))


def test_unresolvable_key_is_top_and_matches_anything():
    from fixtures import Asm, _call_sequence

    def body(a, tag):
        a.op("JUMPDEST")
        a.push(4).op("CALLDATALOAD")  # key not a direct PUSH
        a.op("SLOAD").op("POP")
        _call_sequence(a)
        a.push(1).push(6).op("SSTORE")
        a.op("STOP")
    code = build_contract([("mint(address,uint256)", body)])
    flagged = [fn for fn in _functions(code) if _detect(fn)]
    assert len(flagged) == 1


def test_detector_monotone_in_max_paths():
    code = build_contract([("mint(address,uint256)", vulnerable_mint_body(3)),
                           ("approve(address,uint256)", getter_body(1))])
    for fn in _functions(code):
        small = {r.function_signature for r in _detect(fn, max_paths=1)}
        large = {r.function_signature for r in _detect(fn, max_paths=64)}
        assert small <= large


def test_dedupe_one_record_per_function():
    # two vulnerable paths through one function still yield one record
    from fixtures import _call_sequence

    def body(a, tag):
        a.op("JUMPDEST")
        a.push(5).op("SLOAD").op("POP")
        _call_sequence(a)
        a.push(4).op("CALLDATALOAD")
        a.push_label(f"{tag}_b").op("JUMPI")
        a.push(1).push(5).op("SSTORE").op("STOP")
        a.label(f"{tag}_b").op("JUMPDEST")
        a.push(2).push(5).op("SSTORE").op("STOP")
    code = build_contract([("mint(address,uint256)", body)])
    records = [r for fn in _functions(code) for r in _detect(fn)]
    assert len(records) == 1


def _selector_maps(named_codes):
    return {name: analyze_contract(code).selector_map
            for name, code in named_codes.items()}


def test_map_report_conservation_and_reasons():
    code = build_contract([("transferFrom(address,address,uint256)",
                            getter_body(1))])
    maps = _selector_maps({"Token": code})
    records = [
        DefectRecord("Token", "transferFrom(address,address,uint256)",
                     DefectClass.WeakAuthValidation),
        DefectRecord("Missing", "transferFrom(address,address,uint256)",
                     DefectClass.WeakAuthValidation),
        DefectRecord("Token", "mint(uint,uint,address)",
                     DefectClass.LoosePermManagement),
        DefectRecord("Token", "burn(uint256)",
                     DefectClass.LoosePermManagement),
    ]
    mapped, unmapped = map_report(records, maps)
    assert len(mapped) + len(unmapped) == len(records)
    assert mapped == [(records[0], bytes.fromhex("23b872dd"))]
    reasons = {r.contract_name + "/" + r.function_signature: why
               for r, why in unmapped}
    assert reasons["Missing/transferFrom(address,address,uint256)"] == \
        "unknown contract"
    assert "malformed" in reasons["Token/mint(uint,uint,address)"]
    assert reasons["Token/burn(uint256)"] == "selector absent"


def test_parse_report_file_happy_path():
    payload = [{"contract": "Token",
                "function": "approve(address,uint256)",
                "defect": "LoosePermManagement",
                "subtype": "assign",
                "evidence": "role granted without check"}]
    records, errors = parse_report_file(json.dumps(payload).encode())
    assert not errors
    (rec,) = records
    assert rec.defect_class is DefectClass.LoosePermManagement
    assert rec.subtype == "assign"
    assert rec.source == "external_report"


def test_parse_report_file_empty_array():
    assert parse_report_file(b"[]") == ([], [])


def test_parse_report_file_per_record_errors():
    payload = [
        {"contract": "A", "function": "f()", "defect": "Overflow"},
        {"contract": "B", "function": "g()",
         "defect": "WeakAuthValidation"},
        {"contract": "C", "defect": "WeakAuthValidation"},
    ]
    records, errors = parse_report_file(json.dumps(payload).encode())
    assert [r.contract_name for r in records] == ["B"]
    assert len(errors) == 2
    assert {e.index for e in errors} == {0, 2}


def test_parse_report_file_whole_file_errors():
    for data in (b"not json",
                 b'[{"contract": "a"',  # truncated
                 b"\xff\xfe",           # not UTF-8
                 b"{}"):                # not an array
        with pytest.raises(SchemaError):
            parse_report_file(data)
