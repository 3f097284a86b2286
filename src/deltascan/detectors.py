"""Defect labels: the bytecode reentrancy heuristic plus ingestion of
external detection reports, mapped onto CFG functions via keccak selectors.

The heuristic reads the execution paths the caller enumerated for the
function; a report record is resolved to its contract's selector once.

Weak Auth Validation and Loose Permission Management have no builtin
bytecode detector here; they enter the system only through external
reports (their source-level analysis is out of scope).
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from itertools import chain

from .cfg import FunctionCfg
# enumerate_paths is not called here, but stays importable from this
# module: bench/spans.py hooks ``detectors.enumerate_paths``
from .cfg import enumerate_paths
from .errors import MalformedSignature, SchemaError
from .keccak import keccak256

__all__ = [
    "DefectClass",
    "DefectRecord",
    "signature_selector",
    "map_report",
    "detect_bypass_reentrancy",
    "parse_report_file",
]


class DefectClass(enum.Enum):
    WeakAuthValidation = "WeakAuthValidation"
    LoosePermManagement = "LoosePermManagement"
    BypassAuthReentrancy = "BypassAuthReentrancy"


@dataclass(frozen=True)
class DefectRecord:
    contract_name: str
    function_signature: str
    defect_class: DefectClass
    source: str = "external_report"  # or builtin_detector
    subtype: str | None = None
    evidence: str | None = None


_ELEMENTARY = re.compile(
    r"^(address|bool|string|bytes|function"
    r"|bytes([1-9]|[12][0-9]|3[0-2])"
    r"|u?int(8|16|24|32|40|48|56|64|72|80|88|96|104|112|120|128"
    r"|136|144|152|160|168|176|184|192|200|208|216|224|232|240|248|256))$")
_ARRAY_SUFFIX = re.compile(r"\[[0-9]*\]$")
_NAME = re.compile(r"^[A-Za-z_$][A-Za-z0-9_$]*$")


def _split_params(params: str) -> list:
    """Split a parameter list on top-level commas (tuples keep theirs)."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(params):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise MalformedSignature("unbalanced parentheses")
        elif ch == "," and depth == 0:
            parts.append(params[start:i])
            start = i + 1
    if depth != 0:
        raise MalformedSignature("unbalanced parentheses")
    parts.append(params[start:])
    return parts


def _check_type(type_name: str) -> None:
    base = type_name
    while True:
        m = _ARRAY_SUFFIX.search(base)
        if not m:
            break
        base = base[:m.start()]
    if base.startswith("("):
        if not base.endswith(")"):
            raise MalformedSignature(f"malformed tuple type {type_name!r}")
        inner = base[1:-1]
        if inner:
            for part in _split_params(inner):
                _check_type(part)
        return
    if not _ELEMENTARY.match(base):
        raise MalformedSignature(f"non-canonical type {base!r}")


def validate_signature(signature: str) -> None:
    """Raise MalformedSignature unless ``signature`` is canonical ABI form."""
    if any(ch.isspace() for ch in signature):
        raise MalformedSignature("whitespace in signature")
    open_idx = signature.find("(")
    if open_idx <= 0 or not signature.endswith(")"):
        raise MalformedSignature("missing parameter list")
    name = signature[:open_idx]
    if not _NAME.match(name):
        raise MalformedSignature(f"bad function name {name!r}")
    params = signature[open_idx + 1:-1]
    if params:
        for part in _split_params(params):
            if not part:
                raise MalformedSignature("empty parameter")
            _check_type(part)


def signature_selector(signature: str) -> bytes:
    """First 4 bytes of keccak-256 of a canonical ABI signature."""
    validate_signature(signature)
    return keccak256(signature.encode("utf-8"))[:4]


def map_report(records: list, selector_maps: dict) -> tuple:
    """Align report records with analyzed contracts.

    ``selector_maps`` maps contract name -> SelectorMap. Returns (mapped,
    unmapped): mapped entries are (record, selector) pairs, unmapped ones
    (record, reason) pairs; no record is dropped.
    """
    mapped, unmapped = [], []
    for record in records:
        selmap = selector_maps.get(record.contract_name)
        if selmap is None:
            unmapped.append((record, "unknown contract"))
            continue
        try:
            selector = signature_selector(record.function_signature)
        except MalformedSignature as exc:
            unmapped.append((record, f"malformed signature: {exc}"))
            continue
        if selector not in selmap.entries:
            unmapped.append((record, "selector absent"))
            continue
        mapped.append((record, selector))
    return mapped, unmapped


_TOP = object()  # statically unresolvable storage key
_SLOAD, _SSTORE = 0x54, 0x55
_CALLS = frozenset({0xF1, 0xF2, 0xF4, 0xFA})  # CALL CALLCODE DELEGATECALL STATICCALL
# the opcode bytes the heuristic reads; no other instruction changes its state
_EVENTS = re.compile(b"[" + b"".join(re.escape(bytes([op])) for op in
                                     sorted({_SLOAD, _SSTORE} | _CALLS)) + b"]")


def _events(block) -> list:
    """(opcode byte, storage key, index) of each SLOAD, SSTORE and external
    call of a block, in order. A storage key is the value of the PUSH right
    before, else ⊤. The first instruction of a block follows a JUMPI or
    nothing on every path (a block entered any other way starts with a
    JUMPDEST), so its key is ⊤."""
    program = block.program
    events = []
    for match in _EVENTS.finditer(program.ops, block.lo, block.hi):
        idx = match.start()
        value = program.push_value(idx - 1) if idx > block.lo else None
        events.append((program.ops[idx], _TOP if value is None else value,
                       idx))
    return events


def detect_bypass_reentrancy(cfg: FunctionCfg, paths,
                             contract_name: str) -> list:
    """Flag functions that read storage, make an external call, and only
    then write one of the keys read before the call (CEI violation) on one
    of ``paths``, the function's execution paths
    (``enumerate_paths(cfg, max_paths).paths``). A storage key is the value
    of the PUSH right before the SLOAD or SSTORE, else unknown (⊤)."""
    flagged = False
    evidence = None
    events = [_events(block) for block in cfg.blocks]
    for path in paths:
        pending = set()       # keys SLOADed and not yet written back
        snapshot = set()      # keys still pending at some external call
        called = False
        for op, key, idx in chain.from_iterable(map(events.__getitem__,
                                                    path.blocks)):
            if op == _SLOAD:
                pending.add(key)
            elif op == _SSTORE:
                if called and snapshot and (key is _TOP or key in snapshot
                                            or _TOP in snapshot):
                    flagged = True
                    offset = cfg.blocks[0].program.starts[idx]
                    evidence = (f"storage read before external call at offset "
                                f"{offset:#x} written back only after it")
                if key is not _TOP:
                    pending.discard(key)
            else:
                snapshot |= pending
                called = True
        if flagged:
            break
    if not flagged:
        return []
    selector = cfg.selector.hex() if cfg.selector else f"entry{cfg.function_id[1]}"
    return [DefectRecord(
        contract_name=contract_name,
        function_signature=f"unknown_0x{selector}()",
        defect_class=DefectClass.BypassAuthReentrancy,
        source="builtin_detector",
        subtype="reentrancy",
        evidence=evidence,
    )]


def parse_report_file(data: bytes) -> tuple:
    """Parse a JSON report file. Returns (records, schema_errors); a record
    with an unknown defect class fails individually, not the whole file. A
    file that is not UTF-8 JSON raises SchemaError."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(-1, f"not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(-1, f"not JSON: {exc}") from None
    if not isinstance(payload, list):
        raise SchemaError(-1, "top-level value must be an array")
    records, errors = [], []
    for i, item in enumerate(payload):
        try:
            if not isinstance(item, dict):
                raise SchemaError(i, "record must be an object")
            for key in ("contract", "function", "defect"):
                if key not in item or not isinstance(item[key], str):
                    raise SchemaError(i, f"missing or non-string field {key!r}")
            try:
                defect = DefectClass(item["defect"])
            except ValueError:
                raise SchemaError(i, f"unknown defect class {item['defect']!r}")
            subtype = item.get("subtype")
            evidence = item.get("evidence")
            if subtype is not None and not isinstance(subtype, str):
                raise SchemaError(i, "subtype must be a string")
            if evidence is not None and not isinstance(evidence, str):
                raise SchemaError(i, "evidence must be a string")
            records.append(DefectRecord(item["contract"], item["function"],
                                        defect, "external_report",
                                        subtype, evidence))
        except SchemaError as exc:
            errors.append(exc)
    return records, errors
