"""Command-line front end.

Subcommands: disasm, cfg, embed, detect, fetch, ablate. Global options can
also come from a `key = value` config file (--config) and the explorer API
key from the DELTASCAN_API_KEY environment variable; precedence is
command line > config file > environment > defaults.

No option selects an encoder variant or seed: the index does not record
them, so a mismatched scan would silently find nothing. Only `ablate` runs
the variants, each against its own in-memory index.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shlex
import subprocess
import sys
from pathlib import Path

from .cfg import analyze_contract
from .errors import DeltascanError
from .evm import disassemble, parse_hex_input
from .fetch import FetchClient, HttpTransport
from .pipeline import (ABLATION_VARIANTS, DEFAULT_THRESHOLDS, PipelineConfig,
                       cmd_ablate, cmd_detect, cmd_embed, read_bytecode_file)

API_KEY_ENV = "DELTASCAN_API_KEY"

_NUMBER_FIELDS = {"max_paths": int, "threshold": float}
_STR_FIELDS = {"index_path", "cache_dir", "api_base_url", "api_key"}


def parse_config_file(path) -> dict:
    """Read `key = value` lines; '#' starts a comment; unknown keys error."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DeltascanError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _NUMBER_FIELDS:
            kind = _NUMBER_FIELDS[key]
            try:
                values[key] = kind(value)
            except ValueError:
                raise DeltascanError(
                    f"{path}:{lineno}: bad {kind.__name__} {value!r}") from None
        elif key in _STR_FIELDS:
            values[key] = value
        else:
            raise DeltascanError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def build_pipeline_config(args) -> PipelineConfig:
    values: dict = {}
    if os.environ.get(API_KEY_ENV):
        values["api_key"] = os.environ[API_KEY_ENV]
    if args.config:
        values.update(parse_config_file(args.config))
    overrides = {
        "threshold": args.threshold,
        "max_paths": args.max_paths,
        "index_path": args.index,
        "cache_dir": args.cache_dir,
        "api_base_url": args.api_url,
    }
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return PipelineConfig(**values)
    except ValueError as exc:
        raise DeltascanError(f"bad configuration: {exc}") from None


def _load_code(args) -> bytes:
    if args.input == "-":
        return parse_hex_input(sys.stdin.read())
    return read_bytecode_file(args.input)


def _compile_inputs(inputs, compile_cmd: str, work_dir: Path) -> list:
    """Run an external compile command per non-report input; the command's
    stdout must be hex runtime bytecode. `{input}` in the command is replaced
    with the source path. Each output goes to `<hash>/<stem>.bin`, keyed by
    the resolved source path, so sources sharing a stem do not overwrite
    each other and keep the stem that report mapping matches contracts by
    (``embed`` and ``ablate`` refuse two contracts with one name)."""
    work_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for item in inputs:
        path = Path(item)
        if path.suffix.lower() == ".json":
            out.append(item)
            continue
        command = compile_cmd.replace("{input}", shlex.quote(str(path)))
        proc = subprocess.run(command, shell=True, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            raise DeltascanError(
                f"compile command failed for {path}: {proc.stderr.strip()}")
        key = hashlib.sha256(str(path.resolve()).encode()).hexdigest()[:16]
        target = work_dir / key / (path.stem + ".bin")
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(parse_hex_input(proc.stdout.strip()))
        out.append(str(target))
    return out


def _run_disasm(args) -> int:
    program = disassemble(_load_code(args))
    for ins in program.instructions:
        line = f"{ins.offset:x} {ins.opcode.mnemonic}"
        if ins.immediate:
            line += f" 0x{ins.immediate.hex()}"
        print(line)
    return 0


def _run_cfg(args) -> int:
    analysis = analyze_contract(_load_code(args))
    for block in analysis.blocks:
        print(f"block {block.block_id} {block.start_offset} "
              f"{block.terminator_kind}")
    for edge in sorted(analysis.edges, key=lambda e: (e.src, e.dst, e.kind)):
        print(f"edge {edge.src} {edge.dst} {edge.kind}")
    for selector, entry in sorted(analysis.selector_map.entries.items()):
        print(f"func {selector.hex()} {entry}")
    if analysis.selector_map.fallback_entry is not None:
        print(f"func fallback {analysis.selector_map.fallback_entry}")
    return 0


def _prepared_inputs(args, config: PipelineConfig) -> list:
    inputs = list(args.inputs)
    if getattr(args, "compile_cmd", None):
        inputs = _compile_inputs(inputs, args.compile_cmd,
                                 Path(config.cache_dir) / "compiled")
    return inputs


def _run_embed(args) -> int:
    config = build_pipeline_config(args)
    summary = cmd_embed(config, _prepared_inputs(args, config))
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


def _run_detect(args) -> int:
    config = build_pipeline_config(args)
    results = cmd_detect(config, _prepared_inputs(args, config))
    failed = 0
    for result in results:
        print(json.dumps(result.to_json_dict()))
        failed += int(result.error is not None)
    return 0 if failed < len(results) or not results else 1


def _run_fetch(args) -> int:
    config = build_pipeline_config(args)
    if not config.api_base_url:
        print("fetch requires --api-url (or api_base_url in the config file)",
              file=sys.stderr)
        return 2
    client = FetchClient(HttpTransport(config.api_base_url, config.api_key),
                         config.cache_dir)
    results = client.fetch_many(args.addresses)
    failed = 0
    for address, outcome in results.items():
        if isinstance(outcome, Exception):
            print(f"{address} error {outcome}")
            failed += 1
        else:
            print(f"{address} {outcome}")
    return 1 if failed else 0


def _run_ablate(args) -> int:
    config = build_pipeline_config(args)
    if not all(t > 0 for t in args.thresholds):  # NaN too
        raise DeltascanError("bad configuration: thresholds must be positive")
    table = cmd_ablate(config, args.inputs, args.scan, args.thresholds)
    print("variant" + "".join(f"\tt={t:g}" for t in args.thresholds))
    for variant, *_ in ABLATION_VARIANTS:
        cells = "".join(f"\t{table[(variant, t)]}" for t in args.thresholds)
        print(variant + cells)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltascan",
        description="Permission-defect scanner for ERC-721 runtime bytecode.")
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--threshold", type=float,
                        help="similarity decision threshold (default 0.1)")
    parser.add_argument("--max-paths", type=int, dest="max_paths",
                        help="path enumeration cap per function (default 64)")
    parser.add_argument("--index", help="index file path")
    parser.add_argument("--cache-dir", dest="cache_dir")
    parser.add_argument("--api-url", dest="api_url",
                        help="explorer JSON-RPC endpoint")
    parser.add_argument("-v", "--verbose", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disasm", help="print one instruction per line")
    p.add_argument("input", help="bytecode file (hex or binary), or - for stdin")
    p.set_defaults(func=_run_disasm)

    p = sub.add_parser("cfg", help="print block/edge/func graph description")
    p.add_argument("input")
    p.set_defaults(func=_run_cfg)

    p = sub.add_parser("embed",
                       help="build the defect index from contracts + reports")
    p.add_argument("inputs", nargs="+",
                   help="bytecode files and/or .json defect reports")
    p.add_argument("--compile-cmd", dest="compile_cmd",
                   help="external command producing hex runtime bytecode on "
                        "stdout; {input} is replaced with each source path")
    p.set_defaults(func=_run_embed)

    p = sub.add_parser("detect", help="scan contracts against the index")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--compile-cmd", dest="compile_cmd")
    p.set_defaults(func=_run_detect)

    p = sub.add_parser("fetch", help="download runtime bytecode to the cache")
    p.add_argument("addresses", nargs="+", help="0x-prefixed 20-byte addresses")
    p.set_defaults(func=_run_fetch)

    p = sub.add_parser("ablate",
                       help="finding counts per encoder variant and "
                            "threshold, one in-memory index per variant")
    p.add_argument("inputs", nargs="+", metavar="EMBED_INPUT",
                   help="bytecode files and/or .json defect reports to index")
    p.add_argument("--scan", nargs="+", required=True, metavar="FILE",
                   help="bytecode files to scan")
    p.add_argument("--thresholds", type=float, nargs="+",
                   default=DEFAULT_THRESHOLDS)
    p.set_defaults(func=_run_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (DeltascanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
