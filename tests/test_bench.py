"""Smoke run of the benchmark script: one traced unit per workload, so a
renamed layer entry point that silently unhooks a tracer span shows up
as a zero per-layer time."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["detect-clones", "detect-large",
                                      "embed-defects"])
def test_bench_traced_run_is_correct_and_hooks_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    names = ["keccak.ms", "encoder.params_ms", "encoder.sequence_ms",
             "encoder.gat_ms"]
    if workload == "embed-defects":
        names.append("encoder.vocab_train_ms")
    for name in names:
        assert metrics[name]["value"] > 0, name
