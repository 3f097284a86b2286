"""deltascan benchmark: seeded embed/detect workloads with checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload detect-clones --seed 1 --seconds 30 \
        --trace 0

One process runs one workload: one caller, a closed loop, ``workers=1``
and one BLAS thread. ``--trace 0`` times the workload untraced and prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced units
of the same work and prints the per-layer metrics with the tracing
overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Results and spans are also written under ``.bench_out/``.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "deltascan" / "__init__.py").is_file():
    sys.exit(f"no deltascan sources under {ROOT / 'src'}: run from a checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import deltascan  # noqa: E402
import deltascan.pipeline as pipeline  # noqa: E402
from deltascan.pipeline import PipelineConfig  # noqa: E402

import checks  # noqa: E402
import corpora  # noqa: E402
from spans import COUNTS, Tracer  # noqa: E402

if Path(deltascan.__file__).resolve().parent != ROOT / "src" / "deltascan":
    sys.exit(f"imported deltascan from {deltascan.__file__}, "
             f"not from {ROOT / 'src'}")

SETUP_EVERY_S = 1.5      # set-up is pure: repeat it through the run
EMBED_CALLS = 3          # cmd_embed calls (own corpus each) per round
BRUTE_FORCE_SAMPLE = 12  # contracts per round checked by brute force


def _now():
    return time.perf_counter()


def _write(directory: Path, contracts, report=None) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for contract in contracts:
        path = directory / f"{contract.name}.bin"
        path.write_text(contract.code.hex())
        files.append(str(path))
    if report is not None:
        path = directory / "report.json"
        path.write_text(json.dumps(report))
        files.append(str(path))
    return files


class Stats:
    """Operation outcomes and timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults = {}
        self.problems = []
        self.op_s = []           # one timed sample per operation
        self.per_round = 1       # operations in one round
        self.contract_s = []     # op_s divided by the contracts of each
        self.contracts = 0       # contracts those operations processed
        self.setup_s = []
        self.build_s = []

    def setup_due(self) -> bool:
        """True when the timed work reaches SETUP_EVERY_S per set-up sample
        taken, so the samples spread over the whole run."""
        return sum(self.op_s) >= SETUP_EVERY_S * len(self.setup_s)

    def outcome(self, problems, faults):
        self.attempted += 1
        self.problems += problems
        if problems or faults:
            self.failed += 1
        for fault in faults:
            self.faults[fault] = self.faults.get(fault, 0) + 1


class Detect:
    """Scan contracts one ``cmd_detect`` call each, against an index that
    ``cmd_embed`` builds from the workload's defect corpus."""

    def __init__(self, work: Path, seed: int, index_fn, round_fn):
        contracts, report = index_fn()
        self.index_contracts = contracts
        self.plan = checks.stored_plan(contracts)
        self.n_builtin = sum(fn.via == "detector" for c in contracts
                             for fn in c.functions)
        self.n_mapped = len(report)
        self.defect_files = _write(work / "defects", contracts, report)
        self.round = round_fn(seed)
        self.files = _write(work / "scan", self.round)
        self.config = PipelineConfig(index_path=str(work / "defects.idx"))
        sample = min(BRUTE_FORCE_SAMPLE, len(self.round))
        self.sampled = set(random.Random(seed).sample(range(len(self.round)),
                                                      sample))
        self.expected = {}

    def build(self, stats):
        start = _now()
        summary = pipeline.cmd_embed(self.config, self.defect_files)
        stats.build_s.append(_now() - start)
        stats.problems += checks.check_summary(
            summary, self.plan, self.index_contracts, self.n_builtin,
            self.n_mapped, [])

    def setup(self, stats, reps):
        for _ in range(reps):
            start = _now()
            index = pipeline.load_index(self.config.index_path)
            vocab = pipeline.load_vocabulary(self.config.vocab_path)
            params = pipeline.init_params(self.config.embedding)
            stats.setup_s.append(_now() - start)
        return index, vocab, params

    def scan_round(self, stats, artifacts, interleave=False):
        index, vocab, params = artifacts
        outputs = []
        for path in self.files:
            if interleave and stats.setup_due():
                self.setup(stats, 1)
            start = _now()
            results = pipeline.cmd_detect(self.config, [path], index=index,
                                          vocab=vocab, params=params)
            stats.op_s.append(_now() - start)
            stats.contract_s.append(stats.op_s[-1])
            stats.contracts += 1
            outputs.append(results)
        return outputs

    def check_round(self, stats, artifacts, outputs):
        index, vocab, params = artifacts
        brute = None
        for i, (contract, results) in enumerate(zip(self.round, outputs)):
            if i in self.sampled and i not in self.expected:
                brute = brute or checks.BruteForce(index, vocab, params,
                                                   self.config)
                self.expected[i] = brute.distances(contract.code)
            stats.outcome(*checks.check_detect(
                contract, results, self.plan, self.config.threshold,
                self.expected.get(i)))

    def run(self, stats, seconds):
        stats.per_round = len(self.files)
        self.build(stats)
        artifacts = self.setup(stats, 1)
        stats.problems += checks.check_index(artifacts[0], self.plan)
        _rounds(seconds, lambda: self.check_round(
            stats, artifacts, self.scan_round(stats, artifacts, True)))

    def unit(self, stats, tracer=None):
        """Build, set up once, scan one round; checked outside the unit."""
        start = _now()
        with tracer.root() if tracer else contextlib.nullcontext():
            self.build(stats)
            artifacts = self.setup(stats, 1)
            outputs = self.scan_round(stats, artifacts)
        wall = _now() - start
        self.check_round(stats, artifacts, outputs)
        return wall


class Embed:
    """Several ``cmd_embed`` calls per round, each over its own labelled
    corpus; each output index is loaded and scanned once to check it."""

    def __init__(self, work: Path, seed: int):
        self.calls = []
        for k in range(EMBED_CALLS):
            corpus = corpora.embed_corpus(seed, k)
            directory = work / f"call{k}"
            files = _write(directory, corpus.contracts, corpus.report)
            config = PipelineConfig(index_path=str(directory / "defects.idx"))
            probe = corpus.contracts[k % 4]  # a labelled contract
            self.calls.append((corpus, files, config, probe,
                               str(directory / f"{probe.name}.bin")))

    def setup(self, stats, reps):
        for _ in range(reps):
            start = _now()
            params = pipeline.init_params(self.calls[0][2].embedding)
            stats.setup_s.append(_now() - start)
        return params

    def call(self, stats, k, params):
        corpus, files, config, probe, probe_file = self.calls[k]
        start = _now()
        summary = pipeline.cmd_embed(config, files)
        elapsed = _now() - start
        stats.op_s.append(elapsed)
        stats.contract_s.append(elapsed / len(corpus.contracts))
        stats.build_s.append(elapsed)
        stats.contracts += len(corpus.contracts)
        # read back what the call wrote, and scan one labelled contract
        index = pipeline.load_index(config.index_path)
        vocab = pipeline.load_vocabulary(config.vocab_path)
        results = pipeline.cmd_detect(config, [probe_file], index=index,
                                      vocab=vocab, params=params)
        return summary, index, vocab, results

    def check_call(self, stats, k, outputs):
        corpus, _, config, probe, _ = self.calls[k]
        summary, index, vocab, results = outputs
        plan = checks.stored_plan(corpus.contracts)
        problems = checks.check_summary(summary, plan, corpus.contracts,
                                        corpus.builtin, corpus.mapped,
                                        corpus.unmapped)
        problems += checks.check_index(index, plan)
        detect_problems, detect_faults = checks.check_detect(
            probe, results, plan, config.threshold)
        stats.outcome(problems + detect_problems,
                      checks.vocab_faults(vocab) + detect_faults)

    def run(self, stats, seconds):
        stats.per_round = EMBED_CALLS
        params = self.setup(stats, 1)

        def one_round():
            for k in range(EMBED_CALLS):
                if stats.setup_due():
                    self.setup(stats, 1)
                self.check_call(stats, k, self.call(stats, k, params))
        _rounds(seconds, one_round)

    def unit(self, stats, tracer=None):
        """Set up once and make one round of calls, with their read-back."""
        start = _now()
        with tracer.root() if tracer else contextlib.nullcontext():
            params = self.setup(stats, 1)
            outputs = [self.call(stats, k, params) for k in range(EMBED_CALLS)]
        wall = _now() - start
        for k, out in enumerate(outputs):
            self.check_call(stats, k, out)
        return wall


def _rounds(seconds, one_round):
    """Whole rounds until the next one would end more than half a round
    past ``seconds``; at least one."""
    start, count = _now(), 0
    while True:
        one_round()
        count += 1
        elapsed = _now() - start
        if elapsed + 0.5 * elapsed / count >= seconds:
            return


WORKLOADS = {
    "detect-clones": lambda work, seed: Detect(
        work, seed, corpora.clones_index, corpora.clones_round),
    "detect-large": lambda work, seed: Detect(
        work, seed, corpora.large_index, corpora.large_round),
    "embed-defects": Embed,
}


def _nearest_rank(values, share):
    """The smallest sample with at least ``share`` of the samples at or below
    it. Repeating whole rounds of the same operations leaves it unchanged."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def median_round_s(op_s, per_round) -> float:
    """Seconds of a round in which every operation takes its median time
    over the run's rounds: a burst of host load that slows one round moves
    it less than it moves the total."""
    return sum(statistics.median(op_s[i::per_round])
               for i in range(per_round))


def end_to_end(stats) -> dict:
    ms = [t * 1e3 for t in stats.contract_s]
    rounds = len(stats.op_s) // stats.per_round
    return {
        "setup_s": (statistics.median(stats.setup_s), "s"),
        "contracts_per_s": (stats.contracts / rounds / median_round_s(
            stats.op_s, stats.per_round), "1/s"),
        "contract_ms_p50": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(tracer, units, untraced_s, traced_s) -> dict:
    out = {name: (ms / units, "ms")
           for name, ms in tracer.self_times_ms().items()}
    for name in COUNTS:
        out[name] = (tracer.counts.get(name, 0) / units,
                     "bytes" if name == "keccak.bytes" else "count")
    out["trace.untraced_ms"] = (untraced_s * 1e3 / units, "ms")
    out["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3 / units, "ms")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    warnings.filterwarnings("ignore", category=RuntimeWarning)

    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        stats = Stats()
        workload = WORKLOADS[args.workload](work, args.seed)
        started = _now()
        if args.trace:
            tracer = Tracer()
            units = untraced = traced = 0.0
            while True:
                untraced += workload.unit(stats)
                tracer.install()
                try:
                    traced += workload.unit(stats, tracer)
                finally:
                    tracer.uninstall()
                units += 1
                if _now() - started >= args.seconds:
                    break
            metrics = per_layer(tracer, units, untraced, traced)
        else:
            workload.run(stats, args.seconds)
            metrics = end_to_end(stats)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not stats.problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{stats.attempted} operations, {stats.contracts} contracts in "
          f"{sum(stats.op_s):.1f} s timed "
          f"({len(stats.op_s) // stats.per_round} rounds of "
          f"{stats.per_round}), {len(stats.setup_s)} set-ups, "
          f"cmd_embed median {statistics.median(stats.build_s):.3f} s over "
          f"{len(stats.build_s)} calls, BLAS threads {BLAS_THREADS}, "
          "workers 1")
    if stats.contract_s:
        print(f"contract ms over {len(stats.contract_s)} samples: p50 "
              f"{statistics.median(stats.contract_s) * 1e3:.1f}, p90 "
              f"{_nearest_rank(stats.contract_s, 0.9) * 1e3:.1f} (nearest "
              f"rank), max {max(stats.contract_s) * 1e3:.1f}")
    if args.trace:
        self_ms = sum(tracer.self_times_ms().values()) / units
        print(f"trace: {units:.0f} unit pairs; per unit untraced "
              f"{untraced * 1e3 / units:.1f} ms, traced "
              f"{traced * 1e3 / units:.1f} ms = sum of self times "
              f"{self_ms:.1f} ms; overhead "
              f"{(traced - untraced) * 1e3 / units:.1f} ms")
    print(f"kept faults: {stats.faults or 'none'}")
    for problem in stats.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
    if args.trace:
        Path(f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "parent", "start_s", "end_s"],
             "spans": tracer.spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
