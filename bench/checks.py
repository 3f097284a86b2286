"""Output checks, computed apart from the program.

``problems`` are wrong outputs (the run then reports ``correct: false``);
``faults`` are failures of one of the two kept faults, which count the
operation as failed without making the run incorrect:

  candidate-cut  ``decide_similar`` builds candidates from the top-32 HNSW
                 hits per block only, so equal setters under other
                 selectors crowd out a same-selector match (probes only);
  vocab-diverged ``train_vocabulary`` returns vectors longer than
                 VOCAB_NORM_BOUND.

The expected findings come from the generator's plan (which stored
functions have the query's selector and body) and from a brute-force
evaluation of the decision rule over every stored vector.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from deltascan.cfg import analyze_contract, enumerate_paths
from deltascan.encoder import embed_function

# The trainer clips every logit at +-30, and a (center, context) pair with
# |u| * |v| >= 30 already saturates the sigmoid, so a stable run has no
# gradient pushing norms far past sqrt(30) ~ 5.5. Vectors start below 0.04.
# 100 is 18x the saturation norm: only divergence crosses it.
VOCAB_NORM_BOUND = 100.0
# brute-force distances must sit at least this share of the threshold away
# from it, so float32 rounding cannot flip a verdict
MARGIN = 0.2

CANDIDATE_CUT = "candidate-cut"
VOCAB_DIVERGED = "vocab-diverged"


def stored_plan(contracts) -> dict:
    """(contract, function ref, defect) -> (selector, kind, blocks) of every
    labelled function of a defect corpus, with the ref cmd_embed gives it."""
    plan = {}
    for contract in contracts:
        for fn in contract.functions:
            if fn.defect is None:
                continue
            ref = ("0x" + fn.selector.hex()) if fn.via == "detector" \
                else fn.signature
            plan[(contract.name, ref, fn.defect)] = (
                fn.selector, fn.kind, contract.blocks[fn.signature])
    return plan


def check_summary(summary, plan, contracts, builtin, mapped, unmapped) -> list:
    problems = []
    expected = {
        "contracts_processed": len(contracts), "contracts_failed": {},
        "functions_stored": len(plan),
        "vectors_stored": sum(blocks for _, _, blocks in plan.values()),
        "builtin_findings": builtin, "mapped_records": mapped,
        "report_schema_errors": [], "paths_truncated_enumerations": 0,
    }
    for key, value in expected.items():
        if summary.get(key) != value:
            problems.append(f"summary {key}: {summary.get(key)!r} != "
                            f"{value!r}")
    got = sorted(summary.get("unmapped_records", []))
    want = sorted(unmapped)
    if len(got) != len(want) or any(
            (g[0], g[1]) != (w[0], w[1]) or not g[2].startswith(w[2])
            for g, w in zip(got, want)):
        problems.append(f"unmapped records {got!r} != {want!r}")
    return problems


def check_index(index, plan) -> list:
    """Stored entries grouped by function equal the plan, block by block."""
    got = defaultdict(int)
    for entry in index.entries:
        label = entry.label
        got[(label.contract_name, label.function_ref,
             label.defect_class.value)] += 1
        if label.selector != plan.get(
                (label.contract_name, label.function_ref,
                 label.defect_class.value), (None,))[0]:
            return [f"stored entry {label} has an unplanned selector"]
    want = {key: blocks for key, (_, _, blocks) in plan.items()}
    if dict(got) != want:
        return [f"stored functions {dict(got)} != {want}"]
    return []


def vocab_faults(vocab) -> list:
    """VOCAB_DIVERGED when a word vector is not finite or longer than
    VOCAB_NORM_BOUND."""
    norms = [np.linalg.norm(v.astype(np.float64))
             for v in vocab.vectors.values()]
    if all(n <= VOCAB_NORM_BOUND for n in norms):  # False for NaN
        return []
    return [VOCAB_DIVERGED]


class BruteForce:
    """The decision rule evaluated over every stored vector of an index: a
    stored function matches when its selector equals the query's and every
    query block has a stored block of it within the threshold."""

    def __init__(self, index, vocab, params, config):
        self.vocab, self.params, self.config = vocab, params, config
        groups = defaultdict(list)
        for entry in index.entries:
            label = entry.label
            groups[(label.selector, label.contract_name, label.function_ref,
                    label.defect_class.value)].append(entry.vector)
        self.by_selector = defaultdict(list)
        for (sel, *key), vectors in groups.items():
            self.by_selector[sel].append(
                (tuple(key), np.stack(vectors).astype(np.float64)))

    def distances(self, code: bytes) -> dict:
        """selector -> {stored function key: max block distance} for every
        function of ``code`` whose selector the index holds."""
        out = {}
        for fn in analyze_contract(code).functions:
            if fn.selector not in self.by_selector or not fn.blocks:
                continue
            paths = list(enumerate_paths(fn, self.config.max_paths).paths)
            emb = embed_function(fn, paths, self.vocab, self.params,
                                 self.config.embedding)
            query = np.stack(emb.block_vectors).astype(np.float64)
            out[fn.selector] = {}
            for key, stored in self.by_selector[fn.selector]:
                gaps = np.sqrt(((query[:, None, :] - stored[None, :, :]) ** 2)
                               .sum(axis=2)).min(axis=1)
                out[fn.selector][key] = float(gaps.max())
        return out


def check_detect(contract, results, plan, threshold, expected=None):
    """Checks one contract's scan against the plan and, when ``expected``
    (BruteForce.distances of the contract) is given, the brute-force rule."""
    problems, missing = [], []
    if len(results) != 1 or results[0].error:
        return [f"{contract.name}: scan failed"], []
    functions = {fn.selector: fn for fn in contract.functions}
    selectors = {sel for sel, _, _ in plan.values()}
    found = defaultdict(dict)
    for f in results[0].findings:
        sel = f.query_function_id[1]
        key = (f.matched_contract, f.matched_function, f.defect_class.value)
        if sel not in functions:
            problems.append(f"{contract.name}: finding for unknown function")
        elif sel not in selectors:
            problems.append(f"{contract.name}: flagged {sel.hex()}, absent "
                            "from the index")
        elif plan.get(key, (None,))[0] != sel:
            problems.append(f"{contract.name}: {sel.hex()} matched {key}, "
                            "which has another selector")
        if not f.max_block_distance <= threshold:
            problems.append(f"{contract.name}: distance {f.max_block_distance}"
                            f" > threshold")
        found[sel][key] = f.max_block_distance
    for fn in contract.functions:
        clones = {key for key, (sel, kind, _) in plan.items()
                  if sel == fn.selector and kind == fn.kind}
        for key in clones:
            if key not in found[fn.selector]:
                missing.append(key)
            elif found[fn.selector][key] != 0.0:
                problems.append(f"{contract.name}: clone of {key} at "
                                f"{found[fn.selector][key]}, not 0")
    if expected is not None:
        for sel, stored in expected.items():
            want = {k for k, d in stored.items() if d <= threshold}
            got = set(found[sel])
            missing += sorted(want - got - set(missing))
            if got - want:
                problems.append(f"{contract.name}: findings {got - want} the "
                                "rule does not give")
            for key in got & want:
                if abs(found[sel][key] - stored[key]) > 1e-4:
                    problems.append(f"{contract.name}: distance to {key} "
                                    f"{found[sel][key]} != {stored[key]}")
            for key, d in stored.items():
                if abs(d - threshold) < MARGIN * threshold:
                    problems.append(f"{contract.name}: planted distance {d} "
                                    "too close to the threshold")
    if missing and contract.group != "probe":
        problems.append(f"{contract.name}: missed same-selector matches "
                        f"{sorted(set(missing))}")
    return problems, [CANDIDATE_CUT] if missing else []
