"""The decision rule as one loop over stored functions: the rule the index
ran before it kept each selector bucket as one array, kept as written
except that it reads plain (function key, selector, vector) records in
insertion order instead of the index. Each stored function is stacked and
compared with the query on its own, under every label it is stored with.
"""

import numpy as np


def decide_ref(query_vectors, query_selector, records, threshold,
               nearest=None) -> list:
    """Findings as (contract, function, defect, block distances) tuples, in
    the order the rule reports them; ``nearest`` as the rule keeps it."""
    if not query_vectors or query_selector is None:
        return []
    functions = {}  # function key -> (selector, [vectors]), insertion order
    for key, selector, vector in records:
        functions.setdefault(key, (selector, []))[1].append(vector)

    findings = []
    query = np.stack(query_vectors)[:, None, :]
    for key, (selector, vectors) in functions.items():
        if selector != query_selector:
            continue
        diff = np.stack(vectors)[None, :, :] - query  # (Q, S, D)
        distances = [float(d) for d in
                     np.sqrt((diff * diff).sum(axis=2).min(axis=1))]
        farthest = max(distances)
        if nearest is not None:
            nearest[query_selector] = min(
                nearest.get(query_selector, farthest), farthest)
        if farthest <= threshold:
            findings.append((key[0], key[1], key[2], tuple(distances)))
    findings.sort(key=lambda f: (max(f[3]), f[0], f[1]))
    return findings
