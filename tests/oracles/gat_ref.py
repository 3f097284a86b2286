"""Dense-matrix reference for the graph attention update (Eq.-style):
explicit NxN masked attention matrices instead of per-edge segment
reductions. Takes the same weight arrays as the implementation under test
but shares no code with it.
"""

import numpy as np


def _elu(x):
    return np.where(x > 0, x, np.exp(np.minimum(x, 0.0)) - 1.0)


def _leaky(x, slope=0.2):
    return np.where(x > 0, x, slope * x)


def dense_gat(features, edges, gat_layers):
    """features: (N, d); edges: iterable of (src, dst) WITHOUT self-loops;
    gat_layers: sequence of dicts with 'w' (d_in, H * d_out), the heads'
    weights side by side, and 'a_src', 'a_dst' (H, d_out). Heads
    concatenate except the last layer (average).
    """
    n = features.shape[0]
    adj = np.zeros((n, n), dtype=bool)  # adj[dst, src]: edge src -> dst
    for src, dst in edges:
        adj[dst, src] = True
    adj |= np.eye(n, dtype=bool)

    x = features.astype(np.float64)
    last = len(gat_layers) - 1
    for idx, layer in enumerate(gat_layers):
        heads, d_out = layer["a_src"].shape
        per_head = []
        for h in range(heads):
            w = layer["w"][:, h * d_out:(h + 1) * d_out]
            proj = x @ w.astype(np.float64)
            e_src = proj @ layer["a_src"][h].astype(np.float64)
            e_dst = proj @ layer["a_dst"][h].astype(np.float64)
            scores = _leaky(e_src[None, :] + e_dst[:, None])  # (dst, src)
            scores = np.where(adj, scores, -np.inf)
            scores -= scores.max(axis=1, keepdims=True)
            weights = np.exp(scores) * adj
            weights /= weights.sum(axis=1, keepdims=True)
            per_head.append(_elu(weights @ proj))
        x = (np.mean(per_head, axis=0) if idx == last
             else np.concatenate(per_head, axis=1))
    return x
