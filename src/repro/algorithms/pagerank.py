"""The PageRank kernel: every platform's PageRank operator calls it.

Platforms differ in what they charge, never in what they compute.
Dangling vertices redistribute their mass uniformly, matching networkx's
convention.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Iterable

import numpy as np


def pagerank_edges(
    edges: Iterable[tuple[Hashable, Hashable]],
    iterations: int = 10,
    damping: float = 0.85,
) -> dict[Hashable, float]:
    """PageRank by power iteration on a directed edge list.

    Vertices are visited in sorted order (first-seen order when they do
    not compare), so the float sums — and the ranks — depend only on the
    multiset of edges: not on the hash seed, the partitioning or the
    record order.

    The iteration runs on arrays but adds exactly as a per-vertex loop
    would: edges are laid out source by source in vertex order (each
    source's out-edges in input order), ``np.add.at`` adds each edge's
    share to its destination unbuffered and in that order, and the
    dangling mass is summed sequentially in vertex order.  So every rank
    is the same float, bit for bit, as that loop's.

    Args:
        edges: ``(src, dst)`` pairs; repeated edges carry repeated weight.
        iterations: Number of power iterations (the paper's tasks fix this,
            e.g. 10 for CrocoPR).
        damping: Teleport parameter.

    Returns:
        Vertex -> rank, summing to ~1.0 over all vertices.
    """
    pairs = [(src, dst) for src, dst in edges]
    index = dict.fromkeys(chain.from_iterable(pairs))
    try:
        vertices = sorted(index)
    except TypeError:
        vertices = list(index)
    n = len(vertices)
    if n == 0:
        return {}
    index = dict(zip(vertices, range(n)))
    src = np.fromiter((index[s] for s, __ in pairs), np.intp, len(pairs))
    dst = np.fromiter((index[d] for __, d in pairs), np.intp, len(pairs))
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    degree = np.bincount(src, minlength=n)
    dangling = np.flatnonzero(degree == 0)
    # A dangling vertex's divisor is never read: its share reaches no edge.
    divisor = np.maximum(degree, 1).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for __ in range(iterations):
        nxt = np.zeros(n)
        np.add.at(nxt, dst, (rank / divisor)[src])
        dangling_mass = 0.0
        if len(dangling):
            dangling_mass = float(np.add.accumulate(rank[dangling])[-1])
        base = (1.0 - damping) / n + damping * dangling_mass / n
        rank = base + damping * nxt
    return dict(zip(vertices, rank.tolist()))
