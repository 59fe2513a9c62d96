"""The PageRank kernel: every platform's PageRank operator calls it.

Platforms differ in what they charge, never in what they compute.
Dangling vertices redistribute their mass uniformly, matching networkx's
convention.
"""

from __future__ import annotations

from typing import Hashable, Iterable


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

    Args:
        edges: ``(src, dst)`` pairs; repeated edges carry repeated weight.
        iterations: Number of power iterations (the paper's tasks fix this,
            e.g. 10 for CrocoPR).
        damping: Teleport parameter.

    Returns:
        Vertex -> rank, summing to ~1.0 over all vertices.
    """
    adjacency: dict[Hashable, list[Hashable]] = {}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, [])
    try:
        vertices = sorted(adjacency)
    except TypeError:
        vertices = list(adjacency)
    n = len(vertices)
    if n == 0:
        return {}
    rank = dict.fromkeys(vertices, 1.0 / n)
    for __ in range(iterations):
        nxt = dict.fromkeys(vertices, 0.0)
        dangling_mass = 0.0
        for v, r in rank.items():
            outs = adjacency[v]
            if not outs:
                dangling_mass += r
                continue
            share = r / len(outs)
            for dst in outs:
                nxt[dst] += share
        base = (1.0 - damping) / n + damping * dangling_mass / n
        rank = {v: base + damping * nxt[v] for v in vertices}
    return rank
