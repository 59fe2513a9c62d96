"""Synthetic graphs (DBpedia-pagelinks and community-dataset stand-ins)."""

from __future__ import annotations

import random

from .text import parse_delimited

#: Full-scale parameters of the pagelinks stand-in (~24 GB, ~170M links).
FULL_SIM_EDGES = 170_000_000.0
BYTES_PER_EDGE = 140.0
ACTUAL_EDGES = 4_000
ACTUAL_VERTICES = 400


def power_law_edges(
    num_edges: int,
    num_vertices: int,
    exponent: float = 1.2,
    seed: int = 31,
) -> list[tuple[int, int]]:
    """Directed edges with Zipf-ish in/out degree (self-loops removed)."""
    rng = random.Random(seed)
    weights = [1.0 / (v + 1) ** exponent for v in range(num_vertices)]
    vertices = list(range(num_vertices))
    edges = []
    while len(edges) < num_edges:
        src = rng.choices(vertices, weights=weights, k=1)[0]
        dst = rng.choices(vertices, weights=weights, k=1)[0]
        if src != dst:
            edges.append((src, dst))
    return edges


def write_pagelinks(ctx, path: str, percent: float, seed: int = 31) -> None:
    """Write a ``percent``% slice of the simulated pagelinks graph."""
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100]")
    edges = power_law_edges(ACTUAL_EDGES, ACTUAL_VERTICES, seed=seed)
    lines = [f"{a} {b}" for a, b in edges]
    sim_factor = FULL_SIM_EDGES * (percent / 100.0) / len(lines)
    ctx.vfs.write(path, lines, sim_factor=sim_factor,
                  bytes_per_record=BYTES_PER_EDGE)


def community_edges(
    community: int,
    num_edges: int = 2_500,
    num_vertices: int = 300,
    overlap: float = 0.5,
    seed: int = 37,
) -> list[tuple[int, int]]:
    """Edges of one "community" dataset; communities share ``overlap`` of
    their link mass (so their intersection is non-trivial, as the
    cross-community PageRank task requires)."""
    rng = random.Random(seed)  # shared base graph across communities
    shared = power_law_edges(int(num_edges * overlap), num_vertices,
                             seed=seed)
    own_rng = random.Random(seed + 1000 + community)
    own = []
    while len(own) < num_edges - len(shared):
        a = own_rng.randrange(num_vertices)
        b = own_rng.randrange(num_vertices)
        if a != b:
            own.append((a, b))
    edges = shared + own
    rng.shuffle(edges)
    return edges


def write_community(ctx, path: str, community: int, sim_mb: float,
                    seed: int = 37) -> None:
    """Write one community dataset sized at ``sim_mb`` simulated MB."""
    edges = community_edges(community, seed=seed)
    lines = [f"{a} {b}" for a, b in edges]
    sim_records = sim_mb * 1e6 / BYTES_PER_EDGE
    ctx.vfs.write(path, lines, sim_factor=sim_records / len(lines),
                  bytes_per_record=BYTES_PER_EDGE)


def parse_edge(line: str) -> tuple[int, int]:
    """Parse ``"src dst"`` into an integer pair."""
    a, b = line.split()
    return (int(a), int(b))


def parse_edges(batch):
    """Columnar :func:`parse_edge` over one batch of edge lines, exactly.

    The lines take :func:`~repro.workloads.text.parse_delimited`'s byte
    pass when each is two runs of at most 18 ASCII digits around exactly
    one space, and come back as a tuple batch of two int64 columns.
    Anything ``str.split`` reads differently — tabs, runs of spaces,
    leading or trailing blanks — and anything ``int`` might accept or
    reject — signs, ``_``, NUL, non-ASCII, a wrong field count — falls
    back to :func:`parse_edge` per record, which also raises where it
    raises.
    """
    from ..core.batch import RecordBatch

    lines = batch.to_records()
    columns = parse_delimited(lines, " ", (int, int))
    if columns is None:
        return [parse_edge(line) for line in lines]
    return RecordBatch.from_tuple_columns(columns)
