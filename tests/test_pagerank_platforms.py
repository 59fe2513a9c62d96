"""Every platform ranks a graph with the one PageRank kernel.

The optimizer may place a PageRank on any of six platforms, so all six
must compute one function: ``repro.algorithms.pagerank_edges``, bit for
bit.  The kernel sums in sorted vertex order, so its ranks depend only on
the multiset of edges — never on the hash seed (string vertices hash
differently under each ``PYTHONHASHSEED``), the partitioning or the
record order.  The kernel iterates on arrays; :func:`reference_ranks` is
the per-vertex loop whose floats it must reproduce bit for bit.  CI runs
this module under ``PYTHONHASHSEED`` 0 and 1; the last test also runs it
in subprocesses under 0, 1 and 2.
"""

import os
import random
import subprocess
import sys

from repro import RheemContext
from repro.algorithms import pagerank_edges

def reference_ranks(edges, iterations=10, damping=0.85):
    """PageRank as one dict loop per iteration: each vertex in sorted
    (else first-seen) order adds its share to each out-neighbour in
    edge order; dangling vertices pool their mass in vertex order."""
    adjacency = {}
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


def bits(ranks):
    """Vertex -> rank as exact bit patterns, in the dict's order."""
    return [(v, r.hex()) for v, r in ranks.items()]


def random_graph(rng):
    """Edges over int, string or mixed vertices: self-loops, repeated
    edges and dangling vertices come from the draw's small vertex pool."""
    kind = rng.choice(("int", "str", "mixed"))
    pool = rng.randrange(1, 40)

    def vertex():
        v = rng.randrange(pool)
        if kind == "int" or (kind == "mixed" and v % 2):
            return v
        return f"v{v}"

    return [(vertex(), vertex()) for __ in range(rng.randrange(0, 120))]


def test_the_kernel_adds_like_the_reference_loop():
    rng = random.Random(2_018)
    seen = set()
    for __ in range(400):
        edges = random_graph(rng)
        iterations = rng.randrange(0, 13)
        damping = rng.choice((0.85, 0.5, rng.random()))
        expected = reference_ranks(edges, iterations, damping)
        got = pagerank_edges(edges, iterations, damping)
        assert bits(got) == bits(expected), (edges, iterations, damping)
        seen.add(bool(edges) and len({s for s, __ in edges}) < len(got))
        seen.add(("loop", any(s == d for s, d in edges)))
    # The draws reached dangling vertices, graphs without them, self-loops
    # and no self-loop.
    assert {True, False, ("loop", True), ("loop", False)} <= seen


def test_repeated_edges_carry_repeated_weight():
    edges = [(0, 1), (0, 1), (0, 2), (2, 0), (1, 1), (1, 1)]
    assert bits(pagerank_edges(edges, 7)) == bits(reference_ranks(edges, 7))
    assert pagerank_edges(edges)[1] > pagerank_edges(edges)[2]
    assert pagerank_edges([], 5) == reference_ranks([], 5) == {}


PLATFORMS = ("pystreams", "sparklite", "flinklite", "graphlite", "jgraph",
             "graphchi")

_rng = random.Random(41)
INT_EDGES = [(_rng.randrange(60), _rng.randrange(60)) for __ in range(400)]
STR_EDGES = [(f"v{_rng.randrange(300)}", f"v{_rng.randrange(300)}")
             for __ in range(3_000)]
GRAPHS = {"int": INT_EDGES, "str": STR_EDGES, "empty": []}


def ranks_on_every_platform() -> dict[str, list]:
    """Each graph's ranks; asserts every pinned platform gives exactly the
    kernel's, and the kernel gives the same on a permuted edge list."""
    ranks = {}
    for kind, edges in GRAPHS.items():
        expected = pagerank_edges(edges)
        permuted = random.Random(7).sample(edges, len(edges))
        assert pagerank_edges(permuted) == expected, kind
        for platform in PLATFORMS:
            result = (RheemContext().load_collection(edges).pagerank()
                      .with_target_platform(platform).execute())
            assert platform in result.platforms
            assert dict(result.output) == expected, (kind, platform)
        ranks[kind] = sorted(expected.items())
    return ranks


def test_every_platform_ranks_with_the_kernel():
    ranks = ranks_on_every_platform()
    assert len(ranks["str"]) == 300 and ranks["empty"] == []


def test_every_platform_ranks_vertices_that_do_not_compare():
    # An int and a str vertex: the kernel ranks in first-seen order, and
    # no platform may try to sort what it hands on.
    edges = [(1, "a"), ("a", 2), (2, 1)]
    expected = list(pagerank_edges(edges).items())
    assert [v for v, __ in expected] == [1, "a", 2]
    for platform in PLATFORMS:
        result = (RheemContext().load_collection(edges).pagerank()
                  .with_target_platform(platform).execute())
        assert platform in result.platforms
        assert sorted(result.output, key=repr) == sorted(expected, key=repr)


_PRINT_RANKS = """
import sys
sys.path[:0] = {path!r}
from test_pagerank_platforms import ranks_on_every_platform
print(ranks_on_every_platform())
"""


def test_ranks_do_not_depend_on_the_hash_seed():
    script = _PRINT_RANKS.format(path=[os.path.dirname(__file__), *sys.path])
    seen = {subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1", "2")}
    assert len(seen) == 1 and seen != {""}
