"""Every platform ranks a graph with the one PageRank kernel.

The optimizer may place a PageRank on any of six platforms, so all six
must compute one function: ``repro.algorithms.pagerank_edges``, bit for
bit.  The kernel sums in sorted vertex order, so its ranks depend only on
the multiset of edges — never on the hash seed (string vertices hash
differently under each ``PYTHONHASHSEED``), the partitioning or the
record order.  CI runs this module under ``PYTHONHASHSEED`` 0 and 1; the
last test also runs it in subprocesses under 0, 1 and 2.
"""

import os
import random
import subprocess
import sys

from repro import RheemContext
from repro.algorithms import pagerank_edges

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
