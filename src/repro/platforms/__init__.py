"""Simulated data processing platforms.

Each platform is one declaration — a :class:`~repro.platforms.base.Platform`
value holding its performance profile, channel types, profile-priced
conversions and operator mappings — in its own module (``pgres`` is a
package: the declaration plus its storage engine and physical operators).
Plugging a new platform in means writing one such value and registering it
with a :class:`~repro.core.context.RheemContext`; ``builtin_platforms``
lists the bundled ones.
"""

from .base import ExecutionOperator, Platform, charge_operator
from .distributed import PartitionedDataset


def builtin_platforms() -> list[Platform]:
    """Every bundled platform's declaration, in registration order."""
    from . import (flinklite, graphchi, graphlite, jgraph, pgres, pystreams,
                   sparklite)

    return [pystreams.PLATFORM, sparklite.PLATFORM, flinklite.PLATFORM,
            pgres.PLATFORM, graphlite.PLATFORM, graphchi.PLATFORM,
            jgraph.PLATFORM]


__all__ = [
    "ExecutionOperator",
    "Platform",
    "charge_operator",
    "PartitionedDataset",
    "builtin_platforms",
]
