"""GraphChi: the out-of-core single-machine graph platform."""

from .platform import GraphChiPageRank, GraphChiPlatform

__all__ = ["GraphChiPageRank", "GraphChiPlatform"]
