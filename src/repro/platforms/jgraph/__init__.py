"""JGraph: the in-process graph-library platform."""

from .platform import JGraphPageRank, JGraphPlatform

__all__ = ["JGraphPageRank", "JGraphPlatform"]
