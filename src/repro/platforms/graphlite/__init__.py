"""GraphLite: the Giraph-analog Pregel platform."""

from .platform import GRAPHLITE_DATASET, GraphLitePlatform

__all__ = ["GRAPHLITE_DATASET", "GraphLitePlatform"]
