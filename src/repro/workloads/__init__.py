"""Deterministic synthetic workload generators (paper-dataset stand-ins)."""

from .graphs import (
    community_edges,
    parse_edge,
    parse_edges,
    power_law_edges,
    write_community,
    write_pagelinks,
)
from .points import DATASETS, labelled_points, parse_point, write_points
from .tax import parse_tax, tax_records, write_tax
from .text import write_abstracts, zipf_lines
from .tpch import SF1_ROWS, TpchLite, parse_row

__all__ = [
    "community_edges",
    "parse_edge",
    "parse_edges",
    "power_law_edges",
    "write_community",
    "write_pagelinks",
    "DATASETS",
    "labelled_points",
    "parse_point",
    "write_points",
    "parse_tax",
    "tax_records",
    "write_tax",
    "write_abstracts",
    "zipf_lines",
    "SF1_ROWS",
    "TpchLite",
    "parse_row",
]
