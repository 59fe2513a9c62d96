"""One benchmark harness for the whole tree (see ``perfbench/README.md``).

Four workloads, six end-to-end metrics and a per-layer breakdown measured
from outside the program: by timing calls into public functions and by
reading the spans, counters and job fields the program already exposes.
Imports only ``repro.*``; nothing from ``scripts/`` or ``benchmarks/``.
"""
