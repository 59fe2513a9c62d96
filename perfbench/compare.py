#!/usr/bin/env python3
"""Compare two sets of runs: ``compare.py --a DIR... --b DIR...``.

Each ``DIR`` is what one ``run.py --out DIR`` left behind.  For every
workload and end-to-end metric the two sides' medians and quartiles are
printed with a verdict:

``regressed``   B's median is worse than A's by more than the metric's bound
                (``failed_share``: by anything at all);
``improved``    B's median is better by more than either side's own spread;
``unresolved``  a side's own spread (interquartile range as a share of its
                median) exceeds the bound, so the runs cannot tell;
``unchanged``   none of the above.

Exits 1 if anything regressed, else 0.  Bounds and directions come from
``BENCHMARK.json``.  Running it on two sets of runs of the same code is
the benchmark's own acceptance check: nothing may come out ``regressed``
or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """The verdict on one metric and B's change for the worse as a share
    of A's median (negative: for the better)."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    if am == 0:     # failed_share at its usual 0: any failure is a regression
        return ("regressed" if bm > 0 else "unchanged"), bm
    worse = (bm - am) / am if better == "lower" else (am - bm) / am
    own = max((a3 - a1) / am, (b3 - b1) / bm if bm else 0.0)
    if own > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < 0 and -worse > own:
        return "improved", worse
    return "unchanged", worse


def load(dirs: list[str]) -> dict[str, list[dict]]:
    """``{workload: [result, ...]}`` over the untraced results in ``dirs``."""
    runs: dict[str, list[dict]] = {}
    for directory in dirs:
        for path in sorted(Path(directory).glob("*.json")):
            if path.name.endswith(".traced.json"):
                continue
            with open(path, encoding="utf-8") as handle:
                result = json.load(handle)
            runs.setdefault(result["workload"], []).append(result)
    return runs


def compare(a_dirs: list[str], b_dirs: list[str]) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = [(m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]] + [("failed_share", "lower", 0.0)]
    side_a, side_b = load(a_dirs), load(b_dirs)
    regressed = 0
    print(f"{'workload':<14} {'metric':<16} {'A median [q1..q3]':>34} "
          f"{'B median [q1..q3]':>34} {'worse by':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = side_a.get(workload), side_b.get(workload)
        if not runs_a or not runs_b:
            continue
        for name, better, bound in metrics:
            def values(runs: list[dict]) -> list[float]:
                if name == "failed_share":
                    return [r["failed"] / r["attempted"] for r in runs]
                return [r["metrics"][name]["value"] for r in runs]
            a, b = values(runs_a), values(runs_b)
            word, worse = verdict(a, b, better, bound)
            regressed += word == "regressed"
            cells = ["{1:.5g} [{0:.5g}..{2:.5g}]".format(*quartiles(v))
                     for v in (a, b)]
            print(f"{workload:<14} {name:<16} {cells[0]:>34} {cells[1]:>34} "
                  f"{worse:>+9.2%} {bound:>6.1%}  {word}")
        host = ["{:.1f}".format(statistics.median(
            r["detail"]["host_ref_loop_ms"] for r in runs))
            for runs in (runs_a, runs_b)]
        inputs = [{r["detail"]["job_list_digest"] for r in runs}
                  for runs in (runs_a, runs_b)]
        note = "" if inputs[0] == inputs[1] else \
            "; the sides ran DIFFERENT inputs (seeds differ)"
        print(f"{workload:<14} host reference loop: A {host[0]} ms, "
              f"B {host[1]} ms ({len(runs_a)} vs {len(runs_b)} runs){note}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", required=True, metavar="DIR")
    parser.add_argument("--b", nargs="+", required=True, metavar="DIR")
    args = parser.parse_args(argv)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
