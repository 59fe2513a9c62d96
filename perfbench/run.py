#!/usr/bin/env python3
"""One command for every number: ``python3 perfbench/run.py``.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1 | --traced] [--quick] [--out DIR]

Each workload runs in its own child interpreter (``PYTHONHASHSEED=0``,
``REPRO_LOCK_CHECK`` unset), has every job's output checked, and is
printed as one table row (``--trace 0``: the end-to-end metrics) or one
table column (``--trace 1``: the per-layer metrics), every metric by name
with its unit.  With a single ``--workload`` the last line of standard
output is the JSON object the benchmark contract asks for.  ``--out DIR``
also writes ``DIR/<workload>.json`` (what ``compare.py`` reads) and, for a
traced run, ``DIR/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The contract lets a run take 180 s; leave room to kill and report.
CHILD_TIMEOUT_S = 170
WORKLOADS = ("cold_optimize", "warm_execute", "serve_thread", "serve_process")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes: a smoke test of the harness, "
                             "not a measurement")
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/digests.json from this "
                             "commit's outputs")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


# ------------------------------------------------------------------- child
def _child(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    # One CPU for the interpreter and everything it forks: see
    # perfbench/README.md, "One CPU".
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.write_expected:
        from perfbench.workloads import write_expected
        write_expected()
        return 0
    from perfbench.harness import run_workload
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick, args.out)
    print(json.dumps(result), flush=True)
    return 0


# ------------------------------------------------------------------ parent
def _spawn(extra: list[str]) -> subprocess.CompletedProcess:
    """Run this file as a child in its own session, so that a timeout can
    take the child's shard processes down with it."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_LOCK_CHECK"}
    env["PYTHONHASHSEED"] = "0"
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", *extra],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        stdout, __ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return subprocess.CompletedProcess(process.args, process.returncode,
                                       stdout)


def _run_one(name: str, args: argparse.Namespace) -> dict:
    extra = ["--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        extra.append("--quick")
    if args.out:
        extra += ["--out", args.out]
    done = _spawn(extra)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _number(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _print_rows(results: list[dict]) -> None:
    """End to end: one row per workload."""
    names = list(results[0]["metrics"])
    units = {n: results[0]["metrics"][n]["unit"] for n in names}
    heads = [f"{n} [{units[n]}]" for n in names] + ["failed_share"]
    width = [max(len(h), 10) for h in heads]
    print(f"{'workload':<14} " + "  ".join(
        f"{h:>{w}}" for h, w in zip(heads, width)))
    for result in results:
        cells = [_number(result["metrics"][n]["value"]) for n in names]
        cells.append(_number(result["failed"] / result["attempted"]))
        print(f"{result['workload']:<14} " + "  ".join(
            f"{c:>{w}}" for c, w in zip(cells, width)))


def _print_columns(results: list[dict]) -> None:
    """Per layer: one column per workload (there are too many metrics
    for a row), then the layers that own the traced round's wall."""
    names = list(results[0]["metrics"])
    label = max(len(n) for n in names) + 8
    print(f"{'metric [unit]':<{label}} " + " ".join(
        f"{r['workload']:>14}" for r in results))
    for name in names:
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':<{label}} " + " ".join(
            f"{_number(r['metrics'][name]['value']):>14}" for r in results))
    for result in results:
        detail = result["detail"]
        top = ", ".join(f"{layer} {share:.1%}" for layer, share in
                        list(detail["layers"].items())[:3])
        tail = result["metrics"]["client.tail_percentile"]["value"]
        print(f"{result['workload']}: wall by layer (self time): {top}; "
              f"tail is p{tail:.1f}")
        for kind, counts in detail["per_kind"].items():
            print(f"  {kind}: {counts['plans_enumerated']:,.0f} partial "
                  f"plans, {counts['lock_acquires']:,.0f} lock "
                  f"acquisitions per job")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    if args.seconds is None and args.quick:
        args.seconds = 0.0      # the minimum number of rounds, no more
    elif args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            args.seconds = float(json.load(handle)["run_seconds"])
    if args.child:
        return _child(args)
    if args.write_expected:
        done = _spawn(["--write-expected"])
        print(done.stdout, end="")
        return done.returncode
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [_run_one(name, args) for name in names]
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for result in results:
            suffix = ".traced.json" if result["trace"] else ".json"
            with open(out / (result["workload"] + suffix), "w",
                      encoding="utf-8") as handle:
                json.dump(result, handle, indent=1)
                handle.write("\n")
    (_print_columns if args.trace else _print_rows)(results)
    if len(results) == 1:
        print(json.dumps({key: results[0][key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
