"""The four workloads: seeded inputs, job lists, set-up and job execution.

A workload is a *job list* (one round's jobs, in seeded order) plus a
*session* that can run those jobs against the program:

``cold_optimize``  a fresh ``RheemContext()`` per job — the optimizer does
                   nearly all the work;
``warm_execute``   one long-lived context with result reuse off — plans
                   come from the plan cache, engines do the work;
``serve_thread``   job documents through the WSGI app over a 2-worker
                   thread-backend ``JobServer`` from 2 closed-loop clients;
``serve_process``  the identical document stream over the process backend.

Seeds: ``seed % DATA_VARIANTS`` selects the generated data (so every
output can be held against a committed expectation), the full seed drives
job order, the pick of hot documents, the never-seen constants of fresh
documents and the choice of bad documents.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import io
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import RheemContext
from repro.apps import ML4all, sgd_hinge
from repro.apps.dataciv import q5_quanta
from repro.apps.xdb import crocopr_quanta
from repro.core.udf import Udf
from repro.server import JobServer, make_wsgi_app
from repro.trace import Tracer
from repro.workloads import TpchLite, labelled_points, zipf_lines
from repro.workloads.graphs import BYTES_PER_EDGE, community_edges
from repro.workloads.points import DATASETS
from repro.workloads.text import BYTES_PER_LINE, FULL_SIM_LINES
from repro.workloads.tpch import SF1_ROWS, parse_row

from . import reference
from .recorder import Recorder, instrument_context, instrument_serving

DATA_VARIANTS = 8
WORKLOADS = ("cold_optimize", "warm_execute", "serve_thread", "serve_process")
_now = time.perf_counter


@dataclass(frozen=True)
class Sizing:
    """How much one run does.  ``QUICK`` exists for the harness's own
    tests: same kinds, same checks, toy sizes, a pruned SGD search."""

    name: str
    #: Rounds a window runs at least (cold_optimize always overshoots its
    #: window: one ``sgd`` job alone takes longer than it).
    min_rounds: dict[str, int]
    #: Set-ups per run; ``setup_s`` is their median.  One where a set-up
    #: costs more than the measured window (warm_execute pays a cold SGD
    #: enumeration), several where it is cheap enough to be noisy.
    setup_repeats: dict[str, int]
    warm_tpch_scale: float
    warm_lines: int
    warm_edges: int
    warm_vertices: int
    warm_sgd_iterations: int
    #: ``None`` searches every platform (322,733 partial plans, ~11 s);
    #: the quick subset finds the same plan in 2,673.
    sgd_platforms: frozenset[str] | None
    serve_round_jobs: int


FULL = Sizing(
    name="full",
    min_rounds={"cold_optimize": 3, "warm_execute": 4,
                "serve_thread": 6, "serve_process": 6},
    setup_repeats={"cold_optimize": 5, "warm_execute": 1,
                   "serve_thread": 3, "serve_process": 2},
    warm_tpch_scale=50.0, warm_lines=60_000, warm_edges=10_000,
    warm_vertices=1_000, warm_sgd_iterations=300, sgd_platforms=None,
    serve_round_jobs=150)

QUICK = Sizing(
    name="quick",
    min_rounds=dict.fromkeys(WORKLOADS, 1),
    setup_repeats=dict.fromkeys(WORKLOADS, 1),
    warm_tpch_scale=2.0, warm_lines=3_000, warm_edges=2_000,
    warm_vertices=300, warm_sgd_iterations=30,
    sgd_platforms=frozenset({"pystreams", "flinklite", "driver"}),
    serve_round_jobs=50)


def _sha(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


# =========================================================== library kinds
class Kind:
    """One job kind of the in-process workloads.

    ``generate`` makes the inputs and the expectation once per set-up;
    ``place`` puts the inputs into a context; ``build`` makes a fresh plan
    (operator objects are single-use); ``check`` judges one output.
    """

    name = ""
    execute_kwargs: dict[str, Any] = {}
    #: Source records one job reads (numerator of platforms.records_per_s).
    records = 0
    inputs_digest = ""

    def generate(self, variant: int) -> None:
        raise NotImplementedError

    def place(self, ctx: RheemContext) -> None:
        """Nothing, for kinds whose inputs are collections in the plan."""

    def build(self, ctx: RheemContext):
        raise NotImplementedError

    def check(self, output: Any) -> bool:
        raise NotImplementedError


class GoldenKind(Kind):
    """A kind checked against a committed digest (see reference.py)."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.variant = 0

    def canonical(self, output: Any) -> Any:
        return output

    def check(self, output: Any) -> bool:
        expected = reference.load_digests()[f"{self.tag}.{self.name}"]
        return reference.digest(self.canonical(output)) \
            == expected[self.variant]


class Q5(Kind):
    """TPC-H Q5 over three stores (25 operators)."""

    name = "q5"

    def __init__(self, scale_factor: float, actual_scale: float = 1.0):
        self.sf = scale_factor
        self.actual_scale = actual_scale

    def generate(self, variant: int) -> None:
        self.tpch = TpchLite(self.sf, seed=47 + variant,
                             actual_scale=self.actual_scale)
        tables = {name: self.tpch.table(name) for name in SF1_ROWS}
        self.expected = reference.q5_tail(reference.q5_rows(tables),
                                          "revenue")
        self.records = sum(len(rows) for rows in tables.values())
        self.inputs_digest = _sha(*(repr(tables[name])
                                    for name in sorted(tables)))

    def place(self, ctx: RheemContext) -> None:
        self.tpch.place_for_q5(ctx)

    def build(self, ctx: RheemContext):
        return q5_quanta(ctx, self.sf, "polystore")

    def check(self, output: Any) -> bool:
        return reference.matches(output, self.expected)


class Wordcount(Kind):
    """Table 1's WordCount (split selectivity 9 declared on the UDF)."""

    name = "wordcount"
    path = "hdfs://perfbench/abstracts.txt"

    def __init__(self, num_lines: int, percent: float) -> None:
        self.num_lines = num_lines
        self.percent = percent

    def generate(self, variant: int) -> None:
        self.lines = zipf_lines(self.num_lines, seed=17 + variant)
        self.expected = reference.wordcount_reference(self.lines)
        self.records = len(self.lines)
        self.inputs_digest = _sha("\n".join(self.lines))

    def place(self, ctx: RheemContext) -> None:
        ctx.vfs.write(self.path, self.lines, bytes_per_record=BYTES_PER_LINE,
                      sim_factor=FULL_SIM_LINES * self.percent / 100.0
                      / len(self.lines))

    def build(self, ctx: RheemContext):
        split = Udf(lambda line: line.split(), selectivity=9.0, name="split")
        return (ctx.read_text_file(self.path)
                .flat_map(split, name="split-words", bytes_per_record=10)
                .map(lambda w: (w, 1), name="pair", bytes_per_record=14)
                .reduce_by_key(lambda t: t[0],
                               lambda a, b: (a[0], a[1] + b[1])))

    def check(self, output: Any) -> bool:
        return reference.matches_unordered(output, self.expected)


class WideMerge(GoldenKind):
    """8 x (collection -> map -> filter) unioned, then distinct: a wide
    lossless enumeration with no loop."""

    name = "wide_merge"

    def generate(self, variant: int) -> None:
        rng = random.Random(1_000 + variant)
        self.branches = [[rng.randrange(1_000) for __ in range(100)]
                         for __ in range(8)]
        self.records = 800
        self.inputs_digest = _sha(repr(self.branches))
        self.variant = variant

    def build(self, ctx: RheemContext):
        merged = None
        for i, data in enumerate(self.branches):
            branch = (ctx.load_collection(data)
                      .map(lambda x, __i=i: x + __i, name=f"shift{i}")
                      .filter(lambda x: x % 3 != 0, name=f"keep{i}"))
            merged = branch if merged is None else merged.union(branch)
        return merged.distinct()

    def canonical(self, output: Any) -> Any:
        return sorted(output)


class Chain100(GoldenKind):
    """A source and 100 identity maps: the beam path above 48 operators."""

    name = "chain100"

    def generate(self, variant: int) -> None:
        rng = random.Random(2_000 + variant)
        self.data = [rng.randrange(1_000_000) for __ in range(200)]
        self.records = len(self.data)
        self.inputs_digest = _sha(repr(self.data))
        self.variant = variant

    def build(self, ctx: RheemContext):
        dq = ctx.load_collection(self.data)
        for i in range(100):
            dq = dq.map(lambda x: x, name=f"id{i}")
        return dq


class Crocopr(GoldenKind):
    """Table 1's cross-community PageRank, 10 iterations."""

    name = "crocopr"
    paths = ("hdfs://perfbench/communityA.txt",
             "hdfs://perfbench/communityB.txt")

    def __init__(self, tag: str, edges: int, vertices: int) -> None:
        super().__init__(tag)
        self.edges = edges
        self.vertices = vertices

    def generate(self, variant: int) -> None:
        self.lines = [
            [f"{a} {b}" for a, b in community_edges(
                community, num_edges=self.edges, num_vertices=self.vertices,
                seed=37 + variant)]
            for community in (0, 1)]
        self.records = sum(len(lines) for lines in self.lines)
        self.inputs_digest = _sha(*("\n".join(l) for l in self.lines))
        self.variant = variant

    def place(self, ctx: RheemContext) -> None:
        for path, lines in zip(self.paths, self.lines):
            ctx.vfs.write(path, lines, bytes_per_record=BYTES_PER_EDGE,
                          sim_factor=100e6 / BYTES_PER_EDGE / len(lines))

    def build(self, ctx: RheemContext):
        return crocopr_quanta(ctx, *self.paths, iterations=10)


class Sgd(GoldenKind):
    """Table 1's SGD (hinge loss over the HIGGS stand-in)."""

    name = "sgd"
    path = "hdfs://perfbench/points.csv"

    def __init__(self, tag: str, iterations: int,
                 platforms: frozenset[str] | None) -> None:
        super().__init__(tag)
        self.iterations = iterations
        if platforms is not None:
            self.execute_kwargs = {"allowed_platforms": set(platforms)}

    def generate(self, variant: int) -> None:
        self.spec = DATASETS["higgs"]
        self.lines, __ = labelled_points(1_200, self.spec.dimensions,
                                         seed=23 + variant)
        self.records = len(self.lines)
        self.inputs_digest = _sha("\n".join(self.lines))
        self.variant = variant

    def place(self, ctx: RheemContext) -> None:
        ctx.vfs.write(self.path, self.lines,
                      sim_factor=self.spec.sim_points / len(self.lines),
                      bytes_per_record=self.spec.bytes_per_point)

    def build(self, ctx: RheemContext):
        return ML4all(ctx).training_quanta(
            self.path, sgd_hinge(self.spec.dimensions),
            iterations=self.iterations, sample_size=10)


def cold_kinds(sizing: Sizing) -> list[Kind]:
    """The generators' default tiny data: the optimizer is the cost."""
    return [Q5(0.05), WideMerge("cold"), Chain100("cold"),
            Crocopr("cold", 2_500, 300), Wordcount(1_500, 10.0),
            Sgd("cold", 100, sizing.sgd_platforms)]


def warm_kinds(sizing: Sizing) -> list[Kind]:
    """Inputs large enough that engines, executor and scheduler are the
    cost (``power_law_edges`` is quadratic: 10k edges, not 40k)."""
    tag = "warm" if sizing is FULL else f"warm-{sizing.name}"
    return [Q5(0.1, sizing.warm_tpch_scale),
            Wordcount(sizing.warm_lines, 100.0),
            Crocopr(tag, sizing.warm_edges, sizing.warm_vertices),
            Sgd(tag, sizing.warm_sgd_iterations, sizing.sgd_platforms)]


# ====================================================== serving documents
CORPUS_PATH = "hdfs://perfbench/corpus.txt"
#: Simulated lines per generated corpus line.  Small on purpose: every
#: fresh wordcount document admits its intermediates to the result store,
#: and at 500 the default 256 MB budget overflows after ~50 of them — the
#: store then evicts the hot documents' entries and the workload turns
#: into a different one mid-window (perfbench/README.md, "Findings").
CORPUS_SIM_FACTOR = 25.0
SERVE_SF = 0.01
STOP_WORDS = ("w3", "w5", "w7", "w11")
Q5_TAILS = ("revenue", "count", "supplier", "total")


def wordcount_document(stop: str) -> dict:
    """WordCount with a filter (6 operators with its sink)."""
    return {"operators": [
        {"name": "lines", "kind": "textfile_source", "path": CORPUS_PATH},
        {"name": "words", "kind": "flatmap", "input": "lines",
         "expr": "x.split()"},
        {"name": "kept", "kind": "filter", "input": "words",
         "expr": f"x != {stop!r}"},
        {"name": "pairs", "kind": "map", "input": "kept", "expr": "(x, 1)"},
        {"name": "counts", "kind": "reduceby", "input": "pairs",
         "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"},
    ], "sink": {"name": "counts"}}


def q5_document(tail: str, tag: int | None = None) -> dict:
    """``q5_quanta``'s five-way polystore join as a job document.

    The four ``tail`` variants share everything up to the same-nation
    filter and differ in the final aggregate; ``tag`` puts a constant into
    the ``revenue`` tail's last map (a *fresh* document: new plan, but its
    joins are already in the result store).
    """
    n_customer = SF1_ROWS["customer"] * SERVE_SF
    n_orders = SF1_ROWS["orders"] * SERVE_SF
    n_supplier = SF1_ROWS["supplier"] * SERVE_SF

    def parsed(table: str, store: str, width: int) -> list[dict]:
        return [{"name": f"{table}_raw", "kind": "textfile_source",
                 "path": f"{store}://tpch/{table}.csv"},
                {"name": table, "kind": "map", "input": f"{table}_raw",
                 "expr": f"parse_row({table!r}, x)",
                 "bytes_per_record": width}]

    def join(name: str, left: str, right: str, key: str,
             selectivity: float) -> dict:
        return {"name": name, "kind": "join", "left": left, "right": right,
                "left_key": f"x[{key!r}]", "right_key": f"x[{key!r}]",
                "selectivity": selectivity}

    operators = [
        {"name": "region", "kind": "table_source", "table": "region"},
        {"name": "asia", "kind": "filter", "input": "region",
         "expr": "x['name'] == 'ASIA'"},
        *parsed("nation", "file", 60),
        join("nation_j", "nation", "asia", "regionkey", 0.2),
        {"name": "nation_asia", "kind": "map", "input": "nation_j",
         "expr": "{'nationkey': x[0]['nationkey'], 'nname': x[0]['name']}",
         "bytes_per_record": 40},
        {"name": "customer", "kind": "table_source", "table": "customer"},
        join("cust_j", "customer", "nation_asia", "nationkey", 1.0 / 25),
        {"name": "cust_asia", "kind": "map", "input": "cust_j",
         "expr": "{'custkey': x[0]['custkey'], "
                 "'cnationkey': x[0]['nationkey'], 'nname': x[1]['nname']}",
         "bytes_per_record": 48},
        *parsed("orders", "hdfs", 100),
        {"name": "orders_1994", "kind": "filter", "input": "orders",
         "expr": "x['orderyear'] == 1994"},
        join("orders_j", "orders_1994", "cust_asia", "custkey",
             1.0 / n_customer),
        {"name": "orders_asia", "kind": "map", "input": "orders_j",
         "expr": "{'orderkey': x[0]['orderkey'], "
                 "'cnationkey': x[1]['cnationkey'], 'nname': x[1]['nname']}",
         "bytes_per_record": 48},
        *parsed("lineitem", "hdfs", 120),
        join("line_j", "lineitem", "orders_asia", "orderkey",
             1.0 / n_orders),
        {"name": "line_asia", "kind": "map", "input": "line_j",
         "expr": "{'suppkey': x[0]['suppkey'], 'revenue': "
                 "x[0]['extendedprice'] * (1.0 - x[0]['discount']), "
                 "'cnationkey': x[1]['cnationkey'], 'nname': x[1]['nname']}",
         "bytes_per_record": 56},
        {"name": "supplier", "kind": "table_source", "table": "supplier"},
        join("supp_j", "line_asia", "supplier", "suppkey", 1.0 / n_supplier),
        {"name": "same_nation", "kind": "filter", "input": "supp_j",
         "expr": "x[0]['cnationkey'] == x[1]['nationkey']"},
    ]
    sum_pairs = {"name": "agg", "kind": "reduceby", "input": "pair",
                 "key": "x[0]", "reducer": "(a[0], a[1] + b[1])"}
    if tail == "revenue":
        pair, reducer = "(x[0]['nname'], x[0]['revenue'])", \
            sum_pairs["reducer"]
        if tag is not None:
            pair = f"(x[0]['nname'], x[0]['revenue'], {tag})"
            reducer = "(a[0], a[1] + b[1], a[2])"
        operators += [
            {"name": "pair", "kind": "map", "input": "same_nation",
             "expr": pair, "bytes_per_record": 32},
            {**sum_pairs, "reducer": reducer},
            {"name": "out", "kind": "sort", "input": "agg", "key": "-x[1]"}]
    elif tail == "count":
        operators += [
            {"name": "pair", "kind": "map", "input": "same_nation",
             "expr": "(x[0]['nname'], 1)", "bytes_per_record": 32},
            sum_pairs,
            {"name": "out", "kind": "sort", "input": "agg", "key": "x[0]"}]
    elif tail == "supplier":
        operators += [
            {"name": "pair", "kind": "map", "input": "same_nation",
             "expr": "(x[0]['suppkey'], x[0]['revenue'])",
             "bytes_per_record": 32},
            sum_pairs,
            {"name": "out", "kind": "sort", "input": "agg", "key": "-x[1]"}]
    elif tail == "total":
        operators += [
            {"name": "pair", "kind": "map", "input": "same_nation",
             "expr": "x[0]['revenue']", "bytes_per_record": 8},
            {"name": "out", "kind": "reduce", "input": "pair",
             "reducer": "a + b"}]
    else:
        raise ValueError(f"unknown Q5 tail {tail!r}")
    return {"operators": operators, "sink": {"name": "out"}}


def bad_document(flavour: int) -> dict:
    """A document the server must refuse with a structured 400."""
    good = wordcount_document("w3")
    if flavour == 0:    # unknown operator kind
        return {"operators": [{"name": "a", "kind": "teleport"}],
                "sink": {"name": "a"}}
    if flavour == 1:    # dangling input
        return {"operators": [{"name": "a", "kind": "map",
                               "input": "nowhere", "expr": "x"}],
                "sink": {"name": "a"}}
    return {"operators": good["operators"]}    # missing sink


@dataclass
class ServeData:
    """The inputs every serving context holds, and what they imply."""

    variant: int

    def __post_init__(self) -> None:
        self.tpch = TpchLite(SERVE_SF, seed=47 + self.variant)
        self.corpus = zipf_lines(400, seed=17 + self.variant)
        tables = {name: self.tpch.table(name) for name in SF1_ROWS}
        self.q5_rows = reference.q5_rows(tables)
        self.inputs_digest = _sha("\n".join(self.corpus),
                                  *(repr(tables[n]) for n in sorted(tables)))

    def place(self, ctx: RheemContext) -> None:
        self.tpch.place_for_q5(ctx)
        ctx.vfs.write(CORPUS_PATH, self.corpus,
                      sim_factor=CORPUS_SIM_FACTOR)


def serve_context(variant: int, recorder: Recorder | None) -> RheemContext:
    """Context factory of the serving workloads (module level, so the
    process backend can run it inside each shard)."""
    ctx = RheemContext()
    ServeData(variant).place(ctx)
    if recorder is not None:
        instrument_context(ctx, recorder)
    return ctx


# ==================================================================== jobs
@dataclass
class Job:
    """One entry of a round's job list."""

    kind: str
    #: Library workloads: nothing.  Serving: the document to POST.
    document: dict | None = None
    #: Judges the job's result: ``(status code or None, output) -> bool``.
    check: Callable[[int | None, Any], bool] | None = None


@dataclass
class Sample:
    """What the load generator saw of one job."""

    kind: str
    wall_s: float
    ok: bool
    sim_s: float = 0.0
    #: Traced runs only: the job's merged span tree (recorder.Node).
    tree: Any = None
    job_id: str = ""
    #: Takes this job's times to reference host speed (set by the harness
    #: from the host probes of the job's window).
    scale: float = 1.0


class Session:
    """One set-up of one workload: build it, run jobs against it, tear it
    down.  ``timings`` holds the set-up's phases in seconds."""

    clients = 1

    def __init__(self, seed: int, sizing: Sizing,
                 recorder: Recorder | None) -> None:
        self.seed = seed
        self.variant = seed % DATA_VARIANTS
        self.sizing = sizing
        self.recorder = recorder
        self.timings = dict.fromkeys(
            ("data", "context", "server_start", "warm"), 0.0)
        #: Called after every timed set-up phase, outside its time (the
        #: harness probes the host's speed there).
        self.after_phase: Callable[[], None] = lambda: None

    # The kinds whose wall times enter job_wall_gm_ms, in report order.
    kinds: tuple[str, ...] = ()

    def generate(self) -> None:
        """Make the seeded inputs and their expectations (no context, no
        server: enough for :meth:`job_list`)."""
        raise NotImplementedError

    def setup(self) -> None:
        """:meth:`generate`, then everything up to the first timed job."""
        raise NotImplementedError

    def job_list(self, round_index: int) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job) -> Sample:
        raise NotImplementedError

    def once_per_window(self) -> list[Job]:
        """Jobs too long to repeat: run once, after the first round."""
        return []

    def enable_tracing(self, recorder: Recorder) -> None:
        """Switch to the traced phase: from here on jobs run under the
        program's tracer and the benchmark's recorder."""
        self.recorder = recorder

    def teardown(self) -> None:
        pass

    def pids(self) -> list[int]:
        """Other processes doing this workload's work (shard processes)."""
        return []

    def metrics_snapshot(self) -> dict | None:
        """The program's registry, where one outlives the jobs."""
        return None

    def job_table_len(self) -> int:
        return 0

    def records(self, kind: str) -> int:
        """Source records one job of ``kind`` makes the engines read (0
        where they only replay stored results)."""
        return 0

    def inputs_digest(self) -> str:
        raise NotImplementedError

    def job_list_digest(self) -> str:
        """Identity of round 0's inputs: data, order and documents."""
        jobs = self.job_list(0)
        return _sha(self.inputs_digest(), json.dumps(
            [[job.kind, job.document] for job in jobs], sort_keys=True))

    def _timed(self, phase: str, fn: Callable[[], Any]) -> Any:
        started = _now()
        try:
            return fn()
        finally:
            self.timings[phase] += _now() - started
            self.after_phase()


# ------------------------------------------------------------- in-process
class LibrarySession(Session):
    """Jobs through ``DataQuanta.execute()`` on the calling thread; a
    round is one job of each kind, in seeded order."""

    #: Kinds too long to repeat: one job per window instead of per round.
    once: tuple[str, ...] = ()

    def __init__(self, seed, sizing, recorder, kinds: list[Kind]) -> None:
        super().__init__(seed, sizing, recorder)
        self._kinds = {kind.name: kind for kind in kinds}
        self.kinds = tuple(self._kinds)
        self._counter = 0

    def generate(self) -> None:
        for kind in self._kinds.values():
            kind.generate(self.variant)

    def inputs_digest(self) -> str:
        return _sha(*(k.inputs_digest for k in self._kinds.values()))

    def records(self, kind: str) -> int:
        return self._kinds[kind].records

    def job_list(self, round_index: int) -> list[Job]:
        names = [name for name in self.kinds if name not in self.once]
        random.Random(self.seed).shuffle(names)
        return [Job(name) for name in names]

    def once_per_window(self) -> list[Job]:
        return [Job(name) for name in self.once]

    def _context_for(self, kind: Kind) -> RheemContext:
        raise NotImplementedError

    def _traced(self, root: Any, ctx: RheemContext) -> None:
        """Hook: one traced job has just finished on ``ctx``."""

    def run(self, job: Job) -> Sample:
        kind = self._kinds[job.kind]
        ctx = self._context_for(kind)
        quanta = kind.build(ctx)
        kwargs = dict(kind.execute_kwargs)
        self._counter += 1
        job_id = f"{job.kind}-{self._counter}"
        recorder = self.recorder
        if recorder is None:
            started = _now()
            result = quanta.execute(**kwargs)
            wall = _now() - started
            tree = None
        else:
            # A per-job tracer: spans of one job never mix with the next
            # one's, and its epoch (taken at construction) places them on
            # the recorder's clock.
            epoch = _now()
            tracer = Tracer()
            with recorder.span("client.job") as root:
                result = quanta.execute(tracer=tracer, **kwargs)
            wall = root.end - root.start
            recorder.adopt_program_spans(
                root, [r.to_json() for r in tracer.roots], epoch)
            self._traced(root, ctx)
            tree = root
        ok = kind.check(result.output)
        return Sample(job.kind, wall, ok, result.runtime, tree, job_id)


class ColdOptimize(LibrarySession):
    """A fresh context per job; one round is the five sub-2-second kinds.
    ``sgd`` (one job, ~11 s) runs once per window, after the first round,
    and is left out of ``jobs_per_s``."""

    once = ("sgd",)

    def __init__(self, seed, sizing, recorder) -> None:
        super().__init__(seed, sizing, recorder, cold_kinds(sizing))

    def setup(self) -> None:
        self._timed("data", self.generate)
        # Nothing to warm: contexts are per job.  Building one is the
        # whole of a cold client's set-up, so that is what is timed.
        self._timed("context", RheemContext)

    def _context_for(self, kind: Kind) -> RheemContext:
        ctx = RheemContext()
        kind.place(ctx)
        if self.recorder is not None:
            instrument_context(ctx, self.recorder)
        return ctx

    def _traced(self, root: Any, ctx: RheemContext) -> None:
        # The job's registry dies with its context: keep what it counted.
        root.attrs["metrics"] = ctx.metrics.snapshot()


class WarmExecute(LibrarySession):
    """One long-lived context, result reuse off (the plan-warm path):
    each kind is submitted once in set-up, then its plan objects are
    rebuilt per job and the plan cache answers."""

    def __init__(self, seed, sizing, recorder) -> None:
        super().__init__(seed, sizing, recorder, warm_kinds(sizing))
        self.ctx: RheemContext | None = None

    def setup(self) -> None:
        self._timed("data", self.generate)
        self.ctx = self._timed(
            "context", lambda: RheemContext(config={"result_reuse": False}))
        for kind in self._kinds.values():
            self._timed("data", lambda: kind.place(self.ctx))
        for kind in self._kinds.values():
            self._timed("warm", lambda: kind.build(self.ctx).execute(
                **kind.execute_kwargs))

    def enable_tracing(self, recorder: Recorder) -> None:
        assert self.ctx is not None
        self.recorder = recorder
        instrument_context(self.ctx, recorder)

    def _context_for(self, kind: Kind) -> RheemContext:
        assert self.ctx is not None
        return self.ctx

    def metrics_snapshot(self) -> dict | None:
        return None if self.ctx is None else self.ctx.metrics.snapshot()


# ---------------------------------------------------------------- serving
def _post_environ(body: bytes) -> dict[str, Any]:
    return {"REQUEST_METHOD": "POST", "PATH_INFO": "/jobs",
            "QUERY_STRING": "", "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body)}


def check_reply(expect_ok: bool, expected: Any, ordered: bool,
                status: int | None, reply: Any) -> bool:
    """Judge one HTTP reply.

    A good document must answer 200 with the expected output.  A bad one
    must answer 400 with a ``kind``: a 200, a 500, a traceback or an
    unstructured body all count as failures.
    """
    if not isinstance(reply, dict):
        return False
    if not expect_ok:
        return (status == 400 and reply.get("status") == "error"
                and isinstance(reply.get("kind"), str))
    if status != 200 or reply.get("status") != "ok":
        return False
    output = reply.get("output")
    if ordered:
        return reference.matches(output, expected)
    return reference.matches_unordered(output, expected)


class ServeSession(Session):
    """Documents POSTed to the WSGI app by 2 closed-loop client threads."""

    clients = 2
    kinds = ("hot", "fresh")

    def __init__(self, seed, sizing, recorder) -> None:
        super().__init__(seed, sizing, recorder)
        self.server: JobServer | None = None
        self.app = None
        self._patches = None
        self._hot: list[Job] = []

    # -- documents and their expectations
    def _wordcount_job(self, kind: str, stop: str) -> Job:
        expected = reference.wordcount_reference(self.data.corpus, stop)
        return Job(kind, wordcount_document(stop), functools.partial(
            check_reply, True, expected, False))

    def _q5_job(self, kind: str, tail: str, tag: int | None = None) -> Job:
        expected = reference.q5_tail(self.data.q5_rows, tail, tag)
        return Job(kind, q5_document(tail, tag), functools.partial(
            check_reply, True, expected, True))

    def generate(self) -> None:
        self.data = ServeData(self.variant)
        self._hot = ([self._wordcount_job("hot", s) for s in STOP_WORDS]
                     + [self._q5_job("hot", t) for t in Q5_TAILS])

    def inputs_digest(self) -> str:
        return self.data.inputs_digest

    def job_list(self, round_index: int) -> list[Job]:
        """90 % hot, 8 % fresh, 2 % bad, in seeded order.

        The order and the hot picks are the same every round; only the
        fresh documents' constants move on, because they have to be
        never-seen.  The seed shuffles a balanced multiset of hot shapes;
        fresh and bad documents are spread *evenly* through it at fixed
        places.  A fresh job costs ~20 hot ones and slows the other
        worker down while it runs, so where the fresh jobs fall decides
        how a round goes: left to the shuffle, that was most of the
        difference between one seed and the next.
        """
        total = self.sizing.serve_round_jobs
        n_fresh = round(0.08 * total)
        n_bad = max(1, round(0.02 * total))
        rng = random.Random(self.seed)
        jobs = [self._hot[i % len(self._hot)]
                for i in range(total - n_fresh - n_bad)]
        rng.shuffle(jobs)
        fresh = []
        for i in range(n_fresh):
            serial = round_index * n_fresh + i
            if i % 2 == 0:
                fresh.append(self._wordcount_job(
                    "fresh", f"never-{self.seed}-{serial}"))
            else:
                fresh.append(self._q5_job(
                    "fresh", "revenue", tag=self.seed * 1_000_000 + serial))
        bad = [Job("bad", bad_document(rng.randrange(3)),
                   functools.partial(check_reply, False, None, False))
               for __ in range(n_bad)]
        for extra in (fresh, bad):
            step = (len(jobs) + len(extra)) / len(extra)
            for i, job in enumerate(extra):
                jobs.insert(int((i + 0.5) * step), job)
        return jobs

    # -- lifecycle
    def _start_server(self) -> JobServer:
        ctx = self._timed("context", RheemContext)
        self._timed("data", lambda: self.data.place(ctx))
        if self.recorder is not None:
            instrument_context(ctx, self.recorder)
        return self._timed("server_start", lambda: JobServer(
            ctx, env={"parse_row": parse_row}, workers=2, queue_size=16,
            tracing=self.recorder is not None))

    def setup(self) -> None:
        self._timed("data", self.generate)
        if self.recorder is not None:
            self._patches = instrument_serving(self.recorder)
        self.server = self._start_server()
        if self.recorder is not None:
            self.recorder.instrument_server(self.server)
        self.app = make_wsgi_app(self.server)
        for job in self._hot:
            self._timed("warm", lambda: self.server.warm(job.document))

    def enable_tracing(self, recorder: Recorder) -> None:
        """A second set-up: ``tracing`` is fixed when a server is built,
        and shards must fork after the wrappers are in place."""
        self.teardown()
        self.recorder = recorder
        self.timings = dict.fromkeys(self.timings, 0.0)
        self.setup()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown(drain=True)
            self.server = None
        if self._patches is not None:
            self._patches.undo()
            self._patches = None

    def metrics_snapshot(self) -> dict | None:
        return None if self.server is None else \
            self.server.metrics_snapshot()

    def job_table_len(self) -> int:
        assert self.server is not None
        return sum(self.server.snapshot()["states"].values())

    # -- one request
    def run(self, job: Job) -> Sample:
        body = json.dumps(job.document).encode()
        environ = _post_environ(body)
        status: list[str] = []

        def start_response(line: str, headers: list) -> None:
            status.append(line)

        recorder = self.recorder
        if recorder is None:
            started = _now()
            chunks = self.app(environ, start_response)
            wall = _now() - started
            root = None
        else:
            with recorder.span("server.http") as root:
                chunks = self.app(environ, start_response)
            wall = root.end - root.start
        # Parsing and checking the reply is the client's think time:
        # inside the round, outside the job's wall.
        try:
            reply = json.loads(b"".join(chunks))
            code = int(status[0].split()[0])
        except (ValueError, IndexError):
            reply, code = None, None
        job_id = ""
        if root is not None and isinstance(reply, dict):
            job_id = recorder.merge_serving_tree(root, reply)
        assert job.check is not None
        ok = job.check(code, reply)
        # A reply that passed its check is a dict; a refusal has no runtime.
        sim = float(reply.get("runtime", 0.0)) if ok else 0.0
        return Sample(job.kind, wall, ok, sim, root, job_id)


class ServeThread(ServeSession):
    """Both workers share one context under the GIL."""


class ServeProcess(ServeSession):
    """The same stream; each of the 2 workers is a process holding its
    own context replica behind a pipe."""

    def _start_server(self) -> JobServer:
        factory = functools.partial(serve_context, self.variant,
                                    self.recorder)
        # The constructor only forks: each shard builds its context and
        # places its data on its own, and the first warm-up waits for it.
        return self._timed("server_start", lambda: JobServer(
            backend="process", context_factory=factory,
            env={"parse_row": parse_row}, workers=2, queue_size=16,
            tracing=self.recorder is not None))

    def pids(self) -> list[int]:
        assert self.server is not None
        return [shard["pid"] for shard in self.server.snapshot()["shards"]
                if shard["pid"] is not None]


SESSIONS: dict[str, type[Session]] = {
    "cold_optimize": ColdOptimize,
    "warm_execute": WarmExecute,
    "serve_thread": ServeThread,
    "serve_process": ServeProcess,
}


def run_round(session: Session, jobs: list[Job],
              cpu_clock: Callable[[], float] = time.process_time,
              between: Callable[[], None] = lambda: None,
              ) -> tuple[list[Sample], float, float]:
    """Run one job list closed-loop; returns samples, wall and CPU seconds.

    ``between`` (the harness's host probe) runs after every job of a
    single client and after the round of two; its time is in neither the
    wall nor the CPU.  Two clients draw from one queue: each sends the
    list's next job when its previous one has been answered, so jobs
    start in list order whichever client is held up by a long one.
    """
    if session.clients == 1:
        samples, wall, cpu = [], 0.0, 0.0
        for job in jobs:
            cpu_before, started = cpu_clock(), _now()
            samples.append(session.run(job))
            wall += _now() - started
            cpu += cpu_clock() - cpu_before
            between()
        return samples, wall, cpu
    lanes: list[list[Sample]] = [[] for __ in range(session.clients)]
    errors: list[BaseException] = []
    queue = collections.deque(jobs)     # popleft() is thread-safe

    def client(lane: int) -> None:
        try:
            while True:
                try:
                    job = queue.popleft()
                except IndexError:
                    return
                lanes[lane].append(session.run(job))
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(lane,),
                                name=f"perfbench-client-{lane}")
               for lane in range(session.clients)]
    cpu_before, started = cpu_clock(), _now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall, cpu = _now() - started, cpu_clock() - cpu_before
    between()
    if errors:
        raise errors[0]
    return [s for lane in lanes for s in lane], wall, cpu


# ============================================================ golden files
def write_expected() -> None:
    """Regenerate ``expected/digests.json`` by running the program.

    Run it (``run.py --write-expected``) only on a commit whose outputs
    are known to be right: the digests are what later commits are held
    to.  SGD runs under the quick sizing's pruned search, which finds the
    same plan and the same weights in a hundredth of the time.
    """
    digests: dict[str, list[str]] = {}
    for kind in (*cold_kinds(QUICK), *warm_kinds(FULL), *warm_kinds(QUICK)):
        if not isinstance(kind, GoldenKind):
            continue
        if isinstance(kind, Sgd):
            kind.execute_kwargs = {
                "allowed_platforms": set(QUICK.sgd_platforms)}
        values = []
        for variant in range(DATA_VARIANTS):
            kind.generate(variant)
            ctx = RheemContext(config={"result_reuse": False})
            kind.place(ctx)
            output = kind.build(ctx).execute(**kind.execute_kwargs).output
            values.append(reference.digest(kind.canonical(output)))
        digests[f"{kind.tag}.{kind.name}"] = values
        print(f"{kind.tag}.{kind.name}: {len(values)} digests", flush=True)
    reference.DIGESTS_PATH.parent.mkdir(exist_ok=True)
    with open(reference.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
