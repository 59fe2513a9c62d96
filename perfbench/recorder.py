"""The benchmark's own span recorder, used in the traced run only.

The program is measured from outside: wrappers installed on instances and
on module or class attributes time calls into its public functions, and
the spans its own tracer records are adopted into the same tree.  Nothing
under ``src/`` knows about this file.

A span is a :class:`Node`: name, start, end (``time.perf_counter``
seconds), attributes and children.  Stacks are per thread, so a server
worker's spans form their own tree; that tree travels back to the client
inside the job's response (``_perfbench``) — which also carries it across
the pipe of the process backend — and is hung under the client's span for
the same job.

Boundaries crossed hundreds of thousands of times per job
(``cheapest_path``) are *aggregated*: one child node per enclosing span
holding the call count and the summed time, not one node per call.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Iterator

_now = time.perf_counter

#: Response key under which a worker's span tree reaches the client.
RESPONSE_KEY = "_perfbench"


class Node:
    """One recorded span."""

    __slots__ = ("name", "start", "end", "attrs", "children", "agg")

    def __init__(self, name: str, start: float, end: float = 0.0,
                 attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}
        self.children: list[Node] = []
        self.agg: dict[str, list[float]] | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    def walk(self) -> Iterator["Node"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Node | None":
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def to_wire(self) -> list:
        """A JSON- and pickle-friendly nested list."""
        return [self.name, self.start, self.end, self.attrs,
                [child.to_wire() for child in self.children]]

    @classmethod
    def from_wire(cls, wire: list) -> "Node":
        node = cls(wire[0], wire[1], wire[2], dict(wire[3]))
        node.children = [cls.from_wire(child) for child in wire[4]]
        return node

    @classmethod
    def from_program(cls, doc: dict, epoch: float) -> "Node":
        """A ``repro.trace.Span.to_json()`` document, moved onto the
        recorder's clock (``epoch``: when its tracer was constructed)."""
        start = epoch + doc["start"]
        node = cls(doc["name"], start, start + doc["duration"],
                   {**doc.get("attributes", {}), "src": "program"})
        node.children = [cls.from_program(child, epoch)
                         for child in doc.get("children", [])]
        return node


class _SpanHandle:
    __slots__ = ("_stack", "_node")

    def __init__(self, stack: list[Node], node: Node) -> None:
        self._stack = stack
        self._node = node

    def __enter__(self) -> Node:
        stack = self._stack
        if stack:
            stack[-1].children.append(self._node)
        stack.append(self._node)
        self._node.start = _now()
        return self._node

    def __exit__(self, *exc_info: Any) -> None:
        node = self._node
        node.end = _now()
        self._stack.pop()
        if node.agg:
            for name, (calls, total) in node.agg.items():
                node.children.append(Node(
                    name, node.start, node.start + total,
                    {"calls": int(calls), "aggregate": True}))
            node.agg = None


class Recorder:
    """Per-thread span stacks plus the few cross-thread hand-overs the
    serving workloads need."""

    def __init__(self) -> None:
        self._tls = threading.local()
        #: job id -> (start, end) of ``ProcessShard.run_job`` in the parent.
        self.pipe_times: dict[str, tuple[float, float]] = {}
        #: Worker count of the instrumented server (home-slot arithmetic).
        self.shard_count = 1

    def _stack(self) -> list[Node]:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def span(self, name: str) -> _SpanHandle:
        return _SpanHandle(self._stack(), Node(name, 0.0))

    # ---------------------------------------------------------- wrappers
    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` under one span per call."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` aggregated into the enclosing span: calls and summed
        time of the outermost calls (``multicast_tree`` calls
        ``cheapest_path``; the inner call is already inside the outer
        one's time)."""
        tls = self._tls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if getattr(tls, "counting", False):
                return fn(*args, **kwargs)
            tls.counting = True
            started = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - started
                tls.counting = False
                stack = getattr(tls, "stack", None)
                if stack:
                    top = stack[-1]
                    if top.agg is None:
                        top.agg = {}
                    entry = top.agg.get(name)
                    if entry is None:
                        top.agg[name] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed

        return wrapper

    def instrument_server(self, server: Any) -> None:
        """Time admission and the wait for the result on one
        ``JobServer`` instance, and keep the ``Job`` handle the client
        thread was given (queue wait, run time and shard slot are read
        from it once the reply is in)."""
        submit = server.submit

        @functools.wraps(submit)
        def admit(*args: Any, **kwargs: Any) -> Any:
            with self.span("server.admit"):
                job = submit(*args, **kwargs)
            self._tls.job = job
            return job

        server.submit = admit
        server.result = self.timed("server.wait", server.result)
        self.shard_count = server.workers

    # ------------------------------------------------------ tree merging
    def adopt_program_spans(self, root: Node, program_roots: list[dict],
                            epoch: float) -> None:
        """Hang the program tracer's spans under the wrapper spans that
        enclosed them: optimizer phases under the ``optimize`` call,
        ``executor.run`` under the ``Executor.execute`` call."""
        optimize = root.find("core.optimizer.optimize")
        execute = root.find("core.executor.execute")
        for doc in program_roots:
            node = Node.from_program(doc, epoch)
            if node.name.startswith("optimizer.") and optimize is not None:
                optimize.children.append(node)
            elif node.name.startswith("executor.") and execute is not None:
                execute.children.append(node)
            else:
                root.children.append(node)
        if optimize is None:
            return
        # The optimizer solves conversion paths while it enumerates (on a
        # plan-cache hit only static analysis asks for any), so the
        # aggregate belongs inside that phase, not beside it.
        host = next((c for name in ("optimizer.enumerate",
                                    "optimizer.analyze")
                     for c in optimize.children if c.name == name), None)
        if host is not None:
            paths = [c for c in optimize.children
                     if c.attrs.get("aggregate")]
            for node in paths:
                optimize.children.remove(node)
                host.children.append(node)

    def merge_serving_tree(self, root: Node, reply: dict) -> str:
        """Complete one request's tree from what came back with it.

        ``root`` is the client's ``server.http`` span.  Queue wait and
        run time come from the ``Job`` handle, the pipe round trip from
        the ``run_job`` wrapper, the worker's spans and the program's
        trace block from the reply (both are removed from it).  Returns
        the job id.
        """
        job = self._tls.job
        worker = reply.pop(RESPONSE_KEY, None)
        program = (reply.pop("trace", None) or {}).get("spans", [])
        if job.started_at is None or job.finished_at is None:
            return job.job_id       # refused at admission: it never ran
        parent = root.find("server.wait")
        # Job timestamps are time.monotonic(); on Linux that is the clock
        # perf_counter() reads too.
        parent.children.append(
            Node("server.queue_wait", job.submitted_at, job.started_at))
        run = Node("server.run", job.started_at, job.finished_at)
        parent.children.append(run)
        if job.shard_slot is not None and job.fingerprint is not None:
            root.attrs["shard"] = job.shard_slot
            root.attrs["home"] = \
                int(job.fingerprint[:16], 16) % self.shard_count
        pipe = self.pipe_times.pop(job.job_id, None)
        if pipe is not None:
            run.children.append(Node("server.pipe", *pipe))
            run = run.children[-1]
        if worker is not None:
            api = Node.from_wire(worker)
            run.children.append(api)
            # The job's tracer is constructed at admission on the thread
            # backend and just before the service call inside a shard.
            epoch = api.start if pipe is not None \
                else root.find("server.admit").start
            self.adopt_program_spans(api, program, epoch)
        return job.job_id


# ----------------------------------------------------------- installation
def instrument_context(ctx: Any, recorder: Recorder) -> None:
    """Shadow one context's public entry points with timing wrappers
    (instance attributes: no other context is affected)."""
    ctx.optimize = recorder.timed("core.optimizer.optimize", ctx.optimize)
    ctx.plan_cache.key_for = recorder.timed("core.plancache.key",
                                            ctx.plan_cache.key_for)
    ctx.graph.cheapest_path = recorder.counted("core.channels.path",
                                               ctx.graph.cheapest_path)
    ctx.graph.multicast_tree = recorder.counted("core.channels.path",
                                                ctx.graph.multicast_tree)
    make_executor = ctx.executor

    @functools.wraps(make_executor)
    def executor(*args: Any, **kwargs: Any) -> Any:
        built = make_executor(*args, **kwargs)
        built.execute = recorder.timed("core.executor.execute",
                                       built.execute)
        return built

    ctx.executor = executor


class Patches:
    """Module and class attributes replaced for a traced serving set-up,
    put back by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def instrument_serving(recorder: Recorder) -> Patches:
    """Time document -> plan, the service call and the shard round trip.

    These are reached through module and class attributes (the job
    server builds its own ``RheemService``; shards are forked and inherit
    the patched classes), so they are patched there — before the server
    starts — and undone at teardown.
    """
    from repro.api import service
    from repro.server import shards

    patches = Patches()
    patches.set(service, "build_quanta",
                recorder.timed("api.build", service.build_quanta))
    submit = service.RheemService.submit

    @functools.wraps(submit)
    def traced_submit(self: Any, document: dict, *args: Any,
                      **kwargs: Any) -> dict:
        with recorder.span("api.submit") as node:
            response = submit(self, document, *args, **kwargs)
        # The worker thread's (or shard's) tree rides home in the reply.
        response[RESPONSE_KEY] = node.to_wire()
        return response

    patches.set(service.RheemService, "submit", traced_submit)
    run_job = shards.ProcessShard.run_job

    @functools.wraps(run_job)
    def traced_run_job(self: Any, job_id: str, *args: Any,
                       **kwargs: Any) -> dict:
        started = _now()
        try:
            return run_job(self, job_id, *args, **kwargs)
        finally:
            recorder.pipe_times[job_id] = (started, _now())

    patches.set(shards.ProcessShard, "run_job", traced_run_job)
    return patches


def flatten(root: Node, job_id: str, kind: str,
            next_id: Iterator[int]) -> list[dict]:
    """One JSON-lines record per span of one job's tree."""
    records: list[dict] = []

    def visit(node: Node, parent: int | None) -> None:
        span_id = next(next_id)
        attrs = {k: v for k, v in node.attrs.items() if k != "metrics"}
        records.append({"id": span_id, "parent": parent, "job": job_id,
                        "kind": kind, "name": node.name,
                        "start": node.start, "end": node.end, **attrs})
        for child in node.children:
            visit(child, span_id)

    visit(root, None)
    return records
