"""Regression tests for the hot-path correctness sweep.

Three bugs rode along with the vectorization refactor, each pinned here
by a test that fails on the pre-fix code:

* ``PySample`` seeded its RNG from a per-instance invocation counter, so
  a crash-retried attempt (or a re-execution of a cached plan) drew a
  different sample than a clean run — now it seeds from the
  loop-iteration epoch carried by the execution context.
* No-op operators (``PyCache``, the sinks) returned their *input*
  channel, aliasing one payload container into every consumer — now they
  detach with a shallow copy.
* ``PyUnion`` stamped its output with the left branch's
  ``bytes_per_record``, skewing every downstream IO/net cost when the
  branches had different record widths — now the width is the
  cardinality-weighted mean.
"""

import pytest

from repro import RheemContext
from repro.core import operators as ops
from repro.core.channels import Channel
from repro.core.execution import ExecutionContext
from repro.core.executor import Sniffer
from repro.core.faults import FaultInjector
from repro.platforms.base import union_bytes_per_record


def _compiled(ctx, dq):
    plan = dq.to_plan()
    exec_plan, cards = ctx.optimize(plan)
    return exec_plan, cards


class TestSampleRetryDeterminism:
    def _pipeline(self, ctx):
        return (ctx.load_collection(list(range(100)))
                .map(lambda x: x * 3)
                .sample(size=5))

    def _first_stage_id(self):
        ctx = RheemContext()
        exec_plan, __ = _compiled(ctx, self._pipeline(ctx))
        return exec_plan.build_stages(break_after=set())[0].id

    def test_retried_attempt_draws_the_identical_sample(self):
        """A crashed attempt must not advance the sampler's stream: the
        retry is a re-run of the same loop iteration, so it draws the
        same records a fault-free run would."""
        stage_id = self._first_stage_id()

        def run(failures):
            ctx = RheemContext()
            injector = FaultInjector(failures={stage_id: failures})
            return self._pipeline(ctx).execute(
                fault_injector=injector, max_stage_retries=2).output

        assert run(failures=2) == run(failures=0)

    def test_reexecuting_a_cached_plan_is_deterministic(self):
        """Cached plans share operator instances across executions; the
        sample must not depend on how often the instance has run."""
        ctx = RheemContext()
        exec_plan, cards = _compiled(ctx, self._pipeline(ctx))
        first = ctx.executor().execute(exec_plan, estimates=cards)
        second = ctx.executor().execute(exec_plan, estimates=cards)
        assert second.output == first.output
        assert second.runtime == first.runtime


class TestNoOpChannelAliasing:
    def test_cache_and_sink_detach_their_payloads(self):
        """A sniffer callback that mutates its view must not corrupt the
        job result: the sunk result list cannot alias the channel a
        no-op cache passed through."""
        ctx = RheemContext()
        dq = ctx.load_collection([1, 2, 3]).cache()
        tapped = []
        result = dq.execute(sniffers=[Sniffer(dq.op.id, tapped.append)])
        tapped[0].clear()
        assert result.output == [1, 2, 3]


class TestUnionRecordWidth:
    def test_weighted_width_helper(self):
        a = Channel(None, [0] * 10, 1.0, 100.0, 10)
        b = Channel(None, [0] * 30, 1.0, 20.0, 30)
        expected = (10 * 100.0 + 30 * 20.0) / 40
        assert union_bytes_per_record(a, b) == pytest.approx(expected)
        # Degenerate zero-cardinality union keeps the left width.
        empty_a = Channel(None, [], 1.0, 100.0, 0)
        empty_b = Channel(None, [], 1.0, 20.0, 0)
        assert union_bytes_per_record(empty_a, empty_b) == 100.0

    def test_py_union_output_width_is_cardinality_weighted(self):
        from repro.platforms.dataflow import DFUnion
        from repro.core.channels import PY_COLLECTION
        from repro.platforms.pystreams import PYSTREAMS

        ctx = RheemContext()
        exec_ctx = ExecutionContext(cluster=ctx.cluster, pgres=ctx.pgres,
                                    seed=ctx.config["seed"])
        wide = Channel(PY_COLLECTION, [0] * 10, 1.0, 100.0, 10)
        narrow = Channel(PY_COLLECTION, [0] * 30, 1.0, 20.0, 30)
        out = DFUnion(ops.Union(), PYSTREAMS).execute([wide, narrow], [],
                                                      exec_ctx)
        assert out.bytes_per_record == pytest.approx(40.0)
        # The simulated volume follows: 40 records x 40 B, not 40 x 100 B.
        assert out.sim_mb == pytest.approx(40 * 40.0 / 1e6)

    def test_batch_union_matches_scalar_union_width(self):
        # The same operator over record-batch payloads: same width.
        from repro.core.batch import RecordBatch
        from repro.platforms.dataflow import DFUnion
        from repro.core.channels import PY_COLLECTION
        from repro.platforms.pystreams import PYSTREAMS

        ctx = RheemContext()
        exec_ctx = ExecutionContext(cluster=ctx.cluster, pgres=ctx.pgres,
                                    seed=ctx.config["seed"])
        wide = Channel(PY_COLLECTION, RecordBatch.from_records([0] * 10),
                       1.0, 100.0, 10)
        narrow = Channel(PY_COLLECTION, RecordBatch.from_records([0] * 30),
                         1.0, 20.0, 30)
        out = DFUnion(ops.Union(), PYSTREAMS).execute([wide, narrow], [],
                                                      exec_ctx)
        assert out.payload == [0] * 40
        assert out.bytes_per_record == pytest.approx(40.0)
