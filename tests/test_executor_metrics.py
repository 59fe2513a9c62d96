"""Executor metrics on the paths that leave a job early.

``fixtures/executor_metrics.json`` holds, for four jobs, every
``executor.*`` counter and the ``monitor.stage_sim_seconds`` summary that
one fresh context's registry ends with: a clean loop job, a loop-body
stage that keeps crashing past its retries, a job cancelled in its
loop's tenth iteration, and a paused job resumed to completion.  The
three early exits are where counts kept on the job and flushed at its
end could drop a stage run.

Re-record with ``PYTHONPATH=src python tests/test_executor_metrics.py
--write``; without the flag the table is printed.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import RheemContext
from repro.core.executor import JobCancelled
from repro.core.faults import PlatformFailure
from repro.core.progressive import PausedJob

FIXTURE = Path(__file__).parent / "fixtures" / "executor_metrics.json"

#: Top-level stages before the loop's driver stage, and stages per loop
#: body, of ``_loop``'s plan.
TOP, BODY = 2, 5


def _loop(ctx):
    data = ctx.load_collection(list(range(40)), sim_factor=5_000.0).cache()
    seed = ctx.load_collection([0], sim_factor=5_000.0)
    return seed.repeat(
        20, lambda s, inv: s.map(lambda v: v + 1)
        .union(inv.filter(lambda v: v < 0)).reduce(lambda a, b: a + b),
        invariants=[data]).map(lambda v: v * 2)


def _metrics(ctx) -> dict:
    snapshot = ctx.metrics.snapshot()
    return {
        "counters": {name: value
                     for name, value in snapshot["counters"].items()
                     if name.startswith("executor.")},
        "stage_sim_seconds":
            snapshot["histograms"].get("monitor.stage_sim_seconds")}


def _clean() -> dict:
    ctx = RheemContext()
    assert _loop(ctx).execute().output == [40]
    return _metrics(ctx)


class _CrashIteration:
    """A fault injector whose every attempt of the last body stage of
    the loop's fourth iteration crashes."""

    def should_fail(self, label: str, attempt: int) -> bool:
        return label.endswith(f".it3.stage{BODY}")


def _body_failure() -> dict:
    ctx = RheemContext()
    with pytest.raises(PlatformFailure) as failure:
        _loop(ctx).execute(fault_injector=_CrashIteration(),
                           max_stage_retries=2)
    assert failure.value.attempt == 2
    return _metrics(ctx)


def _cancelled() -> dict:
    ctx = RheemContext()
    calls = []

    def cancel_check():
        # Stage boundaries come in start order: the top-level stages,
        # the driver stage, then each iteration's body stages.
        calls.append(None)
        if len(calls) == TOP + 2 + 10 * BODY:
            raise JobCancelled("deadline")

    with pytest.raises(JobCancelled):
        _loop(ctx).execute(cancel_check=cancel_check)
    return _metrics(ctx)


def _paused_resumed() -> dict:
    ctx = RheemContext()
    ctx.vfs.write("hdfs://metrics/pr.txt", [f"{i}" for i in range(100)],
                  sim_factor=1000.0)
    parsed = ctx.read_text_file("hdfs://metrics/pr.txt").map(int)
    plan = parsed.filter(lambda v: v % 2 == 0).sort().to_plan()
    paused = ctx.execute_paused(plan, break_after={parsed.op.id})
    assert isinstance(paused, PausedJob)
    assert ctx.resume(paused).output == list(range(0, 100, 2))
    return _metrics(ctx)


SCENARIOS = {
    "clean": _clean,
    "body_failure": _body_failure,
    "cancelled": _cancelled,
    "paused_resumed": _paused_resumed,
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_metrics_match_the_recorded_table(name):
    golden = json.loads(FIXTURE.read_text())[name]
    assert SCENARIOS[name]() == golden


def test_the_cancelled_job_stopped_in_its_tenth_iteration():
    counters = json.loads(FIXTURE.read_text())["cancelled"]["counters"]
    assert counters["executor.stages"] == TOP + 10 * BODY


if __name__ == "__main__":
    table = "{\n" + ",\n".join(
        f" {json.dumps(name)}: {json.dumps(run())}"
        for name, run in SCENARIOS.items()) + "\n}\n"
    if "--write" in sys.argv:
        FIXTURE.write_text(table)
    else:
        sys.stdout.write(table)
