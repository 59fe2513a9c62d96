"""Benchmark-suite configuration.

Each figure scenario is deterministic and already aggregates many runs
internally, so every test calls its scenario once, directly.  The cells
each scenario prints are compared with ``expected/figures.json``;
``--write-expected`` records that file instead (run the whole suite).
"""

import json
import sys
from pathlib import Path

# Make the sibling helper modules (harness, tasks) importable when pytest
# is invoked from the repository root.
sys.path.insert(0, str(Path(__file__).parent))

import harness  # noqa: E402


def _figures() -> Path:
    return Path(__file__).parent / "expected" / "figures.json"


def pytest_addoption(parser):
    parser.addoption(
        "--write-expected", action="store_true",
        help="record every printed figure cell into "
             "benchmarks/expected/figures.json instead of comparing")


def pytest_configure(config):
    if not config.getoption("--write-expected"):
        harness.expected = json.loads(_figures().read_text())


def pytest_sessionfinish(session):
    if session.config.getoption("--write-expected"):
        table = {title: harness.printed[title]
                 for title in sorted(harness.printed)}
        _figures().parent.mkdir(exist_ok=True)
        _figures().write_text(json.dumps(table, indent=1) + "\n")
