"""Every code reference in DESIGN.md, README.md and EXPERIMENTS.md names
what exists, and every CHANGES.md entry from PR 46 on is short.

A reference is a source path in backticks (``core/optimizer.py``,
``tests/test_x.py::TestY``, ``workloads/graphs.py:parse_edges``) or a
``Class.member`` whose class is defined under ``src/``.  A path resolves
from the repository root, from ``src/`` or from ``src/repro/``; a bare
file name anywhere in the tree.  Each name after ``::`` or ``:`` must be
a ``def``, ``class`` or top-level assignment in that file, and a member
must occur in its class's body.

A CHANGES.md entry is a PR's ``PR <n>`` lines plus the ``FOUND:`` /
``MENDED:`` lines that follow them; older entries are exempt.
"""

import re
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
TREES = ("src", "tests", "benchmarks", "examples", "scripts", "perfbench")

SPAN = re.compile(r"`([^`\n]+)`")
PATH = re.compile(r"([\w./-]+\.py)((?:::?\w+)*)")
MEMBER = re.compile(r"^([A-Z]\w*[a-z]\w*)\.(\w+)")
#: The bytes a CHANGES.md entry may hold, from :data:`FIRST_SIZED_PR` on.
ENTRY_BYTES, FIRST_SIZED_PR = 1536, 46


@cache
def _files(name: str) -> tuple[Path, ...]:
    return tuple(path for tree in TREES for path in (ROOT / tree).rglob(name))


def _resolve(path: str) -> Path | None:
    for base in (ROOT, SRC, SRC / "repro"):
        if (base / path).is_file():
            return base / path
    if "/" not in path and _files(path):
        return _files(path)[0]
    return None


def _defines(source: str, name: str) -> bool:
    return re.search(rf"^\s*(?:async\s+)?(?:def|class)\s+{name}\b"
                     rf"|^{name}\s*[:=]", source, re.M) is not None


@cache
def _class_bodies(name: str) -> tuple[str, ...]:
    bodies = []
    for path in SRC.rglob("*.py"):
        source = path.read_text()
        for match in re.finditer(rf"^class {name}\b.*?(?=^\S|\Z)", source,
                                 re.M | re.S):
            bodies.append(match.group(0))
    return tuple(bodies)


def stale_references(text: str) -> list[str]:
    """The references of ``text`` that name nothing in the tree."""
    stale = []
    for span in SPAN.findall(text):
        for path, names in PATH.findall(span):
            if "<" in path:
                continue
            found = _resolve(path)
            if found is None:
                stale.append(path)
                continue
            source = found.read_text()
            stale += [f"{path}::{name}"
                      for name in re.split(r"::?", names)[1:]
                      if not _defines(source, name)]
        member = MEMBER.match(span)
        if member is not None:
            cls, attr = member.groups()
            bodies = _class_bodies(cls)
            if bodies and not any(re.search(rf"\b{attr}\b", body)
                                  for body in bodies):
                stale.append(f"{cls}.{attr}")
    return stale


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_path_and_name_exists(doc):
    assert stale_references((ROOT / doc).read_text()) == []


def test_a_stale_reference_is_caught():
    text = ("`Optimizer.beam_threshold`, `core/optimizer.py::_beam_rank`, "
            "`core/beam.py`, and the live `Optimizer._admit`, "
            "`core/optimizer.py::Optimizer`, `tests/conftest.py`.")
    assert stale_references(text) == [
        "Optimizer.beam_threshold", "core/optimizer.py::_beam_rank",
        "core/beam.py"]


def oversized_entries(text: str) -> dict[int, int]:
    """PR -> bytes of each CHANGES.md entry, from :data:`FIRST_SIZED_PR`
    on, longer than :data:`ENTRY_BYTES`."""
    sizes: dict[int, int] = {}
    pr = None
    for line in text.splitlines(keepends=True):
        head = re.match(r"PR (\d+)\b", line)
        if head is not None:
            pr = int(head.group(1))
        elif not line.startswith(("FOUND:", "MENDED:")):
            pr = None
        if pr is not None:
            sizes[pr] = sizes.get(pr, 0) + len(line.encode())
    return {pr: size for pr, size in sizes.items()
            if pr >= FIRST_SIZED_PR and size > ENTRY_BYTES}


def test_every_changes_entry_from_pr_46_on_is_short():
    assert oversized_entries((ROOT / "CHANGES.md").read_text()) == {}


def test_a_long_entry_is_caught():
    text = ("PR 45: " + "x" * 2000 + "\nPR 46: short\nFOUND: " + "y" * 1600
            + "\nPR 47, tests: a\nPR 47: b\n")
    assert oversized_entries(text) == {46: 1621}
