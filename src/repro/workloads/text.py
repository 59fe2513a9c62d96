"""Synthetic text corpora (Wikipedia-abstracts stand-in), and the exact
byte pass that parses delimited text lines into typed columns.

The paper's WordCount runs over 3 GB of Wikipedia abstracts.  We generate
Zipf-distributed word streams with the same statistical shape; the actual
corpus stays laptop-sized while ``sim_factor`` carries the paper-scale
record counts to the simulated clock.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np

#: Full-scale (100%) parameters of the Wikipedia-abstracts stand-in.
FULL_SIM_LINES = 30_000_000.0   # ~3 GB at ~100 B/line
BYTES_PER_LINE = 100.0
ACTUAL_LINES = 1_500


def zipf_lines(
    num_lines: int,
    vocabulary: int = 500,
    words_per_line: int = 9,
    exponent: float = 1.3,
    seed: int = 17,
) -> list[str]:
    """Lines of Zipf-distributed words (``w0`` most frequent)."""
    if num_lines < 0:
        raise ValueError("num_lines must be >= 0")
    rng = random.Random(seed)
    # Accumulated once: ``weights=`` would redo it for every line, and
    # ``choices`` draws the same words from either.
    cum_weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** exponent for rank in range(vocabulary)))
    words = [f"w{rank}" for rank in range(vocabulary)]
    return [
        " ".join(rng.choices(words, cum_weights=cum_weights,
                             k=words_per_line))
        for __ in range(num_lines)
    ]


def write_abstracts(ctx, path: str, percent: float, seed: int = 17) -> None:
    """Write a ``percent``% slice of the simulated 3 GB corpus to the VFS.

    Matching the paper's sampling methodology, smaller percentages are
    smaller prefixes of the same corpus.
    """
    if not 0 < percent <= 200:
        raise ValueError("percent must be in (0, 200]")
    lines = zipf_lines(ACTUAL_LINES, seed=seed)
    sim_factor = FULL_SIM_LINES * (percent / 100.0) / len(lines)
    ctx.vfs.write(path, lines, sim_factor=sim_factor,
                  bytes_per_record=BYTES_PER_LINE)


#: ``10 ** k`` for the fraction digits an 18-character field can have, as
#: doubles converted from exact ints (every power of ten up to 1e22 is
#: exactly one; ``pow`` need not return it).
_POW10 = np.array([float(10 ** k) for k in range(18)])


def _number(digits, start, end, convert):
    """One int or float column parsed exactly, or None to fall back.

    ``digits`` is the lines' bytes minus ``ord("0")``: a digit's value,
    254 for ``.`` and at least 10 for any other byte, but 0 at every
    separator.  Horner's rule runs over all rows at once, one character
    position at a time, right-aligned: left of a short field it reads the
    separator before it, a leading zero.  At most 18 characters, so the
    int64 mantissa cannot overflow.  A float field is digits with at most
    one ``.``; with its mantissa below 2**53, ``mantissa /
    10.0**fraction_digits`` divides two exact doubles, and one correctly
    rounded division is what ``float()`` returns for the text (Clinger's
    fast path).
    """
    width = int((end - start).max())
    if width > 18 or (end == start).any():
        return None
    value, dots, fraction = (np.zeros(len(end), dtype=np.int64)
                             for __ in range(3))
    top = np.zeros(len(end), dtype=np.uint8)  # the largest non-"." byte
    floor = start - 1
    for offset in range(width, 0, -1):
        d = digits.take(np.maximum(end - offset, floor))
        if convert is int:
            np.maximum(top, d, out=top)
            value = value * 10 + d
            continue
        dot = d == 254
        np.maximum(top, d, out=top, where=~dot)
        fraction += dots
        dots += dot
        value = np.where(dot, value, value * 10 + d)
    if convert is int:
        return value if top.max() < 10 else None
    if (top.max() > 9 or dots.max() > 1 or (dots == end - start).any()
            or value.max() >= 1 << 53):
        return None
    return value / _POW10[fraction]


def parse_delimited(lines: Sequence[str], sep: str,
                    types: Sequence[type]) -> list | None:
    """Typed columns of ``sep``-separated ``lines``, parsed exactly, or
    None when this pass cannot prove them equal to ``convert(field)``.

    ``sep`` is one ASCII character other than a digit, ``.`` and ``\\n``.

    One byte pass over the lines, joined and encoded as ASCII: one
    ``flatnonzero`` finds every ``sep`` and line end, and every line must
    hold exactly ``len(types)`` fields.  Per field type, ``int`` and
    ``float`` fields are numpy columns parsed by :func:`_number`: at most
    18 characters of ASCII digits, and for ``float`` at most one ``.``.
    ``str`` fields are slices of the joined text.  Anything else — signs,
    exponents, blanks, underscores, ``inf``/``nan``, NUL, non-ASCII, an
    empty field, a wrong field count — returns None, and the caller
    parses per record, which also raises where that parse raises.
    """
    try:
        # The leading "\n" puts a separator before every field.
        text = "\n" + "\n".join(lines)
        raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except (TypeError, UnicodeEncodeError):
        return None
    stops = np.flatnonzero((raw == ord(sep)) | (raw == 10))
    n, k = len(lines), len(types)
    newline = raw[stops] == 10
    # Exactly k - 1 separators per line: every k-th stop is a line's "\n".
    if len(stops) != n * k or newline.sum() != n or not newline[::k].all():
        return None
    # (fields, rows), so that each column's offsets are contiguous.
    starts = (stops + 1).reshape(n, k).T.copy()
    ends = np.append(stops[1:], raw.size).reshape(n, k).T.copy()
    digits = raw - np.uint8(48)  # wraps below "0"
    digits[stops] = 0
    columns = []
    for j, convert in enumerate(types):
        if convert is str:
            columns.append([text[a:b] for a, b in
                            zip(starts[j].tolist(), ends[j].tolist())])
            continue
        column = _number(digits, starts[j], ends[j], convert)
        if column is None:
            return None
        columns.append(column)
    return columns
