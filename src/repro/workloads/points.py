"""Synthetic labelled point datasets (HIGGS / rcv1 / dense-SVM stand-ins).

Points are linearly separable with label noise, so gradient-descent tasks
genuinely converge (tests check the learned separator's direction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class PointDatasetSpec:
    """Shape of one benchmark dataset from the paper's Figure 2(b)."""

    name: str
    dimensions: int
    sim_points: float
    bytes_per_point: float


#: Stand-ins for the paper's SGD benchmark datasets.
DATASETS = {
    # rcv1: sparse high-dimensional; we keep a modest dense stand-in.
    "rcv1": PointDatasetSpec("rcv1", 12, 700_000.0, 400.0),
    # HIGGS: 11M points x 28 features (~7.4 GB).
    "higgs": PointDatasetSpec("higgs", 28, 11_000_000.0, 700.0),
    # "synthetic svm": very wide rows; blows small-memory systems up.
    "svm": PointDatasetSpec("svm", 100, 8_000_000.0, 2400.0),
}

ACTUAL_POINTS = 1_200


def labelled_points(
    count: int,
    dimensions: int,
    noise: float = 0.05,
    seed: int = 23,
) -> tuple[list[str], list[float]]:
    """CSV lines ``label,x1,...,xd`` plus the true separating weights."""
    if dimensions < 1:
        raise ValueError("dimensions must be >= 1")
    rng = random.Random(seed)
    true_w = [rng.uniform(-1.0, 1.0) for __ in range(dimensions)]
    lines = []
    for __ in range(count):
        x = [rng.uniform(-1.0, 1.0) for __ in range(dimensions)]
        margin = sum(w * v for w, v in zip(true_w, x))
        label = 1.0 if margin > 0 else -1.0
        if rng.random() < noise:
            label = -label
        lines.append(",".join([str(label)] + [f"{v:.5f}" for v in x]))
    return lines, true_w


def write_points(ctx, path: str, dataset: str = "higgs",
                 percent: float = 100.0, seed: int = 23) -> PointDatasetSpec:
    """Write a ``percent``% slice of a named dataset to the VFS."""
    try:
        spec = DATASETS[dataset]
    except KeyError:
        raise ValueError(f"unknown dataset {dataset!r}; "
                         f"choose from {sorted(DATASETS)}") from None
    if not 0 < percent <= 100:
        raise ValueError("percent must be in (0, 100]")
    lines, __ = labelled_points(ACTUAL_POINTS, spec.dimensions, seed=seed)
    sim_factor = spec.sim_points * (percent / 100.0) / len(lines)
    ctx.vfs.write(path, lines, sim_factor=sim_factor,
                  bytes_per_record=spec.bytes_per_point)
    return spec


def parse_point(line: str) -> tuple[float, ...]:
    """Parse a CSV point line into ``(label, x1, ..., xd)``."""
    return tuple(map(float, line.split(",")))
