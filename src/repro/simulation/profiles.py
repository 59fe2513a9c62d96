"""Hardware and platform performance profiles for the virtual cluster.

The paper's testbed is a 10-node cluster (2 GHz quad-core Xeon, 32 GB RAM,
1 GigE) running Spark, Flink, JavaStreams, Postgres, Giraph and JGraph.  The
reproduction replaces each platform with a Python engine whose *performance
profile* — start-up latency, per-stage dispatch overhead, effective
parallelism, per-record cost, I/O and network bandwidth, memory capacity —
is calibrated from the constants the paper reports (e.g. big-data-platform
job overheads dominating small inputs, Postgres bulk load being ~3x the full
cross-platform runtime, JGraph failing beyond ~10% of the pagelinks graph).

Each platform's calibrated profile is part of its one declaration
(:mod:`repro.platforms`); this module holds the two record types and the
default hardware.  All values are in simulated units: seconds, MB,
records.  They are plain data so the cost learner (``repro.learn``) can
re-fit them from logs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HardwareProfile:
    """The virtual cluster the distributed engines run on."""

    nodes: int = 10
    cores_per_node: int = 4
    memory_per_node_mb: float = 32_768.0
    disk_mb_per_s: float = 100.0
    network_mb_per_s: float = 120.0

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    @property
    def aggregate_disk_mb_per_s(self) -> float:
        """All nodes reading their local blocks at once (HDFS-style)."""
        return self.nodes * self.disk_mb_per_s


@dataclass(frozen=True)
class PlatformProfile:
    """Performance characteristics of one data processing platform.

    Attributes:
        name: Platform key (matches ``Platform.name``).
        startup_s: One-off cost the first time a job touches the platform
            (JVM/driver/context start-up; connection set-up for Postgres).
        stage_overhead_s: Dispatch cost per execution stage (Spark job
            scheduling, Flink task deployment, query planning...).
        parallelism: Effective parallel lanes for record processing.
        tuple_cost_s: Simulated seconds to process one record of unit work
            on ONE lane.  Per-operator work factors multiply this.
        io_mb_per_s: Aggregate bandwidth for reading/writing files.
        net_mb_per_s: Bandwidth for moving data in/out of the platform
            (collects, broadcasts, exports).
        memory_cap_mb: Simulated memory capacity; engines raise
            :class:`~repro.simulation.cluster.SimulatedOutOfMemory` beyond it.
        shuffle_cost_s_per_mb: Extra cost per MB crossing a shuffle boundary.
    """

    name: str
    startup_s: float
    stage_overhead_s: float
    parallelism: int
    tuple_cost_s: float
    io_mb_per_s: float
    net_mb_per_s: float
    memory_cap_mb: float
    shuffle_cost_s_per_mb: float = 0.0

    def cpu_seconds(self, records: float, work: float = 1.0) -> float:
        """Simulated seconds to process ``records`` of ``work`` complexity."""
        if records <= 0:
            return 0.0
        return records * work * self.tuple_cost_s / self.parallelism

    def io_seconds(self, mb: float) -> float:
        """Simulated seconds to read or write ``mb`` megabytes."""
        if mb <= 0:
            return 0.0
        return mb / self.io_mb_per_s

    def transfer_seconds(self, mb: float) -> float:
        """Simulated seconds to move ``mb`` megabytes in or out."""
        if mb <= 0:
            return 0.0
        return mb / self.net_mb_per_s
