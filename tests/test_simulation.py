"""Unit tests for the simulation substrate: clock, profiles, cluster, VFS."""

import pytest
from hypothesis import given, strategies as st

from repro.simulation import (
    CostMeter,
    FileNotFound,
    HardwareProfile,
    PLATFORM_PROFILES,
    SimulatedOutOfMemory,
    StageLedger,
    VirtualCluster,
    VirtualFileSystem,
    platform_profile,
    scheme_of,
    with_overrides,
)


class TestCostMeter:
    def test_charges_accumulate(self):
        meter = CostMeter()
        meter.charge(1.5, "a")
        meter.charge(0.5, "b", category="io")
        assert meter.total == 2.0
        assert [e.label for e in meter.events] == ["a", "b"]

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostMeter().charge(-1.0, "bad")

    def test_by_category_sums(self):
        meter = CostMeter()
        meter.charge(1.0, "a", category="cpu")
        meter.charge(2.0, "b", category="io")
        meter.charge(3.0, "c", category="cpu")
        assert meter.by_category() == {"cpu": 4.0, "io": 2.0}

    def test_merge_folds_sequentially(self):
        a, b = CostMeter(), CostMeter()
        a.charge(1.0, "x")
        b.charge(2.0, "y")
        a.merge(b)
        assert a.total == 3.0
        assert len(a.events) == 2

    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=20))
    def test_total_equals_sum_of_events(self, charges):
        meter = CostMeter()
        for value in charges:
            meter.charge(value, "c")
        assert meter.total == pytest.approx(sum(charges))


def _meter(seconds):
    meter = CostMeter()
    meter.charge(seconds, "work")
    return meter


class TestCriticalPathTracker:
    """The job's stage ledger: the makespan is the latest end over every
    record, wasted ones included."""

    def test_sequential_stages_chain(self):
        ledger = StageLedger()
        s1 = ledger.record("s1", 0, "p", 0.0, _meter(2.0))
        s2 = ledger.record("s2", 0, "p", s1.end, _meter(3.0))
        assert (s2.start, s2.end) == (2.0, 5.0)
        assert ledger.makespan == 5.0

    def test_independent_stages_overlap(self):
        ledger = StageLedger()
        ledger.record("s1", 0, "p", 0.0, _meter(2.0))
        ledger.record("s2", 0, "p", 0.0, _meter(3.0))
        assert ledger.makespan == 3.0
        assert sum(r.duration for r in ledger.records) == 5.0

    def test_diamond_takes_slowest_branch(self):
        ledger = StageLedger()
        a = ledger.record("a", 0, "p", 0.0, _meter(1.0))
        b = ledger.record("b", 0, "p", a.end, _meter(5.0))
        c = ledger.record("c", 0, "p", a.end, _meter(2.0))
        ledger.record("d", 0, "p", max(b.end, c.end), _meter(1.0))
        assert ledger.makespan == 7.0

    def test_empty_tracker_has_zero_makespan(self):
        assert StageLedger().makespan == 0.0

    def test_wasted_records_stay_and_count(self):
        ledger = StageLedger()
        body = ledger.record("d.loop1.it0.s1", 0, "p", 0.0, _meter(4.0))
        crashed = ledger.record("d", 0, "driver", body.end, _meter(1.0))
        body.survived = crashed.survived = False
        rerun = ledger.record("d.loop1.it0.s1", 0, "p", crashed.end,
                              _meter(4.0))
        driver = ledger.record("d", 1, "driver", rerun.end, _meter(1.0))
        assert [r.label for r in ledger.records] == [
            "d.loop1.it0.s1.attempt0", "d.attempt0", "d.loop1.it0.s1", "d"]
        assert ledger.surviving() == [rerun, driver]
        assert ledger.makespan == 10.0


class TestProfiles:
    def test_all_builtin_platforms_have_profiles(self):
        for name in ("pystreams", "sparklite", "flinklite", "pgres",
                     "graphlite", "jgraph"):
            assert platform_profile(name).name == name

    def test_cpu_seconds_scales_with_parallelism(self):
        spark = platform_profile("sparklite")
        single = platform_profile("pystreams")
        n = 1_000_000
        assert spark.cpu_seconds(n) < single.cpu_seconds(n)

    def test_cpu_seconds_zero_records(self):
        assert platform_profile("pystreams").cpu_seconds(0) == 0.0

    def test_io_and_transfer_seconds(self):
        p = platform_profile("pystreams")
        assert p.io_seconds(100.0) == pytest.approx(100.0 / p.io_mb_per_s)
        assert p.transfer_seconds(0) == 0.0

    def test_with_overrides_replaces_field(self):
        slow = with_overrides("sparklite", startup_s=99.0)
        assert slow.startup_s == 99.0
        assert PLATFORM_PROFILES["sparklite"].startup_s != 99.0

    def test_hardware_totals(self):
        hw = HardwareProfile(nodes=10, cores_per_node=4)
        assert hw.total_cores == 40
        assert hw.aggregate_disk_mb_per_s == 10 * hw.disk_mb_per_s

    def test_big_data_platforms_have_startup_cost(self):
        # The crux of the platform-independence experiments.
        assert platform_profile("sparklite").startup_s > 1.0
        assert platform_profile("pystreams").startup_s == 0.0


class TestVirtualCluster:
    def test_memory_check_passes_below_cap(self):
        VirtualCluster().check_memory("pystreams", 1.0)

    def test_memory_check_raises_above_cap(self):
        cluster = VirtualCluster()
        cap = cluster.profile("jgraph").memory_cap_mb
        with pytest.raises(SimulatedOutOfMemory) as err:
            cluster.check_memory("jgraph", cap + 1)
        assert err.value.platform == "jgraph"

    def test_set_profile_overrides(self):
        cluster = VirtualCluster()
        cluster.set_profile(with_overrides("jgraph", memory_cap_mb=1.0))
        with pytest.raises(SimulatedOutOfMemory):
            cluster.check_memory("jgraph", 2.0)


class TestVfs:
    def test_roundtrip_and_metadata(self):
        vfs = VirtualFileSystem()
        vf = vfs.write("hdfs://a/b.txt", ["x", "y"], sim_factor=10.0,
                       bytes_per_record=50.0)
        assert vf.sim_record_count == 20.0
        assert vf.sim_mb == pytest.approx(20 * 50 / 1e6)
        assert vfs.read("hdfs://a/b.txt").records == ["x", "y"]

    def test_scheme_validation(self):
        assert scheme_of("hdfs://x") == "hdfs"
        assert scheme_of("file://x") == "file"
        with pytest.raises(ValueError):
            scheme_of("s3://bucket/x")

    def test_missing_file_raises(self):
        vfs = VirtualFileSystem()
        with pytest.raises(FileNotFound):
            vfs.read("hdfs://nope")
        with pytest.raises(FileNotFound):
            vfs.delete("hdfs://nope")

    def test_overwrite_replaces(self):
        vfs = VirtualFileSystem()
        vfs.write("hdfs://f", [1])
        vfs.write("hdfs://f", [1, 2])
        assert len(vfs.read("hdfs://f").records) == 2

    def test_listdir_prefix(self):
        vfs = VirtualFileSystem()
        vfs.write("hdfs://d/a", [])
        vfs.write("hdfs://d/b", [])
        vfs.write("file://d/c", [])
        assert vfs.listdir("hdfs://d/") == ["hdfs://d/a", "hdfs://d/b"]

    def test_delete_removes(self):
        vfs = VirtualFileSystem()
        vfs.write("file://x", [1])
        vfs.delete("file://x")
        assert not vfs.exists("file://x")
