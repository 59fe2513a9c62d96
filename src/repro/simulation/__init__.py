"""Virtual-cluster simulation substrate.

Provides simulated time (:mod:`~repro.simulation.clock`), the hardware
and platform performance-profile records
(:mod:`~repro.simulation.profiles`), the virtual cluster with memory
accounting (:mod:`~repro.simulation.cluster`) and the virtual HDFS/local
file systems (:mod:`~repro.simulation.vfs`).
"""

from .clock import CostEvent, CostMeter, StageLedger, StageRecord
from .cluster import SimulatedOutOfMemory, VirtualCluster
from .profiles import HardwareProfile, PlatformProfile
from .vfs import (
    FileNotFound,
    HDFS_SCHEME,
    LOCAL_SCHEME,
    VirtualFile,
    VirtualFileSystem,
    scheme_of,
)

__all__ = [
    "CostEvent",
    "CostMeter",
    "StageLedger",
    "StageRecord",
    "SimulatedOutOfMemory",
    "VirtualCluster",
    "HardwareProfile",
    "PlatformProfile",
    "FileNotFound",
    "HDFS_SCHEME",
    "LOCAL_SCHEME",
    "VirtualFile",
    "VirtualFileSystem",
    "scheme_of",
]
