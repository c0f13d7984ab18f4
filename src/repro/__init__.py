"""repro — Memory-Conscious Collective I/O for Extreme Scale HPC Systems.

A full reproduction of Lu, Chen, Zhuang and Thakur's memory-conscious
collective I/O on a simulated extreme-scale platform: a cluster model
(nodes, memory, interconnect), a Lustre-like striped parallel file
system, a ROMIO-style MPI-IO middleware with the classic two-phase
collective I/O as baseline, and the paper's memory-conscious strategy
(aggregation-group division, binary-partition-tree workload partition,
memory-driven remerging, run-time aggregator placement).

Quickstart::

    from repro import (
        make_context, testbed_640, IORWorkload,
        TwoPhaseCollectiveIO, MemoryConsciousCollectiveIO,
    )

    machine = testbed_640()
    ctx = make_context(machine, n_procs=120, procs_per_node=12)
    workload = IORWorkload(120, block_size=32 << 20, transfer_size=2 << 20)
    file = ctx.pfs.open("shared.dat")
    result = MemoryConsciousCollectiveIO().write(ctx, file, workload.requests())
    print(result.summary())
"""

from .analysis import (
    DESIGN_2010,
    DESIGN_2018,
    memory_per_core_factor,
    projection_table,
    verify_plan,
)
from .api import Experiment
from .campaign import Campaign, CampaignResult, PlanCache
from .client import PlanClient, ServeClient
from .cluster import (
    Cluster,
    MachineModel,
    NetworkModel,
    NodeSpec,
    StorageSpec,
    exascale_2018,
    petascale_2010,
    scaled_testbed,
    testbed_640,
)
from .core import (
    CollectivePlan,
    MemoryConsciousCollectiveIO,
    MemoryConsciousConfig,
    PartitionTree,
    TuningResult,
    auto_tune,
)
from .faults import FaultEvent, FaultRuntime, FaultSpec
from .fs import FileImage, ParallelFileSystem, SimFile, StripingLayout
from .io import (
    CollectiveFile,
    CollectiveHints,
    CollectiveResult,
    DataSievingIO,
    IndependentIO,
    IOContext,
    TwoPhaseCollectiveIO,
    make_context,
)
from .metrics import RunComparison, bandwidth_table, improvement, render_table
from .mpi import (
    BYTE,
    DOUBLE,
    INT,
    AccessRequest,
    FileView,
    SimComm,
    contiguous,
    hindexed,
    indexed,
    pattern_bytes,
    subarray,
    vector,
)
from .serve.protocol import PlanRequest, PlanResponse, ServeError
from .util import Extent, ExtentList, GiB, KiB, MiB, gib, kib, mib
from .util.errors import (
    CacheError,
    ConfigurationError,
    PlanVerificationError,
    ReproError,
    ServeOverloadError,
    SpecError,
    TransientFaultError,
)
from .workloads import (
    CollPerfWorkload,
    IORWorkload,
    ShuffledChunksWorkload,
    SkewedWorkload,
    StridedWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # experiment / campaign API
    "Experiment",
    "Campaign",
    "CampaignResult",
    "PlanCache",
    "CollectivePlan",
    # planning service (client side)
    "PlanClient",
    "ServeClient",
    "PlanRequest",
    "PlanResponse",
    "ServeError",
    # errors (the catchable public hierarchy)
    "ReproError",
    "ConfigurationError",
    "SpecError",
    "PlanVerificationError",
    "CacheError",
    "TransientFaultError",
    "ServeOverloadError",
    # faults
    "FaultSpec",
    "FaultEvent",
    "FaultRuntime",
    # util
    "Extent",
    "ExtentList",
    "KiB",
    "MiB",
    "GiB",
    "kib",
    "mib",
    "gib",
    # cluster
    "NodeSpec",
    "StorageSpec",
    "MachineModel",
    "Cluster",
    "NetworkModel",
    "testbed_640",
    "scaled_testbed",
    "petascale_2010",
    "exascale_2018",
    # fs
    "StripingLayout",
    "FileImage",
    "ParallelFileSystem",
    "SimFile",
    # mpi
    "BYTE",
    "INT",
    "DOUBLE",
    "contiguous",
    "vector",
    "indexed",
    "hindexed",
    "subarray",
    "FileView",
    "AccessRequest",
    "CollectiveFile",
    "pattern_bytes",
    "SimComm",
    # io
    "IOContext",
    "make_context",
    "CollectiveHints",
    "CollectiveResult",
    "TwoPhaseCollectiveIO",
    "IndependentIO",
    "DataSievingIO",
    # core
    "MemoryConsciousCollectiveIO",
    "MemoryConsciousConfig",
    "PartitionTree",
    "auto_tune",
    "TuningResult",
    # workloads
    "CollPerfWorkload",
    "IORWorkload",
    "StridedWorkload",
    "ShuffledChunksWorkload",
    "SkewedWorkload",
    # metrics & analysis
    "improvement",
    "RunComparison",
    "render_table",
    "bandwidth_table",
    "verify_plan",
    "projection_table",
    "memory_per_core_factor",
    "DESIGN_2010",
    "DESIGN_2018",
]
