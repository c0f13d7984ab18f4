"""Memory-Conscious Collective I/O: the paper's core contribution."""

from .columnar import LeafTable, divide_groups_flat, plan_columnar
from .config import MemoryConsciousConfig
from .driver import MemoryConsciousCollectiveIO
from .group_division import AggregationGroup
from .partition_tree import PartitionNode, PartitionTree, RankStream
from .plans import (
    CollectivePlan,
    canonical_json,
    plan_from_dict,
    plan_to_dict,
    spec_hash,
)
from .placement import (  # noqa: F401
    Assignment,
    CandidateSource,
    LeafCandidates,
    PlacementStats,
    SlotPlan,
    build_domains,
    place_group,
    rebalance,
)
from .tuning import TuningResult, auto_tune, tune_group, tune_node

__all__ = [
    "MemoryConsciousConfig",
    "MemoryConsciousCollectiveIO",
    "AggregationGroup",
    "PartitionTree",
    "PartitionNode",
    "RankStream",
    "CollectivePlan",
    "plan_to_dict",
    "plan_from_dict",
    "canonical_json",
    "spec_hash",
    "SlotPlan",
    "PlacementStats",
    "place_group",
    "rebalance",
    "build_domains",
    "Assignment",
    "CandidateSource",
    "LeafCandidates",
    "LeafTable",
    "divide_groups_flat",
    "plan_columnar",
    "TuningResult",
    "auto_tune",
    "tune_node",
    "tune_group",
]
