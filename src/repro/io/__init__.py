"""I/O middleware layer: strategies, round engine, domains, hints."""

from .base import IOStrategy
from .context import IOContext, make_context
from .data_sieving import DataSievingIO
from .domains import FileDomain, aggregate_access, even_domains
from .file import CollectiveFile
from .hints import CollectiveHints
from .independent import IndependentIO
from .result import AggregatorInfo, CollectiveResult
from .rounds import execute_collective
from .shuffle import (
    ExchangeIndex,
    ExchangePiece,
    ExchangePieces,
    plan_exchange,
    shuffle_flows,
)
from .two_phase import TwoPhaseCollectiveIO, default_aggregators

__all__ = [
    "IOStrategy",
    "IOContext",
    "make_context",
    "CollectiveHints",
    "FileDomain",
    "CollectiveFile",
    "aggregate_access",
    "even_domains",
    "AggregatorInfo",
    "CollectiveResult",
    "execute_collective",
    "ExchangeIndex",
    "ExchangePiece",
    "ExchangePieces",
    "plan_exchange",
    "shuffle_flows",
    "TwoPhaseCollectiveIO",
    "default_aggregators",
    "IndependentIO",
    "DataSievingIO",
]
