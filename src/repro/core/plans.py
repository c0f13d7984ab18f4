"""Plan objects: serializable output of the memory-conscious planner.

A :class:`CollectivePlan` is what
:meth:`~repro.core.driver.MemoryConsciousCollectiveIO.plan` returns —
the file domains, the placement statistics, and the per-group member
counts — as one value that can be handed back to
:meth:`~repro.core.driver.MemoryConsciousCollectiveIO.run` to skip
replanning, and that round-trips losslessly through JSON so campaign
runs can cache plans on disk.

Plans are cached keyed by a **spec hash**: the SHA-256 of the canonical
JSON form of an experiment specification (:func:`spec_hash`). Because
planning never mutates the context (it only *reads* per-node available
memory; aggregation buffers are allocated and released during
execution), running a deserialized plan on a freshly built context of
the same spec is bit-identical to planning inline.

Format version 2 additionally records what the static plan verifier
(:mod:`repro.analysis.verify`) needs to re-check the paper's invariants
without replanning: per-domain provenance (``n_leaves``, ``remerged``),
the planner tunables the plan was built under (``msg_ind``,
``mem_min``), and the spec hash the plan was produced for.

Format version 3 adds remote-pool borrow provenance: per-domain
``borrowed_bytes`` / ``borrow_link`` / ``borrow_lever`` and the two
prices the planner compared (``borrow_price_s``, ``local_price_s``),
emitted only for domains that actually borrow, plus the pool capacity
the plan was built against (``config.pool_capacity``) and the
``n_borrows`` placement counter. Version-2 plans still load (their
defaults mean "no borrows"), so existing caches stay warm; version 1
and unknown versions are rejected, which cache layers treat as misses.

Plans produced under ``strategy="auto"`` additionally carry auto-pick
provenance (``auto``: the chosen strategy and the candidate price
vector), emitted only when selection actually ran — plans from fixed
strategies serialize byte-identically to before. Verifier rule PV117
re-checks that the recorded pick was priced-cheapest.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from ..io.domains import FileDomain
from ..util.intervals import Extent, ExtentList
from .placement import PlacementStats

__all__ = [
    "CollectivePlan",
    "PLAN_FORMAT_VERSION",
    "SUPPORTED_PLAN_VERSIONS",
    "plan_to_dict",
    "plan_from_dict",
    "canonical_json",
    "spec_hash",
]

#: bump when the serialized layout changes; loaders reject other versions
PLAN_FORMAT_VERSION = 3

#: versions :func:`plan_from_dict` accepts — v2 plans carry no borrow
#: provenance and load with "no borrows" defaults
SUPPORTED_PLAN_VERSIONS = frozenset({2, 3})


@dataclass(slots=True)
class CollectivePlan:
    """The planner's full decision set for one collective operation.

    ``msg_ind`` / ``mem_min`` record the tunables the plan was built
    under (0 = unknown, e.g. a hand-built plan); ``pool_capacity`` the
    remote-pool bytes the planner could borrow against (0 = no pool);
    ``spec_hash`` is the experiment identity the plan was produced for
    ("" = unstamped); ``auto_choice`` the cost model's auto-selection
    provenance (``None`` = fixed strategy). All are advisory metadata:
    execution ignores them, the static verifier uses them.
    """

    domains: list[FileDomain]
    stats: PlacementStats = field(default_factory=PlacementStats)
    group_sizes: dict[int, int] = field(default_factory=dict)
    msg_ind: int = 0
    mem_min: int = 0
    pool_capacity: int = 0
    spec_hash: str = ""
    auto_choice: dict[str, Any] | None = None

    def as_tuple(self) -> tuple[list[FileDomain], PlacementStats, dict[int, int]]:
        return self.domains, self.stats, self.group_sizes

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def to_dict(self) -> dict[str, Any]:
        return plan_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> CollectivePlan:
        return plan_from_dict(data)


def _domain_to_dict(domain: FileDomain) -> dict[str, Any]:
    out: dict[str, Any] = {
        "region": [domain.region.offset, domain.region.length],
        "coverage": domain.coverage.to_pairs(),
        "aggregator": domain.aggregator,
        "buffer_bytes": domain.buffer_bytes,
        "group_id": domain.group_id,
        "n_leaves": domain.n_leaves,
        "remerged": domain.remerged,
    }
    if domain.borrowed_bytes > 0:
        # v3 borrow provenance: only domains that borrow carry it, so
        # borrow-free v3 plans serialize byte-identically to v2 bodies.
        out["borrowed_bytes"] = domain.borrowed_bytes
        out["borrow_link"] = domain.borrow_link
        out["borrow_lever"] = domain.borrow_lever
        out["borrow_price_s"] = domain.borrow_price_s
        out["local_price_s"] = domain.local_price_s
    return out


def _domain_from_dict(data: Mapping[str, Any]) -> FileDomain:
    offset, length = data["region"]
    return FileDomain(
        region=Extent(int(offset), int(length)),
        coverage=ExtentList.from_pairs(
            [(int(o), int(n)) for o, n in data["coverage"]]
        ),
        aggregator=int(data["aggregator"]),
        buffer_bytes=int(data["buffer_bytes"]),
        group_id=int(data["group_id"]),
        n_leaves=int(data.get("n_leaves", 1)),
        remerged=bool(data.get("remerged", False)),
        borrowed_bytes=int(data.get("borrowed_bytes", 0)),
        borrow_link=int(data.get("borrow_link", 0)),
        borrow_lever=str(data.get("borrow_lever", "")),
        borrow_price_s=float(data.get("borrow_price_s", 0.0)),
        local_price_s=float(data.get("local_price_s", 0.0)),
    )


def plan_to_dict(plan: CollectivePlan) -> dict[str, Any]:
    """Flatten a plan to JSON-safe data (lossless)."""
    out = {
        "version": PLAN_FORMAT_VERSION,
        "domains": [_domain_to_dict(d) for d in plan.domains],
        "stats": {
            "n_domains": plan.stats.n_domains,
            "n_remerges": plan.stats.n_remerges,
            "n_fallbacks": plan.stats.n_fallbacks,
            "n_rebalanced": plan.stats.n_rebalanced,
            "n_borrows": plan.stats.n_borrows,
        },
        "group_sizes": {str(k): v for k, v in plan.group_sizes.items()},
        "config": {
            "msg_ind": plan.msg_ind,
            "mem_min": plan.mem_min,
            "pool_capacity": plan.pool_capacity,
        },
        "spec_hash": plan.spec_hash,
    }
    if plan.auto_choice is not None:
        # Auto-selection provenance: only plans produced under
        # strategy="auto" carry it, so fixed-strategy bodies stay
        # byte-identical to their pre-auto serialization.
        out["auto"] = dict(plan.auto_choice)
    return out


def plan_from_dict(data: Mapping[str, Any]) -> CollectivePlan:
    """Rebuild a plan written by :func:`plan_to_dict`.

    Raises ``ValueError`` on a version mismatch so stale cache entries
    are treated as misses rather than silently misinterpreted.
    """
    version = data.get("version")
    if version not in SUPPORTED_PLAN_VERSIONS:
        raise ValueError(
            f"unsupported plan format version {version!r} "
            f"(supported: {sorted(SUPPORTED_PLAN_VERSIONS)})"
        )
    stats_d = data.get("stats", {})
    stats = PlacementStats(
        n_domains=int(stats_d.get("n_domains", 0)),
        n_remerges=int(stats_d.get("n_remerges", 0)),
        n_fallbacks=int(stats_d.get("n_fallbacks", 0)),
        n_rebalanced=int(stats_d.get("n_rebalanced", 0)),
        n_borrows=int(stats_d.get("n_borrows", 0)),
    )
    config_d = data.get("config", {})
    auto = data.get("auto")
    return CollectivePlan(
        domains=[_domain_from_dict(d) for d in data["domains"]],
        stats=stats,
        group_sizes={int(k): int(v) for k, v in data.get("group_sizes", {}).items()},
        msg_ind=int(config_d.get("msg_ind", 0)),
        mem_min=int(config_d.get("mem_min", 0)),
        pool_capacity=int(config_d.get("pool_capacity", 0)),
        spec_hash=str(data.get("spec_hash", "")),
        auto_choice=dict(auto) if isinstance(auto, Mapping) else None,
    )


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variance."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_hash(spec: Mapping[str, Any]) -> str:
    """Content hash of a JSON-safe specification mapping.

    The same logical spec always hashes the same regardless of key
    insertion order; any change to a field that could affect planning or
    execution yields a different key.
    """
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()
