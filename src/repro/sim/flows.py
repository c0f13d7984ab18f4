"""Fluid flow-level network/IO model.

A communication or I/O *phase* is a set of :class:`Flow` objects, each
carrying ``size`` bytes across a set of shared resources (NIC ports,
node memory buses, OST servers, the network bisection). Two solvers
compute phase behaviour:

* :func:`max_min_rates` — classic progressive-filling (water-filling)
  max-min fair bandwidth allocation: repeatedly find the most-loaded
  resource, freeze its flows at the fair share, remove the resource, and
  continue. This is the standard fluid model for TCP-like fair sharing
  on an uncongested-core fabric.
* :class:`FluidSimulation` — drives the rate allocation through time:
  advance to the next flow completion, re-solve, repeat. Yields exact
  per-flow finish times under fluid max-min sharing.
* :func:`bottleneck_time` — the O(R + F) approximation used for large
  phases: phase time = max over resources of (bytes through resource /
  capacity). Exact when the phase is limited by one saturated resource
  (the usual case in collective I/O), and never later than the fluid
  finish of the last flow by more than the skew between resources.

Resources are identified by opaque hashable keys supplied by the caller
(e.g. ``("nic_in", node_id)``), so models can be composed without a
central registry.

Hot paths that charge many flows at once skip the :class:`Flow`
objects: :class:`ResourceIds` gives a run's keys dense integer ids,
:class:`Charges` carries a phase's charges as ``(key id, bytes)``
columns, and :class:`ChargeLedger` sums them per resource.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..util.errors import SimulationError

__all__ = [
    "ChargeLedger",
    "Charges",
    "Flow",
    "ResourceIds",
    "PhaseOutcome",
    "max_min_rates",
    "bottleneck_time",
    "FluidSimulation",
    "solve_phase",
]

ResourceKey = Hashable


@dataclass(slots=True)
class Flow:
    """``size`` bytes crossing every resource in ``resources``.

    ``label`` is carried through for tracing; it has no semantic effect.

    ``resource_sizes`` optionally overrides the byte charge on specific
    resources — used to model *effective* loads, e.g. per-request service
    overhead at a storage target inflates the bytes charged to that OST
    while the network still carries the nominal size. The bottleneck
    solver honors overrides; the fluid solver uses the nominal size
    everywhere (documented approximation).
    """

    size: float
    resources: tuple[ResourceKey, ...]
    label: str = ""
    resource_sizes: dict[ResourceKey, float] | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SimulationError(f"negative flow size: {self.size}")
        if not self.resources:
            raise SimulationError("flow must cross at least one resource")
        if self.resource_sizes:
            for key, value in self.resource_sizes.items():
                if key not in self.resources:
                    raise SimulationError(
                        f"resource_sizes key {key!r} not among flow resources"
                    )
                if value < 0:
                    raise SimulationError(f"negative override for {key!r}")

    def charge_on(self, key: ResourceKey) -> float:
        """Bytes this flow charges to one of its resources."""
        if self.resource_sizes and key in self.resource_sizes:
            return self.resource_sizes[key]
        return self.size


class ResourceIds:
    """Dense integer ids for one run's resource keys, with their capacities.

    Ids follow the capacity map's key order; ``keys[k]`` is id ``k``'s
    key and ``caps[k]`` its capacity.
    """

    __slots__ = ("keys", "caps", "_index", "_tables")

    def __init__(self, capacities: Mapping[ResourceKey, float]) -> None:
        self.keys: list[ResourceKey] = list(capacities)
        self._index = {key: k for k, key in enumerate(self.keys)}
        self.caps = np.fromiter(capacities.values(), np.float64, len(self.keys))
        self._tables: dict[Callable[[int], ResourceKey], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, key: ResourceKey) -> int:
        return self._index[key]

    def __contains__(self, key: object) -> bool:
        return key in self._index

    def column(
        self, key_of: Callable[[int], ResourceKey], values: np.ndarray
    ) -> np.ndarray:
        """Ids of ``key_of(v)`` for each small non-negative integer ``v``.

        One table per key family (``membw``, ``ost_key``, ...), grown to
        the largest ``v`` seen; every key up to it must be in the map.
        """
        table = self._tables.get(key_of)
        top = int(values.max()) + 1 if values.size else 0
        if table is None or top > table.size:
            table = np.fromiter(
                (self._index[key_of(v)] for v in range(top)), np.int64, top
            )
            self._tables[key_of] = table
        return table[values]


class Charges(NamedTuple):
    """A phase's resource charges as columns, in segments.

    Charge ``k`` puts ``amounts[k]`` bytes on resource id ``ids[k]``.
    Segment ``s`` (one owner's flows, e.g. one domain's) is the charges
    from ``starts[s]`` up to the next start; ``owners[s]`` names it.
    Every segment is non-empty.
    """

    ids: np.ndarray
    amounts: np.ndarray
    starts: np.ndarray
    owners: np.ndarray

    def extend_segments(
        self, segments: Sequence[int], ids: np.ndarray, amounts: Sequence[float]
    ) -> Charges:
        """These charges plus one more at the end of each listed segment.

        ``segments`` ascend; segment ``segments[j]`` gains the charge
        ``(ids[j], amounts[j])`` after its own.
        """
        if not segments:
            return self
        ends = np.append(self.starts[1:], self.ids.size)[list(segments)]
        return Charges(
            np.insert(self.ids, ends, ids),
            np.insert(self.amounts, ends, np.asarray(amounts, dtype=np.float64)),
            self.starts + np.searchsorted(ends, self.starts, side="right"),
            self.owners,
        )

    def drain_times(self, load: np.ndarray, caps: np.ndarray) -> np.ndarray:
        """Per segment, the largest ``load / caps`` over the ids it charges.

        ``load`` and ``caps`` are indexed by resource id: with a phase's
        load this is each owner's drain time, the time its most-loaded
        resource needs to clear the phase.
        """
        if not self.starts.size:
            return np.empty(0, np.float64)
        return np.maximum.reduceat(load[self.ids] / caps[self.ids], self.starts)


class ChargeLedger:
    """A run's load per resource id, accumulated charge by charge.

    ``np.add.at`` adds in index order, so every resource's total is the
    same sequence of float additions as charging flow by flow (summing a
    round first, e.g. with ``bincount``, would regroup it). With
    ``derated`` a twin total counts each charge ``derate[id]`` times
    over; without, the twin is the plain total. ``touched`` lists ids in
    the order first charged.
    """

    __slots__ = ("ids", "load", "derated", "touched", "_seen")

    def __init__(self, ids: ResourceIds, *, derated: bool = False) -> None:
        self.ids = ids
        self.load = np.zeros(len(ids))
        self.derated = np.zeros(len(ids)) if derated else self.load
        self.touched = np.empty(0, dtype=np.int64)
        self._seen = np.zeros(len(ids), dtype=bool)

    def charge(
        self, charges: Charges, derate: np.ndarray | None = None
    ) -> tuple[np.ndarray, dict[ResourceKey, float]]:
        """Add one phase's charges; return that phase's load.

        The phase's load comes back by id (an array) and by key (a map
        in first-charge order). ``derate`` (by id) weighs the charges
        added to the derated twin.
        """
        key_ids, amounts = charges.ids, charges.amounts
        np.add.at(self.load, key_ids, amounts)
        if derate is not None and self.derated is not self.load:
            np.add.at(self.derated, key_ids, amounts * derate[key_ids])
        phase = np.zeros(len(self.ids))
        np.add.at(phase, key_ids, amounts)
        unique, first = np.unique(key_ids, return_index=True)
        order = unique[np.argsort(first)]
        fresh = order[~self._seen[order]]
        self._seen[fresh] = True
        self.touched = np.concatenate([self.touched, fresh])
        return phase, self._by_key(phase, order)

    def bound(self, load: np.ndarray) -> float:
        """Largest ``load / capacity`` over the charged resources (or 0)."""
        if not self.touched.size:
            return 0.0
        return float(np.max(load[self.touched] / self.ids.caps[self.touched]))

    def totals(self) -> dict[ResourceKey, float]:
        """Run-wide load per charged key, in first-charge order."""
        return self._by_key(self.load, self.touched)

    def _by_key(self, load: np.ndarray, order: np.ndarray) -> dict[ResourceKey, float]:
        keys = self.ids.keys
        return dict(zip([keys[k] for k in order.tolist()], load[order].tolist()))


@dataclass(slots=True)
class PhaseOutcome:
    """Result of solving one phase."""

    duration: float
    finish_times: np.ndarray  # per-flow completion times (seconds)
    resource_bytes: dict[ResourceKey, float]  # bytes charged per resource
    mode: str = "bottleneck"

    @property
    def makespan(self) -> float:
        return self.duration


def _index_phase(
    flows: Sequence[Flow], capacities: Mapping[ResourceKey, float]
) -> tuple[list[ResourceKey], np.ndarray, list[np.ndarray]]:
    """Map resource keys to dense indices; return caps and per-flow index arrays."""
    keys: list[ResourceKey] = []
    key_to_idx: dict[ResourceKey, int] = {}
    flow_res: list[np.ndarray] = []
    for flow in flows:
        idxs = []
        for key in flow.resources:
            if key not in key_to_idx:
                if key not in capacities:
                    raise SimulationError(f"flow references unknown resource {key!r}")
                key_to_idx[key] = len(keys)
                keys.append(key)
            idxs.append(key_to_idx[key])
        flow_res.append(np.asarray(idxs, dtype=np.int64))
    caps = np.asarray([capacities[k] for k in keys], dtype=np.float64)
    if np.any(caps <= 0):
        bad = [k for k in keys if capacities[k] <= 0]
        raise SimulationError(f"non-positive capacity for resources {bad!r}")
    return keys, caps, flow_res


def max_min_rates(
    flows: Sequence[Flow], capacities: Mapping[ResourceKey, float]
) -> np.ndarray:
    """Max-min fair rates (bytes/s) for each flow via progressive filling."""
    if not flows:
        return np.empty(0, dtype=np.float64)
    keys, caps, flow_res = _index_phase(flows, capacities)
    n_res = len(keys)
    n_flows = len(flows)
    # Incidence counts: how many *active* flows cross each resource.
    rates = np.zeros(n_flows, dtype=np.float64)
    active = np.ones(n_flows, dtype=bool)
    remaining_cap = caps.copy()
    res_alive = np.ones(n_res, dtype=bool)
    active_count = np.zeros(n_res, dtype=np.float64)
    for fr in flow_res:
        active_count[fr] += 1.0

    # Progressive filling: at each step the binding resource is the one
    # with the smallest remaining fair share; its flows freeze there.
    for _ in range(n_res + 1):
        if not active.any():
            break
        usable = res_alive & (active_count > 0)
        if not usable.any():
            break
        shares = np.full(n_res, np.inf)
        shares[usable] = remaining_cap[usable] / active_count[usable]
        bottleneck = int(np.argmin(shares))
        share = float(shares[bottleneck])
        if not np.isfinite(share):
            break
        # Freeze every active flow crossing the bottleneck at `share`.
        froze_any = False
        for i in range(n_flows):
            if active[i] and bottleneck in flow_res[i]:
                rates[i] = share
                active[i] = False
                froze_any = True
                remaining_cap[flow_res[i]] -= share
                active_count[flow_res[i]] -= 1.0
        res_alive[bottleneck] = False
        # Numerical guard: tiny negatives from float subtraction.
        np.maximum(remaining_cap, 0.0, out=remaining_cap)
        if not froze_any:
            break
    if active.any():
        raise SimulationError("progressive filling failed to freeze all flows")
    return rates


def bottleneck_time(
    flows: Sequence[Flow], capacities: Mapping[ResourceKey, float]
) -> PhaseOutcome:
    """Fast phase time: max over resources of bytes/capacity.

    Under this approximation every flow finishes at the phase end — the
    phase behaves like one synchronized bulk transfer, which matches how
    two-phase collective I/O synchronizes rounds.
    """
    if not flows:
        return PhaseOutcome(0.0, np.empty(0), {}, mode="bottleneck")
    keys, caps, flow_res = _index_phase(flows, capacities)
    loads = np.zeros(len(keys), dtype=np.float64)
    for flow, fr in zip(flows, flow_res):
        if flow.resource_sizes:
            for j in fr:
                loads[j] += flow.charge_on(keys[j])
        else:
            loads[fr] += flow.size
    times = loads / caps
    duration = float(times.max(initial=0.0))
    finish = np.full(len(flows), duration, dtype=np.float64)
    return PhaseOutcome(
        duration,
        finish,
        {k: float(b) for k, b in zip(keys, loads)},
        mode="bottleneck",
    )


class FluidSimulation:
    """Exact fluid completion under max-min fair sharing.

    Repeatedly: solve rates for the still-active flows, advance to the
    earliest completion, decrement remaining sizes, repeat. ``O(F)``
    iterations of an ``O(F·R)`` solve — reserved for phases of modest
    size (the fine mode of the network model).
    """

    def __init__(self, capacities: Mapping[ResourceKey, float]):
        self._capacities = dict(capacities)

    def run(self, flows: Sequence[Flow]) -> PhaseOutcome:
        if not flows:
            return PhaseOutcome(0.0, np.empty(0), {}, mode="fluid")
        remaining = np.asarray([f.size for f in flows], dtype=np.float64)
        finish = np.zeros(len(flows), dtype=np.float64)
        alive = remaining > 0
        finish[~alive] = 0.0
        now = 0.0
        resource_bytes: dict[ResourceKey, float] = {}
        for flow in flows:
            for key in flow.resources:
                resource_bytes[key] = resource_bytes.get(key, 0.0) + flow.size
        guard = 0
        while alive.any():
            guard += 1
            if guard > len(flows) + 1:
                raise SimulationError("fluid simulation failed to converge")
            live_idx = np.flatnonzero(alive)
            live_flows = [flows[i] for i in live_idx]
            rates = max_min_rates(live_flows, self._capacities)
            if np.any(rates <= 0):
                raise SimulationError("zero rate for an active flow")
            ttf = remaining[live_idx] / rates
            dt = float(ttf.min())
            now += dt
            remaining[live_idx] -= rates * dt
            done = live_idx[remaining[live_idx] <= 1e-9]
            finish[done] = now
            remaining[done] = 0.0
            alive[done] = False
        return PhaseOutcome(now, finish, resource_bytes, mode="fluid")


def solve_phase(
    flows: Sequence[Flow],
    capacities: Mapping[ResourceKey, float],
    *,
    mode: str = "bottleneck",
) -> PhaseOutcome:
    """Dispatch to the requested solver (``"bottleneck"`` or ``"fluid"``)."""
    if mode == "bottleneck":
        return bottleneck_time(flows, capacities)
    if mode == "fluid":
        return FluidSimulation(capacities).run(flows)
    raise SimulationError(f"unknown phase solver mode {mode!r}")
