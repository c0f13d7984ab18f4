"""Empirical determination of Nah, Msg_ind, Mem_min, and Msg_group.

The paper determines these "by measuring the corresponding parameters"
on the target platform (Section 3, noting optimal values are left to a
future study). We reproduce the measurement procedure on the simulator:

1. **Node-level** (:func:`tune_node`): on one compute node, sweep the
   number of concurrent aggregator processes and the per-aggregator
   message size; ``Nah``/``Msg_ind`` are the smallest values whose
   bandwidth reaches ``knee_fraction`` of the best observed —
   "fully utilize the I/O bandwidth in one physical compute node".
   ``Mem_min`` is the memory one aggregator needs at that operating
   point, i.e. ``Msg_ind``.
2. **System-level** (:func:`tune_group`): grow the number of concurrent
   aggregators across nodes, each issuing ``Msg_ind``, until the
   file-system throughput saturates; ``Msg_group`` is the aggregate
   message size at the knee — the point past which a bigger group only
   adds contention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.machine import MachineModel
from ..cluster.network import NetworkModel
from ..cluster.topology import Cluster
from ..fs.pfs import ParallelFileSystem
from ..sim.flows import solve_phase
from ..util.intervals import ExtentList
from ..util.units import mib
from .config import MemoryConsciousConfig

__all__ = ["TuningResult", "tune_node", "tune_group", "auto_tune"]


@dataclass(frozen=True, slots=True)
class TuningResult:
    """Calibrated MC-CIO parameters plus the raw sweep data."""

    nah: int
    msg_ind: int
    mem_min: int
    msg_group: int
    node_sweep: dict = field(default_factory=dict)  # (nah, msg) -> bytes/s
    group_sweep: dict = field(default_factory=dict)  # n_aggs -> bytes/s

    def as_config(self, base: MemoryConsciousConfig | None = None) -> MemoryConsciousConfig:
        """Fold the calibration into a strategy configuration."""
        base = base if base is not None else MemoryConsciousConfig()
        return base.replace(
            nah=self.nah,
            msg_ind=self.msg_ind,
            mem_min=self.mem_min,
            msg_group=self.msg_group,
        )


def _node_bandwidth(
    machine: MachineModel, n_aggs: int, msg: int, pfs: ParallelFileSystem
) -> float:
    """Simulated write bandwidth of ``n_aggs`` aggregators on one node,
    each writing ``msg`` contiguous bytes at disjoint stripe-aligned
    offsets."""
    cluster = Cluster(machine, n_aggs, procs_per_node=max(n_aggs, 1))
    network = NetworkModel(machine)
    caps = network.capacity_map(cluster)
    caps.update(pfs.capacity_map("write"))
    flows = []
    for a in range(n_aggs):
        extents = ExtentList.single(a * msg, msg)
        flows.extend(
            pfs.access_flow_list(0, extents, "write", label=f"tune:{a}", stream=a)
        )
        caps.setdefault(pfs.stream_key(a), pfs.stream_capacity("write"))
    out = solve_phase(flows, caps)
    latency = network.message_latency(n_aggs)
    total = n_aggs * msg
    return total / (out.duration + latency) if out.duration + latency > 0 else 0.0


def tune_node(
    machine: MachineModel,
    *,
    agg_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    msg_sizes: tuple[int, ...] = (mib(1), mib(2), mib(4), mib(8), mib(16), mib(32), mib(64)),
    knee_fraction: float = 0.9,
) -> tuple[int, int, dict]:
    """Find (Nah, Msg_ind): the cheapest point near the node's peak."""
    pfs = ParallelFileSystem(machine.storage)
    sweep: dict[tuple[int, int], float] = {}
    max_procs = machine.node.cores
    for k in agg_counts:
        if k > max_procs:
            continue
        for s in msg_sizes:
            if k * s > machine.node.mem_capacity:
                continue
            sweep[(k, s)] = _node_bandwidth(machine, k, s, pfs)
    best = max(sweep.values())
    # Cheapest (memory footprint k*s, then k) configuration near the peak.
    good = [
        (k * s, k, s)
        for (k, s), bw in sweep.items()
        if bw >= knee_fraction * best
    ]
    _, nah, msg_ind = min(good)
    return nah, msg_ind, sweep


def tune_group(
    machine: MachineModel,
    msg_ind: int,
    nah: int,
    *,
    max_nodes: int = 64,
    knee_fraction: float = 0.95,
) -> tuple[int, dict]:
    """Find Msg_group: aggregate message size at system-level saturation."""
    pfs = ParallelFileSystem(machine.storage)
    network = NetworkModel(machine)
    sweep: dict[int, float] = {}
    n_nodes_options = [n for n in (1, 2, 4, 8, 16, 32, 64) if n <= min(max_nodes, machine.n_nodes)]
    for n_nodes in n_nodes_options:
        n_aggs = n_nodes * nah
        cluster = Cluster(machine, n_aggs, procs_per_node=nah)
        caps = network.capacity_map(cluster)
        caps.update(pfs.capacity_map("write"))
        flows = []
        for a in range(n_aggs):
            node_id = cluster.node_id_of_rank(a)
            extents = ExtentList.single(a * msg_ind, msg_ind)
            flows.extend(
                pfs.access_flow_list(node_id, extents, "write", stream=a)
            )
            caps.setdefault(pfs.stream_key(a), pfs.stream_capacity("write"))
        out = solve_phase(flows, caps)
        total = n_aggs * msg_ind
        sweep[n_aggs] = total / out.duration if out.duration > 0 else 0.0
    best = max(sweep.values())
    knee_aggs = min(k for k, bw in sweep.items() if bw >= knee_fraction * best)
    return knee_aggs * msg_ind, sweep


def auto_tune(machine: MachineModel, **node_kwargs) -> TuningResult:
    """Run both calibration stages and package the result."""
    nah, msg_ind, node_sweep = tune_node(machine, **node_kwargs)
    msg_group, group_sweep = tune_group(machine, msg_ind, nah)
    return TuningResult(
        nah=nah,
        msg_ind=msg_ind,
        mem_min=msg_ind,
        msg_group=msg_group,
        node_sweep=node_sweep,
        group_sweep=group_sweep,
    )
