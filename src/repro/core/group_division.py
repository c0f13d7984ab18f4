"""The Aggregation Group Division component (paper Section 3.1, Figure 4).

Splits the collective workload into disjoint *aggregation groups* of
roughly ``Msg_group`` requested bytes each; all shuffle traffic then
stays inside a group. Two detection-driven modes:

* **serial** — when processes' file regions are (mostly) disjoint and
  ordered, cuts are placed between *physical nodes*: a group's boundary
  is extended to the ending offset of the data accessed by the last
  process of its last node, so no node's processes ever aggregate into
  two groups (the Figure 4 rule).
* **interleaved** — when per-node regions interleave (complex structured
  datatypes, IOR-style patterns), node-aligned cuts are impossible; the
  divider falls back to analysing the combined access set ("the MPI file
  view across processes") and cuts it at covered-byte quantiles of
  ``Msg_group``.

``auto`` measures how much neighbouring nodes' regions overlap and picks
the mode; ``off`` yields a single global group (the ablation baseline).

This module holds the group type and the cut rules; the division itself
runs on the workload's columns in
:func:`~repro.core.columnar.divide_groups_flat`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.intervals import Extent, ExtentList
from .config import MemoryConsciousConfig

__all__ = ["AggregationGroup"]


@dataclass(frozen=True, slots=True)
class AggregationGroup:
    """A disjoint slice of the collective workload."""

    group_id: int
    region: Extent
    coverage: ExtentList

    @property
    def covered_bytes(self) -> int:
        return self.coverage.total


#: Per-node access envelopes as parallel int64 columns ``(node, start,
#: end, nbytes)``: each node's first offset, last end and covered bytes,
#: in (start, end) order with ties in first-appearance order.
NodeEnvelopes = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _infos_serial(envelopes: NodeEnvelopes, overlap_threshold: float) -> bool:
    """Serial-distribution test over node envelopes: the bytes by which
    each node's span overlaps the nodes before it, over the summed
    spans. Both sums are Python ints, so offsets near 2**62 cannot
    overflow them."""
    _, start, end, _ = envelopes
    if start.size <= 1:
        return True
    span_sum = sum((end - start).tolist())
    if span_sum == 0:
        return True
    reach = np.maximum.accumulate(end[:-1])
    overlap = np.maximum(np.minimum(reach, end[1:]) - start[1:], 0)
    return sum(overlap.tolist()) / span_sum <= overlap_threshold


def _serial_boundaries_from(
    envelopes: NodeEnvelopes,
    config: MemoryConsciousConfig,
    env: Extent,
) -> list[int]:
    """Node-aligned cuts: close a group at the end offset of the last node
    whose data pushed the accumulated size past Msg_group (Figure 4).

    A cut is only valid once every *in-flight* node is behind it: with
    overlapping envelopes (tolerated up to ``serial_overlap_threshold``)
    a node later in start order may begin before the running maximum
    end, and cutting there would straddle that node across two groups —
    exactly what the Figure 4 rule (and verifier rule PV100) forbids. So
    after the accumulator trips, the boundary keeps absorbing nodes
    until none starts before it.
    """
    _, start, end, nbytes = (column.tolist() for column in envelopes)
    boundaries = [env.offset]
    acc = 0
    group_end = env.offset
    i = 0
    n = len(start)
    while i < n:
        acc += nbytes[i]
        group_end = max(group_end, end[i])
        i += 1
        if acc >= config.msg_group and i < n:
            while i < n and start[i] < group_end:
                acc += nbytes[i]
                group_end = max(group_end, end[i])
                i += 1
            if i < n and group_end > boundaries[-1]:
                boundaries.append(group_end)
                acc = 0
    if boundaries[-1] != env.end:
        boundaries.append(env.end)
    return boundaries


def _interleaved_boundaries(
    aggregate: ExtentList,
    config: MemoryConsciousConfig,
    env: Extent,
) -> list[int]:
    """Covered-byte quantile cuts of the combined access set.

    The group count rounds half-up (``round(total / Msg_group)``) and
    cuts sit at ``k * total / n_groups`` covered-byte quantiles, so
    every group carries ~``total / n_groups`` bytes — at most ~1.5×
    ``Msg_group`` — instead of folding the remainder into the last
    group, which could end up just under 2× ``Msg_group``.
    """
    total = aggregate.total
    n_groups = max(1, (2 * total + config.msg_group) // (2 * config.msg_group))
    boundaries = [env.offset]
    if n_groups > 1:
        lengths = aggregate.lengths
        cum = np.cumsum(lengths)
        cum0 = cum - lengths
        targets = (np.arange(1, n_groups, dtype=np.int64) * total) // n_groups
        idx = np.searchsorted(cum, targets, side="right")
        offs = aggregate.starts[idx] + (targets - cum0[idx])
        for off in offs.tolist():
            if off > boundaries[-1]:
                boundaries.append(int(off))
    if boundaries[-1] != env.end:
        boundaries.append(env.end)
    return boundaries
