#!/usr/bin/env python3
"""Checkpoint/restart under memory pressure — the motivating scenario.

Data-intensive applications checkpoint by collectively dumping their
state to a shared file while the *application itself* is using most of
each node's memory — and unevenly so (the paper's 'significant variance
of available memory among nodes'). This example simulates exactly that:

1. an application with a skewed per-rank state (some ranks hold far
   more data), leaving each node a random sliver of free memory;
2. a collective checkpoint write with both strategies (verified
   byte-accurate);
3. a restart: the checkpoint is collectively read back and checked
   against the original state.

Also shows `auto_tune` calibrating Nah/Msg_ind/Msg_group for the
machine before the run, as the paper's prototype does.

Run:  python examples/checkpoint_restart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AccessRequest,
    CollectiveHints,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    auto_tune,
    make_context,
    mib,
    render_table,
    scaled_testbed,
)
from repro.workloads import SkewedWorkload


def main() -> None:
    n_procs = 48
    machine = scaled_testbed(4, cores_per_node=12)

    # Calibrate the strategy for this machine (paper Section 3).
    tuning = auto_tune(machine)
    config = tuning.as_config()
    print(
        f"calibrated: Nah={tuning.nah}, Msg_ind={tuning.msg_ind >> 20} MiB, "
        f"Mem_min={tuning.mem_min >> 20} MiB, "
        f"Msg_group={tuning.msg_group >> 20} MiB\n"
    )

    # Application state: geometric skew — rank 0 holds 32 MiB, decaying.
    state = SkewedWorkload(n_procs, base_bytes=mib(32), decay=0.82)
    total = sum(state.extents_for_rank(r).total for r in range(n_procs))
    print(f"checkpoint size: {total >> 20} MiB across {n_procs} ranks "
          f"(largest rank: {state.extents_for_rank(0).total >> 20} MiB)\n")

    rows = []
    for name, strategy in [
        ("two-phase", TwoPhaseCollectiveIO()),
        ("memory-conscious", MemoryConsciousCollectiveIO(config)),
    ]:
        ctx = make_context(
            machine, n_procs, procs_per_node=12, track_data=True,
            hints=CollectiveHints(cb_buffer_size=mib(8)), seed=99,
        )
        # The application occupies the nodes unevenly: free memory is a
        # random sliver, 8 MiB on average, sigma 50 MiB (paper's setup).
        free = ctx.cluster.apply_memory_variance(
            ctx.rng, mean_available=mib(8), std=mib(50)
        )
        checkpoint = ctx.pfs.open("checkpoint.dat")

        write_reqs = state.requests(with_data=True)
        w = strategy.write(ctx, checkpoint, write_reqs)

        # Restart: read everything back and verify against the state.
        read_reqs = [AccessRequest(r.rank, r.extents) for r in write_reqs]
        r = strategy.read(ctx, checkpoint, read_reqs)
        restored = all(
            np.array_equal(rd.data, wr.data)
            for wr, rd in zip(write_reqs, read_reqs)
        )

        rows.append(
            (
                name,
                f"{w.bandwidth / mib(1):.0f} MiB/s",
                f"{r.bandwidth / mib(1):.0f} MiB/s",
                w.n_aggregators,
                f"{w.inter_node_fraction:.0%}",
                "ok" if restored else "CORRUPT",
            )
        )
        if name == "memory-conscious":
            placed_nodes = sorted({a.node_id for a in w.aggregators})
            print(
                f"free memory per node: "
                f"{[int(x) >> 20 for x in free]} MiB -> "
                f"MC aggregators placed on nodes {placed_nodes}"
            )

    print()
    print(
        render_table(
            ["strategy", "checkpoint bw", "restart bw", "aggs", "inter-node", "verified"],
            rows,
            title="checkpoint/restart under application memory pressure",
        )
    )


if __name__ == "__main__":
    main()
