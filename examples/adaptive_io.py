#!/usr/bin/env python3
"""Adaptive middleware: price the pattern, pick the strategy, run it.

Uses the MPI-IO style :class:`CollectiveFile` facade together with the
cost-model strategy chooser behind ``strategy="auto"``
(:func:`repro.analysis.select_strategy`): three very different
applications open the same simulated machine, the chooser prices every
candidate strategy from each one's flattened access pattern, prints the
price vector, and the cheapest strategy executes the collective write
(byte-verified).

Run:  python examples/adaptive_io.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CollectiveFile,
    CollectiveHints,
    ExtentList,
    MemoryConsciousConfig,
    make_context,
    mib,
    pattern_bytes,
    render_table,
    scaled_testbed,
)
from repro.analysis import select_strategy
from repro.api import resolve_strategy
from repro.workloads import (
    CheckpointWorkload,
    DatasetSpec,
    IORWorkload,
    SkewedWorkload,
)

N = 24
PPN = 12
HINTS = CollectiveHints(cb_buffer_size=mib(4))
CONFIG = MemoryConsciousConfig(
    msg_ind=mib(2), msg_group=mib(16), nah=4, mem_min=mib(1) // 2
)


def scenario_contexts(machine):
    scenarios = [
        (
            "bulk dump (contiguous 16 MiB/rank)",
            SkewedWorkload(N, base_bytes=mib(16), decay=1.0),
            mib(64),  # plenty of memory
        ),
        (
            "analysis output (interleaved 128 KiB records)",
            IORWorkload(N, block_size=mib(2), transfer_size=mib(1) // 8),
            mib(64),
        ),
        (
            "checkpoint under memory pressure",
            CheckpointWorkload(
                N, [DatasetSpec((48, 48, 32))], header_bytes=4096
            ),
            mib(1),  # scarce + uneven
        ),
    ]
    for title, workload, avail in scenarios:
        ctx = make_context(
            machine, N, procs_per_node=PPN, track_data=True, seed=31,
            hints=HINTS,
        )
        ctx.cluster.apply_memory_variance(
            ctx.rng, mean_available=avail, std=mib(8)
        )
        yield title, workload, ctx


def main() -> None:
    machine = scaled_testbed(4, cores_per_node=PPN)
    rows = []
    for title, workload, ctx in scenario_contexts(machine):
        choice = select_strategy(
            machine,
            workload.flat_requests(),
            n_procs=N,
            procs_per_node=PPN,
            hints=HINTS,
            config=CONFIG,
        )
        print(f"{title}: predicted time per strategy")
        for name, price in sorted(choice.prices.items(), key=lambda kv: kv[1]):
            mark = "  <- chosen" if name == choice.chosen else ""
            print(f"  {name:<12} {price * 1e3:9.2f} ms{mark}")
        strategy = resolve_strategy(choice.chosen, machine, CONFIG)

        requests = workload.requests(with_data=True)
        file = CollectiveFile.open(ctx, "out.dat", strategy=strategy)
        result = strategy.write(ctx, file.sim_file, requests)

        expected = ExtentList.union_all([r.extents for r in requests])
        ok = np.array_equal(
            file.sim_file.apply_read(expected), pattern_bytes(expected)
        )
        rows.append(
            (
                title,
                choice.chosen,
                f"{result.bandwidth / mib(1):.0f} MiB/s",
                "yes" if ok else "NO",
            )
        )
        print()
    print(
        render_table(
            ["scenario", "chosen strategy", "bandwidth", "verified"],
            rows,
            title="adaptive strategy selection",
        )
    )


if __name__ == "__main__":
    main()
