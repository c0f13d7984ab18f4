"""Extension S2: collective I/O on a projected exascale node design.

Takes the Table 1 2018 node (1000 cores, ~10 GB — i.e. ~10 MB per
core, 400 GB/s memory bus, 50 GB/s NIC) and runs the IOR sweep on a
two-node job of 2000 ranks, with storage scaled to the job so the
experiment isolates the *node-level* memory wall the paper projects.
Memory budgets are per-aggregator, swept right down to the ~10 MB/core
regime Table 1 predicts.
"""

from __future__ import annotations

import pytest
from harness import publish

from repro import (
    CollectiveHints,
    IORWorkload,
    MemoryConsciousCollectiveIO,
    MemoryConsciousConfig,
    TwoPhaseCollectiveIO,
    exascale_2018,
    make_context,
    mib,
    render_table,
)


@pytest.fixture(scope="module")
def machine():
    # The 2018 node, with the storage system cut down to the job's scale
    # (the full 100k-OST model is not the object of this experiment).
    return exascale_2018().with_storage(n_osts=256, backplane=float(64 << 30))


def _run(machine) -> str:
    n_procs = 2000  # two exascale nodes
    workload = IORWorkload(n_procs, block_size=mib(4), transfer_size=mib(1))
    config = MemoryConsciousConfig(
        msg_ind=mib(16), msg_group=mib(512), nah=32, mem_min=mib(4)
    )
    rows = []
    for mem in (mib(8), mib(32), mib(128), mib(512)):
        ctx = make_context(
            machine, n_procs, procs_per_node=1000, seed=7,
            hints=CollectiveHints(cb_buffer_size=mem),
        )
        base = TwoPhaseCollectiveIO().write(
            ctx, ctx.pfs.open("f"), workload.requests()
        )
        ctx = make_context(
            machine, n_procs, procs_per_node=1000, seed=7,
            hints=CollectiveHints(cb_buffer_size=mem),
        )
        ctx.cluster.apply_memory_variance(
            ctx.rng, mean_available=mem, std=mib(50)
        )
        mc = MemoryConsciousCollectiveIO(config).write(
            ctx, ctx.pfs.open("f"), workload.requests()
        )
        rows.append(
            (
                f"{mem >> 20} MiB",
                f"{base.bandwidth / mib(1):.0f} MiB/s",
                f"{mc.bandwidth / mib(1):.0f} MiB/s",
                f"{mc.bandwidth / base.bandwidth - 1:+.1%}",
                f"{base.n_rounds}/{mc.n_rounds}",
            )
        )
    return (
        render_table(
            ["memory", "two-phase", "memory-conscious", "improvement", "rounds b/mc"],
            rows,
            title="S2: projected exascale node (1000 cores, ~10 MB/core), "
            "2000-rank IOR write",
        )
        + "\n"
    )


def test_exascale_node_extension(machine):
    text = _run(machine)
    publish("exascale_node_extension", text)
    assert "exascale" in text
