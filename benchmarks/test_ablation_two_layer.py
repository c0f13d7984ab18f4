"""Ablation A5: intra-node/inter-node two-layer shuffle coordination.

The abstract promises coordination "in intra-node and inter-node
layer". With two-layer shuffling every node gathers its ranks'
contributions at a leader before one message per (node, aggregator)
pair crosses the network — message startups drop by the ranks-per-node
factor at the cost of an extra memory-bus pass. This sweep measures the
trade at increasing ranks-per-node.
"""

from __future__ import annotations

import pytest
from harness import publish

from repro import (
    CollectiveHints,
    IORWorkload,
    MemoryConsciousCollectiveIO,
    auto_tune,
    make_context,
    mib,
    render_table,
    testbed_640,
)

MEM = mib(8)


@pytest.fixture(scope="module")
def machine():
    return testbed_640()


def _run(machine) -> str:
    config = auto_tune(machine).as_config()
    rows = []
    for n_procs in (120, 480, 960):
        workload = IORWorkload(n_procs, block_size=mib(8), transfer_size=mib(1))
        bw = {}
        for two_layer in (False, True):
            ctx = make_context(
                machine, n_procs, procs_per_node=12, seed=7,
                hints=CollectiveHints(
                    cb_buffer_size=MEM, two_layer_shuffle=two_layer
                ),
            )
            ctx.cluster.apply_memory_variance(
                ctx.rng, mean_available=MEM, std=mib(50)
            )
            res = MemoryConsciousCollectiveIO(config).write(
                ctx, ctx.pfs.open("f"), workload.requests()
            )
            bw[two_layer] = res.bandwidth
        rows.append(
            (
                n_procs,
                f"{bw[False] / mib(1):.1f} MiB/s",
                f"{bw[True] / mib(1):.1f} MiB/s",
                f"{bw[True] / bw[False] - 1:+.1%}",
            )
        )
    return (
        render_table(
            ["processes", "flat shuffle", "two-layer", "change"],
            rows,
            title="A5: two-layer intra/inter-node shuffle coordination "
            f"(IOR write, {MEM >> 20} MiB memory)",
        )
        + "\n"
    )


def test_ablation_two_layer(machine):
    text = _run(machine)
    publish("ablation_two_layer", text)
    assert "two-layer" in text
