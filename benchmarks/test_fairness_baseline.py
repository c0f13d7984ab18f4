"""Fairness check: give the baseline more aggregators per node.

MC-CIO runs several aggregators per memory-rich node (`Nah`). A fair
question: does plain two-phase close the gap if ROMIO's
``cb_nodes_per_node`` hint is simply raised to the same count, with no
memory awareness at all? This experiment separates the *aggregator
count* effect from the *memory-conscious placement* effect.
"""

from __future__ import annotations

import pytest
from harness import publish, run_point

from repro import (
    CollectiveHints,
    IORWorkload,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    auto_tune,
    make_context,
    mib,
    render_table,
    testbed_640,
)

MEM = mib(8)
SEED = 7


@pytest.fixture(scope="module")
def machine():
    return testbed_640()


def _run(machine) -> str:
    workload = IORWorkload(120, block_size=mib(32), transfer_size=mib(2))
    tuned = auto_tune(machine)
    rows = []
    for per_node in (1, 2, 4, tuned.nah):
        ctx = make_context(
            machine, 120, procs_per_node=12, seed=SEED,
            hints=CollectiveHints(
                cb_buffer_size=MEM, cb_nodes_per_node=per_node
            ),
        )
        res = TwoPhaseCollectiveIO().write(
            ctx, ctx.pfs.open("f"), workload.requests()
        )
        rows.append(
            (
                f"two-phase, {per_node} agg/node",
                f"{res.bandwidth / mib(1):.1f} MiB/s",
                res.n_rounds,
            )
        )
    mc = run_point(
        machine, workload, MemoryConsciousCollectiveIO(tuned.as_config()),
        kind="write", cb_buffer=MEM, seed=SEED, memory_variance_mean=MEM,
    )
    rows.append(
        (
            f"MC-CIO (Nah={tuned.nah}, memory-aware)",
            f"{mc.bandwidth / mib(1):.1f} MiB/s",
            mc.n_rounds,
        )
    )
    return (
        render_table(
            ["configuration", "write bandwidth", "rounds"],
            rows,
            title=f"Fairness: aggregator count vs memory awareness "
            f"(IOR 120 procs, {MEM >> 20} MiB)",
        )
        + "\n"
    )


def test_fairness_baseline(machine):
    text = _run(machine)
    publish("fairness_baseline", text)
    assert "MC-CIO" in text
