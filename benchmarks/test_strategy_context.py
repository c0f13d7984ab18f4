"""Context baseline: all four I/O methods on the canonical pattern.

Not a paper figure, but the Section 2 narrative quantified: independent
I/O drowns in small noncontiguous requests, data sieving trades volume
for contiguity, two-phase collective I/O removes the redundancy, and
memory-conscious collective I/O keeps that win when memory is scarce.
"""

from __future__ import annotations

import pytest
from harness import publish, run_point

from repro import (
    DataSievingIO,
    IndependentIO,
    IORWorkload,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    auto_tune,
    mib,
    render_table,
    testbed_640,
)

MEM = mib(8)


@pytest.fixture(scope="module")
def machine():
    return testbed_640()


def _run(machine) -> str:
    # Fine-grained interleaved accesses: 16 KiB transfers — the
    # "large number of small noncontiguous requests" of the paper's
    # introduction.
    workload = IORWorkload(120, block_size=mib(4), transfer_size=16 * 1024)
    config = auto_tune(machine).as_config()
    strategies = [
        IndependentIO(),
        DataSievingIO(),
        TwoPhaseCollectiveIO(),
        MemoryConsciousCollectiveIO(config),
    ]
    rows = []
    for strategy in strategies:
        res = run_point(
            machine, workload, strategy,
            kind="write", cb_buffer=MEM, seed=7,
            memory_variance_mean=(
                MEM if strategy.name == "memory-conscious" else None
            ),
        )
        rows.append(
            (
                strategy.name,
                f"{res.bandwidth / mib(1):.1f} MiB/s",
                res.n_aggregators,
                res.n_rounds,
            )
        )
    return (
        render_table(
            ["strategy", "write bandwidth", "aggregators", "rounds"],
            rows,
            title="I/O methods on fine-grained interleaved accesses "
            "(120 procs, 16 KiB transfers)",
        )
        + "\n"
    )


def test_strategy_context(machine):
    text = _run(machine)
    publish("strategy_context", text)
    lines = {row.split()[0] for row in text.splitlines()[2:] if row.strip()}
    assert "independent" in lines and "memory-conscious" in lines
