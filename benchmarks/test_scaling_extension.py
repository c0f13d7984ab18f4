"""Extension S1: process-count scaling (beyond the paper's two points).

The paper evaluates 120 and 1080 processes; its motivation is extreme
scale. This extension sweeps the process count at a fixed scarce memory
budget and reports how the MC-CIO advantage evolves with scale — the
trend the abstract projects toward exascale.
"""

from __future__ import annotations

import pytest
from harness import publish, run_point

from repro import (
    IORWorkload,
    MemoryConsciousCollectiveIO,
    TwoPhaseCollectiveIO,
    auto_tune,
    mib,
    render_table,
    testbed_640,
)

MEM = mib(8)
PROC_COUNTS = (120, 240, 480, 960)


@pytest.fixture(scope="module")
def machine():
    return testbed_640()


def _run(machine) -> str:
    config = auto_tune(machine).as_config()
    rows = []
    for n_procs in PROC_COUNTS:
        workload = IORWorkload(n_procs, block_size=mib(16), transfer_size=mib(2))
        base = run_point(
            machine, workload, TwoPhaseCollectiveIO(),
            kind="write", cb_buffer=MEM, seed=7,
        )
        mc = run_point(
            machine, workload, MemoryConsciousCollectiveIO(config),
            kind="write", cb_buffer=MEM, seed=7,
            memory_variance_mean=MEM,
        )
        rows.append(
            (
                n_procs,
                f"{base.bandwidth / mib(1):.1f} MiB/s",
                f"{mc.bandwidth / mib(1):.1f} MiB/s",
                f"{mc.bandwidth / base.bandwidth - 1:+.1%}",
                f"{base.n_rounds}/{mc.n_rounds}",
            )
        )
    return (
        render_table(
            ["processes", "two-phase", "memory-conscious", "improvement", "rounds b/mc"],
            rows,
            title=f"Scaling extension: IOR write, {MEM >> 20} MiB memory budget",
        )
        + "\n"
    )


def test_scaling_extension(machine):
    text = _run(machine)
    publish("scaling_extension", text)
    assert "960" in text
