"""Ablations A1-A3: which MC-CIO component buys what.

The paper motivates three mechanisms (group division, memory-driven
remerging, dynamic aggregator placement) but only evaluates the full
strategy. These ablations turn each off independently on the Figure 7
workload at a scarce-memory point and report the cost, attributing the
end-to-end win to its parts — the analysis DESIGN.md calls A1-A3.
"""

from __future__ import annotations

import pytest
from harness import publish, run_point

from repro import (
    IORWorkload,
    MemoryConsciousCollectiveIO,
    auto_tune,
    mib,
    render_table,
    testbed_640,
)

MEM = mib(8)  # a scarce-memory point where every mechanism is active
SEEDS = (7, 21, 99)


@pytest.fixture(scope="module")
def machine():
    return testbed_640()


@pytest.fixture(scope="module")
def workload():
    return IORWorkload(120, block_size=mib(32), transfer_size=mib(2))


@pytest.fixture(scope="module")
def segmented_workload():
    # Serial distribution (Figure 4's shape): grouping and data-affinity
    # placement have the most to win here.
    return IORWorkload(120, block_size=mib(32), segmented=True)


def _mean_bw(machine, workload, config) -> float:
    import statistics

    return statistics.fmean(
        run_point(
            machine,
            workload,
            MemoryConsciousCollectiveIO(config),
            kind="write",
            cb_buffer=MEM,
            seed=seed,
            memory_variance_mean=MEM,
        ).bandwidth
        for seed in SEEDS
    )


def _run_ablation(machine, workload) -> str:
    full_cfg = auto_tune(machine).as_config()
    variants = [
        ("full MC-CIO", full_cfg),
        ("A1: no group division", full_cfg.replace(group_mode="off")),
        ("A2: no remerging", full_cfg.replace(enable_remerge=False)),
        ("A3: static placement", full_cfg.replace(dynamic_placement=False)),
        ("A2b: Nah = 1 (one aggregator/host)", full_cfg.replace(nah=1)),
    ]
    rows = []
    full_bw = None
    for name, cfg in variants:
        bw = _mean_bw(machine, workload, cfg)
        if full_bw is None:
            full_bw = bw
        rows.append(
            (name, f"{bw / mib(1):.1f} MiB/s", f"{bw / full_bw - 1:+.1%}")
        )
    return (
        render_table(
            ["variant", "write bandwidth", "vs full"],
            rows,
            title=f"Component ablations ({workload.name}, 120 procs, "
            f"{MEM >> 20} MiB memory)",
        )
        + "\n"
    )


def test_ablation_components_interleaved(machine, workload):
    text = _run_ablation(machine, workload)
    publish("ablation_components_interleaved", text)
    # Sanity: the table rendered with every variant present.
    assert "full MC-CIO" in text
    assert "A1" in text and "A2" in text and "A3" in text


def test_ablation_components_segmented(machine, segmented_workload):
    text = _run_ablation(machine, segmented_workload)
    publish("ablation_components_segmented", text)
    assert "full MC-CIO" in text
