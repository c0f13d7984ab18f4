"""Ablation A4: sensitivity to the tuned parameters Msg_ind and Msg_group.

The paper determines Nah/Msg_ind/Msg_group empirically and defers the
study of their optimality. This sweep quantifies the sensitivity on the
Figure 7 workload: bandwidth as each parameter moves around the
auto-tuned value (holding the others fixed), plus the calibration
curves themselves (the node-level and system-level saturation sweeps).
"""

from __future__ import annotations

import statistics

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

MEM = mib(16)
SEEDS = (7, 21)


@pytest.fixture(scope="module")
def machine():
    return testbed_640()


@pytest.fixture(scope="module")
def workload():
    return IORWorkload(120, block_size=mib(32), transfer_size=mib(2))


def _bw(machine, workload, config) -> float:
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


def _run(machine, workload) -> str:
    tuning = auto_tune(machine)
    base = tuning.as_config()
    sections = []

    rows = []
    for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
        msg_ind = max(mib(1), int(base.msg_ind * factor))
        cfg = base.replace(msg_ind=msg_ind, mem_min=min(base.mem_min, msg_ind))
        rows.append(
            (
                f"{msg_ind >> 20} MiB" + (" (tuned)" if factor == 1.0 else ""),
                f"{_bw(machine, workload, cfg) / mib(1):.1f} MiB/s",
            )
        )
    sections.append(
        render_table(["Msg_ind", "write bw"], rows, title="Msg_ind sensitivity")
    )

    rows = []
    for factor in (0.25, 1.0, 4.0, 16.0):
        msg_group = max(base.msg_ind, int(base.msg_group * factor))
        cfg = base.replace(msg_group=msg_group)
        rows.append(
            (
                f"{msg_group >> 20} MiB" + (" (tuned)" if factor == 1.0 else ""),
                f"{_bw(machine, workload, cfg) / mib(1):.1f} MiB/s",
            )
        )
    sections.append(
        render_table(["Msg_group", "write bw"], rows, title="Msg_group sensitivity")
    )

    node_rows = [
        (f"k={k}, s={s >> 20} MiB", f"{bw / mib(1):.1f} MiB/s")
        for (k, s), bw in sorted(tuning.node_sweep.items())
        if s in (mib(1), mib(4), mib(16))
    ]
    sections.append(
        render_table(
            ["config", "node bw"],
            node_rows,
            title=f"node calibration (chose Nah={tuning.nah}, "
            f"Msg_ind={tuning.msg_ind >> 20} MiB)",
        )
    )
    group_rows = [
        (f"{k} aggregators", f"{bw / mib(1):.1f} MiB/s")
        for k, bw in sorted(tuning.group_sweep.items())
    ]
    sections.append(
        render_table(
            ["scale", "system bw"],
            group_rows,
            title=f"system calibration (chose Msg_group="
            f"{tuning.msg_group >> 20} MiB)",
        )
    )
    return "\n\n".join(sections) + "\n"


def test_ablation_tuning(machine, workload):
    text = _run(machine, workload)
    publish("ablation_tuning", text)
    assert "Msg_ind sensitivity" in text
    assert "system calibration" in text
