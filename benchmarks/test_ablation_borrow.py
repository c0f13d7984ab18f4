"""Ablation A5: what the disaggregated remote-memory tier buys.

Same pressured MC-CIO point at several memory-variance levels, run
twice: once on a machine with a remote pool (the controller may price a
borrow) and once without (its cheapest levers are shrink/remerge/page).
With heterogeneous memory the borrow-backed arm completes faster — the
staged domain stays where its data lives instead of re-shipping to a
neighbour — and the committed ``BENCH_borrow.json`` baseline pins the
deterministic makespans and lever decisions so regressions in the
pricing are caught, not just drifts in the win.

Regenerate the baseline after an intentional engine change::

    PYTHONPATH=src:benchmarks python - <<'PY'
    import json
    from test_ablation_borrow import BASELINE_PATH, gather
    BASELINE_PATH.write_text(json.dumps(gather(), indent=2) + "\n")
    PY
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from harness import publish

from repro import Experiment, FaultEvent, FaultSpec, mib, render_table
from repro.cluster import RemotePoolSpec

BASELINE_PATH = Path(__file__).parent / "BENCH_borrow.json"

#: memory-variance std levels (bytes); 0 = perfectly uniform memory
VARIANCE_LEVELS = (0, mib(1), mib(2), mib(4))

POOL = RemotePoolSpec(
    capacity=mib(64),
    link_bandwidth=50e9,  # fast access link: borrowing can out-price remerge
    latency_s=2e-6,
    n_links=4,
)

#: full pressure on aggregator node 0 just after the run starts — the
#: moment the controller must price its way out
PRESSURE = FaultSpec(
    events=(
        FaultEvent(kind="mem_pressure", time=1e-3, target=0, fraction=1.0),
    ),
)


def _arm(with_pool: bool, std: int) -> tuple[float, list[str]]:
    exp = Experiment(
        machine="testbed-4",
        strategy="mc",
        n_procs=8,
        procs_per_node=2,
        workload_params={"block_size": mib(2), "transfer_size": mib(1) // 2},
        cb_buffer=mib(1) // 2,
        seed=3,
        memory_variance_mean=mib(2),
        memory_variance_std=std,
        faults=PRESSURE,
    )
    if with_pool:
        exp = exp.replace(machine=exp.resolve_machine().with_pool(POOL))
    res = exp.run()
    assert res.telemetry is not None
    return res.elapsed, [s.lever for s in res.telemetry.borrows]


def gather() -> dict:
    """The full ablation as a JSON-safe dict (the baseline's schema)."""
    levels = []
    for std in VARIANCE_LEVELS:
        pool_elapsed, pool_levers = _arm(True, std)
        local_elapsed, local_levers = _arm(False, std)
        levels.append(
            {
                "std_mib": std >> 20,
                "pool_elapsed_s": pool_elapsed,
                "pool_levers": pool_levers,
                "local_elapsed_s": local_elapsed,
                "local_levers": local_levers,
                "improvement": local_elapsed / pool_elapsed - 1.0,
            }
        )
    return {"benchmark": "ablation_borrow", "levels": levels}


def _render(data: dict) -> str:
    rows = [
        (
            f"{lv['std_mib']} MiB",
            f"{lv['pool_elapsed_s'] * 1e3:.3f} ms",
            ",".join(lv["pool_levers"]) or "-",
            f"{lv['local_elapsed_s'] * 1e3:.3f} ms",
            ",".join(lv["local_levers"]) or "-",
            f"{lv['improvement']:+.1%}",
        )
        for lv in data["levels"]
    ]
    return (
        render_table(
            [
                "variance std", "pooled", "pooled levers",
                "no pool", "local levers", "pool speedup",
            ],
            rows,
            title="Borrow ablation (pressured MC-CIO, testbed-4)",
        )
        + "\n"
    )


def test_ablation_borrow():
    data = gather()
    publish("ablation_borrow", _render(data))

    # The headline claim: on at least one variance level the pooled arm
    # chose borrow, the pool-less arm fell back to remerge, and the
    # borrow completed faster.
    wins = [
        lv
        for lv in data["levels"]
        if "borrow" in lv["pool_levers"]
        and "remerge" in lv["local_levers"]
        and lv["pool_elapsed_s"] < lv["local_elapsed_s"]
    ]
    assert wins, "borrow never beat remerge on any variance level"

    # The simulation is deterministic: every number and every decision
    # must match the committed baseline exactly.
    base = json.loads(BASELINE_PATH.read_text())
    assert [lv["std_mib"] for lv in data["levels"]] == [
        lv["std_mib"] for lv in base["levels"]
    ]
    for got, want in zip(data["levels"], base["levels"]):
        assert got["pool_levers"] == want["pool_levers"]
        assert got["local_levers"] == want["local_levers"]
        assert got["pool_elapsed_s"] == pytest.approx(
            want["pool_elapsed_s"], rel=1e-9
        )
        assert got["local_elapsed_s"] == pytest.approx(
            want["local_elapsed_s"], rel=1e-9
        )
