"""Extension S2: planner hot-path scaling to the paper's design point.

The motivation table (Table 1) projects ~4444× today's concurrency;
whatever else the reproduction does, the *planner* has to keep up with
that rank count. This benchmark plans and prices a 1M-rank / 50k-node
segmented IOR collective through the columnar engine and asserts it
finishes inside the CI budget, cross-checking the plan's gross shape
(group/domain counts) against the committed baseline in
``BENCH_planner_scaling.json``.

Timing note: the wall-clock bound is deliberately loose (CI hardware is
shared); the committed baseline plus the ``perf-smoke`` CI job watch
for creeping regressions at the 2× level.
"""

from __future__ import annotations

import json

import pytest
from harness import publish
from planner_scaling import BASELINE_PATH, load_baseline, run_point

from repro import render_table

TIME_BUDGET_S = 10.0
FULL_RANKS, FULL_NODES = 1_000_000, 50_000
SMOKE_RANKS, SMOKE_NODES = 100_000, 5_000


@pytest.mark.slow
def test_full_scale_point_within_budget():
    row = run_point(FULL_RANKS, FULL_NODES)
    if row["elapsed_s"] > TIME_BUDGET_S:
        # One retry: shared runners occasionally steal the first run
        # (cold page cache, noisy neighbour); a genuine hot-path
        # regression fails both attempts.
        row = run_point(FULL_RANKS, FULL_NODES)
    assert row["elapsed_s"] <= TIME_BUDGET_S, (
        f"1M-rank plan+price took {row['elapsed_s']:.2f}s "
        f"(budget {TIME_BUDGET_S}s)"
    )

    base = load_baseline(BASELINE_PATH, "full")
    assert base is not None, "committed baseline entry 'full' missing"
    # The plan itself is deterministic: shape must match the baseline
    # exactly even though timings move with the hardware.
    for key in ("n_groups", "n_domains", "total_bytes", "predicted_rounds"):
        assert row[key] == base[key], f"{key}: {row[key]} != {base[key]}"

    rows = [
        (
            f"{point['n_ranks']:,}",
            f"{point['n_nodes']:,}",
            f"{point['total_bytes'] / float(1 << 30):.0f} GiB",
            point["n_groups"],
            point["n_domains"],
            f"{point['elapsed_s']:.2f} s",
            f"{point['predicted_bandwidth_gib_s']:.2f} GiB/s",
        )
        for point in (run_point(SMOKE_RANKS, SMOKE_NODES), row)
    ]
    publish(
        "planner_scaling",
        render_table(
            ["ranks", "nodes", "bytes", "groups", "domains",
             "plan+price", "predicted bw"],
            rows,
            title="Planner scaling: columnar engine, segmented IOR",
        )
        + "\n",
    )


def test_smoke_point_matches_baseline_shape():
    row = run_point(SMOKE_RANKS, SMOKE_NODES)
    base = load_baseline(BASELINE_PATH, "smoke")
    assert base is not None, "committed baseline entry 'smoke' missing"
    for key in ("n_groups", "n_domains", "total_bytes"):
        assert row[key] == base[key], f"{key}: {row[key]} != {base[key]}"


def test_baseline_file_is_valid_json():
    data = json.loads(BASELINE_PATH.read_text())
    names = {e["name"] for e in data["entries"]}
    assert {"full", "smoke"} <= names
