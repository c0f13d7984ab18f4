"""Planner scaling benchmark: plan + price extreme-scale collectives.

The paper's motivation (Table 1) is a design point with ~4444× today's
concurrency; this benchmark checks the reproduction can actually *plan*
at that scale. It flattens a segmented IOR workload straight into
columnar arrays (no per-rank request objects), runs the planner
(:meth:`~repro.core.driver.MemoryConsciousCollectiveIO.plan`), and
prices the resulting domain set with the closed-form model
(:func:`~repro.analysis.model.price_domains`) — planning a 1M-rank /
50k-node collective end to end in seconds on one core.

Also usable as a CLI for the CI smoke job::

    python benchmarks/planner_scaling.py --ranks 100000 --nodes 5000 \
        --baseline benchmarks/BENCH_planner_scaling.json --entry smoke \
        --max-regression 2.0

which exits non-zero when the measured planning time regresses more
than ``--max-regression``× against the committed baseline entry.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.model import price_domains
from repro.cluster import scaled_testbed
from repro.core import MemoryConsciousCollectiveIO, MemoryConsciousConfig
from repro.io import CollectiveHints, make_context
from repro.util import kib, mib
from repro.workloads import IORWorkload

BASELINE_PATH = Path(__file__).parent / "BENCH_planner_scaling.json"

# One 64 KiB block per rank: 1M ranks -> 64 GiB collective. Msg_group /
# Msg_ind at their paper-scale defaults gives 256 MiB groups cut into
# 16 MiB domains -> 4096 leaves across 256 groups at the full size.
BLOCK_SIZE = kib(64)
CONFIG = MemoryConsciousConfig(msg_ind=mib(16), msg_group=mib(256))
AVAILABLE_PER_NODE = mib(64)


def run_point(n_ranks: int, n_nodes: int) -> dict:
    """Plan and price one segmented-IOR point; returns a result row."""
    if n_ranks % n_nodes != 0:
        raise ValueError("n_ranks must be a multiple of n_nodes")
    ppn = n_ranks // n_nodes
    machine = scaled_testbed(n_nodes, cores_per_node=ppn)
    ctx = make_context(
        machine,
        n_ranks,
        procs_per_node=ppn,
        hints=CollectiveHints(cb_buffer_size=CONFIG.msg_ind),
    )
    ctx.cluster.set_uniform_available(AVAILABLE_PER_NODE)
    workload = IORWorkload(n_ranks, block_size=BLOCK_SIZE, segmented=True)
    strategy = MemoryConsciousCollectiveIO(CONFIG)

    t0 = time.perf_counter()
    flat = workload.flat_requests()
    t_flatten = time.perf_counter() - t0

    t0 = time.perf_counter()
    domains, stats, group_sizes = strategy.plan(ctx, flat).as_tuple()
    t_plan = time.perf_counter() - t0

    t0 = time.perf_counter()
    prediction = price_domains(machine, domains, n_nodes=n_nodes)
    t_price = time.perf_counter() - t0

    return {
        "n_ranks": n_ranks,
        "n_nodes": n_nodes,
        "total_bytes": workload.total_bytes(),
        "flatten_s": round(t_flatten, 4),
        "plan_s": round(t_plan, 4),
        "price_s": round(t_price, 4),
        "elapsed_s": round(t_flatten + t_plan + t_price, 4),
        "n_groups": len(group_sizes),
        "n_domains": len(domains),
        "n_remerges": stats.n_remerges,
        "n_fallbacks": stats.n_fallbacks,
        "predicted_rounds": prediction.n_rounds,
        "predicted_elapsed_s": round(prediction.elapsed_s, 4),
        "predicted_bandwidth_gib_s": round(
            prediction.bandwidth / float(1 << 30), 3
        ),
    }


def load_baseline(path: Path, entry: str) -> dict | None:
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    return next(
        (e for e in data.get("entries", []) if e.get("name") == entry), None
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", type=int, default=100_000)
    parser.add_argument("--nodes", type=int, default=5_000)
    parser.add_argument("--entry", default="smoke")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        help="fail when elapsed exceeds this multiple of the baseline entry",
    )
    parser.add_argument(
        "--min-limit",
        type=float,
        default=1.0,
        help="absolute floor (seconds) on the regression limit, so "
        "sub-second baselines don't flake on slower shared runners",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="rewrite the baseline entry with this run's numbers",
    )
    args = parser.parse_args(argv)

    row = run_point(args.ranks, args.nodes)
    row["name"] = args.entry
    print(json.dumps(row, indent=2))

    if args.write:
        data = (
            json.loads(args.baseline.read_text())
            if args.baseline.exists()
            else {"benchmark": "planner_scaling", "entries": []}
        )
        data["entries"] = [
            e for e in data["entries"] if e.get("name") != args.entry
        ] + [row]
        args.baseline.write_text(json.dumps(data, indent=2) + "\n")
        print(f"baseline entry {args.entry!r} written to {args.baseline}")
        return 0

    if args.max_regression is not None:
        base = load_baseline(args.baseline, args.entry)
        if base is None:
            print(f"no baseline entry {args.entry!r} in {args.baseline}")
            return 2
        limit = max(base["elapsed_s"] * args.max_regression, args.min_limit)
        verdict = "OK" if row["elapsed_s"] <= limit else "REGRESSION"
        print(
            f"{verdict}: elapsed {row['elapsed_s']:.2f}s vs baseline "
            f"{base['elapsed_s']:.2f}s (limit {limit:.2f}s)"
        )
        if verdict != "OK":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
