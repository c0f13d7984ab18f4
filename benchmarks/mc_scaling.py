"""MC write scaling benchmark: execute the paper's variance model past 10k ranks.

``planner_scaling.py`` plans 1M ranks, but only under uniform memory and
without executing. This benchmark runs whole memory-conscious IOR writes
through :meth:`repro.api.Experiment.run` — resolve, ``auto_tune``, plan,
execute — with per-node available memory drawn from Normal(64 MiB,
50 MiB), the paper's variance model. Each rank writes 4 MiB in 1 MiB
transfers on ``testbed-<ranks/12>`` (12 ranks per node), with 8 MiB
collective buffers and seed 1. The variance model is what makes domains
remerge and slots rebalance, so this is where the exchange index and the
rebalancer meet their extreme-scale inputs.

Also usable as a CLI for the CI smoke job::

    python benchmarks/mc_scaling.py --ranks 24000 --max-regression 2.0

which exits non-zero when ``run()`` wall time regresses more than
``--max-regression``× against the committed entry ``r<ranks>`` of
``BENCH_mc_scaling.json``, or when the simulated ``elapsed`` differs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from planner_scaling import load_baseline

from repro.api import Experiment
from repro.util import mib

BASELINE_PATH = Path(__file__).parent / "BENCH_mc_scaling.json"

RANKS_PER_NODE = 12
BLOCK_SIZE = mib(4)
TRANSFER_SIZE = mib(1)
BUFFER = mib(8)
MEMORY_MEAN = mib(64)
MEMORY_STD = mib(50)
SEED = 1
#: floor on the regression limit, so a short run does not flake on a
#: slower shared runner
MIN_LIMIT_S = 1.0


def experiment(n_ranks: int) -> Experiment:
    """The MC write at ``n_ranks`` (a multiple of 12)."""
    if n_ranks % RANKS_PER_NODE != 0:
        raise ValueError(f"n_ranks must be a multiple of {RANKS_PER_NODE}")
    return Experiment(
        machine=f"testbed-{n_ranks // RANKS_PER_NODE}",
        workload="ior",
        strategy="mc",
        n_procs=n_ranks,
        procs_per_node=RANKS_PER_NODE,
        seed=SEED,
        kind="write",
        cb_buffer=BUFFER,
        memory_variance_mean=MEMORY_MEAN,
        memory_variance_std=MEMORY_STD,
        workload_params={"block_size": BLOCK_SIZE, "transfer_size": TRANSFER_SIZE},
    )


def run_point(n_ranks: int) -> dict:
    """Run one MC write; returns a result row."""
    exp = experiment(n_ranks)
    t0 = time.perf_counter()
    result = exp.run()
    run_s = time.perf_counter() - t0
    return {
        "n_ranks": n_ranks,
        "n_nodes": n_ranks // RANKS_PER_NODE,
        "run_s": round(run_s, 3),
        "n_domains": len(result.aggregators),
        "n_rounds": result.n_rounds,
        "n_remerges": int(result.extras.get("n_remerges", 0)),
        "n_rebalanced": int(result.telemetry.counters.get("rebalanced", 0)),
        # The simulated time, exactly: a speed change must leave it alone.
        "elapsed": repr(result.elapsed),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", type=int, default=24_000)
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        help="fail when run_s exceeds this multiple of the baseline entry",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="rewrite the baseline entry with this run's numbers",
    )
    args = parser.parse_args(argv)
    entry = f"r{args.ranks}"

    row = run_point(args.ranks)
    row["name"] = entry
    print(json.dumps(row, indent=2))

    if args.write:
        data = (
            json.loads(args.baseline.read_text())
            if args.baseline.exists()
            else {"benchmark": "mc_scaling", "entries": []}
        )
        data["entries"] = [
            e for e in data["entries"] if e.get("name") != entry
        ] + [row]
        args.baseline.write_text(json.dumps(data, indent=2) + "\n")
        print(f"baseline entry {entry!r} written to {args.baseline}")
        return 0

    if args.max_regression is not None:
        base = load_baseline(args.baseline, entry)
        if base is None:
            print(f"no baseline entry {entry!r} in {args.baseline}")
            return 2
        if row["elapsed"] != base["elapsed"]:
            print(f"MISMATCH: simulated elapsed {row['elapsed']} vs baseline {base['elapsed']}")
            return 1
        limit = max(base["run_s"] * args.max_regression, MIN_LIMIT_S)
        verdict = "OK" if row["run_s"] <= limit else "REGRESSION"
        print(
            f"{verdict}: run {row['run_s']:.2f}s vs baseline "
            f"{base['run_s']:.2f}s (limit {limit:.2f}s)"
        )
        if verdict != "OK":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
