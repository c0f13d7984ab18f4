"""Load generator for the planning service: mixed hit/miss traffic.

Drives a stream of plan requests — a pool of ``--distinct`` specs
visited in a seeded shuffled order, so the first touch of each spec is
a miss and every revisit is a (verified) cache hit — through
:class:`repro.client.PlanClient` against one of three transports:

* ``inprocess`` — no daemon: the client's fallback engine (sharded
  verified cache in this process). This is the CI smoke configuration.
* ``http`` — a real ``repro serve`` daemon hosted on a background
  thread in this process (TCP on an ephemeral localhost port), driven
  by ``--clients`` OS processes hammering it concurrently.
* ``unix`` — same daemon, unix-domain socket transport.

Writes ``benchmarks/BENCH_serve.json`` (``--write``) with throughput,
p50/p95/p99 request latency, and the server's hit/miss/reject/coalesce
counters, and exits non-zero when ``--min-rps`` / ``--require-hit-rate``
/ the zero-verification-failure check fail — which is what the
``perf-smoke`` CI job asserts::

    python benchmarks/serve_load.py --transport http --requests 200 \
        --distinct 10 --clients 2 --min-rps 50 --require-hit-rate 0.1
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import sys
import tempfile
import time
from pathlib import Path

from repro.api import Experiment
from repro.client import PlanClient
from repro.serve import PlannerService, ServeDaemon, ShardedPlanCache
from repro.serve.protocol import PlanRequest, experiment_fields
from repro.util import mib
from repro.util.errors import ServeOverloadError

BENCH_PATH = Path(__file__).parent / "BENCH_serve.json"


def spec_pool(distinct: int, n_procs: int) -> list[dict]:
    """``distinct`` small, planner-distinct experiment field dicts."""
    pool = []
    for i in range(distinct):
        exp = Experiment(
            machine="testbed-4",
            workload="ior",
            strategy="mc",
            n_procs=n_procs,
            procs_per_node=2,
            seed=7 + i,  # distinct seeds -> distinct spec hashes
            cb_buffer=mib(4),
            workload_params={"block_size": mib(2), "transfer_size": mib(1)},
            file_name="serve-load.dat",
        )
        pool.append(experiment_fields(exp))
    return pool


def request_schedule(pool: list[dict], requests: int, seed: int) -> list[dict]:
    """A seeded mixed hit/miss order: each spec's first visit misses."""
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(requests)]


def drive(client: PlanClient, schedule: list[dict]) -> dict:
    """Issue the schedule; returns latencies + client-observed outcomes."""
    latencies = []
    states: dict[str, int] = {}
    retried = 0
    for fields in schedule:
        t0 = time.perf_counter()
        try:
            response = client.plan_request(PlanRequest(experiment=fields))
        except ServeOverloadError as exc:
            retried += 1
            time.sleep(min(exc.retry_after_s, 0.5))
            response = client.plan_request(PlanRequest(experiment=fields))
        latencies.append(time.perf_counter() - t0)
        states[response.cache_state] = states.get(response.cache_state, 0) + 1
    return {"latencies": latencies, "states": states, "retried": retried}


def _client_proc(url: str, schedule: list[dict], queue: multiprocessing.Queue) -> None:
    client = PlanClient(url, fallback=False)
    try:
        queue.put(drive(client, schedule))
    finally:
        client.close()


def percentile(latencies: list[float], q: float) -> float:
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def run_load(args: argparse.Namespace) -> dict:
    pool = spec_pool(args.distinct, args.procs)
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-load-"))

    if args.transport == "inprocess":
        client = PlanClient(cache_dir=str(workdir / "cache"), shards=args.shards)
        # Mixed traffic from one client: one long shuffled schedule.
        schedule = request_schedule(pool, args.requests, seed=17)
        t0 = time.perf_counter()
        outcome = drive(client, schedule)
        wall = time.perf_counter() - t0
        outcomes = [outcome]
        server_counters = dict(client.server_metrics()["counters"])
    else:
        from repro.serve.daemon import daemon_in_thread

        cache = ShardedPlanCache(workdir / "cache", shards=args.shards)
        service = PlannerService(
            cache, pool="thread", pool_workers=args.pool_workers,
            max_pending=args.max_pending,
        )
        unix_path = str(workdir / "serve.sock") if args.transport == "unix" else None
        daemon = ServeDaemon(
            service,
            port=0 if args.transport == "http" else None,
            unix_path=unix_path,
        )
        with daemon_in_thread(daemon):
            per_client = max(1, args.requests // args.clients)
            schedules = [
                request_schedule(pool, per_client, seed=17 + i)
                for i in range(args.clients)
            ]
            t0 = time.perf_counter()
            if args.transport == "http" and args.clients > 1:
                assert daemon.url is not None
                queue: multiprocessing.Queue = multiprocessing.get_context().Queue()
                procs = [
                    multiprocessing.get_context().Process(
                        target=_client_proc, args=(daemon.url, sched, queue)
                    )
                    for sched in schedules
                ]
                for proc in procs:
                    proc.start()
                outcomes = [queue.get() for _ in procs]
                for proc in procs:
                    proc.join()
            else:
                outcomes = []
                for sched in schedules:
                    client = PlanClient(
                        daemon.url,
                        unix_socket=unix_path if args.transport == "unix" else None,
                        fallback=False,
                    )
                    outcomes.append(drive(client, sched))
                    client.close()
            wall = time.perf_counter() - t0
            metrics_client = PlanClient(
                daemon.url,
                unix_socket=unix_path if args.transport == "unix" else None,
                fallback=False,
            )
            server_counters = dict(metrics_client.server_metrics()["counters"])
            metrics_client.close()
        service.close_sync()

    # Stable counter schema: the smoke assertions (and readers of the
    # committed JSON) see every counter, zero-valued ones included.
    for name in ("requests", "hits", "misses", "rejects", "coalesced",
                 "overloads", "planning_jobs", "evictions"):
        server_counters.setdefault(name, 0)

    latencies = [lat for o in outcomes for lat in o["latencies"]]
    states: dict[str, int] = {}
    for o in outcomes:
        for state, n in o["states"].items():
            states[state] = states.get(state, 0) + n
    total = len(latencies)
    result = {
        "benchmark": "serve_load",
        "transport": args.transport,
        "requests": total,
        "distinct_specs": args.distinct,
        "clients": args.clients if args.transport != "inprocess" else 1,
        "shards": args.shards,
        "wall_s": round(wall, 4),
        "throughput_rps": round(total / wall, 1),
        "latency_p50_s": round(percentile(latencies, 0.50), 6),
        "latency_p95_s": round(percentile(latencies, 0.95), 6),
        "latency_p99_s": round(percentile(latencies, 0.99), 6),
        "client_states": states,
        "overload_retries": sum(o["retried"] for o in outcomes),
        "server_counters": {k: int(v) for k, v in sorted(server_counters.items())},
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transport", default="inprocess",
                        choices=["inprocess", "http", "unix"])
    parser.add_argument("--requests", type=int, default=5000,
                        help="total requests across all clients")
    parser.add_argument("--distinct", type=int, default=16,
                        help="distinct specs in the pool (first touch of "
                             "each = miss; revisits = hits)")
    parser.add_argument("--clients", type=int, default=2,
                        help="concurrent client processes (http transport)")
    parser.add_argument("--procs", type=int, default=8,
                        help="ranks per experiment (plan size knob)")
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--pool-workers", type=int, default=2)
    parser.add_argument("--max-pending", type=int, default=64)
    parser.add_argument("--min-rps", type=float, default=None,
                        help="fail unless throughput reaches this")
    parser.add_argument("--require-hit-rate", type=float, default=None,
                        help="fail unless server hits / requests exceeds this")
    parser.add_argument("--write", nargs="?", const=str(BENCH_PATH), default=None,
                        help=f"write the result JSON (default {BENCH_PATH})")
    args = parser.parse_args(argv)

    result = run_load(args)
    print(json.dumps(result, indent=2))

    failures = []
    if args.min_rps is not None and result["throughput_rps"] < args.min_rps:
        failures.append(
            f"throughput {result['throughput_rps']} req/s < --min-rps {args.min_rps}"
        )
    counters = result["server_counters"]
    served = sum(result["client_states"].values())
    hits = counters.get("hits", 0)
    if args.require_hit_rate is not None and served:
        hit_rate = hits / served
        if hit_rate <= args.require_hit_rate:
            failures.append(
                f"hit rate {hit_rate:.3f} <= --require-hit-rate {args.require_hit_rate}"
            )
    # Online verification must never fail on self-produced plans: a
    # nonzero reject count here means the cache served poisoned bytes.
    if counters.get("rejects", 0):
        failures.append(f"{counters['rejects']} cached plans failed verification")

    if args.write:
        Path(args.write).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.write}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
