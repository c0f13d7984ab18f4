"""The repository's layered benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload faults-240 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``fig7-sweep`` (the paper's Figure 7
memory sweep through ``Experiment.run``, writes and reads),
``faults-240`` (faulted MC writes with a remote pool), ``plan-1m``
(Table 1's million-rank planning point), ``serve-inprocess`` (the
plan-serving pipeline through ``PlanClient``'s in-process engine).

``--trace 0`` measures end to end: the workload's ops run in a closed
loop for ``--seconds``, and set-up is timed before the loop and again at
intervals inside it (median reported). ``--trace 1`` is a separate run: the layers' public
functions are wrapped (``tracing.py``) and a fixed op sequence (one pass
over the op list, three plans, 10000 requests) runs traced, so counts
repeat exactly; the same sequence is then replayed untraced in this
process. The per-layer table is printed with the untraced remainder and
the tracing overhead (traced minus untraced loop time).

Every run hashes the simulated outputs into a digest. For the default
seed the digest must match the one recorded in ``digests.json``
(``--record`` rewrites it after an intended change of results); a
mismatch counts as a failed op. ``--smoke`` shrinks every workload so
all four run in seconds.

The last stdout line is the result:
``{"correct": .., "attempted": .., "failed": .., "metrics": {..}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
WORKLOAD_NAMES = ("fig7-sweep", "faults-240", "plan-1m", "serve-inprocess")

#: end-to-end metrics every workload reports (``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "op_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: per-layer times every workload exercises (``--trace 1``); a
#: ``.total`` span reports inclusive time, every other span self time.
#: One rule decides what is listed: a time is a measurement only if it
#: varies from run to run, and one that reads 0 on every run of a
#: workload does not, so spans some workload never enters (exec, pfs,
#: faults, serve, api, tune: none on plan-1m) are in the printed table
#: and the ``layers`` line only. Counts are meant to repeat exactly, and
#: a zero count is itself a check (no executor work on plan-1m).
PLANNER_SPANS = (
    "plan.total", "plan.divide", "plan.slots", "plan.tree",
    "plan.place", "plan.rebalance", "plan.build_domains",
)
#: per-layer counts (``--trace 1``); zero where a layer is not used
COUNTS = (
    "plan.groups", "plan.domains", "plan.remerges",
    "exec.rounds", "exec.domains", "exec.intersects", "exec.pieces",
    "pfs.calls", "tune.calls", "faults.events", "faults.recoveries",
    "serve.hits", "serve.misses", "serve.rejects",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{span}_s": "s" for span in PLANNER_SPANS}
    units.update({"trace.untraced_s": "s", "trace.overhead_s": "s"})
    units.update({name: "count" for name in COUNTS})
    units["serve.hit_ratio"] = "ratio"
    return units


def _git_commit() -> str | None:
    """HEAD's commit read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context(args: argparse.Namespace) -> dict[str, Any]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": "smoke" if args.smoke else "full",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "loadavg": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


#: set-ups timed per untraced run: the first, then one every
#: ``seconds / SETUP_SAMPLES`` inside the measured loop
SETUP_SAMPLES = 9


def untraced(workload: Any, args: argparse.Namespace) -> tuple[Any, dict[str, float]]:
    from workloads import SetupClock

    clock = SetupClock(workload.setup, args.seconds / SETUP_SAMPLES)
    try:
        clock.time()
        clock.setup = workload.resetup
        out = workload.measure(args.seconds, clock=clock)
    finally:
        workload.teardown()
    setup_s = statistics.median(clock.times)
    metrics = {"setup_s": out.setup_s if out.setup_s is not None else setup_s}
    metrics.update(out.metrics)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return out, metrics


def traced(workload: Any, args: argparse.Namespace) -> tuple[Any, dict[str, float]]:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload.setup()
        t1 = time.perf_counter()
        out = workload.measure(args.seconds, n_ops=workload.trace_ops, tracer=tracer)
        t2 = time.perf_counter()
    finally:
        workload.teardown()
        tracer.uninstall()
    try:
        workload.setup()
        t3 = time.perf_counter()
        replay = workload.measure(args.seconds, n_ops=workload.trace_ops)
        t4 = time.perf_counter()
    finally:
        workload.teardown()
    if replay.digest != out.digest:
        print("traced and untraced runs produced different outputs", file=sys.stderr)
        out.failed += 1
    out.attempted += replay.attempted
    out.failed += replay.failed

    table = tracer.layer_table(wall_s=t2 - t0, overhead_s=(t2 - t1) - (t4 - t3))
    print_table(args.workload, table)
    print("layers " + json.dumps(table, sort_keys=True))
    rows, counts = table["rows"], table["counts"]

    def row(name: str, key: str) -> float:
        return rows.get(name, {}).get(key, 0.0)

    metrics: dict[str, float] = {
        f"{span}_s": row(span, "total_s" if span.endswith(".total") else "self_s")
        for span in PLANNER_SPANS
    }
    metrics["trace.untraced_s"] = table["untraced_s"]
    metrics["trace.overhead_s"] = table["overhead_s"]
    counts = dict(counts, **{
        "pfs.calls": rows.get("pfs.flows", {}).get("calls", 0),
        "tune.calls": rows.get("tune.auto_tune", {}).get("calls", 0),
    })
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    served = sum(counts.get(f"serve.{k}", 0) for k in ("hits", "misses", "rejects"))
    metrics["serve.hit_ratio"] = counts.get("serve.hits", 0) / served if served else 0.0
    return out, metrics


def print_table(workload: str, table: dict[str, Any]) -> None:
    wall = table["wall_s"]
    print(f"per-layer self time, {workload} (traced wall {wall:.3f} s)")
    print(f"  {'span':<22}{'calls':>9}{'total s':>11}{'self s':>11}{'share':>8}")
    for name, r in sorted(table["rows"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"  {name:<22}{r['calls']:>9}{r['total_s']:>11.4f}"
            f"{r['self_s']:>11.4f}{r['share']:>8.1%}"
        )
    print(f"  {'untraced remainder':<42}{table['untraced_s']:>11.4f}"
          f"{table['untraced_s'] / wall if wall else 0:>8.1%}")
    print(f"  tracing overhead (traced - untraced loop): {table['overhead_s']:.4f} s")
    for name, value in table["counts"].items():
        print(f"  count {name}: {value}")


def check_digest(args: argparse.Namespace, digest: str) -> bool | None:
    """True/False against the recorded default-seed digest; None if none applies."""
    expected = None
    if args.seed == DEFAULT_SEED:
        mode = "smoke" if args.smoke else "full"
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        if args.record:
            recorded.setdefault(mode, {})[args.workload] = digest
            recorded["seed"] = DEFAULT_SEED
            DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        expected = recorded.get(mode, {}).get(args.workload)
    print(f"digest {digest} recorded {expected}")
    return None if expected is None else expected == digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload in seconds")
    parser.add_argument("--record", action="store_true",
                        help=f"record this run's digest (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (
        ROOT / "benchmarks" / "planner_scaling.py"
    ).is_file():
        print(f"{ROOT} holds no repro sources (src/repro, benchmarks/)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from workloads import WORKLOADS, ServeInProcess

    print("context " + json.dumps(run_context(args)))
    workdir = ROOT / ".perfbench"
    factory = WORKLOADS[args.workload]
    if factory is ServeInProcess:
        workdir.mkdir(exist_ok=True)
        workload = factory(args.seed, args.smoke, workdir)
    else:
        workload = factory(args.seed, args.smoke)
    try:
        out, metrics = traced(workload, args) if args.trace else untraced(workload, args)
    finally:
        if workdir.is_dir() and not any(workdir.iterdir()):
            workdir.rmdir()

    print("details " + json.dumps(out.details, sort_keys=True))
    matched = check_digest(args, out.digest)
    if matched is not None:
        out.attempted += 1
        out.failed += 0 if matched else 1
    units = per_layer_units() if args.trace else END_TO_END
    result = {
        "correct": out.failed == 0 and set(metrics) == set(units),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
