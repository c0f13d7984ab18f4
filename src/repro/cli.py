"""Command-line interface: ``python -m repro <command>``.

Gives the library a shell-level surface for the common workflows:

* ``sweep``    — run a Figure-7-style memory sweep for a chosen workload
  and print the comparison table;
* ``campaign`` — run a full experiment grid (memory x strategy x seed)
  over a worker pool with plan caching, streaming JSONL results;
* ``tune``     — run the Nah/Msg_ind/Msg_group calibration for a machine
  preset and print the chosen parameters with the calibration curves;
* ``project``  — print the Table 1 exascale projection;
* ``run``      — execute one collective operation with one strategy and
  print the result summary and phase trace;
* ``trace``    — execute one operation (or load a ``dump_results`` JSON
  / campaign JSONL store) and render the per-round / per-resource
  telemetry breakdown;
* ``check-plan`` — statically verify serialized collective plans (a
  ``*.plan.json`` file or a whole plan-cache directory) against the
  paper's invariants; non-zero exit on any violation;
* ``lint``     — run the determinism/concurrency/unit AST lint over the
  source tree; non-zero exit on any finding;
* ``serve``    — run the planning daemon: HTTP on localhost and/or a
  Unix socket, sharded verified plan cache, request coalescing,
  admission control, ``/metrics`` telemetry.

All execution commands build :class:`~repro.api.Experiment` specs — the
same objects the benchmark harness and the campaign runner use — so the
CLI, benchmarks, and library wire machines, workloads, and strategies
identically.

Exit codes are part of the contract: a command that dies with a library
error maps the error class to a stable code via
:func:`repro.util.errors.exit_code_for` (3 = bad spec, 4 = plan failed
verification, 5 = cache unusable, 6 = injected transient fault,
7 = daemon overloaded, 8 = other library error; 1 stays the generic
failure code and 2 is argparse's usage error). The README documents the
full table.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from .analysis import DESIGN_2010, DESIGN_2018, memory_per_core_factor, projection_table
from .api import STRATEGY_CHOICES, WORKLOAD_NAMES, Experiment, resolve_machine
from .campaign import Campaign
from .core import auto_tune
from .faults import FaultSpec
from .metrics import (
    dump_results,
    load_telemetries,
    render_table,
    telemetry_borrow_table,
    telemetry_counter_lines,
    telemetry_fault_table,
    telemetry_resource_table,
    telemetry_round_table,
)
from .metrics.telemetry import Telemetry
from .util import GB_per_s, fmt_rate, gib, kib, mib
from .util.errors import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PLAN_VERIFY,
    ReproError,
    exit_code_for,
)

__all__ = ["main"]

# Strategy names a CLI flag accepts: every registered fixed strategy
# plus "auto" (the cost-model pick). Derived from the api registries so
# a new workload or strategy shows up here without a second edit.
_STRATEGY_CHOICES = list(STRATEGY_CHOICES)
_WORKLOAD_CHOICES = list(WORKLOAD_NAMES)

#: table-column display names where the wire name reads poorly
_STRATEGY_LABELS = {"mc": "memory-conscious"}


def _variance(mean_bytes: int | None, variance_mib: int) -> tuple[int | None, int]:
    """The single source of truth for ``--variance-mib``.

    Returns the ``(memory_variance_mean, memory_variance_std)`` pair:
    variance is *on* (mean tracks the memory budget, std as requested)
    only when ``variance_mib > 0`` and there is a budget to track;
    ``--variance-mib 0`` disables it entirely — no silent 50 MiB
    fallback on any code path.
    """
    if variance_mib > 0 and mean_bytes is not None:
        return mean_bytes, mib(variance_mib)
    return None, 0


def _parse_faults(text: str | None) -> FaultSpec | None:
    """Parse ``--faults``: compact form, or ``@file.json`` for a dump."""
    if text is None:
        return None
    if text.startswith("@"):
        import json

        return FaultSpec.from_dict(json.loads(Path(text[1:]).read_text()))
    return FaultSpec.parse(text)


def _machine_with_pool(args: argparse.Namespace):
    """``--pool-*`` flags attach a remote-memory pool to the preset.

    Returns the machine *name* untouched when no pool was requested (so
    pool-less specs keep their historic hashes), or a resolved
    :class:`~repro.cluster.MachineModel` instance carrying the
    :class:`~repro.cluster.RemotePoolSpec` otherwise.
    """
    pool_gib = getattr(args, "pool_gib", None)
    if not pool_gib:
        return args.machine
    from .cluster import RemotePoolSpec

    lat_us = getattr(args, "pool_lat_us", None)
    spec = RemotePoolSpec(
        capacity=gib(pool_gib),
        link_bandwidth=GB_per_s(getattr(args, "pool_link_gbs", None) or 10.0),
        latency_s=(lat_us if lat_us is not None else 2.0) * 1e-6,
        n_links=getattr(args, "pool_links", None) or 4,
    )
    return resolve_machine(args.machine).with_pool(spec)


def _experiment(args: argparse.Namespace, *, strategy: str | None = None) -> Experiment:
    """Build the Experiment an argparse namespace describes."""
    params: dict = {}
    if args.workload in ("ior", "ior-segmented"):
        params["block_size"] = mib(args.block_mib)
        if args.workload == "ior":
            params["transfer_size"] = mib(args.transfer_mib)
    elif args.workload == "coll_perf":
        params["array_edge"] = args.array_edge
    elif args.workload == "file-per-task":
        # Flags default None so the api builder defaults stay the single
        # source of truth; only explicitly-set knobs enter the spec.
        if getattr(args, "task_kib", None) is not None:
            params["task_bytes"] = kib(args.task_kib)
        if getattr(args, "tasks_per_rank", None) is not None:
            params["tasks_per_rank"] = args.tasks_per_rank
        if getattr(args, "task_layout", None) is not None:
            params["layout"] = args.task_layout
    elif args.workload == "nested-strided":
        if getattr(args, "nest_block_kib", None) is not None:
            params["block"] = kib(args.nest_block_kib)
        if getattr(args, "inner_count", None) is not None:
            params["inner_count"] = args.inner_count
        if getattr(args, "outer_count", None) is not None:
            params["outer_count"] = args.outer_count
        if getattr(args, "hole_factor", None) is not None:
            params["hole_factor"] = args.hole_factor
    elif args.workload == "hotspot":
        if getattr(args, "hot_mib", None) is not None:
            params["total_bytes"] = mib(args.hot_mib)
        if getattr(args, "hot_fraction", None) is not None:
            params["hot_fraction"] = args.hot_fraction
        if getattr(args, "hot_ranks", None) is not None:
            params["hot_ranks"] = args.hot_ranks
    memory_mib = getattr(args, "memory_mib", None)
    variance_mib = getattr(args, "variance_mib", None) or 0
    cb_buffer = mib(memory_mib) if isinstance(memory_mib, int) else None
    variance_mean, variance_std = _variance(cb_buffer, variance_mib)
    return Experiment(
        machine=_machine_with_pool(args),
        workload=args.workload,
        strategy=strategy if strategy is not None else args.strategy,
        n_procs=args.procs,
        procs_per_node=args.procs_per_node,
        seed=args.seed,
        kind=args.kind,
        cb_buffer=cb_buffer,
        memory_variance_mean=variance_mean,
        memory_variance_std=variance_std,
        workload_params=params,
        file_name="cli.dat",
        faults=_parse_faults(getattr(args, "faults", None)),
    )


def cmd_project(args: argparse.Namespace) -> int:
    rows = [
        (r.label, f"{r.value_2010:g}", f"{r.value_2018:g}", f"{r.factor:.0f}x")
        for r in projection_table()
    ]
    print(render_table(["metric", "2010", "2018", "factor"], rows,
                       title="Table 1 (after Vetter et al.)"))
    f = memory_per_core_factor()
    print(
        f"\nmemory per core: {DESIGN_2010.memory_per_core_mb():.0f} MB -> "
        f"{DESIGN_2018.memory_per_core_mb():.1f} MB "
        f"(fm/(fs*fn) = {f:.5f}, ~{1 / f:.0f}x reduction)"
    )
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    machine = resolve_machine(args.machine)
    result = auto_tune(machine)
    print(f"machine: {machine.name}")
    print(f"  Nah       = {result.nah} aggregators/node")
    print(f"  Msg_ind   = {result.msg_ind >> 20} MiB")
    print(f"  Mem_min   = {result.mem_min >> 20} MiB")
    print(f"  Msg_group = {result.msg_group >> 20} MiB")
    if args.verbose:
        rows = [
            (f"k={k}", f"{s >> 20} MiB", fmt_rate(bw))
            for (k, s), bw in sorted(result.node_sweep.items())
        ]
        print()
        print(render_table(["aggs", "msg", "node bw"], rows, title="node sweep"))
        rows = [(str(k), fmt_rate(bw)) for k, bw in sorted(result.group_sweep.items())]
        print()
        print(render_table(["aggregators", "system bw"], rows, title="system sweep"))
    return 0


def _execute_one(args: argparse.Namespace):
    """Shared run/trace path: one Experiment, executed."""
    return _experiment(args).run()


def cmd_run(args: argparse.Namespace) -> int:
    result = _execute_one(args)
    print(result.summary())
    if args.trace and result.trace is not None:
        for phase in result.trace:
            print(
                f"  {phase.start * 1e3:9.3f} ms  {phase.name:<20} "
                f"{phase.duration * 1e3:9.3f} ms"
            )
    return 0


def _render_telemetry(label: str, tele: Telemetry) -> None:
    print(telemetry_round_table(tele, title=f"{label}: per-round breakdown"))
    print()
    print(
        telemetry_resource_table(tele, title=f"{label}: per-resource utilization")
    )
    fault_table = telemetry_fault_table(tele, title=f"{label}: faults and recoveries")
    if fault_table:
        print()
        print(fault_table)
        print(f"  total recovery cost: {tele.recovery_cost_s * 1e3:.3f} ms")
    borrow_table = telemetry_borrow_table(
        tele, title=f"{label}: degradation-lever decisions"
    )
    if borrow_table:
        print()
        print(borrow_table)
    counters = telemetry_counter_lines(tele)
    if counters:
        print("counters:")
        print(counters)


def cmd_trace(args: argparse.Namespace) -> int:
    if args.from_json:
        try:
            entries = load_telemetries(args.from_json)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load results from {args.from_json}: {exc}", file=sys.stderr)
            return 1
        if not entries:
            print(f"no results in {args.from_json}")
            return 1
        for entry, tele in entries:
            label = f"{entry['strategy']} {entry['kind']}"
            print(
                f"{label}: {entry['nbytes']} bytes in "
                f"{entry['elapsed_s'] * 1e3:.3f} ms"
            )
            if tele is None:
                print("  (entry carries no telemetry)")
                continue
            _render_telemetry(label, tele)
            print()
        return 0
    result = _execute_one(args)
    print(result.summary())
    print()
    if result.telemetry is None:
        print("strategy recorded no telemetry")
        return 1
    _render_telemetry(result.strategy, result.telemetry)
    if args.json:
        path = dump_results(args.json, [result], seed=args.seed)
        print(f"\nwrote JSON dump to {path}")
    if args.csv:
        Path(args.csv).write_text(result.telemetry.to_csv())
        print(f"wrote per-round/per-resource CSV to {args.csv}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    machine = resolve_machine(args.machine)
    config = auto_tune(machine).as_config()
    strategies = args.strategies
    base_exp = _experiment(args, strategy=strategies[0])
    workload = base_exp.resolve_workload()
    # The sweep's non-baseline arms have always run with memory variance
    # on (mean = budget, std = 50 MiB) while the first arm — the
    # comparison baseline — never does; keep that default, but honour an
    # explicit --variance-mib, including 0 to genuinely disable it.
    variance_mib = 50 if args.variance_mib is None else args.variance_mib
    rows = []
    for mem_mib in args.memory_mib:
        mem = mib(mem_mib)
        variance_mean, variance_std = _variance(mem, variance_mib)
        arms = []
        for pos, strategy in enumerate(strategies):
            arms.append(
                base_exp.replace(
                    strategy=strategy,
                    config=config if strategy in ("mc", "auto") else None,
                    cb_buffer=mem,
                    memory_variance_mean=variance_mean if pos else None,
                    memory_variance_std=variance_std if pos else 0,
                ).run()
            )
        rows.append(
            (
                f"{mem_mib} MiB",
                *(fmt_rate(arm.bandwidth) for arm in arms),
                f"{arms[-1].bandwidth / arms[0].bandwidth - 1:+.1%}",
            )
        )
    labels = [_STRATEGY_LABELS.get(s, s) for s in strategies]
    print(
        render_table(
            ["memory", *labels, "improvement"],
            rows,
            title=f"{workload.name} {args.kind}, {workload.n_procs} procs "
            f"on {machine.name}",
        )
    )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a memory x strategy x seed grid over a worker pool."""
    machine = resolve_machine(args.machine)
    config = (
        auto_tune(machine).as_config()
        if {"mc", "auto"} & set(args.strategies)
        else None
    )
    base_exp = _experiment(args, strategy=args.strategies[0]).replace(config=config)
    seeds = args.seeds if args.seeds else [args.seed]
    experiments = []
    for seed in seeds:
        for mem_mib in args.memory_mib:
            mem = mib(mem_mib)
            variance_mean, variance_std = _variance(mem, args.variance_mib or 0)
            for strategy in args.strategies:
                experiments.append(
                    base_exp.replace(
                        strategy=strategy,
                        seed=seed,
                        cb_buffer=mem,
                        memory_variance_mean=variance_mean,
                        memory_variance_std=variance_std,
                    )
                )
    campaign = Campaign(
        experiments,
        workers=args.workers,
        cache_dir=args.cache_dir,
        results_path=args.results,
        resume=args.resume,
        retries=args.retries,
        timeout_s=args.timeout,
        cache_max_bytes=(
            mib(args.cache_max_mb) if args.cache_max_mb is not None else None
        ),
    )
    progress = None
    if args.verbose:
        def progress(record: dict) -> None:
            print(f"  [{record['index']}] {record.get('label', '?')}: "
                  f"{record['status']}")
    outcome = campaign.run(progress=progress)
    print(outcome.summary())
    if args.results:
        print(f"results: {args.results}")
    return 1 if outcome.errors else 0


def cmd_check_plan(args: argparse.Namespace) -> int:
    """Verify one plan file or every entry of a cache directory."""
    import json

    from .analysis import verify_cache_dir, verify_plan_file

    target = Path(args.path)
    if target.is_dir():
        reports = verify_cache_dir(target, purge=args.purge)
        if not reports:
            print(f"no *.plan.json entries under {target}", file=sys.stderr)
            return EXIT_FAILURE
    else:
        reports = [verify_plan_file(target)]
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render())
    bad = [r for r in reports if not r.ok]
    if bad:
        print(
            f"{len(bad)} of {len(reports)} plan(s) violate invariants",
            file=sys.stderr,
        )
    return EXIT_PLAN_VERIFY if bad else EXIT_OK


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism/unit lint over source paths."""
    import json

    from .analysis import LINT_RULES, lint_paths, to_sarif

    if args.rules:
        for code, summary in sorted(LINT_RULES.items()):
            print(f"{code}  {summary}")
        return 0
    paths = args.paths
    if not paths:
        default = Path("src/repro")
        # Outside a checkout, fall back to the installed package tree.
        paths = [default if default.is_dir() else Path(__file__).parent]
    select = args.select.split(",") if args.select else None
    report = lint_paths(paths, rules=select)
    if args.format == "sarif":
        print(json.dumps(to_sarif(report.violations, rules=LINT_RULES)))
    elif args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return EXIT_FAILURE if report.violations else EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the planning daemon until interrupted."""
    import asyncio
    import json
    import signal

    from .serve import PlannerService, ServeDaemon, ShardedPlanCache

    cache = None
    if args.cache_dir:
        cache = ShardedPlanCache(
            args.cache_dir,
            shards=args.shards,
            max_bytes=mib(args.cache_max_mb) if args.cache_max_mb is not None else None,
        )
    service = PlannerService(
        cache,
        max_pending=args.max_pending,
        pool=args.pool,
        pool_workers=args.pool_workers,
    )
    daemon = ServeDaemon(
        service,
        host=args.host,
        port=None if args.no_tcp else args.port,
        unix_path=args.unix_socket,
    )

    async def run() -> None:
        await daemon.start()
        where = [daemon.url] if daemon.url else []
        if args.unix_socket:
            where.append(f"unix:{args.unix_socket}")
        cache_note = (
            f"cache {args.cache_dir} ({args.shards} shards)" if args.cache_dir
            else "no plan cache"
        )
        print(f"repro serve: listening on {', '.join(where)}; {cache_note}")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        try:
            await stop.wait()
        finally:
            await daemon.stop()
            await service.close()

    try:
        asyncio.run(run())
    finally:
        snapshot = service.metrics_payload()
        if args.metrics_json:
            Path(args.metrics_json).write_text(json.dumps(snapshot, indent=2))
            print(f"wrote metrics to {args.metrics_json}")
        counters = snapshot.get("counters", {})
        summary = ", ".join(
            f"{name}={int(counters[name])}"
            for name in ("requests", "hits", "misses", "rejects", "coalesced",
                         "overloads", "planning_jobs")
            if name in counters
        )
        if summary:
            print(f"repro serve: {summary}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Memory-conscious collective I/O reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="print the Table 1 exascale projection")
    p.set_defaults(fn=cmd_project)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--machine", default="testbed")
    common.add_argument("--procs", type=int, default=120)
    common.add_argument("--procs-per-node", type=int, default=12)
    common.add_argument("--seed", type=int, default=7)
    common.add_argument("--workload", default="ior",
                        choices=_WORKLOAD_CHOICES)
    common.add_argument("--block-mib", type=int, default=32)
    common.add_argument("--transfer-mib", type=int, default=2)
    common.add_argument("--array-edge", type=int, default=240)
    # Workload-specific knobs for the expanded generator suite. All
    # default None so the api builder defaults stay authoritative and
    # unset flags never enter the spec (same parent-parser caveat as
    # --variance-mib below).
    common.add_argument("--task-kib", type=int, default=None,
                        help="file-per-task: bytes per task (KiB)")
    common.add_argument("--tasks-per-rank", type=int, default=None,
                        help="file-per-task: per-task files per rank")
    common.add_argument("--task-layout", default=None,
                        choices=["interleaved", "grouped"],
                        help="file-per-task: aggregate-file slot order")
    common.add_argument("--nest-block-kib", type=int, default=None,
                        help="nested-strided: inner block size (KiB)")
    common.add_argument("--inner-count", type=int, default=None,
                        help="nested-strided: blocks per inner comb")
    common.add_argument("--outer-count", type=int, default=None,
                        help="nested-strided: outer repetitions")
    common.add_argument("--hole-factor", type=int, default=None,
                        help="nested-strided: outer stride / dense tile "
                             "ratio (1 = back-to-back)")
    common.add_argument("--hot-mib", type=int, default=None,
                        help="hotspot: total bytes (MiB)")
    common.add_argument("--hot-fraction", type=float, default=None,
                        help="hotspot: fraction of bytes on the hot ranks")
    common.add_argument("--hot-ranks", type=int, default=None,
                        help="hotspot: number of hot ranks")
    common.add_argument("--kind", default="write", choices=["write", "read"])
    # Default None = command-specific default (sweep keeps its historic
    # 50 MiB; everything else is off). A plain default here would be
    # unsafe: argparse parent parsers share action objects, so a
    # set_defaults() on one subparser would leak to all of them.
    common.add_argument("--variance-mib", type=int, default=None,
                        help="per-node memory variance std (MiB); the mean "
                             "tracks the memory budget; 0 disables variance")
    # Disaggregated remote-memory tier: attach a borrowable pool to the
    # machine preset. Defaults stay None so pool-less runs keep their
    # historic spec hashes (same parent-parser caveat as above).
    common.add_argument("--pool-gib", type=float, default=None,
                        help="remote-memory pool capacity (GiB); enables the "
                             "borrow degradation lever")
    common.add_argument("--pool-link-gbs", type=float, default=None,
                        help="per-link pool bandwidth (GB/s, default 10)")
    common.add_argument("--pool-lat-us", type=float, default=None,
                        help="pool access latency (microseconds, default 2)")
    common.add_argument("--pool-links", type=int, default=None,
                        help="number of pool access links (default 4)")

    p = sub.add_parser("tune", help="calibrate Nah/Msg_ind/Msg_group")
    p.add_argument("--machine", default="testbed")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("run", parents=[common], help="run one collective op")
    p.add_argument("--strategy", default="mc", choices=_STRATEGY_CHOICES)
    p.add_argument("--memory-mib", type=int, default=16)
    p.add_argument("--faults",
                   help='fault schedule: compact form ("mem=2,stall=1,seed=5") '
                        "or @spec.json")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "trace", parents=[common],
        help="per-round / per-resource telemetry breakdown",
    )
    p.add_argument("--strategy", default="mc", choices=_STRATEGY_CHOICES)
    p.add_argument("--memory-mib", type=int, default=16)
    p.add_argument("--faults",
                   help='fault schedule: compact form ("mem=2,stall=1,seed=5") '
                        "or @spec.json")
    p.add_argument("--json", help="also dump result + telemetry JSON here")
    p.add_argument("--csv", help="also write the flat breakdown CSV here")
    p.add_argument("--from-json", dest="from_json",
                   help="render a previous dump instead of running")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("sweep", parents=[common], help="memory sweep table")
    p.add_argument("--memory-mib", type=int, nargs="+",
                   default=[2, 8, 32, 128])
    p.add_argument("--strategies", nargs="+", default=["two-phase", "mc"],
                   choices=_STRATEGY_CHOICES,
                   help="arms to sweep; the first is the improvement "
                        "baseline (and runs without memory variance)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "campaign", parents=[common],
        help="parallel experiment grid with plan caching",
    )
    p.add_argument("--memory-mib", type=int, nargs="+",
                   default=[2, 8, 32, 128],
                   help="memory budgets (MiB), one grid axis")
    p.add_argument("--strategies", nargs="+", default=["two-phase", "mc"],
                   choices=_STRATEGY_CHOICES,
                   help="strategies to run at every point")
    p.add_argument("--seeds", type=int, nargs="+",
                   help="seeds axis (default: the single --seed)")
    p.add_argument("--faults",
                   help="fault schedule applied to every point: compact form "
                        '("mem=2,stall=1,seed=5") or @spec.json')
    p.add_argument("--retries", type=int, default=0,
                   help="per-point retries after an injected transient "
                        "failure (each retry re-salts the fault schedule)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point wall-clock timeout in seconds "
                        "(switches to a killable process-per-point scheduler)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = run inline)")
    p.add_argument("--results", help="stream JSONL records to this file")
    p.add_argument("--cache-dir", help="plan cache directory")
    p.add_argument("--cache-max-mb", type=int, default=None,
                   help="byte bound on the plan cache (MiB) with LRU "
                        "eviction; default unbounded")
    p.add_argument("--resume", action="store_true",
                   help="skip points already completed in --results")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per finished point")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser(
        "check-plan",
        help="statically verify a plan file or plan-cache directory",
    )
    p.add_argument("path",
                   help="a *.plan.json file or a plan-cache directory")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format (json is machine-readable)")
    p.add_argument("--purge", action="store_true",
                   help="delete cache entries that fail verification "
                        "(directories only)")
    p.set_defaults(fn=cmd_check_plan)

    p = sub.add_parser(
        "lint",
        help="determinism/unit AST lint over the source tree",
    )
    p.add_argument("paths", nargs="*", type=Path,
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--select",
                   help="comma-separated rule codes to enable (default: "
                        "all; an unknown code exits 3)")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "sarif"],
                   help="report format (sarif feeds GitHub code scanning)")
    p.add_argument("--rules", action="store_true",
                   help="list the rule codes and exit")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "serve",
        help="planning daemon: sharded plan cache, coalescing, backpressure",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP listen address (default localhost only)")
    p.add_argument("--port", type=int, default=8642,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--no-tcp", action="store_true",
                   help="disable the TCP listener (unix socket only)")
    p.add_argument("--unix-socket",
                   help="also listen on this unix-domain socket path")
    p.add_argument("--cache-dir",
                   help="sharded plan-cache directory (omit to replan "
                        "every request)")
    p.add_argument("--cache-max-mb", type=int, default=None,
                   help="total cache byte bound (MiB), LRU-evicted; "
                        "default unbounded")
    p.add_argument("--shards", type=int, default=8,
                   help="plan-cache shard count")
    p.add_argument("--max-pending", type=int, default=64,
                   help="admission bound on queued planning jobs; past "
                        "it requests get 429 + Retry-After")
    p.add_argument("--pool", default="process", choices=["process", "thread"],
                   help="planning executor kind (planning is CPU-bound; "
                        "process actually parallelizes)")
    p.add_argument("--pool-workers", type=int, default=None,
                   help="planner pool size (default: executor default)")
    p.add_argument("--metrics-json",
                   help="dump the final /metrics snapshot here on shutdown")
    p.set_defaults(fn=cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors map to the documented exit-code table
    (:func:`repro.util.errors.exit_code_for`) with the message on
    stderr, so scripts can branch on the failure kind.
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
