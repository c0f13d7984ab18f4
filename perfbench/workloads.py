"""The four benchmark workloads.

Every workload runs serially in this one process (no worker pools) and
takes all its seeds from the benchmark's ``--seed``. Each exposes

* ``setup()`` / ``teardown()`` — everything before the first timed op;
* ``resetup()`` — one more set-up, timed by a :class:`SetupClock` at
  intervals through the measured loop (``setup_s`` is their median);
* ``measure(seconds, n_ops, tracer, clock)`` — the timed closed loop,
  returning an :class:`Outcome` (ops attempted/failed, end-to-end
  metrics, the workload's own details such as ``write_s`` or
  ``hit_p99_ms``, and the output digest).

The end-to-end metrics are three different statistics of the loop:

* ``work_s`` — the op list done once, each op at its least time (serve:
  every spec's fastest hit);
* ``op_ms`` — the mean over the op list of each op's median time
  (serve: of each spec's median hit latency);
* ``ops_per_s`` — ops completed per second of loop wall time less the
  set-ups timed inside it, which also pays what surrounds the timed
  call (building the experiment, checking its output).

``n_ops`` runs exactly that many ops instead of running for
``seconds``. The traced run uses it twice: its fixed ``trace_ops`` make
every per-layer count repeat exactly, and replaying the same op
sequence untraced gives the tracing overhead.

A failed op is an exception, a served plan in an unexpected cache state
or one that fails verification, an output that violates a conservation
check, or an op whose output differs from its own earlier run in the
same process.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import sys
import time
import traceback
from collections.abc import Callable, Hashable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import planner_scaling
from harness import MEMORY_POINTS, point_experiment
from serve_load import percentile, request_schedule, spec_pool

from repro import FaultSpec, IORWorkload, mib, testbed_640
from repro import api as repro_api
from repro.analysis.verify import verify_plan
from repro.client import PlanClient
from repro.cluster import RemotePoolSpec
from repro.core import tuning
from repro.core.plans import canonical_json
from repro.serve import protocol
from repro.serve.protocol import PlanRequest, spec_hash_for_fields
from repro.util.errors import ReproError


@dataclass
class Outcome:
    """What one measured loop produced."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    digest: str = ""
    #: set when set-up is paid per op rather than once (plan-1m)
    setup_s: float | None = None


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _fail(what: str) -> None:
    print(f"failed op: {what}", file=sys.stderr)


class SetupClock:
    """Set-up times sampled across the measured loop.

    Neighbour load on a shared machine comes in phases of tens of
    seconds. Set-ups taken back to back before the loop all land in one
    phase, so the loop re-times a set-up every ``period`` seconds and
    ``setup_s`` is the median over the whole run. ``setup`` may return a
    teardown callable, which runs untimed.
    """

    def __init__(self, setup: Callable[[], Any], period: float) -> None:
        self.setup = setup
        self.period = period
        self.times: list[float] = []
        self._last = time.perf_counter()

    def time(self) -> float:
        t0 = time.perf_counter()
        undo = self.setup()
        self.times.append(time.perf_counter() - t0)
        if undo is not None:
            undo()
        self._last = time.perf_counter()
        return self._last - t0

    def tick(self) -> float:
        """Time a set-up if one is due; returns the seconds spent."""
        if time.perf_counter() - self._last < self.period:
            return 0.0
        return self.time()


class CycledOps:
    """A fixed op list run round-robin until the time is up.

    Each op is timed alone; its output must be identical every time it
    repeats. The loop stops once ``seconds`` have passed *and* every op
    ran at least once, so the per-op least times cover the whole list.
    """

    name = ""
    #: passes over the op list in a traced run
    trace_passes = 1

    @property
    def trace_ops(self) -> int:
        return self.trace_passes * len(self.ops())

    def ops(self) -> Sequence[Hashable]:
        raise NotImplementedError

    def run_op(self, op: Hashable) -> tuple[float, Any]:
        """Execute one op; returns (timed seconds, output record)."""
        raise NotImplementedError

    def check(self, op: Hashable, record: Any) -> str | None:
        """A conservation check on one output; returns the violation."""
        return None

    def details(
        self, samples: dict[Hashable, list[float]], records: dict[Hashable, Any]
    ) -> dict[str, Any]:
        """The workload's own figures, such as ``write_s`` or ``plan_s``."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def resetup(self) -> None:
        # Set-up only builds the machine, its tuning and the workload,
        # so a repeat replaces them with equal ones.
        self.setup()

    def measure(
        self,
        seconds: float,
        n_ops: int | None = None,
        tracer: Any = None,
        clock: SetupClock | None = None,
    ) -> Outcome:
        ops = list(self.ops())
        samples: dict[Hashable, list[float]] = {op: [] for op in ops}
        records: dict[Hashable, Any] = {}
        out = Outcome()
        setups_s = 0.0
        t0 = time.perf_counter()
        i = 0
        while True:
            if n_ops is not None:
                if i >= n_ops:
                    break
            elif i >= len(ops) and time.perf_counter() - t0 >= seconds:
                break
            if clock is not None:
                setups_s += clock.tick()
            op = ops[i % len(ops)]
            i += 1
            out.attempted += 1
            try:
                elapsed, record = self.run_op(op)
            except Exception:  # the op boundary: record and keep measuring
                traceback.print_exc()
                out.failed += 1
                continue
            problem = self.check(op, record)
            if problem is None and op in records and records[op] != record:
                problem = "output differs from the same op's earlier run"
            if problem is not None:
                _fail(f"{self.name} {op}: {problem}")
                out.failed += 1
                continue
            records.setdefault(op, record)
            samples[op].append(elapsed)
        wall = time.perf_counter() - t0 - setups_s
        digest = hashlib.sha256()
        for op in ops:
            digest.update(repr((op, records.get(op, "missing"))).encode())
        out.digest = digest.hexdigest()
        if all(samples.values()):
            out.metrics = _loop_metrics(samples, wall)
            out.details = self.details(samples, records)
        return out


def _loop_metrics(samples: dict[Hashable, list[float]], wall: float) -> dict[str, float]:
    """``work_s``, ``op_ms`` and ``ops_per_s`` of one closed loop.

    ``work_s`` takes each op at its least time: the CPU is shared with
    other tenants, a burst of theirs slows whichever op runs during it,
    and an op's fastest repeat is its cost without the burst.
    """
    return {
        "work_s": sum(min(times) for times in samples.values()),
        "op_ms": _ms(statistics.fmean(statistics.median(t) for t in samples.values())),
        "ops_per_s": sum(map(len, samples.values())) / wall,
    }


def _collective_record(result: Any) -> tuple:
    """The simulated outputs of one collective run, bit for bit."""
    return (
        repr(result.elapsed),
        result.n_rounds,
        result.nbytes,
        result.shuffle_bytes,
        tuple(
            (a.rank, a.node_id, a.domain_bytes, a.buffer_bytes, a.rounds, a.group_id)
            for a in result.aggregators
        ),
    )


def _conserved(record: tuple, workload: Any) -> str | None:
    """Every byte of the workload moved, in at least one round."""
    if record[2] != workload.total_bytes():
        return f"moved {record[2]} bytes, workload has {workload.total_bytes()}"
    if record[1] < 1 or float(record[0]) <= 0:
        return "no rounds or no simulated time"
    return None


class Fig7Sweep(CycledOps):
    """The paper's Figure 7: IOR interleaved, memory swept 2-128 MiB.

    120 ranks x 32 MiB, 2 MiB transfers, on ``testbed`` at 12 ranks per
    node. Two-phase runs with the swept buffer; memory-conscious plans
    against Normal(mem, 50 MiB) available memory, as in
    ``benchmarks/harness.py``. Every point runs as a write and a read.
    """

    name = "fig7-sweep"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.n_procs, self.block, self.transfer = (
            (24, mib(4), mib(1)) if smoke else (120, mib(32), mib(2))
        )
        self.memory_points = [mib(1), mib(4)] if smoke else MEMORY_POINTS

    def setup(self) -> None:
        self.machine = testbed_640()
        self.config = tuning.auto_tune(self.machine).as_config()
        self.workload = IORWorkload(
            self.n_procs, block_size=self.block, transfer_size=self.transfer
        )

    def ops(self) -> list[tuple[str, int, str]]:
        # Small memory first, kinds interleaved: a partial second pass
        # re-samples write and read points alike.
        return [
            (kind, mem >> 20, strategy)
            for mem in self.memory_points
            for kind in ("write", "read")
            for strategy in ("two-phase", "mc")
        ]

    def run_op(self, op: tuple[str, int, str]) -> tuple[float, Any]:
        kind, mem_mib, strategy = op
        mc = strategy == "mc"
        exp = point_experiment(
            self.machine, self.workload, strategy,
            kind=kind, cb_buffer=mib(mem_mib), seed=self.seed,
            memory_variance_mean=mib(mem_mib) if mc else None,
            config=self.config if mc else None,
        )
        t0 = time.perf_counter()
        result = exp.run()
        elapsed = time.perf_counter() - t0
        return elapsed, _collective_record(result)

    def check(self, op: Hashable, record: Any) -> str | None:
        return _conserved(record, self.workload)

    def details(self, samples, records):
        by_kind = {
            kind: sum(min(t) for op, t in samples.items() if op[0] == kind)
            for kind in ("write", "read")
        }
        rounds = [records[op][1] for op in self.ops()]
        return {
            "write_s": {"value": by_kind["write"], "unit": "s"},
            "read_s": {"value": by_kind["read"], "unit": "s"},
            "points": {"value": len(samples), "unit": "count"},
            "point_runs": {"value": sum(map(len, samples.values())), "unit": "count"},
            "rounds_min": {"value": min(rounds), "unit": "count"},
            "rounds_max": {"value": max(rounds), "unit": "count"},
        }


#: Remote pool for the faulted runs: fast links, so borrowing competes
#: with shrink/remerge in the lever pricing.
FAULT_POOL = RemotePoolSpec(
    capacity=mib(256), link_bandwidth=50e9, latency_s=2e-6, n_links=4
)


class Faults240(CycledOps):
    """MC IOR writes at 240 ranks under seeded faults, with a remote pool.

    Each op is one faulted run: memory-pressure spikes, aggregator
    stalls, OST degradation, pool saturation and pool-link degradation,
    drawn from its own fault seed. The degradation controller reacts
    (shrink/remerge/borrow/page) and re-slices remaining coverage, so
    round counts land anywhere from tens to hundreds per run.

    The (experiment seed, fault seed) pairs are a fixed list, and the
    benchmark's seed only shuffles their order: with pairs drawn from
    the seed, the round counts, and with them the run's work, swung so
    much between seeds that run-to-run spread exceeded the bound.
    """

    name = "faults-240"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.n_procs, self.block, self.transfer, self.buffer, n_faults = (
            (48, mib(4), mib(1), mib(1), 2) if smoke else (240, mib(32), mib(2), mib(8), 4)
        )
        self._seeds = [(50 + i, i) for i in range(n_faults)]
        random.Random(seed).shuffle(self._seeds)

    def setup(self) -> None:
        self.machine = testbed_640().with_pool(FAULT_POOL)
        self.config = tuning.auto_tune(self.machine).as_config()
        self.workload = IORWorkload(
            self.n_procs, block_size=self.block, transfer_size=self.transfer
        )

    def ops(self) -> list[tuple[int, int]]:
        return list(self._seeds)

    def run_op(self, op: tuple[int, int]) -> tuple[float, Any]:
        exp_seed, fault_seed = op
        faults = FaultSpec(
            seed=fault_seed,
            mem_pressure=4,
            pressure_fraction=0.9,
            stalls=2,
            ost_degrade=2,
            pool_saturate=1,
            pool_link_degrade=1,
        )
        exp = point_experiment(
            self.machine, self.workload, "mc",
            kind="write", cb_buffer=self.buffer, seed=exp_seed,
            memory_variance_mean=self.buffer, config=self.config,
        ).replace(faults=faults)
        t0 = time.perf_counter()
        result = exp.run()
        elapsed = time.perf_counter() - t0
        counters = result.telemetry.counters
        recoveries = sum(v for k, v in counters.items() if k.startswith("recoveries_"))
        return elapsed, _collective_record(result) + (
            int(counters.get("fault_events", 0)),
            int(recoveries),
        )

    def check(self, op: Hashable, record: Any) -> str | None:
        if record[5] < 1:
            return "fault schedule fired no events"
        return _conserved(record, self.workload)

    def details(self, samples, records):
        ops = self.ops()
        return {
            "faulted_s": {"value": sum(min(t) for t in samples.values()), "unit": "s"},
            "faulted_runs": {"value": sum(map(len, samples.values())), "unit": "count"},
            "fault_seeds": {"value": len(ops), "unit": "count"},
            "rounds_total": {"value": sum(records[op][1] for op in ops), "unit": "count"},
            "fault_events": {"value": sum(records[op][5] for op in ops), "unit": "count"},
            "recoveries": {"value": sum(records[op][6] for op in ops), "unit": "count"},
        }


def _domains_digest(domains: Sequence[Any]) -> str:
    digest = hashlib.sha256()
    for d in domains:
        digest.update(d.coverage.starts.tobytes())
        digest.update(d.coverage.ends.tobytes())
        digest.update(
            repr((
                d.region.offset, d.region.length, d.aggregator, d.buffer_bytes,
                d.group_id, d.n_leaves, d.remerged, d.borrowed_bytes,
            )).encode()
        )
    return digest.hexdigest()


class Plan1M(CycledOps):
    """Table 1's extreme-scale point: plan + price 1M ranks on 50k nodes.

    Segmented IOR flattened to columns, planned with ``plan_flat`` and
    priced with ``price_domains`` — exactly
    ``benchmarks/planner_scaling.run_point``, which this op calls. The
    executor does no work here. The point has no random input, so the
    seed changes nothing; it is recorded only.
    """

    name = "plan-1m"
    trace_passes = 3

    def __init__(self, seed: int, smoke: bool) -> None:
        self.ranks, self.nodes = (10_000, 500) if smoke else (1_000_000, 50_000)
        self._setup_samples: list[float] = []

    def setup(self) -> None:
        # Machine and context are built inside each run_point call; that
        # per-op share is measured by run_op and reported as setup_s.
        pass

    def ops(self) -> list[str]:
        return ["plan+price"]

    def run_op(self, op: str) -> tuple[float, Any]:
        captured: list[tuple[Any, Any]] = []
        original = planner_scaling.price_domains

        def capture(machine, domains, **kwargs):
            prediction = original(machine, domains, **kwargs)
            captured.append((domains, prediction))
            return prediction

        planner_scaling.price_domains = capture
        try:
            t0 = time.perf_counter()
            row = planner_scaling.run_point(self.ranks, self.nodes)
            wall = time.perf_counter() - t0
        finally:
            planner_scaling.price_domains = original
        (domains, prediction), = captured
        self._setup_samples.append(wall - row["elapsed_s"])
        covered = sum(d.covered_bytes for d in domains)
        record = (
            _domains_digest(domains),
            repr(prediction.elapsed_s),
            prediction.n_rounds,
            row["n_groups"],
            row["n_domains"],
            row["n_remerges"],
            covered == row["total_bytes"],
        )
        return row["elapsed_s"], record

    def check(self, op: Hashable, record: Any) -> str | None:
        if not record[6]:
            return "planned domains do not cover the workload's bytes"
        if float(record[1]) <= 0:
            return "non-positive predicted time"
        return None

    def measure(self, seconds, n_ops=None, tracer=None, clock=None):
        # Set-up happens inside every op here, so each op times it and
        # the clock is not used.
        self._setup_samples = []
        out = super().measure(seconds, n_ops, tracer)
        if self._setup_samples:
            out.setup_s = statistics.median(self._setup_samples)
        return out

    def details(self, samples, records):
        times = samples["plan+price"]
        record = records["plan+price"]
        return {
            "plan_s": {"value": statistics.median(times), "unit": "s"},
            "plan_least_s": {"value": min(times), "unit": "s"},
            "plan_samples": {"value": len(times), "unit": "count"},
            "groups": {"value": record[3], "unit": "count"},
            "domains": {"value": record[4], "unit": "count"},
            "predicted_rounds": {"value": record[2], "unit": "count"},
        }


class ServeInProcess:
    """The plan-serving pipeline, driven by one closed-loop client.

    The client is a ``PlanClient`` with no daemon: its in-process engine
    runs the daemon's pipeline (hash, verified sharded-cache lookup,
    plan on miss, write back) synchronously, minus HTTP transport,
    coalescing and admission, and serves byte-identical plans. Over
    HTTP, with a ``ServeDaemon`` on a thread of this process, the same
    loop spent about 80% of each hit in transport and thread hand-offs,
    and its run-to-run spread exceeded the benchmark's bound.

    The client's schedule is a seeded shuffle
    (``serve_load.request_schedule``) over a pool of 120-rank MC specs:
    ``serve_load.spec_pool``'s 16 ior specs, and the same 16 as
    ``nested-strided`` with that generator's default parameters, the way
    ``tests/serve/test_protocol.py`` sends nested-strided specs over the
    wire. ``spec_pool``'s ``testbed-4`` holds only 8 ranks at its two
    ranks per node, so each spec's machine is the ``testbed`` of 60
    nodes; every other field is ``spec_pool``'s. The seed sets the
    schedule; the specs' own seeds are ``spec_pool``'s. Each spec's first
    visit misses and plans, every revisit is a verified cache hit. Every
    served plan must equal the first plan served for its spec, and that
    plan must pass ``verify_plan``.

    The pool is an even mix. The split between ior and nested-strided
    traffic is not taken from any measured traffic; it is a choice.
    An ior hit serves a plan about twice the size of a nested-strided
    one and takes longer, so a median over all hits would sit between
    the two modes. The gated figures are therefore per spec: ``work_s``
    sums each spec's fastest hit and ``op_ms`` averages each spec's
    median hit. Misses come once per spec, so each has a single sample
    and they are reported (``miss_p50_ms``), not gated.

    Known issue met over HTTP, recorded rather than patched here:
    ``daemon_in_thread`` prints an asyncio ``CancelledError`` traceback
    at shutdown even after the client closed its connection.
    """

    name = "serve-inprocess"

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        n_procs, n_specs = (24, 2) if smoke else (120, 16)
        self.trace_ops = 300 if smoke else 10_000
        ior = [
            dict(fields, machine=f"testbed-{n_procs // fields['procs_per_node']}")
            for fields in spec_pool(n_specs, n_procs)
        ]
        nested = [dict(f, workload="nested-strided", workload_params={}) for f in ior]
        self.pool = ior + nested
        self.hashes = [spec_hash_for_fields(f) for f in self.pool]
        # A spec outside the pool: set-up plans it once, so the first
        # timed miss does not pay the process's one-time tuning.
        self.warmup = dict(ior[0], seed=None)
        self._stack: ExitStack | None = None

    def _start(self) -> tuple[ExitStack, PlanClient]:
        """A client with a fresh cache, warmed by one planned spec."""
        # The MC auto-tune and the spec hashes are memoized per process;
        # forget them so every set-up pays what a fresh process pays and
        # every first visit hashes cold.
        repro_api._auto_config.cache_clear()
        protocol._hash_for_canonical_fields.cache_clear()
        stack = ExitStack()
        try:
            cache_dir = self.workdir / f"serve-cache-{time.perf_counter_ns()}"
            stack.callback(shutil.rmtree, cache_dir, True)
            client = stack.enter_context(PlanClient(cache_dir=str(cache_dir), shards=8))
            client.plan_request(PlanRequest(experiment=self.warmup))
        except BaseException:
            stack.close()
            raise
        return stack, client

    def setup(self) -> None:
        self._stack, self.client = self._start()

    def resetup(self) -> Callable[[], None]:
        # A second client and cache beside the measured ones, removed
        # untimed, so the measured cache keeps its plans.
        stack, _ = self._start()
        return stack.close

    def teardown(self) -> None:
        if self._stack is not None:
            self._stack.close()
            self._stack = None

    def measure(
        self,
        seconds: float,
        n_ops: int | None = None,
        tracer: Any = None,
        clock: SetupClock | None = None,
    ) -> Outcome:
        out = Outcome()
        latency: dict[int, list[float]] = {index: [] for index in range(len(self.pool))}
        first_plan: dict[int, Any] = {}
        setups_s = 0.0
        chunk = 0
        done = False
        t0 = time.perf_counter()
        while not done:
            schedule = request_schedule(list(range(len(self.pool))), 1000, self.seed + chunk)
            chunk += 1
            for index in schedule:
                if n_ops is not None:
                    done = out.attempted >= n_ops
                else:
                    # Run on past the time until every spec was served
                    # once, but never past twice the time.
                    elapsed = time.perf_counter() - t0
                    done = elapsed >= seconds and (
                        len(first_plan) == len(self.pool) or elapsed >= 2 * seconds
                    )
                if done:
                    break
                if clock is not None:
                    setups_s += clock.tick()
                out.attempted += 1
                request = PlanRequest(experiment=self.pool[index])
                start = time.perf_counter()
                try:
                    response = self.client.plan_request(request)
                except (ReproError, OSError):
                    traceback.print_exc()
                    out.failed += 1
                    continue
                took = time.perf_counter() - start
                expected_state = "hit" if index in first_plan else "miss"
                problem = None
                if response.cache_state != expected_state:
                    problem = f"cache state {response.cache_state}, expected {expected_state}"
                elif response.spec_hash != self.hashes[index]:
                    problem = "served plan for another spec"
                elif index in first_plan and response.plan != first_plan[index]:
                    problem = "hit differs from the plan first served"
                if problem is not None:
                    _fail(f"serve spec {index}: {problem}")
                    out.failed += 1
                    continue
                first_plan.setdefault(index, response.plan)
                latency[index].append(took)
        loop_wall = time.perf_counter() - t0 - setups_s

        digest = hashlib.sha256()
        for index, key in sorted(enumerate(self.hashes), key=lambda p: p[1]):
            plan = first_plan.get(index)
            if plan is not None and not verify_plan(plan, expected_spec_hash=key).ok:
                _fail(f"serve spec {index}: served plan fails verify_plan")
                out.failed += 1
            digest.update(key.encode())
            digest.update(canonical_json(plan).encode() if plan is not None else b"missing")
        out.digest = digest.hexdigest()

        counters = self.client.server_metrics()["counters"]
        # each spec's first request is its miss, the rest are its hits
        misses = [times[0] for times in latency.values() if times]
        hits = [t for times in latency.values() for t in times[1:]]
        if all(len(times) > 1 for times in latency.values()):
            served = len(misses) + len(hits)
            rps = served / loop_wall
            out.metrics = {
                "work_s": sum(min(times[1:]) for times in latency.values()),
                "op_ms": _ms(statistics.fmean(
                    statistics.median(times[1:]) for times in latency.values()
                )),
                "ops_per_s": rps,
            }
            out.details = {
                "hit_p50_ms": {"value": _ms(statistics.median(hits)), "unit": "ms", "n": len(hits)},
                "hit_p99_ms": {"value": _ms(percentile(hits, 0.99)), "unit": "ms", "n": len(hits)},
                "miss_p50_ms": {"value": _ms(statistics.median(misses)), "unit": "ms", "n": len(misses)},
                "rps": {"value": rps, "unit": "1/s", "n": served},
                "server_hits": {"value": int(counters.get("hits", 0)), "unit": "count"},
                "server_misses": {"value": int(counters.get("misses", 0)), "unit": "count"},
                "server_rejects": {"value": int(counters.get("rejects", 0)), "unit": "count"},
            }
        return out


WORKLOADS: dict[str, Callable[..., Any]] = {
    "fig7-sweep": Fig7Sweep,
    "faults-240": Faults240,
    "plan-1m": Plan1M,
    "serve-inprocess": ServeInProcess,
}
