"""The campaign runner: grid -> worker pool -> JSONL records.

A :class:`Campaign` owns an ordered list of experiments (sweep points).
``run()`` executes them — inline for ``workers=1``, over a
``multiprocessing`` pool otherwise — and returns a
:class:`CampaignResult` with one record per point *in grid order*,
regardless of completion order.

Design rules that make this safe to parallelize:

* a point's outcome is a pure function of its :class:`Experiment` spec
  (deterministic seeding lives in the spec), so worker count can never
  change results, only wall-clock;
* every exception inside a point is caught in the worker and returned
  as an ``{"status": "error", ...}`` record — one poisoned point never
  kills the campaign;
* records stream to the results store as they arrive, so partial output
  survives interruption, and ``resume=True`` skips points whose spec
  hash already completed successfully.

Fault-tolerant execution. Points carrying a
:class:`~repro.faults.FaultSpec` can fail *transiently* (an injected
abort raises :class:`~repro.util.errors.TransientFaultError`). The
worker retries such points up to ``retries`` times, salting the fault
schedule with the attempt number so each retry experiences fresh
conditions — exactly like resubmitting a failed job. Each retry waits
out a seeded exponential backoff with jitter (derived from the
experiment seed and the attempt number, never the wall clock), so a
campaign hammered by injected aborts does not retry in lockstep yet
still reproduces bit-identically at any worker count. The record
carries ``attempts``, ``transient_failures``, and the ``backoff_s``
delays either way, so determinism tests can compare full histories. ``timeout_s`` bounds each point's host
wall-clock: a point that exceeds it is killed and recorded as a timeout
error (never retried — timeouts are a host-resource guard, not a
simulated fault).
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
import traceback
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..analysis.verify import verify_plan
from ..api import Experiment
from ..metrics.export import result_to_dict
from ..metrics.telemetry import PLAN_CACHE_REJECTS
from ..metrics.reporting import render_table
from ..metrics.store import ResultStore
from ..util.errors import TransientFaultError
from ..util.units import fmt_rate
from .cache import PlanCache

__all__ = [
    "Campaign",
    "CampaignResult",
    "retry_backoff_s",
    "run_experiment_record",
]

_BACKOFF_BASE_S = 0.005
_BACKOFF_CAP_S = 0.25
_BACKOFF_KEY = 0xB0FF  # spawn-key tag isolating the backoff RNG stream


def retry_backoff_s(seed: int | None, attempt: int) -> float:
    """Backoff delay before re-running attempt ``attempt + 1``.

    Exponential window capped at :data:`_BACKOFF_CAP_S`, jittered into
    ``[0.5, 1.5) * window`` by a generator seeded from the experiment
    seed and the attempt number — the same derivation at any worker
    count, so records (which carry the delay) stay bit-identical.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    seq = np.random.SeedSequence(
        entropy=(seed or 0) & (2**63 - 1),
        spawn_key=(_BACKOFF_KEY, attempt),
    )
    window = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2 ** (attempt - 1))
    return window * (0.5 + np.random.default_rng(seq).random())


def run_experiment_record(
    index: int,
    experiment: Experiment,
    cache_dir: str | None = None,
    retries: int = 0,
    cache_max_bytes: int | None = None,
    *,
    spec_hash: str | None = None,
) -> dict:
    """Execute one sweep point, returning its JSON-safe record.

    Module-level (not a closure) so worker pools can pickle it under any
    start method. Errors are captured, not raised. ``retries`` re-runs
    the point after an injected :class:`TransientFaultError`, salting
    the fault schedule with the attempt number; the final attempt's
    failure (if all retry budget is spent) is recorded with
    ``status="error"`` and ``transient=True``. ``spec_hash`` passes in
    the point's hash when the caller already computed it.
    """
    t0 = time.perf_counter()
    record: dict[str, Any] = {"index": index}
    attempts = 0
    transient_failures: list[str] = []
    backoffs: list[float] = []
    try:
        record["label"] = experiment.label()
        key = spec_hash if spec_hash is not None else experiment.spec_hash()
        record["spec_hash"] = key
        plan = None
        cache_state = None
        if cache_dir is not None and experiment.supports_plan_cache():
            cache = PlanCache(cache_dir, max_bytes=cache_max_bytes)
            plan = cache.load(key)
            if plan is not None:
                # A parseable entry may still be semantically poisoned
                # (stale format, tampered domains, wrong spec). Verify
                # the paper's invariants before trusting the replay;
                # rejects purge the entry and demote to a miss.
                report = verify_plan(plan, expected_spec_hash=key, subject=key)
                if report.ok:
                    cache_state = "hit"
                else:
                    cache.delete(key)
                    plan = None
                    cache_state = "rejected"
                    record["cache_reject_rules"] = report.by_rule()
            else:
                cache_state = "miss"
        while True:
            attempts += 1
            try:
                if cache_state in ("miss", "rejected") and attempts == 1:
                    ctx = experiment.context()
                    plan = experiment.plan(ctx)
                    cache.store(key, plan)
                    # Reuse the context: planning only reads cluster
                    # state, so executing on it is identical to a fresh
                    # build.
                    result = experiment.run(ctx=ctx, plan=plan)
                else:
                    # Retries build a fresh context — the failed attempt
                    # may have left reservations/derates behind.
                    result = experiment.run(
                        plan=plan, fault_attempt=attempts - 1
                    )
                break
            except TransientFaultError as exc:
                transient_failures.append(str(exc))
                if attempts > retries:
                    raise
                delay = retry_backoff_s(experiment.seed, attempts)
                backoffs.append(delay)
                time.sleep(delay)
        if cache_state == "rejected" and result.telemetry is not None:
            result.telemetry.count(PLAN_CACHE_REJECTS)
        record.update(
            status="ok",
            cache=cache_state,
            result=result_to_dict(result),
            error=None,
        )
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        record.update(
            status="error",
            cache=None,
            result=None,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            transient=isinstance(exc, TransientFaultError),
        )
    record["attempts"] = attempts
    if transient_failures:
        record["transient_failures"] = transient_failures
    if backoffs:
        record["backoff_s"] = backoffs
    record["wall_s"] = time.perf_counter() - t0
    return record


def _pool_entry(task: tuple[int, Experiment, str | None, int, int | None]) -> dict:
    index, experiment, cache_dir, retries, cache_max_bytes = task
    return run_experiment_record(
        index, experiment, cache_dir, retries, cache_max_bytes
    )


def _timeout_entry(
    task: tuple[int, Experiment, str | None, int, int | None],
    queue: multiprocessing.Queue,
) -> None:  # pragma: no cover - exercised in a child process
    """Send the point's spec hash, then its record.

    Hashing a spec touches the workload (every rank's extents), so it
    runs here: a workload that hangs hangs this child, which the
    supervisor can kill, never the supervisor itself.
    """
    index, experiment, cache_dir, retries, cache_max_bytes = task
    try:
        key: str | None = experiment.spec_hash()
    except Exception:  # noqa: BLE001 — the record below reports it
        key = None
    queue.put(key)
    queue.put(
        run_experiment_record(
            index, experiment, cache_dir, retries, cache_max_bytes,
            spec_hash=key,
        )
    )


def _timeout_record(
    index: int, experiment: Experiment, timeout_s: float, spec_hash: str | None
) -> dict:
    """Error record for a point whose child gave no record.

    ``spec_hash`` is what the child sent before it ran the point, or
    ``None`` when it was killed (or died) while hashing.
    """
    return {
        "index": index,
        "label": experiment.label(),
        "spec_hash": spec_hash,
        "status": "error",
        "cache": None,
        "result": None,
        "error": f"TimeoutError: point exceeded {timeout_s:g}s wall-clock",
        "transient": False,
        "attempts": 1,
        "wall_s": timeout_s,
    }


def _poll_child(queue: Any, key: list, *, wait_s: float) -> dict | None:
    """The child's record if it has arrived; a spec hash lands in ``key[0]``.

    ``wait_s`` > 0 waits that long for each item (the child has exited
    and its last items may still be in the pipe).
    """
    while True:
        try:
            item = queue.get(timeout=wait_s) if wait_s > 0 else queue.get_nowait()
        except Exception:  # noqa: BLE001 — queue.Empty or EOF
            return None
        if isinstance(item, dict):
            return item
        key[0] = item


def _run_with_timeouts(
    tasks: Sequence[tuple[int, Experiment, str | None, int, int | None]],
    workers: int,
    timeout_s: float,
    consume: Callable[[dict], None],
) -> None:
    """Process-per-task scheduler enforcing a wall-clock bound per point.

    A pool cannot kill a hung worker, so each point gets its own process
    (join with timeout, terminate on expiry). Slightly more spawn
    overhead than a pool — only used when ``timeout_s`` is set.
    """
    ctx = multiprocessing.get_context()
    pending = list(tasks)
    # (process, queue, start time, task, [spec hash the child sent])
    running: list[tuple[Any, Any, float, tuple, list]] = []
    while pending or running:
        while pending and len(running) < workers:
            task = pending.pop(0)
            queue = ctx.Queue(2)
            proc = ctx.Process(target=_timeout_entry, args=(task, queue))
            proc.start()
            running.append((proc, queue, time.perf_counter(), task, [None]))
        time.sleep(0.01)
        still = []
        for proc, queue, started, task, key in running:
            record = _poll_child(queue, key, wait_s=0.0)
            if record is not None:
                consume(record)
                proc.join()
            elif not proc.is_alive():
                # Exited: the record may still be in the pipe buffer.
                record = _poll_child(queue, key, wait_s=0.2)
                if record is None:
                    # Died without producing a record (crash / OOM-kill).
                    record = _timeout_record(task[0], task[1], 0.0, key[0])
                    record["error"] = (
                        f"RuntimeError: worker process died with exit code "
                        f"{proc.exitcode}"
                    )
                    record["wall_s"] = time.perf_counter() - started
                consume(record)
                proc.join()
            elif time.perf_counter() - started > timeout_s:
                proc.terminate()
                proc.join()
                consume(_timeout_record(task[0], task[1], timeout_s, key[0]))
            else:
                still.append((proc, queue, started, task, key))
        running = still


@dataclass(slots=True)
class CampaignResult:
    """Everything a finished campaign produced."""

    records: list[dict] = field(default_factory=list)
    wall_s: float = 0.0
    n_skipped: int = 0  # resumed points reused from the results store

    @property
    def ok(self) -> list[dict]:
        return [r for r in self.records if r["status"] == "ok"]

    @property
    def errors(self) -> list[dict]:
        return [r for r in self.records if r["status"] == "error"]

    @property
    def retried(self) -> list[dict]:
        """Points that needed more than one attempt (fault retries)."""
        return [r for r in self.records if r.get("attempts", 1) > 1]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.get("cache") == "hit")

    @property
    def cache_misses(self) -> int:
        """Points that had to plan from scratch (true misses + rejects)."""
        return sum(
            1 for r in self.records if r.get("cache") in ("miss", "rejected")
        )

    @property
    def cache_rejects(self) -> int:
        """Cached plans the static verifier refused to replay."""
        return sum(1 for r in self.records if r.get("cache") == "rejected")

    def results(self) -> list[dict]:
        """The per-point result payloads of successful points."""
        return [r["result"] for r in self.ok]

    def summary(self) -> str:
        """Rendered per-point table plus the campaign totals line."""
        rows = []
        for r in self.records:
            if r["status"] == "ok":
                outcome = fmt_rate(r["result"]["bandwidth_Bps"])
                if r.get("attempts", 1) > 1:
                    outcome += f" (attempt {r['attempts']})"
            else:
                outcome = r["error"].splitlines()[0][:48]
            rows.append(
                (
                    str(r["index"]),
                    r.get("label", "?"),
                    r["status"],
                    r.get("cache") or "-",
                    outcome,
                )
            )
        table = render_table(
            ["#", "experiment", "status", "plan", "bandwidth / error"],
            rows,
            title="campaign",
        )
        totals = (
            f"{len(self.records)} points: {len(self.ok)} ok, "
            f"{len(self.errors)} errors; plan cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses"
        )
        if self.cache_rejects:
            totals += f" ({self.cache_rejects} rejected by verifier)"
        if self.retried:
            totals += f"; {len(self.retried)} retried"
        if self.n_skipped:
            totals += f"; {self.n_skipped} resumed"
        totals += f"; wall {self.wall_s:.2f}s"
        return f"{table}\n{totals}"


class Campaign:
    """An ordered grid of experiments executed as one unit.

    Args:
        experiments: the sweep points, in the order records should come
            back.
        workers: process count; 1 runs inline (no pool, easier to
            debug), >1 fans out with ``multiprocessing``.
        cache_dir: directory for the plan cache; ``None`` disables
            caching.
        results_path: JSONL file records stream to; ``None`` keeps them
            in memory only.
        resume: skip points whose spec hash already has a successful
            record in ``results_path``, reusing the stored record.
        retries: per-point retry budget for injected transient failures
            (:class:`TransientFaultError`); each retry salts the fault
            schedule with its attempt number.
        cache_max_bytes: byte bound on the plan cache (LRU eviction);
            ``None`` keeps it unbounded, the historic behavior.
        timeout_s: per-point host wall-clock bound. ``None`` (default)
            keeps the plain pool path; a value switches to a
            process-per-task scheduler that can kill a hung point.
    """

    def __init__(
        self,
        experiments: Sequence[Experiment],
        *,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        results_path: str | Path | None = None,
        resume: bool = False,
        retries: int = 0,
        timeout_s: float | None = None,
        cache_max_bytes: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.experiments = list(experiments)
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.results_path = Path(results_path) if results_path is not None else None
        self.resume = resume
        self.retries = retries
        self.timeout_s = timeout_s
        self.cache_max_bytes = cache_max_bytes

    @classmethod
    def from_grid(
        cls,
        base: Experiment,
        axes: Mapping[str, Iterable[Any]],
        **options: Any,
    ) -> Campaign:
        """Cartesian product of ``base.replace(...)`` over ``axes``.

        ``axes`` maps :class:`Experiment` field names to value lists;
        later axes vary fastest. Example::

            Campaign.from_grid(
                Experiment(machine="testbed-8", n_procs=16),
                {"strategy": ["two-phase", "mc"],
                 "cb_buffer": [mib(2), mib(8), mib(32)]},
                workers=4,
            )
        """
        names = list(axes)
        experiments = [
            base.replace(**dict(zip(names, combo)))
            for combo in itertools.product(*(list(axes[n]) for n in names))
        ]
        return cls(experiments, **options)

    def __len__(self) -> int:
        return len(self.experiments)

    def run(
        self, progress: Callable[[dict], None] | None = None
    ) -> CampaignResult:
        """Execute all points; never raises for a failing point."""
        t0 = time.perf_counter()
        store = ResultStore(self.results_path) if self.results_path else None
        done_records: dict[str, dict] = {}
        if self.resume and store is not None:
            for rec in store.load():
                if rec.get("status") == "ok" and rec.get("spec_hash"):
                    done_records[rec["spec_hash"]] = rec

        tasks: list[tuple[int, Experiment, str | None, int, int | None]] = []
        by_index: dict[int, dict] = {}
        n_skipped = 0
        for index, exp in enumerate(self.experiments):
            if done_records:
                key = exp.spec_hash()
                if key in done_records:
                    reused = dict(done_records[key])
                    reused["index"] = index
                    reused["resumed"] = True
                    by_index[index] = reused
                    n_skipped += 1
                    continue
            tasks.append(
                (index, exp, self.cache_dir, self.retries, self.cache_max_bytes)
            )

        def consume(record: dict) -> None:
            by_index[record["index"]] = record
            if store is not None:
                store.append(record)
            if progress is not None:
                progress(record)

        if self.timeout_s is not None and tasks:
            _run_with_timeouts(
                tasks, min(self.workers, len(tasks)), self.timeout_s, consume
            )
        elif self.workers == 1 or len(tasks) <= 1:
            for task in tasks:
                consume(_pool_entry(task))
        else:
            workers = min(self.workers, len(tasks))
            with multiprocessing.get_context().Pool(workers) as pool:
                for record in pool.imap_unordered(_pool_entry, tasks, chunksize=1):
                    consume(record)

        records = [by_index[i] for i in sorted(by_index)]
        return CampaignResult(
            records=records,
            wall_s=time.perf_counter() - t0,
            n_skipped=n_skipped,
        )
