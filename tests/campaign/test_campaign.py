"""Campaign runner: determinism, plan caching, failure isolation, resume,
fault retries, and per-point timeouts."""

from __future__ import annotations

import json
import time

import pytest

from repro import Campaign, Experiment, FaultSpec, IORWorkload, mib
from repro.campaign import PlanCache
from repro.metrics.export import load_telemetries
from repro.metrics.store import ResultStore, load_records

BASE = Experiment(
    machine="testbed-4",
    n_procs=8,
    procs_per_node=2,
    workload_params={"block_size": mib(1), "transfer_size": mib(1) // 4},
    cb_buffer=mib(1),
    seed=3,
)
AXES = {"strategy": ["two-phase", "mc"], "seed": [3, 4]}


class PoisonedWorkload(IORWorkload):
    """Module-level (picklable) workload that blows up on first touch."""

    def extents_for_rank(self, rank: int):
        raise RuntimeError("poisoned point")


def _essence(record: dict) -> str:
    """A record minus its timing — the part that must be deterministic."""
    return json.dumps(
        {k: v for k, v in record.items() if k != "wall_s"}, sort_keys=True
    )


def test_from_grid_is_an_ordered_product():
    camp = Campaign.from_grid(BASE, AXES)
    assert len(camp) == 4
    assert [(e.strategy, e.seed) for e in camp.experiments] == [
        ("two-phase", 3), ("two-phase", 4), ("mc", 3), ("mc", 4),
    ]


def test_four_workers_byte_identical_to_one(tmp_path):
    serial = Campaign.from_grid(BASE, AXES, workers=1).run()
    parallel = Campaign.from_grid(BASE, AXES, workers=4).run()
    assert [r["status"] for r in serial.records] == ["ok"] * 4
    assert list(map(_essence, serial.records)) == list(
        map(_essence, parallel.records)
    )


def test_cache_hit_miss_accounting(tmp_path):
    cache_dir = tmp_path / "plans"
    first = Campaign.from_grid(BASE, AXES, cache_dir=cache_dir).run()
    # only mc points plan ahead; two-phase never touches the cache
    assert (first.cache_misses, first.cache_hits) == (2, 0)
    assert [r["cache"] for r in first.records] == [None, None, "miss", "miss"]
    assert len(PlanCache(cache_dir)) == 2

    second = Campaign.from_grid(BASE, AXES, cache_dir=cache_dir).run()
    assert (second.cache_misses, second.cache_hits) == (0, 2)
    # cached plans replay to the same results as planning from scratch
    assert [r["result"] for r in first.records] == [
        r["result"] for r in second.records
    ]

    uncached = Campaign.from_grid(BASE, AXES).run()
    assert all(r["cache"] is None for r in uncached.records)
    assert [r["result"] for r in uncached.records] == [
        r["result"] for r in first.records
    ]


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache_dir = tmp_path / "plans"
    mc = BASE.replace(strategy="mc")
    clean = Campaign([mc], cache_dir=cache_dir).run()
    PlanCache(cache_dir).path(mc.spec_hash()).write_text("not json{")
    reread = Campaign([mc], cache_dir=cache_dir).run()
    assert reread.cache_misses == 1 and reread.cache_hits == 0
    assert reread.records[0]["result"] == clean.records[0]["result"]


@pytest.mark.parametrize("workers", [1, 2])
def test_poisoned_point_is_isolated(tmp_path, workers):
    poisoned = BASE.replace(
        strategy="mc", workload=PoisonedWorkload(8, block_size=mib(1))
    )
    camp = Campaign(
        [BASE.replace(strategy="two-phase"), poisoned, BASE.replace(strategy="mc")],
        workers=workers,
        results_path=tmp_path / "camp.jsonl",
    )
    out = camp.run()
    assert len(out.records) == 3  # the campaign survived
    assert [r["status"] for r in out.records] == ["ok", "error", "ok"]
    bad = out.records[1]
    assert "poisoned point" in bad["error"] and "RuntimeError" in bad["error"]
    assert bad["result"] is None and "poisoned point" in bad["traceback"]
    # every record, including the failure, made it to the store (the JSONL
    # is completion-ordered under a pool, so compare by index)
    stored = {r["index"]: r["status"] for r in load_records(camp.results_path)}
    assert stored == {0: "ok", 1: "error", 2: "ok"}


def test_results_stream_to_jsonl_and_reload(tmp_path):
    path = tmp_path / "camp.jsonl"
    out = Campaign.from_grid(BASE, AXES, results_path=path).run()
    stored = ResultStore(path).load()
    assert list(map(_essence, stored)) == list(map(_essence, out.records))
    # the telemetry loader used by `repro trace` understands the store
    entries = load_telemetries(path)
    assert len(entries) == 4
    for (result, tele), rec in zip(entries, stored):
        assert result["bandwidth_Bps"] == rec["result"]["bandwidth_Bps"]
        assert tele is not None and len(tele.rounds) == result["n_rounds"]


def test_resume_skips_completed_points(tmp_path):
    path = tmp_path / "camp.jsonl"
    first = Campaign.from_grid(BASE, AXES, results_path=path).run()

    resumed = Campaign.from_grid(
        BASE, AXES, results_path=path, resume=True
    ).run()
    assert resumed.n_skipped == 4
    assert all(r.get("resumed") for r in resumed.records)
    assert [r["result"] for r in resumed.records] == [
        r["result"] for r in first.records
    ]

    # a fresh point joins a resumed grid: only it actually runs
    wider = Campaign.from_grid(
        BASE,
        {"strategy": ["two-phase", "mc"], "seed": [3, 4, 5]},
        results_path=path,
        resume=True,
    ).run()
    assert wider.n_skipped == 4
    assert [r["status"] for r in wider.records] == ["ok"] * 6


def test_progress_callback_sees_every_record():
    seen: list[int] = []
    out = Campaign.from_grid(BASE, AXES).run(progress=lambda r: seen.append(r["index"]))
    assert sorted(seen) == [r["index"] for r in out.records] == [0, 1, 2, 3]


def test_summary_mentions_totals(tmp_path):
    out = Campaign.from_grid(BASE, AXES, cache_dir=tmp_path / "plans").run()
    text = out.summary()
    assert "4 points: 4 ok, 0 errors" in text
    assert "plan cache: 0 hits / 2 misses" in text


def test_workers_must_be_positive():
    with pytest.raises(ValueError):
        Campaign([BASE], workers=0)


# ------------------------------------------------------- fault handling
FAULTS = FaultSpec(
    seed=9, mem_pressure=1, pressure_fraction=1.0, stalls=1, ost_degrade=1
)


class SleepyWorkload(IORWorkload):
    """Module-level (picklable) workload that hangs on first touch."""

    def extents_for_rank(self, rank: int):
        time.sleep(60)
        return super().extents_for_rank(rank)


def test_faulted_grid_byte_identical_across_workers():
    faulted = BASE.replace(faults=FAULTS)
    serial = Campaign.from_grid(faulted, AXES, workers=1).run()
    parallel = Campaign.from_grid(faulted, AXES, workers=4).run()
    assert [r["status"] for r in serial.records] == ["ok"] * 4
    # identical seed + FaultSpec -> byte-identical fault schedules,
    # results, and spec hashes regardless of worker count
    assert list(map(_essence, serial.records)) == list(
        map(_essence, parallel.records)
    )
    hashes = [r["spec_hash"] for r in serial.records]
    assert hashes == [r["spec_hash"] for r in parallel.records]
    assert len(set(hashes)) == 4
    # the fault spec is part of the identity: hashes moved off the
    # fault-free grid's
    clean = Campaign.from_grid(BASE, AXES, workers=1).run()
    assert set(hashes).isdisjoint(r["spec_hash"] for r in clean.records)


def test_transient_abort_retried_to_success():
    flaky = BASE.replace(
        strategy="two-phase", faults=FaultSpec(seed=1, abort_prob=0.5)
    )
    # this seed aborts on attempt 0 and comes up clean on attempt 1
    assert any(e.kind == "abort" for e in flaky.faults.schedule(4, 8, attempt=0))
    assert not any(
        e.kind == "abort" for e in flaky.faults.schedule(4, 8, attempt=1)
    )
    out = Campaign([flaky], retries=2).run()
    rec = out.records[0]
    assert rec["status"] == "ok"
    assert rec["attempts"] == 2
    assert len(rec["transient_failures"]) == 1
    assert "transient" in rec["transient_failures"][0]
    assert out.retried == [rec]
    assert "1 retried" in out.summary()


def test_retry_budget_exhaustion_is_a_transient_error():
    doomed = BASE.replace(
        strategy="two-phase", faults=FaultSpec(seed=1, abort_prob=1.0)
    )
    out = Campaign([doomed], retries=2).run()
    rec = out.records[0]
    assert rec["status"] == "error"
    assert rec["transient"] is True
    assert rec["attempts"] == 3
    assert len(rec["transient_failures"]) == 3
    assert "TransientFaultError" in rec["error"]


def test_retries_also_work_across_a_pool():
    flaky = BASE.replace(
        strategy="two-phase", faults=FaultSpec(seed=1, abort_prob=0.5)
    )
    out = Campaign([BASE, flaky], workers=2, retries=2).run()
    assert [r["status"] for r in out.records] == ["ok", "ok"]
    assert [r["attempts"] for r in out.records] == [1, 2]


def test_timeout_scheduler_passes_healthy_points():
    out = Campaign.from_grid(BASE, {"seed": [3, 4]}, timeout_s=120).run()
    assert [r["status"] for r in out.records] == ["ok", "ok"]
    # timeout records must stay byte-identical to the inline path
    inline = Campaign.from_grid(BASE, {"seed": [3, 4]}).run()
    assert list(map(_essence, out.records)) == list(map(_essence, inline.records))


def test_timeout_kills_a_hung_point():
    hung = BASE.replace(
        strategy="two-phase", workload=SleepyWorkload(8, block_size=mib(1))
    )
    t0 = time.perf_counter()
    out = Campaign([BASE, hung], timeout_s=3.0).run()
    # The supervisor never touches the hung workload itself.
    assert time.perf_counter() - t0 < 30.0
    assert [r["status"] for r in out.records] == ["ok", "error"]
    bad = out.records[1]
    assert "TimeoutError" in bad["error"] and bad["result"] is None
    assert bad["transient"] is False
    # Killed while hashing (the workload hangs on first touch).
    assert bad["spec_hash"] is None
    assert out.records[0]["spec_hash"] == BASE.spec_hash()


def test_retry_and_timeout_validation():
    with pytest.raises(ValueError):
        Campaign([BASE], retries=-1)
    with pytest.raises(ValueError):
        Campaign([BASE], timeout_s=0.0)


# --------------------------------------------------------------------------
# Plan-cache poisoning: every corruption class must demote to a miss (the
# point still succeeds with a freshly planned result), never crash, and
# semantic poisonings must be counted as verifier rejects.


def _result_sans_reject_counter(record: dict) -> dict:
    """The result payload with the reject counter (bookkeeping the clean
    run legitimately lacks) removed — everything else must match."""
    result = json.loads(json.dumps(record["result"]))
    result.get("telemetry", {}).get("counters", {}).pop(
        "plan_cache_rejects", None
    )
    return result


def _poison_cache_and_rerun(tmp_path, mutate):
    """Seed the cache, corrupt the entry via ``mutate(path)``, rerun."""
    cache_dir = tmp_path / "plans"
    mc = BASE.replace(strategy="mc")
    clean = Campaign([mc], cache_dir=cache_dir).run()
    path = PlanCache(cache_dir).path(mc.spec_hash())
    mutate(path)
    reread = Campaign([mc], cache_dir=cache_dir).run()
    assert reread.records[0]["status"] == "ok"
    assert _result_sans_reject_counter(
        reread.records[0]
    ) == _result_sans_reject_counter(clean.records[0])
    return reread


def test_truncated_cache_entry_is_a_miss(tmp_path):
    def mutate(path):
        path.write_text(path.read_text()[: len(path.read_text()) // 2])

    out = _poison_cache_and_rerun(tmp_path, mutate)
    # unparseable -> plain miss, not a verifier reject
    assert out.records[0]["cache"] == "miss"
    assert out.cache_rejects == 0 and out.cache_misses == 1


def test_wrong_plan_version_is_a_miss(tmp_path):
    def mutate(path):
        data = json.loads(path.read_text())
        data["version"] = 1
        path.write_text(json.dumps(data))

    out = _poison_cache_and_rerun(tmp_path, mutate)
    # the loader already refuses other versions -> miss at load time
    assert out.records[0]["cache"] == "miss"
    assert out.cache_rejects == 0


def test_invariant_violating_entry_is_rejected(tmp_path):
    def mutate(path):
        data = json.loads(path.read_text())
        # a buffer bigger than the domain's bytes: parses fine, PV109
        data["domains"][0]["buffer_bytes"] = 10**12
        path.write_text(json.dumps(data))

    out = _poison_cache_and_rerun(tmp_path, mutate)
    rec = out.records[0]
    assert rec["cache"] == "rejected"
    assert out.cache_rejects == 1
    assert out.cache_misses == 1  # rejects count as misses (replanned)
    assert out.cache_hits == 0
    assert "PV109" in rec["cache_reject_rules"]
    # the reject is visible in the run's telemetry counters
    counters = rec["result"]["telemetry"]["counters"]
    assert counters.get("plan_cache_rejects") == 1.0
    assert "rejected by verifier" in out.summary()


def test_spec_hash_mismatched_entry_is_rejected(tmp_path):
    def mutate(path):
        data = json.loads(path.read_text())
        data["spec_hash"] = "0" * 64  # plan built for a different spec
        path.write_text(json.dumps(data))

    out = _poison_cache_and_rerun(tmp_path, mutate)
    assert out.records[0]["cache"] == "rejected"
    assert "PV111" in out.records[0]["cache_reject_rules"]


def test_rejected_entry_is_purged_and_rewritten(tmp_path):
    cache_dir = tmp_path / "plans"
    mc = BASE.replace(strategy="mc")
    Campaign([mc], cache_dir=cache_dir).run()
    path = PlanCache(cache_dir).path(mc.spec_hash())
    data = json.loads(path.read_text())
    data["domains"][0]["buffer_bytes"] = 10**12
    path.write_text(json.dumps(data))
    assert Campaign([mc], cache_dir=cache_dir).run().cache_rejects == 1
    # the replan overwrote the poisoned entry: next run is a clean hit
    final = Campaign([mc], cache_dir=cache_dir).run()
    assert final.cache_hits == 1 and final.cache_rejects == 0
