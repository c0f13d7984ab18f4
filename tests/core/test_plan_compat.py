"""Plan-format backward compatibility across versions.

The committed ``golden.v2.plan.json`` fixture is the last plan the v2
format produced (pre remote-pool provenance). The contract:

* **v2 loads, verifies, and replays** — a borrow-free v3 plan differs
  from its v2 twin only in the version stamp and the new zero-valued
  stats/config fields, so v2 entries keep replaying bit-identically;
* **v2 must not carry borrow keys** — per-domain borrow provenance is a
  v3 concept; a "v2" plan that has it was tampered with (PV116);
* **v1 demotes to a cache miss** — :func:`plan_from_dict` refuses the
  version and the plan cache treats the entry as absent, replanning
  instead of raising.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import verify_plan
from repro.api import Experiment
from repro.campaign import PlanCache
from repro.core import plan_from_dict
from repro.core.plans import PLAN_FORMAT_VERSION, SUPPORTED_PLAN_VERSIONS
from repro.metrics.export import result_to_dict
from repro.util import mib

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
GOLDEN_V2 = FIXTURES / "golden.v2.plan.json"
GOLDEN_V3 = FIXTURES / "golden.plan.json"

# The experiment both golden fixtures were generated from.
GOLDEN_EXPERIMENT = Experiment(
    machine="testbed-4", n_procs=8, procs_per_node=2,
    workload_params={"block_size": mib(1), "transfer_size": mib(1) // 4},
    cb_buffer=mib(1), seed=3,
)


def test_version_constants_are_consistent():
    assert PLAN_FORMAT_VERSION == 3
    assert SUPPORTED_PLAN_VERSIONS == {2, 3}
    assert json.loads(GOLDEN_V2.read_text())["version"] == 2
    assert json.loads(GOLDEN_V3.read_text())["version"] == 3


def test_v2_plan_loads_and_verifies():
    data = json.loads(GOLDEN_V2.read_text())
    plan = plan_from_dict(data)
    assert plan.domains
    report = verify_plan(data)
    assert report.ok, report.render()


def test_v2_plan_replays_identically_to_v3():
    v2 = plan_from_dict(json.loads(GOLDEN_V2.read_text()))
    v3 = plan_from_dict(json.loads(GOLDEN_V3.read_text()))
    assert v2.domains == v3.domains
    assert result_to_dict(GOLDEN_EXPERIMENT.run(plan=v2)) == result_to_dict(
        GOLDEN_EXPERIMENT.run(plan=v3)
    )


def test_borrow_free_v3_body_matches_v2_except_new_fields():
    """The v3 format is additive: strip the version stamp and the new
    zero-valued fields and the two golden fixtures are byte-identical."""
    v2 = json.loads(GOLDEN_V2.read_text())
    v3 = json.loads(GOLDEN_V3.read_text())
    v2.pop("version"), v3.pop("version")
    assert v3["config"].pop("pool_capacity") == 0
    assert v3["stats"].pop("n_borrows") == 0
    assert v2 == v3


def test_v2_plan_with_borrow_keys_is_rejected():
    data = json.loads(GOLDEN_V2.read_text())
    data["domains"][0]["borrowed_bytes"] = 4096
    data["domains"][0]["borrow_link"] = 0
    report = verify_plan(data)
    assert not report.ok
    assert "PV116" in report.by_rule()


def test_v1_plan_raises_value_error():
    data = json.loads(GOLDEN_V2.read_text())
    data["version"] = 1
    with pytest.raises(ValueError, match="version"):
        plan_from_dict(data)


def test_v1_cache_entry_demotes_to_a_miss(tmp_path):
    cache = PlanCache(tmp_path)
    key = GOLDEN_EXPERIMENT.spec_hash()
    stale = json.loads(GOLDEN_V2.read_text())
    stale["version"] = 1
    cache.store_raw(key, stale)
    # raw bytes are there, but the typed loader refuses the version
    assert cache.load_raw(key) is not None
    assert cache.load(key) is None
