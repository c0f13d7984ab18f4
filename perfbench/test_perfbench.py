"""Schema and smoke tests for the layered benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs in ``--smoke`` mode (tiny sizes, about a second of
measuring) once untraced and once traced, in its own process, exactly as
the benchmark is invoked for real.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: the workload-specific metrics each workload names in its details line
DETAILS = {
    "fig7-sweep": {"write_s": "s", "read_s": "s"},
    "faults-240": {"faulted_s": "s"},
    "plan-1m": {"plan_s": "s"},
    "serve-inprocess": {
        "hit_p50_ms": "ms", "hit_p99_ms": "ms", "miss_p50_ms": "ms", "rps": "1/s",
    },
}


def _invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _prefixed(stdout: str, prefix: str) -> str:
    (line,) = [ln for ln in stdout.splitlines() if ln.startswith(prefix + " ")]
    return line[len(prefix) + 1:]


def test_benchmark_json_matches_the_runner() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric(workload: str, trace: str) -> None:
    proc = _invoke("--workload", workload, "--smoke", "--seconds", "0.5",
                   "--seed", str(run.DEFAULT_SEED), "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.per_layer_units() if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    digest, _, recorded = _prefixed(proc.stdout, "digest").partition(" recorded ")
    assert digest == recorded
    context = json.loads(_prefixed(proc.stdout, "context"))
    assert {"nproc", "python", "numpy", "commit", "loadavg", "seed"} <= set(context)
    if trace == "1":
        table = json.loads(_prefixed(proc.stdout, "layers"))
        assert {"untraced_s", "overhead_s", "rows", "counts"} <= set(table)
    else:
        details = json.loads(_prefixed(proc.stdout, "details"))
        for name, unit in DETAILS[workload].items():
            assert details[name]["unit"] == unit and details[name]["value"] > 0


def test_refuses_to_run_without_the_sources() -> None:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _invoke("--workload", "plan-1m", "--seconds", "1", "--seed", "1",
                       "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(scratch)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
