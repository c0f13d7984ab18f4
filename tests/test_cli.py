"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import FaultEvent, FaultSpec
from repro.cli import main

REPO = Path(__file__).resolve().parents[1]


class TestProject:
    def test_prints_table1(self, capsys):
        assert main(["project"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Total Concurrency" in out
        assert "memory per core" in out


class TestTune:
    def test_prints_parameters(self, capsys):
        assert main(["tune", "--machine", "testbed-4"]) == 0
        out = capsys.readouterr().out
        assert "Nah" in out
        assert "Msg_group" in out

    def test_verbose_curves(self, capsys):
        assert main(["tune", "--machine", "testbed-4", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "node sweep" in out
        assert "system sweep" in out

    def test_unknown_machine(self, capsys):
        assert main(["tune", "--machine", "cray-1"]) == 3  # EXIT_SPEC
        assert "unknown machine" in capsys.readouterr().err


class TestRun:
    def test_mc_run_summary(self, capsys):
        code = main(
            [
                "run", "--machine", "testbed-4", "--procs", "8",
                "--procs-per-node", "2", "--block-mib", "1",
                "--transfer-mib", "1", "--memory-mib", "1",
                "--strategy", "mc",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "memory-conscious write" in out
        assert "MiB/s" in out or "GiB/s" in out

    def test_trace_output(self, capsys):
        main(
            [
                "run", "--machine", "testbed-4", "--procs", "8",
                "--procs-per-node", "2", "--block-mib", "1",
                "--transfer-mib", "1", "--strategy", "two-phase", "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert "request_exchange" in out
        assert "transfer" in out

    @pytest.mark.parametrize("strategy", ["independent", "sieving", "two-phase"])
    def test_all_strategies(self, strategy, capsys):
        code = main(
            [
                "run", "--machine", "testbed-4", "--procs", "8",
                "--procs-per-node", "2", "--block-mib", "1",
                "--transfer-mib", "1", "--strategy", strategy,
            ]
        )
        assert code == 0


class TestTrace:
    ARGS = [
        "trace", "--machine", "testbed-4", "--procs", "8",
        "--procs-per-node", "2", "--block-mib", "2",
        "--transfer-mib", "1", "--memory-mib", "1",
    ]

    @pytest.mark.parametrize("strategy", ["two-phase", "mc"])
    def test_renders_breakdown_for_both_strategies(self, strategy, capsys):
        assert main([*self.ARGS, "--strategy", strategy]) == 0
        out = capsys.readouterr().out
        assert "per-round breakdown" in out
        assert "per-resource utilization" in out
        assert "round" in out and "bottleneck ms" in out
        assert "ost" in out
        assert "counters:" in out

    @pytest.mark.parametrize("strategy", ["independent", "sieving"])
    def test_non_collective_strategies_have_telemetry(self, strategy, capsys):
        assert main([*self.ARGS, "--strategy", strategy]) == 0
        out = capsys.readouterr().out
        assert "per-round breakdown" in out

    def test_json_dump_and_from_json(self, capsys, tmp_path):
        dump = tmp_path / "run.json"
        assert main([*self.ARGS, "--strategy", "mc", "--json", str(dump)]) == 0
        capsys.readouterr()
        assert dump.exists()
        assert main(["trace", "--from-json", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "memory-conscious" in out
        assert "per-round breakdown" in out

    def test_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "rounds.csv"
        assert main([*self.ARGS, "--strategy", "two-phase",
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "round,resource,phase,bytes,capacity"
        assert len(lines) > 1


class TestCampaign:
    ARGS = [
        "campaign", "--machine", "testbed-4", "--procs", "8",
        "--procs-per-node", "2", "--block-mib", "2",
        "--transfer-mib", "1", "--memory-mib", "1", "4",
    ]

    def test_grid_runs_and_summarizes(self, capsys):
        assert main([*self.ARGS, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out
        assert "4 points: 4 ok, 0 errors" in out

    def test_cache_and_results_roundtrip(self, capsys, tmp_path):
        results = tmp_path / "camp.jsonl"
        cache = tmp_path / "plans"
        extra = ["--results", str(results), "--cache-dir", str(cache),
                 "--verbose"]
        assert main([*self.ARGS, *extra]) == 0
        out = capsys.readouterr().out
        assert "plan cache: 0 hits / 2 misses" in out
        assert "[0]" in out  # --verbose per-point lines

        # resumed re-run touches nothing and reports the skips
        assert main([*self.ARGS, *extra, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "4 resumed" in out

        # the store feeds `repro trace`
        assert main(["trace", "--from-json", str(results)]) == 0
        assert "per-round breakdown" in capsys.readouterr().out

    def test_seeds_axis(self, capsys):
        assert main([*self.ARGS, "--seeds", "7", "8",
                     "--strategies", "mc"]) == 0
        out = capsys.readouterr().out
        assert "4 points: 4 ok, 0 errors" in out


class TestSweep:
    def test_sweep_table(self, capsys):
        code = main(
            [
                "sweep", "--machine", "testbed-4", "--procs", "8",
                "--procs-per-node", "2", "--block-mib", "2",
                "--transfer-mib", "1", "--memory-mib", "1", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "two-phase" in out
        assert "memory-conscious" in out
        assert "improvement" in out
        assert "1 MiB" in out and "4 MiB" in out

    def test_sweep_accepts_auto_arm(self, capsys):
        code = main(
            [
                "sweep", "--machine", "testbed-4", "--procs", "8",
                "--procs-per-node", "2", "--block-mib", "2",
                "--transfer-mib", "1", "--memory-mib", "1",
                "--strategies", "two-phase", "mc", "auto",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "auto" in out
        assert "memory-conscious" in out

    def test_sweep_rejects_unknown_arm(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "--machine", "testbed-4", "--procs", "8",
                    "--strategies", "two-phse",
                ]
            )
        assert "invalid choice" in capsys.readouterr().err


class TestNewWorkloadFlags:
    BASE = [
        "run", "--machine", "testbed-4", "--procs", "8",
        "--procs-per-node", "2", "--memory-mib", "1",
    ]

    def test_file_per_task(self, capsys):
        code = main(
            [
                *self.BASE, "--workload", "file-per-task", "--strategy", "mc",
                "--task-kib", "64", "--tasks-per-rank", "2",
                "--task-layout", "grouped",
            ]
        )
        assert code == 0
        assert "memory-conscious write" in capsys.readouterr().out

    def test_nested_strided_with_auto(self, capsys):
        code = main(
            [
                *self.BASE, "--workload", "nested-strided",
                "--strategy", "auto", "--nest-block-kib", "16",
                "--inner-count", "3", "--outer-count", "3",
                "--hole-factor", "2",
            ]
        )
        assert code == 0
        assert "write" in capsys.readouterr().out

    def test_hotspot(self, capsys):
        code = main(
            [
                *self.BASE, "--workload", "hotspot", "--strategy", "two-phase",
                "--hot-mib", "4", "--hot-fraction", "0.7", "--hot-ranks", "2",
            ]
        )
        assert code == 0
        assert "write" in capsys.readouterr().out

    def test_campaign_accepts_auto_strategy(self, capsys):
        code = main(
            [
                "campaign", "--machine", "testbed-4", "--procs", "8",
                "--procs-per-node", "2", "--workload", "hotspot",
                "--memory-mib", "4", "--strategies", "two-phase", "auto",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 points: 2 ok, 0 errors" in out
        assert "auto" in out


class TestVarianceFlag:
    RUN = [
        "run", "--machine", "testbed-4", "--procs", "8",
        "--procs-per-node", "2", "--block-mib", "1",
        "--transfer-mib", "1", "--memory-mib", "1", "--strategy", "mc",
    ]
    SWEEP = [
        "sweep", "--machine", "testbed-4", "--procs", "8",
        "--procs-per-node", "2", "--block-mib", "2",
        "--transfer-mib", "1", "--memory-mib", "4",
    ]

    def test_run_defaults_to_no_variance(self, capsys):
        # sweep's historic 50 MiB default must not leak into `run`
        # through the shared parent parser: no flag == explicit 0
        assert main(self.RUN) == 0
        plain = capsys.readouterr().out
        assert main([*self.RUN, "--variance-mib", "0"]) == 0
        assert capsys.readouterr().out == plain

    def test_sweep_keeps_its_historic_default(self, capsys):
        assert main(self.SWEEP) == 0
        default = capsys.readouterr().out
        assert main([*self.SWEEP, "--variance-mib", "50"]) == 0
        assert capsys.readouterr().out == default

    def test_sweep_variance_zero_really_disables(self, capsys):
        assert main(self.SWEEP) == 0
        default = capsys.readouterr().out
        assert main([*self.SWEEP, "--variance-mib", "0"]) == 0
        assert capsys.readouterr().out != default


class TestFaultsFlag:
    RUN = [
        "run", "--machine", "testbed-4", "--procs", "8",
        "--procs-per-node", "2", "--block-mib", "2",
        "--transfer-mib", "1", "--memory-mib", "1",
        "--strategy", "two-phase",
    ]

    def test_compact_form_smoke(self, capsys):
        assert main([*self.RUN, "--faults", "mem=1,seed=2"]) == 0
        assert "write" in capsys.readouterr().out

    def test_trace_renders_recoveries_from_spec_file(self, capsys, tmp_path):
        spec = FaultSpec(
            events=(
                FaultEvent(
                    kind="mem_pressure", time=1e-3, target=0, fraction=1.0
                ),
            ),
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        args = ["trace", *self.RUN[1:], "--faults", f"@{path}"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "faults and recoveries" in out
        assert "mem_pressure" in out
        assert "recovery" in out
        assert "total recovery cost" in out

    def test_campaign_applies_faults_to_every_point(self, capsys):
        args = [
            "campaign", "--machine", "testbed-4", "--procs", "8",
            "--procs-per-node", "2", "--block-mib", "2",
            "--transfer-mib", "1", "--memory-mib", "1", "4",
            "--faults", "mem=1,seed=2",
        ]
        assert main(args) == 0
        assert "4 points: 4 ok, 0 errors" in capsys.readouterr().out

    def test_bad_faults_string_exits(self, capsys):
        # Bad specs map to the spec exit code (3), message on stderr.
        assert main([*self.RUN, "--faults", "explode=1"]) == 3
        assert "--faults" in capsys.readouterr().err


class TestCheckPlan:
    @pytest.fixture
    def cache_dir(self, tmp_path):
        """A one-entry plan cache built from a tiny experiment."""
        from repro.api import Experiment
        from repro.campaign import PlanCache
        from repro.util import mib

        exp = Experiment(
            machine="testbed-4", n_procs=8, procs_per_node=2,
            workload_params={"block_size": mib(1), "transfer_size": mib(1) // 4},
            cb_buffer=mib(1), seed=3,
        )
        cache = PlanCache(tmp_path / "plans")
        cache.store(exp.spec_hash(), exp.plan())
        return cache

    def test_clean_file_exits_zero(self, capsys, cache_dir):
        path = next(cache_dir.root.glob("*.plan.json"))
        assert main(["check-plan", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_clean_dir_exits_zero(self, capsys, cache_dir):
        assert main(["check-plan", str(cache_dir.root)]) == 0

    def test_violating_plan_exits_nonzero(self, capsys, cache_dir):
        path = next(cache_dir.root.glob("*.plan.json"))
        data = json.loads(path.read_text())
        data["domains"][0]["buffer_bytes"] = 10**12
        path.write_text(json.dumps(data))
        assert main(["check-plan", str(path)]) == 4  # EXIT_PLAN_VERIFY
        assert "PV109" in capsys.readouterr().out

    def test_json_format(self, capsys, cache_dir):
        path = next(cache_dir.root.glob("*.plan.json"))
        assert main(["check-plan", str(path), "--format", "json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["ok"] is True

    def test_empty_dir_exits_nonzero(self, tmp_path, capsys):
        assert main(["check-plan", str(tmp_path)]) == 1


class TestLint:
    def test_shipped_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(tmp_path)]) == 1
        # the flow-sensitive L310 subsumed the old L201 heuristic
        assert "L310" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "sim" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violations"][0]["rule"] == "L202"

    def test_select_filters_rules(self, tmp_path, capsys):
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random, time\nx = random.random()\nt = time.time()\n")
        assert main(["lint", str(tmp_path), "--select", "L202"]) == 1
        out = capsys.readouterr().out
        assert "L202" in out and "L310" not in out

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert listed == [
            "L200", "L202", "L204", "L205", "L300", "L310", "L320",
        ]

    def test_sarif_format(self, tmp_path, capsys):
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(tmp_path), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "L310"

    @pytest.mark.parametrize("code", ["L999", "L201"])
    def test_unknown_select_code_exits_3(self, tmp_path, capsys, code):
        # L201 was removed from the catalog; it must not silently select
        # nothing and pass over a real finding.
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(tmp_path), "--select", code]) == 3
        assert code in capsys.readouterr().err


class TestServe:
    def test_daemon_boots_serves_and_reports(self, tmp_path):
        """`repro serve` over a unix socket: boot, plan twice (miss then
        hit), SIGINT, exit 0 with the counter summary + metrics dump."""
        import os
        import signal
        import subprocess
        import sys
        import time

        sock = tmp_path / "serve.sock"
        metrics_json = tmp_path / "metrics.json"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--no-tcp",
             "--unix-socket", str(sock), "--pool", "thread",
             "--cache-dir", str(tmp_path / "cache"),
             "--metrics-json", str(metrics_json)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, cwd=REPO, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not sock.exists():
                assert proc.poll() is None, proc.stdout.read()
                assert time.monotonic() < deadline, "daemon never bound"
                time.sleep(0.05)

            from repro import Experiment, PlanClient, mib

            exp = Experiment(
                machine="testbed-4", n_procs=8, procs_per_node=2,
                workload_params={"block_size": mib(1),
                                 "transfer_size": mib(1) // 4},
                cb_buffer=mib(1), seed=3,
            )
            with PlanClient(unix_socket=str(sock), fallback=False) as client:
                first = client.plan(exp)
                second = client.plan(exp)
            assert (first.cache_state, second.cache_state) == ("miss", "hit")
            assert first.plan == second.plan
        finally:
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "listening on unix:" in out
        assert "requests=" in out and "hits=1" in out
        metrics = json.loads(metrics_json.read_text())
        assert metrics["counters"]["planning_jobs"] == 1
