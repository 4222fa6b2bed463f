"""Tests for the coconut CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fabric" in out and "corda_os" in out
        assert "fig3" in out and "table19_20" in out

    def test_run_requires_system(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--system", "ripple"])

    def test_param_parsing_error(self):
        with pytest.raises(SystemExit):
            main(["run", "--system", "fabric", "--param", "oops"])


class TestRunCommand:
    def test_small_run_prints_summary(self, capsys):
        code = main([
            "run", "--system", "fabric", "--iel", "DoNothing",
            "--rate", "50", "--scale", "0.02", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "DoNothing" in out
        assert "MTPS=" in out

    def test_stream_spill_writes_every_record(self, tmp_path, capsys):
        from repro.stream import read_spill

        spill = tmp_path / "records.jsonl"
        code = main([
            "run", "--system", "fabric", "--iel", "DoNothing",
            "--rate", "20", "--scale", "0.02", "--seed", "5",
            "--stream-spill", str(spill),
        ])
        assert code == 0
        out = capsys.readouterr().out
        entries = read_spill(spill)
        assert f"{len(entries)} records spilled" in out
        assert f"NoT={sum(e['status'] == 'received' for e in entries)}/{len(entries)}" in out
        assert len({entry["payload_id"] for entry in entries}) == len(entries)

    @pytest.mark.parametrize("verb", (
        ["run", "--system", "fabric"],
        ["experiment", "table13_14"],
        ["search", "--system", "fabric"],
    ))
    def test_stream_metrics_flag_is_gone(self, verb, capsys):
        with pytest.raises(SystemExit) as error:
            main(verb + ["--stream-metrics"])
        assert error.value.code == 2
        assert "--stream-metrics" in capsys.readouterr().err

    def test_run_with_params_and_output(self, tmp_path, capsys):
        code = main([
            "run", "--system", "quorum", "--iel", "DoNothing",
            "--rate", "50", "--scale", "0.02",
            "--param", "istanbul.blockperiod=2.0",
            "--output", str(tmp_path),
        ])
        assert code == 0
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        data = json.loads(files[0].read_text())
        assert data["system"] == "quorum"
        assert data["params"]["istanbul.blockperiod"] == 2.0

    def test_check_flag_prints_report_and_persists_it(self, tmp_path, capsys):
        code = main([
            "run", "--system", "quorum", "--iel", "KeyValue",
            "--rate", "20", "--scale", "0.02", "--check",
            "--output", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants: ok (basic)" in out
        data = json.loads(next(iter(tmp_path.glob("*.json"))).read_text())
        # The report rides on the unit's final phase, beside resilience.
        final_phase = data["phases"]["Get"]["repetitions"][-1]
        assert final_phase["invariants"]["ok"] is True
        assert final_phase["invariants"]["violations"] == []

    def test_check_level_implies_check(self, capsys):
        code = main([
            "run", "--system", "fabric", "--iel", "DoNothing",
            "--rate", "20", "--scale", "0.02", "--check-level", "strict",
        ])
        assert code == 0
        assert "invariants: ok (strict)" in capsys.readouterr().out

    def test_check_violation_makes_exit_code_nonzero(self, monkeypatch, capsys):
        from repro.coconut import runner as runner_module

        class PoisonOracle:
            name = "poison"

            def finalize(self, ch, system):
                ch.violation(self.name, "n0", "seeded for the exit-code test")

        real_checker = runner_module.InvariantChecker

        def poisoned(**kwargs):
            checker = real_checker(**kwargs)
            poison = PoisonOracle()
            checker.oracles.append(poison)
            checker._hooked["finalize"].append(poison)
            return checker

        monkeypatch.setattr(runner_module, "InvariantChecker", poisoned)
        code = main([
            "run", "--system", "fabric", "--iel", "DoNothing",
            "--rate", "20", "--scale", "0.02", "--check",
        ])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_blockstats_flag(self, capsys):
        code = main([
            "run", "--system", "fabric", "--iel", "DoNothing",
            "--rate", "50", "--scale", "0.02", "--blockstats",
        ])
        assert code == 0
        assert "block stats:" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        code = main(["sweep", "sweep_fabric_mm", "--scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MaxMessageCount=100" in out and "spread=" in out

    def test_bitshares_ops_flag(self, capsys):
        code = main([
            "run", "--system", "bitshares", "--iel", "DoNothing",
            "--rate", "100", "--ops", "100", "--scale", "0.02",
            "--param", "block_interval=1.0",
        ])
        assert code == 0
        assert "MTPS=" in capsys.readouterr().out


class TestFaultPlanFlag:
    def write_plan(self, tmp_path):
        from repro.faults import FaultPlan

        plan = FaultPlan().kill_leader(at=0.5).restart("leader", at=1.5)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        return str(path)

    def test_run_with_fault_plan_prints_resilience(self, tmp_path, capsys):
        code = main([
            "run", "--system", "fabric", "--iel", "DoNothing",
            "--rate", "50", "--scale", "0.02", "--faults",
            self.write_plan(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MTPS=" in out
        assert "resilience [" in out

    def test_missing_plan_file_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="bad fault plan"):
            main([
                "run", "--system", "fabric", "--iel", "DoNothing",
                "--rate", "50", "--scale", "0.02",
                "--faults", "/nonexistent/plan.json",
            ])

    @pytest.mark.parametrize("flag, text, message", [
        ("--faults", '{"actions": [{"kind": "meteor", "at": 1.0}]}', "bad fault plan"),
        ("--faults", '{"actions": [5]}', "bad fault plan"),
        ("--faults", '{"actions": [{"at": "x", "kind": "crash", "target": "n0"}]}',
         "bad fault plan"),
        ("--workload", '{"arrival": 5}', "bad workload spec"),
    ], ids=["unknown-kind", "non-object-action", "non-numeric-at", "non-object-arrival"])
    def test_malformed_plan_json_is_a_usage_error(self, tmp_path, flag, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit, match=f"^coconut run: error: {message}: [^\\n]+$"):
            main([
                "run", "--system", "fabric", "--iel", "DoNothing",
                "--rate", "50", "--scale", "0.02", flag, str(path),
            ])


class TestExperimentCommand:
    def test_experiment_runs_and_renders(self, capsys):
        code = main(["experiment", "table15_16", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Quorum" in out
        assert "Paper" in out and "Measured" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])


class TestParallelFlags:
    @pytest.mark.parametrize("bad", ["0", "-2", "two"])
    @pytest.mark.parametrize("verb", [
        ["experiment", "table15_16"],
        ["sweep", "sweep_fabric_mm"],
        ["search", "--system", "quorum"],
    ])
    def test_jobs_below_one_rejected_at_parse_time(self, verb, bad, capsys):
        # Rejected before any unit runs, with argparse's usage-error exit.
        with pytest.raises(SystemExit) as excinfo:
            main(verb + ["--jobs", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs" in err
        assert ("must be >= 1" in err) or ("must be a positive integer" in err)

    def test_experiment_with_jobs_matches_serial(self, capsys):
        assert main(["experiment", "table15_16", "--scale", "0.05"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["experiment", "table15_16", "--scale", "0.05", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert "executor: 2 ran, 0 cached (jobs=1)" in serial_out
        assert "executor: 2 ran, 0 cached (jobs=2)" in parallel_out
        assert parallel_out.split("executor:")[0] == serial_out.split("executor:")[0]

    def test_warm_cache_reruns_nothing(self, tmp_path, capsys):
        args = ["experiment", "table15_16", "--scale", "0.05",
                "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "executor: 2 ran, 0 cached (jobs=2)" in cold_out
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "executor: 0 ran, 2 cached (jobs=2)" in warm_out
        assert "2 hits, 0 misses" in warm_out
        # Cached results render the same comparison table.
        assert warm_out.split("executor:")[0] == cold_out.split("executor:")[0]

    def test_sweep_with_jobs_matches_serial(self, capsys):
        assert main(["sweep", "sweep_fabric_mm", "--scale", "0.02"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["sweep", "sweep_fabric_mm", "--scale", "0.02", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert "executor: 4 ran, 0 cached (jobs=2)" in parallel_out
        assert parallel_out.split("executor:")[0] == serial_out.split("executor:")[0]

    def test_serial_cache_dir_without_jobs(self, tmp_path, capsys):
        args = ["sweep", "sweep_fabric_mm", "--scale", "0.02",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "executor: 4 ran, 0 cached (jobs=1)" in capsys.readouterr().out
        assert main(args) == 0
        assert "executor: 0 ran, 4 cached (jobs=1)" in capsys.readouterr().out


class TestSearchCommand:
    def test_search_runs_with_preset_space(self, capsys):
        assert main(["search", "--system", "corda_os", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "probe" in out
        assert "knee" in out
        assert "corda_os" in out

    def test_list_shows_strategies_and_capacity_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "strategies:" in out and "bisect, grid" in out
        assert "capacity_keyvalue" in out

    def test_explicit_space_and_output_json(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        assert main(["search", "--system", "corda_os",
                     "--rate-min", "1", "--rate-max", "8", "--rate-step", "1",
                     "--output", str(output)]) == 0
        data = json.loads(output.read_text())
        assert data["system"] == "corda_os"
        assert data["strategy"] == "bisect"
        assert data["knee_rate"] is not None
        assert data["probes"]

    def test_grid_strategy_with_executor_and_cache(self, tmp_path, capsys):
        args = ["search", "--system", "corda_os", "--strategy", "grid",
                "--rate-min", "2", "--rate-max", "8", "--rate-step", "2",
                "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "executor: 4 ran, 0 cached (jobs=2)" in cold_out
        # A re-run restores every probe from the cache.
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "executor: 0 ran, 4 cached (jobs=2)" in warm_out

    def test_grid_warms_bisection_cache(self, tmp_path, capsys):
        space = ["--rate-min", "2", "--rate-max", "8", "--rate-step", "2"]
        assert main(["search", "--system", "corda_os", "--strategy", "grid",
                     "--cache-dir", str(tmp_path)] + space) == 0
        capsys.readouterr()
        # Bisection probes a subset of the same grid: all cache hits.
        assert main(["search", "--system", "corda_os", "--strategy", "bisect",
                     "--cache-dir", str(tmp_path)] + space) == 0
        assert "0 ran" in capsys.readouterr().out

    def test_invalid_rate_window_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="coconut search: error"):
            main(["search", "--system", "corda_os",
                  "--rate-min", "10", "--rate-max", "5"])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "--system", "corda_os", "--strategy", "annealing"])

    def test_check_with_cache_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--system", "corda_os", "--check",
                  "--cache-dir", str(tmp_path)])
        message = str(excinfo.value.code)
        assert message.startswith("coconut search: error:")
        assert "cache" in message and "\n" not in message

    def test_checked_search_with_jobs(self, capsys):
        args = ["search", "--system", "corda_os", "--check",
                "--rate-min", "1", "--rate-max", "4", "--rate-step", "1"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert "with violations" in pooled_out
        assert pooled_out.split("executor:")[0] == serial_out.split("executor:")[0]
        assert pooled_out.split("invariants:")[1] == serial_out.split("invariants:")[1]

    def test_checked_search_reports_invariants(self, capsys):
        assert main(["search", "--system", "corda_os", "--check",
                     "--rate-min", "1", "--rate-max", "4",
                     "--rate-step", "1"]) == 0
        assert "invariants:" in capsys.readouterr().out

    def test_search_param_spec_parsing(self):
        from repro.cli import _parse_search_params

        domains = _parse_search_params(["block_interval=1:4:1"])
        assert len(domains) == 1
        assert domains[0].name == "block_interval"
        assert domains[0].grid() == (1, 2, 3, 4)
        (float_domain,) = _parse_search_params(["delay=0.5:1.5:0.5"])
        assert float_domain.integer is False
        with pytest.raises(SystemExit):
            main(["search", "--system", "corda_os", "--search-param", "oops"])

    def test_trace_export(self, tmp_path, capsys):
        trace_path = tmp_path / "search.json"
        assert main(["search", "--system", "corda_os",
                     "--trace", str(trace_path)]) == 0
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        assert any(event.get("cat") == "search" for event in events)
