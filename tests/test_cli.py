"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import main
from repro.sim import Simulation


class TestList:
    def test_lists_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for bench in ("mcf", "redis", "pr", "cachelib"):
            assert bench in out


class TestRun:
    def test_run_policy(self, capsys):
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "m5-hpt" in out
        assert "promoted" in out

    def test_identification_mode_reports_ratio(self, capsys):
        rc = main([
            "run", "--bench", "mcf", "--policy", "anb", "--no-migrate",
            "--accesses", "100000", "--chunk", "50000",
        ])
        assert rc == 0
        assert "access-count ratio" in capsys.readouterr().out

    def test_redis_reports_p99(self, capsys):
        rc = main([
            "run", "--bench", "redis", "--policy", "none",
            "--accesses", "100000", "--chunk", "50000",
        ])
        assert rc == 0
        assert "p99" in capsys.readouterr().out


class TestRunObservability:
    def test_metrics_prom_file(self, capsys, tmp_path):
        path = tmp_path / "run.prom"
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
            "--metrics", str(path),
        ])
        assert rc == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        text = path.read_text()
        assert "# TYPE sim_epochs_total counter" in text
        assert "sim_epochs_total 2" in text

    def test_metrics_json_file(self, tmp_path):
        import json

        path = tmp_path / "run.json"
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
            "--metrics", str(path),
        ])
        assert rc == 0
        snap = json.loads(path.read_text())
        assert any(m["name"] == "sim_epochs_total" for m in snap["metrics"])

    def test_trace_file_and_flame_table(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
            "--trace", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flame table" in out
        assert "stage coverage" in out
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "run" in names and "stage.perf" in names


class TestMetricsCommand:
    def snapshot_file(self, tmp_path, name, epochs):
        from repro.obs import Observability, to_prometheus

        obs = Observability(metrics=True, tracing=False)
        obs.registry.counter("sim_epochs_total").inc(epochs)
        path = tmp_path / name
        path.write_text(to_prometheus(obs.snapshot()))
        return str(path)

    def test_show_one_snapshot(self, capsys, tmp_path):
        path = self.snapshot_file(tmp_path, "a.prom", 5)
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "sim_epochs_total" in out and "5.000" in out

    def test_diff_two_snapshots(self, capsys, tmp_path):
        a = self.snapshot_file(tmp_path, "a.prom", 5)
        b = self.snapshot_file(tmp_path, "b.prom", 8)
        assert main(["metrics", a, b]) == 0
        out = capsys.readouterr().out
        assert "metrics diff" in out and "3.000" in out

    def test_identical_snapshots_report_no_change(self, capsys, tmp_path):
        a = self.snapshot_file(tmp_path, "a.prom", 5)
        b = self.snapshot_file(tmp_path, "b.prom", 5)
        assert main(["metrics", a, b]) == 0
        assert "no differing series" in capsys.readouterr().out

    def test_missing_file_rejected(self, capsys, tmp_path):
        rc = main(["metrics", str(tmp_path / "nope.prom")])
        assert rc == 2

    def test_three_files_rejected(self, capsys, tmp_path):
        a = self.snapshot_file(tmp_path, "a.prom", 1)
        assert main(["metrics", a, a, a]) == 2


class TestSweepMetrics:
    def test_per_cell_snapshots_collected(self, capsys, tmp_path):
        import json

        path = tmp_path / "cells.json"
        rc = main([
            "sweep", "--benches", "mcf", "--policies", "m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
            "--metrics", str(path),
        ])
        assert rc == 0
        assert "per-cell metrics written" in capsys.readouterr().out
        cells = json.loads(path.read_text())
        assert set(cells["mcf"]) == {"none", "m5-hpt"}
        names = {m["name"] for m in cells["mcf"]["m5-hpt"]["metrics"]}
        assert "sim_epochs_total" in names

    def test_table_unchanged_by_metrics(self, capsys, tmp_path):
        # One collect path: turning per-cell metrics on must not change
        # the printed table.
        argv = ["sweep", "--benches", "mcf", "--policies", "anb",
                "--accesses", "60000", "--chunk", "30000"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--metrics", str(tmp_path / "m.json")]) == 0
        with_metrics = capsys.readouterr().out
        assert with_metrics.endswith(plain)


class TestCompare:
    def test_compare_policies(self, capsys):
        rc = main([
            "compare", "--bench", "mcf", "--policies", "anb,m5-hpt",
            "--accesses", "100000", "--chunk", "50000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "anb" in out and "m5-hpt" in out and "norm" in out

    def test_unknown_policy_rejected(self, capsys):
        rc = main([
            "compare", "--bench", "mcf", "--policies", "tpp2",
            "--accesses", "100000",
        ])
        assert rc == 2

    def test_zero_p99_is_rejected_not_swapped_for_time(self, monkeypatch):
        # A measured p99 of 0.0 is corrupt; it must not fall back to
        # normalising by execution time.
        real_run = Simulation.run

        def run(self):
            result = real_run(self)
            if self.policy_name == "none":
                return result
            return dataclasses.replace(result, p99_latency_us=0.0)

        monkeypatch.setattr(Simulation, "run", run)
        with pytest.raises(ValueError, match="p99 latency measured as 0.0"):
            main([
                "compare", "--bench", "redis", "--policies", "anb",
                "--accesses", "60000", "--chunk", "30000",
            ])


class TestFleet:
    def test_slo_rules_report_without_serve(self, capsys):
        rc = main([
            "fleet", "--tenants", "2", "--tiers", "2",
            "--accesses", "60000", "--chunk", "15000",
            "--slo-rules", "default",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines() if ln.startswith("slo ")]
        assert "rules green" in line or "breaches" in line

    def test_jobs_flag_is_gone(self):
        # Fleets run in lockstep only; the sharding flag is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--tenants", "2", "--jobs", "2"])
        assert exc.value.code == 2


class TestProfile:
    def test_profile_output(self, capsys):
        rc = main([
            "profile", "--bench", "redis",
            "--accesses", "200000", "--chunk", "50000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P(<=  4 words)" in out
        assert "page character : sparse" in out


class TestHwcost:
    def test_table_printed(self, capsys):
        assert main(["hwcost"]) == 0
        out = capsys.readouterr().out
        assert "33.6x area" in out


class TestRunCheckpointResume:
    @pytest.mark.parametrize("mode", ["instant", "async"])
    def test_checkpoint_then_resume_reproduces_summary(
        self, capsys, tmp_path, mode
    ):
        ckpt = tmp_path / "run.ckpt"
        rc = main([
            "run", "--bench", "mcf", "--policy", "m5-hpt",
            "--accesses", "200000", "--chunk", "20000",
            "--migration-mode", mode,
            "--checkpoint", str(ckpt), "--checkpoint-every", "3",
        ])
        assert rc == 0
        full = capsys.readouterr().out
        assert "checkpoints   : 3 written" in full
        assert ckpt.exists()

        rc = main(["run", "--resume", str(ckpt)])
        assert rc == 0
        resumed = capsys.readouterr().out
        assert "resuming from" in resumed
        # The resumed tail lands on the uninterrupted run's summary,
        # line for line; the summary's shape follows the restored config.
        keys = ("execution time", "promoted", "DDR/CXL pages")
        if mode == "async":
            keys += ("async queue", "queue timeline")
        for key in keys:
            (line,) = [l for l in full.splitlines() if l.startswith(key)]
            assert line in resumed

    def test_resume_missing_file_errors(self, capsys, tmp_path):
        assert main(["run", "--resume", str(tmp_path / "no.ckpt")]) == 2
        assert "cannot resume" in capsys.readouterr().out


class TestServeCommand:
    @staticmethod
    def make_traces(tmp_path):
        from repro.workloads import record, uniform_workload

        p1 = record(uniform_workload(footprint_pages=2048, seed=41),
                    8 * 4096, tmp_path / "a.rtrace", chunk_size=4096)
        p2 = record(uniform_workload(footprint_pages=2048, seed=42),
                    6 * 4096, tmp_path / "b.rtrace", chunk_size=4096)
        return p1, p2

    def serve(self, *argv):
        return main(["serve", "--chunk", "4096", "--no-http", *argv])

    def test_serve_two_streams_to_completion(self, capsys, tmp_path):
        import json

        p1, p2 = self.make_traces(tmp_path)
        out = tmp_path / "serve.json"
        rc = self.serve(
            "--stream", f"a={p1}",
            "--stream", f"b={p2},policy=anb,budget=8192",
            "--out", str(out),
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "rounds" in text
        payload = json.loads(out.read_text())
        assert payload["unfinished"] == []
        assert set(payload["streams"]) == {"a", "b"}
        assert payload["streams"]["b"]["policy"] == "anb"

    def test_serve_kill_resume_matches_uninterrupted(self, capsys, tmp_path):
        import json

        p1, p2 = self.make_traces(tmp_path)
        streams = [
            "--stream", f"a={p1},budget=8192",
            "--stream", f"b={p2},budget=4096",
        ]
        base_out = tmp_path / "base.json"
        assert self.serve(*streams, "--out", str(base_out)) == 0

        ckpt_dir = tmp_path / "ckpt"
        part_out = tmp_path / "part.json"
        rc = self.serve(
            *streams, "--checkpoint-dir", str(ckpt_dir),
            "--checkpoint-every", "1", "--max-rounds", "2",
            "--out", str(part_out),
        )
        assert rc == 0
        assert json.loads(part_out.read_text())["streams"] == {}

        res_out = tmp_path / "res.json"
        rc = main(["serve", "--no-http", "--resume", str(ckpt_dir),
                   "--max-rounds", "0", "--out", str(res_out)])
        assert rc == 0
        capsys.readouterr()
        base = json.loads(base_out.read_text())
        res = json.loads(res_out.read_text())
        assert res["unfinished"] == []
        assert res["streams"] == base["streams"]

    def test_serve_requires_streams(self, capsys):
        assert main(["serve", "--no-http"]) == 2
        assert "--stream" in capsys.readouterr().out

    def test_serve_rejects_bad_stream_spec(self, capsys, tmp_path):
        assert self.serve("--stream", "just-a-name") == 2
        assert "NAME=TRACE" in capsys.readouterr().out
        assert self.serve("--stream", "a=t.rtrace,policy=bogus") == 2
        assert "unknown policy" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--chunk", "0"], "trace sizes must be positive"),
        (["--buffer-cap", "0"], "buffer_capacity must be positive"),
        (["--checkpoint-every", "3"], "requires checkpoint_dir"),
    ])
    def test_bad_config_value_is_a_usage_error(self, capsys, argv, message):
        # rejected before the trace is opened, the way `run` rejects it
        with pytest.raises(SystemExit) as exc:
            self.serve("--stream", "a=missing.rtrace", *argv)
        assert exc.value.code == 2
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines() if ln.startswith("error:")]
        assert message in line


class TestVerify:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Two recording oracles in ``ORACLES``; ``None`` = not passed."""
        from repro.verify import ORACLES, OracleReport

        calls = {}

        def sized(seed=None, accesses=None, chunk=None):
            calls["sized"] = dict(seed=seed, accesses=accesses, chunk=chunk)
            return OracleReport("sized", "records its arguments")

        def paired(bench=None, policy=None, seed=None):
            calls["paired"] = dict(bench=bench, policy=policy, seed=seed)
            return OracleReport("paired", "records its arguments")

        monkeypatch.setitem(ORACLES, "sized", sized)
        monkeypatch.setitem(ORACLES, "paired", paired)
        return calls

    def test_unset_sizes_leave_each_oracle_its_own(self, calls, capsys):
        assert main(["verify", "--oracles", "sized,paired"]) == 0
        assert calls == {
            "sized": dict(seed=1, accesses=None, chunk=None),
            "paired": dict(bench="mcf", policy="m5-hpt", seed=1),
        }

    def test_set_flags_reach_every_oracle_that_takes_them(self, calls,
                                                          capsys):
        assert main(["verify", "--oracles", "sized,paired", "--seed", "3",
                     "--accesses", "5000", "--chunk", "100",
                     "--bench", "roms"]) == 0
        assert calls == {
            "sized": dict(seed=3, accesses=5000, chunk=100),
            "paired": dict(bench="roms", policy="m5-hpt", seed=3),
        }


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_requires_bench(self, capsys):
        # --bench became optional at parse time (a --resume run takes
        # everything from the checkpoint), so the check is a runtime
        # error with the CLI's usual exit code.
        assert main(["run"]) == 2
        assert "--bench is required" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--chunk", "5"), ("--subsample", "5"), ("--engine", "batched"),
    ])
    def test_report_rejects_flags_it_would_ignore(self, flag, value):
        # the profile report reads only --accesses and --seed
        with pytest.raises(SystemExit) as exc:
            main(["report", "--bench", "mcf", flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--chunk", "0"], "trace sizes must be positive"),
        (["--checkpoint-every", "2"], "requires a checkpoint_path"),
        (["--checkpoints", "0"], "need at least one checkpoint"),
    ])
    def test_bad_config_value_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bench", "mcf", *argv])
        assert exc.value.code == 2
        out = capsys.readouterr().out
        (line,) = [ln for ln in out.splitlines() if ln.startswith("error:")]
        assert message in line
