"""Tests for the command-line interface and the experiment orchestration script."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli


class TestRunCommand:
    def test_runs_bfs_and_prints_summary(self, capsys):
        exit_code = cli.run_command(
            ["--app", "bfs", "--dataset", "rmat16", "--width", "4", "--scale", "0.1",
             "--engine", "analytic"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "bfs on rmat16" in captured
        assert "cycles" in captured

    def test_json_output_is_parseable(self, capsys):
        exit_code = cli.run_command(
            ["--app", "spmv", "--dataset", "rmat16", "--width", "4", "--scale", "0.1",
             "--engine", "analytic", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "spmv"
        assert payload["verified"] is True
        assert payload["tiles"] == 16

    def test_ladder_configuration_selectable(self, capsys):
        exit_code = cli.run_command(
            ["--app", "bfs", "--dataset", "amazon", "--width", "4", "--scale", "0.05",
             "--config", "Tesseract", "--engine", "analytic", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"] == "Tesseract"

    def test_noc_override(self, capsys):
        exit_code = cli.run_command(
            ["--app", "bfs", "--dataset", "rmat16", "--width", "4", "--scale", "0.1",
             "--engine", "analytic", "--noc", "mesh", "--json"]
        )
        assert exit_code == 0
        assert json.loads(capsys.readouterr().out)["noc"] == "mesh"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            cli.run_command(["--app", "bellman_ford"])

    def test_network_knobs_select_the_simulated_model(self, capsys):
        exit_code = cli.run_command(
            ["--app", "bfs", "--dataset", "rmat16", "--width", "4", "--scale", "0.1",
             "--engine", "cycle", "--network", "simulated", "--routing", "adaptive",
             "--queue-depth", "2"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "network=simulated(routing=adaptive, queue_depth=2)" in captured

    def test_3d_noc_with_grid_depth(self, capsys):
        exit_code = cli.run_command(
            ["--app", "bfs", "--dataset", "rmat16", "--width", "2", "--scale", "0.1",
             "--engine", "cycle", "--noc", "torus3d", "--grid-depth", "2", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["noc"] == "torus3d"
        assert payload["tiles"] == 8

    def test_grid_depth_requires_a_3d_noc(self):
        with pytest.raises(SystemExit):
            cli.run_command(
                ["--app", "bfs", "--width", "2", "--scale", "0.1",
                 "--noc", "torus", "--grid-depth", "2"]
            )


class TestRuntimeFlags:
    """Smoke tests for the shared --jobs / --cache-dir / --no-cache flags."""

    RUN_ARGS = ["--app", "bfs", "--dataset", "rmat16", "--width", "4", "--scale", "0.1",
                "--engine", "analytic", "--json"]

    def test_jobs_flag_accepted_and_output_unchanged(self, capsys):
        # A single dalorex-run never fans out (one spec), so this only pins
        # flag acceptance and identical output; the real serial-vs-parallel
        # equality lives in tests/runtime/test_runner.py and the script test.
        assert cli.run_command(self.RUN_ARGS) == 0
        serial = json.loads(capsys.readouterr().out)
        assert cli.run_command(self.RUN_ARGS + ["--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel == serial

    def test_non_positive_jobs_rejected_by_the_parser(self, capsys):
        for bogus in ("0", "-3"):
            with pytest.raises(SystemExit):
                cli.run_command(self.RUN_ARGS + ["--jobs", bogus])
            capsys.readouterr()

    def test_cache_dir_populates_and_replays(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        args = self.RUN_ARGS + ["--cache-dir", str(cache_dir)]
        assert cli.run_command(args) == 0
        first = json.loads(capsys.readouterr().out)
        entries = list(cache_dir.glob("*.json"))
        assert len(entries) == 1
        # A second invocation replays the cached result bit-for-bit.
        assert cli.run_command(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second == first
        assert list(cache_dir.glob("*.json")) == entries

    def test_no_cache_disables_the_cache(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        args = self.RUN_ARGS + ["--cache-dir", str(cache_dir), "--no-cache"]
        assert cli.run_command(args) == 0
        capsys.readouterr()
        assert not cache_dir.exists() or not list(cache_dir.glob("*.json"))

    def test_runner_from_args_shapes(self, tmp_path):
        args = cli.argparse.Namespace(jobs=3, cache_dir=str(tmp_path), no_cache=False)
        runner = cli.runner_from_args(args)
        assert runner.jobs == 3 and runner.cache is not None
        args = cli.argparse.Namespace(jobs=1, cache_dir=None, no_cache=False)
        assert cli.runner_from_args(args).cache is None

    def test_backend_flag_selects_the_backend(self):
        def runner_for(**kwargs):
            defaults = dict(jobs=1, cache_dir=None, no_cache=False,
                            backend="auto", connect=None)
            defaults.update(kwargs)
            return cli.runner_from_args(cli.argparse.Namespace(**defaults))

        assert runner_for().backend.name == "inline"
        assert runner_for(jobs=4).backend.name == "process"
        assert runner_for(backend="inline", jobs=4).backend.name == "inline"
        assert runner_for(backend="process").backend.name == "process"
        distributed = runner_for(backend="distributed", connect="localhost:4573")
        assert distributed.backend.name == "distributed"
        assert distributed.backend.address == ("localhost", 4573)

    def test_distributed_backend_without_connect_is_an_argument_error(self):
        with pytest.raises(SystemExit):
            cli.run_command(self.RUN_ARGS + ["--backend", "distributed"])

    def test_backend_inline_output_identical(self, capsys):
        assert cli.run_command(self.RUN_ARGS) == 0
        default = capsys.readouterr().out
        assert cli.run_command(self.RUN_ARGS + ["--backend", "inline"]) == 0
        assert capsys.readouterr().out == default

    def test_experiments_command_accepts_runtime_flags(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        exit_code = cli.experiments_command(
            ["textstats", "--scale", "0.05", "--cache-dir", str(cache_dir)]
        )
        assert exit_code == 0
        assert "Power density" in capsys.readouterr().out
        assert len(list(cache_dir.glob("*.json"))) == 1


class TestDalorexDispatch:
    """The unified `dalorex` entry point routes subcommands (and keeps the
    historical flags-only invocation as an alias for `run`)."""

    def test_run_subcommand(self, capsys):
        assert cli.dalorex_command(
            ["run", "--app", "bfs", "--dataset", "rmat16", "--width", "4",
             "--scale", "0.1", "--engine", "analytic", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["app"] == "bfs"

    def test_bare_flags_alias_run(self, capsys):
        assert cli.dalorex_command(
            ["--app", "spmv", "--dataset", "rmat16", "--width", "4",
             "--scale", "0.1", "--engine", "analytic", "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["app"] == "spmv"

    def test_unknown_subcommand_rejected(self, capsys):
        assert cli.dalorex_command(["frobnicate"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    RUN_FLAGS = ["--app", "bfs", "--dataset", "rmat16", "--width", "4",
                 "--scale", "0.1", "--engine", "analytic", "--json"]

    @pytest.mark.parametrize(
        "command",
        [["run"] + RUN_FLAGS, RUN_FLAGS, ["experiments", "textstats", "--scale", "0.05"]],
        ids=["run", "flags-only-alias", "experiments"],
    )
    @pytest.mark.parametrize("flag", [["--shards", "2"], ["--shard-backend", "inproc"]])
    def test_removed_partitioning_flags_are_parser_errors(self, command, flag, capsys):
        # Both subcommands that took the runtime flags refuse the removed
        # ones before running anything.
        with pytest.raises(SystemExit) as excinfo:
            cli.dalorex_command(command + flag)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["run"] + RUN_FLAGS, ["--tenant", "alice"]),
            (["experiments", "textstats", "--scale", "0.05"], ["--tenant", "alice"]),
            (["broker", "--port", "0"], ["--tenant-quota", "5"]),
            (["broker", "--port", "0"], ["--http-port", "0"]),
            (["broker", "--port", "0"], ["--sample-interval", "1"]),
            (["broker", "--port", "0"], ["--no-telemetry"]),
            (["broker", "--port", "0"], ["--telemetry-jsonl", "broker.jsonl"]),
        ],
        ids=["run-tenant", "experiments-tenant", "tenant-quota", "http-port",
             "sample-interval", "no-telemetry", "telemetry-jsonl"],
    )
    def test_removed_service_flags_are_parser_errors(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.dalorex_command(command + flag)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
        assert captured.out == ""

    def test_fleet_is_no_longer_a_subcommand(self, capsys):
        assert cli.dalorex_command(["fleet", "top", "--connect", "x:1"]) == 2
        assert "unknown subcommand 'fleet'" in capsys.readouterr().err

    def test_help_lists_subcommands(self, capsys):
        assert cli.dalorex_command([]) == 0
        out = capsys.readouterr().out
        for name in ("run", "experiments", "verify", "cache", "broker", "worker"):
            assert name in out


class TestVerifyCommand:
    def test_inline_spec_conforms(self, capsys):
        exit_code = cli.dalorex_command(
            ["verify", "--app", "sssp", "--dataset", "rmat16", "--width", "2",
             "--scale", "0.02", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.startswith("[OK]")
        assert "oracle=bounds" in out

    def test_json_report_shape(self, capsys):
        exit_code = cli.dalorex_command(
            ["verify", "--app", "pagerank", "--width", "2", "--scale", "0.02",
             "--json"]
        )
        assert exit_code == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        assert reports[0]["ok"] is True
        assert reports[0]["oracle"] == "equality"
        assert reports[0]["counters"]["cycle"]["edges_processed"] == \
            reports[0]["counters"]["analytic"]["edges_processed"]

    def test_replays_a_repro_spec_file(self, capsys, tmp_path):
        from repro.core.config import MachineConfig
        from repro.runtime import RunSpec
        from repro.verify import write_repro_spec

        spec = RunSpec(
            app="wcc", dataset="rmat16",
            config=MachineConfig(width=2, height=2, noc="mesh"),
            scale=0.02, seed=5,
        )
        path = write_repro_spec(spec, tmp_path)
        assert cli.dalorex_command(["verify", "--spec", str(path)]) == 0
        assert "[OK]" in capsys.readouterr().out

    def test_malformed_spec_file_raises(self, tmp_path):
        from repro.errors import ReproError

        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ReproError):
            cli.verify_command(["--spec", str(path)])


class TestCacheCommand:
    def populate(self, tmp_path):
        cache_dir = tmp_path / "cache"
        for seed in (7, 8):
            assert cli.run_command(
                ["--app", "spmv", "--dataset", "rmat16", "--width", "4",
                 "--scale", "0.1", "--engine", "analytic", "--seed", str(seed),
                 "--cache-dir", str(cache_dir), "--json"]
            ) == 0
        return cache_dir

    def test_stats_reports_entries_and_bytes(self, capsys, tmp_path):
        cache_dir = self.populate(tmp_path)
        capsys.readouterr()
        assert cli.dalorex_command(
            ["cache", "stats", "--cache-dir", str(cache_dir), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0

    def test_prune_dry_run_then_real(self, capsys, tmp_path):
        cache_dir = self.populate(tmp_path)
        capsys.readouterr()
        assert cli.dalorex_command(
            ["cache", "prune", "--cache-dir", str(cache_dir),
             "--max-size", "0", "--dry-run", "--json"]
        ) == 0
        dry = json.loads(capsys.readouterr().out)
        assert len(dry["evicted"]) == 2 and dry["entries"] == 2
        assert cli.dalorex_command(
            ["cache", "prune", "--cache-dir", str(cache_dir),
             "--max-size", "0", "--json"]
        ) == 0
        real = json.loads(capsys.readouterr().out)
        assert real["entries"] == 0
        assert not list(cache_dir.glob("*.json"))

    def test_missing_cache_dir_is_an_error_not_an_empty_cache(self, capsys, tmp_path):
        missing = tmp_path / "no-such-cache"
        for action in (["stats"], ["prune", "--max-size", "0"]):
            assert cli.dalorex_command(
                ["cache", *action, "--cache-dir", str(missing)]
            ) == 2
            assert "does not exist" in capsys.readouterr().err
            assert not missing.exists()  # inspection must not mkdir

    def test_prune_policy_lru_keeps_loaded_entries(self, capsys, tmp_path):
        cache_dir = self.populate(tmp_path)
        capsys.readouterr()
        from repro.runtime import ResultCache

        cache = ResultCache(cache_dir)
        first, second = [path.stem for _m, _s, path in sorted(cache._entries())]
        # Age the stamps apart, then touch the older entry via load().
        for index, key in enumerate((first, second)):
            stamp = 1_000_000_000 + index * 10
            os.utime(cache.path_for(key), (stamp, stamp))
        assert cache.load(first) is not None
        budget = cache.stats()["total_bytes"] - 1  # forces exactly one eviction
        assert cli.dalorex_command(
            ["cache", "prune", "--cache-dir", str(cache_dir),
             "--max-size", str(budget), "--policy", "lru", "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["policy"] == "lru"
        assert summary["evicted"] == [second]  # the unloaded one went first

    def test_max_size_suffixes(self):
        assert cli._parse_size("1024") == 1024
        assert cli._parse_size("4K") == 4096
        assert cli._parse_size("2m") == 2 << 20
        assert cli._parse_size("1G") == 1 << 30
        assert cli._parse_size("512MB") == 512 << 20
        for bogus in ("x", "-1", "4T"):
            with pytest.raises(cli.argparse.ArgumentTypeError):
                cli._parse_size(bogus)


class TestRuntimeFlagRoundTrip:
    """Acceptance: --jobs/--cache-dir/--no-cache round-trip through both
    entry points and produce byte-identical outputs vs serial/no-cache runs."""

    EXPERIMENT_ARGS = ["textstats", "--scale", "0.05"]

    def run_experiments(self, capsys, extra):
        assert cli.experiments_command(self.EXPERIMENT_ARGS + extra) == 0
        return capsys.readouterr().out.encode()

    def test_experiments_output_identical_across_flag_combinations(
        self, capsys, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        serial = self.run_experiments(capsys, [])
        parallel = self.run_experiments(capsys, ["--jobs", "2"])
        cold_cache = self.run_experiments(
            capsys, ["--jobs", "2", "--cache-dir", str(cache_dir)]
        )
        assert len(list(cache_dir.glob("*.json"))) > 0
        warm_cache = self.run_experiments(
            capsys, ["--cache-dir", str(cache_dir)]
        )
        no_cache = self.run_experiments(
            capsys, ["--cache-dir", str(cache_dir), "--no-cache"]
        )
        assert serial == parallel == cold_cache == warm_cache == no_cache

    def test_run_output_identical_across_flag_combinations(self, capsys, tmp_path):
        base = ["--app", "bfs", "--dataset", "rmat16", "--width", "4",
                "--scale", "0.1", "--engine", "analytic", "--json"]
        cache_dir = tmp_path / "cache"

        def run(extra):
            assert cli.run_command(base + extra) == 0
            return capsys.readouterr().out.encode()

        serial = run([])
        combos = [
            ["--jobs", "2"],
            ["--cache-dir", str(cache_dir)],          # cold cache
            ["--cache-dir", str(cache_dir)],          # warm cache
            ["--cache-dir", str(cache_dir), "--no-cache"],
            ["--jobs", "2", "--cache-dir", str(cache_dir)],
        ]
        for extra in combos:
            assert run(extra) == serial, f"output diverged for {extra}"


class TestBrokerWorkerCommands:
    """CLI-level round trip: `dalorex broker` + `dalorex worker` subprocesses
    serve a `dalorex run --backend distributed` client byte-identically."""

    def _spawn(self, *args, **kwargs):
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            env=env, text=True, **kwargs,
        )

    def test_distributed_run_matches_inline_run(self, capsys, tmp_path):
        run_args = ["run", "--app", "bfs", "--dataset", "rmat16", "--width", "4",
                    "--scale", "0.1", "--engine", "analytic", "--json"]
        assert cli.dalorex_command(run_args) == 0
        inline_out = capsys.readouterr().out

        broker = self._spawn(
            "broker", "--port", "0",
            "--state-file", str(tmp_path / "state.json"),
            stdout=subprocess.PIPE,
        )
        worker = None
        try:
            banner = broker.stdout.readline().strip()
            address = banner.removeprefix("broker listening on ")
            assert ":" in address, banner
            worker = self._spawn("worker", "--connect", address,
                                 "--poll-interval", "0.05", "--quiet",
                                 stdout=subprocess.DEVNULL)
            assert cli.dalorex_command(
                run_args + ["--backend", "distributed", "--connect", address]
            ) == 0
            distributed_out = capsys.readouterr().out
        finally:
            from repro.runtime.distributed.protocol import parse_address, request

            try:
                request(parse_address(address), {"op": "shutdown"})
            except Exception:
                broker.kill()
            for process in (worker, broker):
                if process is None:
                    continue
                try:
                    process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    process.kill()
        assert distributed_out == inline_out


class TestWorkerCommand:
    """``dalorex worker`` against an in-process broker that is shutting down."""

    @pytest.mark.parametrize("quiet", [False, True], ids=["verbose", "quiet"])
    def test_exits_on_shutdown_and_prints_its_counters(self, capsys, quiet):
        from repro.runtime.distributed import Broker, BrokerServer, format_address

        broker = Broker()
        broker.shutdown()  # every lease now answers with the shutdown notice
        with BrokerServer(broker) as server:
            argv = ["worker", "--connect", format_address(server.address),
                    "--worker-id", "w9", "--poll-interval", "0.05"]
            assert cli.dalorex_command(argv + (["--quiet"] if quiet else [])) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = ("worker w9 exiting: 0 completed, 0 rejected, 0 errors "
                   "(0 leases, 0 uploads, 0 leaked heartbeats)")
        expected = [summary] if quiet else ["[w9] broker shut down; exiting", summary]
        assert lines == expected


class TestTraceCommand:
    """``dalorex trace FILE...`` merges every file into one span table."""

    def _write(self, path, spans):
        path.write_text("".join(
            json.dumps({"kind": "span", "name": name, "dur_s": dur, "pid": pid})
            + "\n"
            for name, dur, pid in spans
        ) + "torn line\n")
        return str(path)

    def test_files_merge_into_one_table_and_one_flat_json(self, capsys, tmp_path):
        first = self._write(tmp_path / "w0.jsonl",
                            [("worker.execute", 0.5, 1), ("worker.upload", 0.1, 1)])
        second = self._write(tmp_path / "w1.jsonl", [("worker.execute", 1.5, 2)])
        assert cli.dalorex_command(["trace", first, second]) == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].split() == [
            "span", "count", "total_s", "p50_s", "p99_s", "max_s"]
        assert table.splitlines()[2].split()[:3] == ["worker.execute", "2", "2.0000"]
        assert "all spans" in table
        assert cli.dalorex_command(["trace", first, second, "--json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert set(merged) == {"worker.execute", "worker.upload"}
        assert merged["worker.execute"]["count"] == 2
        assert merged["worker.execute"]["max_s"] == 1.5
        assert cli.dalorex_command(["trace", first, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["worker.execute"]["count"] == 1

    def test_missing_file_is_an_error(self, capsys, tmp_path):
        assert cli.dalorex_command(["trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_a_trace_without_spans_is_not_an_error(self, capsys, tmp_path):
        # A run with no span sites (e.g. the cycle engine alone) still traces.
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"kind": "event", "name": "lease.granted"}) + "\n")
        assert cli.dalorex_command(["trace", str(path)]) == 0
        assert capsys.readouterr().out == "no span records found\n"
        assert cli.dalorex_command(["trace", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {}


class TestExperimentsCommand:
    def test_textstats_only(self, capsys, tmp_path):
        output = tmp_path / "report.txt"
        exit_code = cli.experiments_command(
            ["textstats", "--scale", "0.05", "--output", str(output)]
        )
        assert exit_code == 0
        assert "Dalorex area" in capsys.readouterr().out
        assert output.read_text().startswith("== Text statistics")


class TestRunAllExperimentsScript:
    """End-to-end contract of scripts/run_all_experiments.py: parallel runs are
    byte-identical to serial ones, and a warm cache executes zero simulations."""

    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_experiments.py"

    def run_script(self, tmp_path, tag, extra):
        json_path = tmp_path / f"{tag}.json"
        report_path = tmp_path / f"{tag}.txt"
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--scale", "0.05", "--figures", "6",
             "--json", str(json_path), "--output", str(report_path)] + extra,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        stats_lines = [
            line for line in proc.stdout.splitlines() if line.startswith("[runtime]")
        ]
        assert len(stats_lines) == 1
        stats = dict(
            pair.split("=") for pair in stats_lines[0].split("]", 1)[1].split()
        )
        return json_path.read_bytes(), {k: int(v) for k, v in stats.items()}

    def test_parallel_bytes_identical_and_warm_cache_runs_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        serial_json, serial_stats = self.run_script(tmp_path, "serial", ["--jobs", "1"])
        assert serial_stats["executed"] > 0

        parallel_json, parallel_stats = self.run_script(
            tmp_path, "parallel", ["--jobs", "2", "--cache-dir", str(cache_dir)]
        )
        assert parallel_json == serial_json
        assert parallel_stats["executed"] == serial_stats["executed"]

        warm_json, warm_stats = self.run_script(
            tmp_path, "warm", ["--jobs", "2", "--cache-dir", str(cache_dir)]
        )
        assert warm_stats["executed"] == 0
        assert warm_stats["cache_hits"] == parallel_stats["executed"]
        assert warm_json == serial_json
