"""Command-line interface: dispatch, exit codes, config precedence, artifacts."""

import json
import os
import select
import signal
import subprocess
import sys
import time

import pytest

from scalemap import cli
from scalemap.bench import read_records_jsonl
from scalemap.cli import (
    DESK_VECTORS_PER_UNIT,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    GlobalConfig,
    main,
    resolve_config,
)
from scalemap.cluster import Worker, send_shutdown
from scalemap.errors import ConfigError


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve_config(env={})
        assert cfg.memory_budget_bytes == 1 << 30
        assert cfg.vectors_per_unit == DESK_VECTORS_PER_UNIT
        assert cfg.log_level == "WARNING"
        assert cfg.seed == 42
        assert cfg.scratch_dir.endswith("scalemap")

    def test_config_file_beats_default(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"scratch_dir": "/tmp/a", "seed": 7}))
        cfg = resolve_config(config_file=str(f), env={})
        assert cfg.scratch_dir == "/tmp/a"
        assert cfg.seed == 7

    def test_env_beats_config_file(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"scratch_dir": "/tmp/a"}))
        cfg = resolve_config(config_file=str(f), env={"SCALEMAP_SCRATCH": "/tmp/b"})
        assert cfg.scratch_dir == "/tmp/b"

    def test_flag_beats_env(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"scratch_dir": "/tmp/a"}))
        cfg = resolve_config(flags={"scratch_dir": "/tmp/c"}, config_file=str(f),
                             env={"SCALEMAP_SCRATCH": "/tmp/b"})
        assert cfg.scratch_dir == "/tmp/c"

    def test_none_flags_do_not_override(self):
        cfg = resolve_config(flags={"scratch_dir": None},
                             env={"SCALEMAP_SCRATCH": "/tmp/env"})
        assert cfg.scratch_dir == "/tmp/env"

    def test_log_level_env(self):
        cfg = resolve_config(env={"SCALEMAP_LOG": "debug"})
        assert cfg.log_level == "DEBUG"

    def test_master_addr_env(self):
        cfg = resolve_config(env={"SCALEMAP_MASTER": "10.0.0.5:7000"})
        assert cfg.master_addr == "10.0.0.5:7000"

    def test_unknown_config_key_rejected(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"scrach_dir": "/tmp/typo"}))
        with pytest.raises(ConfigError):
            resolve_config(config_file=str(f), env={})

    def test_invalid_json_rejected(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text("{not json")
        with pytest.raises(ConfigError):
            resolve_config(config_file=str(f), env={})

    def test_missing_config_file_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(config_file="/nonexistent/cfg.json", env={})

    def test_bad_log_level_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(env={"SCALEMAP_LOG": "CHATTY"})

    @pytest.mark.parametrize("top", [["scratch_dir"], "scratch_dir", 5, None])
    def test_config_file_must_hold_an_object(self, tmp_path, top):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps(top))
        with pytest.raises(ConfigError, match="JSON object"):
            resolve_config(config_file=str(f), env={})

    @pytest.mark.parametrize("field", ["scratch_dir", "master_addr", "log_level"])
    @pytest.mark.parametrize("value", [5, ["a"], {"a": 1}, True])
    def test_non_string_text_field_rejected(self, tmp_path, field, value):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=field):
            resolve_config(config_file=str(f), env={})

    def test_non_integer_budget_rejected(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"memory_budget_bytes": "plenty"}))
        with pytest.raises(ConfigError):
            resolve_config(config_file=str(f), env={})


class TestDispatch:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert main(["bench", "--generate", "--blocks", "4", "--json", "x",
                     "--turbo"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["--help"], ["master", "--help"], ["worker", "--help"], ["bench", "--help"],
        ["sweep", "--help"], ["netprobe", "--help"], ["netprobe", "serve", "--help"],
        ["netprobe", "connections", "--help"], ["netprobe", "throughput", "--help"],
        ["analyze", "--help"],
    ])
    def test_help_everywhere(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert "usage" in capsys.readouterr().out.lower()

    def test_runtime_error_is_exit_1_with_parseable_line(self, tmp_path, capsys):
        rc = main(["analyze", "--input", str(tmp_path / "missing.jsonl"),
                   "--mode", "strong", "--stage", "total", "--units", "nodes",
                   "--csv", str(tmp_path / "out.csv")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err.strip()
        parsed = json.loads(err)
        assert "missing.jsonl" in parsed["message"]
        assert parsed["error"]

    @pytest.mark.parametrize("argv", [
        ["master", "--port", "70000", "--workers", "1", "--host", "127.0.0.1"],
        ["worker", "--master", "127.0.0.1:70000"],
        ["netprobe", "serve", "--port", "70000"],
        ["netprobe", "connections", "--server", "127.0.0.1:70000", "--k", "1",
         "--json", "unused.json"],
    ], ids=["master", "worker", "netprobe-serve", "netprobe-connections"])
    def test_port_outside_u16_exits_1_with_one_json_line(self, argv, capsys):
        assert main(argv) == EXIT_RUNTIME
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert out == "" and json.loads(line)["error"] == "ConfigError"

    def test_delta_parse_failure_is_usage(self):
        assert main(["bench", "--generate", "--blocks", "4", "--json", "x",
                     "--delta", "1,2"]) == EXIT_USAGE

    def test_generate_and_load_are_exclusive(self, tmp_path):
        assert main(["bench", "--generate", "--load", str(tmp_path),
                     "--blocks", "4", "--json", "x"]) == EXIT_USAGE


def bench_args(tmp_path, json_name="run.json", **over):
    d = {"blocks": "6", "block_size": "1", "nodes": "1", "cores": "2", "nparts": "1",
         "vectors-per-unit": "64", "seed": "11"}
    d.update(over)
    argv = ["--scratch", str(tmp_path / "scratch"), "bench", "--generate",
            "--json", str(tmp_path / json_name)]
    for k, v in d.items():
        argv += [f"--{k}", v]
    return argv


class TestBenchCommand:
    def test_writes_record_and_summary(self, tmp_path, capsys):
        assert main(bench_args(tmp_path)) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["result"] is not None
        recs = read_records_jsonl(tmp_path / "run.json")
        assert len(recs) == 1
        assert recs[0].params.blocks == 6
        assert recs[0].mode == "local"

    def test_identical_argv_identical_payload(self, tmp_path):
        assert main(bench_args(tmp_path, "a.json")) == EXIT_OK
        assert main(bench_args(tmp_path, "b.json")) == EXIT_OK
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        for volatile in ("timings", "timestamp"):
            a.pop(volatile), b.pop(volatile)
        assert a == b

    def test_delta_flag_shifts_result(self, tmp_path, capsys):
        assert main(bench_args(tmp_path, "a.json")) == EXIT_OK
        base = json.loads(capsys.readouterr().out)["result"]
        assert main(bench_args(tmp_path, "b.json", delta="1,2,3")) == EXIT_OK
        shifted = json.loads(capsys.readouterr().out)["result"]
        for i, d in enumerate((1.0, 2.0, 3.0)):
            assert shifted[i] == pytest.approx(base[i] + d, rel=1e-12)

    def test_skip_reduce_null_result(self, tmp_path, capsys):
        argv = bench_args(tmp_path)
        argv.insert(argv.index("--generate") + 1, "--skip-reduce")
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["result"] is None

    def test_load_mode_round_trip(self, tmp_path, capsys):
        from scalemap.core import RecordCodec, encode_vectors, generate_vectors
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for b in range(6):
            (data_dir / f"block-{b:04d}.bin").write_bytes(
                encode_vectors(generate_vectors(11, b, 64), RecordCodec(24)))
        assert main(bench_args(tmp_path, "gen.json")) == EXIT_OK
        gen = json.loads(capsys.readouterr().out)["result"]
        argv = ["--scratch", str(tmp_path / "scratch"), "bench",
                "--load", str(data_dir), "--record-bytes", "24",
                "--blocks", "6", "--cores", "2", "--vectors-per-unit", "64",
                "--json", str(tmp_path / "load.json")]
        assert main(argv) == EXIT_OK
        loaded = json.loads(capsys.readouterr().out)["result"]
        assert loaded == gen

    def test_invalid_params_exit_1(self, tmp_path, capsys):
        rc = main(bench_args(tmp_path, blocks="0"))
        assert rc == EXIT_RUNTIME
        assert json.loads(capsys.readouterr().err.strip())["error"]


class TestSweepAndAnalyze:
    def sweep(self, tmp_path, mode="strong", json_name="runs.jsonl"):
        return ["--scratch", str(tmp_path / "scratch"), "sweep", "--generate",
                "--mode", mode, "--node-counts", "1,2,4", "--blocks", "8",
                "--cores", "1", "--vectors-per-unit", "32", "--reps", "2",
                "--json", str(tmp_path / json_name)]

    def test_sweep_then_analyze_csv(self, tmp_path, capsys):
        assert main(self.sweep(tmp_path)) == EXIT_OK
        capsys.readouterr()
        records = read_records_jsonl(tmp_path / "runs.jsonl")
        assert len(records) == 6  # 3 node counts x 2 reps
        assert all(r.params.blocks == 8 for r in records)

        csv_path = tmp_path / "plot.csv"
        rc = main(["analyze", "--input", str(tmp_path / "runs.jsonl"),
                   "--mode", "strong", "--stage", "total", "--units", "nodes",
                   "--csv", str(csv_path)])
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["points"] == 3
        assert summary["base_units"] == 1
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "units,median_time_s,speedup,efficiency,ideal_time_s"
        assert len(lines) == 4

    def test_weak_sweep_grows_blocks(self, tmp_path):
        assert main(self.sweep(tmp_path, mode="weak")) == EXIT_OK
        records = read_records_jsonl(tmp_path / "runs.jsonl")
        blocks_by_nodes = {r.params.nodes: r.params.blocks for r in records}
        assert blocks_by_nodes == {1: 8, 2: 16, 4: 32}

    def test_analyze_log_columns(self, tmp_path, capsys):
        assert main(self.sweep(tmp_path)) == EXIT_OK
        csv_path = tmp_path / "plot.csv"
        assert main(["analyze", "--input", str(tmp_path / "runs.jsonl"),
                     "--mode", "strong", "--stage", "map", "--units", "cores",
                     "--csv", str(csv_path), "--log"]) == EXIT_OK
        header = csv_path.read_text().split("\n")[0]
        assert header.endswith("log2_units,log2_median_time_s,log2_ideal_time_s")

    def test_wrong_mode_is_runtime_error(self, tmp_path, capsys):
        assert main(self.sweep(tmp_path)) == EXIT_OK
        rc = main(["analyze", "--input", str(tmp_path / "runs.jsonl"),
                   "--mode", "weak", "--stage", "total", "--units", "nodes",
                   "--csv", str(tmp_path / "x.csv")])
        assert rc == EXIT_RUNTIME
        assert json.loads(capsys.readouterr().err.strip())["error"] == "MixedModes"

    def test_weak_sweep_over_block_files_exits_before_any_run(self, tmp_path, capsys):
        from scalemap.core import RecordCodec, encode_vectors, generate_vectors
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for b in range(2):
            (data_dir / f"block-{b:04d}.bin").write_bytes(
                encode_vectors(generate_vectors(3, b, 32), RecordCodec(24)))
        argv = ["--scratch", str(tmp_path / "scratch"), "sweep", "--load", str(data_dir),
                "--mode", "weak", "--node-counts", "1,2", "--blocks", "2",
                "--vectors-per-unit", "32", "--json", str(tmp_path / "runs.jsonl")]
        assert main(argv) == EXIT_RUNTIME
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert not (tmp_path / "runs.jsonl").exists()

    def test_descending_node_counts_rejected(self, tmp_path, capsys):
        argv = self.sweep(tmp_path)
        argv[argv.index("1,2,4")] = "4,2,1"
        assert main(argv) == EXIT_RUNTIME


class TestWorkerUsage:
    def test_worker_without_master_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.delenv("SCALEMAP_MASTER", raising=False)
        assert main(["worker", "--slots", "2"]) == EXIT_USAGE
        parsed = json.loads(capsys.readouterr().err.strip())
        assert parsed["error"] == "UsageError"

    @pytest.mark.parametrize("slots", ["0", "-1", "65536"])
    def test_slots_out_of_range_is_usage_error_before_connecting(self, slots, monkeypatch,
                                                                 capsys):
        def connect(self):
            raise AssertionError("worker connected")

        monkeypatch.setattr(Worker, "_connect", connect)
        assert main(["worker", "--master", "127.0.0.1:7077", "--slots", slots]) == EXIT_USAGE
        parsed = json.loads(capsys.readouterr().err.strip())
        assert parsed["error"] == "UsageError" and "--slots" in parsed["message"]


def read_json_line(proc, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        remaining = max(deadline - time.monotonic(), 0.01)
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            if line.strip():
                return json.loads(line)
    raise TimeoutError("no stdout line from subprocess")


def spawn(argv, tmp_path):
    env = dict(os.environ)
    env["SCALEMAP_SCRATCH"] = str(tmp_path / "scratch")
    return subprocess.Popen([sys.executable, "-m", "scalemap", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, env=env)


class TestNetprobeCLI:
    def test_serve_probe_shutdown_cycle(self, tmp_path, capsys):
        proc = spawn(["netprobe", "serve", "--port", "0", "--reject-every", "5"],
                     tmp_path)
        try:
            port = read_json_line(proc)["port"]
            out_json = tmp_path / "conn.json"
            rc = main(["netprobe", "connections", "--server", f"127.0.0.1:{port}",
                       "--k", "20", "--concurrency", "4",
                       "--json", str(out_json)])
            assert rc == EXIT_OK
            report = json.loads(out_json.read_text())
            assert report["connections_established"] == 16
            assert report["failures"] == 4
            summary = json.loads(capsys.readouterr().out)
            assert summary["failures"] == 4

            tp_json = tmp_path / "tp.json"
            rc = main(["netprobe", "throughput", "--server", f"127.0.0.1:{port}",
                       "--seconds", "0.2", "--payload-bytes", "8192",
                       "--json", str(tp_json)])
            assert rc == EXIT_OK
            tp = json.loads(tp_json.read_text())
            assert tp["throughput_bytes_per_s"] > 0
            assert tp["bytes_sent"] == tp["bytes_acked"]
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            proc.stdout.close()

    def test_connections_against_dead_server_exit_1(self, tmp_path, capsys):
        rc = main(["netprobe", "connections", "--server", "127.0.0.1:9",
                   "--k", "2", "--json", str(tmp_path / "x.json")])
        assert rc == EXIT_RUNTIME
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ServerUnreachable"


class TestClusterCLI:
    def test_master_and_worker_take_the_timeout_from_one_config(self, tmp_path, monkeypatch):
        # the worker beats each quarter of its timeout, and the master loses
        # a worker after a timeout of silence: the two must agree
        seen = []

        class Role:
            port = 0

            def __init__(self, ccfg, *args, **kwargs):
                seen.append(ccfg.network_timeout_ms)

            def start(self):
                return self

            def wait_stopped(self):
                pass

            run = shutdown = stop = wait_stopped

        monkeypatch.setattr(cli, "Master", Role)
        monkeypatch.setattr(cli, "Worker", Role)
        monkeypatch.setattr(cli, "_install_stop_handler", lambda stop_fn: None)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"network_timeout_ms": 4321}))
        master = ["master", "--port", "0", "--workers", "1"]
        worker = ["worker", "--master", "127.0.0.1:7077"]
        assert main(["--config", str(conf), *master]) == EXIT_OK
        assert main(["--config", str(conf), *worker]) == EXIT_OK
        assert seen == [4321, 4321]
        assert main([*master, "--timeout-ms", "1000"]) == EXIT_USAGE
        assert main([*worker, "--heartbeat-ms", "100"]) == EXIT_USAGE

    def test_master_with_a_nonpositive_timeout_exits_1(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"network_timeout_ms": 0}))
        proc = subprocess.run(
            [sys.executable, "-m", "scalemap", "--config", str(conf), "master",
             "--port", "0", "--workers", "1", "--host", "127.0.0.1"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "SCALEMAP_SCRATCH": str(tmp_path / "scratch")})
        assert proc.returncode == EXIT_RUNTIME and proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "ConfigError"

    def test_master_worker_bench_round_trip(self, tmp_path, capsys):
        master = spawn(["master", "--port", "0", "--workers", "1",
                        "--host", "127.0.0.1"], tmp_path)
        worker = None
        try:
            port = read_json_line(master)["port"]
            worker = spawn(["worker", "--master", f"127.0.0.1:{port}",
                            "--slots", "2"], tmp_path)
            argv = bench_args(tmp_path, "cluster.json", cores="2")
            argv += ["--master", f"127.0.0.1:{port}"]
            assert main(argv) == EXIT_OK
            cluster_rec = read_records_jsonl(tmp_path / "cluster.json")[0]
            assert cluster_rec.mode == "cluster"
            capsys.readouterr()

            assert main(bench_args(tmp_path, "local.json", cores="2")) == EXIT_OK
            local_rec = read_records_jsonl(tmp_path / "local.json")[0]
            assert cluster_rec.result == local_rec.result
        finally:
            send_shutdown(("127.0.0.1", port))
            assert master.wait(timeout=10) == 0
            master.stdout.close()
            if worker is not None:
                assert worker.wait(timeout=10) == 0
                worker.stdout.close()
