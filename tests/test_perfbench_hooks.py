"""The benchmark's tracer and launcher reach into scalemap by name.

perfbench/tracer.py wraps module functions and methods found with getattr,
and perfbench/launch.py drives the cluster and netprobe APIs, so renaming
any of those names would break only the benchmark run.  These tests install
the tracer for each process role and drive the wrapped calls once, each role
in its own interpreter so that the patches never reach this test session,
and run the launcher's probe server the way the netprobe workload does.
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from scalemap import cluster
from scalemap.netprobe import probe_connections

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import collections, json, sys
role, scratch = sys.argv[1], sys.argv[2]
import tracer as tracing
t = tracing.Tracer()
tracing.install(t, role)
from scalemap import bench, cluster, engine
from scalemap.core import BenchmarkParams, Vec3


class Sink:
    def sendall(self, data):
        pass


params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2, shift_delta=Vec3(1, 2, 3))
if role == "runner":
    bench.run_pipeline(params, scratch=scratch, memory_budget=params.total_bytes // 4,
                       storage=engine.StorageLevel.MEMORY_AND_DISK)
elif role == "master":
    cluster.send_message(Sink(), cluster.TaskRun(0, 0, cluster.ACTION_FORCE, ((7, 0),), "{}"))
elif role == "worker":
    w = cluster.Worker(cluster.ClusterConfig(), scratch, 1 << 20)
    w._sock = Sink()
    spec = bench.make_pipeline_spec(params, engine.StorageLevel.MEMORY_ONLY)
    w._open_job(0, json.dumps(spec))
    w._run_tasks(cluster.TaskRun(0, 0, cluster.ACTION_PARTIAL_REDUCE, ((7, 0),)))
    # a cold create run of 8 small partitions, in a second job
    many = params.replaced(blocks=16, nparts=4)
    w._open_job(1, json.dumps(bench.make_pipeline_spec(many, engine.StorageLevel.MEMORY_ONLY)))
    first = len(t.spans)
    w._run_tasks(cluster.TaskRun(1, 0, cluster.ACTION_FORCE,
                                 tuple((p, p) for p in range(many.partitions))))
    counts = collections.Counter(s[1] for s in t.spans[first:])
    # a reduce run of the same 8 small partitions
    first = len(t.spans)
    w._run_tasks(cluster.TaskRun(1, 1, cluster.ACTION_PARTIAL_REDUCE,
                                 tuple((100 + p, p) for p in range(many.partitions))))
    reduce_counts = collections.Counter(s[1] for s in t.spans[first:])
    w.engine.close()
else:
    cluster.send_frame(Sink(), cluster.MessageTag.DATA, b"x")
if role == "worker":
    print(json.dumps(counts))
    print(json.dumps(reduce_counts))
print(json.dumps(sorted({(s[1], tuple(sorted(s[7] or ()))) for s in t.spans})))
"""

EXPECTED = {
    "runner": {
        ("core.generate", ("bytes",)), ("core.encode", ("bytes",)),
        ("core.decode", ("bytes",)), ("engine.checksum", ("bytes",)),
        ("engine.fold", ()), ("engine.materialize", ()),
        ("engine.cache_get", ("hit",)), ("engine.cache_insert", ()),
        ("engine.force", ("slots",)), ("engine.reduce", ("slots",)),
        ("engine.close", ("counters",)),
    },
    "master": {("wire.send_frame", ("bytes",)), ("cluster.send_message", ())},
    "worker": {
        ("core.generate", ("bytes",)), ("engine.fold", ()),
        ("engine.materialize", ()), ("wire.send_frame", ("bytes",)),
        ("cluster.worker_task", ("counters", "task")), ("engine.close", ("counters",)),
    },
    "probe": {("wire.send_frame", ("bytes",))},
}


def traced_lines(role, tmp_path) -> list:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", SCRIPT, role, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()]


def traced_spans(role, tmp_path) -> set:
    return {(name, tuple(attrs)) for name, attrs in traced_lines(role, tmp_path)[-1]}


@pytest.mark.parametrize("role", sorted(EXPECTED))
def test_tracer_installs_and_records(role, tmp_path):
    assert EXPECTED[role] <= traced_spans(role, tmp_path)


def test_worker_traces_every_task_of_a_grouped_create_run(tmp_path):
    # the engine generates the run's 8 partitions together, and each task
    # still records its own materialize and worker_task spans
    counts = traced_lines("worker", tmp_path)[0]
    assert counts["engine.materialize"] == counts["cluster.worker_task"] == 8
    assert 1 <= counts["core.generate"] < 8


def test_worker_traces_every_task_of_a_tiled_reduce_run(tmp_path):
    # the engine folds the run's 8 small partitions a tile at a time, and
    # each task still records its own worker_task span
    counts = traced_lines("worker", tmp_path)[1]
    assert counts["cluster.worker_task"] == 8
    assert 1 <= counts["engine.fold"] < 8


@pytest.mark.xfail(strict=True, reason="the master's send_message seam records task ids "
                   "only for Task messages, and the master sends TaskRuns (the tracer "
                   "item in ROADMAP.md and its FOUND line in CHANGES.md)")
def test_master_seam_records_the_task_ids_of_a_run(tmp_path):
    assert ("cluster.send_message", ("task",)) in traced_spans("master", tmp_path)


def test_launcher_names_exist():
    # the two configs perfbench/launch.py builds, for its master and its workers
    cluster.ClusterConfig(expected_workers=2)
    cluster.ClusterConfig(port=7077, slots=1, registration_retries=10)
    master = cluster.Master(cluster.ClusterConfig())
    assert master.on_result is None
    assert {"rescheduled", "heartbeats", "worker_errors", "workers_lost"} <= set(
        cluster.MasterStats.__dataclass_fields__)
    assert callable(cluster.run_worker) and callable(cluster.send_shutdown)


def test_probe_launcher_serves_a_storm_until_shutdown(tmp_path):
    out = tmp_path / "probe.json"
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), "probe", "--out", str(out),
         "--reject-every", "10"], stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        assert line.startswith("port "), line
        addr = ("127.0.0.1", int(line.split()[1]))
        assert probe_connections(addr, k=20, concurrency=4).failures == 2
        # the 21st connection is off the reject schedule, so SHUTDOWN is read
        with socket.create_connection(addr, timeout=10.0) as sock:
            cluster.send_message(sock, cluster.Shutdown())
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["maxrss_mib"] > 0 and written["spans"] == []
