"""The benchmark's tracer and launcher reach into scalemap by name.

perfbench/tracer.py wraps module functions and methods found with getattr,
and perfbench/launch.py drives the cluster API, so renaming any of those
names would break only the traced benchmark run.  These tests install the
tracer for each process role and drive the wrapped calls once, each role in
its own interpreter so that the patches never reach this test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scalemap import cluster

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys
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
    cluster.send_message(Sink(), cluster.Task(7, 0, cluster.ACTION_FORCE, "{}"))
elif role == "worker":
    w = cluster.Worker(cluster.ClusterConfig(), scratch, 1 << 20)
    w._sock = Sink()
    spec = bench.make_pipeline_spec(params, engine.StorageLevel.MEMORY_ONLY)
    task = cluster.Task(7, 0, cluster.ACTION_PARTIAL_REDUCE, json.dumps(spec))
    w._open_job(task)
    w._execute(task)
    w.engine.close()
else:
    cluster.send_frame(Sink(), cluster.MessageTag.DATA, b"x")
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
    "master": {("wire.send_frame", ("bytes",)), ("cluster.send_message", ("task",))},
    "worker": {
        ("core.generate", ("bytes",)), ("engine.fold", ()),
        ("engine.materialize", ()), ("wire.send_frame", ("bytes",)),
        ("cluster.worker_task", ("counters", "task")), ("engine.close", ("counters",)),
    },
    "probe": {("wire.send_frame", ("bytes",))},
}


@pytest.mark.parametrize("role", sorted(EXPECTED))
def test_tracer_installs_and_records(role, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", SCRIPT, role, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    spans = {(name, tuple(attrs)) for name, attrs in json.loads(out.stdout)}
    assert EXPECTED[role] <= spans


def test_launcher_names_exist():
    master = cluster.Master(cluster.ClusterConfig())
    assert master.on_result is None
    assert {"rescheduled", "heartbeats", "worker_errors", "workers_lost"} <= set(
        cluster.MasterStats.__dataclass_fields__)
    assert callable(cluster.run_worker) and callable(cluster.send_shutdown)
