"""Which processes load numpy.

The master, the probe server and the probe clients never touch an array, so
they start without numpy; a process that computes (a worker, a local run)
loads it up front, before its first job.  Each case runs in a fresh
interpreter, whose sys.modules shows what its imports pulled in.
"""

import subprocess
import sys
import threading

import pytest

from scalemap.bench import run_pipeline
from scalemap.cluster import ClusterConfig, Worker, send_shutdown, submit
from scalemap.core import BenchmarkParams, Vec3
from scalemap.job import StorageLevel, make_pipeline_spec

REPORT = "\nprint('numpy' in sys.modules)\n"


def loads_numpy(code: str) -> bool:
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code + REPORT],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return {"True": True, "False": False}[out.stdout.split()[-1]]


@pytest.mark.parametrize("code", [
    "from scalemap import cluster, netprobe",
    "import scalemap.cli\nscalemap.cli.build_parser()",
], ids=["cluster-netprobe", "cli-parser"])
def test_master_and_probe_code_loads_no_numpy(code):
    assert not loads_numpy(code)


@pytest.mark.parametrize("code", [
    "import scalemap.bench",
    "import scalemap.engine",
    "from scalemap import cluster\n"
    "assert 'numpy' not in sys.modules\n"
    "cluster.Worker(cluster.ClusterConfig(), {scratch!r}, 1 << 20)",
], ids=["bench", "engine", "worker"])
def test_compute_code_loads_numpy_up_front(code, tmp_path):
    assert loads_numpy(code.format(scratch=str(tmp_path)))


def test_master_serves_a_job_without_numpy(tmp_path):
    code = ("import sys\n"
            "from scalemap.cluster import ClusterConfig, Master\n"
            "master = Master(ClusterConfig(expected_workers=1)).start()\n"
            "print(master.port, flush=True)\n"
            "master.wait_stopped()" + REPORT)
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    try:
        port = int(proc.stdout.readline())
        worker = Worker(ClusterConfig(port=port), tmp_path / "w", 1 << 30)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2,
                                 shift_delta=Vec3(1.0, 2.0, 3.0))
        job = submit(("127.0.0.1", port), make_pipeline_spec(params, StorageLevel.MEMORY_ONLY),
                     timeout_s=60.0)
        local = run_pipeline(params, scratch=tmp_path / "local")
        assert job.result == local.result
        send_shutdown(("127.0.0.1", port))
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert proc.stdout.read().split() == ["False"]
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
