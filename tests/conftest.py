import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# single-core CI box: wall-clock deadlines are noise, disable them
settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("default")


@pytest.fixture
def scratch(tmp_path):
    d = tmp_path / "scratch"
    d.mkdir()
    return d


def assert_bit_equal(a: np.ndarray, b: np.ndarray):
    """Bit-level equality; plain == would call NaN != NaN."""
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def spawn_worker_proc(port: int, scratch, slots: int,
                      timeout_ms: int | None = None) -> subprocess.Popen:
    """A cluster worker in its own process, registering with the master on
    port; timeout_ms sets its network_timeout_ms, else the default."""
    timeout = "" if timeout_ms is None else f", network_timeout_ms={timeout_ms}"
    code = (
        "from scalemap.cluster import ClusterConfig, run_worker\n"
        f"cfg = ClusterConfig(host='127.0.0.1', port={port}, slots={slots}{timeout})\n"
        f"run_worker(cfg, {str(scratch)!r}, 1 << 30)\n"
    )
    return subprocess.Popen([sys.executable, "-c", code])
