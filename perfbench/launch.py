"""Starts one scalemap process under test for the benchmark runner.

    python3 perfbench/launch.py master --out FILE --workers N [--trace]
    python3 perfbench/launch.py worker --out FILE --port P --scratch DIR [--trace]
    python3 perfbench/launch.py probe  --out FILE --reject-every N [--trace]

With --trace the process installs the span wrappers before it builds the
scalemap object.  The master and the probe server print "port N" once they
listen; the master then prints "ready" once every worker has registered.
Each process runs until the runner shuts the cluster or server down, then
writes its peak RSS, its spans and, for the master, its stats to --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402  (perfbench/ is the script directory)

# far above a worker's share of the cluster-tasks dataset (6 MiB per stage)
WORKER_MEMORY_BUDGET = 256 << 20


def say(line: str):
    print(line, flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=["master", "worker", "probe"])
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--port", type=int, default=0)
    ap.add_argument("--scratch", default=None)
    ap.add_argument("--reject-every", type=int, default=0)
    args = ap.parse_args()

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer, args.role)

    from scalemap import cluster, netprobe

    out = {}
    if args.role == "master":
        master = cluster.Master(cluster.ClusterConfig(expected_workers=args.workers)).start()
        if args.trace:
            master.on_result = lambda res, wid: tracer.event("cluster.result", task=res.task_id)
        say(f"port {master.port}")

        def announce_ready():
            if master.wait_ready(60.0):
                say("ready")

        threading.Thread(target=announce_ready, daemon=True).start()
        master.wait_stopped()
        out["stats"] = dataclasses.asdict(master.stats)
    elif args.role == "worker":
        cfg = cluster.ClusterConfig(port=args.port, slots=1, registration_retries=10)
        cluster.run_worker(cfg, args.scratch, WORKER_MEMORY_BUDGET)
    else:
        policy = netprobe.FaultPolicy(reject_every=args.reject_every)
        server = netprobe.ProbeServer(fault_policy=policy).start()
        say(f"port {server.port}")
        server.wait_stopped()

    out["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
