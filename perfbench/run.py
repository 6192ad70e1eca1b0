"""Benchmark of scalemap: the generate -> shift -> average pipeline and its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a scalemap checkout; the package is imported from
src/.  Every workload is a closed loop: the next job starts when the last
one has returned, until --seconds have passed (at least one job).  Inputs
come from --seed only.  Every job's result is checked bit for bit against a
reference mean the benchmark computes itself, outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop for
half the time untraced and half traced (see tracer.py) and prints the
per-layer metrics.  The last line of stdout is the result object; progress
goes to stderr.  See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import select
import shutil
import socket
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing  # perfbench/ is the script directory

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
TMP_ROOT = ROOT / ".perfbench-tmp"

MIB = float(1 << 20)
DELTA = (0.5, 0.5, 0.5)
SETUP_REPEATS = 7
# jobs a local process runs back to back before its garbage is collected,
# like one `scalemap sweep --reps 4`; bounds the RSS the leaked caches reach
SWEEP_REPS = 4
STORM_CONNECTIONS = 2000
STORM_CONCURRENCY = 2
REJECT_EVERY = 10
STREAM_SECONDS = 2.0
STREAM_FRAME_BYTES = 64 << 10
STORMS_PER_PHASE = 3

END_TO_END = {
    "setup_s": "s", "create_s": "s", "map_s": "s", "reduce_s": "s", "total_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "core.generate_s": "s", "core.generate_mib": "MiB",
    "core.decode_s": "s", "core.decode_mib": "MiB", "core.encode_s": "s",
    "engine.checksum_s": "s", "engine.checksum_mib": "MiB",
    "engine.cache_insert_self_s": "s", "engine.cache_get_s": "s",
    "engine.fold_s": "s", "engine.materialize_self_s": "s", "engine.pool_uncovered_s": "s",
    "engine.evictions": "count", "engine.spill_writes": "count",
    "engine.spill_reads": "count", "engine.spill_corrupt": "count",
    "engine.partitions_computed": "count", "engine.generate_calls": "count",
    "engine.file_loads": "count", "engine.cache_hit_ratio": "ratio",
    "bench.overhead_s": "s", "bench.rss_retained_mib": "MiB",
    "cluster.tasks": "count", "cluster.task_rtt_ms_p50": "ms", "cluster.task_rtt_ms_p99": "ms",
    "cluster.worker_task_ms_p50": "ms", "cluster.wire_queue_ms_p50": "ms",
    "cluster.frames": "count", "cluster.wire_mib": "MiB", "cluster.rescheduled": "count",
    "cluster.generate_per_block": "ratio", "cluster.warm_rep_recomputed_ratio": "ratio",
    "netprobe.conn_rate_per_s": "1/s", "netprobe.rtt_p50_ms": "ms",
    "netprobe.rtt_p99_ms": "ms", "netprobe.stream_mib_s": "MiB/s",
    "netprobe.injected_rejects": "count", "netprobe.ack_ratio": "ratio",
    "netprobe.send_frame_s": "s",
    "trace.overhead_ratio": "ratio",
}
ENGINE_COUNTERS = ("evictions", "spill_writes", "spill_reads", "spill_corrupt",
                   "partitions_computed", "generate_calls", "file_loads")


def log(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def rss_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS missing from /proc/self/status")


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dataset_seed(workload: str, seed: int) -> int:
    """The 64-bit dataset seed scalemap receives, derived from the workload
    seed, so that the program never sees the benchmark's own argument."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def bits(vec) -> bytes:
    return struct.pack("<3d", *vec)


# ---- run state and child processes ------------------------------------------

@dataclass
class Proc:
    popen: subprocess.Popen
    out: Path
    log: Path


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    tmp: Path
    attempted: int = 0
    failed: int = 0
    tracer: object = None
    procs: list = field(default_factory=list)
    _names: itertools.count = field(default_factory=itertools.count)

    def fail(self, why: str):
        self.failed += 1
        log(f"FAILED: {why}")

    def phases(self):
        """(traced, seconds) for each measured phase of this run."""
        if not self.trace:
            return [(False, self.seconds)]
        return [(False, self.seconds / 2), (True, self.seconds / 2)]

    def start_tracing(self):
        if self.tracer is None:
            self.tracer = tracing.Tracer()
            tracing.install(self.tracer, "runner")

    def spawn(self, role: str, traced: bool, *args: str) -> Proc:
        n = next(self._names)
        out = self.tmp / f"{role}-{n}.json"
        logf = self.tmp / f"{role}-{n}.log"
        cmd = [sys.executable, str(HERE / "launch.py"), role, "--out", str(out), *args]
        if traced:
            cmd.append("--trace")
        with open(logf, "wb") as err:
            popen = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                     stdin=subprocess.DEVNULL, cwd=ROOT, bufsize=0)
        proc = Proc(popen, out, logf)
        self.procs.append(proc)
        return proc

    def stop_all(self):
        for proc in self.procs:
            if proc.popen.poll() is None:
                proc.popen.kill()
            proc.popen.wait()
            proc.popen.stdout.close()


def read_line(proc: Proc, timeout_s: float = 60.0) -> str:
    deadline = time.monotonic() + timeout_s
    buf = b""
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([proc.popen.stdout], [], [], left)[0]:
            raise RuntimeError(f"no output from {proc.out.stem} within {timeout_s} s")
        ch = proc.popen.stdout.read(1)
        if not ch:
            tail = proc.log.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"{proc.out.stem} exited early:\n{tail}")
        buf += ch
    return buf.decode().strip()


def finish(proc: Proc, timeout_s: float = 30.0) -> dict:
    """Waits for a process asked to stop and returns what it wrote at exit."""
    try:
        proc.popen.wait(timeout_s)
    except subprocess.TimeoutExpired:
        proc.popen.kill()
        proc.popen.wait()
        raise RuntimeError(f"{proc.out.stem} did not stop within {timeout_s} s")
    if not proc.out.exists():
        tail = proc.log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{proc.out.stem} wrote no result:\n{tail}")
    return json.loads(proc.out.read_text())


def closed_loop(seconds: float, job):
    """Runs job() back to back until `seconds` have passed; at least once."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        job(i)
        i += 1
        if time.perf_counter() >= deadline:
            return


# ---- correctness reference -------------------------------------------------

def reference_mean(params, block_vectors) -> tuple:
    """The mean the engine must return, computed by the benchmark itself.

    Blocks go round-robin to partitions; each partition's shifted records
    are folded in record order over the whole partition, the partial sums
    are combined in ascending partition order, and the division comes last.
    np.add.accumulate evaluates r[i] = r[i-1] + a[i], a sequential fold.
    """
    import numpy as np

    delta = np.array(DELTA, dtype=np.float64)
    total = np.zeros(3, dtype=np.float64)
    count = 0
    parts = params.partitions
    for p in range(parts):
        blocks = [block_vectors(b) for b in range(p, params.blocks, parts)]
        rows = np.concatenate(blocks) + delta
        total = total + np.add.accumulate(rows, axis=0)[-1]
        count += rows.shape[0]
    mean = total / count
    return (float(mean[0]), float(mean[1]), float(mean[2]))


def skipped_stage(rec, params) -> str | None:
    """Why a finished job does not count: a stage that did not compute every
    partition itself.  None if both did."""
    for stage in ("create", "map"):
        got = rec.timings.counters.get(stage, {}).get("recomputed")
        if got != params.partitions:
            return f"{stage} recomputed {got} of {params.partitions} partitions"
    return None


def check_means(run: "Run", recs: dict, expected):
    """Counts every measured job whose mean differs in any bit from the
    reference.  Runs after the measured loop, so that computing the
    reference leaves the measured process's allocator as users have it."""
    for rec in recs[False] + recs[True]:
        if rec.result is None or bits(rec.result.as_tuple()) != bits(expected):
            run.fail(f"mean {rec.result} differs from the reference {expected}")


# ---- per-layer metrics -----------------------------------------------------

def layer_metrics(spans, counters=None) -> dict:
    """Per-layer values of one job from its spans (all processes)."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    m["core.generate_s"] = tracing.busy(spans, "core.generate")
    m["core.generate_mib"] = tracing.total_bytes(spans, "core.generate") / MIB
    m["core.decode_s"] = tracing.busy(spans, "core.decode")
    m["core.decode_mib"] = tracing.total_bytes(spans, "core.decode") / MIB
    m["core.encode_s"] = tracing.busy(spans, "core.encode")
    m["engine.checksum_s"] = tracing.busy(spans, "engine.checksum")
    m["engine.checksum_mib"] = tracing.total_bytes(spans, "engine.checksum") / MIB
    m["engine.cache_insert_self_s"] = tracing.self_time(spans, "engine.cache_insert")
    m["engine.cache_get_s"] = tracing.busy(spans, "engine.cache_get")
    m["engine.fold_s"] = tracing.busy(spans, "engine.fold")
    m["engine.materialize_self_s"] = tracing.self_time(spans, "engine.materialize")
    m["engine.pool_uncovered_s"] = tracing.pool_uncovered(spans)
    m["engine.cache_hit_ratio"] = tracing.hit_ratio(spans)
    if counters is None:
        counters = [s.attrs["counters"] for s in spans if s.name == "engine.close"]
    for name in ENGINE_COUNTERS:
        m[f"engine.{name}"] = float(sum(c[name] for c in counters))
    sends = [s for s in spans if s.name == "wire.send_frame"]
    m["cluster.frames"] = float(len(sends))
    m["cluster.wire_mib"] = sum(s.attrs["bytes"] for s in sends) / MIB
    return m


def median_metrics(per_job: list[dict]) -> dict:
    return {k: tracing.median([m[k] for m in per_job]) for k in PER_LAYER}


def totals_of(recs: dict) -> dict:
    return {traced: [r.timings.total_s for r in rs] for traced, rs in recs.items()}


def stage_medians(recs) -> dict:
    return {k: tracing.median([getattr(r.timings, k) for r in recs])
            for k in ("create_s", "map_s", "reduce_s", "total_s")}


# ---- local pipeline workloads ------------------------------------------------

def run_local(run: Run, params, job_kwargs: dict, setup_times) -> tuple:
    """Closed loop of run_pipeline calls in this process.

    Jobs run in sweeps of SWEEP_REPS with no collection in between, so each
    job's leaked cache stays resident as it does for `scalemap sweep`.
    """
    from scalemap.bench import run_pipeline

    recs = {False: [], True: []}
    per_job = []
    for traced, seconds in run.phases():
        if traced:
            gc.collect()
            run.start_tracing()

        def job(i):
            if i and i % SWEEP_REPS == 0:
                gc.collect()
            run.attempted += 1
            if traced:
                run.tracer.job = i
            before = rss_mib()
            t0 = time.perf_counter()
            try:
                rec = run_pipeline(params, **job_kwargs)
            except Exception as e:  # noqa: BLE001 - a failed job is counted, not fatal
                run.fail(f"job {i}: {type(e).__name__}: {e}")
                return
            wall = time.perf_counter() - t0
            retained = rss_mib() - before
            err = skipped_stage(rec, params)
            if err:
                run.fail(f"job {i}: {err}")
                return
            recs[traced].append(rec)
            if traced:
                run.tracer.job = None
                spans = tracing.as_spans([s for s in run.tracer.spans if s[6] == i], "runner")
                m = layer_metrics(spans)
                m["bench.overhead_s"] = wall - rec.timings.total_s
                m["bench.rss_retained_mib"] = retained
                per_job.append(m)
                run.tracer.spans.clear()

        closed_loop(seconds, job)
    e2e = {"setup_s": tracing.median(setup_times), **stage_medians(recs[False]),
           "peak_rss_mib": self_peak_rss_mib()}
    return e2e, recs, per_job


def gen_memory(run: Run):
    from scalemap.core import BenchmarkParams, Vec3, generate_vectors

    params = BenchmarkParams(blocks=64, block_size_units=16, vectors_per_unit=4096,
                             cores=2, nparts=1, seed=run.seed, shift_delta=Vec3(*DELTA))
    setup = [fresh_import_s() for _ in range(SETUP_REPEATS)]
    e2e, recs, per_job = run_local(
        run, params, {"memory_budget": 1 << 30, "scratch": str(run.tmp)}, setup)
    check_means(run, recs, reference_mean(
        params, lambda b: generate_vectors(params.seed, b, params.vectors_per_block)))
    return e2e, totals_of(recs), per_job


def fresh_import_s() -> float:
    """Wall time of a fresh interpreter importing scalemap: what a CLI run
    pays before its first job when it runs generated data in-process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import scalemap.bench"], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def write_inputs(params, directory: Path):
    """The load-spill input: one 24-byte-record file per generated block."""
    from scalemap.core import RecordCodec, encode_vectors, generate_vectors

    directory.mkdir(parents=True)
    codec = RecordCodec(24)
    for b in range(params.blocks):
        vectors = generate_vectors(params.seed, b, params.vectors_per_block)
        (directory / f"block-{b:04d}.bin").write_bytes(encode_vectors(vectors, codec))


def load_spill(run: Run):
    import numpy as np
    from scalemap.core import BenchmarkParams, LoadBinary, Vec3
    from scalemap.engine import StorageLevel

    shape = BenchmarkParams(blocks=8, block_size_units=16, vectors_per_unit=4096,
                            cores=2, nparts=2, seed=run.seed, shift_delta=Vec3(*DELTA))
    setup = []
    for i in range(SETUP_REPEATS):
        indir = run.tmp / f"input-{i}"
        t0 = time.perf_counter()
        write_inputs(shape, indir)
        setup.append(time.perf_counter() - t0)
    params = shape.replaced(source=LoadBinary(str(indir), 24))

    def block_vectors(b):
        data = (indir / f"block-{b:04d}.bin").read_bytes()
        return np.frombuffer(data, dtype="<f8").reshape(-1, 3)

    kwargs = {"memory_budget": params.total_bytes // 2, "scratch": str(run.tmp),
              "storage": StorageLevel.MEMORY_AND_DISK}
    e2e, recs, per_job = run_local(run, params, kwargs, setup)
    check_means(run, recs, reference_mean(params, block_vectors))
    return e2e, totals_of(recs), per_job


# ---- cluster-tasks ---------------------------------------------------------------

def start_cluster(run: Run, traced: bool):
    t0 = time.perf_counter()
    master = run.spawn("master", traced, "--workers", "2")
    port = read_line(master).split()[1]
    workers = [run.spawn("worker", traced, "--port", port, "--scratch", str(run.tmp))
               for _ in range(2)]
    if read_line(master) != "ready":
        raise RuntimeError("master did not report ready")
    return master, workers, ("127.0.0.1", int(port)), time.perf_counter() - t0


def stop_cluster(addr, procs) -> list[dict]:
    from scalemap.cluster import send_shutdown

    send_shutdown(addr)
    return [finish(p) for p in procs]


def cluster_tasks(run: Run):
    from scalemap.bench import MODE_CLUSTER, run_pipeline
    from scalemap.core import BenchmarkParams, Vec3, generate_vectors

    params = BenchmarkParams(blocks=2048, block_size_units=1, vectors_per_unit=256,
                             nodes=2, cores=1, nparts=512, seed=run.seed,
                             shift_delta=Vec3(*DELTA))
    recs = {False: [], True: []}
    setup, peaks, per_job = [], [], []

    for traced, seconds in run.phases():
        if traced:
            run.start_tracing()

        def job(i):
            master, workers, addr, setup_s = start_cluster(run, traced)
            setup.append(setup_s)
            run.attempted += 1
            if traced:
                run.tracer.spans.clear()
            t0 = time.perf_counter()
            rec = warm = None
            try:
                rec = run_pipeline(params, MODE_CLUSTER, master_addr=addr)
                t1 = time.perf_counter()
                if traced:
                    warm = run_pipeline(params, MODE_CLUSTER, master_addr=addr)
            except Exception as e:  # noqa: BLE001 - a failed job is counted, not fatal
                run.fail(f"job {i}: {type(e).__name__}: {e}")
            outs = stop_cluster(addr, [master, *workers])
            peaks.extend(o["maxrss_mib"] for o in outs)
            if rec is None:
                return
            err = skipped_stage(rec, params)
            if err:
                run.fail(f"job {i}: {err}")
                return
            recs[traced].append(rec)
            if traced:
                per_job.append(cluster_layers(run, params, outs, rec, warm, t0, t1))

        closed_loop(seconds, job)
    check_means(run, recs, reference_mean(
        params, lambda b: generate_vectors(params.seed, b, params.vectors_per_block)))
    e2e = {"setup_s": tracing.median(setup), **stage_medians(recs[False]),
           "peak_rss_mib": max(peaks)}
    return e2e, totals_of(recs), per_job


def cluster_layers(run: Run, params, outs, rec, warm, t0: float, t1: float) -> dict:
    """Per-layer values of one cold cluster job, from the spans of the
    runner, the master and both workers inside the job's time window."""
    spans = tracing.as_spans(run.tracer.spans, "runner")
    for n, out in enumerate(outs):
        spans += tracing.as_spans(out["spans"], n)
    cold = [s for s in spans if t0 <= s.t0 <= t1]
    # workers are fresh, so the counters at their last task of the cold job
    # are that job's counts
    counters = []
    for n in range(1, len(outs)):
        tasks = [s for s in cold if s.name == "cluster.worker_task" and s.id[0] == n]
        if tasks:
            counters.append(max(tasks, key=lambda s: s.t1).attrs["counters"])
    m = layer_metrics(cold, counters)
    sent = {s.attrs["task"]: s.t0 for s in cold
            if s.name == "cluster.send_message" and s.attrs}
    done = {s.attrs["task"]: s.t0 for s in cold if s.name == "cluster.result"}
    worker = {s.attrs["task"]: s.t1 - s.t0 for s in cold
              if s.name == "cluster.worker_task" and s.attrs}
    rtt = {k: (done[k] - sent[k]) * 1000.0 for k in sent if k in done}
    m["cluster.tasks"] = float(len(sent))
    if rtt:
        m["cluster.task_rtt_ms_p50"] = tracing.percentile(rtt.values(), 50)
        m["cluster.task_rtt_ms_p99"] = tracing.percentile(rtt.values(), 99)
        m["cluster.wire_queue_ms_p50"] = tracing.percentile(
            [rtt[k] - worker[k] * 1000.0 for k in rtt if k in worker], 50)
    if worker:
        m["cluster.worker_task_ms_p50"] = tracing.percentile(worker.values(), 50) * 1000.0
    m["cluster.rescheduled"] = float(outs[0]["stats"]["rescheduled"])
    m["cluster.generate_per_block"] = tracing.count(
        [s for s in cold if s.id[0] != "runner"], "core.generate") / params.blocks
    if warm is not None:
        c = warm.timings.counters
        m["cluster.warm_rep_recomputed_ratio"] = (
            (c["create"]["recomputed"] + c["map"]["recomputed"]) / (2 * params.partitions))
    m["bench.overhead_s"] = (t1 - t0) - rec.timings.total_s
    return m


# ---- netprobe-loopback ------------------------------------------------------------

def start_probe(run: Run, traced: bool):
    t0 = time.perf_counter()
    proc = run.spawn("probe", traced, "--reject-every", str(REJECT_EVERY))
    port = int(read_line(proc).split()[1])
    return proc, ("127.0.0.1", port), time.perf_counter() - t0


def stop_probe(proc: Proc, addr, accepted: int) -> dict:
    """Shuts the server down; `accepted` is how many connections it took."""
    from scalemap.cluster import Shutdown, send_message

    # a connection on one of the server's reject slots is dropped unread
    for _ in range(2 if (accepted + 1) % REJECT_EVERY == 0 else 1):
        try:
            with socket.create_connection(addr, timeout=10.0) as sock:
                send_message(sock, Shutdown())
        except OSError:
            pass
    return finish(proc)


def netprobe_loopback(run: Run):
    """Rounds of a connection storm then a bulk stream against one server.

    Each storm leaves its 2000 client sockets in TIME_WAIT for 60 s.  So
    that runs following one another keep well inside the 28k loopback
    ephemeral ports, a phase runs STORMS_PER_PHASE storms; its remaining
    rounds are streams alone.

    The probe is reported with the pipeline's stage names: create_s is a
    storm's wall time, map_s a stream's seconds per GiB acknowledged,
    reduce_s the median ping round trip over the storms, total_s a storm
    round (storm then stream) end to end.
    """
    from scalemap.netprobe import ServerUnreachable, probe_connections, probe_throughput

    setup, peaks, per_phase = [], [], []
    rounds = {False: [], True: []}
    e2e = {}
    for _ in range(SETUP_REPEATS - 1):
        proc, addr, setup_s = start_probe(run, False)
        setup.append(setup_s)
        peaks.append(stop_probe(proc, addr, 0)["maxrss_mib"])

    for traced, seconds in run.phases():
        if traced:
            run.start_tracing()
        proc, addr, setup_s = start_probe(run, traced)
        if not traced:
            setup.append(setup_s)
        accepted = 0  # the server rejects its accepted connections N, 2N, ...
        storms, streams = [], []
        deadline = time.perf_counter() + seconds
        for i in itertools.count():
            if i >= STORMS_PER_PHASE and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            if i < STORMS_PER_PHASE:
                run.attempted += 1
                try:
                    storm = probe_connections(addr, STORM_CONNECTIONS,
                                              concurrency=STORM_CONCURRENCY)
                except ServerUnreachable as e:
                    run.fail(f"storm {i}: {e}")
                    storm = None
                accepted += STORM_CONNECTIONS
                if storm is not None and storm.failures != STORM_CONNECTIONS // REJECT_EVERY:
                    run.fail(f"storm {i}: {storm.failures} failures, expected "
                             f"{STORM_CONNECTIONS // REJECT_EVERY} injected rejects")
                elif storm is not None:
                    storms.append((storm, time.perf_counter() - t0))
            if (accepted + 1) % REJECT_EVERY == 0:
                # this stream's connection is on the reject schedule: it must fail
                run.attempted += 1
                accepted += 1
                try:
                    probe_throughput(addr, STREAM_FRAME_BYTES, 0.1)
                    run.fail(f"stream {i}: a connection on a reject slot was served")
                except ServerUnreachable:
                    pass
            run.attempted += 1
            t1 = time.perf_counter()
            try:
                stream = probe_throughput(addr, STREAM_FRAME_BYTES, STREAM_SECONDS)
            except ServerUnreachable as e:
                run.fail(f"stream {i}: {e}")
                continue
            finally:
                accepted += 1
            t2 = time.perf_counter()
            if stream.bytes_acked != stream.bytes_sent or stream.bytes_sent == 0:
                run.fail(f"stream {i}: acked {stream.bytes_acked} of {stream.bytes_sent} bytes")
                continue
            streams.append((stream, t2 - t1))
            if i < STORMS_PER_PHASE:
                rounds[traced].append((t0, t2))
        out = stop_probe(proc, addr, accepted)
        peaks.append(out["maxrss_mib"])
        rtts = [r for storm, _ in storms for r in storm.response_times_ms]
        if not traced:
            e2e = {
                "create_s": tracing.median([s for _, s in storms]),
                "map_s": tracing.median(
                    [s / (st.bytes_acked / (1 << 30)) for st, s in streams]),
                "reduce_s": tracing.percentile(rtts, 50) / 1000.0,
            }
            continue
        spans = (tracing.as_spans(run.tracer.spans, "runner")
                 + tracing.as_spans(out["spans"], "server"))
        m = dict.fromkeys(PER_LAYER, 0.0)
        m["netprobe.conn_rate_per_s"] = tracing.median(
            [STORM_CONNECTIONS / s for _, s in storms])
        m["netprobe.rtt_p50_ms"] = tracing.percentile(rtts, 50)
        m["netprobe.rtt_p99_ms"] = tracing.percentile(rtts, 99)
        m["netprobe.stream_mib_s"] = tracing.median(
            [st.throughput_bytes_per_s / MIB for st, _ in streams])
        m["netprobe.injected_rejects"] = tracing.median(
            [float(st.failures) for st, _ in storms])
        m["netprobe.ack_ratio"] = (sum(st.bytes_acked for st, _ in streams)
                                   / sum(st.bytes_sent for st, _ in streams))
        m["netprobe.send_frame_s"] = tracing.median([
            tracing.busy([s for s in spans if t0 <= s.t0 <= t2], "wire.send_frame")
            for t0, t2 in rounds[True]])
        per_phase.append(m)

    totals = {k: [t2 - t0 for t0, t2 in v] for k, v in rounds.items()}
    e2e.update(setup_s=tracing.median(setup), total_s=tracing.median(totals[False]),
               peak_rss_mib=max(peaks + [self_peak_rss_mib()]))
    return e2e, totals, per_phase


WORKLOADS = {
    "gen-memory": gen_memory,
    "load-spill": load_spill,
    "cluster-tasks": cluster_tasks,
    "netprobe-loopback": netprobe_loopback,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "scalemap" / "__init__.py").is_file():
        log(f"no scalemap package under {SRC}; run from the root of a scalemap checkout")
        return 2
    sys.path.insert(0, str(SRC))

    TMP_ROOT.mkdir(exist_ok=True)
    run = Run(seed=dataset_seed(args.workload, args.seed), seconds=args.seconds,
              trace=bool(args.trace), tmp=Path(tempfile.mkdtemp(dir=TMP_ROOT)))
    try:
        e2e, totals, per_job = WORKLOADS[args.workload](run)
    finally:
        run.stop_all()
        shutil.rmtree(run.tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    if run.trace:
        values = median_metrics(per_job)
        # the job's total: the pipeline's total_s, or the probe round's wall time
        values["trace.overhead_ratio"] = (tracing.median(totals[True])
                                          / tracing.median(totals[False]))
        units = PER_LAYER
    else:
        values, units = e2e, END_TO_END
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
