"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
inline; `-v` alone still gives one PASSED/FAILED/SKIPPED line per criterion.
"""

import json
import os
import random
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import spawn_worker_proc
from scalemap.analysis import build_series, parse_plot_data, strong_efficiency
from scalemap.bench import (
    MODE_LOCAL,
    ScalingMode,
    make_pipeline_spec,
    read_records_jsonl,
    run_pipeline,
    run_sweep,
    write_records_jsonl,
)
from scalemap.cluster import (
    ClusterConfig,
    Master,
    TruncatedFrame,
    decode_message,
    encode_message,
    recv_message,
    submit,
)
from scalemap.core import (
    BenchmarkParams,
    RecordCodec,
    Vec3,
    decode_vectors,
    encode_vectors,
)
from scalemap.engine import Engine, StorageLevel
from scalemap.netprobe import FaultPolicy, ProbeServer, probe_connections

import scalemap.cluster as cluster_mod


def verdict(n: int, ok: bool, detail: str):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def bits(v: Vec3) -> bytes:
    return struct.pack("<3d", v.x, v.y, v.z)


def test_criterion_01_efficiency_arithmetic():
    e1 = strong_efficiency(9.64, 16)
    e2 = strong_efficiency(14.98, 16)
    ok = (abs(e1 * 100 - 60.25) < 1e-9 and abs(e1 * 100 - 60.3) <= 0.1
          and abs(e2 * 100 - 93.6) <= 0.05)
    verdict(1, ok, f"strong_efficiency: 9.64/16 -> {e1 * 100:.2f}%, "
                   f"14.98/16 -> {e2 * 100:.3f}%")


def test_criterion_02_shift_average_commutation(tmp_path):
    rng = random.Random(20260815)
    worst = 0.0
    for case in range(100):
        parts = rng.randint(1, 16)
        blocks = parts * rng.randint(1, 3)
        delta = Vec3(*(rng.choice([-1, 1]) * rng.uniform(1.0, 10.0)
                       for _ in range(3)))
        params = BenchmarkParams(blocks=blocks, vectors_per_unit=1 << 12,
                                 cores=parts, seed=rng.randrange(2 ** 63),
                                 shift_delta=delta)
        with Engine(1 << 30, tmp_path / f"c{case}") as eng:
            d = eng.persist(eng.source(params), StorageLevel.MEMORY_ONLY)
            base = eng.reduce_average(d)
            shifted = eng.reduce_average(eng.map_shift(d, delta))
        for got, b, dd in zip(shifted.as_tuple(), base.as_tuple(), delta.as_tuple()):
            want = b + dd
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
    verdict(2, worst <= 1e-12,
            f"100 randomized shift/average commutation cases, worst rel err {worst:.3e}")


def test_criterion_03_lineage_recompute_bit_exact(tmp_path):
    params = BenchmarkParams(blocks=16, cores=16, vectors_per_unit=256,
                             shift_delta=Vec3(0.25, -1.5, 3.0))
    with Engine(1 << 30, tmp_path) as eng:
        d = eng.source(params)
        m = eng.persist(eng.map_shift(d, params.shift_delta), StorageLevel.MEMORY_ONLY)
        eng.force(m)
        assert m.partitions >= 16
        results = [eng.evict_and_recompute_check(m, p) for p in range(m.partitions)]
    verdict(3, all(results),
            f"recompute bit-exact on {len(results)}/{len(results)} partitions")


def test_criterion_04_storage_level_independence(tmp_path):
    params = BenchmarkParams(blocks=24, cores=4, vectors_per_unit=1024,
                             shift_delta=Vec3(1.0, 2.0, 3.0))
    half_budget = params.total_bytes // 2
    runs = {
        StorageLevel.MEMORY_ONLY: 1 << 30,
        StorageLevel.DISK_ONLY: 1 << 30,
        StorageLevel.MEMORY_AND_DISK: half_budget,
    }
    recs = {lv: run_pipeline(params, MODE_LOCAL, memory_budget=budget,
                             scratch=tmp_path / lv.value, storage=lv)
            for lv, budget in runs.items()}
    blobs = {lv: bits(r.result) for lv, r in recs.items()}
    identical = len(set(blobs.values())) == 1
    constrained = recs[StorageLevel.MEMORY_AND_DISK].timings.counters
    spilled = sum(stage["spilled"] for stage in constrained.values())
    recomputed = sum(stage["recomputed"] for stage in constrained.values())
    # each of the two forces legitimately computes every partition once;
    # only work beyond that baseline indicates budget pressure
    pressure = spilled + max(0, recomputed - 2 * params.partitions)
    verdict(4, identical and pressure >= 1,
            f"3 storage levels bit-identical={identical}, constrained run "
            f"shows {pressure} spilled/recomputed partition(s) beyond baseline")


def test_criterion_05_distributed_equals_local_with_worker_loss(tmp_path):
    params = BenchmarkParams(blocks=48, nodes=2, cores=6, nparts=1,
                             vectors_per_unit=32768,
                             shift_delta=Vec3(0.5, -0.25, 2.0))
    assert params.partitions == 12
    local = run_pipeline(params, MODE_LOCAL, scratch=tmp_path / "local").result

    master = Master(ClusterConfig(port=0, expected_workers=2, slots=6)).start()
    procs = [spawn_worker_proc(master.port, tmp_path / f"w{i}", 6) for i in range(2)]
    try:
        assert master.wait_ready(30), "workers never registered"
        spec = make_pipeline_spec(params, StorageLevel.MEMORY_ONLY)
        healthy = submit(("127.0.0.1", master.port), spec, timeout_s=120).result

        seen = []

        def hook(res, wid):
            seen.append(res.task_id)
            if len(seen) == 1:
                procs[0].kill()

        master.on_result = hook
        degraded = submit(("127.0.0.1", master.port), spec, timeout_s=120).result
        lost = master.stats.workers_lost
    finally:
        master.shutdown()
        for p in procs:
            p.kill()
            p.wait(timeout=10)
    ok = bits(healthy) == bits(local) and bits(degraded) == bits(local) and lost >= 1
    verdict(5, ok, "48 blocks / 12 partitions on 2 workers bit-identical to local; "
                   f"identical again after SIGKILL of one worker (lost={lost})")


def test_criterion_06_sweep_semantics_from_jsonl(tmp_path):
    base = BenchmarkParams(blocks=48, vectors_per_unit=64)
    strong = run_sweep(base, [1, 2, 4], ScalingMode.STRONG, reps=1,
                       scratch=tmp_path / "s")
    write_records_jsonl(strong, tmp_path / "strong.jsonl")
    weak_base = BenchmarkParams(blocks=16, vectors_per_unit=64)
    weak = run_sweep(weak_base, [1, 2, 4], ScalingMode.WEAK, reps=1,
                     scratch=tmp_path / "w")
    write_records_jsonl(weak, tmp_path / "weak.jsonl")

    strong_rows = [json.loads(line) for line in
                   (tmp_path / "strong.jsonl").read_text().splitlines()]
    weak_rows = [json.loads(line) for line in
                 (tmp_path / "weak.jsonl").read_text().splitlines()]
    strong_blocks = {r["params"]["nodes"]: r["params"]["blocks"] for r in strong_rows}
    weak_blocks = {r["params"]["nodes"]: r["params"]["blocks"] for r in weak_rows}
    ok = strong_blocks == {1: 48, 2: 48, 4: 48} and weak_blocks == {1: 16, 2: 32, 4: 64}
    verdict(6, ok, f"strong sweep holds blocks {strong_blocks}, "
                   f"weak sweep scales blocks {weak_blocks}")


class ByteSource:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def recv(self, n: int) -> bytes:
        chunk = self.data[self.pos:self.pos + n]
        self.pos += len(chunk)
        return chunk


def _random_message(rng: random.Random):
    C = cluster_mod
    f = lambda: rng.uniform(-1e12, 1e12)
    u32 = lambda: rng.randrange(2 ** 32)
    u64 = lambda: rng.randrange(2 ** 63)
    text = lambda: "".join(rng.choice("abcdef{}[]:,\"π✓ ") for _ in range(rng.randint(0, 40)))
    builders = [
        lambda: C.Register(slots=rng.randint(0, 65535), name=text()),
        lambda: C.Task(task_id=u32(), partition=u32(), action=rng.randint(0, 1),
                       pipeline_json=text()),
        lambda: C.TaskResult(task_id=u32(), partition=u32(), action=rng.randint(0, 1),
                             sum_x=f(), sum_y=f(), sum_z=f(), count=u64(),
                             nbytes=u64(), computed=rng.randint(0, 1)),
        lambda: C.Heartbeat(seq=u32()),
        lambda: C.ErrorMsg(task_id=u32(), message=text()),
        lambda: C.Shutdown(),
        lambda: C.Ping(nonce=rng.randbytes(16)),
        lambda: C.Data(payload=rng.randbytes(rng.randint(0, 256))),
        lambda: C.Submit(job_json=text()),
        lambda: C.JobDone(report_json=text()),
    ]
    return rng.choice(builders)()


def test_criterion_07_codec_and_protocol_round_trips():
    rng = random.Random(7)
    vecs = np.array([[rng.uniform(-1e9, 1e9) for _ in range(3)] for _ in range(10_000)])
    c24, c12 = RecordCodec(24), RecordCodec(12)

    d64 = decode_vectors(encode_vectors(vecs, c24), c24)
    f64_ok = d64.tobytes() == vecs.tobytes()
    enc12 = encode_vectors(vecs, c12)
    d32 = decode_vectors(enc12, c12)
    f32_ok = (d32.tobytes() == vecs.astype("<f4").astype(np.float64).tobytes()
              and encode_vectors(d32, c12) == enc12)

    frames = []
    proto_ok = True
    for _ in range(10_000):
        msg = _random_message(rng)
        tag, payload = encode_message(msg)
        back = decode_message(tag, payload)
        if encode_message(back) != (tag, payload):
            proto_ok = False
            break
        frames.append(struct.pack(">I", len(payload) + 1) + bytes([tag]) + payload)

    truncated_ok = True
    for frame in rng.sample(frames, 300):
        clipped = frame[:rng.randint(1, len(frame) - 1)]
        try:
            recv_message(ByteSource(clipped))
            truncated_ok = False
        except TruncatedFrame:
            pass
    verdict(7, f64_ok and f32_ok and proto_ok and truncated_ok,
            "10k vector round trips per record width "
            f"(f64={f64_ok}, f32={f32_ok}), 10k wire-message round trips "
            f"({proto_ok}), truncated frames rejected ({truncated_ok})")


def test_criterion_08_netprobe_fault_accounting():
    rejecting = ProbeServer(fault_policy=FaultPolicy(reject_every=10)).start()
    try:
        rep = probe_connections(("127.0.0.1", rejecting.port), k=200, concurrency=32)
    finally:
        rejecting.stop()
    counts_ok = rep.connections_established == 180 and rep.failures == 20

    delayed = ProbeServer(fault_policy=FaultPolicy(delay_ms=10.0)).start()
    try:
        slow = probe_connections(("127.0.0.1", delayed.port), k=20, concurrency=4)
    finally:
        delayed.stop()
    floor = min(slow.response_times_ms)
    delay_ok = floor >= 10.0 - 1e-3
    verdict(8, counts_ok and delay_ok,
            f"reject-every-10 at k=200 -> {rep.connections_established} established / "
            f"{rep.failures} failed; delay-ms=10 floor {floor:.3f} ms")


def test_criterion_09_submission_shaped_invocation(tmp_path):
    out = tmp_path / "job.json"
    env = dict(os.environ, SCALEMAP_SCRATCH=str(tmp_path / "scratch"))
    argv = [sys.executable, "-m", "scalemap", "bench", "--generate",
            "--blocks", "128", "--block_size", "64", "--nodes", "1",
            "--nparts", "1", "--cores", "12", "--json", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    bench_ok = proc.returncode == 0 and out.exists()

    csv_path = tmp_path / "plot.csv"
    proc2 = subprocess.run(
        [sys.executable, "-m", "scalemap", "analyze", "--input", str(out),
         "--mode", "strong", "--stage", "total", "--units", "cores",
         "--csv", str(csv_path)],
        env=env, capture_output=True, text=True, timeout=60)
    points = parse_plot_data(csv_path.read_text()) if proc2.returncode == 0 else []
    analyze_ok = (proc2.returncode == 0 and len(points) == 1
                  and points[0].units == 12 and points[0].speedup == 1.0)
    rec = read_records_jsonl(out)[0] if bench_ok else None
    verdict(9, bench_ok and analyze_ok,
            f"bench exited {proc.returncode} "
            f"({rec.params.total_vectors if rec else 0} vectors), analyze exited "
            f"{proc2.returncode} with {len(points)} plot point(s)")


@pytest.mark.skipif((os.cpu_count() or 1) < 8,
                    reason="strong-scaling sanity needs a host with >= 8 CPU cores")
def test_criterion_10_strong_scaling_on_multicore(tmp_path):
    base = BenchmarkParams(blocks=48, vectors_per_unit=1 << 16,
                           shift_delta=Vec3(1.0, 1.0, 1.0))
    records = []
    for cores in (1, 2, 4, 8):
        params = base.replaced(cores=cores)
        for rep in range(3):
            records.append(run_pipeline(params, MODE_LOCAL, rep=rep,
                                        scaling=ScalingMode.STRONG,
                                        scratch=tmp_path / f"c{cores}"))
    series = build_series(records, ScalingMode.STRONG, stage="map", units="cores")
    medians = [p.median_time_s for p in series.points]
    non_increasing = all(b <= a for a, b in zip(medians, medians[1:]))
    sp8 = series.points[-1].speedup
    verdict(10, non_increasing and sp8 >= 2.0,
            f"map-stage medians {['%.3f' % m for m in medians]} non-increasing="
            f"{non_increasing}, speedup(8 cores)={sp8:.2f}")
