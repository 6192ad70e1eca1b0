import json
import math
import os
import signal
import socket
import struct
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bit_equal, spawn_worker_proc
from scalemap import cluster as cluster_mod
from scalemap.bench import MODE_CLUSTER, MODE_LOCAL, run_pipeline
from scalemap.core import (BenchmarkParams, LoadBinary, RecordCodec, Vec3, encode_vectors,
                           generate_vectors, partition_blocks)
from scalemap.engine import Engine, StorageLevel
from scalemap.errors import ConfigError
from scalemap.job import combine_partials
from scalemap.vectors import _GEN_CHUNK
from scalemap.cluster import (
    ACTION_FORCE,
    ACTION_PARTIAL_REDUCE,
    FRAME_HEAD,
    MAX_DELAY_MS,
    MAX_FRAME,
    MAX_RUN,
    NO_TASK,
    BindFailure,
    ClusterConfig,
    ConnectFailure,
    Data,
    ErrorMsg,
    Heartbeat,
    JobDone,
    JobFailure,
    Master,
    MessageTag,
    Ping,
    ProtocolError,
    Register,
    RunResult,
    Shutdown,
    Submit,
    Task,
    TaskResult,
    TaskRun,
    TruncatedFrame,
    Worker,
    _Phase,
    _WorkerConn,
    decode_message,
    encode_message,
    frame_bytes,
    parse_addr,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
    send_shutdown,
    submit,
)

u32 = st.integers(0, 2**32 - 1)
u64 = st.integers(0, 2**64 - 1)
f64 = st.floats(allow_nan=False, allow_infinity=False, width=64)

results = st.builds(TaskResult, task_id=u32, partition=u32, action=st.integers(0, 255),
                    sum_x=f64, sum_y=f64, sum_z=f64, count=u64, nbytes=u64,
                    computed=st.booleans(), spilled=u32)


def run_of(ids, action=ACTION_FORCE, job_id=0, stage=0, spec="") -> TaskRun:
    """A run of (task id, partition) pairs."""
    return TaskRun(job_id, stage, action, tuple(ids), spec)


messages = st.one_of(
    st.builds(Register, slots=st.integers(0, 65535), name=st.text(max_size=40)),
    st.builds(Task, task_id=u32, partition=u32, action=st.integers(0, 255),
              pipeline_json=st.text(max_size=200), job_id=u32, stage=st.integers(0, 65535)),
    results,
    st.builds(run_of, ids=st.lists(st.tuples(u32, u32), max_size=20),
              action=st.integers(0, 255), job_id=u32, stage=st.integers(0, 65535),
              spec=st.text(max_size=200)),
    st.builds(RunResult, results=st.lists(results, max_size=10).map(tuple)),
    st.builds(Heartbeat, seq=u32),
    st.builds(ErrorMsg, task_id=u32, message=st.text(max_size=100)),
    st.builds(Shutdown),
    st.builds(Ping, nonce=st.binary(max_size=64)),
    st.builds(Data, payload=st.binary(max_size=300)),
    st.builds(Submit, job_json=st.text(max_size=200)),
    st.builds(JobDone, report_json=st.text(max_size=200)),
)


# one message of each type and the exact (tag, payload) it travels as, one
# space-separated group of hex digits a field
GOLDEN = [
    (Register(6, "w0"), MessageTag.REGISTER, "0600 7730"),
    (Task(7, 3, ACTION_PARTIAL_REDUCE, 2, 1, '{"a": 1}'), MessageTag.TASK,
     "07000000 03000000 01 02000000 0100 7b2261223a20317d"),
    (TaskResult(7, 3, ACTION_PARTIAL_REDUCE, -0.1 + 0.7, 1.5, -2.0, 64, 1536, True, 2),
     MessageTag.RESULT,
     "07000000 03000000 01 333333333333e33f 000000000000f83f 00000000000000c0"
     " 4000000000000000 0006000000000000 01 02000000"),
    (run_of([(7, 3), (8, 4)], ACTION_FORCE, 2, 1, "{}"), MessageTag.RUN,
     "02000000 0100 00 02000000 07000000 03000000 08000000 04000000 7b7d"),
    (RunResult((TaskResult(7, 3, ACTION_FORCE, 0.0, 0.0, 0.0, 64, 1536, True, 0),
                TaskResult(8, 4, ACTION_FORCE, 0.0, 0.0, 0.0, 64, 1536, False, 1))),
     MessageTag.RUN_RESULT,
     "07000000 03000000 00 0000000000000000 0000000000000000 0000000000000000"
     " 4000000000000000 0006000000000000 01 00000000"
     " 08000000 04000000 00 0000000000000000 0000000000000000 0000000000000000"
     " 4000000000000000 0006000000000000 00 01000000"),
    (Heartbeat(9), MessageTag.HEARTBEAT, "09000000"),
    (ErrorMsg(NO_TASK, "boom ✓"), MessageTag.ERROR, "ffffffff 626f6f6d20e29c93"),
    (Shutdown(), MessageTag.SHUTDOWN, ""),
    (Ping(b"\x00\x01nonce"), MessageTag.PING, "00016e6f6e6365"),
    (Data(b"\xffdata"), MessageTag.DATA, "ff64617461"),
    (Submit('{"job": 1}'), MessageTag.SUBMIT, "7b226a6f62223a20317d"),
    (JobDone('{"ok": true}'), MessageTag.JOB_DONE, "7b226f6b223a20747275657d"),
]


class ByteSource:
    """Socket stand-in replaying a fixed byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def recv(self, n: int) -> bytes:
        chunk = self._data[self._pos:self._pos + n]
        self._pos += len(chunk)
        return chunk


class ByteSink:
    def __init__(self):
        self.data = b""

    def sendall(self, b: bytes):
        self.data += b

    def sendmsg(self, buffers) -> int:
        return self.take(b"".join(buffers))

    def take(self, b: bytes) -> int:
        self.data += b
        return len(b)


class ShortSink(ByteSink):
    """A socket whose sendmsg takes only the first `limit` bytes offered."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit
        self.sendmsgs = 0

    def take(self, b: bytes) -> int:
        self.sendmsgs += 1
        return super().take(b[:self.limit])


def frame_of(msg) -> bytes:
    sink = ByteSink()
    send_message(sink, msg)
    return sink.data


class TestFraming:
    @given(messages)
    def test_message_round_trip(self, msg):
        got = recv_message(ByteSource(frame_of(msg)))
        assert got == msg and type(got) is type(msg)

    def test_length_prefix_counts_tag_plus_payload(self):
        raw = frame_of(Heartbeat(7))
        (length,) = struct.unpack(">I", raw[:4])
        assert length == len(raw) - 4 == 1 + 4
        assert raw[4] == MessageTag.HEARTBEAT
        assert raw[5:] == struct.pack("<I", 7)

    def test_clean_eof_returns_none(self):
        assert recv_frame(ByteSource(b"")) is None

    @given(messages, st.integers(1, 20))
    def test_truncated_frames_rejected(self, msg, cut):
        # any nonempty prefix of a frame is a truncation, even mid-header
        raw = frame_of(msg)
        cut = min(cut, len(raw) - 1)
        with pytest.raises(TruncatedFrame):
            recv_frame(ByteSource(raw[:len(raw) - cut]))

    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolError):
            recv_frame(ByteSource(struct.pack(">I", 0)))

    def test_oversized_length_rejected(self):
        with pytest.raises(ProtocolError):
            recv_frame(ByteSource(struct.pack(">I", MAX_FRAME + 1)))

    @pytest.mark.parametrize("limit", [0, 3, FRAME_HEAD.size, FRAME_HEAD.size + 1000])
    def test_short_sendmsg_is_finished_by_sendall(self, limit):
        payload = bytes(range(256)) * 64  # long enough to go out by sendmsg
        sink = ShortSink(limit)
        send_frame(sink, MessageTag.DATA, payload)
        assert sink.sendmsgs == 1
        assert sink.data == frame_bytes(MessageTag.DATA, payload)

    def test_oversized_send_rejected(self):
        with pytest.raises(ProtocolError):
            send_frame(ByteSink(), MessageTag.DATA, b"\x00" * MAX_FRAME)

    @pytest.mark.parametrize("msg, tag, payload", GOLDEN, ids=[t.name for _, t, _ in GOLDEN])
    def test_golden_bytes(self, msg, tag, payload):
        raw = bytes.fromhex(payload)
        assert encode_message(msg) == (tag, raw)
        got = decode_message(tag, raw)
        assert got == msg and type(got) is type(msg)
        for res in got.results if isinstance(got, RunResult) else [got]:
            if isinstance(res, TaskResult):
                assert type(res.computed) is bool

    def test_each_tag_is_one_message_class(self):
        assert sorted(tag for _, tag, _ in GOLDEN) == sorted(MessageTag)
        assert len({type(msg) for msg, _, _ in GOLDEN}) == len(MessageTag)
        for msg, tag, payload in GOLDEN:
            assert type(decode_message(tag, bytes.fromhex(payload))) is type(msg)

    @pytest.mark.parametrize("msg", [
        Register(65536), Heartbeat(-1), ErrorMsg(2**32, ""),
        Task(0, 0, 256), Task(0, 0, 0, stage=65536),
        TaskResult(0, 0, 0, 0.0, 0.0, 0.0, 2**64, 0, True),
        run_of([(2**32, 0)]), run_of([], stage=-1),
        RunResult((TaskResult(0, 2**32, 0, 0.0, 0.0, 0.0, 0, 0, False),)),
    ])
    def test_out_of_range_field_rejected_on_encode(self, msg):
        with pytest.raises(ProtocolError):
            encode_message(msg)

    @pytest.mark.parametrize("tag", [MessageTag.SHUTDOWN, MessageTag.HEARTBEAT,
                                     MessageTag.RESULT], ids=lambda t: t.name)
    def test_frame_without_a_tail_must_be_filled_exactly(self, tag):
        payload = dict((t, bytes.fromhex(p)) for _, t, p in GOLDEN)[tag]
        with pytest.raises(ProtocolError):
            decode_message(tag, payload + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(99, b"")

    def test_short_result_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(MessageTag.RESULT, b"\x01\x02")

    def test_result_floats_cross_bit_exactly(self):
        val = -0.1 + 0.7  # not exactly representable as a decimal literal
        msg = TaskResult(1, 2, 1, val, 0.0, 0.0, 3, 4, True, 0)
        got = recv_message(ByteSource(frame_of(msg)))
        assert struct.pack("<d", got.sum_x) == struct.pack("<d", val)

    @pytest.mark.parametrize("n", [0, 1, MAX_RUN])
    @pytest.mark.parametrize("spec", ["", '{"params": {}, "storage": "memory_only"}'])
    def test_run_frames_round_trip_up_to_the_cap(self, n, spec):
        run = run_of([(7 + i, i) for i in range(n)], ACTION_FORCE, 2**32 - 1, 65535, spec)
        answer = RunResult(tuple(TaskResult(t.task_id, t.partition, t.action, -0.1 + 0.7,
                                            0.0, 1e300, 2**64 - 1, 24, True, 3)
                                 for t in run.expand()))
        for msg in (run, answer):
            raw = frame_of(msg)
            assert len(raw) - 4 <= MAX_FRAME // 8  # far under MAX_FRAME at the cap
            got = recv_message(ByteSource(raw))
            assert got == msg and type(got) is type(msg)
            if raw[5:]:
                with pytest.raises(TruncatedFrame):
                    recv_frame(ByteSource(raw[:-1]))

    def test_short_run_payloads_rejected(self):
        run = frame_of(run_of([(1, 1), (2, 2)], spec="{}"))[5:]
        with pytest.raises(ProtocolError):
            decode_message(MessageTag.RUN, run[:-2 - 8])  # count says 2, one task present
        answer = frame_of(RunResult((TaskResult(1, 2, 1, 0.0, 0.0, 0.0, 3, 4, True),)))[5:]
        with pytest.raises(ProtocolError):
            decode_message(MessageTag.RUN_RESULT, answer[:-1])

    def test_parse_addr(self):
        assert parse_addr("10.0.0.1:7077") == ("10.0.0.1", 7077)
        assert parse_addr(":7077") == ("127.0.0.1", 7077)
        assert parse_addr("h:65535") == ("h", 65535)
        with pytest.raises(Exception):
            parse_addr("nohost")
        for text in ("h:65536", "h:70000"):  # the OS would wrap 70000 to 4464
            with pytest.raises(ConfigError, match="port"):
                parse_addr(text)


def job_spec(params: BenchmarkParams, delta: Vec3, storage="memory_only") -> dict:
    return {"params": params.replaced(shift_delta=delta).to_json_dict(), "storage": storage}


def record_runs(monkeypatch) -> list:
    """The TaskRuns the master sends from now on."""
    real_send, runs = cluster_mod.send_message, []

    def record(sock, msg):
        if isinstance(msg, TaskRun):
            runs.append(msg)
        real_send(sock, msg)

    monkeypatch.setattr(cluster_mod, "send_message", record)
    return runs


def fake_worker(addr, slots=1, name="fake") -> socket.socket:
    """A socket registered as a worker that sends no frame of its own."""
    sock = socket.create_connection(addr, timeout=10)
    send_message(sock, Register(slots, name))
    return sock


def wait_until(cond, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not cond():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def local_run(tmp_path, params: BenchmarkParams, delta: Vec3) -> Vec3:
    with Engine(1 << 30, tmp_path / "local") as e:
        d = e.persist(e.source(params), StorageLevel.MEMORY_ONLY)
        e.force(d)
        m = e.persist(e.map_shift(d, delta), StorageLevel.MEMORY_ONLY)
        e.force(m)
        return e.reduce_average(m)


@pytest.fixture
def cluster(tmp_path):
    started = []

    def make(n_workers=2, slots=2, timeout_ms=120_000, expected=None, budget=1 << 30):
        cfg = ClusterConfig(
            port=0,
            expected_workers=n_workers if expected is None else expected,
            network_timeout_ms=timeout_ms,
            slots=slots,
        )
        master = Master(cfg).start()
        workers, threads = [], []
        for i in range(n_workers):
            wcfg = ClusterConfig(host="127.0.0.1", port=master.port,
                                 network_timeout_ms=timeout_ms, slots=slots)
            w = Worker(wcfg, tmp_path / f"w{i}", budget, name=f"w{i}")
            t = threading.Thread(target=w.run, daemon=True, name=f"worker-{i}")
            t.start()
            workers.append(w)
            threads.append(t)
        started.append((master, workers, threads))
        if n_workers:
            assert master.wait_ready(15), "workers never registered"
        return master, ("127.0.0.1", master.port), workers

    yield make
    for master, workers, threads in started:
        master.shutdown()
        for w in workers:
            w.stop()
        for t in threads:
            t.join(timeout=10)


class TestMasterWorker:
    def test_ready_after_expected_registrations(self, cluster):
        master, _, _ = cluster(n_workers=2)
        assert master.live_workers() == 2

    def test_distributed_equals_local_bit_exact(self, cluster, tmp_path):
        master, addr, _ = cluster(n_workers=2, slots=3)
        params = BenchmarkParams(blocks=12, vectors_per_unit=512, cores=6, seed=17)
        delta = Vec3(0.25, -1.5, 3.0)
        jr = submit(addr, job_spec(params, delta), timeout_s=60)
        assert jr.result == local_run(tmp_path, params, delta)
        assert jr.stats["partitions"] == 6
        assert jr.timings["create_s"] > 0
        assert jr.timings["map_s"] > 0
        assert jr.timings["reduce_s"] > 0

    def test_canonical_submission_shape(self, cluster, tmp_path):
        master, addr, _ = cluster(n_workers=1, slots=12)
        params = BenchmarkParams(blocks=128, block_size_units=64, vectors_per_unit=16,
                                 nodes=1, nparts=1, cores=12)
        delta = Vec3(0.5, 0.5, 0.5)
        jr = submit(addr, job_spec(params, delta), timeout_s=120)
        assert jr.result == local_run(tmp_path, params, delta)

    def test_same_bits_as_local_at_slots_1_2_and_4(self, cluster, tmp_path):
        params = BenchmarkParams(blocks=40, vectors_per_unit=64, cores=20, seed=5)
        delta = Vec3(-0.75, 1e-3, 2.5)
        local = local_run(tmp_path, params, delta)
        for slots in (1, 2, 4):
            _, addr, _ = cluster(n_workers=2, slots=slots)
            got = submit(addr, job_spec(params, delta), timeout_s=60).result
            assert struct.pack("<3d", *got.as_tuple()) == struct.pack("<3d", *local.as_tuple())

    def test_frames_per_job_stay_few(self, cluster, monkeypatch):
        # one frame per task and per result would be 2 x 3 x 1024 = 6144
        master, addr, _ = cluster(n_workers=2, slots=1)
        real_send, frames = cluster_mod.send_frame, []

        def count(sock, tag, payload):
            frames.append(tag)
            real_send(sock, tag, payload)

        monkeypatch.setattr(cluster_mod, "send_frame", count)
        params = BenchmarkParams(blocks=1024, vectors_per_unit=4, nodes=2, nparts=512)
        assert params.partitions == 1024
        submit(addr, job_spec(params, Vec3(1, 2, 3)), timeout_s=120)
        assert frames.count(MessageTag.RUN) >= 3  # at least one per phase
        assert len(frames) <= 400

    def test_skip_reduce(self, cluster):
        master, addr, _ = cluster(n_workers=1)
        params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2)
        jr = submit(addr, job_spec(params, Vec3(1, 1, 1)), skip_reduce=True)
        assert jr.result is None
        assert jr.timings["reduce_s"] == 0.0
        assert jr.phases["create"]["bytes"] == params.total_bytes

    def test_one_worker_generates_each_block_once(self, cluster):
        # the map phase builds on the source partitions the create phase
        # persisted, and the reduce reads the persisted map partitions
        master, addr, workers = cluster(n_workers=1, slots=2)
        params = BenchmarkParams(blocks=8, vectors_per_unit=64, cores=4)
        submit(addr, job_spec(params, Vec3(1, 2, 3)), timeout_s=60)
        assert workers[0].engine.counters.generate_calls == params.blocks

    def test_two_workers_generate_each_block_once_unless_placed_remotely(self, cluster):
        # a partition's map and reduce tasks go to the worker that returned
        # its last result; only a task placed elsewhere may regenerate blocks
        master, addr, workers = cluster(n_workers=2, slots=2)
        params = BenchmarkParams(blocks=32, vectors_per_unit=64, cores=16)
        jr = submit(addr, job_spec(params, Vec3(1, 2, 3)), timeout_s=60)
        bpp = -(-params.blocks // params.partitions)
        calls = sum(w.engine.counters.generate_calls for w in workers)
        assert params.blocks <= calls <= params.blocks + jr.stats["remote_tasks"] * bpp

    def test_spills_reported_per_phase(self, tmp_path):
        params = BenchmarkParams(blocks=8, vectors_per_unit=256, cores=8)
        master = Master(ClusterConfig(port=0, expected_workers=2, slots=2)).start()
        workers, threads = [], []
        for i in range(2):
            wcfg = ClusterConfig(port=master.port, slots=2)
            # a quarter of the dataset per worker: below each one's share
            workers.append(Worker(wcfg, tmp_path / f"w{i}", params.total_bytes // 4))
            threads.append(threading.Thread(target=workers[-1].run, daemon=True))
            threads[-1].start()
        try:
            assert master.wait_ready(15)
            jr = submit(("127.0.0.1", master.port),
                        job_spec(params, Vec3(1, 2, 3), storage="memory_and_disk"),
                        timeout_s=60)
            spilled = sum(jr.phases[phase]["spilled"] for phase in ("create", "map", "reduce"))
            assert spilled >= 1
            assert spilled == sum(w.engine.counters.spill_writes for w in workers)
        finally:
            master.shutdown()
            for w in workers:
                w.stop()
            for t in threads:
                t.join(timeout=10)

    def test_job_without_params_gets_an_error_report(self, cluster):
        master, addr, _ = cluster(n_workers=1)
        with pytest.raises(JobFailure, match="params"):
            submit(addr, {"storage": "memory_only"}, timeout_s=10)
        params = BenchmarkParams(blocks=2, vectors_per_unit=16)
        assert submit(addr, job_spec(params, Vec3(0, 0, 0)), timeout_s=10).result is not None

    @pytest.mark.parametrize("storage", ["bogus", None], ids=["bogus", "missing"])
    def test_job_with_a_bad_storage_level_fails_before_any_run(self, cluster, tmp_path,
                                                                 monkeypatch, storage):
        runs = record_runs(monkeypatch)
        master, addr, _ = cluster(n_workers=1)
        params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2)
        delta = Vec3(1.0, 2.0, 3.0)
        bad = job_spec(params, delta, storage)
        if storage is None:
            del bad["storage"]
        with pytest.raises(JobFailure, match="'storage'|'bogus' is not a valid StorageLevel"):
            submit(addr, bad, timeout_s=3)
        assert runs == [] and master.stats.worker_errors == 0
        assert submit(addr, job_spec(params, delta), timeout_s=30).result == local_run(
            tmp_path, params, delta)

    def test_submit_that_does_not_parse_gets_an_error_report(self, cluster, tmp_path,
                                                             monkeypatch):
        runs = record_runs(monkeypatch)
        master, addr, _ = cluster(n_workers=1)
        params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2)
        delta = Vec3(1.0, 2.0, 3.0)
        with socket.create_connection(addr, timeout=30) as sock:
            send_message(sock, Submit("{not json"))
            reply = recv_message(sock)
            assert isinstance(reply, JobDone)
            report = json.loads(reply.report_json)
            assert not report["ok"] and report["error"].startswith("JSONDecodeError: ")
            assert runs == [] and master.stats.worker_errors == 0
            # the same connection is still served
            send_message(sock, Submit(json.dumps(job_spec(params, delta))))
            report = json.loads(recv_message(sock).report_json)
        assert Vec3(*report["result"]) == local_run(tmp_path, params, delta)

    @pytest.mark.parametrize("field", ["nodes", "cores", "nparts"])
    def test_job_with_no_partitions_fails_fast(self, cluster, tmp_path, field):
        # a phase of no tasks never finishes, and would hold the master's
        # job lock against every later job
        master, addr, _ = cluster(n_workers=1)
        params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2)
        delta = Vec3(1.0, 2.0, 3.0)
        bad = job_spec(params, delta)
        bad["params"][field] = 0
        with pytest.raises(JobFailure, match=f"InvalidParams: {field}"):
            submit(addr, bad, timeout_s=3)
        assert submit(addr, job_spec(params, delta), timeout_s=30).result == local_run(
            tmp_path, params, delta)

    @pytest.mark.parametrize("field,value", [("blocks", 7.9), ("block_size_units", True),
                                             ("seed", 3.5)])
    def test_job_with_a_non_integer_field_fails_before_any_run(self, cluster, tmp_path,
                                                                monkeypatch, field, value):
        runs = record_runs(monkeypatch)
        master, addr, _ = cluster(n_workers=1)
        params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2)
        delta = Vec3(1.0, 2.0, 3.0)
        bad = job_spec(params, delta)
        bad["params"][field] = value
        with pytest.raises(JobFailure, match=f"InvalidParams: {field} must be an integer"):
            submit(addr, bad, timeout_s=3)
        assert runs == [] and master.stats.worker_errors == 0
        assert submit(addr, job_spec(params, delta), timeout_s=30).result == local_run(
            tmp_path, params, delta)

    def test_zero_workers_fails_fast(self, cluster):
        master, addr, _ = cluster(n_workers=0, expected=0)
        with pytest.raises(JobFailure, match="NoWorkers"):
            submit(addr, job_spec(BenchmarkParams(blocks=2, vectors_per_unit=16), Vec3(0, 0, 0)))

    def test_per_partition_failure_reported(self, cluster, tmp_path):
        master, addr, _ = cluster(n_workers=1)
        missing = tmp_path / "gone"
        missing.mkdir()
        (missing / "b0.bin").write_bytes(b"\x00" * 24)
        params = BenchmarkParams(blocks=1, source=LoadBinary(str(missing), 24))
        spec = job_spec(params, Vec3(0, 0, 0))
        (missing / "b0.bin").unlink()
        with pytest.raises(JobFailure) as ei:
            submit(addr, spec)
        assert ei.value.causes

    def test_misaligned_block_file_fails_its_partition_alone(self, cluster, tmp_path):
        # block b is partition b's only block, and b2.bin is one byte too long
        master, addr, _ = cluster(n_workers=1, slots=2)
        root = tmp_path / "blocks"
        root.mkdir()
        for b in range(4):
            (root / f"b{b}.bin").write_bytes(b"\x00" * (24 * 16 + (b == 2)))
        params = BenchmarkParams(blocks=4, vectors_per_unit=16, cores=4,
                                 source=LoadBinary(str(root), 24))
        errors = master.stats.worker_errors
        with pytest.raises(JobFailure, match="1 partition") as ei:
            submit(addr, job_spec(params, Vec3(0, 0, 0)), timeout_s=30)
        assert list(ei.value.causes) == ["2"]
        assert ei.value.causes["2"].startswith(
            f"RecomputeFailure: block file misaligned: {root / 'b2.bin'}: ")
        assert master.stats.worker_errors == errors + 1

    def test_heartbeat_rate_is_a_quarter_of_the_timeout(self, cluster):
        master, _, _ = cluster(n_workers=1, timeout_ms=400)  # a beat each 100 ms
        time.sleep(0.55)
        counts = list(master.stats.heartbeats.values())
        assert len(counts) == 1
        assert 3 <= counts[0] <= 7

    def test_silent_idle_worker_is_lost_and_beating_ones_stay(self, cluster):
        # no job runs, so only heartbeats tell the idle workers from the hung one
        master, addr, _ = cluster(n_workers=2, timeout_ms=400)
        t0 = time.monotonic()
        with socket.create_connection(addr, timeout=5) as silent:
            send_message(silent, Register(1, "silent"))
            while master.stats.workers_lost == 0 and time.monotonic() < t0 + 10:
                time.sleep(0.01)
            assert 0.35 <= time.monotonic() - t0 < 2.0
            assert recv_frame(silent) is None  # the master closed its end
        time.sleep(1.6)  # four more timeouts
        assert master.live_workers() == 2 and master.stats.workers_lost == 1
        assert master.stats.heartbeats[2] == 0
        assert master.stats.heartbeats[0] >= 4 and master.stats.heartbeats[1] >= 4

    def test_lost_workers_leave_the_master(self, cluster, tmp_path):
        master, addr, _ = cluster(n_workers=2)
        for i in range(20):
            with fake_worker(addr, name=f"churn{i}"):
                wait_until(lambda: master.live_workers() == 3)
            wait_until(lambda: master.live_workers() == 2)
        assert len(master._workers) == master.live_workers() == 2
        assert master.stats.workers_lost == 20 and len(master.stats.heartbeats) == 22
        params = BenchmarkParams(blocks=16, vectors_per_unit=64, cores=8)
        delta = Vec3(1.0, 2.0, 3.0)
        jr = submit(addr, job_spec(params, delta), timeout_s=30)
        assert jr.result == local_run(tmp_path, params, delta)

    def test_ping_echo(self, cluster):
        master, addr, _ = cluster(n_workers=1)
        with socket.create_connection(addr, timeout=5) as sock:
            send_message(sock, Ping(b"0123456789abcdef"))
            reply = recv_message(sock)
        assert reply == Ping(b"0123456789abcdef") and type(reply) is Ping

    def test_shutdown_via_wire(self, cluster):
        master, addr, workers = cluster(n_workers=1)
        send_shutdown(addr)
        assert master.wait_stopped(10)

    def test_bind_failure(self, cluster):
        master, _, _ = cluster(n_workers=0, expected=0)
        with pytest.raises(BindFailure):
            Master(ClusterConfig(port=master.port)).start()

    def test_connect_failure_after_retries(self, tmp_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        cfg = ClusterConfig(port=dead_port, registration_retries=1)
        with pytest.raises(ConnectFailure):
            Worker(cfg, tmp_path, 1 << 20).run()

    def test_hung_worker_times_out_and_job_completes(self, cluster, tmp_path):
        master, addr, _ = cluster(n_workers=1, slots=4, timeout_ms=500)
        hang = socket.create_connection(addr, timeout=5)
        send_message(hang, Register(4, "hung"))
        deadline = time.monotonic() + 10
        while master.live_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert master.live_workers() == 2
        params = BenchmarkParams(blocks=16, vectors_per_unit=64, cores=8)
        delta = Vec3(1.0, 2.0, 3.0)
        t0 = time.monotonic()
        jr = submit(addr, job_spec(params, delta), timeout_s=60)
        elapsed = time.monotonic() - t0
        hang.close()
        assert jr.result == local_run(tmp_path, params, delta)
        assert master.stats.workers_lost >= 1
        # one timeout quantum per phase at most, plus slack
        assert elapsed < 6.0

    def test_run_longer_than_the_timeout_keeps_its_worker(self, cluster, monkeypatch,
                                                          tmp_path):
        # the first run is 8 create tasks of 100 ms each, so only the
        # worker's heartbeats keep the master hearing from it while it runs
        real_execute, real_send, runs = Worker._execute, cluster_mod.send_message, []

        def slow(self, task, outcomes):
            if task.stage == 0 and task.action == ACTION_FORCE:
                time.sleep(0.1)
            return real_execute(self, task, outcomes)

        def record(sock, msg):
            if isinstance(msg, TaskRun):
                runs.append(len(msg.tasks))
            real_send(sock, msg)

        monkeypatch.setattr(Worker, "_execute", slow)
        monkeypatch.setattr(cluster_mod, "send_message", record)
        master, addr, _ = cluster(n_workers=1, slots=1, timeout_ms=300)
        params = BenchmarkParams(blocks=16, vectors_per_unit=64, cores=16)
        delta = Vec3(1.0, 2.0, 3.0)
        jr = submit(addr, job_spec(params, delta), timeout_s=60)
        assert runs[0] == 8
        assert jr.stats["workers_lost"] == 0 and jr.stats["rescheduled"] == 0
        assert jr.result == local_run(tmp_path, params, delta)

    def test_job_report_counts_its_own_job(self, cluster):
        master, addr, _ = cluster(n_workers=1, slots=4, timeout_ms=500)
        hang = socket.create_connection(addr, timeout=5)
        send_message(hang, Register(4, "hung"))
        deadline = time.monotonic() + 10
        while master.live_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        params = BenchmarkParams(blocks=16, vectors_per_unit=64, cores=8)
        spec = job_spec(params, Vec3(1.0, 2.0, 3.0))
        first = submit(addr, spec, timeout_s=60).stats
        hang.close()
        second = submit(addr, spec, timeout_s=60).stats
        assert second["rescheduled"] == 0
        assert second["workers_lost"] == second["worker_errors"] == 0
        assert first["rescheduled"] >= 1 and first["workers_lost"] == 1
        assert master.stats.rescheduled == first["rescheduled"]


class FakeSock:
    """Worker socket stand-in that keeps the runs sent to it."""

    def __init__(self):
        self.sent = []

    def sendall(self, b: bytes):
        self.sent.append(recv_message(ByteSource(b)))

    def close(self):
        pass


class TestPlacement:
    """_Phase and Master._pump on socketless workers; task id = partition."""

    def master(self, slots, holders):
        master = Master(ClusterConfig(expected_workers=0))
        for wid, n in enumerate(slots):
            master._workers[wid] = _WorkerConn(wid, FakeSock(), n, "")
        master._holders = dict(holders)
        return master

    def start(self, master, partitions):
        master._phase = _Phase(0, 0, ACTION_FORCE, range(partitions), master._holders)
        master._pump()
        return master._phase

    def answer(self, master, wid, *partitions):
        master._on_answers(master._workers[wid], tuple(
            TaskResult(p, p, ACTION_FORCE, 0.0, 0.0, 0.0, 1, 24, True) for p in partitions))

    def runs(self, master, wid):
        """The partitions of each run sent to worker wid."""
        return [[p for _, p in run.tasks] for run in master._workers[wid].sock.sent]

    def test_held_task_goes_to_its_holder(self):
        master = self.master([1, 1], {0: 1, 1: 0, 2: 1, 3: 0})
        self.start(master, 4)
        assert self.runs(master, 0) == [[1]] and self.runs(master, 1) == [[0]]
        self.answer(master, 0, 1)
        self.answer(master, 1, 0)
        assert self.runs(master, 0) == [[1], [3]] and self.runs(master, 1) == [[0], [2]]
        assert master.stats.remote_tasks == 0
        assert master._holders == {0: 1, 1: 0, 2: 1, 3: 0}

    def test_holder_with_a_free_slot_keeps_its_tasks(self):
        # worker 0 is less loaded, but worker 1 holds both and has 2 slots
        master = self.master([1, 2], {0: 1, 1: 1})
        self.start(master, 2)
        assert self.runs(master, 0) == [] and self.runs(master, 1) == [[0], [1]]

    def test_unheld_task_before_a_steal(self):
        master = self.master([1, 1], {0: 0, 1: 0})
        self.start(master, 4)
        assert self.runs(master, 0) == [[0]] and self.runs(master, 1) == [[2]]
        assert master.stats.remote_tasks == 0

    def test_steal_only_from_a_busy_holder_and_from_the_tail(self):
        phase = _Phase(0, 0, ACTION_FORCE, range(4), {p: 0 for p in range(4)})
        assert phase.take(1, lambda h: False, 2) == []
        assert phase.take(1, lambda h: True, 2) == [2, 3]
        assert phase.take(0, lambda h: True, 2) == [0]

        master = self.master([1, 1], {p: 0 for p in range(4)})
        self.start(master, 4)
        assert self.runs(master, 0) == [[0, 1]] and self.runs(master, 1) == [[3]]
        self.answer(master, 1, 3)
        assert self.runs(master, 1) == [[3], [2]]
        self.answer(master, 0, 0, 1)
        assert self.runs(master, 0) == [[0, 1]]
        assert master.stats.remote_tasks == 2
        assert master._holders[3] == 1 and master._holders[2] == 0

    def test_lost_holders_tasks_served_by_survivors(self):
        master = self.master([1, 1], {p: 0 for p in range(4)})
        phase = self.start(master, 4)
        master._worker_lost(master._workers[0], "lost")
        assert master.stats.rescheduled == 2  # its in-flight run
        assert set(master._holders.values()) == {None}
        for run in ([3], [0, 1], [2]):
            assert self.runs(master, 1)[-1] == run
            self.answer(master, 1, *run)
        assert self.runs(master, 0) == [[0, 1]]
        assert phase.complete() and phase.finished.is_set() and not phase.aborted
        assert master.stats.remote_tasks == 4
        assert master._holders == {p: 1 for p in range(4)}

    def test_worker_added_mid_phase_gets_the_stage_list_first(self):
        master = self.master([1], {})
        master._spec_json = spec = '{"params": {}, "storage": "none"}'
        master._phase = _Phase(3, 0, ACTION_FORCE, range(6), master._holders)
        master._pump()
        master._workers[1] = _WorkerConn(1, FakeSock(), 1, "")
        master._pump()
        assert self.runs(master, 0) == [[0, 1, 2]] and self.runs(master, 1) == [[3]]
        self.answer(master, 0, 0, 1, 2)
        self.answer(master, 1, 3)
        assert self.runs(master, 0) == [[0, 1, 2], [4]] and self.runs(master, 1) == [[3], [5]]
        for wid in (0, 1):
            assert [r.pipeline_json for r in master._workers[wid].sock.sent] == [spec, ""]

    def test_run_shapes(self):
        busy = lambda h: True  # noqa: E731
        # own queue: the first half, rounded up
        phase = _Phase(0, 0, ACTION_FORCE, range(20), {p: 0 for p in range(10)})
        assert [phase.take(0, busy, 4) for _ in range(4)] == [
            [0, 1, 2, 3, 4], [5, 6, 7], [8], [9]]
        # unheld queue: its share of 2 x live slots, rounded up
        assert phase.take(0, busy, 4) == [10, 11]
        assert phase.take(1, busy, 4) == [12]
        assert phase.take(1, busy, 1) == [13, 14, 15, 16]
        # a steal: the last half of the longest busy holder's queue
        phase = _Phase(0, 0, ACTION_FORCE, range(20), {p: 0 if p < 7 else 1 for p in range(20)})
        assert phase.take(2, lambda h: False, 3) == []
        assert phase.take(2, busy, 3) == list(range(13, 20))
        assert phase.take(2, busy, 3) == [3, 4, 5, 6]
        assert phase.take(2, lambda h: h == 1, 3) == [10, 11, 12]
        # no run is longer than MAX_RUN, whatever queue it comes from
        n = 2 * MAX_RUN + 2
        for holders in ({p: 0 for p in range(n)}, {}, {p: 1 for p in range(n)}):
            assert len(_Phase(0, 0, ACTION_FORCE, range(n), holders).take(0, busy, 1)) == MAX_RUN

    def test_stray_error_fails_no_partition(self):
        master = self.master([1], {})
        phase = self.start(master, 3)
        w = master._workers[0]
        assert self.runs(master, 0) == [[0, 1]]
        self.answer(master, 0, 0)
        # task 0 is answered already, task 2 is not sent yet, and NO_TASK
        # names no task at all
        master._on_answers(w, ErrorMsg(0, "stray"))
        master._on_answers(w, ErrorMsg(2, "stray"))
        master._on_answers(w, ErrorMsg(NO_TASK, "malformed run: ..."))
        assert not phase.failed and not phase.finished.is_set()
        self.answer(master, 0, 1)
        assert self.runs(master, 0) == [[0, 1], [2]]
        master._on_answers(w, ErrorMsg(2, "boom"))
        assert phase.failed == {2: "boom"} and sorted(phase.done) == [0, 1]
        assert phase.complete() and phase.finished.is_set()
        assert master.stats.worker_errors == 4 and w.runs == []

    def test_result_for_a_task_its_sender_does_not_hold_counts_for_none(self):
        master = self.master([1, 1], {0: 0, 1: 1})
        phase = self.start(master, 2)
        assert self.runs(master, 0) == [[0]] and self.runs(master, 1) == [[1]]
        self.answer(master, 1, 0)  # task 0 is in flight on worker 0
        assert phase.done == {} and not phase.failed
        assert master._holders == {0: 0, 1: 1} and len(master._workers[0].runs) == 1
        self.answer(master, 0, 0)
        self.answer(master, 1, 1)
        assert sorted(phase.done) == [0, 1] and phase.finished.is_set()


class TestMasterLoop:
    """The master on the shared loop, test for test after the probe
    server's TestServerLoop."""

    def test_connections_start_no_thread(self, cluster):
        master, addr, _ = cluster(n_workers=0, expected=0)
        before, socks = set(threading.enumerate()), []
        try:
            socks += [fake_worker(addr, name=f"f{i}") for i in range(20)]
            for i in range(10):
                socks.append(socket.create_connection(addr, timeout=10))
                send_message(socks[-1], Ping(i.to_bytes(16, "little")))
                assert recv_message(socks[-1]) == Ping(i.to_bytes(16, "little"))
            wait_until(lambda: master.live_workers() == 20)
            assert set(threading.enumerate()) - before == set()
        finally:
            for s in socks:
                s.close()

    def test_a_client_that_stops_reading_stalls_only_itself(self, cluster, tmp_path):
        master, addr, _ = cluster(n_workers=2)
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect(addr)
        stalled.settimeout(0.2)
        pings = b"".join(frame_of(Ping(i.to_bytes(16, "little"))) for i in range(512))
        try:
            # pipeline pings and read no echo until the master stops taking them
            deadline = time.monotonic() + 10.0
            with pytest.raises(TimeoutError):
                while time.monotonic() < deadline:
                    stalled.sendall(pings)
            t0 = time.perf_counter()
            with socket.create_connection(addr, timeout=5) as other:
                send_message(other, Ping(b"\x09" * 16))
                assert recv_message(other) == Ping(b"\x09" * 16)
            assert time.perf_counter() - t0 < 1.0
            params = BenchmarkParams(blocks=16, vectors_per_unit=64, cores=8)
            delta = Vec3(1.0, 2.0, 3.0)
            jr = submit(addr, job_spec(params, delta), timeout_s=30)
            assert jr.result == local_run(tmp_path, params, delta)
        finally:
            stalled.close()

    def test_concurrent_clients_get_every_job_and_echo(self, cluster, tmp_path):
        # the loop and the job thread share only the call queue, the job
        # queue and Events: jobs from many clients at once all come back right
        master, addr, _ = cluster(n_workers=2, slots=2)
        params = BenchmarkParams(blocks=16, vectors_per_unit=64, cores=8)
        delta = Vec3(1.0, 2.0, 3.0)
        results, echoes = [], []

        def job():
            results.append(submit(addr, job_spec(params, delta), timeout_s=60).result)

        def pings():
            with socket.create_connection(addr, timeout=30) as sock:
                for i in range(200):
                    send_message(sock, Ping(i.to_bytes(16, "little")))
                    echoes.append(recv_message(sock) == Ping(i.to_bytes(16, "little")))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=f) for f in [job] * 6 + [pings] * 3]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [local_run(tmp_path, params, delta)] * 6
        assert echoes == [True] * 600

    def test_a_run_result_written_a_byte_at_a_time_settles_its_tasks(self, cluster):
        master, addr, _ = cluster(n_workers=0, expected=1)
        params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=4)
        n, out = params.partitions, {}
        client = threading.Thread(target=lambda: out.update(jr=submit(
            addr, job_spec(params, Vec3(0, 0, 0)), skip_reduce=True, timeout_s=30)))
        with fake_worker(addr) as worker:
            client.start()
            for _ in ("create", "map"):
                answered = 0
                while answered < n:
                    run = recv_message(worker)
                    wire = frame_of(RunResult(tuple(
                        TaskResult(tid, p, run.action, 0.0, 0.0, 0.0, 1, 24, True)
                        for tid, p in run.tasks)))
                    for i in range(len(wire)):
                        worker.sendall(wire[i:i + 1])
                        time.sleep(0.001)
                    answered += len(run.tasks)
            client.join(timeout=30)
        assert not client.is_alive()
        counts = {"bytes": 24 * n, "recomputed": n, "spilled": 0}
        assert out["jr"].phases == {"create": counts, "map": counts}

    def test_shutdown_mid_job_reports_the_failure_at_once(self):
        master = Master(ClusterConfig(expected_workers=1)).start()
        addr, out = ("127.0.0.1", master.port), []

        def run():
            params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2)
            with pytest.raises(JobFailure, match="shut down"):
                submit(addr, job_spec(params, Vec3(0, 0, 0)), timeout_s=30)
            out.append(time.monotonic())

        client = threading.Thread(target=run)
        try:
            with fake_worker(addr) as worker:
                client.start()
                assert isinstance(recv_message(worker), TaskRun)  # the job is running
                t0 = time.monotonic()
                master.shutdown()
                client.join(timeout=5)
                assert not client.is_alive() and out and out[0] - t0 < 1.0
                assert recv_message(worker) == Shutdown() and recv_message(worker) is None
        finally:
            master.shutdown()

    def test_a_bad_length_closes_its_connection_once_its_four_bytes_arrive(self, cluster):
        master, addr, _ = cluster(n_workers=0, expected=0)
        with socket.create_connection(addr, timeout=5) as bad:
            bad.sendall(b"\x00\x00")  # the length field, cut in two reads
            time.sleep(0.05)
            bad.sendall(b"\x00\x00")
            assert bad.recv(16) == b""

    def test_shutdown_twice_mid_job_is_one_shutdown(self):
        master = Master(ClusterConfig(expected_workers=1)).start()
        addr, errors = ("127.0.0.1", master.port), []

        def run():
            try:
                submit(addr, job_spec(BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2),
                                      Vec3(0, 0, 0)), timeout_s=30)
            except JobFailure as e:
                errors.append(e)

        client = threading.Thread(target=run)
        with fake_worker(addr) as worker:
            client.start()
            assert isinstance(recv_message(worker), TaskRun)
            # two halts queue on the loop before the job thread can answer
            master.call(master._halt)
            master.shutdown()
            client.join(timeout=5)
        assert not client.is_alive() and "shut down" in str(errors[0])
        assert master.wait_stopped(5)

    def test_shutdown_closes_every_descriptor_it_opened(self):
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        master = Master(ClusterConfig(expected_workers=0)).start()
        addr = ("127.0.0.1", master.port)
        peers = [fake_worker(addr), socket.create_connection(addr, timeout=10)]
        send_message(peers[1], Ping(b"\x03" * 16))
        assert recv_message(peers[1]) == Ping(b"\x03" * 16)
        wait_until(lambda: master.live_workers() == 1)
        master.shutdown()
        for s in peers:
            s.close()
        assert open_fds() == before


class TestJobScope:
    def test_task_ids_restart_with_each_job(self, cluster, tmp_path, monkeypatch):
        sent = record_runs(monkeypatch)
        master, addr, _ = cluster(n_workers=2, slots=2)
        master._next_tid = 2**32 - 4  # as on a master that ran ~2^32 tasks before this job
        params = BenchmarkParams(blocks=8, vectors_per_unit=64, cores=4)
        delta = Vec3(1, 2, 3)
        local = local_run(tmp_path, params, delta)
        for _ in range(2):
            assert submit(addr, job_spec(params, delta), timeout_s=30).result == local
        ids = [sorted(t for r in sent if r.job_id == job for t, _ in r.tasks) for job in (0, 1)]
        assert ids[0] == ids[1] == list(range(3 * params.partitions))

    def test_stage_list_sent_once_per_worker_per_job(self, cluster, monkeypatch):
        real_send, sent = cluster_mod.send_message, []

        def record(sock, msg):
            if isinstance(msg, TaskRun):
                sent.append((sock, msg))
            real_send(sock, msg)

        monkeypatch.setattr(cluster_mod, "send_message", record)
        master, addr, _ = cluster(n_workers=2, slots=2)
        params = BenchmarkParams(blocks=16, vectors_per_unit=64, cores=8)
        spec = job_spec(params, Vec3(1, 2, 3))
        for job_id in range(2):
            submit(addr, spec, timeout_s=60)
            per_worker = {}
            for sock, run in sent:
                if run.job_id == job_id:
                    per_worker.setdefault(sock, []).append(run)
            assert sum(len(r.tasks) for runs in per_worker.values()
                       for r in runs) == 3 * params.partitions
            for runs in per_worker.values():
                assert json.loads(runs[0].pipeline_json) == spec
                assert all(r.pipeline_json == "" for r in runs[1:])

    def test_warm_rep_recomputes_like_a_local_run(self, cluster, tmp_path):
        master, addr, _ = cluster(n_workers=1, slots=2)
        params = BenchmarkParams(blocks=8, vectors_per_unit=64, cores=4,
                                 shift_delta=Vec3(1, 2, 3))
        local = run_pipeline(params, MODE_LOCAL, scratch=tmp_path / "local")
        run_pipeline(params, MODE_CLUSTER, master_addr=addr)
        warm = run_pipeline(params, MODE_CLUSTER, master_addr=addr)
        assert warm.result == local.result
        assert warm.timings.counters == local.timings.counters
        for phase in ("create", "map"):
            assert warm.timings.counters[phase]["recomputed"] == params.partitions

    def test_worker_holds_one_job_after_many(self, cluster, tmp_path):
        params = BenchmarkParams(blocks=4, vectors_per_unit=64, cores=2)
        job_bytes = 2 * params.total_bytes  # source and shifted partitions
        # half a dataset, so that memory_and_disk spills in every job
        master, addr, workers = cluster(n_workers=1, budget=params.total_bytes // 2)
        for seed in range(51):
            spec = job_spec(params.replaced(seed=seed), Vec3(1, 2, 3), "memory_and_disk")
            jr = submit(addr, spec, timeout_s=60)
        assert jr.phases["create"]["spilled"] + jr.phases["map"]["spilled"] >= 1
        engine = workers[0].engine
        assert len(workers[0].datasets) <= 2
        materialized = sum(len(d.materialized) for d in workers[0].datasets)
        assert materialized <= 2 * params.partitions
        assert engine.cache.resident_bytes <= job_bytes
        engine_dirs = list((tmp_path / "w0").glob("eng-*"))
        assert engine_dirs == [engine.scratch]
        assert len(list(engine.scratch.rglob("*.bin"))) <= 2 * params.partitions


class TestWorkerProtocol:
    @pytest.mark.parametrize("slots", [0, -1, 65536])
    def test_slots_outside_u16_rejected_before_connecting(self, tmp_path, slots):
        # REGISTER carries slots as a u16, and a worker needs at least one
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            cfg = ClusterConfig(host="127.0.0.1", port=listener.getsockname()[1],
                                slots=slots, registration_retries=0)
            with pytest.raises(ConfigError, match="slots"):
                Worker(cfg, tmp_path, 1 << 26).run()
            listener.settimeout(0.2)
            with pytest.raises(socket.timeout):
                listener.accept()

    @pytest.mark.parametrize("timeout_ms", [0, -1])
    def test_nonpositive_timeout_rejected(self, tmp_path, timeout_ms):
        # the timeout paces the worker's heartbeats, which must not spin, and
        # the master's liveness timers, which 0 would fire at once
        with pytest.raises(ConfigError, match="network_timeout_ms"):
            Worker(ClusterConfig(network_timeout_ms=timeout_ms), tmp_path, 1 << 20)
        with pytest.raises(ConfigError, match="network_timeout_ms"):
            Master(ClusterConfig(network_timeout_ms=timeout_ms))

    @pytest.mark.parametrize("field, value", [
        ("network_timeout_ms", math.nan), ("network_timeout_ms", math.inf),
        ("network_timeout_ms", True), ("network_timeout_ms", 0.5),
        ("network_timeout_ms", MAX_DELAY_MS + 1), ("registration_retries", -1),
        ("expected_workers", 2.5), ("slots", "2"), ("port", 80.0)])
    def test_config_rejects_what_the_loop_cannot_time(self, field, value):
        # the master's liveness timers wait in a selector timeout, a C int of ms
        with pytest.raises(ConfigError, match=field):
            ClusterConfig(**{field: value})
        ClusterConfig(network_timeout_ms=MAX_DELAY_MS, registration_retries=0)

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_outside_u16_rejected_before_any_socket(self, port):
        # a master would fail to bind it and leak its socket
        with pytest.raises(ConfigError, match="port"):
            ClusterConfig(port=port)

    def test_malformed_task_answered_with_error_and_connection_survives(self, tmp_path):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        cfg = ClusterConfig(host="127.0.0.1", port=port, slots=1, registration_retries=0)
        worker = Worker(cfg, tmp_path, 1 << 26, name="probe")
        t = threading.Thread(target=worker.run, daemon=True)
        t.start()
        conn, _ = listener.accept()
        try:
            conn.settimeout(10)
            reg = recv_message(conn)
            assert isinstance(reg, Register)
            send_frame(conn, MessageTag.RUN, b"\x01")  # far too short
            err = recv_message(conn)
            assert isinstance(err, ErrorMsg) and err.task_id == NO_TASK
            params = BenchmarkParams(blocks=1, vectors_per_unit=8)
            run = run_of([(5, 0)], 1, spec=json.dumps(job_spec(params, Vec3(0, 0, 0))))
            send_message(conn, run)
            reply = recv_message(conn)
            assert isinstance(reply, RunResult)
            (res,) = reply.results
            assert res.task_id == 5 and res.count == 8
        finally:
            send_message(conn, Shutdown())
            t.join(timeout=10)
            conn.close()
            listener.close()

    def test_invalid_pipeline_json_answered_with_its_task_id(self, tmp_path):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        cfg = ClusterConfig(host="127.0.0.1", port=listener.getsockname()[1],
                            slots=1, registration_retries=0)
        t = threading.Thread(target=Worker(cfg, tmp_path, 1 << 26).run, daemon=True)
        t.start()
        conn, _ = listener.accept()
        try:
            conn.settimeout(10)
            recv_message(conn)
            send_message(conn, run_of([(9, 0)], spec="{not json"))
            err = recv_message(conn)
            assert isinstance(err, ErrorMsg) and err.task_id == 9
            send_message(conn, run_of([(10, 1)]))  # the same job, no spec
            err = recv_message(conn)
            assert isinstance(err, ErrorMsg) and err.task_id == 10
            good = job_spec(BenchmarkParams(blocks=1, vectors_per_unit=8), Vec3(0, 0, 0))
            stages = [{"op": "source", "params": good["params"], "storage": "none"}]
            for job_id, bad in enumerate([{"params": good["params"]},
                                          {**good, "storage": "tape"},
                                          {"stages": stages}], start=1):
                send_message(conn, run_of([(10 + job_id, 0)], job_id=job_id,
                                          spec=json.dumps(bad)))
                err = recv_message(conn)
                assert isinstance(err, ErrorMsg) and err.task_id == 10 + job_id, bad
        finally:
            send_message(conn, Shutdown())
            t.join(timeout=10)
            conn.close()
            listener.close()

    def test_failing_task_in_a_run_answered_alone(self, tmp_path):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        cfg = ClusterConfig(host="127.0.0.1", port=listener.getsockname()[1],
                            slots=1, registration_retries=0)
        t = threading.Thread(target=Worker(cfg, tmp_path, 1 << 26).run, daemon=True)
        t.start()
        conn, _ = listener.accept()
        try:
            conn.settimeout(10)
            recv_message(conn)
            params = BenchmarkParams(blocks=2, vectors_per_unit=8, cores=2)
            spec = json.dumps(job_spec(params, Vec3(0, 0, 0)))
            # the dataset has partitions 0 and 1 only
            send_message(conn, run_of([(4, 0), (5, 99), (6, 1)], spec=spec))
            err = recv_message(conn)
            assert isinstance(err, ErrorMsg) and err.task_id == 5
            assert "UnknownPartition" in err.message
            res = recv_message(conn)
            assert isinstance(res, RunResult)
            assert [(r.task_id, r.partition, r.count)
                    for r in res.results] == [(4, 0, 8), (6, 1, 8)]
        finally:
            send_message(conn, Shutdown())
            t.join(timeout=10)
            conn.close()
            listener.close()
        assert not t.is_alive()

    def test_out_of_range_stage_answered_with_its_task_id(self, tmp_path):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        cfg = ClusterConfig(host="127.0.0.1", port=listener.getsockname()[1],
                            slots=1, registration_retries=0)
        t = threading.Thread(target=Worker(cfg, tmp_path, 1 << 26).run, daemon=True)
        t.start()
        conn, _ = listener.accept()
        try:
            conn.settimeout(10)
            recv_message(conn)
            spec = json.dumps(job_spec(BenchmarkParams(blocks=1, vectors_per_unit=8), Vec3(0, 0, 0)))
            send_message(conn, run_of([(4, 0)], job_id=3, stage=1, spec=spec))
            res = recv_message(conn)
            assert isinstance(res, RunResult) and [r.task_id for r in res.results] == [4]
            send_message(conn, run_of([(5, 0)], job_id=3, stage=2))
            err = recv_message(conn)
            assert isinstance(err, ErrorMsg) and err.task_id == 5
        finally:
            send_message(conn, Shutdown())
            t.join(timeout=10)
            conn.close()
            listener.close()

    def test_failing_task_reports_error_not_silence(self, tmp_path):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        cfg = ClusterConfig(host="127.0.0.1", port=listener.getsockname()[1],
                            slots=1, registration_retries=0)
        worker = Worker(cfg, tmp_path, 1 << 26)
        t = threading.Thread(target=worker.run, daemon=True)
        t.start()
        conn, _ = listener.accept()
        try:
            conn.settimeout(10)
            recv_message(conn)
            good = job_spec(BenchmarkParams(blocks=1, vectors_per_unit=8), Vec3(0, 0, 0))
            bad = {**good, "params": {**good["params"], "blocks": 0}}
            send_message(conn, run_of([(9, 0)], spec=json.dumps(bad)))
            err = recv_message(conn)
            assert isinstance(err, ErrorMsg) and err.task_id == 9
        finally:
            send_message(conn, Shutdown())
            t.join(timeout=10)
            conn.close()
            listener.close()


class TestWorkerLoss:
    def test_sigkill_mid_job_still_completes_identically(self, tmp_path):
        cfg = ClusterConfig(port=0, expected_workers=2, slots=6)
        master = Master(cfg).start()
        procs = [spawn_worker_proc(master.port, tmp_path / f"wp{i}", 6) for i in range(2)]
        try:
            assert master.wait_ready(30), "subprocess workers never registered"
            # per-task work is sized so a worker cannot drain its whole slot
            # queue before the SIGKILL lands
            params = BenchmarkParams(blocks=48, vectors_per_unit=32768, cores=12)
            delta = Vec3(0.5, 0.5, 0.5)
            seen = []

            def hook(res, wid):
                seen.append(res.task_id)
                if len(seen) == 1:
                    procs[0].kill()

            master.on_result = hook
            jr = submit(("127.0.0.1", master.port), job_spec(params, delta), timeout_s=120)
            assert jr.result == local_run(tmp_path, params, delta)
            assert master.stats.workers_lost >= 1
            assert master.stats.rescheduled >= 1
        finally:
            master.shutdown()
            for p in procs:
                p.kill()
                p.wait(timeout=10)

    def test_holder_killed_between_phases_still_completes_identically(self, tmp_path):
        cfg = ClusterConfig(port=0, expected_workers=2, slots=2)
        master = Master(cfg).start()
        procs = [spawn_worker_proc(master.port, tmp_path / f"wp{i}", 2) for i in range(2)]
        try:
            assert master.wait_ready(30), "subprocess workers never registered"
            params = BenchmarkParams(blocks=32, vectors_per_unit=4096, cores=16)
            delta = Vec3(0.5, 0.5, 0.5)
            lock = threading.Lock()
            seen = []

            def hook(res, wid):
                with lock:
                    seen.append(wid)
                    last_create = len(seen) == params.partitions
                if last_create:
                    # every partition the killed worker holds now has a dead holder
                    procs[0].kill()

            master.on_result = hook
            jr = submit(("127.0.0.1", master.port), job_spec(params, delta), timeout_s=120)
            assert len(set(seen[:params.partitions])) == 2  # both workers held partitions
            assert jr.result == local_run(tmp_path, params, delta)
            assert jr.stats["workers_lost"] >= 1
            assert jr.stats["remote_tasks"] >= 1
        finally:
            master.shutdown()
            for p in procs:
                p.kill()
                p.wait(timeout=10)

    def test_sigstopped_holder_is_lost_in_one_timeout_and_job_completes(self, tmp_path):
        # a stopped process keeps its connection open and its runs in
        # flight; only the missing heartbeats tell the master it is gone
        timeout_ms = 1000
        cfg = ClusterConfig(port=0, expected_workers=2, slots=2, network_timeout_ms=timeout_ms)
        master = Master(cfg).start()
        procs = []
        stopped, lost_at, done = [], [], threading.Event()

        def hook(res, wid):
            if not stopped:
                os.kill(procs[wid].pid, signal.SIGSTOP)  # it holds res.partition
                stopped.append((procs[wid], time.monotonic()))

        def watch_for_loss():
            while not done.wait(0.005):
                if master.stats.workers_lost:
                    lost_at.append(time.monotonic())
                    return

        watcher = threading.Thread(target=watch_for_loss, daemon=True)
        try:
            # one at a time, so worker id i is procs[i]
            for i in range(2):
                procs.append(spawn_worker_proc(master.port, tmp_path / f"wp{i}", 2,
                                               timeout_ms=timeout_ms))
                deadline = time.monotonic() + 30
                while master.live_workers() <= i and time.monotonic() < deadline:
                    time.sleep(0.01)
            assert master.wait_ready(30), "subprocess workers never registered"
            params = BenchmarkParams(blocks=32, vectors_per_unit=4096, cores=16)
            delta = Vec3(0.5, 0.5, 0.5)
            master.on_result = hook
            watcher.start()
            jr = submit(("127.0.0.1", master.port), job_spec(params, delta), timeout_s=120)
            assert jr.result == local_run(tmp_path, params, delta)
            assert jr.stats["workers_lost"] >= 1 and jr.stats["rescheduled"] >= 1
            assert lost_at, "the stopped worker was never lost"
            # silence starts at most a quarter timeout (one beat) before the stop
            assert lost_at[0] - stopped[0][1] < timeout_ms / 1000 + 1.5
        finally:
            done.set()
            master.shutdown()
            for p in procs:
                os.kill(p.pid, signal.SIGCONT)
                p.kill()
                p.wait(timeout=10)
            if watcher.is_alive():
                watcher.join(timeout=5)


class TestRunLookahead:
    """A worker draws each run's outcomes from one Engine.run, which
    generates a cold partition of a generated source together with the
    run's next small partitions, in one generate_vectors call.  The worker
    here has no socket: what it would send is collected."""

    # 100 partitions of 2 blocks of 256 vectors: 42 partitions fill a tile
    PARAMS = BenchmarkParams(blocks=200, vectors_per_unit=256, cores=100, seed=9)

    @staticmethod
    def worker(tmp_path, params, storage="memory_only") -> tuple[Worker, list]:
        w = Worker(ClusterConfig(), tmp_path / "w", 1 << 30)
        sent = []
        w._send = sent.append
        w._open_job(0, json.dumps(job_spec(params, Vec3(0, 0, 0), storage)))
        return w, sent

    @staticmethod
    def count_calls(monkeypatch, w) -> list:
        """The rows of each generate_vectors call the engine makes."""
        real, calls = w._engine_module.generate_vectors, []

        def counted(seed, block_ids, n):
            arr = real(seed, block_ids, n)
            calls.append(arr)
            return arr

        monkeypatch.setattr(w._engine_module, "generate_vectors", counted)
        return calls

    @staticmethod
    def expected(params, p):
        return generate_vectors(params.seed, partition_blocks(params.blocks, params.partitions, p),
                                params.vectors_per_block)

    def test_cold_create_run_generates_a_tile_of_partitions_per_call(self, tmp_path,
                                                                      monkeypatch):
        params = self.PARAMS
        w, sent = self.worker(tmp_path, params)
        calls = self.count_calls(monkeypatch, w)
        try:
            w._run_tasks(run_of([(p + 7, p) for p in range(params.partitions)]))
            (res,) = sent
            assert [(r.task_id, r.partition) for r in res.results] == [
                (p + 7, p) for p in range(params.partitions)]
            assert all(r.computed for r in res.results)
            assert w.engine.counters.generate_calls == params.blocks
            assert w.engine.counters.partitions_computed == params.partitions
            assert [len(c) for c in calls] == [42 * 512, 42 * 512, 16 * 512]
            d = w.datasets[0]
            for p in range(params.partitions):
                arr = w.engine.cache.get((d, p))
                assert arr.base is None  # its own copy, not a view of a tile
                assert_bit_equal(arr, self.expected(params, p))
            assert w.engine.cache.resident_bytes == params.total_bytes
        finally:
            w.engine.close()

    def test_cached_partitions_are_not_regenerated(self, tmp_path, monkeypatch):
        params = self.PARAMS
        w, sent = self.worker(tmp_path, params)
        try:
            w._run_tasks(run_of([(p, p) for p in range(10, 20)]))
            calls = self.count_calls(monkeypatch, w)
            w._run_tasks(run_of([(100 + p, p) for p in range(40)]))
            results = sent[1].results
            assert [r.computed for r in results] == [not 10 <= p < 20 for p in range(40)]
            assert w.engine.counters.generate_calls == 2 * 40
            # groups stop short of a cached partition: 0-9, then 20-39
            assert [len(c) for c in calls] == [10 * 512, 20 * 512]
            d = w.datasets[0]
            for p in range(40):
                assert_bit_equal(w.engine.cache.get((d, p)), self.expected(params, p))
        finally:
            w.engine.close()

    @staticmethod
    def watch_tiles(monkeypatch, w) -> tuple[list, list]:
        """A weak reference to the rows of each generate_vectors call the
        engine makes, and for each call how many earlier calls' rows were
        still alive when it was made."""
        real, tiles, alive = w._engine_module.generate_vectors, [], []

        def watched(seed, block_ids, n):
            alive.append(sum(ref() is not None for ref in tiles))
            arr = real(seed, block_ids, n)
            tiles.append(weakref.ref(arr))
            return arr

        monkeypatch.setattr(w._engine_module, "generate_vectors", watched)
        return tiles, alive

    def test_run_that_fails_midway_holds_nothing_once_it_ends(self, tmp_path, monkeypatch):
        params = self.PARAMS
        w, sent = self.worker(tmp_path, params)
        tiles, _ = self.watch_tiles(monkeypatch, w)
        real_execute, held = w._execute, []

        def failing(task, outcomes):
            if task.partition == 5:
                held.append(tiles[-1]() is not None)  # the rows of 5 to 41
                raise RuntimeError("task 5 dies")
            return real_execute(task, outcomes)

        w._execute = failing
        try:
            w._run_tasks(run_of([(p, p) for p in range(params.partitions)]))
            assert held == [True] and len(tiles) == 1 and tiles[0]() is None
            # the run answers every task, those done before 5 included, with
            # its own ERROR naming the exception
            assert [(m.task_id, m.message) for m in sent] == [
                (p, "run failed: RuntimeError: task 5 dies") for p in range(params.partitions)]
            # the next run regenerates what the failed one held
            w._execute = real_execute
            w._run_tasks(run_of([(p, p) for p in range(5, 10)]))
            assert [r.computed for r in sent[-1].results] == [True] * 5
            assert len(tiles) == 2
        finally:
            w.engine.close()

    def test_held_rows_never_exceed_one_tile(self, tmp_path, monkeypatch):
        # 300 partitions, 7 tiles of rows, at storage none so nothing is
        # cached: each tile is dropped before the next is generated, and the
        # traced peak is one call's result and scratch tiles, numpy's
        # iteration buffers and a partition's copy, where holding the whole
        # run would take all 7 tiles
        params = BenchmarkParams(blocks=600, vectors_per_unit=256, cores=300)
        w, sent = self.worker(tmp_path, params, storage="none")
        tile = _GEN_CHUNK * 8
        tiles, alive = self.watch_tiles(monkeypatch, w)
        try:
            w._run_tasks(run_of([(p, p) for p in range(2)]))  # warm up
            tracemalloc.start()
            try:
                w._run_tasks(run_of([(p, p) for p in range(params.partitions)]))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(r.computed for r in sent[-1].results)
            assert w.engine.counters.generate_calls == 2 * 2 + params.blocks
            # the warm-up's tile, then 0 and 1 alone, each materialized
            # before, then 8 tiles of the cold ones
            assert alive == [0] * (1 + 2 + 8)
            assert all(ref() is None for ref in tiles)
            assert peak < 3 * tile + (1 << 18) < params.total_bytes / 2
        finally:
            w.engine.close()

    def test_concurrent_runs_compute_each_partition_once(self, tmp_path):
        # four slots run the same cold create run in different orders with a
        # short switch interval: a thread may generate rows ahead that another
        # then computes first, yet each partition is computed exactly once,
        # under its lock, and every payload has its oracle bits
        params = self.PARAMS
        w, sent = self.worker(tmp_path, params)
        parts = list(range(params.partitions))
        orders = [parts, parts[::-1], parts[1::2] + parts[::2], parts[50:] + parts[:50]]
        errors = []

        def run(order):
            try:
                w._run_tasks(run_of([(p, p) for p in order]))
            except Exception as e:  # noqa: BLE001 - re-raised by the assertion below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in threads) and not errors
            results = [r for res in sent for r in res.results]
            assert len(results) == len(orders) * params.partitions
            assert sum(r.computed for r in results) == params.partitions
            assert w.engine.counters.partitions_computed == params.partitions
            d = w.datasets[0]
            for p in parts:
                assert_bit_equal(w.engine.cache.get((d, p)), self.expected(params, p))
        finally:
            w.engine.close()


class TestReduceRun:
    """In a worker's reduce run, Engine.run folds a task's small partition
    together with the run's next ones, a tile of them in one leftfold_sum
    call, and each task still gets its own answer.  As above, the worker
    has no socket."""

    # 100 partitions of 512 rows: 10 of them fill a fold tile
    PARAMS = TestRunLookahead.PARAMS

    @staticmethod
    def worker(tmp_path, params, storage="memory_only", budget=1 << 30):
        w = Worker(ClusterConfig(), tmp_path / "w", budget)
        sent = []
        w._send = sent.append
        w._open_job(0, json.dumps(job_spec(params, Vec3(0.5, -1.0, 2.0), storage)))
        return w, sent

    @staticmethod
    def count_folds(monkeypatch, w) -> list:
        """The row counts of the arrays of each leftfold_sum call."""
        real, calls = w._engine_module.leftfold_sum, []

        def counted(arrays):
            calls.append([a.shape[0] for a in arrays])
            return real(arrays)

        monkeypatch.setattr(w._engine_module, "leftfold_sum", counted)
        return calls

    @staticmethod
    def reduce_run(w, partitions, stage=1):
        w._run_tasks(run_of([(1000 + p, p) for p in partitions], ACTION_PARTIAL_REDUCE,
                            stage=stage))

    @staticmethod
    def fold_alone(w, d, p) -> bytes:
        arr = w.engine.materialize(d, p)[0]
        return w._engine_module.leftfold_sum([arr])[0].tobytes()

    def test_run_answers_in_task_order_with_the_bits_of_a_fold_alone(self, tmp_path,
                                                                      monkeypatch):
        params = self.PARAMS
        w, sent = self.worker(tmp_path, params)
        try:
            w._run_tasks(run_of([(p, p) for p in range(params.partitions)]))
            w._run_tasks(run_of([(p, p) for p in range(params.partitions)], stage=1))
            calls = self.count_folds(monkeypatch, w)
            self.reduce_run(w, range(params.partitions))
            assert calls == [[512] * 10] * 10  # one call per tile
            (res,) = sent[2:]
            assert [(r.task_id, r.partition, r.count) for r in res.results] == [
                (1000 + p, p, 512) for p in range(params.partitions)]
            assert not any(r.computed for r in res.results)
            d = w.datasets[1]
            for r in res.results:
                got = struct.pack("<3d", r.sum_x, r.sum_y, r.sum_z)
                assert got == self.fold_alone(w, d, r.partition)
        finally:
            w.engine.close()

    def test_every_task_of_an_unpersisted_run_reports_computed(self, tmp_path):
        params = self.PARAMS
        w, sent = self.worker(tmp_path, params, storage="none")
        try:
            self.reduce_run(w, range(params.partitions))
            (res,) = sent
            assert len(res.results) == params.partitions
            assert all(r.computed for r in res.results)
            assert w.engine.counters.partitions_computed == 2 * params.partitions
        finally:
            w.engine.close()

    def test_spills_are_counted_per_task(self, tmp_path):
        # a cache of a quarter of one stage, and a reduce of the map stage,
        # never forced: each task computes its partition and inserts it,
        # evicting others, and each spill is the task's whose materialize it
        # ran in, also when that task's partition was read ahead of its turn
        params = self.PARAMS
        w, sent = self.worker(tmp_path, params, storage="memory_and_disk",
                              budget=params.total_bytes // 4)
        try:
            w._run_tasks(run_of([(p, p) for p in range(params.partitions)]))
            current, writes = [None], {}
            real_materialize, real_spill = w.engine.materialize, w.engine._spill_write

            def materialize(d, p):
                current[0] = p
                return real_materialize(d, p)

            def spill(key, arr):
                writes[current[0]] = writes.get(current[0], 0) + 1
                return real_spill(key, arr)

            w.engine.materialize, w.engine._spill_write = materialize, spill
            order = list(range(params.partitions))[::-1]  # the newest sources are cached
            self.reduce_run(w, order)
            results = sent[-1].results
            assert [r.partition for r in results] == order
            assert all(r.computed for r in results)
            assert [r.spilled for r in results] == [writes.get(p, 0) for p in order]
            # some task read ahead of its turn spilled: not only a tile's first
            assert any(r.spilled for i, r in enumerate(results) if i % 10)
            # a reduce of the now forced stage reads spills back, evicting
            # nothing, so it spills nothing
            before = w.engine.counters.spill_writes
            self.reduce_run(w, range(params.partitions))
            results = sent[-1].results
            assert not any(r.computed or r.spilled for r in results)
            assert w.engine.counters.spill_writes == before
        finally:
            w.engine.close()

    def test_missing_block_file_fails_its_task_alone(self, tmp_path, monkeypatch):
        root = tmp_path / "blocks"
        root.mkdir()
        codec = RecordCodec(24)
        for b in range(20):
            (root / f"b{b:02d}.bin").write_bytes(encode_vectors(generate_vectors(3, b, 16), codec))
        params = BenchmarkParams(blocks=20, vectors_per_unit=16, cores=20,
                                 source=LoadBinary(str(root), 24))
        w, sent = self.worker(tmp_path, params, storage="none")
        calls = self.count_folds(monkeypatch, w)
        try:
            (root / "b05.bin").unlink()
            self.reduce_run(w, range(20), stage=0)
            err, res = sent
            assert isinstance(err, ErrorMsg) and err.task_id == 1005
            assert err.message.startswith("RecomputeFailure: block file unreadable")
            assert [r.partition for r in res.results] == [p for p in range(20) if p != 5]
            # the tile ends before partition 5, which raises again on its turn
            assert calls == [[16] * 5, [16] * 14]
            for r in res.results:
                want = w._engine_module.leftfold_sum(
                    [generate_vectors(3, r.partition, 16)])[0].tobytes()
                assert struct.pack("<3d", r.sum_x, r.sum_y, r.sum_z) == want
        finally:
            w.engine.close()

    def test_nothing_is_held_once_the_run_ends(self, tmp_path, monkeypatch):
        params = self.PARAMS
        w, sent = self.worker(tmp_path, params)
        real_execute, runs = w._execute, []

        def failing(task, outcomes):
            if task.partition == 13:
                # the tile of 10 to 19 is folded, its answers 13 to 19 held
                runs.append(weakref.ref(outcomes))
                raise RuntimeError("task 13 dies")
            return real_execute(task, outcomes)

        try:
            self.reduce_run(w, range(params.partitions))
            w._execute = failing
            calls = self.count_folds(monkeypatch, w)
            self.reduce_run(w, range(params.partitions))
            assert calls == [[512] * 10] * 2
            # the generator, and the answers it held, do not outlive the run
            assert len(runs) == 1 and runs[0]() is None
            assert {m.message for m in sent[1:]} == {"run failed: RuntimeError: task 13 dies"}
            assert [m.task_id for m in sent[1:]] == [1000 + p for p in range(params.partitions)]
            # the next run folds again what the failed one held
            w._execute = real_execute
            calls.clear()
            self.reduce_run(w, range(13, 20))
            assert calls == [[512] * 7]
            assert [r.partition for r in sent[-1].results] == list(range(13, 20))
        finally:
            w.engine.close()

    def test_mixed_partition_sizes_on_unequal_workers_match_local(self, tmp_path):
        # 250 blocks over 100 partitions: tiles of 2- and 3-block partitions,
        # on a 2-slot and a 1-slot worker
        params = BenchmarkParams(blocks=250, vectors_per_unit=256, cores=100, seed=23)
        delta = Vec3(0.125, -2.5, 1e3)
        master = Master(ClusterConfig(port=0, expected_workers=2)).start()
        workers, threads = [], []
        for i, slots in enumerate((2, 1)):
            workers.append(Worker(ClusterConfig(port=master.port, slots=slots),
                                  tmp_path / f"w{i}", 1 << 30))
            threads.append(threading.Thread(target=workers[-1].run, daemon=True))
            threads[-1].start()
        try:
            assert master.wait_ready(15)
            got = submit(("127.0.0.1", master.port), job_spec(params, delta), timeout_s=60)
            local = local_run(tmp_path, params, delta)
            assert struct.pack("<3d", *got.result.as_tuple()) == struct.pack(
                "<3d", *local.as_tuple())
            assert got.phases["reduce"]["bytes"] == params.total_bytes
        finally:
            master.shutdown()
            for w in workers:
                w.stop()
            for t in threads:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)


class TestNeverSilentRuns:
    """A run that raises outside its tasks still answers each of them."""

    def test_a_result_that_will_not_send_fails_its_job_fast(self, cluster, monkeypatch):
        real_send = Worker._send

        def refusing(self, msg):
            if isinstance(msg, RunResult):
                raise ProtocolError("result refused")
            real_send(self, msg)

        monkeypatch.setattr(Worker, "_send", refusing)
        master, addr, _ = cluster(n_workers=1, slots=2)
        params = BenchmarkParams(blocks=8, vectors_per_unit=64, cores=8)
        t0 = time.monotonic()
        with pytest.raises(JobFailure) as failure:
            submit(addr, job_spec(params, Vec3(1.0, 2.0, 3.0)), timeout_s=10)
        assert time.monotonic() - t0 < 5
        causes = failure.value.causes
        assert sorted(map(int, causes)) == list(range(params.partitions))
        assert set(causes.values()) == {"run failed: ProtocolError: result refused"}
        assert master.stats.workers_lost == 0

    def test_a_run_that_cannot_answer_stops_its_worker(self, tmp_path):
        params = BenchmarkParams(blocks=8, vectors_per_unit=64, cores=8)
        w = Worker(ClusterConfig(), tmp_path / "w", 1 << 30)
        tried = []

        def refusing(msg):
            tried.append(msg)
            raise ProtocolError("nothing sends")

        w._send = refusing
        w._open_job(0, json.dumps(job_spec(params, Vec3(0, 0, 0))))
        try:
            w._run_tasks(run_of([(p, p) for p in range(params.partitions)]))
            assert [type(m) for m in tried] == [RunResult, ErrorMsg]
            assert w._stop.is_set()
        finally:
            w.engine.close()


class TestLazySeam:
    """A worker's tasks draw their outcomes inside their own _execute, so
    a per-task span covers the task's share of the run's work."""

    # 100 partitions of 512 rows: 42 fill a generate tile, 10 a fold tile
    PARAMS = TestRunLookahead.PARAMS

    def test_each_task_materializes_inside_its_own_execute(self, tmp_path, monkeypatch):
        params = self.PARAMS
        w = Worker(ClusterConfig(), tmp_path / "w", 1 << 30)
        sent = []
        w._send = sent.append
        w._open_job(0, json.dumps(job_spec(params, Vec3(0.5, -1.0, 2.0))))
        real_execute, real_materialize = Worker._execute, Engine._materialize
        inside, seen = [None], []

        def execute(self, task, *rest):
            inside[0] = task.partition
            try:
                return real_execute(self, task, *rest)
            finally:
                inside[0] = None

        def materialize(self, d, p, *rest):
            seen.append((d.dataset_id, p, inside[0]))
            return real_materialize(self, d, p, *rest)

        monkeypatch.setattr(Worker, "_execute", execute)
        monkeypatch.setattr(Engine, "_materialize", materialize)
        source, shifted = (d.dataset_id for d in w.datasets)
        parts = range(params.partitions)
        try:
            w._run_tasks(run_of([(p, p) for p in parts]))
            assert seen == [(source, p, p) for p in parts]
            seen.clear()
            w._run_tasks(run_of([(100 + p, p) for p in parts], ACTION_PARTIAL_REDUCE, stage=1))
            # a fold tile of 10 partitions is made inside its first task
            assert [(d, p, task) for d, p, task in seen if d == shifted] == [
                (shifted, p, p - p % 10) for p in parts]
            assert [len(res.results) for res in sent] == [params.partitions] * 2
        finally:
            w.engine.close()


class TestIEEESpecials:
    """Records of 1e308, whose shift and fold overflow, and a signalling
    nan run where RuntimeWarning is an error, locally at every storage level
    and on a worker, with the bits of the same job run with warnings
    ignored.  nan bits are compared between engine paths, not with
    tests/reference.py, whose fold does not fix a nan payload."""

    DELTA = Vec3(1e308, -1e308, 0.5)

    @staticmethod
    def params(tmp_path) -> BenchmarkParams:
        root = tmp_path / "specials"
        root.mkdir()
        snan = np.frombuffer(struct.pack("<Q", 0x7FF0000000000001), np.float64)[0]
        rng = np.random.default_rng(11)
        for b in range(8):
            rows = rng.choice([1e308, -1e308, 1.5, -0.0], size=(16, 3))
            if b == 3:
                rows[5, 1] = snan
            (root / f"b{b}.bin").write_bytes(encode_vectors(rows, RecordCodec(24)))
        return BenchmarkParams(blocks=8, vectors_per_unit=16, cores=4, seed=1,
                               source=LoadBinary(str(root), 24), shift_delta=TestIEEESpecials.DELTA)

    @staticmethod
    def bits(v: Vec3) -> bytes:
        return struct.pack("<3d", *v.as_tuple())

    @pytest.mark.filterwarnings("error")
    def test_jobs_run_where_warnings_are_errors(self, tmp_path):
        params = self.params(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = self.bits(run_pipeline(params, scratch=tmp_path / "ignored",
                                          storage=StorageLevel.NONE).result)
        assert math.isnan(struct.unpack("<3d", want)[1])
        for level in StorageLevel:
            got = run_pipeline(params, scratch=tmp_path / level.value, storage=level,
                               memory_budget=params.total_bytes // 2).result
            assert self.bits(got) == want, level
        w = Worker(ClusterConfig(), tmp_path / "w", params.total_bytes // 2)
        sent = []
        w._send = sent.append
        w._open_job(0, json.dumps(job_spec(params, self.DELTA, "memory_and_disk")))
        tasks = [(p, p) for p in range(params.partitions)]
        try:
            w._run_tasks(run_of(tasks))
            w._run_tasks(run_of(tasks, stage=1))
            w._run_tasks(run_of(tasks, ACTION_PARTIAL_REDUCE, stage=1))
        finally:
            w.engine.close()
        assert all(isinstance(m, RunResult) for m in sent)
        results = sent[-1].results
        mean = combine_partials(((r.sum_x, r.sum_y, r.sum_z), r.count) for r in results)
        assert self.bits(mean) == want
