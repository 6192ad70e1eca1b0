"""Standalone master/worker execution of engine pipelines over TCP.

Wire format: every frame is a 4-byte big-endian length prefix (counting the
tag byte plus payload), one tag byte, then a tag-specific payload whose
integers are little-endian and whose floats are IEEE-754 little-endian.
Partial reduce sums cross the wire as raw float64 bits, so the distributed
result is bit-identical to a single-process run at the same partition count.
A job is its params and storage level.  A TASK names its job and the stage
it reads, 0 (the source) or 1 (the shifted source); a job's spec rides only
on the first TASK each worker gets in that job.  Workers run each job on a
fresh engine, so every job is computed from scratch, as a local run is.

Scheduling places each task on its partition's holder: the worker that
returned that partition's last result in the job, and so has its parent
partition cached.  The master pushes up to `slots` tasks to each worker and
sends the next whenever a result arrives: the worker's own held tasks
first, then tasks no live worker holds, and only then the tail of the
longest queue of another holder whose slots are all busy.  A dead worker's
in-flight and held tasks are requeued to survivors, which rebuild them from
lineage; that is safe because every task is a pure function of its job's
spec, its stage and its partition, and the result bits do not depend
on placement because partial sums combine in partition order.

The master runs each job through engine.run_job, the driver local runs use
too; its phase runner turns a phase into one task per partition and
combines partial sums with engine.combine_partials.  A RESULT carries the
spill writes its task triggered, so cluster phases report the same
{bytes, recomputed, spilled} counters as local ones.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import partial

from .core import BenchmarkParams, Vec3
from .engine import (Dataset, Engine, StorageLevel, build_pipeline, combine_partials,
                     leftfold_sum, phase_counts, run_job)
from .errors import ScalemapError

MAX_FRAME = 64 * 1024 * 1024


class ProtocolError(ScalemapError):
    pass


class TruncatedFrame(ProtocolError):
    pass


class BindFailure(ScalemapError):
    pass


class ConnectFailure(ScalemapError):
    pass


class JobFailure(ScalemapError):
    def __init__(self, message: str, causes: dict | None = None):
        super().__init__(message)
        self.causes = causes or {}


class MessageTag(IntEnum):
    REGISTER = 1
    TASK = 2
    RESULT = 3
    HEARTBEAT = 4
    ERROR = 5
    SHUTDOWN = 6
    PING = 7
    DATA = 8
    SUBMIT = 9
    JOB_DONE = 10


ACTION_FORCE = 0
ACTION_PARTIAL_REDUCE = 1


# ---- messages -------------------------------------------------------------

@dataclass(frozen=True)
class Register:
    slots: int
    name: str = ""


@dataclass(frozen=True)
class Task:
    task_id: int
    partition: int
    action: int
    pipeline_json: str  # the job's spec on a worker's first task of a job, else ""
    job_id: int = 0  # a worker runs each job on its own engine
    stage: int = 0  # the dataset the task reads: 0 the source, 1 the shifted source


@dataclass(frozen=True)
class TaskResult:
    task_id: int
    partition: int
    action: int
    sum_x: float
    sum_y: float
    sum_z: float
    count: int
    nbytes: int
    computed: bool
    spilled: int = 0  # spill files the task's materialize wrote


@dataclass(frozen=True)
class Heartbeat:
    seq: int


@dataclass(frozen=True)
class ErrorMsg:
    task_id: int
    message: str


@dataclass(frozen=True)
class Shutdown:
    pass


@dataclass(frozen=True)
class Ping:
    nonce: bytes


@dataclass(frozen=True)
class Data:
    payload: bytes


@dataclass(frozen=True)
class Submit:
    job_json: str


@dataclass(frozen=True)
class JobDone:
    report_json: str


_REGISTER = struct.Struct("<H")
_TASK = struct.Struct("<IIBIH")
_RESULT = struct.Struct("<IIBdddQQBI")
_HEARTBEAT = struct.Struct("<I")
_ERROR = struct.Struct("<I")


def encode_message(msg) -> tuple[int, bytes]:
    """Returns (tag, payload)."""
    if isinstance(msg, Register):
        return MessageTag.REGISTER, _REGISTER.pack(msg.slots) + msg.name.encode()
    if isinstance(msg, Task):
        head = _TASK.pack(msg.task_id, msg.partition, msg.action, msg.job_id, msg.stage)
        return MessageTag.TASK, head + msg.pipeline_json.encode()
    if isinstance(msg, TaskResult):
        return MessageTag.RESULT, _RESULT.pack(
            msg.task_id, msg.partition, msg.action,
            msg.sum_x, msg.sum_y, msg.sum_z,
            msg.count, msg.nbytes, int(msg.computed), msg.spilled)
    if isinstance(msg, Heartbeat):
        return MessageTag.HEARTBEAT, _HEARTBEAT.pack(msg.seq)
    if isinstance(msg, ErrorMsg):
        return MessageTag.ERROR, _ERROR.pack(msg.task_id) + msg.message.encode()
    if isinstance(msg, Shutdown):
        return MessageTag.SHUTDOWN, b""
    if isinstance(msg, Ping):
        return MessageTag.PING, msg.nonce
    if isinstance(msg, Data):
        return MessageTag.DATA, msg.payload
    if isinstance(msg, Submit):
        return MessageTag.SUBMIT, msg.job_json.encode()
    if isinstance(msg, JobDone):
        return MessageTag.JOB_DONE, msg.report_json.encode()
    raise ProtocolError(f"cannot encode {type(msg).__name__}")


def decode_message(tag: int, payload: bytes):
    try:
        if tag == MessageTag.REGISTER:
            (slots,) = _REGISTER.unpack_from(payload)
            return Register(slots, payload[_REGISTER.size:].decode())
        if tag == MessageTag.TASK:
            tid, part, action, job, stage = _TASK.unpack_from(payload)
            return Task(tid, part, action, payload[_TASK.size:].decode(), job, stage)
        if tag == MessageTag.RESULT:
            f = _RESULT.unpack(payload)
            return TaskResult(*f[:8], bool(f[8]), f[9])
        if tag == MessageTag.HEARTBEAT:
            return Heartbeat(_HEARTBEAT.unpack(payload)[0])
        if tag == MessageTag.ERROR:
            (tid,) = _ERROR.unpack_from(payload)
            return ErrorMsg(tid, payload[_ERROR.size:].decode())
        if tag == MessageTag.SHUTDOWN:
            return Shutdown()
        if tag == MessageTag.PING:
            return Ping(payload)
        if tag == MessageTag.DATA:
            return Data(payload)
        if tag == MessageTag.SUBMIT:
            return Submit(payload.decode())
        if tag == MessageTag.JOB_DONE:
            return JobDone(payload.decode())
    except (struct.error, UnicodeDecodeError) as e:
        raise ProtocolError(f"malformed payload for tag {tag}: {e}") from e
    raise ProtocolError(f"unknown message tag {tag}")


# ---- framing ----------------------------------------------------------------

def send_frame(sock: socket.socket, tag: int, payload: bytes):
    if 1 + len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame too large: {len(payload)} bytes")
    sock.sendall(struct.pack(">I", 1 + len(payload)) + bytes([tag]) + payload)


def send_message(sock: socket.socket, msg):
    tag, payload = encode_message(msg)
    send_frame(sock, tag, payload)


def recvall(sock: socket.socket, n: int) -> bytes | None:
    """None on clean EOF at a frame boundary start; TruncatedFrame mid-read."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise TruncatedFrame(f"connection closed {got}/{n} bytes into a read")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Returns (tag, payload), or None on clean EOF between frames."""
    head = recvall(sock, 4)
    if head is None:
        return None
    (length,) = struct.unpack(">I", head)
    if length < 1 or length > MAX_FRAME:
        raise ProtocolError(f"bad frame length {length}")
    body = recvall(sock, length)
    if body is None:
        raise TruncatedFrame("connection closed before frame body")
    return body[0], body[1:]


def recv_message(sock: socket.socket):
    frame = recv_frame(sock)
    if frame is None:
        return None
    return decode_message(*frame)


def parse_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ScalemapError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


# ---- configuration ---------------------------------------------------------

@dataclass
class ClusterConfig:
    host: str = "127.0.0.1"
    port: int = 0
    expected_workers: int = 1
    heartbeat_interval_ms: int = 0
    network_timeout_ms: int = 120_000
    slots: int = 1
    registration_retries: int = 1


@dataclass(frozen=True)
class JobResult:
    result: Vec3 | None
    timings: dict
    phases: dict
    stats: dict


@dataclass
class MasterStats:
    rescheduled: int = 0
    heartbeats: dict = field(default_factory=dict)
    worker_errors: int = 0
    workers_lost: int = 0
    remote_tasks: int = 0  # tasks sent to a worker other than the partition's holder


class _WorkerConn:
    def __init__(self, wid: int, sock: socket.socket, slots: int, name: str):
        self.wid = wid
        self.sock = sock
        self.slots = max(1, slots)
        self.name = name or f"worker-{wid}"
        self.alive = True
        self.in_flight: set[int] = set()
        self.spec_job: int | None = None  # the job whose spec it was last sent
        self.wlock = threading.Lock()


class _Phase:
    """Scheduling state for one wave of tasks; guarded by the master lock.

    A pending task waits in the queue of its partition's holder (holders
    maps partition to worker id), or in the unheld queue when the partition
    has no live holder.
    """

    def __init__(self, tasks: dict[int, Task], holders: dict[int, int | None]):
        self.tasks = tasks
        self.queues: dict[int, deque] = {}
        self.unheld: deque = deque()
        for tid in sorted(tasks):
            wid = holders.get(tasks[tid].partition)
            (self.unheld if wid is None else self.queues.setdefault(wid, deque())).append(tid)
        self.done: dict[int, TaskResult] = {}
        self.failed: dict[int, str] = {}
        self.finished = threading.Event()
        self.aborted: str | None = None

    def complete(self) -> bool:
        return len(self.done) + len(self.failed) == len(self.tasks)

    def take(self, wid: int, busy) -> int | None:
        """The next task for free worker wid, or None: the head of its own
        queue, else the head of the unheld queue, else the tail of the
        longest other queue whose holder is busy (busy(holder) is true when
        every slot of that holder is taken)."""
        if self.queues.get(wid):
            return self.queues[wid].popleft()
        if self.unheld:
            return self.unheld.popleft()
        victims = [h for h, q in self.queues.items() if q and busy(h)]  # own queue is empty
        if not victims:
            return None
        return self.queues[max(victims, key=lambda h: len(self.queues[h]))].pop()

    def drop_worker(self, wid: int, in_flight) -> int:
        """Moves a lost worker's unanswered in-flight tasks and its queue to
        the unheld queue; returns how many in-flight tasks were requeued."""
        requeue = sorted(tid for tid in in_flight if tid not in self.done)
        self.unheld.extend(requeue)
        self.unheld.extend(self.queues.pop(wid, ()))
        return len(requeue)


class Master:
    """Accepts worker registrations and client job submissions on one port.

    Worker connections send REGISTER then stream RESULT/HEARTBEAT/ERROR;
    client connections send SUBMIT (answered with JOB_DONE), PING (echoed),
    or SHUTDOWN (stops the whole cluster).
    """

    def __init__(self, cfg: ClusterConfig):
        self.cfg = cfg
        self.stats = MasterStats()
        self.on_result = None  # test hook: called as on_result(task_result, worker_id)
        self._lock = threading.RLock()
        self._workers: dict[int, _WorkerConn] = {}
        self._next_wid = 0
        self._next_tid = 0
        self._next_job = 0
        self._ready = threading.Event()
        self._stopping = threading.Event()
        self._phase: _Phase | None = None
        # partition -> worker that returned its last result in the current
        # job; None once that worker is lost
        self._holders: dict[int, int | None] = {}
        self._spec_json = ""  # the current job's spec
        self._job_lock = threading.Lock()
        self._listener: socket.socket | None = None
        if cfg.expected_workers <= 0:
            self._ready.set()

    # -- lifecycle

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self):
        try:
            # sets SO_REUSEADDR, and closes the socket if bind or listen fails
            sock = socket.create_server((self.cfg.host, self.cfg.port), backlog=128)
        except OSError as e:
            raise BindFailure(f"cannot bind {self.cfg.host}:{self.cfg.port}: {e}") from e
        self._listener = sock
        threading.Thread(target=self._accept_loop, daemon=True, name="master-accept").start()
        return self

    def wait_ready(self, timeout_s: float | None = None) -> bool:
        return self._ready.wait(timeout_s)

    def wait_stopped(self, timeout_s: float | None = None) -> bool:
        return self._stopping.wait(timeout_s)

    def shutdown(self):
        if self._stopping.is_set():
            return
        self._stopping.set()
        with self._lock:
            workers = list(self._workers.values())
        for w in workers:
            try:
                with w.wlock:
                    send_message(w.sock, Shutdown())
                w.sock.close()
            except OSError:
                pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    def live_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if w.alive)

    # -- connection handling

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()

    def _serve_conn(self, sock: socket.socket):
        sock.settimeout(self.cfg.network_timeout_ms / 1000.0)
        try:
            first = recv_message(sock)
        except (ProtocolError, OSError, socket.timeout):
            sock.close()
            return
        if isinstance(first, Register):
            self._serve_worker(sock, first)
        else:
            self._serve_client(sock, first)

    def _serve_worker(self, sock: socket.socket, reg: Register):
        with self._lock:
            w = _WorkerConn(self._next_wid, sock, reg.slots, reg.name)
            self._next_wid += 1
            self._workers[w.wid] = w
            self.stats.heartbeats.setdefault(w.wid, 0)
            if sum(1 for x in self._workers.values() if x.alive) >= self.cfg.expected_workers:
                self._ready.set()
            self._pump()
        while not self._stopping.is_set():
            try:
                msg = recv_message(sock)
            except socket.timeout:
                with self._lock:
                    busy = bool(w.in_flight)
                if busy:
                    self._worker_lost(w, f"no response within {self.cfg.network_timeout_ms} ms")
                    return
                continue
            except (ProtocolError, OSError):
                self._worker_lost(w, "connection error")
                return
            if msg is None:
                self._worker_lost(w, "connection closed")
                return
            if isinstance(msg, Heartbeat):
                with self._lock:
                    self.stats.heartbeats[w.wid] += 1
            elif isinstance(msg, TaskResult):
                self._on_result(w, msg)
            elif isinstance(msg, ErrorMsg):
                self._on_error(w, msg)

    def _serve_client(self, sock: socket.socket, first):
        msg = first
        try:
            while msg is not None and not self._stopping.is_set():
                if isinstance(msg, Submit):
                    report = self._run_job(json.loads(msg.job_json))
                    send_message(sock, JobDone(json.dumps(report)))
                elif isinstance(msg, Ping):
                    send_message(sock, Ping(msg.nonce))
                elif isinstance(msg, Shutdown):
                    self.shutdown()
                    return
                else:
                    return
                msg = recv_message(sock)
        except (ProtocolError, OSError, socket.timeout):
            pass
        finally:
            sock.close()

    # -- scheduling

    def _busy(self, wid: int) -> bool:
        w = self._workers[wid]
        return len(w.in_flight) >= w.slots

    def _pump(self):
        """Dispatch pending tasks to free slots; caller holds the lock."""
        phase = self._phase
        while phase is not None:
            free = sorted((w for w in self._workers.values()
                           if w.alive and len(w.in_flight) < w.slots),
                          key=lambda x: (len(x.in_flight), x.wid))
            for w in free:
                tid = phase.take(w.wid, self._busy)
                if tid is not None:
                    break
            else:
                return
            task = phase.tasks[tid]
            # a partition absent from _holders was never computed in this job
            if self._holders.get(task.partition, w.wid) != w.wid:
                self.stats.remote_tasks += 1
            if w.spec_job != task.job_id:
                task = replace(task, pipeline_json=self._spec_json)
                w.spec_job = task.job_id
            w.in_flight.add(tid)
            try:
                with w.wlock:
                    send_message(w.sock, task)
            except OSError:
                self._worker_lost_locked(w, "send failed")
                phase = self._phase

    def _on_result(self, w: _WorkerConn, res: TaskResult):
        hook = None
        with self._lock:
            w.in_flight.discard(res.task_id)
            phase = self._phase
            if phase is not None and res.task_id in phase.tasks and res.task_id not in phase.done:
                phase.done[res.task_id] = res
                if w.alive:
                    self._holders[res.partition] = w.wid
                if phase.complete():
                    phase.finished.set()
            self._pump()
            if self.on_result is not None:
                hook = self.on_result
        if hook is not None:
            hook(res, w.wid)

    def _on_error(self, w: _WorkerConn, err: ErrorMsg):
        with self._lock:
            self.stats.worker_errors += 1
            w.in_flight.discard(err.task_id)
            phase = self._phase
            if phase is not None and err.task_id in phase.tasks:
                task = phase.tasks[err.task_id]
                phase.failed[task.partition] = err.message
                if phase.complete():
                    phase.finished.set()
            self._pump()

    def _worker_lost(self, w: _WorkerConn, why: str):
        with self._lock:
            self._worker_lost_locked(w, why)

    def _worker_lost_locked(self, w: _WorkerConn, why: str):
        if not w.alive:
            return
        w.alive = False
        self.stats.workers_lost += 1
        try:
            w.sock.close()
        except OSError:
            pass
        for p, wid in self._holders.items():
            if wid == w.wid:
                self._holders[p] = None
        phase = self._phase
        if phase is not None:
            self.stats.rescheduled += phase.drop_worker(w.wid, w.in_flight)
        w.in_flight.clear()
        if not any(x.alive for x in self._workers.values()):
            if phase is not None:
                phase.aborted = f"no live workers remain (last lost: {w.name}: {why})"
                phase.finished.set()
        else:
            self._pump()

    # -- job orchestration

    def _run_job(self, job: dict) -> dict:
        with self._job_lock:
            try:
                return self._run_job_inner(job)
            except JobFailure as e:
                return {"ok": False, "error": str(e),
                        "causes": {str(k): v for k, v in e.causes.items()}}
            except Exception as e:  # noqa: BLE001 - client must always get a reply
                return {"ok": False, "error": f"{type(e).__name__}: {e}", "causes": {}}

    def _run_job_inner(self, job: dict) -> dict:
        if not self.wait_ready(self.cfg.network_timeout_ms / 1000.0):
            raise JobFailure("master not ready: expected workers never registered")
        partitions = BenchmarkParams.from_json_dict(job["params"]).partitions
        job_id = self._next_job  # the caller holds _job_lock
        self._next_job += 1
        with self._lock:
            self._holders = {}
            self._spec_json = json.dumps({"params": job["params"], "storage": job["storage"]})
            before = replace(self.stats)  # cumulative; the report gives this job's share

        def counts(results) -> dict:
            return phase_counts((r.nbytes, r.computed, r.spilled) for r in results)

        def force(i) -> dict:
            return counts(self._run_phase(ACTION_FORCE, i, partitions, job_id))

        def reduce() -> tuple[Vec3, dict]:
            results = self._run_phase(ACTION_PARTIAL_REDUCE, 1, partitions, job_id)
            mean = combine_partials(((r.sum_x, r.sum_y, r.sum_z), r.count) for r in results)
            return mean, counts(results)

        timings, phases, result = run_job(force, reduce, bool(job.get("skip_reduce", False)))
        return {
            "ok": True,
            "result": None if result is None else list(result.as_tuple()),
            "timings": timings,
            "phases": phases,
            "stats": {
                **{k: getattr(self.stats, k) - getattr(before, k)
                   for k in ("rescheduled", "workers_lost", "worker_errors", "remote_tasks")},
                "workers": self.live_workers(),
                "partitions": partitions,
            },
        }

    def _run_phase(self, action: int, stage: int, partitions: int, job_id: int) -> list[TaskResult]:
        """One task per partition; the results in ascending partition order."""
        with self._lock:
            tasks = {}
            for p in range(partitions):
                tasks[self._next_tid] = Task(self._next_tid, p, action, "", job_id, stage)
                self._next_tid += 1
            phase = _Phase(tasks, self._holders)
            self._phase = phase
            if not any(w.alive for w in self._workers.values()):
                phase.aborted = "no live workers"
                phase.finished.set()
            else:
                self._pump()
        phase.finished.wait()
        with self._lock:
            self._phase = None
        if phase.aborted:
            raise JobFailure(f"NoWorkers: {phase.aborted}")
        if phase.failed:
            raise JobFailure(f"{len(phase.failed)} partition(s) failed", causes=phase.failed)
        return [phase.done[tid] for tid in phase.tasks]  # tasks were made in partition order


# ---- worker ------------------------------------------------------------------

class Worker:
    """Executes tasks against a local engine, one concurrent task per slot.

    The first task of a new job id opens the job on a fresh engine, building
    its datasets (engine.build_pipeline) from the job spec that task
    carries; a task reads datasets[task.stage], and every task of a job with
    no usable spec is answered with an ERROR.  The master sends a
    partition's map task to the worker that ran its create task, and its
    reduce task to the one that ran its map task, so each reads the
    partition its parent phase persisted here; a task placed elsewhere
    rebuilds that parent from lineage.  A job's datasets, partitions and
    spill files go with its engine, which is safe because the master starts
    a job only after every task of the last one answered.
    """

    def __init__(self, cfg: ClusterConfig, scratch_dir, memory_budget_bytes: int,
                 name: str = ""):
        self.cfg = cfg
        self.name = name
        self._new_engine = partial(Engine, memory_budget_bytes, scratch_dir)
        self.engine = self._new_engine()
        self.datasets: list[Dataset] = []  # the open job's, indexed by stage
        self._job_id = self._job_error = None  # the open job, and why it has no datasets
        self._wlock = threading.Lock()
        self._stop = threading.Event()
        self._sock: socket.socket | None = None

    def _connect(self) -> socket.socket:
        last = None
        for attempt in range(self.cfg.registration_retries + 1):
            if attempt:
                time.sleep(0.2 * attempt)
            try:
                return socket.create_connection(
                    (self.cfg.host, self.cfg.port),
                    timeout=self.cfg.network_timeout_ms / 1000.0)
            except OSError as e:
                last = e
        raise ConnectFailure(f"cannot reach master {self.cfg.host}:{self.cfg.port}: {last}")

    def run(self):
        """Registers and serves tasks until SHUTDOWN or master EOF."""
        sock = self._connect()
        sock.settimeout(None)  # idle is legal; EOF or SHUTDOWN ends the worker
        self._sock = sock
        send_message(sock, Register(self.cfg.slots, self.name))
        if self.cfg.heartbeat_interval_ms > 0:
            threading.Thread(target=self._heartbeat_loop, daemon=True).start()
        try:
            with ThreadPoolExecutor(max_workers=self.cfg.slots) as pool:
                while not self._stop.is_set():
                    try:
                        frame = recv_frame(sock)
                    except (OSError, ProtocolError):
                        break
                    if frame is None:
                        break
                    tag, payload = frame
                    if tag == MessageTag.SHUTDOWN:
                        break
                    if tag == MessageTag.TASK:
                        try:
                            task = decode_message(tag, payload)
                        except ProtocolError as e:
                            self._send(ErrorMsg(0, f"malformed task: {e}"))
                            continue
                        if task.job_id != self._job_id:
                            self._open_job(task)
                        pool.submit(self._execute, task)
        finally:
            self._stop.set()
            self.engine.close()
            try:
                sock.close()
            except OSError:
                pass

    def stop(self):
        self._stop.set()
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _send(self, msg):
        with self._wlock:
            try:
                send_message(self._sock, msg)
            except OSError:
                self._stop.set()

    def _heartbeat_loop(self):
        interval = self.cfg.heartbeat_interval_ms / 1000.0
        t0 = time.monotonic()
        seq = 0
        while not self._stop.is_set():
            seq += 1
            delay = t0 + seq * interval - time.monotonic()
            if delay > 0 and self._stop.wait(delay):
                return
            self._send(Heartbeat(seq))

    def _open_job(self, task: Task):
        """A fresh engine, and the datasets of the job spec task carries."""
        self.engine.close()
        self.engine = self._new_engine()
        self._job_id, self.datasets, self._job_error = task.job_id, [], None
        try:
            spec = json.loads(task.pipeline_json)
            self.datasets = build_pipeline(self.engine, BenchmarkParams.from_json_dict(
                spec["params"]), StorageLevel(spec["storage"]))
        except Exception as e:  # noqa: BLE001 - answered per task by _execute
            self._job_error = f"no usable spec for job {task.job_id}: {type(e).__name__}: {e}"

    def _execute(self, task: Task):
        try:
            if task.stage >= len(self.datasets):  # any stage of a job with no datasets
                raise ProtocolError(self._job_error or f"job has no stage {task.stage}")
            d = self.datasets[task.stage]
            arr, computed, spilled = self.engine.materialize(d, task.partition)
            s = leftfold_sum(arr) if task.action == ACTION_PARTIAL_REDUCE else (0.0, 0.0, 0.0)
            self._send(TaskResult(task.task_id, task.partition, task.action,
                                  float(s[0]), float(s[1]), float(s[2]),
                                  arr.shape[0], arr.nbytes, computed, spilled))
        except Exception as e:  # noqa: BLE001 - reported to master, never silent
            self._send(ErrorMsg(task.task_id, f"{type(e).__name__}: {e}"))


def run_worker(cfg: ClusterConfig, scratch_dir, memory_budget_bytes: int, name: str = ""):
    Worker(cfg, scratch_dir, memory_budget_bytes, name=name).run()


def submit(master_addr: tuple[str, int], pipeline_spec: dict,
           skip_reduce: bool = False, timeout_s: float = 300.0) -> JobResult:
    """Runs one job on the cluster and returns its result and timings."""
    job = dict(pipeline_spec)
    job["skip_reduce"] = skip_reduce
    try:
        sock = socket.create_connection(master_addr, timeout=10.0)
    except OSError as e:
        raise ConnectFailure(f"cannot reach master {master_addr}: {e}") from e
    try:
        sock.settimeout(timeout_s)
        send_message(sock, Submit(json.dumps(job)))
        reply = recv_message(sock)
    except socket.timeout as e:
        raise JobFailure(f"no reply from master within {timeout_s} s") from e
    finally:
        sock.close()
    if not isinstance(reply, JobDone):
        raise ProtocolError(f"expected JOB_DONE, got {type(reply).__name__}")
    report = json.loads(reply.report_json)
    if not report.get("ok"):
        raise JobFailure(report.get("error", "job failed"),
                         causes=report.get("causes", {}))
    vec = report["result"]
    return JobResult(
        result=None if vec is None else Vec3(*vec),
        timings=report["timings"],
        phases=report["phases"],
        stats=report["stats"],
    )


def send_shutdown(master_addr: tuple[str, int]):
    """Asks a running master to stop itself and its workers."""
    try:
        with socket.create_connection(master_addr, timeout=10.0) as sock:
            send_message(sock, Shutdown())
    except OSError as e:
        raise ConnectFailure(f"cannot reach master {master_addr}: {e}") from e
