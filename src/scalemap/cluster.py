"""Standalone master/worker execution of engine pipelines over TCP.

Wire format: every frame is a 4-byte big-endian length prefix (counting the
tag byte plus payload), one tag byte, then a tag-specific payload whose
integers are little-endian and whose floats are IEEE-754 little-endian.
Each message class but TaskRun and RunResult is a named tuple of its wire
fields in wire order, built by _message from its one layout row, which both
encoding and decoding read.  Partial reduce sums cross the wire as
raw float64 bits, so the distributed result is bit-identical to a
single-process run at the same partition count.  A job is its params and
storage level.  Tasks travel in runs: one RUN frame carries tasks of one
job, one stage and one action, and its header names the job and the stage
they read, 0 (the source) or 1 (the shifted source); a job's spec rides only
on the first RUN each worker gets in that job.  The worker answers a run
with one RUN_RESULT frame holding the results of its tasks, and each task
that failed with its own ERROR.  Workers run each job on a fresh engine, so
every job is computed from scratch, as a local run is, and task ids restart
at 0 with each job, which keeps them within RUN's u32s.

One loop serves both servers: the master and the netprobe server are each
a FramedServer, one thread's selector loop over every connection with a
timer heap.  Liveness: every worker sends a HEARTBEAT each quarter of its
network timeout, busy or idle.  No socket timeout is set: each connection's
deadline, its last frame plus the network timeout, sits in the master's
timer heap and is re-armed lazily when it falls due, so a worker silent
past it is lost and an idle client is closed.  One master method settles
every answer, RUN_RESULT or ERROR, by one rule: it counts only for a task
its sender holds in flight, in the current phase, whose partition is
unsettled.

Scheduling places each task on its partition's holder: the worker that
returned that partition's last result in the job, and so has its parent
partition cached.  Each worker has up to `slots` runs in flight, and the
next run goes out whenever one is answered (_Phase.take), so runs shrink
as queues drain, as in guided self-scheduling, and a task's launch costs a
share of a frame rather than a round trip.  A dead worker's in-flight and
held tasks are requeued to survivors, which rebuild them from lineage;
that is safe because every task is a pure function of its job's spec, its
stage and its partition, and the result bits do not depend on placement
because partial sums combine in partition order.  A task's result carries
the spill writes it triggered, so cluster phases report the same
{bytes, recomputed, spilled} counters as local ones.

Only a Worker loads the engine, and numpy with it, when it is built: the
master and the wire code never touch an array, so a master or a probe
server starts without numpy.
"""

from __future__ import annotations

import heapq
import itertools
import json
import queue
import selectors
import socket
import struct
import threading
import time
from collections import deque, namedtuple
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import partial

from .core import Vec3, exact_int
from .errors import ConfigError, ScalemapError
from .job import combine_partials, make_pipeline_spec, parse_pipeline_spec, phase_counts, run_job

MAX_FRAME = 64 * 1024 * 1024
# the most tasks in one run: its RUN_RESULT frame (54 bytes a task) is then
# 3.4 MiB and its RUN frame 0.5 MiB plus the spec, both far under MAX_FRAME
MAX_RUN = 1 << 16
# the task id of an ERROR that answers no task, such as the reply to a frame
# the worker could not decode
NO_TASK = 2**32 - 1


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
    RUN = 11
    RUN_RESULT = 12


ACTION_FORCE = 0
ACTION_PARTIAL_REDUCE = 1


# ---- messages -------------------------------------------------------------

class _Layout:
    """A message type's tag and payload: a head struct of its fields in wire
    order, then its text (str) or raw (bytes) tail field, if it has one,
    filling the rest of the frame.  Without a tail, the head must fill the
    frame exactly."""

    def __init__(self, cls, tag: MessageTag, head: struct.Struct, tail: str, text: bool):
        self.cls, self.tag, self.head, self.tail, self.text = cls, tag, head, tail, text

    def encode(self, msg) -> bytes:
        if not self.tail:
            return self.head.pack(*msg)
        *head, tail = msg
        return self.head.pack(*head) + (tail.encode() if self.text else tail)

    def decode(self, payload: bytes):
        if not self.tail:
            return self.cls._make(self.head.unpack(payload))
        tail = payload[self.head.size:]
        return self.cls(*self.head.unpack_from(payload), tail.decode() if self.text else tail)


# every message type but the variable-length RUN and RUN_RESULT, by class and by tag
_LAYOUTS, _BY_TAG = {}, {}


def _message(name: str, tag: MessageTag, spec: str = "", text: str = "", raw: str = "",
             defaults: tuple = ()):
    """A message class whose payload is spec's space-separated name:format
    pairs, then the text or raw tail field if one is named: a named tuple of
    those fields in that wire order, with defaults for the last ones."""
    names, fmt = zip(*(f.split(":") for f in spec.split())) if spec else ((), ())
    tail = text or raw
    cls = namedtuple(name, names + ((tail,) if tail else ()), defaults=defaults)
    _LAYOUTS[cls] = _BY_TAG[tag] = _Layout(cls, tag, struct.Struct("<" + "".join(fmt)),
                                           tail, bool(text))
    return cls


Register = _message("Register", MessageTag.REGISTER, "slots:H", text="name", defaults=("",))
# job_id picks the engine a worker runs the task on, and stage the dataset it
# reads: 0 the source, 1 the shifted source; a run's tasks carry no spec
Task = _message("Task", MessageTag.TASK, "task_id:I partition:I action:B job_id:I stage:H",
                text="pipeline_json", defaults=(0, 0, ""))
# spilled counts the spill files the task's materialize wrote
TaskResult = _message("TaskResult", MessageTag.RESULT, "task_id:I partition:I action:B "
                      "sum_x:d sum_y:d sum_z:d count:Q nbytes:Q computed:? spilled:I",
                      defaults=(0,))
Heartbeat = _message("Heartbeat", MessageTag.HEARTBEAT, "seq:I")
ErrorMsg = _message("ErrorMsg", MessageTag.ERROR, "task_id:I", text="message")
Shutdown = _message("Shutdown", MessageTag.SHUTDOWN)
Ping = _message("Ping", MessageTag.PING, raw="nonce")
Data = _message("Data", MessageTag.DATA, raw="payload")
Submit = _message("Submit", MessageTag.SUBMIT, text="job_json")
JobDone = _message("JobDone", MessageTag.JOB_DONE, text="report_json")


class TaskRun(namedtuple("TaskRun", "job_id stage action tasks pipeline_json", defaults=("",))):
    """Tasks of one job, stage and action, dispatched in one frame: tasks
    holds (task_id, partition) pairs, and pipeline_json the job's spec on a
    worker's first run of the job, else ""."""
    __slots__ = ()

    def expand(self) -> list[Task]:
        action, job_id, stage = self.action, self.job_id, self.stage
        return [Task(tid, part, action, job_id, stage) for tid, part in self.tasks]


# the results of a run's tasks that did not fail, in one frame
RunResult = namedtuple("RunResult", "results")

_RESULT = _LAYOUTS[TaskResult].head  # a RUN_RESULT is RESULT payloads back to back
_RUN = struct.Struct("<IHBI")  # job_id, stage, action, task count
_RUN_TASK = struct.Struct("<II")  # task_id, partition


def encode_message(msg) -> tuple[int, bytes]:
    """Returns (tag, payload)."""
    try:
        if isinstance(msg, TaskRun):  # a _RUN header, one _RUN_TASK per task, then the spec
            return MessageTag.RUN, b"".join([
                _RUN.pack(msg.job_id, msg.stage, msg.action, len(msg.tasks)),
                *(_RUN_TASK.pack(*t) for t in msg.tasks), msg.pipeline_json.encode()])
        if isinstance(msg, RunResult):
            pack = _RESULT.pack
            return MessageTag.RUN_RESULT, b"".join([pack(*r) for r in msg.results])
        layout = _LAYOUTS.get(type(msg))
        if layout is None:
            raise ProtocolError(f"cannot encode {type(msg).__name__}")
        return layout.tag, layout.encode(msg)
    except (struct.error, UnicodeEncodeError) as e:
        raise ProtocolError(f"cannot encode {type(msg).__name__}: {e}") from e


def decode_message(tag: int, payload: bytes):
    try:
        if tag == MessageTag.RUN:
            job, stage, action, n = _RUN.unpack_from(payload)
            end = _RUN.size + n * _RUN_TASK.size
            if len(payload) < end:
                raise ProtocolError(f"run of {n} tasks cut short at {len(payload)} bytes")
            return TaskRun(job, stage, action, tuple(
                _RUN_TASK.iter_unpack(payload[_RUN.size:end])), payload[end:].decode())
        if tag == MessageTag.RUN_RESULT:
            return RunResult(tuple(map(TaskResult._make, _RESULT.iter_unpack(payload))))
        layout = _BY_TAG.get(tag)
        if layout is None:
            raise ProtocolError(f"unknown message tag {tag}")
        return layout.decode(payload)
    except (struct.error, UnicodeDecodeError) as e:
        raise ProtocolError(f"malformed payload for tag {tag}: {e}") from e


# ---- framing ----------------------------------------------------------------

# a frame's head: its length (the tag byte plus the payload), then its tag
FRAME_HEAD = struct.Struct(">IB")


def check_frame_length(length: int) -> int:
    """length, the tag-plus-payload count a frame head declares, if a frame
    may carry it; a ProtocolError otherwise."""
    if not 1 <= length <= MAX_FRAME:
        raise ProtocolError(f"bad frame length {length}")
    return length


# the shortest payload send_frame hands to the kernel beside the frame head
# rather than copying it behind the head: on loopback, sendmsg's own cost
# outweighs the copy below about 8 KiB
_GATHER_BYTES = 8 << 10


def frame_bytes(tag: int, payload: bytes) -> bytes:
    """The bytes of one frame: its head, then the payload."""
    return FRAME_HEAD.pack(check_frame_length(1 + len(payload)), tag) + payload


def send_frame(sock: socket.socket, tag: int, payload: bytes):
    """Sends one frame.  A payload of _GATHER_BYTES or more goes out
    uncopied, with the head, in one sendmsg; sendall sends whatever that
    call left unsent."""
    if len(payload) < _GATHER_BYTES:
        sock.sendall(frame_bytes(tag, payload))
        return
    head = FRAME_HEAD.pack(check_frame_length(1 + len(payload)), tag)
    sent = sock.sendmsg((head, payload)) - len(head)  # payload bytes sent
    if sent < 0:  # part of the head is unsent: its last -sent bytes
        sock.sendall(head[sent:])
        sent = 0
    if sent < len(payload):
        sock.sendall(memoryview(payload)[sent:])


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
    body = recvall(sock, check_frame_length(length))
    if body is None:
        raise TruncatedFrame("connection closed before frame body")
    return body[0], body[1:]


def recv_message(sock: socket.socket):
    frame = recv_frame(sock)
    if frame is None:
        return None
    return decode_message(*frame)


def check_port(port: int) -> int:
    """port, if a socket can take it; the OS would wrap a larger one."""
    if not 0 <= port <= 65535:
        raise ConfigError(f"port must be in 0..65535, got {port}")
    return port


def parse_addr(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ScalemapError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", check_port(int(port))


# ---- configuration ---------------------------------------------------------

# the longest wait an epoll selector takes (a C int of ms), so the longest timer
MAX_DELAY_MS = 2**31 - 1
# the default network_timeout_ms, of a ClusterConfig and of the CLI's config
NETWORK_TIMEOUT_MS = 120_000


@dataclass
class ClusterConfig:
    host: str = "127.0.0.1"
    port: int = 0
    expected_workers: int = 1
    network_timeout_ms: int = NETWORK_TIMEOUT_MS
    slots: int = 1
    registration_retries: int = 1

    def __post_init__(self):
        for name in ("port", "expected_workers", "network_timeout_ms", "slots", "registration_retries"):
            exact_int(getattr(self, name), name, ConfigError)
        check_port(self.port)
        # the workers' heartbeat pace, and the master's liveness timers
        if not 1 <= self.network_timeout_ms <= MAX_DELAY_MS:
            raise ConfigError(f"network_timeout_ms must be in 1..{MAX_DELAY_MS},"
                              f" got {self.network_timeout_ms}")
        if self.registration_retries < 0:
            raise ConfigError(f"registration_retries must be >= 0, got {self.registration_retries}")


@dataclass(frozen=True)
class JobResult:
    result: Vec3 | None
    timings: dict
    phases: dict
    stats: dict


# ---- server loop -------------------------------------------------------------

# the most one recv takes: with it a connection holds at most one frame plus
# one read, and a 1 MiB read raised the probe server's peak RSS by 5-9 MiB
READ_BYTES = 128 << 10
FRAME_LENGTH = struct.Struct(">I")  # the length field that opens FRAME_HEAD


class Connection:
    """A connection a FramedServer serves.  Its sendall and sendmsg queue the
    bytes behind any unsent ones and send at once what the socket takes; a
    failed send closes it, and a closed one drops what is sent to it."""

    __slots__ = ("server", "sock", "inbuf", "outbuf", "events", "held", "closed",
                 "deadline", "state")

    def __init__(self, server: FramedServer, sock: socket.socket):
        self.server, self.sock = server, sock
        self.inbuf = bytearray()  # the start of a frame, or frames held back
        self.outbuf = bytearray()  # the bytes its socket has not taken yet
        self.events = 0  # the selector events it is registered for
        self.held = False  # its server serves none of its frames meanwhile
        self.closed = False
        self.deadline: float | None = None  # for its server's timers
        self.state = None  # its server's own record of it

    def sendall(self, data):
        if not self.closed:
            self.outbuf += data
            self.flush()

    def sendmsg(self, buffers) -> int:
        for b in buffers:
            self.sendall(b)
        return sum(map(len, buffers))

    def flush(self):
        try:
            del self.outbuf[:self.sock.send(self.outbuf)]
        except BlockingIOError:
            pass
        except OSError:
            return self.server._close(self, "send failed")
        self.server._want(self)


class FramedServer:
    """A listener and every connection it accepts, served by one thread's
    selector loop, after Flash (Pai, Druschel & Zwaenepoel, USENIX ATC 1999).

    Sockets are non-blocking.  Every recv lands in one 128 KiB read buffer
    whose whole frames are served from its view; a connection keeps only the
    start of a frame, and a frame that does not decode closes only its own
    connection.  While a connection has unsent bytes, or is held back, it is
    neither read nor parsed, so a peer that stops reading stalls only itself.
    The earliest timer in a heap bounds the loop's wait.  A subclass defines
    _on_accept, _on_frame (its payload view lives only for the call) and
    _on_close and arms timers with at(), all on the loop thread; other
    threads reach the loop only through call() and stop().
    """

    def __init__(self, host: str, port: int, backlog: int):
        self.host, self._requested_port, self._backlog = host, check_port(port), backlog
        self._stopping = False
        self._stopped = threading.Event()
        # keeps stop() and call(), from any thread, off the wake socket the loop closes
        self._wake_lock = threading.Lock()
        self._listener = self._wake_r = self._wake_w = self._sel = self._thread = None
        self._conns: set[Connection] = set()
        self._rview: memoryview | None = None  # the read buffer
        self._timers: list = []  # (due, seq, fn, args): fn(*args) runs once due
        self._seq = itertools.count()
        self._calls: deque = deque()  # (future, fn, args) for the loop to run

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self):
        try:
            # sets SO_REUSEADDR, and closes the socket if bind or listen fails
            sock = socket.create_server((self.host, self._requested_port),
                                        backlog=self._backlog)
        except OSError as e:
            raise BindFailure(f"cannot bind {self.host}:{self._requested_port}: {e}") from e
        try:
            self._wake_r, self._wake_w = socket.socketpair()
        except OSError:
            sock.close()
            raise
        for s in (sock, self._wake_r, self._wake_w):
            s.setblocking(False)
        self._listener = sock
        self._rview = memoryview(bytearray(READ_BYTES))
        self._sel = selectors.DefaultSelector()
        self._sel.register(sock, selectors.EVENT_READ)
        self._sel.register(self._wake_r, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=f"{type(self).__name__}-loop")
        self._thread.start()
        return self

    def stop(self):
        """Ends the loop, which closes the listener and every connection;
        from any thread but the loop's, returns once it has."""
        self._stopping = True
        self._wake()
        self._join()

    def wait_stopped(self, timeout_s: float | None = None) -> bool:
        return self._stopped.wait(timeout_s)

    def call(self, fn, *args) -> Future:
        """Runs fn(*args) on the loop thread; the Future holds its result."""
        future = Future()
        self._calls.append((future, fn, args))
        self._wake()
        return future

    def at(self, due: float, fn, *args):
        """Runs fn(*args) on the loop once time.monotonic() reaches due."""
        heapq.heappush(self._timers, (due, next(self._seq), fn, args))

    def resume(self, c: Connection):
        """Serves c's buffered frames until it is held back, then reads it again."""
        if c.closed:
            return
        with memoryview(c.inbuf) as view:
            done = self._frames(c, view)
        if not c.closed:
            del c.inbuf[:done]
            self._want(c)

    def _on_close(self, c: Connection, why: str):
        pass

    def _wake(self):
        with self._wake_lock:
            if self._wake_w is not None:
                try:
                    self._wake_w.send(b"\0")
                except OSError:  # its buffer is full: the loop wakes anyway
                    pass

    def _join(self):
        if self._thread is None:
            self._stopped.set()
        elif self._thread is not threading.current_thread():
            self._thread.join()

    def _loop(self):
        sel, timers, calls = self._sel, self._timers, self._calls
        try:
            while not self._stopping:
                timeout = max(0.0, timers[0][0] - time.monotonic()) if timers else None
                for key, mask in sel.select(timeout):
                    if key.fileobj is self._listener:
                        self._accept()
                    elif key.fileobj is self._wake_r:
                        self._wake_r.recv(4096)
                    elif not key.data.closed:  # a handler may close another connection
                        self._on_ready(key.data, mask)
                now = time.monotonic()
                while timers and timers[0][0] <= now:
                    _, _, fn, args = heapq.heappop(timers)
                    fn(*args)
                while calls:
                    future, fn, args = calls.popleft()
                    future.set_result(fn(*args))
        finally:
            for c in list(self._conns):
                self._close(c, "server stopped")
            timers.clear()
            self._listener.close()
            with self._wake_lock:
                self._wake_w.close()
                self._wake_w = None
            self._wake_r.close()
            self._rview.release()
            sel.close()
            self._stopped.set()

    def _accept(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # BlockingIOError once the backlog is empty
                return
            sock.setblocking(False)
            c = Connection(self, sock)
            self._conns.add(c)
            self._on_accept(c)
            if not c.closed:
                self._want(c)

    def _on_ready(self, c: Connection, mask: int):
        if mask & selectors.EVENT_WRITE:
            c.flush()
            return self.resume(c)
        try:
            n = c.sock.recv_into(self._rview)
        except BlockingIOError:
            return
        except OSError:
            n = 0
        if not n:  # EOF, mid-frame or not, or a reset
            self._close(c, "connection closed")
            return
        data, buf, pos = self._rview[:n], c.inbuf, 0
        if buf:  # buf holds the start of one frame: complete it, then serve it
            pos = n if len(buf) < 4 else min(  # _frames rejects a bad length at once
                n, max(0, 4 + FRAME_LENGTH.unpack_from(buf)[0] - len(buf)))
            buf += data[:pos]
            self.resume(c)
        if not buf and not c.closed:  # the rest is served from the read buffer, not copied
            pos += self._frames(c, data[pos:])
        if c.closed:
            return
        buf += data[pos:]
        self._want(c)

    def _frames(self, c: Connection, view: memoryview) -> int:
        """Serves the whole frames at the start of view until c is held or
        closed, and checks the length of the next; the bytes served."""
        pos = 0
        try:
            while not (c.outbuf or c.held or c.closed) and len(view) - pos >= 4:
                end = pos + 4 + check_frame_length(FRAME_LENGTH.unpack_from(view, pos)[0])
                if end > len(view):
                    break
                self._on_frame(c, view[pos + 4], view[pos + FRAME_HEAD.size:end])
                pos = end
        except ProtocolError:
            self._close(c, "bad frame")
        return pos

    def _want(self, c: Connection):
        """Registers c to write while it has unsent bytes, to nothing while held, else to read."""
        want = selectors.EVENT_WRITE if c.outbuf else 0 if c.held else selectors.EVENT_READ
        if want != c.events:
            if not c.events:
                self._sel.register(c.sock, want, c)
            elif not want:
                self._sel.unregister(c.sock)
            else:
                self._sel.modify(c.sock, want, c)
            c.events = want

    def _close(self, c: Connection, why: str):
        if c.closed:
            return
        c.closed = True
        if c.events:
            self._sel.unregister(c.sock)
            c.events = 0
        self._conns.discard(c)
        c.sock.close()
        self._on_close(c, why)


# ---- master ------------------------------------------------------------------

@dataclass
class MasterStats:
    rescheduled: int = 0
    heartbeats: dict = field(default_factory=dict)
    worker_errors: int = 0
    workers_lost: int = 0
    remote_tasks: int = 0  # tasks sent to a worker other than the partition's holder


class _WorkerConn:
    def __init__(self, wid: int, sock: Connection, slots: int, name: str):
        self.wid = wid
        self.sock = sock
        self.slots = max(1, slots)
        self.name = name or f"worker-{wid}"
        self.alive = True
        self.runs: list[set[int]] = []  # the unanswered task ids of each run in flight
        self.spec_job: int | None = None  # the job whose spec it was last sent

    def answered(self, tid: int) -> bool:
        """Marks task tid answered, which ends its run if it was the run's
        last; false when tid is not in flight here."""
        for i, run in enumerate(self.runs):
            if tid in run:
                run.discard(tid)
                if not run:
                    del self.runs[i]
                return True
        return False


class _Phase:
    """Scheduling state for one wave of tasks; the master's loop alone
    touches it until it finishes.

    The tasks share one job, stage and action, the header of every run sent
    for them, and the task id of partition p is tids[p].  A pending task
    waits in the queue of its partition's holder (holders maps partition to
    worker id), or in the unheld queue when the partition has no live holder.
    done and failed map each settled partition to its result or error text.
    """

    def __init__(self, job_id: int, stage: int, action: int, tids: range,
                 holders: dict[int, int | None]):
        self.job_id, self.stage, self.action, self.tids = job_id, stage, action, tids
        self.queues: dict[int, deque] = {}
        self.unheld: deque = deque()
        for p, tid in enumerate(tids):
            wid = holders.get(p)
            (self.unheld if wid is None else self.queues.setdefault(wid, deque())).append(tid)
        self.done: dict[int, TaskResult] = {}
        self.failed: dict[int, str] = {}
        self.finished = threading.Event()
        self.aborted: str | None = None

    def complete(self) -> bool:
        return len(self.done) + len(self.failed) == len(self.tids)

    def take(self, wid: int, busy, live_slots: int) -> list[int]:
        """The next run of task ids for free worker wid, in ascending order,
        or []: the first half of its own queue, else the first
        1/(2 * live_slots) of the unheld queue, else the last half of the
        longest other queue whose holder is busy (busy(holder) is true when
        every slot of that holder holds a run).  Shares round up, and no
        run is longer than MAX_RUN."""
        def share(q: deque, parts: int) -> int:
            return min(-(-len(q) // parts), MAX_RUN)

        own = self.queues.get(wid)
        if own:
            return [own.popleft() for _ in range(share(own, 2))]
        if self.unheld:
            return [self.unheld.popleft() for _ in range(share(self.unheld, 2 * live_slots))]
        victims = [h for h, q in self.queues.items() if q and busy(h)]  # own queue is empty
        if not victims:
            return []
        q = self.queues[max(victims, key=lambda h: len(self.queues[h]))]
        return [q.pop() for _ in range(share(q, 2))][::-1]

    def drop_worker(self, wid: int, in_flight) -> int:
        """Moves a lost worker's unanswered in-flight tasks and its queue to
        the unheld queue; returns how many in-flight tasks were requeued."""
        requeue = sorted(tid for tid in in_flight if tid - self.tids.start not in self.done)
        self.unheld.extend(requeue)
        self.unheld.extend(self.queues.pop(wid, ()))
        return len(requeue)


class Master(FramedServer):
    """Accepts worker registrations and client job submissions on one port.

    Worker connections send REGISTER then stream RUN_RESULT/HEARTBEAT/ERROR;
    client connections send SUBMIT (answered with JOB_DONE), PING (echoed),
    or SHUTDOWN (stops the whole cluster).  Only the loop touches scheduling
    state.  SUBMITs queue for one job thread, which runs each job through
    job.run_job, the driver local runs use too: it hands each phase to the
    loop with call(), waits on the phase's finished Event and combines
    partial sums with job.combine_partials.  The client is held back until
    its JOB_DONE goes out.  Other threads read only what the loop publishes
    whole: the live-worker count, stats integers and Events.
    """

    def __init__(self, cfg: ClusterConfig):
        super().__init__(cfg.host, cfg.port, backlog=128)
        self.cfg = cfg
        self.stats = MasterStats()
        self.on_result = None  # test hook: called as on_result(task_result, worker_id)
        self._timeout_s = cfg.network_timeout_ms / 1000.0
        # the live workers by id; other threads read only its length
        self._workers: dict[int, _WorkerConn] = {}
        self._wids = itertools.count()
        self._next_tid = 0
        self._job_id: int | None = None  # the job of the last phase
        self._job_ids = itertools.count()  # the job thread's
        self._ready = threading.Event()
        self._halting = False  # shutting down: no more phases or connections
        self._phase: _Phase | None = None
        # partition -> worker that returned its last result in the current
        # job; None once that worker is lost
        self._holders: dict[int, int | None] = {}
        self._spec_json = ""  # the current job's spec
        self._jobs = queue.SimpleQueue()  # (client, job json), then None to end the job thread
        if cfg.expected_workers <= 0:
            self._ready.set()

    # -- lifecycle

    def start(self):
        super().start()
        threading.Thread(target=self._job_loop, daemon=True, name="master-jobs").start()
        return self

    def wait_ready(self, timeout_s: float | None = None) -> bool:
        """True once the expected workers have registered or the master halted."""
        return self._ready.wait(timeout_s)

    def shutdown(self):
        """Sends every worker SHUTDOWN, answers every submitted job, then
        stops; from any thread but the loop's, returns once every socket is
        closed."""
        self.call(self._halt)
        self._join()

    def live_workers(self) -> int:
        return len(self._workers)

    def _halt(self):
        if self._halting:  # shut down twice, or by a client and by a signal
            return
        self._halting = True
        self._ready.set()  # a job waiting for workers goes on, to fail at once
        self._sel.unregister(self._listener)  # refuses new connections
        self._listener.close()
        if self._phase is not None:
            self._phase.aborted = "master shut down"
            self._end_phase(self._phase)
        for c in list(self._conns):
            if isinstance(c.state, _WorkerConn):
                send_message(c, Shutdown())
            if not c.held:  # a held client waits for its job's report
                self._close(c, "master shut down")
        self._jobs.put(None)
        if not self._conns:
            self.stop()

    # -- connection handling, on the loop

    def _on_accept(self, c: Connection):
        c.deadline = time.monotonic() + self._timeout_s
        self.at(c.deadline, self._expire, c)

    def _expire(self, c: Connection):
        """Closes c after a network timeout without a frame from it, unless
        a job holds it; else re-arms at its deadline, which frames move."""
        if c.deadline is not None and c.deadline <= time.monotonic():
            self._close(c, f"silent for {self.cfg.network_timeout_ms} ms")
        elif not c.closed:
            self.at(c.deadline or time.monotonic() + self._timeout_s, self._expire, c)

    def _on_frame(self, c: Connection, tag: int, payload: memoryview):
        msg = decode_message(tag, payload.tobytes())
        c.deadline = time.monotonic() + self._timeout_s
        w = c.state
        if w is None and isinstance(msg, Register):
            w = c.state = _WorkerConn(next(self._wids), c, msg.slots, msg.name)
            self._workers[w.wid] = w
            self.stats.heartbeats[w.wid] = 0
            if len(self._workers) >= self.cfg.expected_workers:
                self._ready.set()
            self._pump()
        elif isinstance(w, _WorkerConn):
            if isinstance(msg, Heartbeat):
                self.stats.heartbeats[w.wid] += 1
            elif isinstance(msg, RunResult):
                self._on_answers(w, msg.results)
            elif isinstance(msg, ErrorMsg):
                self._on_answers(w, msg)
        else:
            c.state = "client"
            if isinstance(msg, Submit):
                c.held, c.deadline = True, None  # until its JOB_DONE goes out
                self._jobs.put((c, msg.job_json))
            elif isinstance(msg, Ping):
                send_message(c, Ping(msg.nonce))
            elif isinstance(msg, Shutdown):
                self.shutdown()
            else:
                self._close(c, f"unexpected {type(msg).__name__}")

    def _on_close(self, c: Connection, why: str):
        if isinstance(c.state, _WorkerConn):
            del self._workers[c.state.wid]
            self._worker_lost(c.state, why)

    # -- scheduling, on the loop

    def _busy(self, wid: int) -> bool:
        w = self._workers[wid]
        return len(w.runs) >= w.slots

    def _pump(self):
        """Dispatch runs of pending tasks to free slots."""
        phase = self._phase
        while phase is not None:
            live = [w for w in self._workers.values() if w.alive]
            live_slots = sum(w.slots for w in live)
            for w in sorted((w for w in live if len(w.runs) < w.slots),
                            key=lambda x: (len(x.runs), x.wid)):
                run = phase.take(w.wid, self._busy, live_slots)
                if run:
                    break
            else:
                return
            tasks = tuple((tid, tid - phase.tids.start) for tid in run)
            # a partition absent from _holders was never computed in this job
            self.stats.remote_tasks += sum(
                self._holders.get(p, w.wid) != w.wid for _, p in tasks)
            spec = ""
            if w.spec_job != phase.job_id:
                spec, w.spec_job = self._spec_json, phase.job_id
            w.runs.append(set(run))
            send_message(w.sock, TaskRun(phase.job_id, phase.stage, phase.action, tasks, spec))
            phase = self._phase  # a failed send loses w, which may end the phase

    def _on_answers(self, w: _WorkerConn, answers: tuple[TaskResult, ...] | ErrorMsg):
        """Settles partitions from a run's results or from one ERROR, by the
        rule in the module docstring; every ERROR counts in worker_errors."""
        error = isinstance(answers, ErrorMsg)
        self.stats.worker_errors += error
        phase = self._phase
        for a in (answers,) if error else answers:
            tid = a.task_id
            if (w.answered(tid) and phase is not None and tid in phase.tids
                    and (p := tid - phase.tids.start) not in phase.done
                    and p not in phase.failed):
                if error:
                    phase.failed[p] = a.message
                else:
                    phase.done[p] = a
                    self._holders[p] = w.wid
        if phase is not None and phase.complete():
            self._end_phase(phase)
        self._pump()
        if self.on_result is not None and not error:
            for res in answers:
                self.on_result(res, w.wid)

    def _worker_lost(self, w: _WorkerConn, why: str):
        w.alive = False
        self.stats.workers_lost += 1
        for p, wid in self._holders.items():
            if wid == w.wid:
                self._holders[p] = None
        phase = self._phase
        if phase is not None:
            self.stats.rescheduled += phase.drop_worker(w.wid, set().union(*w.runs))
        w.runs.clear()
        if self._workers:
            self._pump()
        elif phase is not None:
            phase.aborted = f"no live workers remain (last lost: {w.name}: {why})"
            self._end_phase(phase)

    def _end_phase(self, phase: _Phase):  # hands it back to the job thread
        self._phase = None
        phase.finished.set()

    def _open_phase(self, job_id: int, spec_json: str, partitions: int, action: int,
                    stage: int) -> _Phase:
        """Starts a phase of one task per partition."""
        if job_id != self._job_id:  # task ids restart with each job: RUN carries u32s
            self._job_id, self._next_tid, self._holders = job_id, 0, {}
        self._spec_json = spec_json
        tids = range(self._next_tid, self._next_tid + partitions)
        self._next_tid = tids.stop
        phase = self._phase = _Phase(job_id, stage, action, tids, self._holders)
        if self._halting or not self._workers:
            phase.aborted = "master shut down" if self._halting else "no live workers"
            self._end_phase(phase)
        else:
            self._pump()
        return phase

    def _job_done(self, c: Connection, reply: JobDone):
        send_message(c, reply)
        c.held, c.deadline = False, time.monotonic() + self._timeout_s
        if self._halting:
            self._close(c, "master shut down")
            if not self._conns:  # every job submitted is answered
                self.stop()
        self.resume(c)

    # -- job orchestration, on the job thread

    def _job_loop(self):
        for c, job_json in iter(self._jobs.get, None):
            try:
                report = self._run_job(json.loads(job_json))
            except JobFailure as e:
                report = {"ok": False, "error": str(e),
                          "causes": {str(k): v for k, v in e.causes.items()}}
            except Exception as e:  # noqa: BLE001 - client must always get a reply
                report = {"ok": False, "error": f"{type(e).__name__}: {e}", "causes": {}}
            self.call(self._job_done, c, JobDone(json.dumps(report)))

    def _run_job(self, job: dict) -> dict:
        params, storage = parse_pipeline_spec(job)  # a bad job fails before any run is sent
        if not self.wait_ready(self._timeout_s):
            raise JobFailure("master not ready: expected workers never registered")
        partitions = params.partitions
        job_args = (next(self._job_ids), json.dumps(make_pipeline_spec(params, storage)), partitions)
        before = replace(self.stats)  # cumulative; the report gives this job's share

        def run(action: int, stage: int) -> list[TaskResult]:  # in partition order
            phase = self.call(self._open_phase, *job_args, action, stage).result()
            phase.finished.wait()
            if phase.aborted:
                raise JobFailure(f"NoWorkers: {phase.aborted}")
            if phase.failed:
                raise JobFailure(f"{len(phase.failed)} partition(s) failed", causes=phase.failed)
            return [phase.done[p] for p in range(partitions)]

        def counts(results) -> dict:
            return phase_counts((r.nbytes, r.computed, r.spilled) for r in results)

        def force(i) -> dict:
            return counts(run(ACTION_FORCE, i))

        def reduce() -> tuple[Vec3, dict]:
            results = run(ACTION_PARTIAL_REDUCE, 1)
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


# ---- worker ------------------------------------------------------------------

class Worker:
    """Executes runs of tasks against a local engine, one concurrent run per
    slot, and sends a HEARTBEAT every quarter of its network timeout, so the
    master hears from it while it is busy on a long run or idle.

    The first run of a new job id opens the job on a fresh engine, building
    its datasets (engine.build_pipeline) from the job spec that run carries.
    Each run is one pool job and one Engine.run of datasets[run.stage], a
    generator each task draws its own outcome from inside _execute, so a
    tile of small partitions is made inside its first task's _execute.  A
    task that fails is answered at once with its own ERROR (every task of a
    job with no usable spec fails), and the others' results go back in one
    RUN_RESULT frame when the run ends.  A RUN frame that does not decode
    is answered with an ERROR for NO_TASK.

    The master sends a partition's map task to the worker that ran its
    create task, and its reduce task to the one that ran its map task, so
    each reads the partition its parent phase persisted here; a task placed
    elsewhere rebuilds that parent from lineage.  A job's datasets,
    partitions and spill files go with its engine, which is safe because the
    master starts a job only after every task of the last one answered.

    Building a Worker loads the engine, and numpy with it, before it
    connects, so a worker process pays for that import before REGISTER and
    never in a task.
    """

    def __init__(self, cfg: ClusterConfig, scratch_dir, memory_budget_bytes: int,
                 name: str = ""):
        if not 1 <= cfg.slots <= 65535:  # REGISTER carries slots as a u16
            raise ConfigError(f"worker slots must be in 1..65535, got {cfg.slots}")
        from . import engine

        self.cfg = cfg
        self.name = name
        self._engine_module = engine
        self._new_engine = partial(engine.Engine, memory_budget_bytes, scratch_dir)
        self.engine = self._new_engine()
        self.datasets = []  # the open job's Datasets, indexed by stage
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
                    if tag == MessageTag.RUN:
                        try:
                            run = decode_message(tag, payload)
                        except ProtocolError as e:
                            self._send(ErrorMsg(NO_TASK, f"malformed run: {e}"))
                            continue
                        if run.tasks and run.job_id != self._job_id:
                            self._open_job(run.job_id, run.pipeline_json)
                        pool.submit(self._run_tasks, run)
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
        interval = self.cfg.network_timeout_ms / 4000.0
        t0 = time.monotonic()
        seq = 0
        while not self._stop.is_set():
            seq += 1
            delay = t0 + seq * interval - time.monotonic()
            if delay > 0 and self._stop.wait(delay):
                return
            self._send(Heartbeat(seq))

    def _open_job(self, job_id: int, spec_json: str):
        """A fresh engine, and the datasets of the job's spec."""
        self.engine.close()
        self.engine = self._new_engine()
        self._job_id, self.datasets, self._job_error = job_id, [], None
        try:
            self.datasets = self._engine_module.build_pipeline(
                self.engine, *parse_pipeline_spec(json.loads(spec_json)))
        except Exception as e:  # noqa: BLE001 - answered per task by _execute
            self._job_error = f"no usable spec for job {job_id}: {type(e).__name__}: {e}"

    def _run_tasks(self, run: TaskRun):
        """One run, under engine.quiet_ieee.  If it raises outside a task
        (a RUN_RESULT that will not encode, say), each task not yet answered
        gets an ERROR naming the exception; if that cannot be sent either,
        the worker stops, so the master requeues the run."""
        results, answered, outcomes = [], set(), None
        engine, datasets = self.engine, self.datasets
        try:
            with self._engine_module.quiet_ieee():
                if run.stage < len(datasets):
                    action = "reduce" if run.action == ACTION_PARTIAL_REDUCE else "force"
                    outcomes = engine.run(datasets[run.stage], action, [p for _, p in run.tasks])
                for task in run.expand():
                    answer = self._execute(task, outcomes)
                    if isinstance(answer, ErrorMsg):
                        self._send(answer)
                        answered.add(task.task_id)
                    else:
                        results.append(answer)
            if results:
                self._send(RunResult(tuple(results)))
        except Exception as e:  # noqa: BLE001 - never silent: answered per task below
            cause = f"run failed: {type(e).__name__}: {e}"
            try:
                for task in run.expand():
                    if task.task_id not in answered:
                        self._send(ErrorMsg(task.task_id, cause))
            except Exception:  # noqa: BLE001 - a lost worker's run is requeued
                self.stop()
        finally:
            if outcomes is not None:
                outcomes.close()  # drops a tile the run left undrawn

    def _execute(self, task: Task, outcomes) -> TaskResult | ErrorMsg:
        """The answer to one task, its outcome drawn from outcomes, the
        run's Engine.run (None if the job has no such stage)."""
        try:
            if task.stage >= len(self.datasets):  # any stage of a job with no datasets
                raise ProtocolError(self._job_error or f"job has no stage {task.stage}")
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            if task.action == ACTION_PARTIAL_REDUCE:
                (sx, sy, sz), count, (nbytes, computed, spilled) = outcome
            else:
                arr, computed, spilled = outcome
                sx = sy = sz = 0.0
                count, nbytes = arr.shape[0], arr.nbytes
            return TaskResult(task.task_id, task.partition, task.action, sx, sy, sz,
                              count, nbytes, computed, spilled)
        except Exception as e:  # noqa: BLE001 - reported to master, never silent
            return ErrorMsg(task.task_id, f"{type(e).__name__}: {e}")


def __getattr__(name: str):
    """cluster.leftfold_sum, a name the benchmark's tracer wraps, is the
    engine's fold, loaded on first use; a Worker folds through Engine.run,
    which calls it as an engine module global, so a traced reduce run
    records one span per tile it folds."""
    if name != "leftfold_sum":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .engine import leftfold_sum
    return leftfold_sum


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
