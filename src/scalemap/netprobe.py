"""Network overhead probes: connection storms, response latency, throughput.

The probe server reuses the cluster wire framing.  PING frames are echoed
(after any configured delay), nonempty DATA frames are sunk and counted,
and an empty DATA frame is the barrier: the server answers it with the
total payload bytes received on that connection, which is what lets the
client verify that sent == acknowledged.

One thread serves the listener and every connection from a selector loop,
as in Flash's event-driven design (Pai, Druschel & Zwaenepoel, USENIX ATC
1999), so accepting a connection costs no thread start.  All sockets are
non-blocking.  Each connection's inbound buffer is cut into frames, and a
frame that does not decode closes only its own connection.  A reply goes
out through the connection's outbound buffer; while any of it is unsent,
or while a delayed echo waits in the loop's timer heap, that connection is
neither read nor parsed, so a client that stops reading stalls only itself
and the server holds at most one frame plus one read per connection.  The
next timer's deadline bounds the loop's wait; nothing in it sleeps.

Fault injection is server-side and deterministic: with reject_every=N the
server closes every Nth accepted connection before reading a byte, so a
storm of k connections fails exactly k//N times.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from .cluster import (
    FRAME_HEAD,
    BindFailure,
    Data,
    MessageTag,
    Ping,
    ProtocolError,
    Shutdown,
    check_frame_length,
    check_port,
    decode_message,
    encode_message,
    frame_bytes,
    recv_message,
    send_message,
)
from .core import exact_int
from .errors import ConfigError, ScalemapError

PING_BYTES = 16
# the longest wait an epoll selector takes (a C int of ms): the server's loop
# waits until the next delayed echo is due
MAX_DELAY_MS = 2**31 - 1
# the most one recv takes: with it a connection holds at most one frame plus
# one read, and a 1 MiB read raised the server's peak RSS by 5-9 MiB
_READ_BYTES = 128 << 10
_LENGTH = struct.Struct(">I")  # the length field that opens FRAME_HEAD
# the selector key data of the listener and of the loop's wake socket
_LISTENER = object()
_WAKE = object()


class ServerUnreachable(ScalemapError):
    pass


@dataclass(frozen=True)
class FaultPolicy:
    reject_every: int = 0  # 0 disables; N rejects accepted connections N, 2N, ...
    delay_ms: float = 0.0  # imposed on every ping before the echo

    def __post_init__(self):
        if exact_int(self.reject_every, "reject_every", ConfigError) < 0:
            raise ConfigError(f"reject_every must be >= 0, got {self.reject_every}")
        if isinstance(self.delay_ms, bool) or not isinstance(self.delay_ms, (int, float)):
            raise ConfigError(f"delay_ms must be a number, got {self.delay_ms!r}")
        if not 0 <= self.delay_ms <= MAX_DELAY_MS:  # nan fails both
            raise ConfigError(f"delay_ms must be in 0..{MAX_DELAY_MS}, got {self.delay_ms}")


@dataclass(frozen=True)
class ProbeReport:
    connections_requested: int
    connections_established: int
    failures: int
    setup_total_s: float
    response_times_ms: tuple[float, ...] = ()
    max_response_ms: float = 0.0
    mean_response_ms: float = 0.0
    throughput_bytes_per_s: float = 0.0
    bytes_sent: int = 0
    bytes_acked: int = 0

    def __post_init__(self):
        if self.connections_established + self.failures != self.connections_requested:
            raise ConfigError(
                f"established {self.connections_established} + failures {self.failures}"
                f" != requested {self.connections_requested}")
        if self.response_times_ms and self.max_response_ms != max(self.response_times_ms):
            raise ConfigError("max_response_ms inconsistent with response_times_ms")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "response_times_ms": list(self.response_times_ms)}


class _Conn:
    """A served connection's state in the server loop."""

    __slots__ = ("sock", "inbuf", "outbuf", "received", "echo_due", "events")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        # the start of a frame, or the frames that wait while a reply does
        self.inbuf = bytearray()
        self.outbuf = b""  # the unsent tail of the one reply in flight
        self.received = 0  # DATA payload bytes since the connection opened
        self.echo_due = False  # a delayed echo waits in the timer heap
        self.events = 0  # the selector events it is registered for


class ProbeServer:
    """Echo/sink server with deterministic fault injection.

    One thread runs a selector loop over the listener and every connection.
    Runs until stop() or until any client sends SHUTDOWN.
    """

    def __init__(self, port: int = 0, fault_policy: FaultPolicy = FaultPolicy(),
                 host: str = "127.0.0.1"):
        self.policy = fault_policy
        self.host = host
        self._requested_port = check_port(port)
        self._accepted = 0
        self._stopping = False
        self._stopped = threading.Event()
        # stop() closes the listener and writes the wake socket from any
        # thread; the lock keeps either from racing the loop's own use
        self._lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._sel: selectors.BaseSelector | None = None
        self._thread: threading.Thread | None = None
        self._conns: set[_Conn] = set()
        self._rview: memoryview | None = None
        self._timers: list[tuple[float, int, _Conn, bytes]] = []  # (due, seq, conn, echo)
        self._seq = itertools.count()

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> "ProbeServer":
        try:
            # sets SO_REUSEADDR, and closes the socket if bind or listen fails
            sock = socket.create_server((self.host, self._requested_port), backlog=512)
        except OSError as e:
            raise BindFailure(f"cannot bind probe server on port {self._requested_port}: {e}") from e
        try:
            self._wake_r, self._wake_w = socket.socketpair()
        except OSError:
            sock.close()
            raise
        for s in (sock, self._wake_r, self._wake_w):
            s.setblocking(False)
        self._listener = sock
        # every recv lands here first; a connection keeps only a partial frame
        self._rview = memoryview(bytearray(_READ_BYTES))
        self._sel = selectors.DefaultSelector()
        self._sel.register(sock, selectors.EVENT_READ, _LISTENER)
        self._sel.register(self._wake_r, selectors.EVENT_READ, _WAKE)
        self._thread = threading.Thread(target=self._loop, daemon=True, name="probe-loop")
        self._thread.start()
        return self

    def stop(self):
        """Refuses new connections at once; from any thread but the loop's,
        returns once every connection is closed."""
        with self._lock:
            self._stopping = True
            if self._listener is not None:
                self._listener.close()
            if self._wake_w is not None:
                try:
                    self._wake_w.send(b"\0")
                except OSError:  # its buffer is full: the loop wakes anyway
                    pass
        if self._thread is None:
            self._stopped.set()
        elif self._thread is not threading.current_thread():
            self._thread.join()

    def wait_stopped(self, timeout_s: float | None = None) -> bool:
        return self._stopped.wait(timeout_s)

    def _loop(self):
        sel, timers = self._sel, self._timers
        try:
            while not self._stopping:
                timeout = max(0.0, timers[0][0] - time.monotonic()) if timers else None
                for key, mask in sel.select(timeout):
                    if key.data is _LISTENER:
                        self._accept()
                    elif key.data is _WAKE:
                        self._wake_r.recv(64)
                    else:
                        self._on_ready(key.data, mask)
                now = time.monotonic()
                while timers and timers[0][0] <= now:
                    _, _, c, echo = heapq.heappop(timers)
                    c.echo_due = False
                    if self._reply(c, echo) and self._drain(c):
                        self._want(c)
        finally:
            for c in list(self._conns):
                self._close(c)
            timers.clear()
            with self._lock:
                self._listener.close()
                self._wake_w.close()
                self._wake_w = None
            self._wake_r.close()
            self._rview.release()
            sel.close()
            self._stopped.set()

    def _accept(self):
        while True:
            with self._lock:
                try:
                    sock, _ = self._listener.accept()
                except OSError:  # BlockingIOError once the backlog is empty
                    return
            self._accepted += 1
            n = self.policy.reject_every
            if n and self._accepted % n == 0:
                sock.close()
                continue
            sock.setblocking(False)
            c = _Conn(sock)
            self._conns.add(c)
            self._want(c)

    def _on_ready(self, c: _Conn, mask: int):
        if mask & selectors.EVENT_WRITE:
            if self._flush(c) and self._drain(c):
                self._want(c)
            return
        try:
            n = c.sock.recv_into(self._rview)
        except BlockingIOError:
            return
        except OSError:
            n = 0
        if not n:  # EOF, mid-frame or not, or a reset
            self._close(c)
            return
        data, buf, pos = self._rview[:n], c.inbuf, 0
        if buf:  # buf holds the start of one frame: complete it, then serve it
            try:
                pos = n if len(buf) < 4 else min(
                    n, 4 + check_frame_length(_LENGTH.unpack_from(buf)[0]) - len(buf))
            except ProtocolError:
                self._close(c)
                return
            buf += data[:pos]
            if not self._drain(c):
                return
        if not buf:  # the rest is served from the loop's read buffer, not copied
            done = self._frames(c, data[pos:])
            if done is None:
                return
            pos += done
        buf += data[pos:]
        self._want(c)

    def _frames(self, c: _Conn, view: memoryview) -> int | None:
        """Serves the whole frames at the start of view until c waits on a
        reply; the bytes they took, or None once c is closed."""
        pos = 0
        try:
            while not (c.outbuf or c.echo_due) and len(view) - pos >= FRAME_HEAD.size:
                length, tag = FRAME_HEAD.unpack_from(view, pos)
                end = pos + 4 + check_frame_length(length)
                if end > len(view):
                    break
                if tag == MessageTag.DATA and length > 1:  # sunk: counted, never copied
                    c.received += length - 1
                    pos = end
                    continue
                msg = decode_message(tag, view[pos + FRAME_HEAD.size:end].tobytes())
                pos = end
                if not self._serve(c, msg):
                    return None
        except ProtocolError:
            self._close(c)
            return None
        return pos

    def _drain(self, c: _Conn) -> bool:
        """Serves c's buffered whole frames until it waits on a reply; False
        once c is closed."""
        with memoryview(c.inbuf) as view:
            done = self._frames(c, view)
        if done is None:
            return False
        del c.inbuf[:done]
        return True

    def _serve(self, c: _Conn, msg) -> bool:
        """Answers one message; False once c is closed."""
        if isinstance(msg, Ping):
            echo = frame_bytes(*encode_message(msg))
            if self.policy.delay_ms > 0:
                c.echo_due = True
                due = time.monotonic() + self.policy.delay_ms / 1000.0
                heapq.heappush(self._timers, (due, next(self._seq), c, echo))
                return True
            return self._reply(c, echo)
        if isinstance(msg, Data):  # the barrier: _frames counts the rest
            return self._reply(c, frame_bytes(*encode_message(
                Data(struct.pack("<Q", c.received)))))
        if isinstance(msg, Shutdown):
            self.stop()
            self._close(c)
            return False
        return True

    def _reply(self, c: _Conn, frame: bytes) -> bool:
        c.outbuf = frame
        return self._flush(c)

    def _flush(self, c: _Conn) -> bool:
        """Sends what c's socket takes of its reply; False once c is closed."""
        try:
            c.outbuf = c.outbuf[c.sock.send(c.outbuf):]
        except BlockingIOError:
            pass
        except OSError:
            self._close(c)
            return False
        return True

    def _want(self, c: _Conn):
        """Registers c for writing while a reply is unsent, for nothing while
        an echo is delayed, else for reading: a connection that waits on its
        peer or on its timer is neither read nor parsed."""
        want = (selectors.EVENT_WRITE if c.outbuf
                else 0 if c.echo_due else selectors.EVENT_READ)
        if want == c.events:
            return
        if not c.events:
            self._sel.register(c.sock, want, c)
        elif not want:
            self._sel.unregister(c.sock)
        else:
            self._sel.modify(c.sock, want, c)
        c.events = want

    def _close(self, c: _Conn):
        if c.events:
            self._sel.unregister(c.sock)
            c.events = 0
        self._conns.discard(c)
        c.sock.close()


def probe_connections(server_addr: tuple[str, int], k: int, concurrency: int = 512,
                      connect_timeout_s: float = 10.0) -> ProbeReport:
    """Opens k connections with at most `concurrency` in flight, pinging each.

    A connection counts as established only after its 16-byte ping echoes
    back intact; everything else (refused, reset, bad echo) is a failure.
    Individual failures never abort the storm.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if concurrency < 1:
        raise ConfigError(f"concurrency must be >= 1, got {concurrency}")

    def one(i: int) -> float | None:
        nonce = i.to_bytes(PING_BYTES, "little")
        try:
            with socket.create_connection(server_addr, timeout=connect_timeout_s) as sock:
                t0 = time.perf_counter()
                send_message(sock, Ping(nonce))
                reply = recv_message(sock)
                rtt_ms = (time.perf_counter() - t0) * 1000.0
                if isinstance(reply, Ping) and reply.nonce == nonce:
                    return rtt_ms
                return None
        except (OSError, ProtocolError):
            return None

    t_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=min(concurrency, k)) as pool:
        outcomes = list(pool.map(one, range(k)))
    setup_total_s = time.perf_counter() - t_start

    rtts = tuple(r for r in outcomes if r is not None)
    if not rtts:
        raise ServerUnreachable(f"all {k} connections to {server_addr} failed")
    return ProbeReport(
        connections_requested=k,
        connections_established=len(rtts),
        failures=k - len(rtts),
        setup_total_s=setup_total_s,
        response_times_ms=rtts,
        max_response_ms=max(rtts),
        mean_response_ms=sum(rtts) / len(rtts),
    )


def probe_throughput(server_addr: tuple[str, int], payload_bytes: int = 1 << 16,
                     duration_s: float = 1.0,
                     connect_timeout_s: float = 10.0) -> ProbeReport:
    """Streams DATA frames for the given duration, then barriers.

    throughput = bytes the server acknowledged / total elapsed time
    (including the barrier round trip).
    """
    if payload_bytes < 1:
        raise ConfigError(f"payload_bytes must be >= 1, got {payload_bytes}")
    if duration_s <= 0:
        raise ConfigError(f"duration_s must be > 0, got {duration_s}")
    try:
        sock = socket.create_connection(server_addr, timeout=connect_timeout_s)
    except OSError as e:
        raise ServerUnreachable(f"cannot reach {server_addr}: {e}") from e
    payload = b"\x5a" * payload_bytes
    sent = 0
    try:
        sock.settimeout(max(30.0, 10 * duration_s))
        t0 = time.perf_counter()
        deadline = t0 + duration_s
        while time.perf_counter() < deadline:
            send_message(sock, Data(payload))
            sent += payload_bytes
        send_message(sock, Data(b""))
        reply = recv_message(sock)
        elapsed = time.perf_counter() - t0
    except (OSError, ProtocolError) as e:
        raise ServerUnreachable(f"throughput stream to {server_addr} failed: {e}") from e
    finally:
        sock.close()
    if not isinstance(reply, Data) or len(reply.payload) != 8:
        raise ServerUnreachable(f"bad barrier reply from {server_addr}")
    acked = struct.unpack("<Q", reply.payload)[0]
    return ProbeReport(
        connections_requested=1,
        connections_established=1,
        failures=0,
        setup_total_s=elapsed,
        throughput_bytes_per_s=acked / elapsed,
        bytes_sent=sent,
        bytes_acked=acked,
    )
