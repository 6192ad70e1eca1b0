"""Network overhead probes: connection storms, response latency, throughput.

The probe server reuses the cluster wire framing.  PING frames are echoed
(after any configured delay), nonempty DATA frames are sunk and counted,
and an empty DATA frame is the barrier: the server answers it with the
total payload bytes received on that connection, which is what lets the
client verify that sent == acknowledged.

The probe server shares the master's loop, cluster.FramedServer: one
thread serves every connection, a delayed echo waits in its timer heap and
holds its connection back, and DATA payloads are counted straight from its
read buffer, never decoded or copied.

The storm client is the same design on the other end: one thread drives
up to `concurrency` non-blocking sockets through one selector loop, so
`concurrency` counts sockets in flight, not threads, and a storm starts no
thread.  Every connection's connect and echo has a deadline; the loop waits
only until the earliest, and deadlines sit in a queue in the order they fall
due.

Fault injection is server-side and deterministic: with reject_every=N the
server closes every Nth accepted connection before reading a byte, so a
storm of k connections fails exactly k//N times.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time
from collections import deque
from dataclasses import asdict, dataclass

from .cluster import (FRAME_HEAD, FRAME_LENGTH, MAX_DELAY_MS, READ_BYTES, Connection, Data,
                      FramedServer, MessageTag, Ping, ProtocolError, Shutdown, check_frame_length,
                      decode_message, encode_message, frame_bytes, recv_message, send_message)
from .core import exact_int
from .errors import ConfigError, ScalemapError

PING_BYTES = 16
# a ping frame, and so the echo a storm connection waits for
_ECHO_BYTES = FRAME_HEAD.size + PING_BYTES


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


class ProbeServer(FramedServer):
    """Echo/sink server with deterministic fault injection, on the shared
    loop.  Runs until stop() or until any client sends SHUTDOWN."""

    def __init__(self, port: int = 0, fault_policy: FaultPolicy = FaultPolicy(),
                 host: str = "127.0.0.1"):
        super().__init__(host, port, backlog=512)
        self.policy = fault_policy
        self._accepted = 0

    def _on_accept(self, c: Connection):
        self._accepted += 1
        c.state = 0  # DATA payload bytes received on it
        if self.policy.reject_every and self._accepted % self.policy.reject_every == 0:
            self._close(c, "rejected")

    def _on_frame(self, c: Connection, tag: int, payload: memoryview):
        if tag == MessageTag.DATA and payload:  # sunk: counted, never copied
            c.state += len(payload)
            return
        msg = decode_message(tag, payload.tobytes())
        if isinstance(msg, Ping):
            echo = frame_bytes(*encode_message(msg))
            if self.policy.delay_ms > 0:
                c.held = True
                self.at(time.monotonic() + self.policy.delay_ms / 1000.0, self._echo, c, echo)
            else:
                c.sendall(echo)
        elif isinstance(msg, Data):  # the barrier
            c.sendall(frame_bytes(*encode_message(Data(struct.pack("<Q", c.state)))))
        elif isinstance(msg, Shutdown):
            self.stop()
            self._close(c, "shutdown")

    def _echo(self, c: Connection, echo: bytes):
        c.held = False
        c.sendall(echo)
        self.resume(c)


class _Probe:
    """A storm connection's state in the client loop."""

    __slots__ = ("index", "addr_i", "sock", "unsent", "reply", "want", "t0", "deadline")

    def __init__(self, index: int):
        self.index = index  # its place in the storm, and its ping's nonce
        self.addr_i = 0  # the next resolved address to try
        self.sock: socket.socket | None = None
        self.unsent: bytes | None = None  # the ping's unsent tail; None while connecting
        self.reply = bytearray()
        self.want = _ECHO_BYTES  # the reply's length, once its head is read
        self.t0 = 0.0  # when the ping went out
        self.deadline: float | None = None  # None once it has finished


class _Storm:
    """The client loop of one probe_connections call: one thread drives up
    to `concurrency` non-blocking sockets through one selector."""

    def __init__(self, addrs: list, k: int, concurrency: int, timeout_s: float):
        self.addrs = addrs
        self.k = k
        self.concurrency = concurrency
        self.timeout_s = timeout_s
        self.rtts: list[float | None] = [None] * k
        self.live: set[_Probe] = set()
        # (deadline, probe); every deadline is now + timeout_s, so appending
        # keeps the queue in deadline order.  An entry whose deadline is no
        # longer its probe's is stale and skipped.
        self.timers: deque[tuple[float, _Probe]] = deque()
        self.sel = selectors.DefaultSelector()

    def run(self) -> list[float | None]:
        live, timers = self.live, self.timers
        started = 0
        try:
            while started < self.k or live:
                while started < self.k and len(live) < self.concurrency:
                    c = _Probe(started)
                    started += 1
                    live.add(c)
                    self._connect(c)
                while timers and timers[0][1].deadline != timers[0][0]:
                    timers.popleft()
                if not live:
                    break
                timeout = max(0.0, timers[0][0] - time.monotonic())
                for key, _ in self.sel.select(timeout):
                    self._on_ready(key.data)
                now = time.monotonic()
                while timers and timers[0][0] <= now:
                    deadline, c = timers.popleft()
                    if c.deadline == deadline:
                        self._expire(c)
        finally:
            for c in live:
                if c.sock is not None:
                    c.sock.close()
            self.sel.close()
        return self.rtts

    def _connect(self, c: _Probe):
        """Drops c's socket, if any, and starts its connect to its next
        resolved address, as socket.create_connection tries them; c fails
        once none is left."""
        if c.sock is not None:
            self._drop_socket(c)
        while c.addr_i < len(self.addrs):
            family, kind, proto, _, sockaddr = self.addrs[c.addr_i]
            c.addr_i += 1
            try:
                sock = socket.socket(family, kind, proto)
            except OSError:
                continue
            try:
                sock.setblocking(False)
                try:
                    sock.connect(sockaddr)
                except (BlockingIOError, InterruptedError):
                    pass  # in progress: the socket turns writable when it is done
                self.sel.register(sock, selectors.EVENT_WRITE, c)
            except OSError:
                sock.close()
                continue
            c.sock = sock
            self._arm(c)
            return
        self._finish(c)

    def _on_ready(self, c: _Probe):
        if c.unsent is None:  # the connect is done, one way or the other
            if c.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                self._connect(c)
                return
            c.unsent = frame_bytes(*encode_message(Ping(c.index.to_bytes(PING_BYTES, "little"))))
            c.t0 = time.perf_counter()
            self._arm(c)  # the echo's deadline
        if c.unsent:
            self._send(c)
        else:
            self._read(c)

    def _send(self, c: _Probe):
        try:
            c.unsent = c.unsent[c.sock.send(c.unsent):]
        except BlockingIOError:
            return
        except OSError:
            self._finish(c)
            return
        if not c.unsent:
            self.sel.modify(c.sock, selectors.EVENT_READ, c)

    def _read(self, c: _Probe):
        """Reads at most the one frame c's echo should be; c is established
        once that frame decodes to a Ping with its own nonce."""
        try:
            data = c.sock.recv(min(c.want - len(c.reply), READ_BYTES))
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:  # EOF, mid-frame or not, or a reset
            self._finish(c)
            return
        reply = c.reply
        reply += data
        try:
            if len(reply) >= 4:
                c.want = 4 + check_frame_length(FRAME_LENGTH.unpack_from(reply)[0])
            if len(reply) < c.want:
                return
            if len(reply) == c.want:  # else more than the one frame came
                _, tag = FRAME_HEAD.unpack_from(reply)
                msg = decode_message(tag, bytes(reply[FRAME_HEAD.size:]))
                rtt_ms = (time.perf_counter() - c.t0) * 1000.0
                if isinstance(msg, Ping) and msg.nonce == c.index.to_bytes(PING_BYTES, "little"):
                    self.rtts[c.index] = rtt_ms
        except ProtocolError:
            pass
        self._finish(c)

    def _expire(self, c: _Probe):
        """A connect that timed out moves on to the next address, as
        socket.create_connection does; an echo that timed out fails."""
        if c.unsent is None:
            self._connect(c)
        else:
            self._finish(c)

    def _arm(self, c: _Probe):
        c.deadline = time.monotonic() + self.timeout_s
        self.timers.append((c.deadline, c))

    def _drop_socket(self, c: _Probe):
        self.sel.unregister(c.sock)
        c.sock.close()
        c.sock = None

    def _finish(self, c: _Probe):
        if c.sock is not None:
            self._drop_socket(c)
        c.deadline = None
        self.live.discard(c)


def _check_connect_timeout(timeout_s: float):
    """The storm's loop waits until its earliest deadline, in a selector timeout."""
    if not 0 < timeout_s <= MAX_DELAY_MS / 1000.0:  # nan fails both
        raise ConfigError(f"connect_timeout_s must be in (0, {MAX_DELAY_MS / 1000.0}],"
                          f" got {timeout_s}")


def probe_connections(server_addr: tuple[str, int], k: int, concurrency: int = 512,
                      connect_timeout_s: float = 10.0) -> ProbeReport:
    """Opens k connections with at most `concurrency` in flight, pinging each.

    One thread drives every connection through one selector loop, so
    `concurrency` counts sockets in flight, not threads.  server_addr is
    resolved once; each connection tries the resolved addresses in order.
    A connection has connect_timeout_s for its connect and as long again for
    its echo.  It counts as established only after its 16-byte ping echoes
    back intact as one frame; everything else (refused, reset, EOF, a
    malformed or wrong reply, a timeout) is a failure.  Individual failures
    never abort the storm.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if concurrency < 1:
        raise ConfigError(f"concurrency must be >= 1, got {concurrency}")
    _check_connect_timeout(connect_timeout_s)

    t_start = time.perf_counter()
    host, port = server_addr
    try:
        addrs = socket.getaddrinfo(host, port, 0, socket.SOCK_STREAM)
    except OSError as e:
        raise ServerUnreachable(f"cannot resolve {server_addr}: {e}") from e
    outcomes = _Storm(addrs, k, concurrency, connect_timeout_s).run()
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
    _check_connect_timeout(connect_timeout_s)
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
