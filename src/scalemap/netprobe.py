"""Network overhead probes: connection storms, response latency, throughput.

The probe server reuses the cluster wire framing.  PING frames are echoed
(after any configured delay), nonempty DATA frames are sunk and counted,
and an empty DATA frame is the barrier: the server answers it with the
total payload bytes received on that connection, which is what lets the
client verify that sent == acknowledged.

Fault injection is server-side and deterministic: with reject_every=N the
server closes every Nth accepted connection before reading a byte, so a
storm of k connections fails exactly k//N times.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .cluster import (
    BindFailure,
    Data,
    Ping,
    ProtocolError,
    Shutdown,
    recv_message,
    send_message,
)
from .errors import ConfigError, ScalemapError

PING_BYTES = 16


class ServerUnreachable(ScalemapError):
    pass


@dataclass(frozen=True)
class FaultPolicy:
    reject_every: int = 0  # 0 disables; N rejects accepted connections N, 2N, ...
    delay_ms: float = 0.0  # imposed on every ping before the echo

    def __post_init__(self):
        if self.reject_every < 0:
            raise ConfigError(f"reject_every must be >= 0, got {self.reject_every}")
        if self.delay_ms < 0:
            raise ConfigError(f"delay_ms must be >= 0, got {self.delay_ms}")


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
        return {
            "connections_requested": self.connections_requested,
            "connections_established": self.connections_established,
            "failures": self.failures,
            "setup_total_s": self.setup_total_s,
            "response_times_ms": list(self.response_times_ms),
            "max_response_ms": self.max_response_ms,
            "mean_response_ms": self.mean_response_ms,
            "throughput_bytes_per_s": self.throughput_bytes_per_s,
            "bytes_sent": self.bytes_sent,
            "bytes_acked": self.bytes_acked,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProbeReport":
        return cls(
            connections_requested=int(d["connections_requested"]),
            connections_established=int(d["connections_established"]),
            failures=int(d["failures"]),
            setup_total_s=float(d["setup_total_s"]),
            response_times_ms=tuple(float(x) for x in d["response_times_ms"]),
            max_response_ms=float(d["max_response_ms"]),
            mean_response_ms=float(d["mean_response_ms"]),
            throughput_bytes_per_s=float(d["throughput_bytes_per_s"]),
            bytes_sent=int(d["bytes_sent"]),
            bytes_acked=int(d["bytes_acked"]),
        )


class ProbeServer:
    """Echo/sink server with deterministic fault injection.

    Runs until stop() or until any client sends SHUTDOWN.
    """

    def __init__(self, port: int = 0, fault_policy: FaultPolicy = FaultPolicy(),
                 host: str = "127.0.0.1"):
        self.policy = fault_policy
        self.host = host
        self._requested_port = port
        self._accepted = 0
        self._stopped = threading.Event()
        self._listener: socket.socket | None = None
        self._conns: set[socket.socket] = set()
        self._lock = threading.Lock()

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> "ProbeServer":
        try:
            # sets SO_REUSEADDR, and closes the socket if bind or listen fails
            sock = socket.create_server((self.host, self._requested_port), backlog=512)
        except OSError as e:
            raise BindFailure(f"cannot bind probe server on port {self._requested_port}: {e}") from e
        self._listener = sock
        threading.Thread(target=self._accept_loop, daemon=True, name="probe-accept").start()
        return self

    def stop(self):
        self._stopped.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
        for c in conns:
            try:
                c.close()
            except OSError:
                pass

    def wait_stopped(self, timeout_s: float | None = None) -> bool:
        return self._stopped.wait(timeout_s)

    def _accept_loop(self):
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._accepted += 1
            n = self.policy.reject_every
            if n and self._accepted % n == 0:
                conn.close()
                continue
            with self._lock:
                self._conns.add(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket):
        received = 0
        try:
            while not self._stopped.is_set():
                msg = recv_message(conn)
                if msg is None:
                    return
                if isinstance(msg, Ping):
                    if self.policy.delay_ms > 0:
                        time.sleep(self.policy.delay_ms / 1000.0)
                    send_message(conn, Ping(msg.nonce))
                elif isinstance(msg, Data):
                    if msg.payload:
                        received += len(msg.payload)
                    else:
                        send_message(conn, Data(struct.pack("<Q", received)))
                elif isinstance(msg, Shutdown):
                    self.stop()
                    return
        except (ProtocolError, OSError):
            return
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass


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
