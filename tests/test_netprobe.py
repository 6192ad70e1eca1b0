"""Connection-storm, latency-floor, and throughput probe behavior."""

import dataclasses
import json
import math
import os
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalemap import netprobe
from scalemap.cluster import (BindFailure, Data, Ping, encode_message, frame_bytes,
                              recv_message, send_message)
from scalemap.errors import ConfigError
from scalemap.netprobe import (
    MAX_DELAY_MS,
    FaultPolicy,
    ProbeReport,
    ProbeServer,
    ServerUnreachable,
    probe_connections,
    probe_throughput,
)


@pytest.fixture
def server():
    started = []

    def factory(policy: FaultPolicy = FaultPolicy()) -> ProbeServer:
        srv = ProbeServer(fault_policy=policy).start()
        started.append(srv)
        return srv

    yield factory
    for srv in started:
        srv.stop()


def addr(srv: ProbeServer) -> tuple[str, int]:
    return ("127.0.0.1", srv.port)


def pinged(srv: ProbeServer) -> socket.socket | None:
    """A connection the server has accepted and answered one ping on, or None
    if the server dropped it (a reject slot)."""
    sock = socket.create_connection(addr(srv), timeout=10.0)
    try:
        send_message(sock, Ping(b"\x07" * 16))
        if recv_message(sock) == Ping(b"\x07" * 16):
            return sock
    except OSError:
        pass
    sock.close()
    return None


class TestConnections:
    def test_all_succeed_without_faults(self, server):
        srv = server()
        rep = probe_connections(addr(srv), k=50, concurrency=16)
        assert rep.connections_requested == 50
        assert rep.connections_established == 50
        assert rep.failures == 0
        assert len(rep.response_times_ms) == 50
        assert rep.setup_total_s > 0

    def test_reject_every_10_of_200(self, server):
        srv = server(FaultPolicy(reject_every=10))
        rep = probe_connections(addr(srv), k=200, concurrency=32)
        assert rep.connections_established == 180
        assert rep.failures == 20

    def test_reject_every_1_is_unreachable(self, server):
        srv = server(FaultPolicy(reject_every=1))
        with pytest.raises(ServerUnreachable):
            probe_connections(addr(srv), k=20, concurrency=4)

    @settings(max_examples=8)
    @given(reject_every=st.integers(min_value=2, max_value=9),
           k=st.integers(min_value=1, max_value=60))
    def test_failure_count_conservation(self, reject_every, k):
        for concurrency in (1, 8, 64):  # 64: more slots than connections
            srv = ProbeServer(fault_policy=FaultPolicy(reject_every=reject_every)).start()
            try:
                rep = probe_connections(addr(srv), k=k, concurrency=concurrency)
                assert rep.connections_established + rep.failures == k
                assert rep.failures == k // reject_every
                assert len(rep.response_times_ms) == rep.connections_established
            finally:
                srv.stop()

    def test_a_storm_starts_no_thread(self, server, monkeypatch):
        srv = server(FaultPolicy(reject_every=10))

        def refuse(thread):
            raise AssertionError(f"the storm started thread {thread.name}")

        with monkeypatch.context() as m:
            m.setattr(threading.Thread, "start", refuse)
            rep = probe_connections(addr(srv), k=200, concurrency=64)
        assert rep.failures == 20

    @pytest.mark.parametrize("backlog", [0, 16])
    def test_a_silent_peer_fails_at_the_deadline(self, backlog):
        # the listener never accepts or reads: each connection fails when its
        # connect or its echo deadline passes, whichever the kernel leaves it to
        fds = set(os.listdir("/dev/fd"))
        with socket.create_server(("127.0.0.1", 0), backlog=backlog) as silent:
            t0 = time.perf_counter()
            with pytest.raises(ServerUnreachable):
                probe_connections(silent.getsockname(), k=4, concurrency=2,
                                  connect_timeout_s=0.3)
            assert time.perf_counter() - t0 < 2.0
        assert set(os.listdir("/dev/fd")) <= fds

    def test_addresses_are_tried_in_order(self, server, monkeypatch):
        srv = server()
        scout = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        scout.bind(("127.0.0.1", 0))
        dead_port = scout.getsockname()[1]
        scout.close()
        calls = []

        def resolve(host, port, *args):
            calls.append((host, port))
            return [(socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", dead_port)),
                    (socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", srv.port))]

        monkeypatch.setattr(netprobe.socket, "getaddrinfo", resolve)
        rep = probe_connections(("probe.invalid", 1), k=20, concurrency=4)
        assert rep.connections_established == 20
        assert calls == [("probe.invalid", 1)]  # resolved once per storm

    def test_dead_port_unreachable(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServerUnreachable):
            probe_connections(("127.0.0.1", dead_port), k=3, concurrency=2,
                              connect_timeout_s=2.0)

    def test_k_must_be_positive(self, server):
        srv = server()
        with pytest.raises(ConfigError):
            probe_connections(addr(srv), k=0)

    def test_concurrency_must_be_positive(self, server):
        srv = server()
        with pytest.raises(ConfigError):
            probe_connections(addr(srv), k=5, concurrency=0)

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, math.nan, math.inf])
    def test_untimeable_connect_timeout_rejected(self, server, timeout_s):
        srv = server()
        with pytest.raises(ConfigError, match="connect_timeout_s"):
            probe_connections(addr(srv), k=2, connect_timeout_s=timeout_s)

    def test_mean_and_max_consistent(self, server):
        srv = server()
        rep = probe_connections(addr(srv), k=30, concurrency=8)
        assert rep.max_response_ms == max(rep.response_times_ms)
        assert rep.mean_response_ms == pytest.approx(
            sum(rep.response_times_ms) / len(rep.response_times_ms))
        assert min(rep.response_times_ms) > 0


class TestDelay:
    def test_delay_lower_bounds_every_response(self, server):
        srv = server(FaultPolicy(delay_ms=10.0))
        rep = probe_connections(addr(srv), k=20, concurrency=4)
        assert rep.connections_established == 20
        # sleep() guarantees at least the requested interval; allow a hair of
        # clock skew between the two perf_counter reads
        assert all(rtt >= 9.99 for rtt in rep.response_times_ms)
        assert rep.max_response_ms >= 9.99

    def test_no_delay_is_fast(self, server):
        srv = server()
        rep = probe_connections(addr(srv), k=10, concurrency=4)
        # loopback echo without imposed delay should be well under 10ms
        assert min(rep.response_times_ms) < 10.0


class TestServerLoop:
    def test_a_client_that_stops_reading_stalls_only_itself(self, server):
        srv = server()
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect(addr(srv))
        stalled.settimeout(0.2)
        pings = b"".join(frame_bytes(*encode_message(Ping(i.to_bytes(16, "little"))))
                         for i in range(512))
        try:
            # pipeline pings and read no echo until the server stops taking them
            deadline = time.monotonic() + 10.0
            with pytest.raises(TimeoutError):
                while time.monotonic() < deadline:
                    stalled.sendall(pings)
            t0 = time.perf_counter()
            rep = probe_connections(addr(srv), k=1, connect_timeout_s=1.0)
            assert time.perf_counter() - t0 < 1.0
            assert rep.connections_established == 1
        finally:
            stalled.close()

    def test_frames_cut_anywhere_are_served_in_order(self, server):
        srv = server()
        big = Data(b"\x5a" * 300_000)  # spans several reads
        wire = b"".join(frame_bytes(*encode_message(m)) for m in
                        [Ping(b"\x01" * 16), big, Data(b"")])
        with socket.create_connection(addr(srv), timeout=10.0) as sock:
            head, tail = wire[:40], wire[40:]
            for i in range(len(head)):  # the first frames a byte at a time
                sock.sendall(head[i:i + 1])
                time.sleep(0.001)
            sock.sendall(tail)
            assert recv_message(sock) == Ping(b"\x01" * 16)
            assert recv_message(sock) == Data(struct.pack("<Q", 300_000))

    def test_a_bad_frame_closes_only_its_connection(self, server):
        srv = server()
        good = pinged(srv)
        try:
            with socket.create_connection(addr(srv), timeout=10.0) as bad:
                bad.sendall(struct.pack(">I", 0) + b"\x00")
                assert bad.recv(16) == b""
            send_message(good, Ping(b"\x02" * 16))
            assert recv_message(good) == Ping(b"\x02" * 16)
        finally:
            good.close()

    def test_delayed_echoes_overlap(self, server):
        srv = server(FaultPolicy(delay_ms=50.0))
        rep = probe_connections(addr(srv), k=16, concurrency=8)
        assert rep.connections_established == 16
        assert rep.setup_total_s < 0.4  # two waves of 8, not 16 delays in a row
        assert all(rtt >= 49.99 for rtt in rep.response_times_ms)

    def test_open_connections_keep_the_reject_schedule(self, server):
        srv = server(FaultPolicy(reject_every=10))
        held = [pinged(srv) for _ in range(300)]  # accepted connections 1..300
        try:
            assert sum(s is None for s in held) == 30
            rep = probe_connections(addr(srv), k=200, concurrency=8)
            assert rep.failures == 20
        finally:
            for s in held:
                if s is not None:
                    s.close()

    def test_one_thread_serves_every_connection(self, server):
        srv = server()
        held = [pinged(srv)]
        try:
            one = threading.active_count()
            held += [pinged(srv) for _ in range(49)]
            assert None not in held
            assert threading.active_count() == one
        finally:
            for s in held:
                if s is not None:
                    s.close()


class TestThroughput:
    def test_bytes_conserved_and_rate_positive(self, server):
        srv = server()
        rep = probe_throughput(addr(srv), payload_bytes=1 << 15, duration_s=0.3)
        assert rep.bytes_sent > 0
        assert rep.bytes_acked == rep.bytes_sent
        assert rep.throughput_bytes_per_s > 0
        assert rep.connections_established == 1

    def test_longer_run_moves_more_bytes(self, server):
        srv = server()
        short = probe_throughput(addr(srv), payload_bytes=1 << 14, duration_s=0.15)
        long = probe_throughput(addr(srv), payload_bytes=1 << 14, duration_s=0.6)
        # 4x the duration should move clearly more data; wide bounds to
        # tolerate a noisy single-core box
        assert long.bytes_acked > short.bytes_acked * 1.5

    def test_dead_port_unreachable(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServerUnreachable):
            probe_throughput(("127.0.0.1", dead_port), duration_s=0.1,
                             connect_timeout_s=2.0)

    def test_zero_payload_rejected(self, server):
        srv = server()
        with pytest.raises(ConfigError):
            probe_throughput(addr(srv), payload_bytes=0, duration_s=0.1)

    @pytest.mark.parametrize("timeout_s", [math.nan, -1.0, 0.0, MAX_DELAY_MS / 1000 + 1])
    def test_untimeable_connect_timeout_rejected(self, server, timeout_s):
        srv = server()
        with pytest.raises(ConfigError, match="connect_timeout_s"):
            probe_throughput(addr(srv), duration_s=0.1, connect_timeout_s=timeout_s)

    def test_zero_duration_rejected(self, server):
        srv = server()
        with pytest.raises(ConfigError):
            probe_throughput(addr(srv), payload_bytes=1024, duration_s=0.0)


class TestFaultPolicy:
    def test_negative_reject_rejected(self):
        with pytest.raises(ConfigError):
            FaultPolicy(reject_every=-1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            FaultPolicy(delay_ms=-0.5)

    @pytest.mark.parametrize("value", [True, False, 2.5, 10.0, "3", None])
    def test_non_integer_reject_every_rejected(self, value):
        with pytest.raises(ConfigError, match="reject_every"):
            FaultPolicy(reject_every=value)

    @pytest.mark.parametrize("value", ["5", None, True, b"1", math.nan, math.inf,
                                       MAX_DELAY_MS + 1])
    def test_non_numeric_or_untimeable_delay_rejected(self, value):
        with pytest.raises(ConfigError, match="delay_ms"):
            FaultPolicy(delay_ms=value)

    def test_integer_delay_accepted(self):
        assert FaultPolicy(reject_every=3, delay_ms=5).delay_ms == 5


class TestReport:
    def test_json_round_trip(self):
        rep = ProbeReport(
            connections_requested=5,
            connections_established=4,
            failures=1,
            setup_total_s=0.25,
            response_times_ms=(1.5, 2.5, 0.75, 3.0),
            max_response_ms=3.0,
            mean_response_ms=1.9375,
            throughput_bytes_per_s=1e6,
            bytes_sent=1000,
            bytes_acked=1000,
        )
        back = json.loads(json.dumps(rep.to_json_dict()))
        assert back.keys() == {f.name for f in dataclasses.fields(ProbeReport)}
        assert ProbeReport(**{**back, "response_times_ms": tuple(back["response_times_ms"])}) == rep

    def test_conservation_enforced(self):
        with pytest.raises(ConfigError):
            ProbeReport(connections_requested=5, connections_established=5,
                        failures=1, setup_total_s=0.1)

    def test_max_consistency_enforced(self):
        with pytest.raises(ConfigError):
            ProbeReport(connections_requested=1, connections_established=1,
                        failures=0, setup_total_s=0.1,
                        response_times_ms=(2.0, 5.0), max_response_ms=2.0)


class TestServerLifecycle:
    def test_stop_unblocks_port(self):
        srv = ProbeServer().start()
        port = srv.port
        srv.stop()
        # after stop, the port no longer accepts our protocol
        with pytest.raises(ServerUnreachable):
            probe_connections(("127.0.0.1", port), k=2, concurrency=2,
                              connect_timeout_s=2.0)

    def test_fixed_port_binds(self):
        scout = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        scout.bind(("127.0.0.1", 0))
        free_port = scout.getsockname()[1]
        scout.close()
        srv = ProbeServer(port=free_port).start()
        try:
            assert srv.port == free_port
            rep = probe_connections(addr(srv), k=2, concurrency=2)
            assert rep.connections_established == 2
        finally:
            srv.stop()

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_outside_u16_rejected_before_any_socket(self, port):
        with pytest.raises(ConfigError, match="port"):
            ProbeServer(port=port)

    def test_taken_port_is_a_bind_failure(self, server):
        srv = server()
        with pytest.raises(BindFailure):
            ProbeServer(port=srv.port).start()
