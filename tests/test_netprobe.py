"""Connection-storm, latency-floor, and throughput probe behavior."""

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalemap.cluster import BindFailure
from scalemap.errors import ConfigError
from scalemap.netprobe import (
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
        srv = ProbeServer(fault_policy=FaultPolicy(reject_every=reject_every)).start()
        try:
            rep = probe_connections(addr(srv), k=k, concurrency=8)
            assert rep.connections_established + rep.failures == k
            assert rep.failures == k // reject_every
        finally:
            srv.stop()

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
        assert ProbeReport.from_json_dict(rep.to_json_dict()) == rep

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

    def test_taken_port_is_a_bind_failure(self, server):
        srv = server()
        with pytest.raises(BindFailure):
            ProbeServer(port=srv.port).start()
