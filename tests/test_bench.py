import json
import math
import threading

import pytest

from scalemap.core import BenchmarkParams, LoadBinary, RecordCodec, Vec3, encode_vectors, generate_vectors
from scalemap.engine import Engine, StorageLevel
from scalemap.cluster import ClusterConfig, Master, Worker
from scalemap.bench import (
    ConfigError,
    RunRecord,
    ScalingMode,
    StageTimings,
    read_records_jsonl,
    run_pipeline,
    run_sweep,
    sweep_configurations,
    write_records_jsonl,
)


def desk_params(blocks, vpu=256, **kw):
    return BenchmarkParams(blocks=blocks, vectors_per_unit=vpu, **kw)


class TestRunPipeline:
    def test_shifted_mean_lands_near_delta_plus_half(self, tmp_path):
        params = desk_params(blocks=12, vpu=2**10, shift_delta=Vec3(0.5, 0.5, 0.5))
        rec = run_pipeline(params, scratch=tmp_path)
        n = params.total_vectors
        three_sigma = 3 * math.sqrt(1.0 / 12.0) / math.sqrt(n)
        for c in rec.result.as_tuple():
            assert abs(c - 1.0) < three_sigma

    def test_zero_delta_equals_unmapped_reduce(self, tmp_path):
        params = desk_params(blocks=8, cores=4)
        rec = run_pipeline(params, scratch=tmp_path / "run")
        with Engine(1 << 30, tmp_path / "plain") as e:
            want = e.reduce_average(e.source(params))
        assert rec.result == want

    def test_load_binary_reproduces_generate_run(self, tmp_path):
        gen = desk_params(blocks=6, cores=3, seed=77)
        blockdir = tmp_path / "blocks"
        blockdir.mkdir()
        codec = RecordCodec(24)
        for b in range(gen.blocks):
            block = generate_vectors(gen.seed, b, gen.vectors_per_block)
            (blockdir / f"{b:05d}.bin").write_bytes(encode_vectors(block, codec))
        loaded = gen.replaced(source=LoadBinary(str(blockdir), 24))
        a = run_pipeline(gen, scratch=tmp_path / "a")
        b = run_pipeline(loaded, scratch=tmp_path / "b")
        assert a.result == b.result

    def test_stage_timings_disjoint_and_positive(self, tmp_path):
        rec = run_pipeline(desk_params(blocks=8, vpu=1024), scratch=tmp_path)
        t = rec.timings
        assert t.create_s > 0 and t.map_s > 0 and t.reduce_s > 0
        assert t.total_s >= t.create_s + t.map_s + t.reduce_s - 1e-6

    def test_skip_reduce(self, tmp_path):
        rec = run_pipeline(desk_params(blocks=4), scratch=tmp_path, skip_reduce=True)
        assert rec.result is None
        assert rec.timings.reduce_s == 0.0
        assert rec.timings.counters["map"]["bytes"] == 4 * 256 * 24

    def test_spill_counters_surface_in_record(self, tmp_path):
        params = desk_params(blocks=8, cores=8)
        rec = run_pipeline(params, scratch=tmp_path,
                           memory_budget=params.total_bytes // 2,
                           storage=StorageLevel.MEMORY_AND_DISK)
        spilled = rec.timings.counters["create"]["spilled"] + rec.timings.counters["map"]["spilled"]
        assert spilled >= 1

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_pipeline(desk_params(blocks=2), mode="warp", scratch=tmp_path)

    def test_cluster_mode_matches_local_bit_exactly(self, tmp_path):
        cfg = ClusterConfig(port=0, expected_workers=1, slots=4)
        master = Master(cfg).start()
        wcfg = ClusterConfig(port=master.port, slots=4)
        worker = Worker(wcfg, tmp_path / "w", 1 << 30)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            assert master.wait_ready(15)
            params = desk_params(blocks=8, cores=4, shift_delta=Vec3(0.1, 0.2, 0.3))
            far = run_pipeline(params, mode="cluster",
                               master_addr=("127.0.0.1", master.port))
            near = run_pipeline(params, scratch=tmp_path / "local")
            assert far.result == near.result
            assert far.mode == "cluster"
            assert far.timings.total_s > 0
            # one driver, one counter shape; a fresh worker does exactly the
            # work a fresh local engine does
            shape = {stage: set(c) for stage, c in far.timings.counters.items()}
            assert shape == {"create": {"bytes", "recomputed", "spilled"},
                             "map": {"bytes", "recomputed", "spilled"}}
            assert far.timings.counters == near.timings.counters
        finally:
            master.shutdown()
            worker.stop()
            thread.join(timeout=10)


class TestSweep:
    def test_strong_holds_total_blocks(self, tmp_path):
        base = desk_params(blocks=48, vpu=64)
        records = run_sweep(base, [1, 2, 4], ScalingMode.STRONG, reps=1,
                            scratch=tmp_path)
        assert [r.params.blocks for r in records] == [48, 48, 48]
        assert [r.params.nodes for r in records] == [1, 2, 4]

    def test_weak_holds_blocks_per_node(self, tmp_path):
        base = desk_params(blocks=16, vpu=64)
        records = run_sweep(base, [1, 2, 4], ScalingMode.WEAK, reps=1,
                            scratch=tmp_path)
        assert [r.params.blocks for r in records] == [16, 32, 64]

    def test_reps_counted_per_configuration(self, tmp_path):
        records = run_sweep(desk_params(blocks=4, vpu=32), [1, 2],
                            ScalingMode.STRONG, reps=3, scratch=tmp_path)
        assert [r.rep for r in records] == [0, 1, 2, 0, 1, 2]
        assert all(r.scaling is ScalingMode.STRONG for r in records)

    def test_strong_results_agree_within_tolerance_across_nodes(self, tmp_path):
        base = desk_params(blocks=16, vpu=512, shift_delta=Vec3(0.5, 0.5, 0.5))
        records = run_sweep(base, [1, 2, 4], ScalingMode.STRONG, reps=1,
                            scratch=tmp_path)
        ref = records[0].result.as_tuple()
        for r in records[1:]:
            for a, b in zip(r.result.as_tuple(), ref):
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_zero_block_partitions_rejected(self):
        base = desk_params(blocks=4, cores=8)
        with pytest.raises(ConfigError, match="zero-block"):
            sweep_configurations(base, [1], ScalingMode.STRONG)

    def test_descending_counts_rejected(self):
        with pytest.raises(ConfigError):
            sweep_configurations(desk_params(blocks=8), [4, 2, 1], ScalingMode.STRONG)

    def test_empty_counts_rejected(self):
        with pytest.raises(ConfigError):
            sweep_configurations(desk_params(blocks=8), [], ScalingMode.WEAK)

    def test_bad_reps_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(desk_params(blocks=2), [1], ScalingMode.STRONG, reps=0,
                      scratch=tmp_path)


class TestRecordSerialization:
    def make_record(self):
        timings = StageTimings(0.25, 0.5, 0.125, 0.875,
                               {"create": {"bytes": 96, "recomputed": 2, "spilled": 0}})
        return RunRecord(params=desk_params(blocks=2, shift_delta=Vec3(1, 2, 3)),
                         mode="local", timings=timings,
                         result=Vec3(1.5, 2.5, 3.5), rep=1,
                         timestamp=1_700_000_000.125, scaling=ScalingMode.WEAK)

    def test_round_trip_identity(self):
        rec = self.make_record()
        assert RunRecord.from_json_dict(rec.to_json_dict()) == rec

    def test_json_schema_fields(self):
        d = self.make_record().to_json_dict()
        assert set(d["timings"]) == {"create_s", "map_s", "reduce_s", "total_s"}
        assert d["result"] == [1.5, 2.5, 3.5]
        assert {"params", "mode", "timings", "result", "rep", "timestamp"} <= set(d)
        json.dumps(d)  # must be directly serializable

    def test_jsonl_file_round_trip(self, tmp_path):
        records = [self.make_record(), self.make_record()]
        path = tmp_path / "runs.jsonl"
        write_records_jsonl(records, path)
        assert read_records_jsonl(path) == records
        assert len(path.read_text().splitlines()) == 2

    def test_none_result_round_trips(self):
        rec = self.make_record()
        rec2 = RunRecord(params=rec.params, mode=rec.mode, timings=rec.timings,
                         result=None, rep=0, timestamp=rec.timestamp, scaling=None)
        assert RunRecord.from_json_dict(rec2.to_json_dict()) == rec2
