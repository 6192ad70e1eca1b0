import dataclasses
import gc
import json
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as R
from conftest import assert_bit_equal
from scalemap import engine as engine_mod
from scalemap.core import (
    BenchmarkParams,
    InvalidParams,
    LoadBinary,
    RecordCodec,
    Vec3,
    decode_vectors,
    encode_vectors,
    generate_vectors,
    partition_blocks,
)
from scalemap.engine import (
    CacheManager,
    Engine,
    RecomputeFailure,
    SpillIOFailure,
    UnknownPartition,
    _FOLD_CHUNK,
    _FOLD_TILE,
    _SHIFT_SLAB,
    build_pipeline,
    fnv1a64,
    leftfold_sum,
    shift_records,
    shift_row,
)
from scalemap.job import (
    EmptyDataset,
    StorageLevel,
    combine_partials,
    make_pipeline_spec,
    parse_pipeline_spec,
    run_job,
)

f64s = st.floats(allow_nan=False, allow_infinity=False, width=64)


def desk_params(blocks, vpu=256, **kw):
    return BenchmarkParams(blocks=blocks, vectors_per_unit=vpu, **kw)


@pytest.fixture
def make_engine(tmp_path):
    engines = []

    def make(budget=1 << 30, slots=1):
        e = Engine(budget, tmp_path / "scratch", slots=slots)
        engines.append(e)
        return e

    yield make
    for e in engines:
        e.close()


def worst_tick_gap(action) -> tuple[float, object]:
    """The longest gap, in seconds, between the ticks of a thread that
    sleeps 1 ms per tick while this thread runs action(), and what
    action() returned."""
    stop, worst = threading.Event(), [0.0]

    def tick():
        last = time.perf_counter()
        while not stop.is_set():
            time.sleep(0.001)
            now = time.perf_counter()
            worst[0] = max(worst[0], now - last)
            last = now

    ticker = threading.Thread(target=tick)
    ticker.start()
    time.sleep(0.01)
    try:
        result = action()
    finally:
        stop.set()
        ticker.join(timeout=5)
    assert not ticker.is_alive()
    return worst[0], result


def write_block_files(directory: Path, arrays, record_bytes=24):
    directory.mkdir(parents=True, exist_ok=True)
    codec = RecordCodec(record_bytes)
    for i, arr in enumerate(arrays):
        (directory / f"block-{i:04d}.bin").write_bytes(encode_vectors(arr, codec))


@pytest.fixture
def opened(monkeypatch):
    """Every file the engine opens, and the chance to act on its path just
    before: set opened.before to a callable of the path."""
    class Opened(list):
        before = None

    files = Opened()

    def tracking(path, *args, **kwargs):
        if files.before is not None:
            files.before(Path(path))
        f = open(path, *args, **kwargs)
        files.append(f)
        return f

    monkeypatch.setattr(engine_mod, "open", tracking, raising=False)
    return files


class TestLaziness:
    def test_source_and_map_allocate_nothing(self, make_engine):
        e = make_engine()
        d = e.source(desk_params(blocks=64))
        e.map_shift(d, Vec3(1.0, 1.0, 1.0))
        assert e.counters.partitions_computed == 0
        assert e.counters.generate_calls == 0
        assert e.cache.resident_bytes == 0

    def test_zero_blocks_rejected(self, make_engine):
        with pytest.raises(InvalidParams):
            make_engine().source(BenchmarkParams(blocks=0))


class TestSource:
    def test_load_binary_covers_all_files_once(self, make_engine, tmp_path):
        arrays = [generate_vectors(5, b, 40) for b in range(5)]
        src = tmp_path / "blocks"
        write_block_files(src, arrays)
        e = make_engine()
        p = desk_params(blocks=5, cores=3, source=LoadBinary(str(src), 24))
        d = e.source(p)
        for pidx in range(3):
            ids = R.partition_blocks(5, 3, pidx)
            got = e.materialize(d, pidx)[0]
            want = np.concatenate([arrays[b] for b in ids]) if ids else np.empty((0, 3))
            assert_bit_equal(got, want)

    @pytest.mark.parametrize("blocks,partitions,vpu", [
        (5, 3, 40), (3, 3, 40), (3, 4, 40), (10, 2, 10_000),
    ], ids=["5-3", "3-3", "3-4", "tiles-of-two-blocks"])
    def test_generate_covers_all_blocks_once(self, make_engine, blocks, partitions, vpu):
        # each partition is generated in one call; it must equal its blocks
        # generated one by one and concatenated.  3 blocks over 4 leave one
        # empty, and 5 blocks of 30,000 draws make tiles of 2, 2 and 1 blocks
        e = make_engine()
        d = e.source(desk_params(blocks=blocks, vpu=vpu, cores=partitions))
        for pidx in range(partitions):
            ids = R.partition_blocks(blocks, partitions, pidx)
            got = e.materialize(d, pidx)[0]
            want = (np.concatenate([generate_vectors(42, b, vpu) for b in ids]) if ids
                    else np.empty((0, 3)))
            assert_bit_equal(got, want)
        assert e.counters.generate_calls == blocks

    def test_load_binary_missing_dir(self, make_engine, tmp_path):
        p = desk_params(blocks=1, source=LoadBinary(str(tmp_path / "nope"), 24))
        with pytest.raises(InvalidParams):
            make_engine().source(p)

    def test_load_binary_empty_dir(self, make_engine, tmp_path):
        (tmp_path / "empty").mkdir()
        p = desk_params(blocks=1, source=LoadBinary(str(tmp_path / "empty"), 24))
        with pytest.raises(InvalidParams):
            make_engine().source(p)

    def test_load_binary_file_count_must_equal_blocks(self, make_engine, tmp_path):
        # the run record reports params.blocks, so the source must hold that many
        write_block_files(tmp_path / "six", [generate_vectors(1, b, 16) for b in range(6)])
        for blocks in (3, 7):
            p = desk_params(blocks=blocks, source=LoadBinary(str(tmp_path / "six"), 24))
            with pytest.raises(InvalidParams, match="6 block files"):
                make_engine().source(p)


class TestFileLoad:
    """A file-backed partition: its block files read straight into one
    buffer and decoded by one call."""

    @staticmethod
    def write_raw(directory: Path, sizes, record_bytes, seed=0) -> list[Path]:
        # random bytes, so the records hold nans with payloads and
        # subnormals as well as ordinary values
        directory.mkdir(parents=True)
        rng = np.random.default_rng(seed)
        paths = []
        for i, n in enumerate(sizes):
            path = directory / f"block-{i:04d}.bin"
            path.write_bytes(rng.integers(0, 256, n * record_bytes, dtype=np.uint8).tobytes())
            paths.append(path)
        return paths

    @staticmethod
    def one_partition(e, directory, blocks, record_bytes):
        return e.source(desk_params(blocks=blocks, cores=1,
                                    source=LoadBinary(str(directory), record_bytes)))

    @pytest.mark.parametrize("record_bytes", [24, 12])
    @pytest.mark.parametrize("sizes", [[40], [40, 40, 40], [1, 300, 7, 64], [5, 0, 9], [0]],
                             ids=["one", "several", "uneven", "an-empty-block", "all-empty"])
    def test_bit_identical_to_per_file_decode_and_concatenate(
            self, make_engine, tmp_path, sizes, record_bytes):
        paths = self.write_raw(tmp_path / "blocks", sizes, record_bytes)
        codec = RecordCodec(record_bytes)
        e = make_engine()
        d = self.one_partition(e, tmp_path / "blocks", len(sizes), record_bytes)
        with np.errstate(invalid="ignore"):  # widening a signalling nan
            want = np.concatenate([decode_vectors(p.read_bytes(), codec) for p in paths])
            got = e.materialize(d, 0)[0]
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert_bit_equal(got, want)
        assert e.counters.file_loads == len(sizes)

    def test_materializing_holds_each_record_once(self, make_engine, tmp_path):
        # four 1536-record blocks: reading each into a bytes object and
        # concatenating held every record twice, a peak of 2.01x the
        # partition's bytes; read straight into one buffer it is the
        # partition plus small objects
        write_block_files(tmp_path / "blocks", [generate_vectors(3, b, 1536) for b in range(4)])
        e = make_engine()
        d = self.one_partition(e, tmp_path / "blocks", 4, 24)
        e.materialize(d, 0)  # first-call set-up outside the measurement
        tracemalloc.start()
        try:
            arr = e.materialize(d, 0)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.nbytes == 4 * 1536 * 24
        assert peak <= arr.nbytes + (64 << 10), peak / arr.nbytes

    def test_decoded_bytes_are_file_bytes_plus_spill_reads(self, make_engine, tmp_path,
                                                           monkeypatch):
        # the benchmark's tracer counts core.decode bytes through the
        # module global decode_vectors: one call per partition built from
        # its files, one per spill read
        params = desk_params(blocks=8, vpu=64, cores=2, nparts=2,
                             source=LoadBinary(str(tmp_path / "blocks"), 24))
        write_block_files(tmp_path / "blocks", [
            generate_vectors(7, b, params.vectors_per_block) for b in range(8)])
        calls = []
        real = engine_mod.decode_vectors

        def counted(data, codec):
            calls.append(len(data))
            return real(data, codec)

        monkeypatch.setattr(engine_mod, "decode_vectors", counted)
        e = make_engine(budget=params.total_bytes // 2)
        source, shifted = build_pipeline(e, params, StorageLevel.MEMORY_AND_DISK)
        e.force(source)
        e.force(shifted)
        e.reduce_average(shifted)
        file_bytes = sum(p.stat().st_size for p in (tmp_path / "blocks").iterdir())
        assert e.counters.file_loads == 8 and e.counters.spill_reads > 0
        assert len(calls) == params.partitions + e.counters.spill_reads
        assert sum(calls) == file_bytes + e.counters.spill_reads * params.total_bytes // params.partitions

    def failure(self, e, d) -> str:
        with pytest.raises(RecomputeFailure) as ei:
            e.materialize(d, 0)
        return str(ei.value)

    def test_misaligned_block_fails_naming_it(self, make_engine, tmp_path, opened):
        paths = self.write_raw(tmp_path / "blocks", [4, 4, 4], 12)
        with open(paths[1], "ab") as f:
            f.write(b"\x00" * 5)
        e = make_engine()
        assert self.failure(e, self.one_partition(e, tmp_path / "blocks", 3, 12)) == (
            f"block file misaligned: {paths[1]}: "
            "byte length 53 is not divisible by record size 12")
        assert opened and all(f.closed for f in opened)
        assert e.counters.file_loads == 0

    def test_unreadable_block_fails_naming_it(self, make_engine, tmp_path, opened):
        paths = self.write_raw(tmp_path / "blocks", [4, 4, 4], 24)
        e = make_engine()
        d = self.one_partition(e, tmp_path / "blocks", 3, 24)
        paths[2].unlink()  # fails its stat, before any file is opened
        assert self.failure(e, d).startswith(f"block file unreadable: {paths[2]}: [Errno 2] ")
        assert not opened
        paths[2].mkdir()  # stats, but fails its open after the first two are read
        assert self.failure(e, d).startswith(f"block file unreadable: {paths[2]}: [Errno 21] ")
        assert len(opened) == 2 and all(f.closed for f in opened)

    @pytest.mark.parametrize("change,how", [
        (lambda path: path.write_bytes(path.read_bytes()[:-24]), "read 72"),
        (lambda path: path.write_bytes(path.read_bytes()[:-5]), "read 91"),
        (lambda path: path.write_bytes(b""), "read 0"),
        (lambda path: path.write_bytes(path.read_bytes() + bytes(24)), "holds more"),
        (lambda path: path.write_bytes(path.read_bytes() + b"\x01"), "holds more"),
    ], ids=["shrunk-a-record", "shrunk-mid-record", "emptied", "grown-a-record", "grown-a-byte"])
    def test_block_resized_while_read_fails_naming_it(self, make_engine, tmp_path, opened,
                                                      change, how):
        # the files are sized before they are read; one that changes in
        # between must fail, never yield a shorter or misread partition
        paths = self.write_raw(tmp_path / "blocks", [4, 4, 4], 24)
        opened.before = lambda path: change(path) if path == paths[1] else None
        e = make_engine()
        assert self.failure(e, self.one_partition(e, tmp_path / "blocks", 3, 24)) == (
            f"block file changed size while read: {paths[1]}: listed at 96 bytes, {how}")
        assert len(opened) == 2 and all(f.closed for f in opened)
        assert e.counters.file_loads == 0 and e.counters.partitions_computed == 0


# every special class of double: infinities, nan, signed zeros, subnormals,
# the largest finite values, and 1e308, which the delta below overflows
SPECIALS = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072009e-308, np.finfo(np.float64).max,
            -np.finfo(np.float64).max, 1e308, -1e308]


def rows_with_specials(n: int, seed: int = 0) -> np.ndarray:
    """(n, 3) records, uniform draws with the SPECIALS scattered through
    them, so both the slabs and the last partial slab meet each one."""
    rows = np.random.default_rng(seed).uniform(-1e3, 1e3, size=(n, 3))
    flat = rows.reshape(-1)
    for i, v in enumerate(SPECIALS if n else ()):
        flat[i * 7919 % flat.size] = v
        flat[-1 - i * 4 % flat.size] = v
    return rows


def oracle_shift(rows: np.ndarray, delta: Vec3) -> np.ndarray:
    return np.array(R.shift_rows(rows.tolist(), delta.as_tuple()),
                    dtype=np.float64).reshape(-1, 3)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestMapShift:
    @pytest.mark.parametrize("n", [0, 1, _SHIFT_SLAB - 1, _SHIFT_SLAB, _SHIFT_SLAB + 1,
                                   2 * _SHIFT_SLAB + 1])
    @pytest.mark.parametrize("delta", [Vec3(0.5, -1.25, 3.0), Vec3(1e308, -0.0, 5e-324),
                                       Vec3(-1e308, 0.0, -2.0**-1074)],
                             ids=["plain", "overflow-up", "overflow-down"])
    def test_bit_exact_against_oracle(self, make_engine, tmp_path, n, delta):
        rows = rows_with_specials(n)
        write_block_files(tmp_path / "sp", [rows])
        e = make_engine()
        d = e.source(desk_params(blocks=1, source=LoadBinary(str(tmp_path / "sp"), 24)))
        got = e.materialize(e.map_shift(d, delta), 0)[0]
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert not got.flags.writeable
        assert_bit_equal(got, oracle_shift(rows, delta))

    def test_non_contiguous_parent_unchanged(self):
        delta = Vec3(0.25, -3.0, 1e308)
        row = shift_row(delta)
        wide = rows_with_specials(2 * _SHIFT_SLAB + 3, seed=1)
        wide.setflags(write=False)
        for parent in (wide[::2], np.asfortranarray(wide), wide.T.copy().T):
            assert not parent.flags.c_contiguous
            before = parent.tobytes()
            got = shift_records(parent, row)
            assert got.flags.c_contiguous and not np.shares_memory(got, parent)
            assert_bit_equal(got, oracle_shift(parent, delta))
            assert parent.tobytes() == before

    def test_read_only_parent_unchanged(self):
        delta = Vec3(-0.5, 1e-310, 7.0)
        parent = rows_with_specials(_SHIFT_SLAB + 5, seed=2)
        parent.setflags(write=False)
        before = parent.tobytes()
        got = shift_records(parent, shift_row(delta))
        assert got.flags.writeable and not np.shares_memory(got, parent)
        assert_bit_equal(got, oracle_shift(parent, delta))
        assert parent.tobytes() == before

    @pytest.mark.parametrize("n", [0, 1, _SHIFT_SLAB - 1, _SHIFT_SLAB + 1, 3 * _SHIFT_SLAB + 7])
    @pytest.mark.parametrize("delta", [Vec3(0.5, -1.25, 3.0), Vec3(1e308, -0.0, 5e-324),
                                       Vec3(-1e308, 0.0, -2.0**-1074)],
                             ids=["plain", "overflow-up", "overflow-down"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_in_place_shift_has_the_bits_of_a_fresh_one(self, n, delta):
        # inf, -0.0 and the other SPECIALS, and every fifth element a quiet
        # or a signalling nan with a payload
        rows = rows_with_specials(n, seed=6)
        words = rows.view(np.uint64).reshape(-1)[1::5]
        words[:] = np.resize(np.array([0x7FF8000000000ABC, 0xFFF0000000000001], np.uint64),
                             words.size)
        row = shift_row(delta)
        want = shift_records(rows, row)
        got = shift_records(rows, row, out=rows)
        assert got is rows
        assert_bit_equal(got, want)

    def test_row_is_read_only_and_built_once_per_dataset(self, make_engine, monkeypatch):
        built = []
        monkeypatch.setattr(engine_mod, "shift_row",
                            lambda delta: built.append(delta) or shift_row(delta))
        e = make_engine()
        d = e.source(desk_params(blocks=4, cores=4))
        m = e.map_shift(d, Vec3(1.0, 2.0, 3.0))
        e.force(m)
        assert built == [Vec3(1.0, 2.0, 3.0)]
        assert not m.lineage.row.flags.writeable and m.lineage.row.size == 3 * _SHIFT_SLAB

    def test_two_threads_shift_as_one_does(self):
        delta = Vec3(0.125, -7.5, 1e300)
        row = shift_row(delta)
        parents = [rows_with_specials(64 * _SHIFT_SLAB + 17, seed=s) for s in (3, 4)]
        alone = [shift_records(a, row).tobytes() for a in parents]
        barrier = threading.Barrier(2)

        def shift_many(i):
            barrier.wait(timeout=10)
            return [shift_records(parents[i], row).tobytes() for _ in range(10)]

        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(shift_many, range(2)))
        for i, runs in enumerate(results):
            assert all(r == alone[i] for r in runs)
        assert_bit_equal(np.frombuffer(alone[0]).reshape(-1, 3), oracle_shift(parents[0], delta))

    def test_12_byte_records_are_widened_then_shifted(self, make_engine, tmp_path):
        narrow = rows_with_specials(_SHIFT_SLAB + 9, seed=5).astype(np.float32)
        write_block_files(tmp_path / "f32", [narrow], record_bytes=12)
        delta = Vec3(0.1, -1e-320, 3e38)
        e = make_engine()
        d = e.source(desk_params(blocks=1, source=LoadBinary(str(tmp_path / "f32"), 12)))
        got = e.materialize(e.map_shift(d, delta), 0)[0]
        assert_bit_equal(got, oracle_shift(narrow.astype(np.float64), delta))

    def test_signed_zero_deltas_are_distinct_datasets(self, make_engine, tmp_path):
        # Vec3(0.0, 0.0, 0.0) == Vec3(-0.0, -0.0, -0.0) and both hash alike,
        # but -0.0 + 0.0 is 0.0 where -0.0 + -0.0 is -0.0
        rows = np.full((2 * _SHIFT_SLAB + 1, 3), -0.0)
        rows[::5] = 0.0
        write_block_files(tmp_path / "z", [rows])
        e = make_engine()
        d = e.source(desk_params(blocks=1, source=LoadBinary(str(tmp_path / "z"), 24)))
        plus, minus = Vec3(0.0, 0.0, 0.0), Vec3(-0.0, -0.0, -0.0)
        assert plus == minus and hash(plus) == hash(minus)
        got_plus = e.materialize(e.map_shift(d, plus), 0)[0]
        got_minus = e.materialize(e.map_shift(d, minus), 0)[0]
        assert_bit_equal(got_plus, oracle_shift(rows, plus))
        assert_bit_equal(got_minus, oracle_shift(rows, minus))
        assert got_plus.tobytes() != got_minus.tobytes()

    def test_zero_delta_is_identity(self, make_engine):
        e = make_engine()
        d = e.source(desk_params(blocks=4, cores=2))
        m = e.map_shift(d, Vec3(0.0, 0.0, 0.0))
        for p in range(d.partitions):
            assert_bit_equal(e.materialize(m, p)[0], e.materialize(d, p)[0])

    def test_elementwise_addition(self, make_engine, tmp_path):
        write_block_files(tmp_path / "one", [np.array([[1.0, 2.0, 3.0]])])
        e = make_engine()
        d = e.source(desk_params(blocks=1, source=LoadBinary(str(tmp_path / "one"), 24)))
        m = e.map_shift(d, Vec3(0.5, 0.5, 0.5))
        assert e.materialize(m, 0)[0].tolist() == [[1.5, 2.5, 3.5]]

    def test_stacked_shifts_equal_combined_on_dyadic_fixture(self, make_engine, tmp_path):
        # components limited to 16 fractional bits so every sum is exact
        raw = generate_vectors(3, 0, 1000)
        dyadic = np.round(raw * 65536.0) / 65536.0
        write_block_files(tmp_path / "dy", [dyadic])
        e = make_engine()
        d = e.source(desk_params(blocks=1, source=LoadBinary(str(tmp_path / "dy"), 24)))
        d1 = Vec3(0.5, -0.25, 2.0)
        d2 = Vec3(0.25, 1.0, -0.5)
        stacked = e.map_shift(e.map_shift(d, d1), d2)
        combined = e.map_shift(d, Vec3(0.75, 0.75, 1.5))  # d1 + d2, exact
        assert_bit_equal(e.materialize(stacked, 0)[0], e.materialize(combined, 0)[0])

    def test_parent_unchanged(self, make_engine):
        e = make_engine()
        d = e.source(desk_params(blocks=2))
        before = e.materialize(d, 0)[0].copy()
        m = e.map_shift(d, Vec3(9.0, 9.0, 9.0))
        e.materialize(m, 0)
        assert_bit_equal(e.materialize(d, 0)[0], before)


class TestPersistence:
    def test_cache_hit_skips_generator(self, make_engine):
        e = make_engine()
        d = e.persist(e.source(desk_params(blocks=6, cores=3)), StorageLevel.MEMORY_ONLY)
        e.force(d)
        calls = e.counters.generate_calls
        assert calls == 6
        r1 = e.reduce_average(d)
        assert e.counters.generate_calls == calls
        e.unpersist(d)
        r2 = e.reduce_average(d)
        assert e.counters.generate_calls == 2 * calls
        assert r1 == r2

    def test_memory_and_disk_spills_under_pressure(self, make_engine):
        params = desk_params(blocks=8, cores=8)
        full = make_engine().reduce_average
        baseline = full(make_engine().source(params))
        e = make_engine(budget=params.total_bytes // 2)
        d = e.persist(e.source(params), StorageLevel.MEMORY_AND_DISK)
        assert e.force(d)["spilled"] >= 1
        assert e.reduce_average(d) == baseline

    def test_disk_only_round_trips_through_spill(self, make_engine):
        e = make_engine()
        params = desk_params(blocks=4, cores=4)
        d = e.persist(e.source(params), StorageLevel.DISK_ONLY)
        e.force(d)
        assert e.counters.spill_writes == 4
        snapshot = [e.materialize(d, p)[0].copy() for p in range(4)]
        assert e.counters.spill_reads >= 4
        for p in range(4):
            assert_bit_equal(e.materialize(d, p)[0], snapshot[p])

    def test_spill_corruption_detected_and_recomputed(self, make_engine):
        e = make_engine()
        d = e.persist(e.source(desk_params(blocks=2, cores=2)), StorageLevel.DISK_ONLY)
        e.force(d)
        want = e.materialize(d, 0)[0].copy()
        path = e._spill_path((d, 0))
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(bytes(blob))
        got = e.materialize(d, 0)[0]
        assert e.counters.spill_corrupt == 1
        assert_bit_equal(got, want)

    def test_spill_write_failure_raises(self, make_engine):
        e = make_engine()
        d = e.persist(e.source(desk_params(blocks=1)), StorageLevel.DISK_ONLY)
        e.scratch.mkdir(parents=True, exist_ok=True)
        (e.scratch / str(d.dataset_id)).write_bytes(b"not a directory")
        with pytest.raises(SpillIOFailure):
            e.force(d)

    TEARS = {
        "emptied": lambda blob: b"",
        "cut_below_trailer": lambda blob: blob[:7],
        "cut_mid_payload": lambda blob: blob[:len(blob) // 2 // 24 * 24],
        "trailer_low_byte_flipped": lambda blob: blob[:-8] + bytes([blob[-8] ^ 0x01]) + blob[-7:],
        "trailer_high_byte_flipped": lambda blob: blob[:-1] + bytes([blob[-1] ^ 0x80]),
        # a payload cut 5 bytes into a record under a trailer that matches
        # it: only the whole-records check can catch this one
        "part_record_with_its_crc": lambda blob: (
            blob[:-13] + struct.pack("<Q", R.crc32(blob[:-13]))),
    }

    @pytest.mark.parametrize("tear", sorted(TEARS))
    def test_torn_spill_detected_and_recomputed(self, make_engine, tear):
        e = make_engine()
        d = e.persist(e.source(desk_params(blocks=2, cores=2)), StorageLevel.DISK_ONLY)
        e.force(d)
        want = e.materialize(d, 0)[0].copy()
        path = e._spill_path((d, 0))
        blob = path.read_bytes()
        path.write_bytes(self.TEARS[tear](blob))
        computed = e.counters.partitions_computed
        got, recomputed, _ = e.materialize(d, 0)
        assert e.counters.spill_corrupt == 1
        assert recomputed and e.counters.partitions_computed == computed + 1
        assert_bit_equal(got, want)
        # a spill is only written where none exists, so a whole file again
        # means the torn one was unlinked
        assert path.read_bytes() == blob

    @pytest.mark.parametrize("change", [
        lambda blob: blob[:-8], lambda blob: blob + bytes(24),
    ], ids=["shrunk", "grown"])
    def test_spill_resized_while_read_is_torn(self, make_engine, opened, change):
        e = make_engine()
        d = e.persist(e.source(desk_params(blocks=2, cores=2)), StorageLevel.DISK_ONLY)
        e.force(d)
        want = e.materialize(d, 0)[0].copy()
        path = e._spill_path((d, 0))

        def once(p):
            if p == path:
                opened.before = None
                p.write_bytes(change(p.read_bytes()))

        opened.before = once
        got, recomputed, _ = e.materialize(d, 0)
        assert e.counters.spill_corrupt == 1 and recomputed
        assert_bit_equal(got, want)
        assert all(f.closed for f in opened)

    def test_spill_trailer_is_crc32(self, make_engine):
        e = make_engine()
        d = e.persist(e.source(desk_params(blocks=1)), StorageLevel.DISK_ONLY)
        e.force(d)
        blob = e._spill_path((d, 0)).read_bytes()
        payload, trailer = blob[:-8], blob[-8:]
        assert int.from_bytes(trailer, "little") == R.crc32(payload)
        assert fnv1a64(payload) == R.crc32(payload)

    def test_crc32_oracle_check_values(self):
        assert R.crc32(b"123456789") == 0xCBF43926
        assert R.crc32(b"") == 0

    def test_spill_checksum_is_not_an_interpreted_loop(self):
        # about 16 ms in C; a per-byte Python loop takes seconds
        data = bytes(32 << 20)
        t0 = time.perf_counter()
        fnv1a64(data)
        assert time.perf_counter() - t0 < 1.0

    def test_spill_files_are_records_then_their_crc32(self, make_engine):
        # golden bytes of a DISK_ONLY job's spills, built from the scalar
        # oracles alone: each partition's records as <f8, then a <Q holding
        # the CRC-32 of those bytes
        delta = Vec3(0.5, -1.0, 2.0)
        params = desk_params(blocks=5, vpu=16, cores=2, seed=9, shift_delta=delta)
        e = make_engine()
        source, shifted = build_pipeline(e, params, StorageLevel.DISK_ONLY)
        e.force(source)
        e.force(shifted)
        for p in range(params.partitions):
            rows = [row for b in R.partition_blocks(params.blocks, params.partitions, p)
                    for row in R.block_vectors(params.seed, b, params.vectors_per_block)]
            for d, records in ((source, rows), (shifted, R.shift_rows(rows, delta.as_tuple()))):
                payload = b"".join(struct.pack("<3d", *r) for r in records)
                want = payload + struct.pack("<Q", R.crc32(payload))
                assert e._spill_path((d, p)).read_bytes() == want

    def test_spill_write_and_read_stall_no_other_thread(self, make_engine):
        # a spill copies no payload while it holds the interpreter lock, so a
        # thread ticking every 1 ms keeps ticking beside the write and the
        # read of a 64 MiB partition: its worst gap reads about 2-6 ms, where
        # copying the payload (tobytes, read_bytes) stalled it 32-57 ms.  A
        # stall of the code repeats on every try and a burst of load on the
        # host does not, so the best of three tries is bounded
        e = make_engine()
        d = e.persist(e.source(desk_params(blocks=1, vpu=16)), StorageLevel.DISK_ONLY)
        key = (d, 0)
        arr = np.arange((64 << 20) // 24 * 3, dtype=np.float64).reshape(-1, 3)
        arr.setflags(write=False)
        writes, reads = [], []
        for _ in range(3):
            e._spill_delete(key)
            writes.append(worst_tick_gap(lambda: e._spill_write(key, arr))[0])
            gap, got = worst_tick_gap(lambda: e._spill_read(key))
            reads.append(gap)
            assert np.array_equal(got, arr)
        assert min(writes) < 0.020, writes
        assert min(reads) < 0.020, reads


class TestSpillReadAdmission:
    """A partition read back from its spill file enters the cache only
    into free room; it never evicts."""

    @staticmethod
    def counts(e) -> tuple[int, int, int]:
        return e.counters.spill_writes, e.counters.spill_reads, e.counters.evictions

    def test_read_into_a_full_cache_evicts_nothing(self, make_engine):
        params = desk_params(blocks=4, cores=4)
        e = make_engine(budget=params.total_bytes // 2)
        d = e.persist(e.source(params), StorageLevel.MEMORY_AND_DISK)
        e.force(d)  # 0 and 1 spilled, 2 and 3 cached
        want = e.materialize(d, 2)[0].copy(), e.materialize(d, 3)[0].copy()
        entries, resident = list(e.cache._entries.items()), e.cache.resident_bytes
        before = self.counts(e)
        arr, computed, spilled = e.materialize(d, 0)
        assert not computed and spilled == 0
        assert self.counts(e) == (before[0], before[1] + 1, before[2])
        assert list(e.cache._entries.items()) == entries
        assert e.cache.resident_bytes == resident
        assert e.cache.get((d, 0)) is None
        assert_bit_equal(e.cache.get((d, 2)), want[0])
        assert_bit_equal(e.cache.get((d, 3)), want[1])

    def test_read_into_free_room_is_admitted(self, make_engine):
        params = desk_params(blocks=4, cores=4)
        e = make_engine(budget=params.total_bytes // 2)
        d = e.persist(e.source(params), StorageLevel.MEMORY_AND_DISK)
        e.force(d)
        e.cache.drop((d, 3))
        before = self.counts(e)
        arr = e.materialize(d, 0)[0]
        assert e.cache.get((d, 0)) is arr
        assert self.counts(e) == (before[0], before[1] + 1, before[2])
        # now a cache hit, and its child leaves it as it was
        snapshot = arr.tobytes()
        assert e.materialize(d, 0)[0] is arr and self.counts(e)[1] == before[1] + 1
        e.materialize(e.map_shift(d, Vec3(1.0, -2.0, 0.5)), 0)
        assert e.cache.get((d, 0)) is arr and arr.tobytes() == snapshot

    def test_load_spill_shape_at_one_slot(self, make_engine, tmp_path):
        # 4 partitions of 2 block files each through a cache that holds 2:
        # create spills the first 2, map reads each source partition back
        # (uncached) and each insert evicts one partition with no spill file
        # yet, and the reduce reads the first 2 shifted ones back, evicting
        # nothing.  Reads that evicted would write 8, read 8, evict 14.
        shape = desk_params(blocks=8, vpu=64, cores=2, nparts=2)
        write_block_files(tmp_path / "blocks", [
            generate_vectors(11, b, shape.vectors_per_block) for b in range(8)])
        params = shape.replaced(source=LoadBinary(str(tmp_path / "blocks"), 24))
        e = make_engine(budget=params.total_bytes // 2)
        source, shifted = build_pipeline(e, params, StorageLevel.MEMORY_AND_DISK)
        e.force(source)
        assert self.counts(e) == (2, 0, 2)
        e.force(shifted)
        assert self.counts(e) == (6, 4, 6)
        got = e.reduce_average(shifted)
        assert self.counts(e) == (6, 6, 6)
        ample = make_engine()
        assert got == ample.reduce_average(build_pipeline(ample, params, StorageLevel.NONE)[1])


class TestUncachedParent:
    """A parent no cache holds is shifted in its own buffer; one the cache
    holds is never written."""

    DELTA = Vec3(0.25, -1e308, 3.0)

    @staticmethod
    def parents(e, d) -> dict:
        """The payload of each partition of d that _materialize returns,
        recorded as e's children compute."""
        seen, real = {}, e._materialize

        def spy(ds, p, *rows):
            out = real(ds, p, *rows)
            if ds is d:
                seen[p] = out
            return out

        e._materialize = spy
        return seen

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("level, budget", [
        (StorageLevel.NONE, 1 << 30), (StorageLevel.DISK_ONLY, 1 << 30),
        (StorageLevel.MEMORY_ONLY, 0), (StorageLevel.MEMORY_AND_DISK, 0)],
        ids=["unpersisted", "disk-only", "refused", "read-back-not-admitted"])
    def test_is_shifted_in_its_own_buffer(self, make_engine, level, budget):
        params = desk_params(blocks=4, cores=2)
        want = [oracle_shift(generate_vectors(params.seed, partition_blocks(4, 2, p),
                                              params.vectors_per_block), self.DELTA)
                for p in range(2)]
        e = make_engine(budget=budget)
        d = e.persist(e.source(params), level)
        e.force(d)
        seen = self.parents(e, d)
        m = e.map_shift(d, self.DELTA)
        for p in range(2):
            got = e.materialize(m, p)[0]
            parent, _, cached = seen[p]
            assert not cached and got is parent and not got.flags.writeable
            assert_bit_equal(got, want[p])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("slots", [1, 2])
    @pytest.mark.parametrize("level, share", [(StorageLevel.MEMORY_ONLY, 1),
                                              (StorageLevel.MEMORY_AND_DISK, 2)],
                             ids=["memory-only", "memory-and-disk-half"])
    def test_cached_parent_is_never_written(self, make_engine, slots, level, share):
        params = desk_params(blocks=8, cores=8, vpu=512)
        e = make_engine(budget=params.total_bytes // share, slots=slots)
        d = e.persist(e.source(params), level)
        e.force(d)
        rows = [generate_vectors(params.seed, partition_blocks(8, 8, p), params.vectors_per_block)
                for p in range(d.partitions)]
        held = {p: e.cache.get((d, p)) for p in range(d.partitions)}
        held = {p: arr for p, arr in held.items() if arr is not None}
        assert held and (share == 1) == (len(held) == d.partitions)
        m = e.map_shift(d, self.DELTA)
        e.force(m)
        for p in range(d.partitions):
            got = e.materialize(m, p)[0]
            assert_bit_equal(got, oracle_shift(rows[p], self.DELTA))
            if p in held:
                assert e.cache.get((d, p)) is held[p]
                assert not np.shares_memory(got, held[p])
            # the cached payload, or the spill file read back, is unchanged
            assert_bit_equal(e.materialize(d, p)[0], rows[p])

    def test_map_of_an_uncached_parent_holds_one_partition(self, make_engine):
        # a disk-only source of one 768 KiB partition: shifted into a fresh
        # array, the map phase held the read and the shift at once, 2.08x
        # the partition; in place, the partition plus about 60 KB of the
        # phase's own objects
        params = desk_params(blocks=4, vpu=8192, cores=1)
        e = make_engine()
        d = e.persist(e.source(params), StorageLevel.DISK_ONLY)
        e.force(d)
        m = e.map_shift(d, Vec3(1.0, 2.0, 3.0))
        e.force(m)  # first-call set-up outside the measurement
        tracemalloc.start()
        try:
            e.force(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * params.total_bytes, peak / params.total_bytes


class TestForce:
    def test_report_with_ample_budget(self, make_engine):
        params = desk_params(blocks=12, cores=4)
        e = make_engine()
        d = e.persist(e.source(params), StorageLevel.MEMORY_ONLY)
        assert e.force(d) == {"bytes": params.total_bytes, "recomputed": 4, "spilled": 0}
        assert e.force(d)["recomputed"] == 0

    def test_half_budget_forces_recompute_on_second_pass(self, make_engine):
        params = desk_params(blocks=8, cores=8)
        e = make_engine(budget=params.total_bytes // 2)
        d = e.persist(e.source(params), StorageLevel.MEMORY_ONLY)
        e.force(d)
        assert e.force(d)["recomputed"] >= 1

    def test_bytes_materialized_arithmetic(self, make_engine):
        params = desk_params(blocks=96, vpu=64, cores=12)
        assert make_engine().force(make_engine().source(params))["bytes"] == 96 * 64 * 24


class TestReduce:
    def test_two_symmetric_vectors(self, make_engine, tmp_path):
        write_block_files(tmp_path / "two", [np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])])
        e = make_engine()
        d = e.source(desk_params(blocks=1, source=LoadBinary(str(tmp_path / "two"), 24)))
        assert e.reduce_average(d) == Vec3(2.0, 2.0, 2.0)

    def test_single_vector_identity(self, make_engine, tmp_path):
        v = np.array([[0.125, -7.5, 3.0]])
        write_block_files(tmp_path / "single", [v])
        e = make_engine()
        d = e.source(desk_params(blocks=1, source=LoadBinary(str(tmp_path / "single"), 24)))
        assert e.reduce_average(d) == Vec3(0.125, -7.5, 3.0)

    def test_empty_dataset_raises(self, make_engine, tmp_path):
        write_block_files(tmp_path / "none", [np.empty((0, 3))])
        e = make_engine()
        d = e.source(desk_params(blocks=1, source=LoadBinary(str(tmp_path / "none"), 24)))
        with pytest.raises(EmptyDataset):
            e.reduce_average(d)

    @staticmethod
    def _numpy_combine(partials) -> tuple[float, float, float]:
        """combine_partials as it was written on numpy arrays."""
        total = np.zeros(3, dtype=np.float64)
        count = 0
        with np.errstate(over="ignore"):
            for vec_sum, n in partials:
                total = total + vec_sum
                count += n
            mean = total / count
        return (float(mean[0]), float(mean[1]), float(mean[2]))

    # finite sums, signed zeros, subnormals and the largest float drawn often;
    # counts small, or past 2**53, where a count rounds on its way to a float
    partial_sums = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030,
                                              1.7976931348623157e308]), f64s)
    partial_counts = st.one_of(st.integers(0, 1000), st.integers(2**53 - 2, 2**62))

    @given(st.lists(st.tuples(st.tuples(partial_sums, partial_sums, partial_sums),
                              partial_counts), min_size=1, max_size=6))
    def test_combine_is_bit_exact_with_the_numpy_combine(self, partials):
        assume(sum(n for _, n in partials))
        got = combine_partials(partials).as_tuple()
        bits = struct.Struct("<3d").pack
        assert bits(*got) == bits(*R.combine_in_order(partials))
        assert bits(*got) == bits(*self._numpy_combine(partials))
        assert all(type(c) is float for c in got)

    def _oracle_mean(self, seed, blocks, vpu, partitions):
        total = (0.0, 0.0, 0.0)
        count = 0
        for p in range(partitions):
            rows = []
            for b in R.partition_blocks(blocks, partitions, p):
                rows.extend(R.block_vectors(seed, b, vpu))
            s = R.left_fold_sum(rows)
            total = (total[0] + s[0], total[1] + s[1], total[2] + s[2])
            count += len(rows)
        return (total[0] / count, total[1] / count, total[2] / count)

    def test_matches_scalar_oracle_single_partition(self, make_engine):
        e = make_engine()
        d = e.source(desk_params(blocks=4, vpu=2500))
        got = e.reduce_average(d)
        assert got.as_tuple() == self._oracle_mean(42, 4, 2500, 1)

    def test_matches_scalar_oracle_multi_partition(self, make_engine):
        e = make_engine()
        d = e.source(desk_params(blocks=4, vpu=2500, cores=4))
        got = e.reduce_average(d)
        assert got.as_tuple() == self._oracle_mean(42, 4, 2500, 4)

    def test_within_tolerance_of_pairwise_oracle(self, make_engine):
        e = make_engine()
        d = e.source(desk_params(blocks=4, vpu=2500, cores=4))
        got = e.reduce_average(d)
        rows = []
        for p in range(4):
            for b in R.partition_blocks(4, 4, p):
                rows.extend(R.block_vectors(42, b, 2500))
        for axis in range(3):
            pw = R.pairwise_sum([r[axis] for r in rows]) / len(rows)
            assert abs(got.as_tuple()[axis] - pw) <= 1e-12 * max(abs(pw), 1.0)

    def test_bit_stable_across_runs_and_slots(self, make_engine):
        params = desk_params(blocks=9, cores=3, vpu=512)
        results = set()
        for slots in (1, 1, 4):
            e = make_engine(slots=slots)
            results.add(e.reduce_average(e.source(params)).as_tuple())
        assert len(results) == 1

    @given(seed=st.integers(0, 2**32), delta=st.tuples(
        st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100)))
    @settings(max_examples=20)
    def test_shift_commutes_with_average(self, seed, delta):
        with tempfile.TemporaryDirectory() as tmp:
            with Engine(1 << 30, tmp) as e:
                d = e.source(desk_params(blocks=4, vpu=128, cores=2, seed=seed))
                base = e.reduce_average(d)
                shifted = e.reduce_average(e.map_shift(d, Vec3(*delta)))
                want = [b + x for b, x in zip(base.as_tuple(), delta)]
                for a, b in zip(shifted.as_tuple(), want):
                    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


class TestLeftFold:
    def test_matches_oracle_across_chunk_boundary(self):
        arr = generate_vectors(11, 0, 70000)
        want = R.left_fold_sum([tuple(r) for r in arr.tolist()])
        assert tuple(leftfold_sum([arr])[0]) == want

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(st.lists(st.tuples(f64s, f64s, f64s), min_size=0, max_size=40))
    def test_matches_oracle_small(self, rows):
        arr = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
        got = leftfold_sum([arr])[0]
        want = R.left_fold_sum(rows)
        assert got.tobytes() == np.array(want).tobytes()

    @staticmethod
    def oracle_bits(arr: np.ndarray) -> bytes:
        return np.array(R.left_fold_sum(arr.tolist()), dtype=np.float64).tobytes()

    @pytest.mark.parametrize("n", [0, 1, _FOLD_CHUNK - 1, _FOLD_CHUNK, _FOLD_CHUNK + 1,
                                   2 * _FOLD_CHUNK + 1])
    def test_matches_oracle_at_chunk_edges(self, n):
        # magnitudes spread over 12 decades, so every rounding step counts
        arr = generate_vectors(29, 1, n) * np.logspace(-6, 6, 3 * n).reshape(n, 3)
        got = leftfold_sum([arr])[0]
        assert got.dtype == np.float64 and got.shape == (3,)
        assert got.tobytes() == self.oracle_bits(arr)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [7, _FOLD_CHUNK + 5])
    def test_special_values_bit_exact(self, n):
        specials = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.5e-320,
                             2.2250738585072014e-308, 1.7976931348623157e308,
                             -1.7976931348623157e308, 1e308, 1.0, -1.0])
        arr = np.random.default_rng(n).choice(specials, size=(n, 3))
        assert leftfold_sum([arr])[0].tobytes() == self.oracle_bits(arr)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("column", [
        [-0.0, -0.0],                          # 0.0 + -0.0 is 0.0, as in the oracle
        [1e308, 1e308, -1e308],                # overflow is sticky
        [np.inf, -np.inf, 1.0],                # inf - inf is nan
        [5e-324, 5e-324, -5e-324],             # subnormals add exactly
    ])
    def test_each_special_column(self, column):
        arr = np.repeat(np.array(column)[:, None], 3, axis=1)
        assert leftfold_sum([arr])[0].tobytes() == self.oracle_bits(arr)

    def test_non_contiguous_and_read_only_inputs_are_left_unchanged(self):
        base = generate_vectors(31, 0, 2 * _FOLD_CHUNK + 6)
        view = base[::2]
        assert not view.flags.c_contiguous
        frozen = generate_vectors(31, 1, _FOLD_CHUNK + 3)
        frozen.flags.writeable = False
        for arr in (view, frozen):
            before = arr.tobytes()
            assert leftfold_sum([arr])[0].tobytes() == self.oracle_bits(arr)
            assert arr.tobytes() == before

    @pytest.mark.parametrize("n", [1, 7, _FOLD_CHUNK - 1, _FOLD_CHUNK + 1, 2 * _FOLD_CHUNK + 1])
    def test_lone_and_tiled_folds_keep_the_same_nan_payloads(self, n):
        # nan + nan keeps one operand's payload, so a fold that put the
        # running sum second would end on another nan; a local reduce folds
        # alone and a cluster one in tiles, and both must give these bits.
        # Payloads are compared path to path: the Python oracle's float add
        # keeps the first or the second payload depending on whether the
        # interpreter has specialized it yet.
        rng = np.random.default_rng(n)
        arr = rng.standard_normal((n, 3))
        nans = min(n, 4)
        for j in range(3):
            at = rng.choice(n, size=nans, replace=False)
            payloads = 0x7FF8000000000000 + 16 * j + np.arange(1, nans + 1, dtype=np.uint64)
            signs = rng.integers(0, 2, size=nans, dtype=np.uint64) << np.uint64(63)
            arr[at, j] = (payloads | signs).view(np.float64)
        other = rng.standard_normal((n + 2, 3))
        alone = leftfold_sum([arr])[0]
        assert np.isnan(alone).all()
        assert alone.tobytes() == leftfold_sum([other, arr])[1].tobytes()
        assert alone.tobytes() == leftfold_sum([arr, other[:1]])[0].tobytes()

    def test_inputs_the_pair_view_cannot_read_in_place(self):
        # each is folded as its float64 cast, across a chunk edge, and left
        # as it was
        n = _FOLD_CHUNK + 5
        base = generate_vectors(61, 0, n) * np.logspace(-6, 6, 3 * n).reshape(n, 3)
        shifted = np.empty(3 * n + 1)[1:].reshape(n, 3)  # starts 8 bytes into its buffer
        shifted[...] = base
        assert shifted.ctypes.data % 16 == 8
        fortran = np.asfortranarray(base)
        assert not fortran.flags.c_contiguous
        for arr in (fortran, shifted, base.astype(">f8"), base.astype(np.float32)):
            before = arr.tobytes()
            got = leftfold_sum([arr])[0]
            assert got.dtype == np.float64
            assert got.tobytes() == self.oracle_bits(arr.astype(np.float64))
            assert arr.tobytes() == before

    def test_concurrent_folds_give_the_sequential_bits(self):
        arrays = [generate_vectors(37, b, 3 * _FOLD_CHUNK + b) for b in range(2)]
        want = [leftfold_sum([a])[0].tobytes() for a in arrays]
        assert want[0] == self.oracle_bits(arrays[0])
        start = threading.Barrier(2)

        def fold(arr):
            start.wait()
            return [leftfold_sum([arr])[0].tobytes() for _ in range(5)]

        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(fold, arrays))
        assert got == [[w] * 5 for w in want]

    # ---- several arrays, folded as one tile ----

    def assert_tile_matches_oracle(self, arrays):
        got = leftfold_sum(arrays)
        assert got.dtype == np.float64 and got.shape == (len(arrays), 3)
        assert [row.tobytes() for row in got] == [self.oracle_bits(a) for a in arrays]

    def test_tile_of_mixed_lengths_matches_oracle(self):
        # the shorter arrays sit right-aligned behind zeros; magnitudes
        # spread over 12 decades, so every rounding step counts
        arrays = [generate_vectors(41, b, n) * np.logspace(-6, 6, 3 * n).reshape(n, 3)
                  for b, n in enumerate([5, 1, 300, 2, 77, 300])]
        self.assert_tile_matches_oracle(arrays)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(st.lists(st.lists(st.tuples(f64s, f64s, f64s), max_size=20), min_size=2, max_size=6))
    def test_tile_matches_oracle_small(self, partitions):
        self.assert_tile_matches_oracle(
            [np.array(rows, dtype=np.float64).reshape(len(rows), 3) for rows in partitions])

    def test_empty_array_inside_a_tile_sums_to_zero(self):
        arrays = [generate_vectors(43, 0, 9), np.empty((0, 3)), generate_vectors(43, 1, 4)]
        got = leftfold_sum(arrays)
        assert got[1].tobytes() == np.zeros(3).tobytes()
        self.assert_tile_matches_oracle(arrays)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_special_columns_inside_a_tile(self):
        columns = [[-0.0, -0.0], [1e308, 1e308, -1e308], [np.inf, -np.inf, 1.0],
                   [5e-324, 5e-324, -5e-324], [-0.0]]
        arrays = [np.repeat(np.array(c)[:, None], 3, axis=1) for c in columns]
        specials = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e308, -1.0])
        arrays.append(np.random.default_rng(5).choice(specials, size=(40, 3)))
        self.assert_tile_matches_oracle(arrays)

    def test_non_contiguous_and_read_only_inputs_inside_a_tile_are_left_unchanged(self):
        view = generate_vectors(47, 0, 1000)[::2]
        frozen = generate_vectors(47, 1, 300)
        frozen.flags.writeable = False
        column = generate_vectors(47, 2, 200).T.copy().T  # Fortran order
        arrays = [view, frozen, column]
        before = [a.tobytes() for a in arrays]
        self.assert_tile_matches_oracle(arrays)
        assert [a.tobytes() for a in arrays] == before

    def test_concurrent_tiled_folds_give_the_sequential_bits(self):
        tiles = [[generate_vectors(53, 10 * t + b, 512 + b) for b in range(10)]
                 for t in range(2)]
        want = [leftfold_sum(tile).tobytes() for tile in tiles]
        start = threading.Barrier(2)

        def fold(tile):
            start.wait()
            return [leftfold_sum(tile).tobytes() for _ in range(20)]

        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(fold, tiles))
        assert got == [[w] * 20 for w in want]

    @pytest.mark.parametrize("rows, group", [(_FOLD_TILE // 12, 4), (_FOLD_TILE // 12 + 1, 1)])
    def test_tile_bound_edge(self, make_engine, monkeypatch, rows, group):
        # inside a run, four partitions of a quarter tile fold together, and
        # a partition one row larger folds alone, down the 1-D path
        e = make_engine()
        d = e.source(desk_params(blocks=4, vpu=rows, cores=4, seed=3))
        real, calls = engine_mod.leftfold_sum, []

        def counted(arrays):
            calls.append([a.shape[0] for a in arrays])
            return real(arrays)

        monkeypatch.setattr(engine_mod, "leftfold_sum", counted)
        got = list(e.run(d, "reduce", range(4)))
        assert calls == [[rows] * group] * (4 // group)
        for p, (sums, count, (nbytes, computed, _)) in enumerate(got):
            arr = e.materialize(d, p)[0]
            assert (count, nbytes, computed) == (rows, arr.nbytes, True)
            assert np.array(sums).tobytes() == self.oracle_bits(arr)

    def test_partition_too_large_for_the_tile_folds_alone_once(self, make_engine, tmp_path,
                                                               monkeypatch):
        # partition 2 is read ahead with 0 and 1 but would overflow their
        # tile: it is folded alone then, and answered on its turn without a
        # second read
        arrays = [generate_vectors(59, b, n) for b, n in enumerate([100, 100, 5400, 100])]
        write_block_files(tmp_path / "mixed", arrays)
        e = make_engine()
        d = e.source(desk_params(blocks=4, cores=4, source=LoadBinary(str(tmp_path / "mixed"), 24)))
        real, calls = engine_mod.leftfold_sum, []

        def counted(arrays):
            calls.append([a.shape[0] for a in arrays])
            return real(arrays)

        monkeypatch.setattr(engine_mod, "leftfold_sum", counted)
        got = list(e.run(d, "reduce", range(4)))
        assert sorted(calls) == [[100], [100, 100], [5400]]
        assert e.counters.file_loads == 4
        assert [np.array(sums).tobytes() for sums, _, _ in got] == [
            self.oracle_bits(a) for a in arrays]


class TestRun:
    """Engine.run yields, in run order, the outcome each partition's own
    materialize or partial call would give, and the exception it would
    raise in its place, whatever tiles the run makes."""

    # 512 vectors a block: a generate tile holds 42 blocks, a fold tile 10,
    # and a 3-block partition is over a quarter of a fold tile, so folds alone
    VECTORS = 512
    LEVELS = [StorageLevel.NONE, StorageLevel.MEMORY_ONLY, StorageLevel.MEMORY_AND_DISK]

    @staticmethod
    def comparable(outcome):
        if isinstance(outcome, Exception):
            return type(outcome)
        if isinstance(outcome[0], np.ndarray):  # materialize's
            arr, computed, spilled = outcome
            return arr.tobytes(), arr.shape, computed, spilled
        sums, count, triple = outcome  # partial's
        return struct.pack("<3d", *sums), count, triple

    @settings(max_examples=60)
    @given(st.data())
    def test_each_outcome_is_its_partition_alone(self, data):
        parts = data.draw(st.integers(1, 8), "partitions")
        blocks = data.draw(st.integers(parts, 3 * parts), "blocks")
        level = data.draw(st.sampled_from(self.LEVELS), "storage")
        action = data.draw(st.sampled_from(["force", "reduce"]), "action")
        stage = data.draw(st.integers(0, 1), "stage")
        order = data.draw(st.lists(st.integers(-2, parts + 1), unique=True, max_size=parts + 4),
                          "order")
        warm = data.draw(st.lists(st.integers(0, parts - 1), unique=True, max_size=parts), "warm")
        params = desk_params(blocks, vpu=self.VECTORS, cores=parts, seed=blocks,
                             shift_delta=Vec3(0.5, -1.0, 2.0))
        budget = 2 * 3 * self.VECTORS * 24  # two of the largest partitions
        got, counters = [], []
        with tempfile.TemporaryDirectory() as tmp:
            for way in ("run", "alone"):
                with Engine(budget, Path(tmp) / way) as e:
                    d = build_pipeline(e, params, level)[stage]
                    for p in warm:
                        e.materialize(d, p)
                    if way == "run":
                        outcomes = list(e.run(d, action, order))
                    else:
                        one = e.partial if action == "reduce" else e.materialize
                        outcomes = []
                        for p in order:
                            try:
                                outcomes.append(one(d, p))
                            except Exception as ex:  # noqa: BLE001 - compared by type
                                outcomes.append(ex)
                    got.append([self.comparable(o) for o in outcomes])
                    counters.append(e.counters)
        assert got[0] == got[1]
        assert counters[0] == counters[1]
        assert [o is UnknownPartition for o in got[0]] == [not 0 <= p < parts for p in order]

    def test_closing_the_generator_drops_its_tile(self, make_engine, monkeypatch):
        e = make_engine()
        d = e.source(desk_params(blocks=8, vpu=self.VECTORS, cores=8))
        real, tiles = engine_mod.generate_vectors, []

        def watched(seed, block_ids, n):
            arr = real(seed, block_ids, n)
            tiles.append(weakref.ref(arr))
            return arr

        monkeypatch.setattr(engine_mod, "generate_vectors", watched)
        outcomes = e.run(d, "force", range(8))
        assert not tiles  # nothing is done before the first outcome is drawn
        next(outcomes)
        assert len(tiles) == 1 and tiles[0]() is not None
        outcomes.close()
        assert tiles[0]() is None
        assert d.materialized == {0}


class TestRecompute:
    def test_generated_partition_recomputes_bit_exact(self, make_engine):
        e = make_engine()
        d = e.persist(e.source(desk_params(blocks=8, cores=4)), StorageLevel.MEMORY_ONLY)
        e.force(d)
        assert all(e.evict_and_recompute_check(d, p) for p in range(d.partitions))

    def test_mapped_partition_recomputes_bit_exact(self, make_engine):
        e = make_engine()
        d = e.source(desk_params(blocks=4, cores=2))
        m = e.persist(e.map_shift(d, Vec3(1.5, -2.0, 0.25)), StorageLevel.MEMORY_AND_DISK)
        e.force(m)
        assert all(e.evict_and_recompute_check(m, p) for p in range(m.partitions))

    @pytest.mark.parametrize("level", [StorageLevel.MEMORY_ONLY, StorageLevel.DISK_ONLY,
                                       StorageLevel.MEMORY_AND_DISK])
    def test_recompute_check_computes_each_partition_once(self, make_engine, level):
        e = make_engine()
        d = e.persist(e.source(desk_params(blocks=4, cores=4)), level)
        m = e.persist(e.map_shift(d, Vec3(1.5, -2.0, 0.25)), level)
        e.force(m)
        before = dataclasses.replace(e.counters)
        assert all(e.evict_and_recompute_check(m, p) for p in range(m.partitions))
        added = [getattr(e.counters, k) - getattr(before, k)
                 for k in ("partitions_computed", "generate_calls", "spill_writes")]
        n = m.partitions
        assert added == [n, 0, n if level is StorageLevel.DISK_ONLY else 0]

    def test_never_materialized_raises(self, make_engine):
        e = make_engine()
        d = e.source(desk_params(blocks=2))
        with pytest.raises(UnknownPartition):
            e.evict_and_recompute_check(d, 0)

    def test_out_of_range_partition(self, make_engine):
        e = make_engine()
        d = e.source(desk_params(blocks=2))
        with pytest.raises(UnknownPartition):
            e.materialize(d, 99)

    def test_deleted_backing_file_surfaces_failure(self, make_engine, tmp_path):
        arrays = [generate_vectors(1, b, 16) for b in range(2)]
        src = tmp_path / "vanishing"
        write_block_files(src, arrays)
        e = make_engine()
        d = e.source(desk_params(blocks=2, source=LoadBinary(str(src), 24)))
        e.materialize(d, 0)
        for f in src.iterdir():
            f.unlink()
        with pytest.raises(RecomputeFailure):
            e.evict_and_recompute_check(d, 0)


class TestStorageLevelIndependence:
    def test_all_levels_agree_bit_exactly(self, make_engine):
        params = desk_params(blocks=8, cores=4, vpu=512)
        delta = Vec3(0.5, 0.5, 0.5)
        results = []
        for level, budget in [
            (StorageLevel.NONE, 1 << 30),
            (StorageLevel.MEMORY_ONLY, 1 << 30),
            (StorageLevel.DISK_ONLY, 1 << 30),
            (StorageLevel.MEMORY_AND_DISK, params.total_bytes // 2),
        ]:
            e = make_engine(budget=budget)
            d = e.source(params)
            if level is not StorageLevel.NONE:
                e.persist(d, level)
            e.force(d)
            m = e.map_shift(d, delta)
            if level is not StorageLevel.NONE:
                e.persist(m, level)
            e.force(m)
            results.append(e.reduce_average(m).as_tuple())
        assert len(set(results)) == 1


class TestMemoryCeiling:
    @given(budget=st.integers(0, 200_000))
    @settings(max_examples=15)
    def test_peak_resident_never_exceeds_budget(self, budget):
        with tempfile.TemporaryDirectory() as tmp:
            with Engine(budget, tmp) as e:
                params = desk_params(blocks=8, cores=4, vpu=256)
                d = e.persist(e.source(params), StorageLevel.MEMORY_AND_DISK)
                e.force(d)
                m = e.persist(e.map_shift(d, Vec3(1, 2, 3)), StorageLevel.MEMORY_ONLY)
                e.force(m)
                e.reduce_average(m)
                assert e.cache.peak_resident_bytes <= budget


class TestLifecycle:
    def test_close_frees_cached_partitions(self, tmp_path):
        # engine and cache form a reference cycle through on_evict; close()
        # must release the payloads without waiting for the cyclic collector
        gc.disable()
        try:
            e = Engine(1 << 30, tmp_path)
            d = e.persist(e.source(desk_params(blocks=2, cores=2)), StorageLevel.MEMORY_ONLY)
            e.force(d)
            ref = weakref.ref(e.materialize(d, 0)[0])
            assert ref() is not None
            e.close()
            assert ref() is None
            assert e.cache.resident_bytes == 0
        finally:
            gc.enable()

    def test_thread_spill_writes_exact_under_concurrency(self, make_engine):
        params = desk_params(blocks=16, cores=16)
        e = make_engine(budget=params.total_bytes // 4)
        d = e.persist(e.source(params), StorageLevel.MEMORY_AND_DISK)

        with ThreadPoolExecutor(max_workers=4) as pool:
            per_call = list(pool.map(lambda p: e.materialize(d, p)[2], range(d.partitions)))
        assert sum(per_call) == e.counters.spill_writes >= 1

    def test_concurrent_force_reports_sum_to_spill_writes(self, make_engine):
        # each report counts its own partitions' spills, not every spill
        # the engine wrote while it ran
        params = desk_params(blocks=16, vpu=4096, cores=16)
        e = make_engine(budget=params.total_bytes // 4, slots=4)
        ds = [e.persist(e.source(params.replaced(seed=seed)), StorageLevel.MEMORY_AND_DISK)
              for seed in (1, 2)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            reports = [f.result(timeout=120) for f in [pool.submit(e.force, d) for d in ds]]
        assert sum(r["spilled"] for r in reports) == e.counters.spill_writes >= 1

    def test_partition_computed_once_under_contention(self, make_engine):
        # more threads than cores, all asking for the same partitions at once
        params = desk_params(blocks=8, vpu=4096, cores=4)
        rounds = 10
        e = make_engine()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(rounds):
                    d = e.persist(e.source(params), StorageLevel.MEMORY_ONLY)
                    futures = [pool.submit(e.materialize, d, p)
                               for _ in range(8) for p in range(d.partitions)]
                    computed = sum(f.result(timeout=60)[1] for f in futures)
                    assert computed == d.partitions
        finally:
            sys.setswitchinterval(old)
        assert e.counters.partitions_computed == rounds * params.partitions
        assert e.counters.generate_calls == rounds * params.blocks


class TestCacheManager:
    def row(self, n=1):
        return np.zeros((n, 3))

    def resident(self, cm, keys):
        return [k for k in keys if cm.get(k) is not None]

    def test_lru_eviction_order(self):
        evicted = []
        cm = CacheManager(48, on_evict=lambda k, a: evicted.append(k))
        cm.insert((0, 0), self.row())
        cm.insert((0, 1), self.row())
        cm.get((0, 0))
        cm.insert((0, 2), self.row())
        assert evicted == [(0, 1)]
        # (0, 0) was used before (0, 2) was inserted, so it goes next
        cm.insert((0, 3), self.row())
        assert evicted == [(0, 1), (0, 0)]
        assert self.resident(cm, [(0, i) for i in range(4)]) == [(0, 2), (0, 3)]

    def test_tie_broken_by_insertion_order(self):
        evicted = []
        cm = CacheManager(48, on_evict=lambda k, a: evicted.append(k))
        cm.insert((0, 0), self.row())
        cm.insert((0, 1), self.row())
        cm.insert((0, 2), self.row())
        cm.insert((0, 3), self.row())
        assert evicted == [(0, 0), (0, 1)]
        assert self.resident(cm, [(0, i) for i in range(4)]) == [(0, 2), (0, 3)]

    def test_oversized_payload_refused(self):
        cm = CacheManager(24)
        assert cm.insert((0, 0), self.row(2)) is False
        assert cm.resident_bytes == 0

    def test_budget_never_exceeded(self):
        cm = CacheManager(100)
        for i in range(20):
            cm.insert((0, i), self.row())
            assert cm.resident_bytes <= 100
        assert cm.peak_resident_bytes <= 100

    def test_evict_callback(self):
        seen = []
        cm = CacheManager(24, on_evict=lambda k, a: seen.append(k))
        cm.insert((0, 0), self.row())
        cm.insert((0, 1), self.row())
        assert seen == [(0, 0)]

    def test_reinsert_same_key_replaces(self):
        cm = CacheManager(48)
        cm.insert((0, 0), self.row())
        cm.insert((0, 0), self.row())
        assert cm.resident_bytes == 24

    def test_insert_without_evicting_takes_only_free_room(self):
        evicted = []
        cm = CacheManager(48, on_evict=lambda k, a: evicted.append(k))
        cm.insert((0, 0), self.row())
        cm.insert((0, 1), self.row())
        assert cm.insert((0, 2), self.row(), evict=False) is False
        assert evicted == [] and cm.resident_bytes == 48
        assert self.resident(cm, [(0, i) for i in range(3)]) == [(0, 0), (0, 1)]
        cm.drop((0, 0))
        assert cm.insert((0, 2), self.row(), evict=False) is True
        assert evicted == [] and cm.resident_bytes == 48

    def test_drop_dataset_scoped(self):
        cm = CacheManager(1 << 20)
        cm.insert((0, 0), self.row())
        cm.insert((1, 0), self.row())
        cm.drop_dataset(0)
        assert cm.get((0, 0)) is None and cm.get((1, 0)) is not None
        assert cm.resident_bytes == 24


class TestPipelineSerialization:
    def test_round_trip_rebuilds_identical_result(self, make_engine):
        params = desk_params(blocks=6, cores=3, seed=9, shift_delta=Vec3(0.5, 0.25, -1.0))
        e1 = make_engine()
        d = e1.persist(e1.source(params), StorageLevel.MEMORY_ONLY)
        m = e1.persist(e1.map_shift(d, params.shift_delta), StorageLevel.MEMORY_ONLY)
        sent = BenchmarkParams.from_json_dict(json.loads(json.dumps(params.to_json_dict())))
        e2 = make_engine()
        _, rebuilt = build_pipeline(e2, sent, StorageLevel.MEMORY_AND_DISK)
        assert rebuilt.storage is StorageLevel.MEMORY_AND_DISK
        assert rebuilt.lineage.delta == params.shift_delta
        assert rebuilt.lineage.parent.storage is StorageLevel.MEMORY_AND_DISK
        assert rebuilt.lineage.parent.lineage.params == params
        assert e2.reduce_average(rebuilt) == e1.reduce_average(m)

    def test_spec_with_non_integer_fields_is_rejected(self):
        spec = make_pipeline_spec(desk_params(blocks=4), StorageLevel.MEMORY_ONLY)
        spec["params"].update(blocks=7.9, block_size_units=True, seed=3.5)
        with pytest.raises(InvalidParams, match="blocks"):
            parse_pipeline_spec(spec)

    def test_prefixes_share_one_lineage_chain(self, make_engine):
        params = desk_params(blocks=4, cores=2, shift_delta=Vec3(1.0, 2.0, 3.0))
        e = make_engine()
        source, mapped = build_pipeline(e, params, StorageLevel.MEMORY_ONLY)
        assert mapped.lineage.parent is source
        assert e.counters.partitions_computed == 0  # building computes nothing
        e.force(source)
        e.force(mapped)
        assert e.counters.generate_calls == params.blocks


class TestRunJob:
    def counts(self, n):
        return {"bytes": n, "recomputed": n, "spilled": 1}

    def test_phases_run_create_map_reduce_in_order(self):
        calls = []

        def force(i):
            calls.append(("force", i))
            return self.counts(i + 1)

        def reduce():
            calls.append(("reduce",))
            return Vec3(1.0, 2.0, 3.0), self.counts(7)

        timings, phases, result = run_job(force, reduce)
        assert calls == [("force", 0), ("force", 1), ("reduce",)]
        assert phases == {"create": self.counts(1), "map": self.counts(2),
                          "reduce": self.counts(7)}
        assert list(phases) == ["create", "map", "reduce"]
        assert result == Vec3(1.0, 2.0, 3.0)
        assert set(timings) == {"create_s", "map_s", "reduce_s", "total_s"}
        assert timings["total_s"] >= timings["create_s"] + timings["map_s"] + timings["reduce_s"]

    def test_skip_reduce_runs_no_reduce(self):
        calls = []
        timings, phases, result = run_job(lambda i: calls.append(i) or self.counts(i),
                                          lambda: calls.append("reduce"), skip_reduce=True)
        assert calls == [0, 1] and result is None
        assert list(phases) == ["create", "map"] and timings["reduce_s"] == 0.0
