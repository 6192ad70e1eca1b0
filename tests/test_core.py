import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as R
from conftest import assert_bit_equal
from scalemap import core
from scalemap.core import (
    RECORD_BYTES_F32,
    RECORD_BYTES_F64,
    BenchmarkParams,
    Generate,
    IndivisibleLength,
    InvalidParams,
    LoadBinary,
    RecordCodec,
    Vec3,
    block_seed,
    decode_vectors,
    encode_vectors,
    generate_vectors,
    partition_blocks,
    splitmix64,
)

# Frozen golden values, computed once from the scalar stream oracle in
# reference.py and pinned here.  If these move, the generator changed.
GOLDEN_WORDS_42_0 = [
    0x57E1FABA65107204,
    0xF4ABD143FEB24055,
    0x7C816738C12903B2,
    0x113E5DEC6F8FD8A8,
    0xAD4A599062FD1739,
    0x11485B98A7EA20B7,
]
GOLDEN_VEC0_42_0 = (0.34329192209867343, 0.9557467261317436, 0.48634953628166855)
GOLDEN_CHECKSUM_42_0_1M = 0xE136C10EF1F23D65

u64s = st.integers(min_value=0, max_value=2**64 - 1)
f64s = st.floats(allow_nan=False, allow_infinity=False, width=64)
f32s = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestGeneration:
    def test_first_words_match_frozen_oracle(self):
        gen = R.block_stream(42, 0)
        assert [next(gen) for _ in range(6)] == GOLDEN_WORDS_42_0

    def test_first_vector_matches_frozen_oracle(self):
        v = generate_vectors(42, 0, 1)
        assert tuple(v[0]) == GOLDEN_VEC0_42_0

    def test_full_block_checksum_frozen(self):
        # seed=42, block 0, 2^20 vectors, encoded as float64 little-endian
        data = encode_vectors(generate_vectors(42, 0, 2**20), RecordCodec(RECORD_BYTES_F64))
        assert R.fnv1a64(data) == GOLDEN_CHECKSUM_42_0_1M

    @given(seed=u64s, block_id=u64s, n=st.integers(min_value=0, max_value=64))
    def test_matches_scalar_oracle(self, seed, block_id, n):
        got = generate_vectors(seed, block_id, n)
        want = np.array(R.block_vectors(seed, block_id, n), dtype=np.float64).reshape(n, 3)
        assert_bit_equal(got, want)

    def test_chunk_boundary_continuity(self):
        # draws just below, at and just above the first and second chunk edges
        edges = (core._GEN_CHUNK, 2 * core._GEN_CHUNK)
        n = (edges[-1] + 3) // 3 + 1
        got = generate_vectors(7, 5, n).reshape(-1)
        want = R.block_floats(7, 5, 3 * n)
        for edge in edges:
            for i in range(edge - 3, edge + 3):
                assert got[i] == want[i], i

    def test_out_fills_exactly_its_slice(self):
        # enough vectors that the slice spans a chunk edge
        n = core._GEN_CHUNK // 3 + 5
        big = np.full((n + 7, 3), np.nan)
        view = big[3:3 + n]
        assert generate_vectors(11, 4, n, out=view) is view
        assert_bit_equal(view, generate_vectors(11, 4, n))
        assert np.isnan(big[:3]).all() and np.isnan(big[3 + n:]).all()

    @pytest.mark.parametrize("make_out", [
        lambda: np.full((5, 3), np.nan),
        lambda: np.full((12,), np.nan),
        lambda: np.full((4, 3), np.nan, dtype=np.float32),
        lambda: np.full((4, 6), np.nan)[:, ::2],
        lambda: np.full((4, 3), np.nan, order="F"),
    ], ids=["rows", "flat", "float32", "strided", "fortran"])
    def test_out_of_wrong_layout_rejected_unwritten(self, make_out):
        out = make_out()
        with pytest.raises(ValueError, match="out must be"):
            generate_vectors(1, 2, 4, out=out)
        assert np.isnan(out).all()

    def test_in_place_temporaries_bounded(self):
        # the scratch buffers are a fixed chunk, not a multiple of the block;
        # the first call builds the per-process step table, once
        generate_vectors(3, 1, 1)
        out = np.empty((1 << 18, 3))
        tracemalloc.start()
        try:
            generate_vectors(3, 1, 1 << 18, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes / 4
        assert_bit_equal(out, generate_vectors(3, 1, 1 << 18))

    def test_deterministic(self):
        assert_bit_equal(generate_vectors(99, 7, 1024), generate_vectors(99, 7, 1024))

    @given(seed=u64s, block_id=u64s)
    def test_range_and_finite(self, seed, block_id):
        v = generate_vectors(seed, block_id, 32)
        assert np.all(np.isfinite(v))
        assert np.all(v >= 0.0) and np.all(v < 1.0)

    def test_empty_block(self):
        assert generate_vectors(1, 2, 0).shape == (0, 3)

    def test_distinct_blocks_differ(self):
        a = generate_vectors(42, 0, 16)
        b = generate_vectors(42, 1, 16)
        assert a.tobytes() != b.tobytes()

    @given(seed=u64s, block_id=u64s)
    def test_block_seed_matches_oracle(self, seed, block_id):
        want = R.mix64((seed ^ ((block_id * R.GOLDEN) & R.MASK64)) + R.GOLDEN)
        assert block_seed(seed, block_id) == want

    def test_splitmix64_known_vector(self):
        # reference sequence for state 0: widely published splitmix64 outputs
        assert splitmix64(0) == 0xE220A8397B1DCDAF


class TestCodec:
    def test_float32_known_bytes(self):
        data = bytes.fromhex("0000803F" * 3)
        v = decode_vectors(data, RecordCodec(RECORD_BYTES_F32))
        assert v.shape == (1, 3) and Vec3.from_sequence(v[0]) == Vec3(1.0, 1.0, 1.0)

    def test_float64_zero_bytes(self):
        v = decode_vectors(b"\x00" * 24, RecordCodec(RECORD_BYTES_F64))
        assert v.shape == (1, 3) and Vec3.from_sequence(v[0]) == Vec3(0.0, 0.0, 0.0)

    def test_indivisible_length(self):
        with pytest.raises(IndivisibleLength) as ei:
            decode_vectors(b"\x00" * 13, RecordCodec(RECORD_BYTES_F32))
        assert ei.value.length == 13 and ei.value.record_bytes == 12

    @given(st.lists(st.tuples(f64s, f64s, f64s), min_size=1, max_size=50))
    def test_f64_round_trip(self, rows):
        arr = np.array(rows, dtype=np.float64)
        codec = RecordCodec(RECORD_BYTES_F64)
        assert_bit_equal(decode_vectors(encode_vectors(arr, codec), codec), arr)

    @given(st.lists(st.tuples(f32s, f32s, f32s), min_size=1, max_size=50))
    def test_f32_round_trip_of_representable(self, rows):
        arr = np.array(rows, dtype=np.float32).astype(np.float64)
        codec = RecordCodec(RECORD_BYTES_F32)
        assert_bit_equal(decode_vectors(encode_vectors(arr, codec), codec), arr)

    def test_f64_encoding_is_little_endian(self):
        arr = np.array([[1.0, 0.0, 0.0]])
        assert encode_vectors(arr, RecordCodec(24))[:8] == bytes.fromhex("000000000000F03F")

    def test_unsupported_width_rejected(self):
        with pytest.raises(InvalidParams):
            RecordCodec(16)


def every_partition(blocks: int, partitions: int) -> list[list[int]]:
    return [list(partition_blocks(blocks, partitions, p)) for p in range(partitions)]


class TestAssignment:
    def test_ten_over_four(self):
        a = every_partition(10, 4)
        assert [len(p) for p in a] == [3, 3, 2, 2]
        assert a == [R.partition_blocks(10, 4, p) for p in range(4)]

    def test_large_even_assignment_balance(self):
        a = every_partition(9216, 12)
        assert all(len(p) == 768 for p in a)
        assert a == [R.partition_blocks(9216, 12, p) for p in range(12)]

    def test_single_partition(self):
        assert every_partition(5, 1) == [[0, 1, 2, 3, 4]] == [R.partition_blocks(5, 1, 0)]

    @given(blocks=st.integers(0, 500), partitions=st.integers(1, 64))
    def test_disjoint_and_covering(self, blocks, partitions):
        a = every_partition(blocks, partitions)
        flat = [b for p in a for b in p]
        assert sorted(flat) == list(range(blocks))
        sizes = [len(p) for p in a]
        assert max(sizes) - min(sizes) <= 1

    @given(blocks=st.integers(0, 300), partitions=st.integers(1, 40))
    def test_one_partition_lookup_matches_full_assignment(self, blocks, partitions):
        # the oracle tests every block id against every partition
        for p in range(partitions):
            assert list(partition_blocks(blocks, partitions, p)) == \
                R.partition_blocks(blocks, partitions, p)

    def test_one_partition_lookup_is_constant_time(self):
        # a range is built in microseconds; building every partition's
        # list at this size takes tens of milliseconds
        t0 = time.perf_counter()
        ids = partition_blocks(1 << 20, 1 << 14, 12345)
        assert time.perf_counter() - t0 < 1e-3
        assert len(ids) == 64 and ids[-1] == 12345 + 63 * (1 << 14)


class TestParams:
    def test_defaults(self):
        p = BenchmarkParams(blocks=8)
        assert p.vectors_per_unit == 2**20
        assert p.partitions == 1
        assert p.vectors_per_block == 2**20
        p.validate()

    def test_unit_block_is_24_mib(self):
        p = BenchmarkParams(blocks=1)
        assert p.total_bytes == 2**20 * 24

    def test_partition_product(self):
        p = BenchmarkParams(blocks=8, nodes=2, cores=3, nparts=4)
        assert p.partitions == 24

    @pytest.mark.parametrize("field,value", [
        ("blocks", 0),
        ("block_size_units", 0),
        ("vectors_per_unit", -1),
        ("nodes", 0),
        ("cores", 0),
        ("nparts", 0),
        ("seed", 2**64),
        ("shift_delta", Vec3(float("nan"), 0, 0)),
    ])
    def test_validate_rejects(self, field, value):
        p = BenchmarkParams(blocks=4).replaced(**{field: value})
        with pytest.raises(InvalidParams):
            p.validate()

    def test_validate_rejects_bad_record_width(self):
        p = BenchmarkParams(blocks=4, source=LoadBinary("/x", 16))
        with pytest.raises(InvalidParams):
            p.validate()

    def test_json_round_trip_generate(self):
        p = BenchmarkParams(blocks=48, block_size_units=2, vectors_per_unit=4096,
                            nodes=2, cores=3, nparts=2, seed=7,
                            shift_delta=Vec3(0.5, -1.0, 2.25))
        assert BenchmarkParams.from_json_dict(p.to_json_dict()) == p

    def test_json_round_trip_load(self):
        p = BenchmarkParams(blocks=5, source=LoadBinary("/data/blocks", 12))
        assert BenchmarkParams.from_json_dict(p.to_json_dict()) == p

    @pytest.mark.parametrize("field,value", [
        ("blocks", 7.9), ("block_size_units", True), ("seed", 3.5), ("nodes", False),
        ("cores", float("inf")), ("nparts", float("nan")), ("vectors_per_unit", "16.5"),
        ("blocks", None)])
    def test_json_rejects_non_integers(self, field, value):
        d = BenchmarkParams(blocks=4).to_json_dict()
        d[field] = value
        with pytest.raises(InvalidParams, match=field):
            BenchmarkParams.from_json_dict(d)

    def test_json_rejects_non_integer_record_width(self):
        d = BenchmarkParams(blocks=5, source=LoadBinary("/data/blocks", 12)).to_json_dict()
        d["source"]["record_bytes"] = 12.5
        with pytest.raises(InvalidParams, match="record_bytes"):
            BenchmarkParams.from_json_dict(d)

    def test_json_takes_whole_floats_and_integer_strings(self):
        d = BenchmarkParams(blocks=4).to_json_dict()
        d.update(blocks=7.0, seed="3")
        p = BenchmarkParams.from_json_dict(d)
        assert (p.blocks, p.seed) == (7, 3)
        assert type(p.blocks) is int and type(p.seed) is int


class TestVec3:
    def test_from_array_row(self):
        rows = np.array([[1.0, 2.0, 3.0]])
        assert Vec3.from_sequence(rows[0]) == Vec3(1.0, 2.0, 3.0)
        assert len(encode_vectors(rows, RecordCodec(RECORD_BYTES_F64))) == RECORD_BYTES_F64
