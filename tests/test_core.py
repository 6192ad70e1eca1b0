import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference as R
from conftest import assert_bit_equal
from scalemap import vectors
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


@st.composite
def block_id_lists(draw):
    """A partition_blocks range of any stride and offset, or a list of any
    u64 ids; either way at most 16 ids, all below 2^64, so that the seeds
    are made on both sides of vectors._SEEDS_IN_PYTHON."""
    if draw(st.booleans()):
        return draw(st.lists(u64s, max_size=16))
    partitions = draw(st.integers(min_value=1, max_value=2**64 - 1))
    p = draw(st.integers(min_value=0, max_value=partitions - 1))
    blocks = min(p + draw(st.integers(min_value=0, max_value=16)) * partitions, 2**64)
    return partition_blocks(blocks, partitions, p)


def oracle_floats(seed: int, block_ids, n: int) -> np.ndarray:
    """The blocks' draws from the scalar oracle, concatenated, as (k * n, 3)."""
    floats = [x for b in block_ids for x in R.block_floats(seed, b, 3 * n)]
    return np.array(floats, dtype=np.float64).reshape(-1, 3)


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

    @given(seed=u64s, block_ids=block_id_lists(), n=st.integers(min_value=0, max_value=32))
    @example(seed=2**64 - 1, block_ids=[2**64 - 1 - b for b in range(11)], n=2)
    def test_blocks_match_scalar_oracle(self, seed, block_ids, n):
        assert_bit_equal(generate_vectors(seed, block_ids, n), oracle_floats(seed, block_ids, n))

    @pytest.mark.parametrize("n,blocks", [
        (16, vectors._GEN_CHUNK // 48 + 35),
        (vectors._GEN_CHUNK // 3, 2),
        (vectors._GEN_CHUNK // 3 + 1, 2),
    ], ids=["many-blocks-per-tile", "one-block-per-tile", "block-spans-chunks"])
    def test_tiles_match_scalar_oracle(self, n, blocks):
        # 1400 blocks of 48 draws fill one tile of 1365 and start a second;
        # 65,535 draws make a tile of one block; 65,538 need two chunks
        block_ids = partition_blocks(3 * blocks, 3, 2)
        assert len(block_ids) == blocks
        assert_bit_equal(generate_vectors(13, block_ids, n), oracle_floats(13, block_ids, n))

    def test_chunk_boundary_continuity(self):
        # draws just below, at and just above the first and second chunk edges
        edges = (vectors._GEN_CHUNK, 2 * vectors._GEN_CHUNK)
        n = (edges[-1] + 3) // 3 + 1
        got = generate_vectors(7, 5, n).reshape(-1)
        want = R.block_floats(7, 5, 3 * n)
        for edge in edges:
            for i in range(edge - 3, edge + 3):
                assert got[i] == want[i], i

    def test_in_place_temporaries_bounded(self):
        # the scratch buffers are a fixed chunk, not a multiple of the block;
        # the first call builds the per-process step table, once
        generate_vectors(3, 1, 1)
        tracemalloc.start()
        try:
            out = generate_vectors(3, 1, 1 << 18)
            peak = tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes / 4
        assert_bit_equal(out, generate_vectors(3, 1, 1 << 18))

    def test_tiled_temporaries_bounded(self):
        # 4096 blocks of 48 draws: the scratch stays within two tiles of
        # _GEN_CHUNK draws, however many blocks the call holds, beside
        # the blocks' seeds and the iteration buffers numpy's ufuncs
        # allocate for a broadcast or a cast (two of getbufsize() elements)
        block_ids, n = range(4096), 16
        generate_vectors(3, 1, 1)
        tracemalloc.start()
        try:
            out = generate_vectors(3, block_ids, n)
            peak = tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 2 * (vectors._GEN_CHUNK + np.getbufsize()) * 8 + len(block_ids) * 8
        assert_bit_equal(out, np.concatenate([generate_vectors(3, b, n) for b in block_ids]))

    def test_deterministic(self):
        assert_bit_equal(generate_vectors(99, 7, 1024), generate_vectors(99, 7, 1024))

    @given(seed=u64s, block_id=u64s)
    def test_range_and_finite(self, seed, block_id):
        v = generate_vectors(seed, block_id, 32)
        assert np.all(np.isfinite(v))
        assert np.all(v >= 0.0) and np.all(v < 1.0)

    def test_empty_block(self):
        assert generate_vectors(1, 2, 0).shape == (0, 3)
        # no ids, or several empty blocks: no draws, so no tile to size
        for block_ids, n in (([], 4), (range(5, 5), 4), ([1, 2, 3], 0)):
            assert generate_vectors(1, block_ids, n).shape == (0, 3)

    def test_distinct_blocks_differ(self):
        a = generate_vectors(42, 0, 16)
        b = generate_vectors(42, 1, 16)
        assert a.tobytes() != b.tobytes()

    @given(seed=u64s, block_id=u64s)
    def test_block_seed_matches_oracle(self, seed, block_id):
        want = R.mix64((seed ^ ((block_id * R.GOLDEN) & R.MASK64)) + R.GOLDEN)
        assert block_seed(seed, block_id) == want

    @given(seed=u64s, block_ids=st.lists(u64s, max_size=24), scratch=st.integers(1, 5))
    @example(seed=3, block_ids=list(range(vectors._SEEDS_IN_PYTHON)), scratch=1)
    @example(seed=3, block_ids=list(range(vectors._SEEDS_IN_PYTHON + 1)), scratch=4)
    def test_vectorized_block_seeds_match_block_seed(self, seed, block_ids, scratch):
        # up to _SEEDS_IN_PYTHON ids block_seed runs in Python; past it, a
        # scratch shorter than the ids mixes them a scratch's worth at a time
        t = np.empty(scratch, dtype=np.uint64)
        got = vectors._block_seeds(seed, block_ids, t)
        assert got.dtype == np.uint64
        assert got.tolist() == [block_seed(seed, b) for b in block_ids]

    def test_vectorized_block_seeds_at_the_u64_edges(self):
        edges = [0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]
        t = np.empty(len(edges), dtype=np.uint64)
        # the edges alone take the Python path, three times over the array's
        assert len(edges) <= vectors._SEEDS_IN_PYTHON < 3 * len(edges)
        for ids in (edges, 3 * edges):
            for seed in edges:
                assert vectors._block_seeds(seed, ids, t).tolist() == [
                    block_seed(seed, b) for b in ids]

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

    def test_f64_encoding_is_a_read_only_view_of_the_records(self):
        # a spill writes a partition's own buffer: no copy for float64 records
        arr = np.arange(12.0).reshape(4, 3)
        view = encode_vectors(arr, RecordCodec(24))
        assert view.readonly and view.nbytes == arr.nbytes
        assert np.shares_memory(np.frombuffer(view, dtype=np.float64), arr)
        assert not np.shares_memory(np.frombuffer(encode_vectors(arr, RecordCodec(12)),
                                                  dtype=np.float32), arr)
        assert bytes(encode_vectors(np.empty((0, 3)), RecordCodec(24))) == b""

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

    @pytest.mark.parametrize("field", ["blocks", "block_size_units", "vectors_per_unit",
                                       "nodes", "cores", "nparts", "seed"])
    @pytest.mark.parametrize("value", [True, 3.5, 4.0, "4"])
    def test_validate_rejects_non_integers(self, field, value):
        p = BenchmarkParams(blocks=4).replaced(**{field: value})
        with pytest.raises(InvalidParams, match=field):
            p.validate()

    @pytest.mark.parametrize("value", [24.0, True, "24"])
    def test_validate_rejects_non_integer_record_width(self, value):
        p = BenchmarkParams(blocks=4, source=LoadBinary("/x", value))
        with pytest.raises(InvalidParams, match="record_bytes"):
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
