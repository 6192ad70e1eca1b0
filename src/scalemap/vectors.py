"""Deterministic block generation and the binary record codec, on numpy.

Generation is pure: the vector stream of a block depends only on
(seed, block_id, n_vectors), never on which process or thread runs it.
generate_vectors makes any list of blocks in one call, into one allocation
with no per-block copies: a partition's blocks, or those of several small
partitions, which the engine generates together within a worker's run of
tasks (Engine.run_of) and splits.  Small blocks are tiled together, so a
call pays numpy's per-call cost once per tile of draws rather than once per
block, and the blocks' seeds are one splitmix64 over an array of all their
ids (for a few blocks, block_seed in Python, below the array's fixed cost);
the temporaries are bounded by a fixed chunk of draws, plus 8 bytes a
block, whatever the block size or count.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (_GOLDEN, _MASK64, _MIX1, _MIX2, RECORD_BYTES_F32, RECORD_BYTES_F64,
                   IndivisibleLength, InvalidParams, block_seed)


@dataclass(frozen=True)
class RecordCodec:
    """Fixed-width little-endian record codec: 12 bytes (3x float32) or 24 (3x float64)."""

    record_bytes: int = RECORD_BYTES_F64

    def __post_init__(self):
        if self.record_bytes not in (RECORD_BYTES_F32, RECORD_BYTES_F64):
            raise InvalidParams(f"unsupported record width {self.record_bytes}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype("<f4" if self.record_bytes == RECORD_BYTES_F32 else "<f8")


# Draws per tile.  A tile's states live in its own rows of the result, and
# each call works in one uint64 scratch buffer of at most _GEN_CHUNK draws,
# 512 KiB, so a call of any size needs no temporaries beyond that and its
# blocks' seeds (besides numpy's 64 KiB ufunc iteration buffers and the
# 512 KiB step table, once per process), and a small call's scratch is no
# larger than its output.
_GEN_CHUNK = 1 << 16
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = (np.uint64(k) for k in (_GOLDEN, _MIX1, _MIX2))


@functools.cache
def _chunk_steps() -> np.ndarray:
    """steps[j] = (j + 1) * golden gamma mod 2^64, the state increments of
    one chunk's draws; built on first use, so a process that never
    generates (a master, a probe server) does not hold it."""
    steps = np.arange(1, _GEN_CHUNK + 1, dtype=np.uint64)
    steps *= _GOLDEN_U64
    steps.setflags(write=False)
    return steps


def _mix64(z: np.ndarray, t: np.ndarray):
    """splitmix64's output mix of the states z, in place; t is scratch of
    z's size that takes the shift temporaries."""
    np.bitwise_xor(z, np.right_shift(z, _SHIFT30, out=t), out=z)
    np.multiply(z, _MIX1_U64, out=z)
    np.bitwise_xor(z, np.right_shift(z, _SHIFT27, out=t), out=z)
    np.multiply(z, _MIX2_U64, out=z)
    np.bitwise_xor(z, np.right_shift(z, _SHIFT31, out=t), out=z)


# Ids up to which _block_seeds runs block_seed in Python: the array path
# costs about ten numpy calls whatever the count, 7.0-8.0 us, where the
# Python loop costs about 0.6 us an id: 1.2-2.5 us for 1 id, 5.3-5.7 us for
# 8, 7.5-8.2 us for 12 (timeit, best of 7).
_SEEDS_IN_PYTHON = 10


def _block_seeds(seed: int, ids: Sequence[int], t: np.ndarray) -> np.ndarray:
    """block_seed(seed, b) of every id b, as uint64.  Up to _SEEDS_IN_PYTHON
    ids, block_seed itself; more, splitmix64 of seed ^ (b * golden gamma)
    over one array of all the ids, its shift temporaries in the scratch t,
    a scratch's worth of ids at a time."""
    if len(ids) <= _SEEDS_IN_PYTHON:
        return np.array([block_seed(seed, b) for b in ids], dtype=np.uint64)
    seeds = np.fromiter(ids, dtype=np.uint64, count=len(ids))
    np.multiply(seeds, _GOLDEN_U64, out=seeds)
    np.bitwise_xor(seeds, np.uint64(seed), out=seeds)
    np.add(seeds, _GOLDEN_U64, out=seeds)
    for s0 in range(0, seeds.size, t.size):
        part = seeds[s0:s0 + t.size]
        _mix64(part, t[:part.size])
    return seeds


def generate_vectors(seed: int, block_ids: int | Sequence[int], n_vectors: int) -> np.ndarray:
    """The (len(block_ids) * n_vectors, 3) float64 vectors of the given
    blocks, back to back; block_ids is a sequence of ids, such as a
    partition_blocks range, or one int id.  Components are uniform on [0, 1).

    Draw i of a block's stream is the splitmix64 output for state
    block_seed + (i + 1) * golden gamma, so any sub-range of draws can be
    produced without generating its prefix.  The blocks' seeds are
    block_seed's, made by _block_seeds: one splitmix64 over a uint64 array
    of all the ids, or block_seed itself for a few.
    The draws form a (blocks, 3 * n_vectors) grid, made a tile at a time:
    as many whole blocks as fit in _GEN_CHUNK draws, or one _GEN_CHUNK slice
    of a block larger than that.  A tile's states are one add of the step
    row onto a column of its rows' seeds, plus its chunk offset, into its
    own rows of the result viewed as uint64; they are mixed in place, with
    the shift temporaries in one reusable scratch buffer, and (z >> 11) *
    2^-53 is written back over them: for a power of two the product is
    exact, the same bits as dividing by 2^53.
    """
    ids = (block_ids,) if isinstance(block_ids, int) else block_ids
    out = np.empty((len(ids) * n_vectors, 3), dtype=np.float64)
    if not out.size:
        return out
    flat = out.reshape(-1)
    states = flat.view(np.uint64)  # a tile's states live in its rows of out
    block_draws = 3 * n_vectors
    cols = min(block_draws, _GEN_CHUNK)
    rows = min(max(_GEN_CHUNK // block_draws, 1), len(ids))
    t = np.empty(rows * cols, dtype=np.uint64)
    seeds = _block_seeds(seed, ids, t)
    steps = _chunk_steps()
    for r0 in range(0, len(ids), rows):
        base = seeds[r0:r0 + rows]
        r = base.size
        for c0 in range(0, block_draws, cols):
            m = min(cols, block_draws - c0)
            # a tile is whole rows of the grid or a slice of one row, so its
            # draws are one contiguous run of the result
            lo = r0 * block_draws + c0
            zm, tm = states[lo:lo + r * m], t[:r * m]
            if c0:  # a block past its first chunk: one row, offset by c0 steps
                base = seeds[r0:r0 + 1] + np.uint64((c0 * _GOLDEN) & _MASK64)
            np.add(steps[:m], base[:, None], out=zm.reshape(r, m))
            _mix64(zm, tm)
            np.right_shift(zm, _SHIFT11, out=tm)
            np.multiply(tm, 2.0**-53, out=flat[lo:lo + r * m])
    return out


def encode_vectors(vectors: np.ndarray, codec: RecordCodec) -> memoryview:
    """The records' bytes in codec's little-endian layout, as a read-only
    byte view.  A C-contiguous little-endian float64 array is viewed in
    place for 24-byte records, so a spill write copies nothing and holds no
    interpreter lock for a copy; any other input, 12-byte records included,
    is converted into a fresh array first."""
    flat = np.ascontiguousarray(vectors, dtype=codec.dtype)
    if not flat.size:  # a view with a zero in its shape cannot be cast
        return memoryview(b"")
    return memoryview(flat).cast("B").toreadonly()


def decode_vectors(data, codec: RecordCodec) -> np.ndarray:
    """(n, 3) float64 records of a bytes-like object: for 24-byte records a
    view of data, read-only when data is; 12-byte records are widened."""
    if len(data) % codec.record_bytes != 0:
        raise IndivisibleLength(len(data), codec.record_bytes)
    flat = np.frombuffer(data, dtype=codec.dtype)
    return flat.reshape(-1, 3).astype(np.float64, copy=False)
