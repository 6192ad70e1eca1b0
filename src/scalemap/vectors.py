"""Deterministic block generation and the binary record codec, on numpy.

Generation is pure: the vector stream of a block depends only on
(seed, block_id, n_vectors), never on which process or thread runs it.
generate_vectors makes a whole partition's blocks in one call, into one
allocation with no per-block copies.  Small blocks are tiled together, so
a partition pays numpy's per-call cost once per tile of draws rather than
once per block; the temporaries are bounded by a fixed chunk of draws
whatever the block size or count.
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


# Draws per tile.  Each call works in two uint64 scratch buffers of at most
# _GEN_CHUNK draws, 512 KiB apiece, so a partition of any size needs no
# temporaries beyond ~1 MiB (besides numpy's 64 KiB ufunc iteration buffers
# and the 512 KiB step table, once per process), and a small partition's
# scratch is no larger than its output.
_GEN_CHUNK = 1 << 16
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))
_MIX1_U64, _MIX2_U64 = np.uint64(_MIX1), np.uint64(_MIX2)


@functools.cache
def _chunk_steps() -> np.ndarray:
    """steps[j] = (j + 1) * golden gamma mod 2^64, the state increments of
    one chunk's draws; built on first use, so a process that never
    generates (a master, a probe server) does not hold it."""
    steps = np.arange(1, _GEN_CHUNK + 1, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    steps.setflags(write=False)
    return steps


def generate_vectors(seed: int, block_ids: int | Sequence[int], n_vectors: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """The (len(block_ids) * n_vectors, 3) float64 vectors of the given
    blocks, back to back; block_ids is a sequence of ids, such as a
    partition_blocks range, or one int id.  Components are uniform on [0, 1).

    Draw i of a block's stream is the splitmix64 output for state
    block_seed + (i + 1) * golden gamma, so any sub-range of draws can be
    produced without generating its prefix.  The draws form a
    (blocks, 3 * n_vectors) grid, made a tile at a time: as many whole
    blocks as fit in _GEN_CHUNK draws, or one _GEN_CHUNK slice of a block
    larger than that.  A tile is one add of the step row onto a column of
    its rows' base states, then in-place ufuncs over two reusable scratch
    buffers, and its (z >> 11) * 2^-53 is written straight into its rows of
    the result: for a power of two the product is exact, the same bits as
    dividing by 2^53.

    out, if given, must be a C-contiguous array of the result's shape and
    float64, for instance one partition's slice of a larger array; it is
    filled and returned.  A wrong out raises ValueError before anything is
    written.
    """
    ids = (block_ids,) if isinstance(block_ids, int) else block_ids
    shape = (len(ids) * n_vectors, 3)
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {shape} float64 array, got "
                         f"{out.shape} {out.dtype} contiguous={out.flags.c_contiguous}")
    if not out.size:
        return out
    flat = out.reshape(-1)
    block_draws = 3 * n_vectors
    cols = min(block_draws, _GEN_CHUNK)
    rows = min(max(_GEN_CHUNK // block_draws, 1), len(ids))
    z = np.empty(rows * cols, dtype=np.uint64)
    t = np.empty(rows * cols, dtype=np.uint64)
    steps = _chunk_steps()
    for r0 in range(0, len(ids), rows):
        tile_ids = ids[r0:r0 + rows]
        r = len(tile_ids)
        for c0 in range(0, block_draws, cols):
            m = min(cols, block_draws - c0)
            zm, tm = z[:r * m], t[:r * m]
            # Python ints mod 2^64: numpy warns on uint64 scalar overflow
            base = np.fromiter(((block_seed(seed, b) + c0 * _GOLDEN) & _MASK64
                                for b in tile_ids), dtype=np.uint64, count=r)
            np.add(steps[:m], base[:, None], out=zm.reshape(r, m))
            np.bitwise_xor(zm, np.right_shift(zm, _SHIFT30, out=tm), out=zm)
            np.multiply(zm, _MIX1_U64, out=zm)
            np.bitwise_xor(zm, np.right_shift(zm, _SHIFT27, out=tm), out=zm)
            np.multiply(zm, _MIX2_U64, out=zm)
            np.bitwise_xor(zm, np.right_shift(zm, _SHIFT31, out=tm), out=zm)
            np.right_shift(zm, _SHIFT11, out=tm)
            # a tile is whole rows of the grid or a slice of one row, so its
            # draws are one contiguous run of the result
            lo = r0 * block_draws + c0
            np.multiply(tm, 2.0**-53, out=flat[lo:lo + r * m])
    return out


def encode_vectors(vectors: np.ndarray, codec: RecordCodec) -> bytes:
    return np.ascontiguousarray(vectors, dtype=codec.dtype).tobytes()


def decode_vectors(data, codec: RecordCodec) -> np.ndarray:
    """(n, 3) float64 records of a bytes-like object: for 24-byte records a
    view of data, read-only when data is; 12-byte records are widened."""
    if len(data) % codec.record_bytes != 0:
        raise IndivisibleLength(len(data), codec.record_bytes)
    flat = np.frombuffer(data, dtype=codec.dtype)
    return flat.reshape(-1, 3).astype(np.float64, copy=False)
