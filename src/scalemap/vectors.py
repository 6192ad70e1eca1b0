"""Deterministic block generation and the binary record codec, on numpy.

Generation is pure: the vector stream of a block depends only on
(seed, block_id, n_vectors), never on which process or thread runs it.
generate_vectors can fill a caller's array in place, so a partition of many
blocks is generated into one allocation with no per-block copies; its
temporaries are bounded by a fixed chunk of draws whatever the block size.
"""

from __future__ import annotations

import functools
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


# Draws per chunk.  Each call works in two uint64 scratch buffers of
# min(3 * n_vectors, _GEN_CHUNK) draws, 512 KiB apiece at most, so a block of
# any size needs no temporaries beyond ~1 MiB (and the 512 KiB step table,
# once per process) and a small block's scratch is no larger than its output.
_GEN_CHUNK = 1 << 16
_SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (np.uint64(k) for k in (11, 27, 30, 31))


@functools.cache
def _chunk_steps() -> np.ndarray:
    """steps[j] = (j + 1) * golden gamma mod 2^64, the state increments of
    one chunk's draws; built on first use, so a process that never
    generates (a master, a probe server) does not hold it."""
    steps = np.arange(1, _GEN_CHUNK + 1, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    steps.setflags(write=False)
    return steps


def generate_vectors(seed: int, block_id: int, n_vectors: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic (n_vectors, 3) float64 array, components uniform on [0, 1).

    Draw i of the block stream is the splitmix64 output for state
    block_seed + (i + 1) * golden gamma, so any sub-range of draws can be
    produced without generating its prefix.  The draws are made a chunk at a
    time with in-place ufuncs over two reusable scratch buffers, and each
    chunk's (z >> 11) * 2^-53 is written straight into the result: for a
    power of two the product is exact, the same bits as dividing by 2^53.

    out, if given, must be a C-contiguous (n_vectors, 3) float64 array, for
    instance one block's slice of a partition; it is filled and returned.
    A wrong out raises ValueError before anything is written.
    """
    shape = (n_vectors, 3)
    if out is None:
        out = np.empty(shape, dtype=np.float64)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {shape} float64 array, got "
                         f"{out.shape} {out.dtype} contiguous={out.flags.c_contiguous}")
    flat = out.reshape(-1)
    n_draws = flat.shape[0]
    chunk = min(n_draws, _GEN_CHUNK)
    z = np.empty(chunk, dtype=np.uint64)
    t = np.empty(chunk, dtype=np.uint64)
    steps = _chunk_steps()
    bs = block_seed(seed, block_id)
    for lo in range(0, n_draws, _GEN_CHUNK):
        m = min(chunk, n_draws - lo)
        zm, tm = z[:m], t[:m]
        np.add(steps[:m], np.uint64((bs + lo * _GOLDEN) & _MASK64), out=zm)
        np.bitwise_xor(zm, np.right_shift(zm, _SHIFT30, out=tm), out=zm)
        np.multiply(zm, np.uint64(_MIX1), out=zm)
        np.bitwise_xor(zm, np.right_shift(zm, _SHIFT27, out=tm), out=zm)
        np.multiply(zm, np.uint64(_MIX2), out=zm)
        np.bitwise_xor(zm, np.right_shift(zm, _SHIFT31, out=tm), out=zm)
        np.right_shift(zm, _SHIFT11, out=tm)
        np.multiply(tm, 2.0**-53, out=flat[lo:lo + m])
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
