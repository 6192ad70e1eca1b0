"""Domain types, deterministic block generation, and the binary record codec.

Data model: a record is one 3-component float64 vector; a block is a fixed
run of records and the unit of generation and storage; partitions group
blocks round-robin for parallel execution.

Generation is pure: the vector stream of a block depends only on
(seed, block_id, n_vectors), never on which process or thread runs it.
generate_vectors can fill a caller's array in place, so a partition of many
blocks is generated into one allocation with no per-block copies; its
temporaries are bounded by a fixed chunk of draws whatever the block size.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScalemapError

RECORD_BYTES_F32 = 12
RECORD_BYTES_F64 = 24

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class InvalidParams(ScalemapError):
    pass


class IndivisibleLength(ScalemapError):
    def __init__(self, length: int, record_bytes: int):
        super().__init__(
            f"byte length {length} is not divisible by record size {record_bytes}"
        )
        self.length = length
        self.record_bytes = record_bytes


def whole_int(value, name: str, error: type[ScalemapError] = InvalidParams) -> int:
    """value, a job or config field, as an int: an int, a float with no
    fractional part, or a string of an integer, as an environment variable
    gives.  A bool, any other float or anything else raises error, so a
    field is never silently truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise error(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as e:
        raise error(f"{name} must be an integer, got {value!r}") from e


def splitmix64(x: int) -> int:
    """One splitmix64 step from state ``x`` (advance by the golden gamma, mix)."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def block_seed(seed: int, block_id: int) -> int:
    """Per-block stream seed: splitmix64(seed XOR (block_id * golden gamma))."""
    return splitmix64((seed ^ ((block_id * _GOLDEN) & _MASK64)) & _MASK64)


@dataclass(frozen=True)
class Vec3:
    """One record: three IEEE-754 float64 components."""

    x: float
    y: float
    z: float

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    @classmethod
    def from_sequence(cls, seq) -> "Vec3":
        x, y, z = seq
        return cls(float(x), float(y), float(z))


ZERO_DELTA = Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Generate:
    """Synthesize data directly where it is consumed."""


@dataclass(frozen=True)
class LoadBinary:
    """Read blocks from a directory of headerless fixed-width record files."""

    path: str
    record_bytes: int = RECORD_BYTES_F64


DataSource = Generate | LoadBinary


# the integer fields of a job's params, as from_json_dict reads them
_INT_PARAMS = ("blocks", "block_size_units", "vectors_per_unit", "nodes", "cores",
               "nparts", "seed")


@dataclass(frozen=True)
class BenchmarkParams:
    """Everything that determines one benchmark dataset and its layout.

    ``blocks`` is the total block count, except in weak-scaling sweeps where
    the sweep interprets the base value as blocks per node.  Partition count
    is always nodes * cores * nparts.  Block payload is
    block_size_units * vectors_per_unit records.
    """

    blocks: int
    block_size_units: int = 1
    vectors_per_unit: int = 2**20
    nodes: int = 1
    cores: int = 1
    nparts: int = 1
    seed: int = 42
    source: DataSource = field(default_factory=Generate)
    shift_delta: Vec3 = ZERO_DELTA

    @property
    def partitions(self) -> int:
        return self.nodes * self.cores * self.nparts

    @property
    def vectors_per_block(self) -> int:
        return self.block_size_units * self.vectors_per_unit

    @property
    def total_vectors(self) -> int:
        return self.blocks * self.vectors_per_block

    @property
    def total_bytes(self) -> int:
        return self.total_vectors * RECORD_BYTES_F64

    def validate(self) -> None:
        for name in ("blocks", "block_size_units", "vectors_per_unit", "nodes", "cores", "nparts"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise InvalidParams(f"{name} must be a positive integer, got {v!r}")
        if not 0 <= self.seed <= _MASK64:
            raise InvalidParams(f"seed must fit in 64 bits, got {self.seed!r}")
        if isinstance(self.source, LoadBinary):
            if self.source.record_bytes not in (RECORD_BYTES_F32, RECORD_BYTES_F64):
                raise InvalidParams(
                    f"record_bytes must be {RECORD_BYTES_F32} or {RECORD_BYTES_F64}, "
                    f"got {self.source.record_bytes}"
                )
        if not self.shift_delta.is_finite():
            raise InvalidParams(f"shift_delta must be finite, got {self.shift_delta}")

    def replaced(self, **changes) -> "BenchmarkParams":
        return dataclasses.replace(self, **changes)

    def to_json_dict(self) -> dict:
        if isinstance(self.source, LoadBinary):
            src = {"kind": "load", "path": self.source.path, "record_bytes": self.source.record_bytes}
        else:
            src = {"kind": "generate"}
        return {
            "blocks": self.blocks,
            "block_size_units": self.block_size_units,
            "vectors_per_unit": self.vectors_per_unit,
            "nodes": self.nodes,
            "cores": self.cores,
            "nparts": self.nparts,
            "seed": self.seed,
            "source": src,
            "shift_delta": list(self.shift_delta.as_tuple()),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BenchmarkParams":
        src = d.get("source", {"kind": "generate"})
        if src["kind"] == "load":
            source: DataSource = LoadBinary(src["path"],
                                            whole_int(src["record_bytes"], "record_bytes"))
        else:
            source = Generate()
        return cls(
            **{name: whole_int(d[name], name) for name in _INT_PARAMS},
            source=source,
            shift_delta=Vec3.from_sequence(d["shift_delta"]),
        )


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


def partition_blocks(blocks: int, partitions: int, p: int) -> range:
    """Block ids of partition p, ascending: blocks go round-robin over
    partitions, so p holds p, p + partitions, ...; O(1) to build."""
    return range(p, blocks, partitions)
