"""Domain types, deterministic block generation, and the binary record codec.

Data model: a record is one 3-component float64 vector; a block is a fixed
run of records and the unit of generation and storage; partitions group
blocks round-robin for parallel execution.

Generation is pure: the vector stream of a block depends only on
(seed, block_id, n_vectors), never on which process or thread runs it.
"""

from __future__ import annotations

import dataclasses
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
            source: DataSource = LoadBinary(src["path"], int(src["record_bytes"]))
        else:
            source = Generate()
        return cls(
            blocks=int(d["blocks"]),
            block_size_units=int(d["block_size_units"]),
            vectors_per_unit=int(d["vectors_per_unit"]),
            nodes=int(d["nodes"]),
            cores=int(d["cores"]),
            nparts=int(d["nparts"]),
            seed=int(d["seed"]),
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


_GEN_CHUNK = 1 << 21  # draws per chunk; bounds temporaries to ~50 MB


def generate_vectors(seed: int, block_id: int, n_vectors: int) -> np.ndarray:
    """Deterministic (n_vectors, 3) float64 array, components uniform on [0, 1).

    Draw i of the block stream is the splitmix64 output for state
    block_seed + i * golden gamma, so any sub-range can be produced without
    generating its prefix; chunking below exploits exactly that.
    """
    bs = block_seed(seed, block_id)
    n_draws = 3 * n_vectors
    out = np.empty(n_draws, dtype=np.float64)
    for lo in range(0, n_draws, _GEN_CHUNK):
        hi = min(lo + _GEN_CHUNK, n_draws)
        idx = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        z = np.uint64(bs) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        out[lo:hi] = (z >> np.uint64(11)).astype(np.float64)
        out[lo:hi] /= float(1 << 53)
    return out.reshape(n_vectors, 3)


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
