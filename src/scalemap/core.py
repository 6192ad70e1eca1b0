"""Domain types and parameters: records, blocks, partitions and the job's params.

Data model: a record is one 3-component float64 vector; a block is a fixed
run of records and the unit of generation and storage; partitions group
blocks round-robin for parallel execution.

Nothing here imports numpy, so a master or a probe server, which never
touches an array, imports this module without it.  Block generation and the
binary record codec live in the vectors module, on numpy; generate_vectors,
RecordCodec, encode_vectors and decode_vectors are still importable from
here, and load that module on first use.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

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


def exact_int(value, name: str, error: type[ScalemapError] = InvalidParams) -> int:
    """value, a field a library caller set, if it is an int itself: whole_int's
    rule with no conversion, so a bool, any float and a string raise error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


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
            v = exact_int(getattr(self, name), name)
            if v < 1:
                raise InvalidParams(f"{name} must be a positive integer, got {v!r}")
        if not 0 <= exact_int(self.seed, "seed") <= _MASK64:
            raise InvalidParams(f"seed must fit in 64 bits, got {self.seed!r}")
        if isinstance(self.source, LoadBinary):
            if exact_int(self.source.record_bytes, "record_bytes") not in (
                    RECORD_BYTES_F32, RECORD_BYTES_F64):
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


def partition_blocks(blocks: int, partitions: int, p: int) -> range:
    """Block ids of partition p, ascending: blocks go round-robin over
    partitions, so p holds p, p + partitions, ...; O(1) to build."""
    return range(p, blocks, partitions)


# the names of the vectors module that core still exports, loaded on first use
_VECTOR_NAMES = frozenset({"RecordCodec", "generate_vectors", "encode_vectors",
                           "decode_vectors", "_GEN_CHUNK"})


def __getattr__(name: str):
    if name not in _VECTOR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import vectors
    return getattr(vectors, name)
