"""Lazy, lineage-tracking partitioned datasets with caching and spilling.

A Dataset is a node in an immutable transformation DAG; nothing is computed
until force() or reduce_average() asks for it.  Any partition is a pure
function of (lineage, partition index), so a dropped partition can always be
rebuilt, and a cached one can be dropped at will.  A generated source
partition is allocated once and each of its blocks is generated in place
into its own slice, so building it copies nothing; a file-backed one decodes
each block file and concatenates the blocks.

The CacheManager is the single authority over resident payload bytes: strict
LRU within a hard byte budget, with eviction optionally spilling to disk
depending on the owning dataset's storage level.  Spill files carry an
8-byte trailer holding the payload's CRC-32, so a torn write is detected and
recomputed, never silently returned.  A partition's spills are counted by the
materialize() call that caused them: a spill runs on the thread whose cache
insert evicted, so the calling thread's spill-write count across one call is
exactly that call's spills, however many other slots are busy.

A job is its params and a storage level.  build_pipeline builds its two
datasets, the source and the source shifted by params.shift_delta, so a job
names them by stage index, 0 and 1.  run_job is the one job driver of local
and cluster execution: create forces dataset 0, map forces dataset 1 and
reduce folds dataset 1, each phase timed, with the work delegated to a
phase runner.  phase_counts builds every phase's counts, and
combine_partials is the one ordered combine behind every reduce, in-process
or remote.
"""

from __future__ import annotations

import shutil
import struct
import threading
import time
import uuid
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .core import (
    BenchmarkParams,
    IndivisibleLength,
    InvalidParams,
    LoadBinary,
    RecordCodec,
    Vec3,
    decode_vectors,
    encode_vectors,
    generate_vectors,
    partition_blocks,
)
from .errors import ScalemapError

_F64 = RecordCodec(24)


class EmptyDataset(ScalemapError):
    pass


class SpillIOFailure(ScalemapError):
    pass


class UnknownPartition(ScalemapError):
    pass


class RecomputeFailure(ScalemapError):
    """Lineage execution failed, e.g. a backing input file vanished."""


def fnv1a64(data) -> int:
    """CRC-32 of a bytes-like object, the spill checksum; zlib runs it in C
    without the interpreter lock, so slots checksum in parallel.  The name of
    the FNV-1a checksum it replaced stays: the benchmark's tracer wraps this
    module attribute by name, so the spill path calls it as a module global."""
    return zlib.crc32(data)


class StorageLevel(Enum):
    NONE = "none"
    MEMORY_ONLY = "memory_only"
    DISK_ONLY = "disk_only"
    MEMORY_AND_DISK = "memory_and_disk"


@dataclass(frozen=True)
class SourceNode:
    """Root of a lineage chain.

    For file-backed sources the file list is resolved once, at dataset
    creation, and frozen into the lineage; recomputation reads the same
    files even if the directory has since gained or lost entries.
    """

    params: BenchmarkParams
    files: tuple[str, ...] | None = None


@dataclass(frozen=True)
class MappedNode:
    parent: "Dataset"
    delta: Vec3


class Dataset:
    """One lineage DAG node.  Only the storage level (a policy, not data)
    and the record of materialized partitions ever mutate; the lineage and
    partitioning are fixed at creation.  locks[p] is held while partition p
    materializes, so a given partition is computed by at most one slot at a
    time.  materialized is the set of partitions ever materialized, added
    to under that lock."""

    def __init__(self, dataset_id: int, lineage: SourceNode | MappedNode, partitions: int):
        self.dataset_id = dataset_id
        self.lineage = lineage
        self.partitions = partitions
        self.storage = StorageLevel.NONE
        self.locks = [threading.Lock() for _ in range(partitions)]
        self.materialized: set[int] = set()

    def __repr__(self):
        kind = "source" if isinstance(self.lineage, SourceNode) else "mapped"
        return (f"Dataset(id={self.dataset_id}, {kind}, "
                f"partitions={self.partitions}, storage={self.storage.value})")


def phase_counts(outcomes) -> dict:
    """A phase's run-record counts from one (nbytes, computed, spilled)
    triple per partition: bytes materialized, partitions recomputed by
    executing lineage (first time or after eviction, not served from memory
    or spill), and spill files written by its partitions' materialize()."""
    outcomes = list(outcomes)
    return {"bytes": sum(nb for nb, _, _ in outcomes),
            "recomputed": sum(1 for _, c, _ in outcomes if c),
            "spilled": sum(s for _, _, s in outcomes)}


@dataclass
class EngineCounters:
    generate_calls: int = 0
    file_loads: int = 0
    partitions_computed: int = 0
    spill_writes: int = 0
    spill_reads: int = 0
    spill_corrupt: int = 0
    evictions: int = 0


class CacheManager:
    """Synchronized LRU store of partition payloads under a hard byte budget.

    Keys are opaque (owner, partition) pairs; drop_dataset drops every key
    of one owner.  Per-key order stamp is refreshed on get(); eviction pops
    the least recently used entry, insertion order breaking ties.  A payload
    larger than the whole budget is refused rather than evicting everything
    for nothing.  All mutation happens under one lock, including the
    eviction callback, so eviction decisions are serial.
    """

    def __init__(self, memory_budget_bytes: int, on_evict=None):
        if memory_budget_bytes < 0:
            raise InvalidParams(f"memory budget must be >= 0, got {memory_budget_bytes}")
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.on_evict = on_evict
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key) -> np.ndarray | None:
        with self._lock:
            arr = self._entries.get(key)
            if arr is not None:
                self._entries.move_to_end(key)
            return arr

    def insert(self, key, arr: np.ndarray) -> bool:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.resident_bytes -= old.nbytes
            if arr.nbytes > self.memory_budget_bytes:
                return False
            while self.resident_bytes + arr.nbytes > self.memory_budget_bytes:
                self._evict_lru()
            self._entries[key] = arr
            self.resident_bytes += arr.nbytes
            self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)
            return True

    def _evict_lru(self):
        key, arr = self._entries.popitem(last=False)
        self.resident_bytes -= arr.nbytes
        if self.on_evict is not None:
            self.on_evict(key, arr)

    def drop(self, key):
        with self._lock:
            arr = self._entries.pop(key, None)
            if arr is not None:
                self.resident_bytes -= arr.nbytes

    def drop_dataset(self, owner):
        with self._lock:
            for key in [k for k in self._entries if k[0] == owner]:
                self.drop(key)

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.resident_bytes = 0


_FOLD_CHUNK = 1 << 16


def leftfold_sum(arr: np.ndarray) -> np.ndarray:
    """Sequential left-fold component sums down axis 0.

    np.add.accumulate evaluates the recurrence r[i] = r[i-1] + a[i], which
    is exactly a record-order fold; the accumulator row is carried across
    chunks so temporaries stay small.  Plain np.sum would use pairwise
    summation and round differently.
    """
    acc = np.zeros(3, dtype=np.float64)
    for lo in range(0, arr.shape[0], _FOLD_CHUNK):
        rows = np.vstack((acc[None, :], arr[lo:lo + _FOLD_CHUNK]))
        acc = np.add.accumulate(rows, axis=0)[-1]
    return acc


class Engine:
    """Materializes dataset partitions on a pool of local slots.

    memory_budget_bytes caps cache residency and must be given explicitly;
    scratch_dir hosts spill files under a per-engine subdirectory named
    {dataset_id}/{partition}.bin so concurrent engines never collide.
    """

    def __init__(self, memory_budget_bytes: int, scratch_dir, slots: int = 1):
        self.slots = max(1, int(slots))
        self.scratch = Path(scratch_dir) / f"eng-{uuid.uuid4().hex[:8]}"
        self.counters = EngineCounters()
        self.cache = CacheManager(memory_budget_bytes, on_evict=self._on_evict)
        self._lock = threading.Lock()
        self._next_id = 0
        self._thread = threading.local()

    # ---- dataset construction ------------------------------------------

    def source(self, params: BenchmarkParams) -> Dataset:
        params.validate()
        files = None
        if isinstance(params.source, LoadBinary):
            root = Path(params.source.path)
            if not root.is_dir():
                raise InvalidParams(f"input path is not a directory: {root}")
            files = tuple(sorted(str(p) for p in root.iterdir() if p.is_file()))
            if len(files) != params.blocks:
                raise InvalidParams(
                    f"{len(files)} block files under {root}, expected blocks={params.blocks}")
        return self._register(SourceNode(params, files), params.partitions)

    def map_shift(self, d: Dataset, delta: Vec3) -> Dataset:
        return self._register(MappedNode(d, delta), d.partitions)

    def _register(self, lineage, partitions: int) -> Dataset:
        with self._lock:
            d = Dataset(self._next_id, lineage, partitions)
            self._next_id += 1
            return d

    def persist(self, d: Dataset, level: StorageLevel) -> Dataset:
        if level is StorageLevel.NONE:
            return self.unpersist(d)
        d.storage = level
        return d

    def unpersist(self, d: Dataset) -> Dataset:
        self.cache.drop_dataset(d)
        shutil.rmtree(self.scratch / str(d.dataset_id), ignore_errors=True)
        d.storage = StorageLevel.NONE
        return d

    # ---- materialization -----------------------------------------------

    def materialize(self, d: Dataset, p: int) -> tuple[np.ndarray, bool, int]:
        """(payload, computed, spilled) of one partition: computed tells
        whether lineage had to run to produce it, spilled how many spill
        files this call wrote, evicted partitions of other datasets
        included."""
        if not 0 <= p < d.partitions:
            raise UnknownPartition(f"partition {p} outside 0..{d.partitions - 1}")
        before = getattr(self._thread, "spill_writes", 0)
        arr, computed = self._materialize(d, p)
        return arr, computed, getattr(self._thread, "spill_writes", 0) - before

    def force(self, d: Dataset) -> dict:
        """Materializes every partition; returns their phase_counts."""
        def outcome(p: int) -> tuple[int, bool, int]:
            arr, computed, spilled = self.materialize(d, p)
            return arr.nbytes, computed, spilled

        with ThreadPoolExecutor(max_workers=self.slots) as pool:
            return phase_counts(pool.map(outcome, range(d.partitions)))

    def reduce_average(self, d: Dataset, outcomes: list | None = None) -> Vec3:
        """Component-wise mean over every record.

        Order is pinned for bit-reproducibility: records fold sequentially
        within a partition, partial (sum, count) pairs combine in ascending
        partition index (combine_partials), and the division happens last.
        The result is therefore identical across runs and storage levels at
        a fixed partition count (and only there; other partitionings round
        differently).  If outcomes is a list, each partition's
        (nbytes, computed, spilled) triple is appended to it, in partition
        order, for phase_counts.
        """

        def partial(p: int):
            arr, computed, spilled = self.materialize(d, p)
            return (leftfold_sum(arr), arr.shape[0]), (arr.nbytes, computed, spilled)

        with ThreadPoolExecutor(max_workers=self.slots) as pool:
            results = list(pool.map(partial, range(d.partitions)))
        if outcomes is not None:
            outcomes.extend(outcome for _, outcome in results)
        return combine_partials(pair for pair, _ in results)

    def evict_and_recompute_check(self, d: Dataset, p: int) -> bool:
        """Drop every stored copy of the partition, rebuild it from lineage,
        and compare bit-for-bit.  Test hook for the recomputation contract."""
        if p not in d.materialized:
            raise UnknownPartition(f"partition {p} of dataset {d.dataset_id} never materialized")
        snapshot = self._materialize(d, p)[0].tobytes()
        self.cache.drop((d, p))
        self._spill_delete((d, p))
        fresh, _ = self._materialize(d, p)
        return snapshot == fresh.tobytes()

    def _materialize(self, d: Dataset, p: int) -> tuple[np.ndarray, bool]:
        key = (d, p)
        with d.locks[p]:
            level = d.storage
            arr = None
            if level in (StorageLevel.MEMORY_ONLY, StorageLevel.MEMORY_AND_DISK):
                arr = self.cache.get(key)
            if arr is None and level in (StorageLevel.DISK_ONLY, StorageLevel.MEMORY_AND_DISK):
                arr = self._spill_read(key)
                if arr is not None:
                    with self._lock:
                        self.counters.spill_reads += 1
                    if level is StorageLevel.MEMORY_AND_DISK:
                        self.cache.insert(key, arr)
            computed = arr is None
            if computed:
                arr = self._compute(d, p)
                arr.setflags(write=False)
                with self._lock:
                    self.counters.partitions_computed += 1
                self._store(d, p, arr)
            d.materialized.add(p)
            return arr, computed

    def _compute(self, d: Dataset, p: int) -> np.ndarray:
        node = d.lineage
        if isinstance(node, MappedNode):
            parent, _ = self._materialize(node.parent, p)
            return parent + node.delta.as_array()
        params = node.params
        block_ids = partition_blocks(params.blocks, d.partitions, p)
        if node.files is None:
            # one allocation per partition; each block fills its own slice
            n = params.vectors_per_block
            arr = np.empty((len(block_ids) * n, 3), dtype=np.float64)
            for i, b in enumerate(block_ids):
                generate_vectors(params.seed, b, n, out=arr[i * n:(i + 1) * n])
            with self._lock:
                self.counters.generate_calls += len(block_ids)
            return arr
        codec = RecordCodec(params.source.record_bytes)
        pieces = [self._load_block(node.files[b], codec) for b in block_ids]
        with self._lock:
            self.counters.file_loads += len(pieces)
        if not pieces:
            return np.empty((0, 3), dtype=np.float64)
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    @staticmethod
    def _load_block(path: str, codec: RecordCodec) -> np.ndarray:
        try:
            data = Path(path).read_bytes()
        except OSError as e:
            raise RecomputeFailure(f"block file unreadable: {path}: {e}") from e
        try:
            return decode_vectors(data, codec)
        except IndivisibleLength as e:
            raise RecomputeFailure(f"block file misaligned: {path}: {e}") from e

    def _store(self, d: Dataset, p: int, arr: np.ndarray):
        key = (d, p)
        level = d.storage
        if level in (StorageLevel.MEMORY_ONLY, StorageLevel.MEMORY_AND_DISK):
            cached = self.cache.insert(key, arr)
            if not cached and level is StorageLevel.MEMORY_AND_DISK:
                self._ensure_spilled(key, arr)
        elif level is StorageLevel.DISK_ONLY:
            self._ensure_spilled(key, arr)

    def _on_evict(self, key, arr):
        with self._lock:
            self.counters.evictions += 1
        if key[0].storage is StorageLevel.MEMORY_AND_DISK:
            self._ensure_spilled(key, arr)

    # ---- spill files -----------------------------------------------------

    def _spill_path(self, key) -> Path:
        return self.scratch / str(key[0].dataset_id) / f"{key[1]}.bin"

    def _ensure_spilled(self, key, arr):
        path = self._spill_path(key)
        if path.exists():
            return
        self._spill_write(key, arr)

    def _spill_write(self, key, arr):
        path = self._spill_path(key)
        payload = encode_vectors(arr, _F64)
        trailer = struct.pack("<Q", fnv1a64(payload))
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "wb") as f:
                f.write(payload)
                f.write(trailer)
            tmp.replace(path)
        except OSError as e:
            raise SpillIOFailure(f"spill write failed: {path}: {e}") from e
        with self._lock:
            self.counters.spill_writes += 1
        self._thread.spill_writes = getattr(self._thread, "spill_writes", 0) + 1

    def _spill_read(self, key) -> np.ndarray | None:
        path = self._spill_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        ok = len(data) >= 8
        if ok:
            payload, (stored,) = memoryview(data)[:-8], struct.unpack("<Q", data[-8:])
            ok = fnv1a64(payload) == stored and len(payload) % 24 == 0
        if not ok:
            with self._lock:
                self.counters.spill_corrupt += 1
            path.unlink(missing_ok=True)
            return None
        arr = decode_vectors(payload, _F64)
        arr.setflags(write=False)
        return arr

    def _spill_delete(self, key):
        self._spill_path(key).unlink(missing_ok=True)

    # ---- lifecycle --------------------------------------------------------

    def close(self):
        # the cache's on_evict callback makes engine and cache a reference
        # cycle; dropping the entries frees the payloads now, not at the
        # next cyclic collection
        self.cache.clear()
        shutil.rmtree(self.scratch, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def combine_partials(partials) -> Vec3:
    """Component-wise mean from per-partition (sum, count) pairs.

    The pairs must come in ascending partition order: sums add in that
    order and the division comes last, so every reduce of a dataset, in
    one process or across a cluster, gives the same bits at a fixed
    partition count.
    """
    total = np.zeros(3, dtype=np.float64)
    count = 0
    for vec_sum, n in partials:
        total = total + vec_sum
        count += n
    if count == 0:
        raise EmptyDataset("reduce over a dataset with zero records")
    mean = total / count
    return Vec3(float(mean[0]), float(mean[1]), float(mean[2]))


# ---- the job's datasets and the job driver ------------------------------------

def build_pipeline(engine: Engine, params: BenchmarkParams,
                   storage: StorageLevel) -> list[Dataset]:
    """The job's datasets: [source, source shifted by params.shift_delta],
    both persisted at storage.

    The shifted dataset is built on the source, so the map phase reads the
    source partitions the create phase persisted.  Building computes no
    partition.
    """
    source = engine.persist(engine.source(params), storage)
    return [source, engine.persist(engine.map_shift(source, params.shift_delta), storage)]


def run_job(force, reduce, skip_reduce: bool = False):
    """Runs a job's phases, timed; returns (timings, phases, result).

    The phase runner is two callables.  force(i) materializes the job's
    dataset i and returns its phase_counts; reduce() returns the mean of
    dataset 1 as a Vec3 and the phase_counts of the partitions it read.
    create is force(0), map is force(1), then reduce; each is timed on the
    monotonic clock, and phases maps each label to its counts.  Under
    skip_reduce the result is None, reduce_s is 0 and phases has no reduce
    entry.
    """
    timings = {"reduce_s": 0.0}
    phases: dict[str, dict] = {}
    t_start = time.monotonic()
    for i, label in enumerate(("create", "map")):
        t0 = time.monotonic()
        phases[label] = force(i)
        timings[label + "_s"] = time.monotonic() - t0
    result = None
    if not skip_reduce:
        t0 = time.monotonic()
        result, phases["reduce"] = reduce()
        timings["reduce_s"] = time.monotonic() - t0
    timings["total_s"] = time.monotonic() - t_start
    return timings, phases, result
