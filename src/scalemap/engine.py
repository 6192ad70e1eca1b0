"""Lazy, lineage-tracking partitioned datasets with caching and spilling.

A Dataset is a node in an immutable transformation DAG; nothing is computed
until force() or reduce_average() asks for it.  Any partition is a pure
function of (lineage, partition index), so a dropped partition can always be
rebuilt, and a cached one can be dropped at will.  A generated source
partition is made by one generate_vectors call into one allocation, its
small blocks tiled together, so building it copies nothing.  A cluster
worker declares each run of tasks it executes (run_of); inside a run of a
generated source whose partitions fit two or more to a tile, a cold
partition is generated together with the run's next cold ones, in one call
of at most one tile, and each of them gets its own copy of its rows.  The
engine holds the rows generated ahead of their turn, at most one tile per
thread, and drops them when the run ends; generate_calls counts blocks when
they are generated.  A file-backed partition is read as a spill is: its
block files are read straight into one fresh buffer, one file at a time,
each into its own slice, and decoded by one call, a view of that buffer for
24-byte records, so building it copies nothing; a file that is not whole
records, or that changes size while it is read, fails the partition.  A mapped
partition is its parent's records plus the dataset's delta, added by
shift_records in one out-of-place pass over slabs of rows: broadcasting a
(3,) delta over (n, 3) records would run numpy's inner loop 3 elements at a
time, once per record, where a slab's add runs thousands, so the map stage
costs about one read and one write of the partition.

The CacheManager is the single authority over resident payload bytes: strict
LRU within a hard byte budget, with eviction optionally spilling to disk
depending on the owning dataset's storage level.  Spill files carry an
8-byte trailer holding the payload's CRC-32, so a torn write is detected and
recomputed, never silently returned.  A spill copies no payload: the write
hands the file the partition's own buffer, the byte view encode_vectors
returns for float64 records, and checksums that same view; the read fills a
fresh array straight from the file and decodes a view of it.  So a spill
holds the interpreter lock for no copy, and the other slots and a worker's
heartbeat run beside it.  A partition's spills are counted by the
materialize() call that caused them: a spill runs on the thread whose cache
insert evicted, so the calling thread's spill-write count across one call is
exactly that call's spills, however many other slots are busy.

A job is its params and a storage level (the job module holds its spec and
its driver).  build_pipeline builds its two datasets, the source and the
source shifted by params.shift_delta, so a job names them by stage index,
0 and 1.

leftfold_sum is the one fold of partitions' records, in the local reduce
and on a cluster worker alike, and Engine.partial the one per-partition
reduce entry that calls it.  It sums in record order, so its bits are
fixed.  A lone partition is folded by contiguous, out-of-place 1-D
accumulates, the one accumulate shape numpy runs in parallel across
threads, so a reduce of large partitions scales with slots as create and
map do.  Its (x, y) pairs fold as one complex128 chain and z as one
float64 chain, two accumulates where three would do: a complex add is one
IEEE float64 add per part, the running sum its first operand, so every
bit is still that of three float64 folds, nan payloads included, and
numpy runs the two parts as independent chains, in about the time of one.
Inside a worker's run, partial folds a small partition together
with the run's next ones, a tile of them in one 2-D accumulate: a small
partition's fold costs a few numpy calls whatever its length, so one call
per tile replaces several per partition.
"""

from __future__ import annotations

import os
import shutil
import struct
import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from itertools import islice
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (BenchmarkParams, IndivisibleLength, InvalidParams, LoadBinary, Vec3,
                   partition_blocks)
from .errors import ScalemapError
from .job import StorageLevel, combine_partials, phase_counts
from .vectors import _GEN_CHUNK, RecordCodec, decode_vectors, encode_vectors, generate_vectors

_F64 = RecordCodec(24)


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


class _Unreadable(Exception):
    """A file _read_files could not stat, open or read; the OSError is the
    cause."""

    def __init__(self, path: str):
        super().__init__(path)
        self.path = path


class _Resized(Exception):
    """A file that changed size while _read_files read it: its read ended
    short of the size it was listed at, or it held bytes past that size."""

    def __init__(self, path: str, size: int, how: str):
        super().__init__(f"listed at {size} bytes, {how}")
        self.path = path


def _read_files(paths) -> tuple[np.ndarray, list[int]]:
    """The bytes of the files at paths, back to back, as one fresh uint8
    array, and each file's size.  Every file is sized by stat first and the
    array allocated once; then each is opened unbuffered in turn, one open
    file at a time however many there are, and read straight into its
    slice, so no byte is copied.  A file that reads short of its size, or
    has a byte past it, raises _Resized; one that cannot be read,
    _Unreadable."""
    sizes = []
    try:
        for path in paths:
            sizes.append(os.stat(path).st_size)
        buf = np.empty(sum(sizes), dtype=np.uint8)
        view, at = memoryview(buf), 0
        for path, size in zip(paths, sizes):
            with open(path, "rb", buffering=0) as f:
                end = at + size
                while at < end:  # one read returns at most about 2 GiB
                    n = f.readinto(view[at:end])
                    if not n:
                        raise _Resized(path, size, f"read {size - (end - at)}")
                    at += n
                if f.read(1):
                    raise _Resized(path, size, "holds more")
    except OSError as e:
        raise _Unreadable(path) from e
    return buf, sizes


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
    """parent shifted by delta; row is shift_row(delta), built once per
    mapped dataset."""

    parent: "Dataset"
    delta: Vec3
    row: np.ndarray = field(compare=False, repr=False)


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


@dataclass
class EngineCounters:
    generate_calls: int = 0  # blocks, counted when they are generated
    file_loads: int = 0
    partitions_computed: int = 0
    spill_writes: int = 0
    spill_reads: int = 0
    spill_corrupt: int = 0
    evictions: int = 0


class _Run:
    """A thread's declared run of one dataset's partitions (Engine.run_of):
    their order, the rows of generated partitions made ahead of their turn,
    and the partial answers of partitions folded ahead of theirs."""

    def __init__(self, d: Dataset, partitions):
        self.dataset = d
        self.order = list(partitions)
        self.at = {p: i for i, p in enumerate(self.order)}
        self.held: dict[int, np.ndarray] = {}
        self.answers: dict[int, tuple] = {}
        # blocks per generate tile, for a generated source whose largest
        # partition fits twice in one; else 0, and nothing is generated ahead
        self.room = 0
        node = d.lineage
        if isinstance(node, SourceNode) and node.files is None:
            room = _GEN_CHUNK // (3 * node.params.vectors_per_block)
            if 2 * -(-node.params.blocks // d.partitions) <= room:
                self.room = room

    def after(self, p: int):
        """The partitions that follow p in the run, in order; none if p is
        not in it."""
        order = self.order
        for i in range(self.at.get(p, len(order)) + 1, len(order)):
            yield order[i]

    def group(self, p: int) -> list[int]:
        """p and the partitions that follow it in the run, up to the first
        that is out of range or already materialized, or would take the
        group past one tile of blocks."""
        d, params = self.dataset, self.dataset.lineage.params
        group, used = [p], len(partition_blocks(params.blocks, d.partitions, p))
        for q in islice(self.after(p), self.room):
            if not 0 <= q < d.partitions or q in d.materialized:
                break
            used += len(partition_blocks(params.blocks, d.partitions, q))
            if used > self.room:
                break
            group.append(q)
        return group


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


_FOLD_CHUNK = 1 << 15
# Elements (three per record) of one tile of small partitions folded together.
# The 2-D accumulate that folds a tile does not run in parallel across
# threads, where a lone partition's 1-D accumulates do, so on a 2-slot
# worker tiling loses as partitions grow: pairs of 2730-row partitions
# folded about 10% slower tiled than alone, and at 2^16 elements 8192-row
# ones 1.6x slower.  So a partition is tiled only if four of its size fit
# in a tile: 1365 rows at most, which folded about 30% faster tiled.
_FOLD_TILE = 1 << 14


def leftfold_sum(arrays) -> np.ndarray:
    """Sequential left-fold component sums down axis 0 of each (n_i, 3)
    array of a sequence, as a (k, 3) array, row i the sums of arrays[i].

    np.add.accumulate evaluates the recurrence r[i] = r[i-1] + a[i], which
    is exactly a record-order fold; plain np.sum would use pairwise
    summation and round differently.

    Several arrays are folded as one tile: each is copied, transposed, into
    three rows of a (3k, max n_i + 1) array of zeros, right-aligned, and one
    in-place accumulate along axis 1 folds every row.  A row's leading zeros
    sum to 0.0, so it starts from 0.0 + a[0] as a row-by-row fold does, and
    every result bit is that of folding each array alone.  The caller bounds
    the tile (Engine.partial keeps it within _FOLD_TILE elements): that
    accumulate is one numpy call however many arrays it folds, but slots
    folding tiles at once take as long as one slot folding both in turn.

    A lone array is folded a chunk of rows at a time, by two contiguous,
    out-of-place 1-D accumulates, the one accumulate shape numpy runs in
    parallel across threads, so a large partition folds on every slot at
    once.  The chunk's (x, y) pairs, viewed in place as one strided
    complex128 array (x the real part, y the imaginary), are copied into
    xy[1:], behind the running (x, y) sum in xy[0], and folded by one
    complex accumulate into xyd; z is copied behind its running sum in z
    and folded by a float64 accumulate into zd.  A complex add is one IEEE
    add per part, the running sum its first operand, so each part follows
    the recurrence of a row-by-row fold, and every result bit is that of
    three float64 folds, inf, nan payloads, -0.0 and overflow included;
    numpy runs the two parts as independent chains, so the pair folds in
    about the time of one.  A chunk that is not C-contiguous float64 is
    converted first.  Every buffer is allocated per call, since slots fold
    at the same time.
    """
    if len(arrays) > 1:
        width = max(a.shape[0] for a in arrays) + 1
        tile = np.zeros((3 * len(arrays), width))
        for i, a in enumerate(arrays):
            tile[3 * i:3 * i + 3, width - a.shape[0]:] = a.T
        np.add.accumulate(tile, axis=1, out=tile)
        return tile[:, -1].reshape(-1, 3).copy()
    (arr,) = arrays
    n = arr.shape[0]
    width = min(n, _FOLD_CHUNK) + 1
    xy = np.zeros(width, np.complex128)
    xyd = np.empty(width, np.complex128)
    z = np.zeros(width)
    zd = np.empty(width)
    for lo in range(0, n, _FOLD_CHUNK):
        rows = np.ascontiguousarray(arr[lo:lo + _FOLD_CHUNK], dtype=np.float64)
        m = rows.shape[0]
        if m + 1 < width:  # the last chunk, cut short
            xy, xyd, z, zd = xy[:m + 1], xyd[:m + 1], z[:m + 1], zd[:m + 1]
        xy[1:] = rows[:, :2].view(np.complex128)[:, 0]
        z[1:] = rows[:, 2]
        np.add.accumulate(xy, out=xyd)
        np.add.accumulate(z, out=zd)
        xy[0] = xyd[-1]
        z[0] = zd[-1]
    s = xy[0]
    return np.array([[s.real, s.imag, z[0]]])


def _fold(outcomes) -> list:
    """The ((sx, sy, sz), count, (nbytes, computed, spilled)) answers of a
    list of materialize outcomes, folded in one leftfold_sum call."""
    sums = leftfold_sum([arr for arr, _, _ in outcomes]).tolist()
    return [(tuple(s), arr.shape[0], (arr.nbytes, computed, spilled))
            for s, (arr, computed, spilled) in zip(sums, outcomes)]


def _fold_one(outcome) -> tuple:
    """_fold([outcome])[0], without building its lists."""
    arr, computed, spilled = outcome
    (sums,) = leftfold_sum([arr]).tolist()
    return tuple(sums), arr.shape[0], (arr.nbytes, computed, spilled)


# Rows per slab of the map stage's add: the tiled delta row is 24 KiB.
_SHIFT_SLAB = 1024


def shift_row(delta: Vec3) -> np.ndarray:
    """The read-only row shift_records adds: delta's three components
    repeated once per row of a slab."""
    row = np.tile(np.array(delta.as_tuple(), dtype=np.float64), _SHIFT_SLAB)
    row.setflags(write=False)
    return row


def shift_records(rows: np.ndarray, row: np.ndarray) -> np.ndarray:
    """rows + delta as a fresh C-contiguous (n, 3) float64 array, for
    row = shift_row(delta); rows is left unchanged.

    The flat records are viewed as slabs of _SHIFT_SLAB rows, shape
    (-1, 3 * _SHIFT_SLAB), and row is added to each slab in one out-of-place
    np.add whose inner loop runs the length of a slab; the last
    n mod _SHIFT_SLAB rows take a prefix of row.  Each output element is
    still the one IEEE add rows[i, j] + delta[j], so every bit is that of
    rows + delta, inf, nan, -0.0 and overflow included.  A parent that is
    not C-contiguous is copied flat first.  An add over no elements still
    costs a ufunc call, about half a 512-row shift, so empty ones are skipped.
    """
    out = np.empty((rows.shape[0], 3), dtype=np.float64)
    src, dst = rows.reshape(-1), out.reshape(-1)
    cut = dst.size - dst.size % row.size
    if cut:
        np.add(src[:cut].reshape(-1, row.size), row, out=dst[:cut].reshape(-1, row.size))
    if cut < dst.size:
        np.add(src[cut:], row[:dst.size - cut], out=dst[cut:])
    return out


class Engine:
    """Materializes dataset partitions on a pool of local slots.

    memory_budget_bytes caps cache residency and must be given explicitly;
    scratch_dir hosts spill files under a per-engine subdirectory named
    {dataset_id}/{partition}.bin so concurrent engines never collide.
    """

    def __init__(self, memory_budget_bytes: int, scratch_dir, slots: int = 1):
        self.slots = max(1, int(slots))
        self.scratch = Path(scratch_dir) / f"eng-{os.urandom(4).hex()}"
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
        return self._register(MappedNode(d, delta, shift_row(delta)), d.partitions)

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
        with ThreadPoolExecutor(max_workers=self.slots) as pool:
            results = list(pool.map(self.partial, [d] * d.partitions, range(d.partitions)))
        if outcomes is not None:
            outcomes.extend(outcome for _, _, outcome in results)
        return combine_partials((sums, count) for sums, count, _ in results)

    def partial(self, d: Dataset, p: int) -> tuple[tuple, int, tuple[int, bool, int]]:
        """((sx, sy, sz), count, (nbytes, computed, spilled)) of partition
        p: the left-fold sums and count of its records, and the outcome of
        its materialize.

        Outside this thread's run of d (run_of) that is one materialize and
        a fold of p alone.  Inside it, p is materialized with the partitions
        that follow it in the run, in run order, while the next one would
        still fit, at the size of the last one seen, in one tile of
        _FOLD_TILE elements, and the group is folded in one leftfold_sum
        call; each answer is held until its partition's own call.  A
        following partition that raises ends the group before it, and
        raises again on its own turn; one that turns out too large for the
        tile is folded alone.  A partition larger than a quarter of a tile
        folds alone, without looking ahead; a group of one takes
        leftfold_sum's 1-D path, which runs in parallel across slots."""
        run = getattr(self._thread, "run", None)
        if run is None or run.dataset is not d:
            return _fold_one(self.materialize(d, p))
        answer = run.answers.pop(p, None)
        if answer is not None:
            return answer
        run.answers.clear()  # partitions the run passed without their call
        first = self.materialize(d, p)
        used = last = 3 * first[0].shape[0]
        if 4 * used > _FOLD_TILE:
            return _fold_one(first)
        group, outcomes = [p], [first]
        for q in run.after(p):
            if used + last > _FOLD_TILE:
                break
            try:
                got = self.materialize(d, q)
            except Exception:  # noqa: BLE001 - q raises again on its own turn
                break
            last = 3 * got[0].shape[0]
            if used + last > _FOLD_TILE:
                run.answers[q] = _fold_one(got)
                break
            used += last
            group.append(q)
            outcomes.append(got)
        answers = _fold(outcomes)
        run.answers.update(zip(group[1:], answers[1:]))
        return answers[0]

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
            # a (n, 3) + (3,) broadcast would add 3 elements per inner loop;
            # shift_records adds whole slabs of rows, about 1.5x faster
            return shift_records(parent, node.row)
        if node.files is None:
            return self._generate(d, p)
        return self._load(node, partition_blocks(node.params.blocks, d.partitions, p))

    def _load(self, node: SourceNode, block_ids: range) -> np.ndarray:
        """The records of a file-backed source's blocks, back to back: the
        files are read straight into one fresh buffer (_read_files) and
        decoded by one decode_vectors call, a view of the buffer for 24-byte
        records, so no record is copied; 12-byte records are widened once."""
        paths = [node.files[b] for b in block_ids]
        codec = RecordCodec(node.params.source.record_bytes)
        try:
            buf, sizes = _read_files(paths)
        except _Unreadable as e:
            raise RecomputeFailure(
                f"block file unreadable: {e.path}: {e.__cause__}") from e.__cause__
        except _Resized as e:
            raise RecomputeFailure(f"block file changed size while read: {e.path}: {e}") from e
        for path, size in zip(paths, sizes):
            if size % codec.record_bytes:
                raise RecomputeFailure(
                    f"block file misaligned: {path}: "
                    f"{IndivisibleLength(size, codec.record_bytes)}")
        with self._lock:
            self.counters.file_loads += len(paths)
        return decode_vectors(buf, codec)

    def _generate(self, d: Dataset, p: int) -> np.ndarray:
        """Partition p of a generated source.  Inside this thread's run of d
        (run_of), p's rows may already be held, generated with an earlier
        partition's; else p is generated with the run's next partitions
        that are not yet materialized and fit with it in one tile, in one
        generate_vectors call, and the engine holds their rows until their
        own turn.  Each partition gets its own copy of its rows, so a
        cached payload owns exactly its bytes."""
        params = d.lineage.params
        run = getattr(self._thread, "run", None)
        if run is not None and run.dataset is d and run.room:
            rows = run.held.pop(p, None)
            if rows is not None:
                return rows.copy()
            run.held.clear()  # partitions the run passed without computing
            group = run.group(p)
        else:
            group = [p]
        ids = [partition_blocks(params.blocks, d.partitions, q) for q in group]
        arr = generate_vectors(params.seed, ids[0] if len(ids) == 1 else
                               [b for r in ids for b in r], params.vectors_per_block)
        with self._lock:
            self.counters.generate_calls += sum(map(len, ids))
        if len(group) == 1:
            return arr
        cuts = np.cumsum([len(r) for r in ids[:-1]]) * params.vectors_per_block
        run.held.update(zip(group, np.split(arr, cuts)))
        return run.held.pop(p).copy()

    @contextmanager
    def run_of(self, d: Dataset, partitions):
        """Declares that this thread materializes or folds these partitions
        of d next, in this order, as a cluster worker runs a run of tasks.
        Inside the run, a cold partition of a generated source whose
        partitions fit two or more to a tile is generated together with the
        run's next ones (_generate), and partial folds a partition together
        with the run's next small ones.  What either holds ahead of its
        turn, at most one tile of rows and one of answers, is dropped when
        the run ends."""
        self._thread.run = _Run(d, partitions)
        try:
            yield
        finally:
            self._thread.run = None

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
        """The partition held in key's spill file, read straight into a
        fresh array (_read_files), or None if there is no file or it is
        torn: too short, not whole records, changed size while read, or a
        checksum that does not match (counted, and the file unlinked, so the
        partition is recomputed)."""
        path = self._spill_path(key)
        try:
            buf, _ = _read_files([path])
            ok = buf.size >= 8 and (buf.size - 8) % 24 == 0
        except _Unreadable:
            return None
        except _Resized:
            ok = False
        if ok:
            payload, (stored,) = buf[:-8], struct.unpack("<Q", buf[-8:])
            ok = fnv1a64(payload) == stored
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


# ---- the job's datasets ------------------------------------------------------

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
