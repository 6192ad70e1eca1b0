"""A job's spec, its storage levels, and the one job driver, without numpy.

A job is its params and a storage level, written by make_pipeline_spec and
read back, checked, by parse_pipeline_spec.  run_job is the one job driver
of local and cluster execution: create forces dataset 0, map forces
dataset 1 and reduce folds dataset 1, each phase timed, with the work
delegated to a phase runner.  phase_counts builds every phase's counts, and
combine_partials is the one ordered combine behind every reduce, in-process
or remote.  The master runs jobs through this module alone, so it never
loads the engine or numpy.
"""

from __future__ import annotations

import time
from enum import Enum

from .core import BenchmarkParams, Vec3
from .errors import ScalemapError


class EmptyDataset(ScalemapError):
    pass


class StorageLevel(Enum):
    NONE = "none"
    MEMORY_ONLY = "memory_only"
    DISK_ONLY = "disk_only"
    MEMORY_AND_DISK = "memory_and_disk"


def phase_counts(outcomes) -> dict:
    """A phase's run-record counts from one (nbytes, computed, spilled)
    triple per partition: bytes materialized, partitions recomputed by
    executing lineage (first time or after eviction, not served from memory
    or spill), and spill files written by its partitions' materialize()."""
    outcomes = list(outcomes)
    return {"bytes": sum(nb for nb, _, _ in outcomes),
            "recomputed": sum(1 for _, c, _ in outcomes if c),
            "spilled": sum(s for _, _, s in outcomes)}


def combine_partials(partials) -> Vec3:
    """Component-wise mean from per-partition (sum, count) pairs, each sum
    three floats.

    The pairs must come in ascending partition order: sums add in that
    order and the division comes last, so every reduce of a dataset, in
    one process or across a cluster, gives the same bits at a fixed
    partition count.  Each add and the division are one IEEE float64
    operation, as numpy's would be.
    """
    sx = sy = sz = 0.0
    count = 0
    for (x, y, z), n in partials:
        sx += x
        sy += y
        sz += z
        count += n
    if count == 0:
        raise EmptyDataset("reduce over a dataset with zero records")
    return Vec3.from_sequence((sx / count, sy / count, sz / count))


def make_pipeline_spec(params: BenchmarkParams, storage: StorageLevel) -> dict:
    """The job a cluster runs: its params and the storage level of both its
    datasets (engine.build_pipeline)."""
    return {"params": params.to_json_dict(), "storage": storage.value}


def parse_pipeline_spec(spec: dict) -> tuple[BenchmarkParams, StorageLevel]:
    """The (params, storage) of a make_pipeline_spec dict, both checked, so
    a bad job fails before any of its tasks runs."""
    params = BenchmarkParams.from_json_dict(spec["params"])
    params.validate()
    storage = StorageLevel(spec["storage"])
    return params, storage


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
