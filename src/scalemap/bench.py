"""The timed micro-benchmark pipeline and strong/weak scaling sweeps.

One run is three phases: build the source dataset and force it (create),
shift every vector and force that (map), then take the global average
(reduce).  A job is its params and storage level; local and cluster runs
share one driver, job.run_job, so both time the phases alike and record
the same counter shape, {create, map, reduce: {bytes, recomputed, spilled}}.
A cluster record also keeps the master's report of its job in stats
(rescheduled, workers_lost, worker_errors, remote_tasks, workers,
partitions); a local record's stats are empty.

A strong sweep holds total blocks fixed while node count grows; a weak
sweep holds blocks per node fixed, so totals grow with node count.

Importing bench loads the engine, and numpy with it, so a process that
runs jobs pays for that import up front, before its first job.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .core import BenchmarkParams, LoadBinary, Vec3
from .engine import Engine, build_pipeline
from . import cluster as cluster_mod
from .errors import ConfigError
from .job import StorageLevel, make_pipeline_spec, phase_counts, run_job

MODE_LOCAL = "local"
MODE_CLUSTER = "cluster"


class ScalingMode(str, Enum):
    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True)
class StageTimings:
    create_s: float
    map_s: float
    reduce_s: float
    total_s: float
    counters: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"create_s": self.create_s, "map_s": self.map_s,
                "reduce_s": self.reduce_s, "total_s": self.total_s}


@dataclass(frozen=True)
class RunRecord:
    params: BenchmarkParams
    mode: str
    timings: StageTimings
    result: Vec3 | None
    rep: int
    timestamp: float
    scaling: ScalingMode | None = None
    stats: dict = field(default_factory=dict)

    @property
    def units_nodes(self) -> int:
        return self.params.nodes

    @property
    def units_cores(self) -> int:
        return self.params.nodes * self.params.cores

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "mode": self.mode,
            "timings": self.timings.to_json_dict(),
            "result": None if self.result is None else list(self.result.as_tuple()),
            "rep": self.rep,
            "timestamp": self.timestamp,
            "scaling": None if self.scaling is None else self.scaling.value,
            "counters": self.timings.counters,
            "stats": self.stats,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunRecord":
        t = d["timings"]
        timings = StageTimings(
            create_s=float(t["create_s"]), map_s=float(t["map_s"]),
            reduce_s=float(t["reduce_s"]), total_s=float(t["total_s"]),
            counters=d.get("counters", {}),
        )
        res = d.get("result")
        scaling = d.get("scaling")
        return cls(
            params=BenchmarkParams.from_json_dict(d["params"]),
            mode=d["mode"],
            timings=timings,
            result=None if res is None else Vec3.from_sequence(res),
            rep=int(d["rep"]),
            timestamp=float(d["timestamp"]),
            scaling=None if scaling is None else ScalingMode(scaling),
            stats=d.get("stats", {}),
        )


def run_pipeline(params: BenchmarkParams, mode: str = MODE_LOCAL, *,
                 memory_budget: int = 1 << 30, scratch=None,
                 master_addr: tuple[str, int] | None = None,
                 storage: StorageLevel = StorageLevel.MEMORY_ONLY,
                 skip_reduce: bool = False, rep: int = 0,
                 scaling: ScalingMode | None = None) -> RunRecord:
    params.validate()
    if mode == MODE_LOCAL:
        if scratch is None:
            raise ConfigError("local mode needs a scratch directory")
        # local stand-in for an N-node cluster: one slot per (node, core) pair
        with Engine(memory_budget, scratch, slots=params.nodes * params.cores) as engine:
            datasets = build_pipeline(engine, params, storage)

            def reduce():
                outcomes = []
                mean = engine.reduce_average(datasets[1], outcomes)
                return mean, phase_counts(outcomes)

            timings, phases, result = run_job(
                lambda i: engine.force(datasets[i]), reduce, skip_reduce)
        stats = {}
    elif mode == MODE_CLUSTER:
        if master_addr is None:
            raise ConfigError("cluster mode needs a master address")
        jr = cluster_mod.submit(master_addr, make_pipeline_spec(params, storage),
                                skip_reduce=skip_reduce)
        timings, phases, result, stats = jr.timings, jr.phases, jr.result, jr.stats
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return RunRecord(params=params, mode=mode,
                     timings=StageTimings(**timings, counters=phases),
                     result=result, rep=rep, timestamp=time.time(), scaling=scaling,
                     stats=stats)


def sweep_configurations(base: BenchmarkParams, node_counts: list[int],
                         scaling: ScalingMode) -> list[BenchmarkParams]:
    """Per-node-count parameter sets; validates the sweep axis up front.

    In weak mode the base blocks value is read as blocks per node.  A --load
    directory holds one fixed set of block files, so a weak sweep over it
    cannot go past one node count.
    """
    if not node_counts:
        raise ConfigError("node_counts must be nonempty")
    if sorted(node_counts) != list(node_counts) or len(set(node_counts)) != len(node_counts):
        raise ConfigError(f"node_counts must be strictly ascending, got {node_counts}")
    if scaling is ScalingMode.WEAK and isinstance(base.source, LoadBinary) and len(node_counts) > 1:
        raise ConfigError(
            f"a weak sweep grows blocks with nodes, but {base.source.path} holds "
            f"one fixed set of block files; sweep a single node count")
    out = []
    for n in node_counts:
        if scaling is ScalingMode.STRONG:
            p = base.replaced(nodes=n)
        else:
            p = base.replaced(nodes=n, blocks=base.blocks * n)
        if p.blocks < p.partitions:
            raise ConfigError(
                f"{p.blocks} blocks over {p.partitions} partitions leaves "
                f"zero-block partitions at nodes={n}")
        out.append(p)
    return out


def run_sweep(base: BenchmarkParams, node_counts: list[int], scaling: ScalingMode,
              reps: int = 3, mode: str = MODE_LOCAL, **run_kwargs) -> list[RunRecord]:
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    records = []
    for params in sweep_configurations(base, node_counts, scaling):
        for rep in range(reps):
            records.append(run_pipeline(params, mode, rep=rep, scaling=scaling,
                                        **run_kwargs))
    return records


def write_records_jsonl(records: list[RunRecord], path):
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r.to_json_dict()) + "\n")


def read_records_jsonl(path) -> list[RunRecord]:
    text = Path(path).read_text(encoding="utf-8")
    records = []
    for line in text.splitlines():
        if line.strip():
            records.append(RunRecord.from_json_dict(json.loads(line)))
    return records
