"""Scaling arithmetic: speedup, efficiency, series building, plot-data CSV.

Everything here is a pure function over benchmark records.  A series is
anchored at its base point (the smallest unit count unless pinned), whose
speedup and efficiency are exactly 1.0 by construction; ideal curves are
derived from the base time (inverse-proportional for strong scaling, flat
for weak scaling).  Medians — not means — are taken across repetitions so
a single noisy rep cannot tilt a series.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from statistics import median
from typing import Iterable, Sequence

from .bench import RunRecord, ScalingMode
from .errors import ConfigError, ScalemapError


class NonPositiveTime(ScalemapError):
    pass


class NonPositiveFactor(ScalemapError):
    pass


class MixedModes(ScalemapError):
    """Records from incompatible runs (strong vs weak, local vs cluster)."""


class MissingBasePoint(ScalemapError):
    """No record exists at the unit count the series must anchor on."""


VALID_STAGES = ("create", "map", "reduce", "total")
VALID_UNITS = ("nodes", "cores")

_CSV_COLUMNS = ("units", "median_time_s", "speedup", "efficiency", "ideal_time_s")
_LOG_COLUMNS = ("log2_units", "log2_median_time_s", "log2_ideal_time_s")


def speedup(t_base: float, t_n: float) -> float:
    if t_base <= 0 or t_n <= 0:
        raise NonPositiveTime(f"times must be > 0, got base={t_base} t_n={t_n}")
    return t_base / t_n


def strong_efficiency(speedup_value: float, resource_factor: float) -> float:
    if resource_factor <= 0:
        raise NonPositiveFactor(f"resource factor must be > 0, got {resource_factor}")
    return speedup_value / resource_factor


@dataclass(frozen=True)
class SeriesPoint:
    units: int
    median_time_s: float
    speedup: float
    efficiency: float
    ideal_time_s: float


@dataclass(frozen=True)
class ScalingSeries:
    scaling: ScalingMode
    stage: str
    units_label: str
    base_units: int
    points: tuple[SeriesPoint, ...]


def _stage_time(rec: RunRecord, stage: str) -> float:
    return {
        "create": rec.timings.create_s,
        "map": rec.timings.map_s,
        "reduce": rec.timings.reduce_s,
        "total": rec.timings.total_s,
    }[stage]


def _units_of(rec: RunRecord, units_label: str) -> int:
    return rec.units_nodes if units_label == "nodes" else rec.units_cores


def series_from_medians(medians: Sequence[tuple[int, float]], scaling: ScalingMode,
                        stage: str = "total", units_label: str = "nodes",
                        base_units: int | None = None) -> ScalingSeries:
    """Derives a full series from raw (units, median_time_s) pairs."""
    if not medians:
        raise MissingBasePoint("cannot build a series from zero points")
    pairs = sorted(medians)
    for units, t in pairs:
        if t <= 0:
            raise NonPositiveTime(f"median time at units={units} is {t}")
        if units < 1:
            raise ConfigError(f"unit counts must be >= 1, got {units}")
    if base_units is None:
        base_units = pairs[0][0]
    by_units = dict(pairs)
    if base_units not in by_units:
        raise MissingBasePoint(
            f"no point at base_units={base_units}; have {sorted(by_units)}")
    t_base = by_units[base_units]

    points = []
    for units, t in pairs:
        sp = speedup(t_base, t)
        if scaling is ScalingMode.STRONG:
            eff = strong_efficiency(sp, units / base_units)
            ideal = t_base * base_units / units
        else:
            eff = sp  # weak-scaling efficiency, t_base / t
            ideal = t_base
        points.append(SeriesPoint(units=units, median_time_s=t, speedup=sp,
                                  efficiency=eff, ideal_time_s=ideal))
    return ScalingSeries(scaling=scaling, stage=stage, units_label=units_label,
                         base_units=base_units, points=tuple(points))


def build_series(records: Iterable[RunRecord], scaling: ScalingMode | str,
                 stage: str = "total", units: str = "nodes",
                 base_units: int | None = None) -> ScalingSeries:
    """Groups records by unit count, medians the reps, derives the series.

    All records must come from one kind of sweep: a mix of strong- and
    weak-tagged records (or local and cluster runs) is refused rather than
    silently averaged.  Untagged records are accepted under whichever
    scaling the caller requests.
    """
    scaling = ScalingMode(scaling)
    if stage not in VALID_STAGES:
        raise ConfigError(f"stage must be one of {VALID_STAGES}, got {stage!r}")
    if units not in VALID_UNITS:
        raise ConfigError(f"units must be one of {VALID_UNITS}, got {units!r}")
    records = list(records)
    if not records:
        raise MissingBasePoint("no records to analyze")

    tags = {r.scaling for r in records if r.scaling is not None}
    if len(tags) > 1:
        raise MixedModes(f"records span scaling modes {sorted(tags)}")
    if tags and tags != {scaling.value}:
        raise MixedModes(f"records are tagged {tags.pop()!r}, requested {scaling.value!r}")
    run_modes = {r.mode for r in records}
    if len(run_modes) > 1:
        raise MixedModes(f"records span execution modes {sorted(run_modes)}")

    groups: dict[int, list[float]] = {}
    for rec in records:
        groups.setdefault(_units_of(rec, units), []).append(_stage_time(rec, stage))
    medians = [(u, float(median(ts))) for u, ts in groups.items()]
    return series_from_medians(medians, scaling, stage=stage, units_label=units,
                               base_units=base_units)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_plot_data(series: ScalingSeries, scale: str = "linear") -> str:
    """Renders the series as CSV; log mode appends log2 columns for plotting
    on logarithmic axes.  Floats carry 17 significant digits so parsing the
    text back reproduces them bit-for-bit.
    """
    if scale not in ("linear", "log"):
        raise ConfigError(f"scale must be 'linear' or 'log', got {scale!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = _CSV_COLUMNS + (_LOG_COLUMNS if scale == "log" else ())
    writer.writerow(header)
    for p in series.points:
        row = [str(p.units), _fmt(p.median_time_s), _fmt(p.speedup),
               _fmt(p.efficiency), _fmt(p.ideal_time_s)]
        if scale == "log":
            row += [_fmt(math.log2(p.units)), _fmt(math.log2(p.median_time_s)),
                    _fmt(math.log2(p.ideal_time_s))]
        writer.writerow(row)
    return buf.getvalue()


def parse_plot_data(text: str) -> list[SeriesPoint]:
    """Reads emit_plot_data output back into points (log columns ignored)."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames[:5]) != _CSV_COLUMNS:
        raise ConfigError(f"unrecognized plot-data header: {reader.fieldnames}")
    return [SeriesPoint(units=int(row["units"]),
                        median_time_s=float(row["median_time_s"]),
                        speedup=float(row["speedup"]),
                        efficiency=float(row["efficiency"]),
                        ideal_time_s=float(row["ideal_time_s"]))
            for row in reader]
