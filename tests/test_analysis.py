"""Scaling arithmetic, series construction, and plot-data round trips."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalemap.analysis import (
    MissingBasePoint,
    MixedModes,
    NonPositiveFactor,
    NonPositiveTime,
    ScalingSeries,
    SeriesPoint,
    build_series,
    emit_plot_data,
    parse_plot_data,
    series_from_medians,
    speedup,
    strong_efficiency,
)
from scalemap.bench import RunRecord, ScalingMode, StageTimings
from scalemap.core import BenchmarkParams, Vec3
from scalemap.errors import ConfigError

finite_times = st.floats(min_value=1e-9, max_value=1e9,
                         allow_nan=False, allow_infinity=False)


class TestSpeedup:
    def test_sixteenfold(self):
        assert speedup(160.0, 10.0) == 16.0

    def test_identity(self):
        assert speedup(3.7, 3.7) == 1.0

    @pytest.mark.parametrize("t_base,t_n", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0),
                                            (2.0, -0.5)])
    def test_nonpositive_rejected(self, t_base, t_n):
        with pytest.raises(NonPositiveTime):
            speedup(t_base, t_n)

    @given(t_base=finite_times, t_n=finite_times)
    def test_product_recovers_base(self, t_base, t_n):
        sp = speedup(t_base, t_n)
        assert sp * t_n == pytest.approx(t_base, rel=1e-15)


class TestEfficiency:
    def test_sixty_percent_level(self):
        assert strong_efficiency(9.64, 16) == pytest.approx(0.6025, abs=1e-12)

    def test_ninety_three_percent_level(self):
        assert strong_efficiency(14.98, 16) == pytest.approx(0.93625, abs=1e-12)

    def test_ideal_is_one(self):
        assert strong_efficiency(16.0, 16) == 1.0

    def test_efficiency_is_plain_division(self):
        # 11.98/16 is 74.875%, full stop — no rounding to any other figure
        val = strong_efficiency(11.98, 16)
        assert val == pytest.approx(0.74875, abs=1e-12)
        assert abs(val - 0.688) > 0.05

    def test_zero_factor_rejected(self):
        with pytest.raises(NonPositiveFactor):
            strong_efficiency(4.0, 0)

    # weak-scaling efficiency is t_base / t_n, which is exactly speedup()
    def test_weak_flat_is_one(self):
        assert speedup(100.0, 100.0) == 1.0

    def test_weak_slowdown(self):
        assert speedup(100.0, 125.0) == pytest.approx(0.8)

    def test_weak_nonpositive_rejected(self):
        with pytest.raises(NonPositiveTime):
            speedup(100.0, 0.0)


def record(nodes=1, cores=1, total_s=10.0, rep=0, mode="local", scaling="strong",
           create_s=1.0, map_s=2.0, reduce_s=3.0):
    params = BenchmarkParams(blocks=max(nodes * cores, 8), nodes=nodes, cores=cores,
                             vectors_per_unit=64)
    return RunRecord(
        params=params, mode=mode,
        timings=StageTimings(create_s=create_s, map_s=map_s, reduce_s=reduce_s,
                             total_s=total_s),
        result=Vec3(0.5, 0.5, 0.5), rep=rep, timestamp=1.0, scaling=scaling)


class TestBuildSeries:
    def test_median_over_reps(self):
        records = [record(nodes=1, total_s=t, rep=i) for i, t in enumerate([10.0, 14.0, 12.0])]
        records += [record(nodes=2, total_s=t, rep=i) for i, t in enumerate([6.0, 5.0, 7.0])]
        s = build_series(records, ScalingMode.STRONG)
        assert [p.units for p in s.points] == [1, 2]
        assert s.points[0].median_time_s == 12.0
        assert s.points[1].median_time_s == 6.0
        assert s.points[1].speedup == 2.0
        assert s.points[1].efficiency == 1.0

    def test_base_point_exactly_one(self):
        records = [record(nodes=n, total_s=100.0 / n) for n in (1, 2, 4)]
        s = build_series(records, "strong")
        assert s.points[0].speedup == 1.0
        assert s.points[0].efficiency == 1.0

    def test_single_point_series(self):
        s = build_series([record(nodes=3, total_s=5.0)], "strong")
        assert len(s.points) == 1
        assert s.points[0].speedup == 1.0
        assert s.base_units == 3

    def test_ideal_strong_halves_as_units_double(self):
        records = [record(nodes=n, total_s=40.0) for n in (1, 2, 4, 8)]
        s = build_series(records, "strong")
        ideals = [p.ideal_time_s for p in s.points]
        assert ideals == [40.0, 20.0, 10.0, 5.0]

    def test_ideal_weak_is_flat(self):
        records = [record(nodes=n, total_s=40.0 + n, scaling="weak") for n in (1, 2, 4)]
        s = build_series(records, "weak")
        assert all(p.ideal_time_s == 41.0 for p in s.points)
        assert s.points[2].efficiency == pytest.approx(41.0 / 44.0)

    def test_superlinear_efficiency_allowed(self):
        records = [record(nodes=1, total_s=10.0), record(nodes=2, total_s=4.0)]
        s = build_series(records, "strong")
        assert s.points[1].efficiency > 1.0

    def test_permutation_invariant(self):
        records = [record(nodes=n, total_s=t, rep=r)
                   for n, t, r in [(1, 10.0, 0), (1, 11.0, 1), (2, 6.0, 0),
                                   (2, 5.5, 1), (4, 3.0, 0), (4, 3.5, 1)]]
        base = build_series(records, "strong")
        rng = random.Random(7)
        for _ in range(5):
            rng.shuffle(records)
            assert build_series(records, "strong") == base

    def test_mixed_scaling_tags_rejected(self):
        records = [record(nodes=1, scaling="strong"), record(nodes=2, scaling="weak")]
        with pytest.raises(MixedModes):
            build_series(records, "strong")

    def test_tag_conflicting_with_request_rejected(self):
        records = [record(nodes=n, scaling="weak") for n in (1, 2)]
        with pytest.raises(MixedModes):
            build_series(records, "strong")

    def test_mixed_execution_modes_rejected(self):
        records = [record(nodes=1, mode="local"), record(nodes=2, mode="cluster")]
        with pytest.raises(MixedModes):
            build_series(records, "strong")

    def test_untagged_records_accepted(self):
        records = [record(nodes=n, total_s=10.0 / n, scaling=None) for n in (1, 2)]
        s = build_series(records, "weak")
        assert len(s.points) == 2

    def test_empty_records_missing_base(self):
        with pytest.raises(MissingBasePoint):
            build_series([], "strong")

    def test_pinned_base_absent(self):
        with pytest.raises(MissingBasePoint):
            build_series([record(nodes=2)], "strong", base_units=1)

    def test_pinned_base_used(self):
        records = [record(nodes=n, total_s=12.0 / n) for n in (1, 2, 4)]
        s = build_series(records, "strong", base_units=2)
        assert s.base_units == 2
        mid = [p for p in s.points if p.units == 2][0]
        assert mid.speedup == 1.0 and mid.efficiency == 1.0

    def test_units_cores_axis(self):
        records = [record(nodes=1, cores=12, total_s=10.0),
                   record(nodes=2, cores=12, total_s=5.0)]
        s = build_series(records, "strong", units="cores")
        assert [p.units for p in s.points] == [12, 24]

    def test_stage_selector(self):
        records = [record(nodes=1, create_s=2.0, map_s=8.0),
                   record(nodes=2, create_s=1.0, map_s=4.0)]
        s = build_series(records, "strong", stage="map")
        assert s.points[0].median_time_s == 8.0
        assert s.points[1].speedup == 2.0

    def test_bad_stage_rejected(self):
        with pytest.raises(ConfigError):
            build_series([record()], "strong", stage="warmup")

    def test_bad_units_rejected(self):
        with pytest.raises(ConfigError):
            build_series([record()], "strong", units="racks")

    def test_zero_stage_time_rejected(self):
        with pytest.raises(NonPositiveTime):
            build_series([record(nodes=1, reduce_s=0.0)], "strong", stage="reduce")


class TestPlotData:
    def series(self, scaling=ScalingMode.STRONG):
        medians = [(1, 10.0), (2, 5.125), (4, 2.9)]
        return series_from_medians(medians, scaling)

    def test_linear_columns(self):
        text = emit_plot_data(self.series())
        lines = text.strip().split("\n")
        assert lines[0] == "units,median_time_s,speedup,efficiency,ideal_time_s"
        assert len(lines) == 4

    def test_base_only_two_lines(self):
        s = series_from_medians([(1, 3.0)], ScalingMode.STRONG)
        text = emit_plot_data(s)
        assert len(text.strip().split("\n")) == 2

    def test_log_columns(self):
        text = emit_plot_data(self.series(), scale="log")
        header = text.strip().split("\n")[0].split(",")
        assert header == ["units", "median_time_s", "speedup", "efficiency",
                          "ideal_time_s", "log2_units", "log2_median_time_s",
                          "log2_ideal_time_s"]
        first = text.strip().split("\n")[1].split(",")
        assert float(first[5]) == 0.0
        assert float(first[6]) == math.log2(10.0)

    def test_round_trip_identical(self):
        s = self.series()
        for scale in ("linear", "log"):
            points = parse_plot_data(emit_plot_data(s, scale=scale))
            assert tuple(points) == s.points

    @given(times=st.lists(finite_times, min_size=1, max_size=6, unique=True),
           weak=st.booleans())
    def test_round_trip_lossless_fuzz(self, times, weak):
        medians = [(i + 1, t) for i, t in enumerate(times)]
        mode = ScalingMode.WEAK if weak else ScalingMode.STRONG
        s = series_from_medians(medians, mode)
        assert tuple(parse_plot_data(emit_plot_data(s))) == s.points

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigError):
            emit_plot_data(self.series(), scale="loglog")

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigError):
            parse_plot_data("a,b,c\n1,2,3\n")


class TestSeriesFromMedians:
    def test_base_time_property(self):
        s = series_from_medians([(2, 8.0), (4, 4.0)], ScalingMode.STRONG)
        assert s.base_time_s == 8.0

    def test_empty_rejected(self):
        with pytest.raises(MissingBasePoint):
            series_from_medians([], ScalingMode.STRONG)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(NonPositiveTime):
            series_from_medians([(1, -2.0)], ScalingMode.STRONG)

    def test_zero_units_rejected(self):
        with pytest.raises(ConfigError):
            series_from_medians([(0, 2.0)], ScalingMode.STRONG)
