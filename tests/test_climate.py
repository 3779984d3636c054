import math
import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_node
from freight_resilience.centrality import rank_mapping
from freight_resilience.climate import (
    BASELINE,
    FUTURE_FAR,
    FUTURE_NEAR,
    DailyTmaxSeries,
    EnsembleSummary,
    HotDayProfile,
    PeriodSpec,
    RegularGrid,
    build_hot_day_profile,
    count_hot_days,
    ensemble_stats,
    haversine_km,
    hot_day_delta,
    map_nodes_to_grid,
    node_series_from_grid,
    read_delta_csv,
    read_gridded_series_csv,
    read_profiles_csv,
    read_series_csv,
    summarize,
    top_k_frequency,
    write_delta_csv,
    write_ensemble_csv,
    write_profiles_csv,
)
from freight_resilience.errors import DataError


def make_series(start, values, model="m1", node_id=1):
    """Consecutive daily values beginning at ``start``."""
    days = tuple(start + timedelta(days=i) for i in range(len(values)))
    return DailyTmaxSeries(model, node_id, days, tuple(float(v) for v in values))


def is_leap(year):
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


class TestPeriodSpec:
    def test_baseline_day_count(self):
        # year-by-year total, not a date subtraction
        expected = sum(366 if is_leap(y) else 365 for y in range(1991, 2021))
        assert BASELINE.n_days() == expected == 10958

    def test_future_windows_are_30_years(self):
        for period in (FUTURE_NEAR, FUTURE_FAR):
            assert period.end_year - period.start_year == 29

    def test_contains_is_year_inclusive(self):
        assert BASELINE.contains(date(1991, 1, 1))
        assert BASELINE.contains(date(2020, 12, 31))
        assert not BASELINE.contains(date(2021, 1, 1))
        assert not BASELINE.contains(date(1990, 12, 31))

    def test_reversed_years_rejected(self):
        with pytest.raises(ValueError):
            PeriodSpec("bad", 2000, 1999)


class TestSeriesValidation:
    def test_dates_must_increase(self):
        d = date(2000, 7, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            DailyTmaxSeries("m", 1, (d, d), (30.0, 31.0))

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                make_series(date(2000, 1, 1), [30.0, bad])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DailyTmaxSeries("m", 1, (date(2000, 1, 1),), (30.0, 31.0))


class TestCountHotDays:
    def test_strict_threshold(self):
        series = make_series(date(2000, 7, 1), [34.9, 35.0, 35.1])
        period = PeriodSpec("p", 2000, 2000)
        assert count_hot_days(series, period, 35.0) == 1

    def test_exactly_at_threshold_never_counts(self):
        series = make_series(date(2000, 7, 1), [35.0] * 60)
        assert count_hot_days(series, PeriodSpec("p", 2000, 2000), 35.0) == 0

    def test_period_filter(self):
        # one warm day per year, 1990 through 2022
        days = tuple(date(y, 7, 15) for y in range(1990, 2023))
        series = DailyTmaxSeries("m", 1, days, (40.0,) * len(days))
        assert count_hot_days(series, BASELINE) == 30
        assert count_hot_days(series, PeriodSpec("one", 2005, 2005)) == 1

    def test_empty_overlap_is_zero(self):
        series = make_series(date(2000, 7, 1), [40.0, 41.0])
        assert count_hot_days(series, PeriodSpec("p", 2050, 2060)) == 0

    def test_non_finite_threshold_rejected(self):
        series = make_series(date(2000, 7, 1), [40.0])
        with pytest.raises(ValueError):
            count_hot_days(series, PeriodSpec("p", 2000, 2000), math.nan)

    @pytest.mark.parametrize("threshold", [30.0, 35.0, 40.0])
    def test_against_explicit_scan(self, threshold):
        rng = random.Random(int(threshold))
        for trial in range(25):
            start = date(rng.randint(1985, 2075), 1, 1)
            values = [rng.uniform(20.0, 45.0) for _ in range(rng.randint(0, 400))]
            series = make_series(start, values)
            for period in (BASELINE, FUTURE_NEAR, FUTURE_FAR):
                expected = sum(
                    1
                    for day, v in zip(series.dates, series.tmax)
                    if period.start_year <= day.year <= period.end_year and v > threshold
                )
                assert count_hot_days(series, period, threshold) == expected


class TestProfilesAndDeltas:
    def test_profile_from_node_series(self):
        period = PeriodSpec("p", 2000, 2000)
        series = {
            1: make_series(date(2000, 7, 1), [36.0, 36.0, 30.0], node_id=1),
            2: make_series(date(2000, 7, 1), [30.0], node_id=2),
        }
        profile = build_hot_day_profile(series, period)
        assert profile.counts == {1: 2, 2: 0}
        assert profile.model == "m1"

    def test_mixed_models_rejected(self):
        period = PeriodSpec("p", 2000, 2000)
        series = {
            1: make_series(date(2000, 7, 1), [36.0], model="a", node_id=1),
            2: make_series(date(2000, 7, 1), [36.0], model="b", node_id=2),
        }
        with pytest.raises(ValueError, match="share one model"):
            build_hot_day_profile(series, period)

    def test_count_bounds_enforced(self):
        period = PeriodSpec("p", 2000, 2000)  # 366 days
        with pytest.raises(ValueError):
            HotDayProfile("m", period, {1: 367})
        with pytest.raises(ValueError):
            HotDayProfile("m", period, {1: -1})

    def test_delta_subtracts_baseline(self):
        period_b = PeriodSpec("b", 2000, 2000)
        period_f = PeriodSpec("f", 2050, 2050)
        base = HotDayProfile("m", period_b, {1: 10, 2: 7})
        future = HotDayProfile("m", period_f, {1: 25, 2: 3})
        assert hot_day_delta(future, base) == {1: 15, 2: -4}

    def test_delta_mismatches_rejected(self):
        period = PeriodSpec("p", 2000, 2000)
        base = HotDayProfile("m", period, {1: 1})
        with pytest.raises(ValueError, match="model"):
            hot_day_delta(HotDayProfile("other", period, {1: 1}), base)
        with pytest.raises(ValueError, match="threshold"):
            hot_day_delta(HotDayProfile("m", period, {1: 1}, threshold_c=40.0), base)
        with pytest.raises(ValueError, match="node sets"):
            hot_day_delta(HotDayProfile("m", period, {1: 1, 2: 1}), base)


class TestEnsemble:
    def test_two_model_stats(self):
        summary = ensemble_stats({"a": {1: 10.0}, "b": {1: 20.0}})
        s = summary.stats[1]
        assert (s.mean, s.min, s.max) == (15.0, 10.0, 20.0)
        assert s.sd == math.sqrt(50.0)  # sample variance over n-1
        assert summary.n_models == 2 and not summary.single_model

    def test_single_model_sd_zero(self):
        summary = ensemble_stats({"only": {1: 12.0, 2: 3.0}})
        assert summary.single_model
        assert all(s.sd == 0.0 for s in summary.stats.values())

    def test_node_set_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different node set"):
            ensemble_stats({"a": {1: 1.0}, "b": {2: 1.0}})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble_stats({})

    def test_against_two_pass_oracle(self):
        import numpy as np

        rng = random.Random(6)
        per_model = {
            f"m{k}": {n: rng.uniform(-40, 120) for n in range(1, 30)} for k in range(8)
        }
        summary = ensemble_stats(per_model)
        for node in range(1, 30):
            column = np.array([per_model[m][node] for m in sorted(per_model)])
            s = summary.stats[node]
            assert abs(s.mean - column.mean()) <= 1e-12 * max(1.0, abs(s.mean))
            assert abs(s.sd - column.std(ddof=1)) <= 1e-9
            assert s.min == column.min() and s.max == column.max()
            assert s.min <= s.mean <= s.max


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_summary_brackets_mean(values):
    s = summarize(values)
    assert min(values) <= s.mean <= max(values)
    assert s.sd >= 0.0


class TestTopKFrequency:
    def rankings(self):
        return [
            rank_mapping({1: 3.0, 2: 2.0, 3: 1.0}, k=3, kind="degree"),
            rank_mapping({2: 9.0, 1: 8.0, 3: 0.0}, k=3, kind="degree"),
        ]

    def test_counts(self):
        assert top_k_frequency(self.rankings(), k=1) == {1: 1, 2: 1, 3: 0}
        assert top_k_frequency(self.rankings(), k=2) == {1: 2, 2: 2, 3: 0}

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            top_k_frequency(self.rankings(), k=4)

    def test_universe_mismatch(self):
        mixed = [
            rank_mapping({1: 1.0, 2: 0.5}, k=2, kind="degree"),
            rank_mapping({1: 1.0, 9: 0.5}, k=2, kind="degree"),
        ]
        with pytest.raises(ValueError, match="universe"):
            top_k_frequency(mixed, k=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top_k_frequency([], k=1)


class TestGeometry:
    def test_same_point_zero(self):
        assert haversine_km(35.0, -90.0, 35.0, -90.0) == 0.0

    def test_one_degree_of_latitude(self):
        # meridian arc: 2 * pi * R / 360
        expected = 2 * math.pi * 6371.0 / 360
        assert haversine_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(expected, rel=1e-9)

    def test_longitude_shrinks_with_latitude(self):
        at_equator = haversine_km(0.0, 0.0, 0.0, 1.0)
        at_60 = haversine_km(60.0, 0.0, 60.0, 1.0)
        assert at_60 < at_equator * 0.51  # cos(60) = 0.5

    def test_symmetry(self):
        assert haversine_km(10.0, 20.0, 30.0, 40.0) == pytest.approx(
            haversine_km(30.0, 40.0, 10.0, 20.0), rel=1e-12
        )


class TestGridMapping:
    GRID = RegularGrid((30.0, 32.0), (-101.0, -99.0))

    def test_axes_must_ascend(self):
        with pytest.raises(ValueError):
            RegularGrid((32.0, 30.0), (-101.0,))
        with pytest.raises(ValueError):
            RegularGrid((30.0, 30.0), (-101.0,))
        with pytest.raises(ValueError):
            RegularGrid((), (-101.0,))

    def test_nearest_cell_wins(self):
        node = make_node(1, lat=31.9, lon=-99.2)
        assert map_nodes_to_grid([node], self.GRID) == {1: (32.0, -99.0)}

    def test_latitude_tie_breaks_low(self):
        # equidistant between the two grid latitudes
        node = make_node(1, lat=31.0, lon=-99.0)
        assert map_nodes_to_grid([node], self.GRID)[1] == (30.0, -99.0)

    def test_longitude_tie_breaks_low(self):
        node = make_node(1, lat=30.0, lon=-100.0)
        assert map_nodes_to_grid([node], self.GRID)[1] == (30.0, -101.0)

    def test_outside_bbox_rejected(self):
        # half-step margin is 1 degree; lat 34 is beyond 32 + 1
        node = make_node(1, lat=34.0, lon=-100.0)
        with pytest.raises(ValueError, match="outside grid"):
            map_nodes_to_grid([node], self.GRID)

    def test_half_step_margin_included(self):
        node = make_node(1, lat=32.9, lon=-98.1)
        assert map_nodes_to_grid([node], self.GRID)[1] == (32.0, -99.0)


class TestSeriesCsv:
    def test_round_trip_sorts_dates(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "model,node_id,date,tmax_c\n"
            "m1,1,2000-07-02,36.5\n"
            "m1,1,2000-07-01,30.0\n"
            "m1,2,2000-07-01,31.25\n"
        )
        series = read_series_csv([path])
        assert set(series) == {("m1", 1), ("m1", 2)}
        assert series[("m1", 1)].dates == (date(2000, 7, 1), date(2000, 7, 2))
        assert series[("m1", 1)].tmax == (30.0, 36.5)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("model,node,date,tmax\nm1,1,2000-07-01,30.0\n")
        with pytest.raises(DataError, match=r"series\.csv:1"):
            read_series_csv([path])

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "model,node_id,date,tmax_c\nm1,1,2000-07-01,30.0\nm1,one,2000-07-02,30.0\n"
        )
        with pytest.raises(DataError, match=r"series\.csv:3"):
            read_series_csv([path])

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "model,node_id,date,tmax_c\nm1,1,2000-07-01,30.0\nm1,1,2000-07-01,31.0\n"
        )
        with pytest.raises(DataError, match="strictly increasing"):
            read_series_csv([path])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_series_csv([tmp_path / "absent.csv"])


class TestGriddedCsv:
    def test_grid_join(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "model,lat,lon,date,tmax_c\n"
            "m1,30.0,-100.0,2000-07-01,36.0\n"
            "m1,30.0,-98.0,2000-07-01,30.0\n"
            "m1,32.0,-100.0,2000-07-01,31.0\n"
            "m1,32.0,-98.0,2000-07-01,32.0\n"
        )
        grid, cells = read_gridded_series_csv([path])
        assert grid == RegularGrid((30.0, 32.0), (-100.0, -98.0))
        node = make_node(7, lat=30.2, lon=-99.9)
        series = node_series_from_grid([node], grid, cells)
        assert series[("m1", 7)].tmax == (36.0,)

    def test_missing_cell_for_model(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "model,lat,lon,date,tmax_c\n"
            "m1,30.0,-100.0,2000-07-01,36.0\n"
            "m2,32.0,-100.0,2000-07-01,30.0\n"
        )
        grid, cells = read_gridded_series_csv([path])
        node = make_node(7, lat=30.0, lon=-100.0)
        with pytest.raises(DataError, match="no series for model"):
            node_series_from_grid([node], grid, cells)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("model,lat,lon,date,tmax_c\n")
        with pytest.raises(DataError, match=r"grid\.csv: grid axes must be non-empty"):
            read_gridded_series_csv([path])


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        period = PeriodSpec("p", 2000, 2000)
        profiles = [
            HotDayProfile("a", period, {1: 3, 2: 0}),
            HotDayProfile("b", period, {1: 9, 2: 4}),
        ]
        path = tmp_path / "profiles.csv"
        write_profiles_csv(profiles, path)
        back = read_profiles_csv(path, {"p": period})
        assert back == profiles

    def test_unknown_period_label(self, tmp_path):
        path = tmp_path / "profiles.csv"
        path.write_text("model,period_label,node_id,hot_days,threshold_c\nm,zap,1,3,35.0\n")
        with pytest.raises(DataError, match="unknown period label 'zap'"):
            read_profiles_csv(path, {"p": PeriodSpec("p", 2000, 2000)})

    @pytest.mark.parametrize("count", [-1, 367])
    def test_hot_days_outside_period_rejected(self, tmp_path, count):
        path = tmp_path / "profiles.csv"
        path.write_text(
            "model,period_label,node_id,hot_days,threshold_c\n"
            f"m,p,1,3,35.0\nm,p,2,{count},35.0\n"
        )
        message = rf"profiles\.csv:3: {count} hot days outside \[0, 366\]"
        with pytest.raises(DataError, match=message):
            read_profiles_csv(path, {"p": PeriodSpec("p", 2000, 2000)})


class TestDeltaCsv:
    def test_round_trip(self, tmp_path):
        deltas = {"a": {1: 5, 2: -3}, "b": {1: 0, 2: 11}}
        path = tmp_path / "deltas.csv"
        write_delta_csv(deltas, path)
        assert read_delta_csv(path) == deltas

    def test_header_checked(self, tmp_path):
        path = tmp_path / "deltas.csv"
        path.write_text("model,node,delta\nm,1,2\n")
        with pytest.raises(DataError, match=r"deltas\.csv:1"):
            read_delta_csv(path)


class TestEnsembleCsv:
    def test_layout_and_float_repr(self, tmp_path):
        summary = EnsembleSummary(
            "delta_hot_days",
            {2: summarize([1.0, 2.0]), 1: summarize([0.25, 0.75])},
            n_models=2,
        )
        path = tmp_path / "ens.csv"
        write_ensemble_csv(summary, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "node_id,mean,sd,min,max,n_models"
        assert lines[1].startswith("1,0.5,")  # keys sorted
        assert lines[2].split(",")[1] == "1.5"

    def test_custom_key_name(self, tmp_path):
        summary = EnsembleSummary("scf", {0: summarize([1.0])}, n_models=1)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(summary, path, key_name="step")
        assert path.read_text().splitlines()[0].startswith("step,")
