import errno
import math
import multiprocessing
import os
import random
import tempfile
import tracemalloc
from concurrent import futures
from contextlib import nullcontext
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DailyTmaxSeries,
    count_hot_days,
    counted_in_ranges,
    make_node,
    oracle_read_series,
)
from freight_resilience import tables
from freight_resilience.climate import (
    BASELINE,
    FUTURE_FAR,
    FUTURE_NEAR,
    HotDayProfile,
    PeriodSpec,
    RegularGrid,
    count_gridded_series_csv,
    count_series_csv,
    ensemble_stats,
    haversine_km,
    hot_day_delta,
    map_nodes_to_grid,
    read_profiles_csv,
    summarize,
    top_k_frequency,
    write_ensemble_csv,
    write_profiles_csv,
)
from freight_resilience.errors import DataError


def both(count, *args, range_bytes=16):
    """``count(*args)`` in one process and over byte ranges of at most about
    ``range_bytes`` in 2 worker processes (``args[0]`` holds the paths).
    Both must return the same counts in the same key order, or raise the
    same error text, which is raised again. Returns the counts and whether
    the workers' counts were used."""
    outcomes = []
    for pooled in (False, True):
        if pooled:
            block = counted_in_ranges(args[0], range_bytes)
        else:
            block = mock.patch.object(tables, "_SERIAL_BELOW_BYTES", math.inf)
        with block as returns:
            try:
                outcomes.append(list(count(*args).items()))
            except (DataError, ValueError) as exc:
                outcomes.append(exc)
    serial, split = outcomes
    if isinstance(serial, Exception):
        assert (type(split), str(split)) == (type(serial), str(serial))
        raise serial
    assert split == serial
    return dict(serial), bool(returns) and returns[-1] is not None


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

    @pytest.mark.parametrize("start, end", [(0, 2000), (-5, 10), (2000, 9999), (1, 10**6)])
    def test_years_beyond_the_calendar_rejected(self, start, end):
        with pytest.raises(ValueError, match=r"need 1 <= start_year <= end_year <= 9998"):
            PeriodSpec("bad", start, end)

    def test_calendar_edge_years_accepted(self):
        assert PeriodSpec("edge", 1, 9998).n_days() == (date(9999, 1, 1) - date(1, 1, 1)).days


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
    def test_profile_from_node_series(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "model,node_id,date,tmax_c\n"
            "m1,1,2000-07-01,36.0\nm1,1,2000-07-02,36.0\nm1,1,2000-07-03,30.0\n"
            "m1,2,2000-07-01,30.0\n"
        )
        period = PeriodSpec("p", 2000, 2000)
        counts = count_series_csv([path], [period])
        assert counts == {("m1", 1): (2,), ("m1", 2): (0,)}

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
        s = ensemble_stats({"a": {1: 10.0}, "b": {1: 20.0}})[1]
        assert (s.mean, s.min, s.max) == (15.0, 10.0, 20.0)
        assert s.sd == math.sqrt(50.0)  # sample variance over n-1

    def test_single_model_sd_zero(self):
        stats = ensemble_stats({"only": {1: 12, 2: 3}})
        assert list(stats) == [1, 2]
        assert all(s.sd == 0.0 and s.mean == s.min == s.max for s in stats.values())
        assert all(type(s.min) is float for s in stats.values())  # int counts are floated

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
        stats = ensemble_stats(per_model)
        for node in range(1, 30):
            column = np.array([per_model[m][node] for m in sorted(per_model)])
            s = stats[node]
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
        return [(1, 2, 3), (2, 1, 3)]

    def test_counts(self):
        assert top_k_frequency(self.rankings(), k=1) == {1: 1, 2: 1, 3: 0}
        assert top_k_frequency(self.rankings(), k=2) == {1: 2, 2: 2, 3: 0}

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            top_k_frequency(self.rankings(), k=4)

    def test_universe_mismatch(self):
        mixed = [(1, 2), (1, 9)]
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


TWO_PERIODS = (PeriodSpec("p", 2000, 2000), PeriodSpec("q", 2000, 2001))


class TestSeriesCsv:
    def test_unsorted_rows_counted(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "model,node_id,date,tmax_c\n"
            "m1,1,2001-07-02,36.5\n"
            "m1,1,2000-07-01,30.0\n"
            "m1,2,2000-07-01,31.25\n"
            "m1,1,2000-07-02,40.0\n"
        )
        counts, pooled = both(count_series_csv, [path], TWO_PERIODS)
        assert counts == {("m1", 1): (1, 2), ("m1", 2): (0, 0)}
        assert pooled

    def test_series_split_across_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("model,node_id,date,tmax_c\nm1,1,2000-07-01,36.0\n")
        b.write_text("model,node_id,date,tmax_c\nm1,01,2001-07-01,36.0\nm1,1,2002-07-01,36.0\n")
        assert both(count_series_csv, [a, b], TWO_PERIODS) == ({("m1", 1): (1, 2)}, True)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("model,node,date,tmax\nm1,1,2000-07-01,30.0\n")
        with pytest.raises(DataError, match=r"series\.csv:1"):
            both(count_series_csv, [path], TWO_PERIODS)

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(
            "model,node_id,date,tmax_c\nm1,1,2000-07-01,30.0\nm1,one,2000-07-02,30.0\n"
        )
        with pytest.raises(DataError, match=r"series\.csv:3"):
            both(count_series_csv, [path], TWO_PERIODS)

    def test_duplicate_date_rejected(self, tmp_path):
        # a repeat is caught in any year, after rows from other years,
        # and when the two rows spell the node id differently
        path = tmp_path / "series.csv"
        for first, second in [
            ("m1,1,2000-07-01,30.0", "m1,1,2000-07-01,31.0"),
            ("m1,1,2000-07-01,30.0", "m1,01,2000-07-01,31.0"),
            ("m1,1,1990-01-01,30.0\nm1,1,2030-12-31,30.0", "m1,1,1990-01-01,31.0"),
            ("m1,1,2030-12-31,30.0\nm1,1,1990-01-01,30.0", "m1,1,2030-12-31,31.0"),
        ]:
            path.write_text(f"model,node_id,date,tmax_c\n{first}\n{second}\n")
            line = 2 + first.count("\n") + 1
            with pytest.raises(DataError, match=rf"series\.csv:{line}: date \S+ repeated"):
                both(count_series_csv, [path], TWO_PERIODS)

    def test_duplicate_date_in_another_file_rejected(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("model,node_id,date,tmax_c\nm1,1,2000-07-01,36.0\n")
        b.write_text("model,node_id,date,tmax_c\nm1,2,2000-07-01,36.0\nm1,1,2000-07-01,36.0\n")
        with pytest.raises(DataError, match=r"b\.csv:3: date 2000-07-01 repeated in series \(.m1., 1\)"):
            both(count_series_csv, [a, b], TWO_PERIODS)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        path = tmp_path / "series.csv"
        path.write_text(
            f"model,node_id,date,tmax_c\nm1,1,2000-07-01,30.0\nm1,1,1950-07-02,{value}\n"
        )
        with pytest.raises(DataError, match=r"series\.csv:3: tmax \S+ is not finite"):
            both(count_series_csv, [path], TWO_PERIODS)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            both(count_series_csv, [tmp_path / "absent.csv"], TWO_PERIODS)

    def test_non_finite_threshold_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            both(count_series_csv, [tmp_path / "absent.csv"], TWO_PERIODS, math.inf)

    def test_memory_independent_of_rows(self, tmp_path):
        # 40 series x 10 years = 146,120 rows; holding them as dates and
        # floats would take about 19 MB at 130 B per row. One process
        # counts them, so this bounds the loop that each worker runs.
        path = tmp_path / "series.csv"
        first = date(2000, 1, 1)
        days = [(first + timedelta(days=k)).isoformat() for k in range(3653)]
        with path.open("w") as fh:
            fh.write("model,node_id,date,tmax_c\n")
            for node in range(1, 41):
                fh.writelines(f"m1,{node},{d},{30 + (k * node) % 11}.5\n" for k, d in enumerate(days))
        tracemalloc.start()
        try:
            periods = (BASELINE, PeriodSpec("p", 2000, 2004))
            with mock.patch.object(tables, "_SERIAL_BELOW_BYTES", math.inf):
                counts = count_series_csv([path], periods, 35.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts) == 40
        assert peak < 2 * 2**20, f"peak traced allocation {peak / 2**20:.2f} MB"


SERIES_HEADER = "model,node_id,date,tmax_c\n"
# two series of 30 days; days 5-8, 14-17 and 23-26 are hot (30 + day % 9 + 0.5)
SERIES_ROWS = "".join(
    f"m1,{node},2000-07-{day:02},{30 + day % 9}.5\n" for node in (1, 2) for day in range(1, 31)
)
SERIES_COUNTS = {("m1", 1): (12, 12), ("m1", 2): (12, 12)}


def exit_in_worker(args):
    """A task that ends its worker process, as an out-of-memory kill would."""
    os._exit(1)


class TestSplitCount:
    """Files that are counted over byte ranges, or that fall back to one
    process, give the counts or the error of one process."""

    @pytest.mark.parametrize(
        "text, pooled",
        [
            (SERIES_HEADER + SERIES_ROWS, True),
            (SERIES_HEADER.replace("\n", "\r\n") + SERIES_ROWS.replace("\n", "\r\n"), True),
            ("\ufeff" + SERIES_HEADER + SERIES_ROWS, True),
            (SERIES_HEADER + SERIES_ROWS.replace("\n", "\n\n").replace("\n\n", "\n", 7), True),
            (SERIES_HEADER + SERIES_ROWS.replace("\n", "\r", 9), True),
            ("\n" + SERIES_HEADER + SERIES_ROWS, False),
            ((SERIES_HEADER + SERIES_ROWS).replace("\n", "\r"), False),
            (SERIES_HEADER + SERIES_ROWS.replace("m1,2,2000-07-30", '"m1",2,"2000-07-30"'), False),
        ],
        ids=[
            "lf", "crlf", "bom", "blank-lines", "lone-cr-in-rows", "blank-before-header", "lone-cr",
            "quoted",
        ],
    )
    @pytest.mark.parametrize("range_bytes", [16, 200])
    def test_same_counts_split_or_not(self, tmp_path, text, pooled, range_bytes):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        assert both(count_series_csv, [path], TWO_PERIODS, range_bytes=range_bytes) == (
            SERIES_COUNTS,
            pooled,
        )

    def test_quoted_cell_holding_a_line_end(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(SERIES_HEADER + SERIES_ROWS + '"m\n1",3,2000-07-01,36.0\n')
        counts, pooled = both(count_series_csv, [path], TWO_PERIODS)
        assert counts == {**SERIES_COUNTS, ("m\n1", 3): (1, 1)}
        assert not pooled

    def test_byte_not_utf8_in_a_later_range(self, tmp_path):
        path = tmp_path / "series.csv"
        rows = SERIES_ROWS.encode().splitlines(keepends=True)
        rows[40] = rows[40].replace(b"m1", b"m\xff")
        path.write_bytes(SERIES_HEADER.encode() + b"".join(rows))
        with pytest.raises(DataError, match=r"series\.csv:42: not valid UTF-8"):
            both(count_series_csv, [path], TWO_PERIODS, range_bytes=200)

    @pytest.mark.parametrize("range_bytes", [16, 200])
    def test_date_repeated_in_another_range(self, tmp_path, range_bytes):
        # lines 2 and 62 are 1,200 bytes apart, in different ranges: only
        # the merge of the workers' counts sees the repeat
        path = tmp_path / "series.csv"
        path.write_text(SERIES_HEADER + SERIES_ROWS + "m1,1,2000-07-01,20.0\n")
        message = r"series\.csv:62: date 2000-07-01 repeated in series \(.m1., 1\)"
        with pytest.raises(DataError, match=message):
            both(count_series_csv, [path], TWO_PERIODS, range_bytes=range_bytes)

    def test_date_repeated_in_another_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(SERIES_HEADER + SERIES_ROWS)
        b.write_text(SERIES_HEADER + "m1,3,2000-07-01,20.0\n" + SERIES_ROWS[-21:])
        message = r"b\.csv:3: date 2000-07-30 repeated in series \(.m1., 2\)"
        with pytest.raises(DataError, match=message):
            both(count_series_csv, [a, b], TWO_PERIODS, range_bytes=200)

    def test_no_child_process_outlives_a_count(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(SERIES_HEADER + SERIES_ROWS)
        with counted_in_ranges([path], 64) as returns:
            assert count_series_csv([path], TWO_PERIODS) == SERIES_COUNTS
            assert returns[0] is not None
            assert multiprocessing.active_children() == []
            for fault in ("m1,1,2000-07-31,oops\n", "m1,1,2000-07-01,20.0\n"):
                path.write_text(SERIES_HEADER + SERIES_ROWS + fault)
                with pytest.raises(DataError, match=r"series\.csv:62: "):
                    count_series_csv([path], TWO_PERIODS)
                assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "pool, task",
        [
            (mock.Mock(side_effect=OSError(errno.EAGAIN, "fork failed")), None),
            (mock.Mock(side_effect=ImportError("no semaphores")), None),
            (None, exit_in_worker),
        ],
        ids=["pool-not-started", "no-semaphores", "worker-killed"],
    )
    def test_pool_failure_counts_in_one_process(self, tmp_path, pool, task):
        path = tmp_path / "series.csv"
        patches = [
            mock.patch.object(futures, "ProcessPoolExecutor", pool) if pool else nullcontext(),
            mock.patch.object(tables, "_run", task) if task else nullcontext(),
        ]
        path.write_text(SERIES_HEADER + SERIES_ROWS)
        with patches[0], patches[1], counted_in_ranges([path], 64) as returns:
            assert count_series_csv([path], TWO_PERIODS) == SERIES_COUNTS
            path.write_text(SERIES_HEADER + SERIES_ROWS + "m1,1,2000-07-31,oops\n")
            with pytest.raises(DataError, match=r"series\.csv:62: could not convert"):
                count_series_csv([path], TWO_PERIODS)
        assert returns == [None, None]
        assert multiprocessing.active_children() == []

    def test_at_most_two_workers(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(SERIES_HEADER + SERIES_ROWS)
        pool = mock.Mock(wraps=futures.ProcessPoolExecutor)
        with (
            mock.patch.object(os, "sched_getaffinity", return_value=set(range(8)), create=True),
            mock.patch.object(tables, "_SERIAL_BELOW_BYTES", 0),
            mock.patch.object(futures, "ProcessPoolExecutor", pool),
        ):
            assert count_series_csv([path], TWO_PERIODS) == SERIES_COUNTS
        assert pool.call_args.args == (2,)


GRID_CSV = (
    "model,lat,lon,date,tmax_c\n"
    "m1,30.0,-100.0,2000-07-01,36.0\n"
    "m1,30.0,-98.0,2000-07-01,30.0\n"
    "m1,32.0,-100.0,2000-07-01,31.0\n"
    "m1,32.0,-98.0,2000-07-01,32.0\n"
)


class TestGriddedCsv:
    def test_grid_join(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(GRID_CSV)
        nodes = [make_node(7, lat=30.2, lon=-99.9), make_node(8, lat=31.9, lon=-98.0)]
        counts, pooled = both(count_gridded_series_csv, [path], nodes, TWO_PERIODS)
        assert counts == {("m1", 7): (1, 1), ("m1", 8): (0, 0)}
        assert pooled

    def test_missing_cell_for_model(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "model,lat,lon,date,tmax_c\n"
            "m1,30.0,-100.0,2000-07-01,36.0\n"
            "m2,32.0,-100.0,2000-07-01,30.0\n"
        )
        node = make_node(7, lat=30.0, lon=-100.0)
        with pytest.raises(DataError, match="no series for model"):
            both(count_gridded_series_csv, [path], [node], TWO_PERIODS)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("model,lat,lon,date,tmax_c\n")
        with pytest.raises(DataError, match=r"grid\.csv: grid axes must be non-empty"):
            both(count_gridded_series_csv, [path], [], TWO_PERIODS)

    def test_node_outside_the_grid_names_the_files(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(GRID_CSV)
        node = make_node(7, lat=34.0, lon=-100.0)
        with pytest.raises(DataError, match=r"grid\.csv: node 7 at \(34.0, -100.0\) outside grid"):
            both(count_gridded_series_csv, [path], [node], TWO_PERIODS)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("m1,32.0,-98.0,2000-07-01,33.0", r"date 2000-07-01 repeated in series \(.m1., 32.0, -98.0\)"),
            ("m1,32.0,-98.0,2000-07-02,nan", "tmax nan is not finite"),
            ("m1,nan,-98.0,2000-07-02,30.0", r"cell \(nan, -98.0\) is not finite"),
        ],
    )
    def test_bad_value_in_unmapped_cell_names_its_line(self, tmp_path, row, message):
        # no node maps to (32, -98), and the fault is still reported
        path = tmp_path / "grid.csv"
        path.write_text(GRID_CSV + row + "\n")
        with pytest.raises(DataError, match=rf"grid\.csv:6: {message}"):
            both(count_gridded_series_csv, [path], [], TWO_PERIODS)


class TestFaultsInsideRuns:
    """The count keeps a series and a year in locals while consecutive rows
    share them; a fault inside such a run is named at its row, in one
    process and over byte ranges alike."""

    @pytest.mark.parametrize(
        "fault, got",
        [("m1,1,2000-07-03,30.5,x", 5), ("m1,1,2000-07-03", 3)],
        ids=["cell-too-many", "cell-too-few"],
    )
    @pytest.mark.parametrize("range_bytes", [16, 200])
    def test_row_of_the_wrong_width(self, tmp_path, fault, got, range_bytes):
        # line 4 is inside node 1's run of July 2000, its key cells unchanged
        rows = SERIES_ROWS.splitlines(keepends=True)
        rows[2] = fault + "\n"
        path = tmp_path / "series.csv"
        path.write_text(SERIES_HEADER + "".join(rows))
        with pytest.raises(DataError, match=rf"series\.csv:4: expected 4 fields, got {got}"):
            both(count_series_csv, [path], TWO_PERIODS, range_bytes=range_bytes)

    def test_grid_row_of_the_wrong_width(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(GRID_CSV + "m1,32.0,-98.0,2000-07-02,33.0\nm1,32.0,-98.0,2000-07-03\n")
        with pytest.raises(DataError, match=r"grid\.csv:7: expected 5 fields, got 4"):
            both(count_gridded_series_csv, [path], [], TWO_PERIODS)

    @pytest.mark.parametrize(
        "between",
        ["m1,2,2000-07-01,30.0", "m2,1,2000-07-01,30.0", "m1,1,2001-07-01,30.0"],
        ids=["other-node", "other-model", "other-year"],
    )
    def test_date_repeated_from_an_earlier_run(self, tmp_path, between):
        # lines 2-3 and 5-6 are two runs of one series and year
        path = tmp_path / "series.csv"
        path.write_text(
            SERIES_HEADER
            + "m1,1,2000-07-01,30.0\nm1,1,2000-07-02,30.0\n"
            + between
            + "\nm1,1,2000-07-03,30.0\nm1,1,2000-07-02,31.0\n"
        )
        message = r"series\.csv:6: date 2000-07-02 repeated in series \(.m1., 1\)"
        with pytest.raises(DataError, match=message):
            both(count_series_csv, [path], TWO_PERIODS)

    @pytest.mark.parametrize("spelling", ["30.00", "3e1", "+30"])
    def test_grid_cell_spelled_two_ways(self, tmp_path, spelling):
        # the parsed key, not its text, names a series: line 5 repeats the
        # date of line 3 in the same cell
        path = tmp_path / "grid.csv"
        path.write_text(
            "model,lat,lon,date,tmax_c\n"
            "m1,30.0,-100.0,2000-07-01,31.0\n"
            "m1,30.0,-100.0,2000-07-02,31.0\n"
            f"m1,{spelling},-100.0,2000-07-03,31.0\n"
            f"m1,{spelling},-100.0,2000-07-02,31.0\n"
        )
        message = r"grid\.csv:5: date 2000-07-02 repeated in series \(.m1., 30.0, -100.0\)"
        with pytest.raises(DataError, match=message):
            both(count_gridded_series_csv, [path], [], TWO_PERIODS)


# a few years around one leap day, periods drawn inside and around them
YEARS = (1999, 2002)
THRESHOLD = 30.0
ALL_DAYS = [
    date(YEARS[0], 1, 1) + timedelta(days=k)
    for k in range((date(YEARS[1] + 1, 1, 1) - date(YEARS[0], 1, 1)).days)
]
period_st = st.tuples(st.integers(1998, 2003), st.integers(0, 3)).map(
    lambda t: PeriodSpec(f"{t[0]}+{t[1]}", t[0], t[0] + t[1])
)
# values on, just above and just below the threshold, and anywhere
value_st = st.one_of(
    st.sampled_from([THRESHOLD, math.nextafter(THRESHOLD, math.inf), 29.99, 30.01]),
    st.floats(-50, 60),
)
series_st = st.lists(
    st.tuples(st.sampled_from(ALL_DAYS + [date(2000, 2, 29)] * 50), value_st),
    min_size=1,
    max_size=40,
    unique_by=lambda r: r[0],
)


def write_rows(directory: Path, header: str, rows: list[str], cut: int) -> list[Path]:
    """``rows`` split at ``cut`` over two files."""
    paths = [directory / "a.csv", directory / "b.csv"]
    for path, part in zip(paths, (rows[:cut], rows[cut:])):
        path.write_text(header + "".join(part))
    return paths


def draw_order(rows: list[tuple], rng, data) -> list[str]:
    """The texts of ``rows``, ``(series, date, text)`` triples, in an order
    drawn from three: shuffled; sorted, so that each series and year is one
    run of rows; or sorted and cut into shuffled blocks, so that a series
    or a year resumes after other rows."""
    order = data.draw(st.sampled_from(["shuffled", "sorted", "blocks"]))
    rows = sorted(rows)
    if order == "shuffled":
        rng.shuffle(rows)
    elif order == "blocks":
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=8)))
        blocks = [rows[a:b] for a, b in zip([0, *cuts], [*cuts, len(rows)])]
        rng.shuffle(blocks)
        rows = [row for block in blocks for row in block]
    return [text for _, _, text in rows]


class TestCountersMatchOracle:
    """The streaming counters against ``count_hot_days`` over whole
    in-memory series, on rows in a drawn order (``draw_order``) split
    across two files, in one process and over byte ranges in two. A range
    of at most 20 bytes holds one row, and then the workers' counts must
    be the ones returned."""

    @settings(max_examples=150, deadline=None)
    @given(
        series=st.dictionaries(
            st.tuples(st.sampled_from(["mA", "mB"]), st.integers(1, 4)), series_st, min_size=1
        ),
        periods=st.lists(period_st, min_size=1, max_size=3),
        rng=st.randoms(use_true_random=False),
        data=st.data(),
    )
    def test_per_node_series(self, series, periods, rng, data):
        rows = draw_order(
            [
                ((model, node), day, f"{model},{node},{day.isoformat()},{value!r}\n")
                for (model, node), values in series.items()
                for day, value in values
            ],
            rng,
            data,
        )
        cut = data.draw(st.integers(0, len(rows)))
        range_bytes = data.draw(st.integers(1, 400))
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_rows(Path(tmp), "model,node_id,date,tmax_c\n", rows, cut)
            counts, pooled = both(
                count_series_csv, paths, periods, THRESHOLD, range_bytes=range_bytes
            )
            oracle = oracle_read_series(paths)
        assert pooled or len(rows) < 2 or range_bytes > 20
        assert counts.keys() == oracle.keys() == series.keys()
        for key, whole in oracle.items():
            assert counts[key] == tuple(count_hot_days(whole, p, THRESHOLD) for p in periods)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(series_st, min_size=8, max_size=8),
        periods=st.lists(period_st, min_size=1, max_size=3),
        rng=st.randoms(use_true_random=False),
        data=st.data(),
    )
    def test_gridded_series(self, values, periods, rng, data):
        # 2 models x a 2 x 2 grid; several nodes share each cell
        cells = [(m, lat, lon) for m in ("mA", "mB") for lat in (30.0, 32.0) for lon in (-100.0, -98.0)]
        rows = draw_order(
            [
                ((m, lat, lon), day, f"{m},{lat},{lon},{day.isoformat()},{value!r}\n")
                for (m, lat, lon), cell_values in zip(cells, values)
                for day, value in cell_values
            ],
            rng,
            data,
        )
        cut = data.draw(st.integers(0, len(rows)))
        range_bytes = data.draw(st.integers(1, 400))
        nodes = [
            make_node(i, lat=lat, lon=lon)
            for i, (lat, lon) in enumerate(
                [(29.5, -100.5), (30.4, -99.2), (31.9, -98.1), (32.5, -97.5), (30.9, -97.0)],
                start=1,
            )
        ]
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_rows(Path(tmp), "model,lat,lon,date,tmax_c\n", rows, cut)
            by_node, pooled = both(
                count_gridded_series_csv, paths, nodes, periods, THRESHOLD, range_bytes=range_bytes
            )
        assert pooled or len(rows) < 2 or range_bytes > 20
        nearest = map_nodes_to_grid(nodes, RegularGrid((30.0, 32.0), (-100.0, -98.0)))
        assert by_node.keys() == {(m, node.id) for m in ("mA", "mB") for node in nodes}
        for node in nodes:
            for (m, lat, lon), cell_values in zip(cells, values):
                if (lat, lon) != nearest[node.id]:
                    continue
                days, tmax = zip(*sorted(cell_values))
                whole = DailyTmaxSeries(m, node.id, days, tmax)
                expected = tuple(count_hot_days(whole, p, THRESHOLD) for p in periods)
                assert by_node[(m, node.id)] == expected


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


class TestEnsembleCsv:
    def test_layout_and_float_repr(self, tmp_path):
        stats = {2: summarize([1.0, 2.0]), 1: summarize([0.25, 0.75])}
        path = tmp_path / "ens.csv"
        write_ensemble_csv(stats, 2, path, "node_id")
        lines = path.read_text().splitlines()
        assert lines[0] == "node_id,mean,sd,min,max,n_models"
        assert lines[1].startswith("1,0.5,")  # keys sorted
        assert lines[2].split(",")[1] == "1.5"
        assert all(line.endswith(",2") for line in lines[1:])

    def test_custom_key_name(self, tmp_path):
        path = tmp_path / "ens.csv"
        write_ensemble_csv({0: summarize([1.0])}, 1, path, "step")
        assert path.read_text().splitlines() == [
            "step,mean,sd,min,max,n_models",
            "0,1.0,0.0,1.0,1.0,1",
        ]
