import math
import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from ddoscope import trends
from ddoscope.model import US_PER_S, WeeklySeries
from ddoscope.stats import betainc_reg, t_pvalue_two_sided
from ddoscope.trends import (
    ewma,
    linreg_trend,
    normalize,
    pearson,
    quarterly_correlations,
    spearman,
)

from oracles import (
    AttackEvent,
    date_to_ts,
    events_to_batch,
    oracle_ewma,
    oracle_normalize,
    oracle_pearson,
    oracle_quarterly_correlations,
    oracle_slope,
    oracle_spearman,
    oracle_t_pvalue,
    ts_to_date,
    week_start,
)

MONDAY = date(2019, 1, 7)


def weekly_counts(events, date_range=None, label=""):
    """weekly_counts over AttackEvent rows."""
    return trends.weekly_counts(events_to_batch(events), date_range, label)


def series(values, start=MONDAY, label="x"):
    return WeeklySeries(start, tuple(values), label)


def ev(day, observatory="t"):
    ts = date_to_ts(day) + 3600 * US_PER_S
    return AttackEvent(observatory=observatory, attack_type="RSDoS",
                       target="203.0.113.5/32", start_ts=ts, end_ts=ts + US_PER_S,
                       packets=30)


def rel_err(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


class TestWeeklyCounts:
    def test_no_events_all_zero(self):
        s = weekly_counts([], (MONDAY, MONDAY + timedelta(days=20)))
        assert s.values == (0.0, 0.0, 0.0)

    def test_one_week_mon_to_sun(self):
        events = [ev(MONDAY), ev(MONDAY + timedelta(days=3)), ev(MONDAY + timedelta(days=6))]
        s = weekly_counts(events, (MONDAY, MONDAY + timedelta(days=6)))
        assert s.values == (3.0,)

    def test_event_counted_in_start_week_only(self):
        e = AttackEvent(observatory="t", attack_type="RSDoS", target="203.0.113.5/32",
                        start_ts=date_to_ts(MONDAY + timedelta(days=6)),
                        end_ts=date_to_ts(MONDAY + timedelta(days=9)),
                        packets=30)
        s = weekly_counts([e], (MONDAY, MONDAY + timedelta(days=13)))
        assert s.values == (1.0, 0.0)

    def test_length_is_ceil_days_over_seven(self):
        rng = random.Random(11)
        for _ in range(100):
            days = rng.randint(1, 400)
            end = MONDAY + timedelta(days=days - 1)
            s = weekly_counts([], (MONDAY, end))
            assert len(s.values) == math.ceil(days / 7)

    def test_event_outside_range_errors(self):
        with pytest.raises(ValueError, match="^event 203.0.113.5/32 starts 2019-02-06, "
                                             "outside range 2019-01-07..2019-01-13$"):
            weekly_counts([ev(MONDAY), ev(MONDAY + timedelta(days=30))],
                          (MONDAY, MONDAY + timedelta(days=6)))

    @settings(max_examples=200, deadline=None)
    @given(starts=st.lists(st.integers(0, 3 * 10 ** 13), max_size=30), lead=st.integers(0, 20),
           tail=st.integers(0, 20))
    def test_counts_match_a_loop_over_start_dates(self, starts, lead, tail):
        events = [AttackEvent(observatory="t", attack_type="RA", target="203.0.113.5/32",
                              start_ts=t, end_ts=t, packets=1) for t in starts]
        dates = [ts_to_date(t) for t in starts]
        span = None
        if dates:
            span = (min(dates) - timedelta(days=lead), max(dates) + timedelta(days=tail))
        elif lead:
            span = (MONDAY, MONDAY + timedelta(days=lead))
        if span is None:
            with pytest.raises(ValueError, match="zero events"):
                weekly_counts(events)
            return
        s = weekly_counts(events, span)
        first = week_start(span[0])
        want = [0.0] * ((week_start(span[1]) - first).days // 7 + 1)
        for d in dates:
            want[(week_start(d) - first).days // 7] += 1
        assert s.start_week == first and s.values == tuple(want)
        if lead == tail == 0:
            assert weekly_counts(events) == s


class TestNormalize:
    def test_constant_series(self):
        s = normalize(series([10.0] * 20))
        assert all(v == 1.0 for v in s.values)

    def test_median_five_example(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 10]
        s = normalize(series([float(v) for v in values]))
        assert s.values[-1] == 2.0
        assert s.values[0] == pytest.approx(3 / 5)

    def test_zero_baseline_errors(self):
        with pytest.raises(ValueError, match="median is zero"):
            normalize(series([0.0] * 20))

    def test_too_few_nonnull_errors(self):
        with pytest.raises(ValueError, match="non-null"):
            normalize(series([1.0] * 10 + [None] * 10))

    def test_nulls_skipped_in_baseline_and_propagated(self):
        values = [None, 2.0] + [2.0] * 14 + [None, 8.0]
        s = normalize(series(values))
        assert s.values[0] is None and s.values[-2] is None
        assert s.values[-1] == 4.0

    def test_scale_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            values = [rng.uniform(0.1, 50) for _ in range(rng.randint(15, 60))]
            k = rng.uniform(0.01, 100)
            a = normalize(series(values)).values
            b = normalize(series([k * v for v in values])).values
            assert all(rel_err(x, y) < 1e-12 for x, y in zip(a, b))


class TestEwma:
    def test_constant_fixed_point(self):
        s = ewma(series([7.0] * 10), 12)
        assert all(v == 7.0 for v in s.values)

    def test_two_point_example(self):
        s = ewma(series([0.0, 1.0]), 12)
        assert s.values[0] == 0.0
        assert s.values[1] == pytest.approx(2 / 13, abs=1e-15)

    def test_span_one_is_identity(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert ewma(series(values), 1).values == tuple(values)

    def test_nulls_carry_state(self):
        s = ewma(series([1.0, None, 1.0]), 12)
        assert s.values == (1.0, None, 1.0)

    def test_bounded_by_input_extremes(self):
        rng = random.Random(9)
        for _ in range(100):
            values = [rng.uniform(-5, 20) for _ in range(rng.randint(2, 80))]
            out = ewma(series([abs(v) for v in values]), rng.uniform(1, 30)).values
            assert min(abs(v) for v in values) - 1e-12 <= min(out)
            assert max(out) <= max(abs(v) for v in values) + 1e-12


class TestLinregTrend:
    def test_flat_is_steady(self):
        t = linreg_trend(series([1.0] * 30))
        assert t.slope == 0.0 and t.trend_class == "Steady"

    def test_exact_line_increasing(self):
        t = linreg_trend(series([1 + 0.001 * i for i in range(209)]))
        assert t.slope == pytest.approx(0.001, rel=1e-12)
        assert t.net_change_4y == pytest.approx(0.208, rel=1e-12)
        assert t.trend_class == "Increasing" and t.marker == "▲"

    def test_exact_line_decreasing(self):
        t = linreg_trend(series([1 - 0.0005 * i for i in range(209)]))
        assert t.net_change_4y == pytest.approx(-0.104, rel=1e-12)
        assert t.trend_class == "Decreasing" and t.marker == "▼"

    def test_minimum_points(self):
        assert linreg_trend(series([1.0, None, 4.0, None])).slope == pytest.approx(1.5)
        with pytest.raises(ValueError, match=r"^regression window holds 1 points; need >= 2$"):
            linreg_trend(series([8.0]))
        with pytest.raises(ValueError, match=r"^regression window holds 1 points; need >= 2$"):
            linreg_trend(series([None, 8.0, None]))

    def test_classification_invariant_under_renormalization(self):
        rng = random.Random(31)
        for _ in range(50):
            values = [rng.uniform(0.5, 3) for _ in range(40)]
            s = normalize(series(values))
            again = normalize(s)
            assert linreg_trend(s).trend_class == linreg_trend(again).trend_class


class TestSpearman:
    def test_identity_and_reversal(self):
        a = series([float(i) for i in range(10)])
        b = series([float(9 - i) for i in range(10)])
        assert spearman(a, a).rho == 1.0
        assert spearman(a, a).p_value == 0.0
        assert spearman(a, b).rho == -1.0

    def test_hand_computed_rho(self):
        a = series([1.0, 2.0, 3.0, 4.0, 5.0])
        b = series([2.0, 1.0, 4.0, 3.0, 5.0])
        r = spearman(a, b)
        assert r.rho == pytest.approx(0.8, abs=1e-12)

    def test_constant_errors(self):
        with pytest.raises(ValueError, match="constant"):
            spearman(series([1.0] * 5), series([1.0, 2.0, 3.0, 4.0, 5.0]))

    def test_monotone_transform_invariance(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(5, 60)
            xs = [rng.uniform(0, 10) for _ in range(n)]
            ys = [rng.uniform(0, 10) for _ in range(n)]
            base = spearman(series(xs), series(ys))
            warped = spearman(
                series([math.exp(x / 3) for x in xs]),
                series([5.0 + 2.0 * y for y in ys]),
            )
            assert base.rho == warped.rho
            assert base.p_value == warped.p_value

    def test_nulls_skipped_pairwise(self):
        a = series([1.0, None, 3.0, 4.0, 5.0])
        b = series([1.0, 2.0, None, 4.0, 5.0])
        assert spearman(a, b).n == 3

    @pytest.mark.parametrize("b, pairs", [([2.0, None, 4.0], 2), ([None, None, None], 0)])
    def test_fewer_than_three_pairs(self, b, pairs):
        with pytest.raises(ValueError, match=rf"^{pairs} paired samples; need >= 3$"):
            spearman(series([1.0, 2.0, 3.0]), series(b))

    def test_significance_threshold(self):
        # monotone 6-point series: rho 1, p 0; weak 4-point: insignificant
        strong = spearman(series([1.0, 2, 3, 4, 5, 6]), series([2.0, 3, 5, 7, 8, 9]))
        assert strong.significant
        weak = spearman(series([1.0, 2, 3, 4]), series([2.0, 1, 4, 3]))
        assert not weak.significant


class TestPearson:
    def test_exact_correlations(self):
        a = series([1.0, 2.0, 3.0])
        assert pearson(a, a).rho == pytest.approx(1.0, abs=1e-14)
        # series values are non-negative, so negate via an affine flip
        neg = series([10.0 - v for v in (1.0, 2.0, 3.0)])
        assert pearson(a, neg).rho == pytest.approx(-1.0, abs=1e-14)
        assert pearson(a, neg).p_value == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_example(self):
        r = pearson(series([1.0, 2.0, 3.0]), series([1.0, 2.0, 4.0]))
        assert r.rho == pytest.approx(0.9819805060619657, abs=1e-9)
        assert round(r.rho, 5) == 0.98198


class TestOracleEquivalence:
    def test_normalize_vs_oracle(self):
        rng = random.Random(100)
        for _ in range(500):
            n = rng.randint(15, 80)
            values = [rng.uniform(0.01, 100) for _ in range(n)]
            got = normalize(series(values)).values
            want = oracle_normalize(values)
            assert all(rel_err(a, b) <= 1e-9 for a, b in zip(got, want))

    def test_ewma_vs_oracle(self):
        rng = random.Random(101)
        for _ in range(500):
            n = rng.randint(1, 80)
            values = [None if rng.random() < 0.1 else rng.uniform(0, 100) for _ in range(n)]
            span = rng.uniform(1, 30)
            got = ewma(series(values), span).values
            want = oracle_ewma(values, span)
            for a, b in zip(got, want):
                assert (a is None) == (b is None)
                if a is not None:
                    assert rel_err(a, b) <= 1e-9

    def test_linreg_vs_polyfit(self):
        rng = random.Random(102)
        for _ in range(300):
            n = rng.randint(2, 100)
            values = [rng.uniform(0, 10) for _ in range(n)]
            if len(set(values)) == 1:
                values[0] += 1.0
            got = linreg_trend(series(values)).slope
            want = oracle_slope(list(enumerate(values)))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_spearman_vs_scipy(self):
        rng = random.Random(103)
        for _ in range(300):
            n = rng.randint(5, 100)
            xs = [rng.choice([rng.uniform(0, 50), float(rng.randint(0, 5))]) for _ in range(n)]
            ys = [rng.choice([rng.uniform(0, 50), float(rng.randint(0, 5))]) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            got = spearman(series(xs), series(ys))
            rho, p = oracle_spearman(xs, ys)
            assert rel_err(got.rho, rho) <= 1e-9
            assert rel_err(got.p_value, p) <= 1e-9

    def test_pearson_vs_scipy(self):
        rng = random.Random(104)
        for _ in range(300):
            n = rng.randint(3, 100)
            xs = [rng.uniform(0, 50) for _ in range(n)]
            ys = [rng.uniform(0, 50) for _ in range(n)]
            got = pearson(series(xs), series(ys))
            rho, p = oracle_pearson(xs, ys)
            assert rel_err(got.rho, rho) <= 1e-9
            assert rel_err(got.p_value, p) <= 1e-9

    def test_t_pvalue_vs_scipy(self):
        rng = random.Random(105)
        for _ in range(2000):
            t = rng.uniform(-30, 30)
            df = rng.randint(1, 200)
            assert rel_err(t_pvalue_two_sided(t, df), oracle_t_pvalue(t, df)) <= 1e-9

    def test_betainc_bounds(self):
        assert betainc_reg(3, 0.5, 0.0) == 0.0
        assert betainc_reg(3, 0.5, 1.0) == 1.0


class TestQuarterly:
    def test_identical_series_four_quarters(self):
        rng = random.Random(8)
        start = date(2020, 1, 6)  # first Monday of 2020Q1
        values = [rng.uniform(1, 10) for _ in range(52)]
        s = series(values, start=start)
        results = quarterly_correlations(s, s)
        assert len(results) == 4
        for _, r in results:
            assert r is not None and r.rho == 1.0

    def test_18_quarters_over_4_5_years(self):
        rng = random.Random(9)
        start = date(2019, 1, 7)
        n = (date(2023, 6, 26) - start).days // 7 + 1
        s1 = series([rng.uniform(1, 10) for _ in range(n)], start=start)
        s2 = series([rng.uniform(1, 10) for _ in range(n)], start=start)
        results = quarterly_correlations(s1, s2)
        assert len(results) == 18

    def test_short_quarter_yields_null(self):
        start = date(2020, 3, 23)  # two Mondays left in Q1
        s1 = series([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], start=start)
        s2 = series([2.0, 1.0, 4.0, 3.0, 6.0, 5.0], start=start)
        results = quarterly_correlations(s1, s2)
        assert len(results) == 2
        assert results[0][1] is None      # only 2 pairs in 2020Q1
        assert results[1][1] is not None

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), method=st.sampled_from(["spearman", "pearson"]))
    def test_matches_per_quarter_grid_oracle(self, data, method):
        # ties, nulls, constant and empty quarters, and series apart from each other
        values = st.lists(st.none() | st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0, 1e3), max_size=40)
        a, b = (series(data.draw(values), start=date(2019, 12, 30) + timedelta(weeks=data.draw(st.integers(0, 60))))
                for _ in "ab")
        assert quarterly_correlations(a, b, method) == oracle_quarterly_correlations(a, b, method)

    def test_constant_quarter_yields_null(self):
        start = date(2020, 1, 6)
        s1 = series([1.0] * 13 + [1.0, 2.0, 3.0, 4.0], start=start)
        s2 = series([float(i) for i in range(17)], start=start)
        results = quarterly_correlations(s1, s2)
        assert results[0][1] is None
        assert results[1][1] is not None
