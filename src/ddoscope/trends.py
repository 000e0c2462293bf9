"""Weekly time-series machinery: counting, baseline normalization, EWMA
smoothing, regression-based trend classification, and rank/linear
correlation with significance.

Missing weeks are None and are propagated, never imputed; correlation
pairs samples by calendar week and skips nulls pairwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Optional

import numpy as np

from .model import EPOCH, US_PER_DAY, EventBatch, WeeklySeries, format_prefix, quarter_start, week_index, week_monday
from .stats import t_pvalue_two_sided

WEEKS_4Y = 208
TREND_CUTOFF = 0.05          # |net 4-year change| above this is a trend
SIGNIFICANCE_LEVEL = 0.05

_MARKERS = {"Increasing": "▲", "Steady": "◆", "Decreasing": "▼"}


@dataclass(frozen=True)
class TrendSummary:
    """OLS trend of a normalized weekly series, classified on the net
    change over four years (208 weeks)."""

    slope: float
    intercept: float
    n: int

    @property
    def net_change_4y(self) -> float:
        return self.slope * WEEKS_4Y

    @property
    def trend_class(self) -> str:
        if self.net_change_4y > TREND_CUTOFF:
            return "Increasing"
        if self.net_change_4y < -TREND_CUTOFF:
            return "Decreasing"
        return "Steady"

    @property
    def marker(self) -> str:
        return _MARKERS[self.trend_class]


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    p_value: float
    n: int

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation out of range: {self.rho}")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value out of range: {self.p_value}")

    @property
    def significant(self) -> bool:
        return self.p_value <= SIGNIFICANCE_LEVEL


# ---------------------------------------------------------------------------
# Series construction
# ---------------------------------------------------------------------------

def event_span(*batches: EventBatch) -> tuple[date, date]:
    """The first and last UTC day on which an event of `batches` starts."""
    days = np.concatenate([events.start_ts for events in batches]) // US_PER_DAY
    if not len(days):
        raise ValueError("cannot infer a date range from zero events")
    return EPOCH + timedelta(int(days.min())), EPOCH + timedelta(int(days.max()))


def weekly_counts(
    events: EventBatch,
    date_range: Optional[tuple[date, date]] = None,
    label: str = "",
) -> WeeklySeries:
    """Count attacks per ISO week of their start timestamp (UTC).

    An event is counted once, in its start week, no matter how long it
    runs. Without an explicit range the span of the events is used.
    """
    days = events.start_ts // US_PER_DAY
    if date_range is None:
        date_range = event_span(events)
    lo, hi = date_range
    if lo > hi:
        raise ValueError(f"bad date range: {lo} > {hi}")
    first, last = (week_index((d - EPOCH).days) for d in date_range)
    outside = np.flatnonzero((days < (lo - EPOCH).days) | (days > (hi - EPOCH).days))
    if len(outside):
        i = int(outside[0])
        raise ValueError(f"event {format_prefix(int(events.net[i]), int(events.plen[i]))} starts "
                         f"{EPOCH + timedelta(int(days[i]))}, outside range {lo}..{hi}")
    values = np.bincount(week_index(days) - first, minlength=last - first + 1)
    return WeeklySeries(week_monday(first), tuple(values.astype(float).tolist()), label)


def normalize(series: WeeklySeries, baseline_weeks: int = 15) -> WeeklySeries:
    """Divide by the median of the first `baseline_weeks` non-null values."""
    baseline = [v for v in series.values if v is not None][:baseline_weeks]
    if len(baseline) < baseline_weeks:
        raise ValueError(
            f"series has {len(baseline)} non-null values; "
            f"need {baseline_weeks} for the baseline"
        )
    ordered = sorted(baseline)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    if median == 0:
        raise ValueError("baseline median is zero; series cannot be normalized")
    return series.with_values(
        [None if v is None else v / median for v in series.values]
    )


def ewma(series: WeeklySeries, span: float = 12) -> WeeklySeries:
    """Recursive exponentially weighted moving average, alpha = 2/(span+1).

    y_0 = x_0 and y_t = alpha*x_t + (1-alpha)*y_{t-1}. Nulls stay null in
    the output; the smoothed state carries across them.
    """
    if span < 1:
        raise ValueError("span must be >= 1")
    alpha = 2.0 / (span + 1.0)
    state: Optional[float] = None
    out: list[Optional[float]] = []
    for v in series.values:
        if v is None:
            out.append(None)
            continue
        state = v if state is None else alpha * v + (1.0 - alpha) * state
        out.append(state)
    return series.with_values(out)


# ---------------------------------------------------------------------------
# Trends
# ---------------------------------------------------------------------------

def linreg_trend(series: WeeklySeries) -> TrendSummary:
    """Ordinary least-squares slope over the (week index, value) pairs of
    the non-null weeks; needs at least two."""
    pts = [(i, v) for i, v in enumerate(series.values) if v is not None]
    if len(pts) < 2:
        raise ValueError(f"regression window holds {len(pts)} points; need >= 2")
    n = len(pts)
    mx = math.fsum(x for x, _ in pts) / n
    my = math.fsum(y for _, y in pts) / n
    sxx = math.fsum((x - mx) ** 2 for x, _ in pts)
    sxy = math.fsum((x - mx) * (y - my) for x, y in pts)
    if sxx == 0:
        raise ValueError("regression window has zero index variance")
    slope = sxy / sxx
    return TrendSummary(slope=slope, intercept=my - slope * mx, n=n)


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

def _paired(a: WeeklySeries, b: WeeklySeries) -> tuple[list[date], list[float], list[float]]:
    """The weeks both series hold a value for, over the overlapping range,
    and the values of `a` and of `b` in those weeks, in week order."""
    amap = {a.week_date(i): v for i, v in enumerate(a.values)}
    weeks, xs, ys = [], [], []
    for i, bv in enumerate(b.values):
        av = amap.get(b.week_date(i))
        if av is not None and bv is not None:
            weeks.append(b.week_date(i))
            xs.append(av)
            ys.append(bv)
    return weeks, xs, ys


def _ranks(xs: list[float]) -> list[float]:
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0  # average rank for the tie group
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _product_moment(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        raise ValueError("constant series: correlation undefined")
    rho = sxy / (math.sqrt(sxx) * math.sqrt(syy))
    rho = max(-1.0, min(1.0, rho))
    # exactly collinear data must land exactly on +-1 (and then p = 0), but
    # the two square roots can leave it a few ulps short
    if 1.0 - abs(rho) < 5e-15:
        rho = math.copysign(1.0, rho)
    return rho


def _correlate(xs: list[float], ys: list[float]) -> CorrelationResult:
    n = len(xs)
    if n < 3:
        raise ValueError(f"{n} paired samples; need >= 3")
    rho = _product_moment(xs, ys)
    if abs(rho) == 1.0:
        return CorrelationResult(rho=rho, p_value=0.0, n=n)
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return CorrelationResult(rho=rho, p_value=t_pvalue_two_sided(t, n - 2), n=n)


def pearson(a: WeeklySeries, b: WeeklySeries) -> CorrelationResult:
    """Product-moment correlation with a two-sided t-test p-value."""
    _, xs, ys = _paired(a, b)
    return _correlate(xs, ys)


def spearman(a: WeeklySeries, b: WeeklySeries) -> CorrelationResult:
    """Rank correlation: ties get average ranks, rho is the product-moment
    correlation of the rank vectors, p-value from the t approximation
    (exactly 0 at rho = +-1)."""
    _, xs, ys = _paired(a, b)
    return _correlate(_ranks(xs), _ranks(ys))


def quarterly_correlations(
    a: WeeklySeries,
    b: WeeklySeries,
    method: str = "spearman",
) -> list[tuple[date, Optional[CorrelationResult]]]:
    """One correlation per calendar quarter, from the first week either
    series holds to the last, of the pairs `pearson` and `spearman` take.

    Quarters with fewer than 3 pairs, or where either slice is constant,
    yield None.
    """
    rank = {"spearman": _ranks, "pearson": list}[method]
    held = a.weeks() + b.weeks()
    if not held:
        return []
    weeks, xs, ys = _paired(a, b)
    quarters = [quarter_start(week) for week in weeks]
    results: list[tuple[date, Optional[CorrelationResult]]] = []
    q, last_q = quarter_start(min(held)), quarter_start(max(held))
    while q <= last_q:
        lo, hi = bisect_left(quarters, q), bisect_right(quarters, q)
        try:
            results.append((q, _correlate(rank(xs[lo:hi]), rank(ys[lo:hi]))))
        except ValueError:
            results.append((q, None))
        q = quarter_start(q + timedelta(days=93))
    return results
