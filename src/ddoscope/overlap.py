"""Cross-observatory target analyses.

Victims are identified by (date, IP) tuples: either the attack start date
or one tuple per day the attack touched. All dates are UTC. Set systems
over up to 10 observatories support exclusive-intersection (UpSet) counts,
per-day overlap time series, new-vs-recurring decomposition, origin-AS
attribution, and privacy-preserving confirmation against salted hashes.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterable, Optional

from .model import (
    AttackEvent,
    RoutedPrefixTable,
    TargetTuple,
    WeeklySeries,
    ip_to_int,
    ts_to_date,
    week_start,
)

MAX_OBSERVATORIES = 10
UNROUTED = "unrouted"


@dataclass(frozen=True)
class TargetSetSystem:
    """One deduplicated target-tuple set per observatory, order-preserving."""

    observatories: tuple[str, ...]
    sets: tuple[frozenset[TargetTuple], ...]

    def __post_init__(self):
        if len(set(self.observatories)) != len(self.observatories):
            raise ValueError("observatory labels must be unique")
        if len(self.observatories) != len(self.sets):
            raise ValueError("one set per observatory required")
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))

    @classmethod
    def from_dict(cls, sets: dict[str, Iterable[TargetTuple]]) -> "TargetSetSystem":
        labels = tuple(sets)
        return cls(labels, tuple(frozenset(sets[l]) for l in labels))


def build_targets(events: Iterable[AttackEvent], mode: str = "start_date") -> set[TargetTuple]:
    """Victim tuples for a batch of events.

    start_date: one (UTC start date, host IP) tuple per event.
    per_day:    one tuple per host per day the event's span touches.
    Prefix-target events contribute their recorded member hosts.
    """
    if mode not in ("start_date", "per_day"):
        raise ValueError(f"unknown target mode {mode!r}")
    tuples: set[TargetTuple] = set()
    for e in events:
        hosts = e.host_targets()
        if mode == "start_date":
            d = ts_to_date(e.start_ts)
            tuples.update(TargetTuple(d, ip) for ip in hosts)
        else:
            d = ts_to_date(e.start_ts)
            last = ts_to_date(e.end_ts)
            while d <= last:
                tuples.update(TargetTuple(d, ip) for ip in hosts)
                d += timedelta(days=1)
    return tuples


def _exclusive(system: TargetSetSystem) -> dict[frozenset[str], list[TargetTuple]]:
    """For every non-empty observatory subset, in bitmask order, the tuples
    that exactly its observatories saw. The lists partition the union."""
    n = len(system.observatories)
    if n < 1:
        raise ValueError("need at least one observatory")
    if n > MAX_OBSERVATORIES:
        raise ValueError(f"{n} observatories exceed the {MAX_OBSERVATORIES}-set limit")
    members: dict[int, list[TargetTuple]] = {}
    for t in set().union(*system.sets):
        mask = 0
        for i, s in enumerate(system.sets):
            if t in s:
                mask |= 1 << i
        members.setdefault(mask, []).append(t)
    return {frozenset(system.observatories[i] for i in range(n) if mask & (1 << i)): members.get(mask, [])
            for mask in range(1, 1 << n)}


def upset_exclusive(system: TargetSetSystem) -> dict[frozenset[str], int]:
    """Exclusive-intersection counts for every non-empty observatory subset.

    A tuple counts toward exactly one subset: the observatories that saw
    it. Counts therefore partition the union, and all 2^n - 1 subsets are
    present in the result (zeros included).
    """
    return {subset: len(tuples) for subset, tuples in _exclusive(system).items()}


def overlap_timeseries(
    a: set[TargetTuple],
    b: set[TargetTuple],
    labels: tuple[str, str] = ("a", "b"),
) -> tuple[WeeklySeries, WeeklySeries, WeeklySeries]:
    """Weekly sums of daily distinct-target counts for a, b, and a & b.

    Inputs should be per-day tuples; the three series share one week grid
    covering both sets.
    """
    union = a | b
    if not union:
        raise ValueError("both target sets are empty")
    start = week_start(min(t.date for t in union))
    n_weeks = (week_start(max(t.date for t in union)) - start).days // 7 + 1

    def weekly(tuples: set[TargetTuple], label: str) -> WeeklySeries:
        values = [0.0] * n_weeks
        for day, count in Counter(t.date for t in tuples).items():
            values[(week_start(day) - start).days // 7] += count
        return WeeklySeries(start, tuple(values), label)

    return (
        weekly(a, labels[0]),
        weekly(b, labels[1]),
        weekly(a & b, f"{labels[0]}&{labels[1]}"),
    )


def new_vs_recurring(
    tuples: Iterable[TargetTuple],
) -> tuple[WeeklySeries, WeeklySeries, WeeklySeries]:
    """Split weekly target counts into first-ever-seen IPs vs recurrences.

    A tuple is new iff its IP never appeared on an earlier date. Returns
    (new, recurring, cumulative_new); the cumulative series is monotone
    and ends at the distinct-IP count.
    """
    ordered = sorted(set(tuples), key=lambda t: (t.date, ip_to_int(t.ip)))
    if not ordered:
        raise ValueError("no target tuples")
    start = week_start(ordered[0].date)
    n_weeks = (week_start(ordered[-1].date) - start).days // 7 + 1
    new = [0.0] * n_weeks
    recurring = [0.0] * n_weeks
    seen: set[str] = set()
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].date == ordered[i].date:
            j += 1
        week = (week_start(ordered[i].date) - start).days // 7
        for t in ordered[i:j]:
            if t.ip in seen:
                recurring[week] += 1
            else:
                new[week] += 1
        seen.update(t.ip for t in ordered[i:j])
        i = j
    cumulative = []
    total = 0.0
    for v in new:
        total += v
        cumulative.append(total)
    return (
        WeeklySeries(start, tuple(new), "new"),
        WeeklySeries(start, tuple(recurring), "recurring"),
        WeeklySeries(start, tuple(cumulative), "cumulative_new"),
    )


def as_attribution(
    tuples: Iterable[TargetTuple],
    routed: RoutedPrefixTable,
    top_n: Optional[int] = None,
) -> list[tuple[str, int, float]]:
    """Rank origin ASes by target-tuple count via longest-prefix match.

    Tuples with no covering routed prefix land in the reserved "unrouted"
    bucket. Shares are fractions of all tuples, so the full ranking sums
    to 1. `top_n` truncates the ranking.
    """
    counts: dict[str, int] = {}
    total = 0
    for t in tuples:
        hit = routed.lookup(t.ip)
        bucket = UNROUTED if hit is None else f"AS{hit[1]}"
        counts[bucket] = counts.get(bucket, 0) + 1
        total += 1
    if total == 0:
        return []
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = [(asn, c, c / total) for asn, c in ranked]
    return rows[:top_n] if top_n is not None else rows


# ---------------------------------------------------------------------------
# Federated confirmation against salted digests
# ---------------------------------------------------------------------------

def target_digest(t: TargetTuple, salt: str) -> str:
    """SHA-256 over "salt|YYYY-MM-DD|dotted-quad" ASCII, lowercase hex.

    Fixed encoding so independently built data sets join correctly; a salt
    mismatch is undetectable by construction and simply confirms nothing.
    """
    return hashlib.sha256(f"{salt}|{t.date.isoformat()}|{t.ip}".encode("ascii")).hexdigest()


def hash_targets(tuples: Iterable[TargetTuple], salt: str) -> set[str]:
    return {target_digest(t, salt) for t in tuples}


def federated_confirm(
    local: TargetSetSystem,
    external_hashed: set[str],
    salt: str,
) -> dict[frozenset[str], float]:
    """Per exclusive subset, the fraction of its tuples confirmed by the
    external hashed set. Empty subsets confirm at 0.0."""
    out: dict[frozenset[str], float] = {}
    for subset, tuples in _exclusive(local).items():
        confirmed = sum(target_digest(t, salt) in external_hashed for t in tuples)
        out[subset] = confirmed / len(tuples) if tuples else 0.0
    return out
