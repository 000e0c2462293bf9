"""Cross-observatory target analyses.

Victims are identified by (date, IP) tuples: either the attack start date
or one tuple per day the attack touched. All dates are UTC. A target set
is held as sorted int64 keys (see `model.pack_targets`), and a set system
as a dict of up to 10 labelled sets. Set systems support
exclusive-intersection (UpSet) counts, per-day overlap time series,
new-vs-recurring decomposition, origin-AS attribution, and
privacy-preserving confirmation against salted hashes.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

import numpy as np

from .model import (
    US_PER_DAY,
    EventBatch,
    PrefixTable,
    TargetTuple,
    WeeklySeries,
    host_targets,
    pack_targets,
    target_text,
    unpack_targets,
    week_index,
    week_monday,
)

MAX_OBSERVATORIES = 10
UNROUTED = "unrouted"


def build_targets(events: EventBatch, mode: str = "start_date") -> np.ndarray:
    """Victim keys for a batch of events.

    start_date: one (UTC start date, host IP) tuple per event.
    per_day:    one tuple per host per day the event's span touches.
    Prefix-target events contribute their recorded member hosts.
    """
    if mode not in ("start_date", "per_day"):
        raise ValueError(f"unknown target mode {mode!r}")
    hosts = host_targets(events)
    per_event = np.diff(hosts.bounds)
    first = np.repeat(events.start_ts // US_PER_DAY, per_event)
    last = np.repeat(events.end_ts // US_PER_DAY, per_event) if mode == "per_day" else first
    span = last - first + 1
    day = np.repeat(first, span) + np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
    return pack_targets(day, np.repeat(hosts.values, span))


def _exclusive(sets: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The union of the key sets, and per union key the bitmask of the sets
    holding it (bit i for the i-th set)."""
    n = len(sets)
    if n < 1:
        raise ValueError("need at least one observatory")
    if n > MAX_OBSERVATORIES:
        raise ValueError(f"{n} observatories exceed the {MAX_OBSERVATORIES}-set limit")
    union, index = np.unique(np.concatenate(list(sets.values())), return_inverse=True)
    # each set is duplicate-free, so summing its bit per key ORs it in
    bits = np.repeat(1 << np.arange(n), [len(keys) for keys in sets.values()])
    return union, np.bincount(index, bits, len(union)).astype(np.int64)


def _subsets(labels) -> dict[int, frozenset[str]]:
    """Every non-empty subset of `labels`, by bitmask, in bitmask order."""
    labels = tuple(labels)
    return {mask: frozenset(l for i, l in enumerate(labels) if mask >> i & 1)
            for mask in range(1, 1 << len(labels))}


def upset_exclusive(sets: dict[str, np.ndarray]) -> dict[frozenset[str], int]:
    """Exclusive-intersection counts for every non-empty observatory subset.

    A tuple counts toward exactly one subset: the observatories that saw
    it. Counts therefore partition the union, and all 2^n - 1 subsets are
    present in the result (zeros included).
    """
    _, masks = _exclusive(sets)
    counts = np.bincount(masks, minlength=1 << len(sets)).tolist()
    return {subset: counts[mask] for mask, subset in _subsets(sets).items()}


def overlap_timeseries(
    a: np.ndarray,
    b: np.ndarray,
    labels: tuple[str, str] = ("a", "b"),
) -> tuple[WeeklySeries, WeeklySeries, WeeklySeries]:
    """Weekly sums of daily distinct-target counts for a, b, and a & b.

    Inputs should be per-day keys; the three series share one week grid
    covering both sets.
    """
    if not (len(a) or len(b)):
        raise ValueError("both target sets are empty")
    # keys are sorted, so the first and last of each set hold its date range
    weeks = week_index(unpack_targets(np.concatenate((a[:1], a[-1:], b[:1], b[-1:])))[0])
    start, n_weeks = int(weeks.min()), int(weeks.max() - weeks.min()) + 1

    def weekly(keys: np.ndarray, label: str) -> WeeklySeries:
        values = np.bincount(week_index(unpack_targets(keys)[0]) - start, minlength=n_weeks)
        return WeeklySeries(week_monday(start), tuple(values.astype(float).tolist()), label)

    return (
        weekly(a, labels[0]),
        weekly(b, labels[1]),
        weekly(np.intersect1d(a, b, assume_unique=True), f"{labels[0]}&{labels[1]}"),
    )


def new_vs_recurring(keys: np.ndarray) -> tuple[WeeklySeries, WeeklySeries, WeeklySeries]:
    """Split weekly target counts into first-ever-seen IPs vs recurrences.

    A tuple is new iff its IP never appeared on an earlier date. Returns
    (new, recurring, cumulative_new); the cumulative series is monotone
    and ends at the distinct-IP count.
    """
    if not len(keys):
        raise ValueError("no target tuples")
    days, ips = unpack_targets(keys)
    weeks = week_index(days)
    start, n_weeks = int(weeks[0]), int(weeks[-1] - weeks[0]) + 1
    # keys run in date order, so an IP's first key is its earliest date
    new = np.zeros(len(keys), bool)
    new[np.unique(ips, return_index=True)[1]] = True
    n_new = np.bincount(weeks[new] - start, minlength=n_weeks).astype(float)
    n_recurring = np.bincount(weeks[~new] - start, minlength=n_weeks).astype(float)
    week = week_monday(start)
    return (
        WeeklySeries(week, tuple(n_new.tolist()), "new"),
        WeeklySeries(week, tuple(n_recurring.tolist()), "recurring"),
        WeeklySeries(week, tuple(np.cumsum(n_new).tolist()), "cumulative_new"),
    )


def as_attribution(
    keys: np.ndarray,
    routed: PrefixTable,
    top_n: Optional[int] = None,
) -> list[tuple[str, int, float]]:
    """Rank origin ASes by target-tuple count via longest-prefix match.

    Tuples with no covering routed prefix land in the reserved "unrouted"
    bucket. Shares are fractions of all tuples, so the full ranking sums
    to 1. `top_n` truncates the ranking.
    """
    total = len(keys)
    if total == 0:
        return []
    ips = unpack_targets(keys)[1]
    # the ASN of each key's longest routed prefix; -1, appended, for none
    asns, counts = np.unique(np.append(routed.value, -1)[routed.containing(ips, ips)], return_counts=True)
    buckets = {UNROUTED if asn < 0 else f"AS{asn}": count for asn, count in zip(asns.tolist(), counts.tolist())}
    ranked = sorted(buckets.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = [(asn, c, c / total) for asn, c in ranked]
    return rows[:top_n] if top_n is not None else rows


# ---------------------------------------------------------------------------
# Federated confirmation against salted digests
# ---------------------------------------------------------------------------

def _digests(salt: str, days: Iterable[str], ips: Iterable[str]) -> list[str]:
    return [hashlib.sha256(f"{salt}|{day}|{ip}".encode("ascii")).hexdigest() for day, ip in zip(days, ips)]


def target_digest(t: TargetTuple, salt: str) -> str:
    """SHA-256 over "salt|YYYY-MM-DD|dotted-quad" ASCII, lowercase hex.

    Fixed encoding so independently built data sets join correctly; a salt
    mismatch is undetectable by construction and simply confirms nothing.
    """
    return _digests(salt, [t.date.isoformat()], [t.ip])[0]


def federated_confirm(
    local: dict[str, np.ndarray],
    external_hashed: set[str],
    salt: str,
) -> dict[frozenset[str], float]:
    """Per exclusive subset, the fraction of its tuples confirmed by the
    external hashed set. Empty subsets confirm at 0.0."""
    union, masks = _exclusive(local)
    confirmed = [digest in external_hashed for digest in _digests(salt, *target_text(union))]
    size = np.bincount(masks, minlength=1 << len(local))
    hits = np.bincount(masks, confirmed, 1 << len(local))
    return {subset: float(hits[mask] / size[mask]) if size[mask] else 0.0
            for mask, subset in _subsets(local).items()}
