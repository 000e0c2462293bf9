"""Carpet-bombing aggregation: merge concurrent per-IP attacks into one
prefix-level attack.

A group of concurrent same-type events is merged when the longest
BGP-routed prefix covering all its targets has length /11 to /28 and all
targets sit in a single registry allocation block. Attacks spanning
multiple allocations stay separate even when a routed prefix covers them
(an ISP-wide attack is recorded as many attacks, not one).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .model import (
    AllocationTable,
    AttackEvent,
    RoutedPrefixTable,
    US_PER_S,
    event_sort_key,
    int_to_ip,
    prefix_mask,
)

MIN_PREFIX_LEN = 11
MAX_PREFIX_LEN = 28


def aggregate_carpet(
    events: Iterable[AttackEvent],
    routed: RoutedPrefixTable,
    alloc: AllocationTable,
    concurrency_gap: float = 60.0,
    min_targets: int = 2,
) -> list[AttackEvent]:
    """Merge concurrent events per (observatory, attack type) into carpet
    events where the routed-prefix and single-allocation conditions hold;
    everything else passes through unchanged.

    Clustering is greedy, earliest start first: an event joins the open
    cluster of its (observatory, attack type) when its start is within
    `concurrency_gap` of the latest end seen so far in that cluster, and
    opens a new cluster otherwise.

    Input must be sorted by start_ts. The output is a partition of the
    input: every event is represented exactly once.
    """
    if routed is None or alloc is None:
        raise ValueError("aggregate_carpet requires routed and allocation tables")
    events = list(events)
    for prev, cur in zip(events, events[1:]):
        if cur.start_ts < prev.start_ts:
            raise ValueError(
                f"events not sorted by start_ts: {cur.target} at {cur.start_ts} "
                f"after {prev.target} at {prev.start_ts}"
            )

    gap_us = int(concurrency_gap * US_PER_S)
    # Ties in start_ts are broken by target. Each key keeps its clusters and
    # the latest end_ts of its open (last) cluster.
    groups: dict[tuple[str, str], list[list[AttackEvent]]] = {}
    open_end: dict[tuple[str, str], int] = {}
    for e in sorted(events, key=event_sort_key):
        key = (e.observatory, e.attack_type)
        clusters = groups.setdefault(key, [])
        if clusters and e.start_ts <= open_end[key] + gap_us:
            clusters[-1].append(e)
            open_end[key] = max(open_end[key], e.end_ts)
        else:
            clusters.append([e])
            open_end[key] = e.end_ts

    out: list[AttackEvent] = []
    for clusters in groups.values():
        for cluster in clusters:
            merged = _try_merge(cluster, routed, alloc, min_targets)
            if merged is not None:
                out.append(merged)
            else:
                out.extend(cluster)
    out.sort(key=event_sort_key)
    return out


def _try_merge(
    cluster: list[AttackEvent],
    routed: RoutedPrefixTable,
    alloc: AllocationTable,
    min_targets: int,
) -> Optional[AttackEvent]:
    networks = {e.target_network() for e in cluster}
    if len(networks) < min_targets:
        return None

    # Longest routed prefix containing every target: any covering prefix
    # must contain the span from the lowest to the highest target address,
    # so walk the ancestors of that span's common prefix.
    lo = min(net for net, _ in networks)
    hi = max(net | ((1 << (32 - plen)) - 1) for net, plen in networks)
    cov_len = 32 - (lo ^ hi).bit_length()
    hit = routed.longest_covering(lo & prefix_mask(cov_len), cov_len)
    if hit is None:
        return None
    prefix, plen, _asn = hit
    if not MIN_PREFIX_LEN <= plen <= MAX_PREFIX_LEN:
        return None

    # Blocks are disjoint prefixes, so one block holds every target exactly
    # when it holds both ends of the span.
    block = alloc.block_of(int_to_ip(lo))
    if block is None or block != alloc.block_of(int_to_ip(hi)):
        return None

    members: list[str] = []
    for e in cluster:
        members.extend(e.host_targets())
    total_bytes = None
    if all(e.bytes is not None for e in cluster):
        total_bytes = sum(e.bytes for e in cluster)
    sensors = frozenset().union(*(e.sensors for e in cluster))
    return AttackEvent(
        observatory=cluster[0].observatory,
        attack_type=cluster[0].attack_type,
        target=prefix,
        start_ts=min(e.start_ts for e in cluster),
        end_ts=max(e.end_ts for e in cluster),
        packets=sum(e.packets for e in cluster),
        bytes=total_bytes,
        sensors=sensors,
        member_targets=tuple(sorted(set(members))),
    )
