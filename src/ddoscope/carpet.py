"""Carpet-bombing aggregation: merge concurrent per-IP attacks into one
prefix-level attack.

A group of concurrent same-type events is merged when the longest
BGP-routed prefix covering all its targets has length /11 to /28 and all
targets sit in a single registry allocation block. Attacks spanning
multiple allocations stay separate even when a routed prefix covers them
(an ISP-wide attack is recorded as many attacks, not one).

Clustering is a running max per (observatory, attack type): sorted by
start, an event opens a new cluster when it starts more than the
concurrency gap after the latest end of every earlier event of its type.
That is the greedy rule "join the open cluster when the start is within
the gap of the latest end seen in it", because an earlier cluster's ends
are all below the open cluster's first start, so the running max over
every earlier event is the open cluster's latest end. That needs a gap
>= 0, so a negative one is rejected. Ties in start cannot change a
cluster: a tied event starts no later than the end of the event before
it, so it joins that event's cluster in any order.
"""

from __future__ import annotations

import numpy as np

from .model import (
    EventBatch,
    PrefixTable,
    Ragged,
    US_PER_S,
    distinct,
    format_prefix,
    host_targets,
    merge_runs,
    observatory_codes,
    time_clusters,
)

MIN_PREFIX_LEN = 11
MAX_PREFIX_LEN = 28


def aggregate_carpet(
    events: EventBatch,
    routed: PrefixTable,
    alloc: PrefixTable,
    concurrency_gap: float = 60.0,
    min_targets: int = 2,
) -> EventBatch:
    """Merge concurrent events per (observatory, attack type) into carpet
    events where the routed-prefix and single-allocation conditions hold;
    everything else passes through unchanged.

    Input must be sorted by start_ts. The output is a partition of the
    input, every event represented exactly once, sorted by (start, target,
    observatory, attack type).
    """
    if routed is None or alloc is None:
        raise ValueError("aggregate_carpet requires routed and allocation tables")
    if concurrency_gap < 0:
        raise ValueError(f"concurrency gap {concurrency_gap} is negative")
    if min_targets < 2:
        raise ValueError(f"min_targets {min_targets} is below 2: a single target is no carpet")
    back = np.flatnonzero(events.start_ts[1:] < events.start_ts[:-1])
    if len(back):
        pair = events.take(back[:1] + [0, 1])
        prev, cur = map(format_prefix, pair.net.tolist(), pair.plen.tolist())
        prev_ts, cur_ts = pair.start_ts.tolist()
        raise ValueError(f"events not sorted by start_ts: {cur} at {cur_ts} after {prev} at {prev_ts}")

    order, bounds = time_clusters(events, (observatory_codes(events.observatory), events.type_code),
                                  int(concurrency_gap * US_PER_S))
    net, plen = events.net[order].astype(np.int64), events.plen[order].astype(np.int64)
    # distinct target networks per cluster, each network as the rank of its key
    rank = np.unique(net << 6 | plen, return_inverse=True)[1].astype(np.uint32)
    networks = np.diff(distinct(rank, bounds)[1])
    # the span from each cluster's lowest to its highest target address
    lo = np.minimum.reduceat(net, bounds[:-1])
    hi = np.maximum.reduceat(net | (1 << (32 - plen)) - 1, bounds[:-1])
    merged = np.flatnonzero(networks >= min_targets)
    route = routed.containing(lo[merged], hi[merged])
    merged, route = merged[route >= 0], route[route >= 0]
    keep = ((routed.plen[route] >= MIN_PREFIX_LEN) & (routed.plen[route] <= MAX_PREFIX_LEN)
            & (alloc.containing(lo[merged], hi[merged]) >= 0))
    merged, route = merged[keep], route[keep]

    rows = Ragged(bounds, order)[merged]
    clustered = events.take(rows.values)
    rest = np.ones(len(events), bool)
    rest[rows.values] = False
    return EventBatch.concat([
        events.take(rest),
        merge_runs(clustered, rows.bounds, routed.net[route], routed.plen[route], host_targets(clustered)),
    ]).ordered()
