"""Grouped-flow engine behind both packet detectors.

An attack definition is a flow key, a rule for where the packets of one
key split into consecutive flows, and thresholds: packet count, duration,
windowed rate and distinct dst ports. The telescope's RSDoS rule and the
honeypot RA presets are such definitions. Every threshold can only go from
unmet to met as a flow grows, so a flow that was ever an attack is exactly
one that meets them all at its end, and each is one pass over the flows.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import EventBatch, PacketBatch, Ragged, distinct, prefix_mask


class Rate(NamedTuple):
    """`packets` packets inside `buckets` consecutive slide buckets of
    `slide_us` microseconds, the buckets aligned to the epoch."""

    packets: int
    slide_us: int
    buckets: int


def detect(packets: PacketBatch, keys: Sequence[np.ndarray], split: Callable[[np.ndarray, np.ndarray], np.ndarray],
           attack_type: int, observatory: str, *, plen: int = 32, sensors: Optional[np.ndarray] = None,
           min_packets: int, min_duration_us: float, rate: Optional[Rate] = None,
           min_ports: Optional[int] = None) -> EventBatch:
    """One event per flow of `packets` that meets every threshold.

    Rows may come in any order. Rows equal in every column of `keys` are
    one key's packets, taken in time order (input order among equal
    timestamps). Consecutive packets of a key fall into different flows
    where `split(prev_ts, cur_ts)` holds. An event targets its flow's first
    source masked to /`plen`; below /32 it records the flow's source hosts
    as members, and it records the distinct values of the `sensors` column,
    when given, as its sensors. Events are sorted by (start_ts, target),
    ties in the order of their keys' earliest packets (by time, then by
    position in the input).
    """
    order = np.lexsort((packets.ts, *keys))
    ts = packets.ts[order]
    new_key = np.zeros(len(order), bool)
    new_key[:1] = True
    for k in keys:
        k = k[order]
        new_key[1:] |= k[1:] != k[:-1]
    # row indices, and flow bounds into them, held as int32 while they fit;
    # indexing by an int32 array costs a cast, so `order` narrows after its
    # per-key gathers
    index = np.int32 if len(order) < 2 ** 31 else np.int64
    order = order.astype(index)
    new_flow = new_key.copy()
    new_flow[1:] |= split(ts[:-1], ts[1:])
    bounds = np.flatnonzero(np.append(new_flow, True)).astype(index)
    start, end = bounds[:-1], bounds[1:]

    ok = (end - start >= min_packets) & (ts[end - 1] - ts[start] >= min_duration_us)
    if rate is not None and len(ts):
        ok &= _peak_window(ts, bounds, rate) >= rate.packets
    if min_ports is not None:
        ok &= np.diff(distinct(packets.dst_port[order], bounds)[1]) >= min_ports
    # each flow's key's earliest packet, by time and then input position
    opens_key = new_key[start]
    key_first = order[start[opens_key]][np.cumsum(opens_key, dtype=index) - 1]
    # the attack flows, in the order of their keys' earliest packets
    f = np.flatnonzero(ok)
    f = f[np.lexsort((key_first[f], packets.ts[key_first[f]]))]
    # the per-flow unions below take memory in proportion to the packets,
    # so the grouping's per-packet temporaries are freed first
    del ts, new_key, new_flow

    def per_flow(col):
        return Ragged(*distinct(col[order], bounds)[::-1])[f]

    first, last = order[start[f]], order[end[f] - 1]
    return EventBatch.build(
        observatory, attack_type, packets.src[first] & np.uint32(prefix_mask(plen)), plen,
        packets.ts[first], packets.ts[last], end[f] - start[f],
        sensors=None if sensors is None else per_flow(sensors),
        members=per_flow(packets.src) if plen < 32 else None,
    ).ordered()


def _peak_window(ts: np.ndarray, bounds: np.ndarray, rate: Rate) -> np.ndarray:
    """Most packets of each flow inside one window of `rate.buckets` slide
    buckets. The busiest window ends in some packet's bucket, so counting
    each packet's trailing window is enough."""
    code = ts // rate.slide_us
    code -= code.min()
    # (flow, bucket) as one sorted code; flows sit far enough apart that a
    # trailing window never reaches back into the previous flow
    code += np.repeat(np.arange(len(bounds) - 1, dtype=np.int64) * (int(code.max()) + rate.buckets), np.diff(bounds))
    # packet i's trailing window holds packets first[i] to i, so -(first[i] - i - 1) of them
    first = np.searchsorted(code, code - (rate.buckets - 1))
    del code
    first -= np.arange(1, len(first) + 1)
    return -np.minimum.reduceat(first, bounds[:-1])
