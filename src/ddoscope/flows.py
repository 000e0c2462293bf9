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

from .model import PacketBatch, distinct


class Rate(NamedTuple):
    """`packets` packets inside `buckets` consecutive slide buckets of
    `slide_us` microseconds, the buckets aligned to the epoch."""

    packets: int
    slide_us: int
    buckets: int


class Flows(NamedTuple):
    """Every flow as a run of grouped input rows, and which are attacks."""

    order: np.ndarray     # input rows grouped by key, time-ordered within a key
    bounds: np.ndarray    # flow f is order[bounds[f]:bounds[f + 1]]
    attacks: np.ndarray   # flows that met every threshold, in the order their keys first appear


def group_flows(
    packets: PacketBatch,
    keys: Sequence[np.ndarray],
    split: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    min_packets: int = 1,
    min_duration_us: float = 0,
    rate: Optional[Rate] = None,
    min_ports: Optional[int] = None,
) -> Flows:
    """Group `packets` into flows and pick the attacks among them.

    Rows equal in every column of `keys` are one key's packets, in time
    order (input order among equal timestamps). Consecutive packets of a
    key fall into different flows where `split(prev_ts, cur_ts)` holds.
    Attacks are listed in the order their keys first appear in the input,
    so a stable sort of their events breaks ties by that order.
    """
    order = np.lexsort((packets.ts, *keys))
    ts = packets.ts[order]
    new_key = np.zeros(len(order), bool)
    new_key[:1] = True
    for k in keys:
        k = k[order]
        new_key[1:] |= k[1:] != k[:-1]
    new_flow = new_key.copy()
    new_flow[1:] |= split(ts[:-1], ts[1:])
    bounds = np.append(np.flatnonzero(new_flow), len(order))
    start, end = bounds[:-1], bounds[1:]

    ok = (end - start >= min_packets) & (ts[end - 1] - ts[start] >= min_duration_us)
    if rate is not None and len(ts):
        ok &= _peak_window(ts, bounds, rate) >= rate.packets
    if min_ports is not None:
        ok &= np.diff(distinct(packets.dst_port[order], bounds)[1]) >= min_ports
    key_first = np.minimum.reduceat(order, np.flatnonzero(new_key))[np.cumsum(new_key)[start] - 1]
    attacks = np.flatnonzero(ok)
    return Flows(order, bounds, attacks[np.argsort(key_first[attacks], kind="stable")])


def _peak_window(ts: np.ndarray, bounds: np.ndarray, rate: Rate) -> np.ndarray:
    """Most packets of each flow inside one window of `rate.buckets` slide
    buckets. The busiest window ends in some packet's bucket, so counting
    each packet's trailing window is enough."""
    bucket = ts // rate.slide_us - ts.min() // rate.slide_us
    # (flow, bucket) as one sorted code; flows sit far enough apart that a
    # trailing window never reaches back into the previous flow
    flow = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    code = flow * (int(bucket.max()) + rate.buckets) + bucket
    trailing = np.arange(1, len(code) + 1) - np.searchsorted(code, code - (rate.buckets - 1))
    return np.maximum.reduceat(trailing, bounds[:-1])
