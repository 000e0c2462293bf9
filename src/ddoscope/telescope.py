"""Randomly-spoofed DoS inference from network-telescope backscatter.

Flows are keyed (protocol, source IP) because telescope packets are the
victim's responses: the source address is the attack target. A flow turns
into an attack once it has ever satisfied all three thresholds (packet
count, duration, windowed rate) and then stays an attack for the rest of
its lifetime. Flows end after a full accounting interval without packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    FLAG_A,
    FLAG_R,
    FLAG_S,
    AttackEvent,
    PacketBatch,
    PacketRecord,
    US_PER_S,
    as_batch,
    event_sort_key,
    int_to_ip,
)

ADDRESS_SPACE = 2 ** 32


@dataclass(frozen=True)
class TelescopeConfig:
    """Detector parameters; defaults mirror the production telescope setup."""

    n_addresses: int
    interval: float = 300.0            # flow accounting/expiry interval, seconds
    pkt_threshold: int = 25
    duration_threshold: float = 60.0   # seconds
    rate_pkts: int = 30                # >= this many packets ...
    rate_window: float = 60.0          # ... inside one window of this many seconds ...
    rate_slide: float = 10.0           # ... sliding on these boundaries (epoch-aligned)
    backscatter_filter: str = "default"

    def __post_init__(self):
        if not 1 <= self.n_addresses <= ADDRESS_SPACE:
            raise ValueError(f"n_addresses out of range: {self.n_addresses}")
        if min(self.interval, self.pkt_threshold, self.duration_threshold,
               self.rate_pkts, self.rate_window, self.rate_slide) <= 0:
            raise ValueError("thresholds must be positive")
        if self.rate_window <= self.rate_slide:
            raise ValueError("rate window must exceed slide")
        ratio = self.rate_window / self.rate_slide
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("rate window must be an integral multiple of the slide")
        if self.backscatter_filter not in ("none", "default"):
            raise ValueError(f"unknown backscatter filter {self.backscatter_filter!r}")


def backscatter_prefilter(packets: PacketBatch | Iterable[PacketRecord], mode: str = "default") -> PacketBatch:
    """Drop traffic that cannot be backscatter.

    Default keeps TCP SYN-ACKs, TCP resets (R, with or without A), and
    ICMP. A lone SYN is scan traffic, not a response. mode="none" keeps
    everything.
    """
    packets = as_batch(packets)
    if mode == "none":
        return packets
    if mode != "default":
        raise ValueError(f"unknown backscatter filter {mode!r}")
    flags = packets.flags
    tcp_response = (flags == FLAG_S | FLAG_A) | (flags & FLAG_R != 0)
    return packets.take((packets.protocol == 1) | ((packets.protocol == 6) & tcp_response))


class _FlowState:
    __slots__ = ("first_ts", "last_ts", "count", "buckets", "winsum", "rate_met", "is_attack")

    def __init__(self, ts: int):
        self.first_ts = ts
        self.last_ts = ts
        self.count = 0
        self.buckets: list[list[int]] = []  # [slide-bucket index, packet count], ascending
        self.winsum = 0
        self.rate_met = False
        self.is_attack = False


def detect_rsdos(
    packets: PacketBatch | Iterable[PacketRecord],
    cfg: TelescopeConfig,
    observatory: str = "telescope",
) -> list[AttackEvent]:
    """Infer RSDoS attacks from a time-ordered telescope packet stream.

    Raises ValueError on out-of-order input, naming the offending record.
    Output is canonicalized: sorted by (start_ts, target).
    """
    packets = as_batch(packets)
    unordered = np.flatnonzero(packets.ts[1:] < packets.ts[:-1])
    if len(unordered):
        i = int(unordered[0]) + 1
        raise ValueError(
            f"packets not time-ordered: record {i} has ts {packets.ts[i]} "
            f"after ts {packets.ts[i - 1]}"
        )
    interval_us = int(cfg.interval * US_PER_S)
    duration_us = int(cfg.duration_threshold * US_PER_S)
    slide_us = int(cfg.rate_slide * US_PER_S)
    buckets_per_window = int(round(cfg.rate_window / cfg.rate_slide))

    flows: dict[tuple[int, int], _FlowState] = {}
    events: list[AttackEvent] = []
    cur_interval = None

    def finalize(key: tuple[int, int], st: _FlowState) -> None:
        if st.is_attack:
            events.append(
                AttackEvent(
                    observatory=observatory,
                    attack_type="RSDoS",
                    target=f"{int_to_ip(key[1])}/32",
                    start_ts=st.first_ts,
                    end_ts=st.last_ts,
                    packets=st.count,
                )
            )

    for ts, key in zip(packets.ts.tolist(), zip(packets.protocol.tolist(), packets.src.tolist())):
        # A flow ends after a full interval with no packets: on entering
        # interval m, any flow untouched since before interval m-1 is done.
        pkt_interval = ts // interval_us
        if cur_interval is None:
            cur_interval = pkt_interval
        elif pkt_interval > cur_interval:
            cutoff = (pkt_interval - 1) * interval_us
            expired = [(k, st) for k, st in flows.items() if st.last_ts < cutoff]
            for k, st in expired:
                finalize(k, st)
                del flows[k]
            cur_interval = pkt_interval

        st = flows.get(key)
        if st is None:
            st = flows[key] = _FlowState(ts)
        st.count += 1
        st.last_ts = ts

        if not st.rate_met:
            # Track per-slide-bucket counts over the trailing window. Checking
            # only the window that ends at the current bucket is exact: when
            # any epoch-aligned window first reaches the threshold, all its
            # packets so far lie within the trailing window of that packet.
            b = ts // slide_us
            if st.buckets and st.buckets[-1][0] == b:
                st.buckets[-1][1] += 1
            else:
                st.buckets.append([b, 1])
            st.winsum += 1
            low = b - buckets_per_window + 1
            while st.buckets[0][0] < low:
                st.winsum -= st.buckets.pop(0)[1]
            if st.winsum >= cfg.rate_pkts:
                st.rate_met = True
                st.buckets = []
                st.winsum = 0

        if (
            not st.is_attack
            and st.rate_met
            and st.count >= cfg.pkt_threshold
            and st.last_ts - st.first_ts >= duration_us
        ):
            st.is_attack = True

    for key, st in flows.items():
        finalize(key, st)
    events.sort(key=event_sort_key)
    return events


def min_detectable_rate(
    n_addresses: int,
    pkt_threshold: int = 25,
    window_s: float = 300.0,
    packet_bytes: int = 110,
) -> tuple[float, float]:
    """Smallest attack a telescope of `n_addresses` can detect, as (pps, bps).

    Assumes spoofed sources are drawn uniformly from the IPv4 space, so the
    telescope samples a n/2^32 fraction of the backscatter: an attack is
    visible when its rate puts `pkt_threshold` sampled packets into one
    `window_s` window. bps applies a flat per-packet size of `packet_bytes`.
    """
    if n_addresses <= 0:
        raise ValueError("n_addresses must be positive")
    if pkt_threshold <= 0 or window_s <= 0 or packet_bytes <= 0:
        raise ValueError("all arguments must be positive")
    pps = pkt_threshold / ((n_addresses / ADDRESS_SPACE) * window_s)
    bps = pps * packet_bytes * 8
    return pps, bps
