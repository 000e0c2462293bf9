"""Randomly-spoofed DoS inference from network-telescope backscatter.

Flows are keyed (protocol, source IP) because telescope packets are the
victim's responses: the source address is the attack target. A flow turns
into an attack once it has ever satisfied all three thresholds (packet
count, duration, windowed rate) and then stays an attack for the rest of
its lifetime. Flows end after a full accounting interval without packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .flows import Rate, detect
from .model import FLAG_A, FLAG_R, FLAG_S, EventBatch, PacketBatch, US_PER_S, type_code

ADDRESS_SPACE = 2 ** 32


@dataclass(frozen=True)
class TelescopeConfig:
    """Detector parameters; defaults mirror the production telescope setup.
    No detector reads `n_addresses`: it records the telescope's size, which a
    synthesized scenario fills in."""

    n_addresses: Optional[int] = None
    interval: float = 300.0            # flow accounting/expiry interval, seconds
    pkt_threshold: int = 25
    duration_threshold: float = 60.0   # seconds
    rate_pkts: int = 30                # >= this many packets ...
    rate_window: float = 60.0          # ... inside one window of this many seconds ...
    rate_slide: float = 10.0           # ... sliding on these boundaries (epoch-aligned)
    backscatter_filter: str = "default"

    def __post_init__(self):
        if self.n_addresses is not None and not 1 <= self.n_addresses <= ADDRESS_SPACE:
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


def backscatter_prefilter(packets: PacketBatch, mode: str = "default") -> PacketBatch:
    """Drop traffic that cannot be backscatter.

    Default keeps TCP SYN-ACKs, TCP resets (R, with or without A), and
    ICMP. A lone SYN is scan traffic, not a response. mode="none" keeps
    everything. A filter that drops nothing returns `packets` itself, not
    a copy.
    """
    if mode == "none":
        return packets
    if mode != "default":
        raise ValueError(f"unknown backscatter filter {mode!r}")
    flags = packets.flags
    tcp_response = (flags == FLAG_S | FLAG_A) | (flags & FLAG_R != 0)
    keep = (packets.protocol == 1) | ((packets.protocol == 6) & tcp_response)
    return packets if keep.all() else packets.take(keep)


def detect_rsdos(
    packets: PacketBatch,
    cfg: TelescopeConfig,
    observatory: str = "telescope",
) -> EventBatch:
    """Infer RSDoS attacks from telescope packets, in any order.

    Output is canonicalized: sorted by (start_ts, target). Events that tie
    there (one target's TCP and ICMP flows starting together) come in the
    order of their (protocol, source) keys' earliest packets, by time and
    then by position in the input.
    """
    interval_us = int(cfg.interval * US_PER_S)
    # a full accounting interval without packets ends a flow
    return detect(packets, (packets.protocol, packets.src),
                  lambda prev, cur: cur // interval_us - prev // interval_us >= 2, type_code("RSDoS"), observatory,
                  min_packets=cfg.pkt_threshold, min_duration_us=cfg.duration_threshold * US_PER_S,
                  rate=Rate(cfg.rate_pkts, int(cfg.rate_slide * US_PER_S),
                            int(round(cfg.rate_window / cfg.rate_slide))))
