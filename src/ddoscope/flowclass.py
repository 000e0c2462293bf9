"""Attack classification for blackholed/monitored flow summaries.

One summary describes traffic toward one target over one window; the rule
set splits reflection-amplification (UDP from amplification source ports)
from direct-path (TCP) attacks on source-count and bitrate thresholds.
"""

from __future__ import annotations

import numpy as np

from .model import EventBatch, FlowBatch, type_code

UDP = 17
TCP = 6

# Amplification service source ports: QOTD, CHARGEN, DNS, RPC portmapper,
# NTP, SNMP, CLDAP, SSDP, memcached.
AMPLIFICATION_PORTS = frozenset({17, 19, 53, 111, 123, 161, 389, 1900, 11211})

MIN_SRC_IPS = 10
RA_BITRATE_BPS = 1_000_000_000   # strict: > 1 Gbps
DP_BITRATE_BPS = 100_000_000     # strict: > 100 Mbps


def attack_masks(
    flows: FlowBatch, ampl_ports: frozenset[int] = AMPLIFICATION_PORTS,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `flows` that are RA attacks, and those that are DP attacks.

    RA: UDP, amplification source port, >=10 source IPs, >1 Gbps.
    DP: TCP, >=10 source IPs, >100 Mbps.
    Thresholds are strict as written: exactly 1 Gbps does not qualify,
    exactly 10 source IPs does.
    """
    enough = flows.distinct_src_ips >= MIN_SRC_IPS
    ra = (enough & (flows.protocol == UDP) & np.isin(flows.src_port, sorted(ampl_ports))
          & (flows.bitrate_bps > RA_BITRATE_BPS))
    dp = enough & (flows.protocol == TCP) & (flows.bitrate_bps > DP_BITRATE_BPS)
    return ra, dp


def classify_flow(
    flows: FlowBatch,
    ampl_ports: frozenset[int] = AMPLIFICATION_PORTS,
    observatory: str = "flow",
) -> EventBatch:
    """One RA or DP event per row of `flows` that classifies (see
    `attack_masks`), in row order. Flow summaries carry no packet counts."""
    ra, dp = attack_masks(flows, ampl_ports)
    rows = np.flatnonzero(ra | dp)
    return EventBatch.build(observatory, np.where(ra[rows], type_code("RA"), type_code("DP")),
                            flows.target[rows], 32, flows.start_ts[rows], flows.end_ts[rows], 0,
                            source_ips=flows.distinct_src_ips[rows])
