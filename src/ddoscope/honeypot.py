"""Attack definitions for reflection-amplification honeypots.

A honeypot sensor logs the spoofed requests it is asked to reflect, so the
packet's source address is the victim and the destination is the sensor.
The flow engine (flows.py) groups packets by the definition's key fields
and splits flows on inter-packet gaps above the timeout; flows that clear
the thresholds become RA attack events.

Built-in presets:

  amppot        key (src_ip, src_port, dst_ip, dst_port), timeout 60 min, >=100 pkts
  hopscotch     key (src_ip, dst_ip, dst_port), timeout 15 min, >=5 pkts
  newkid        key (src_prefix/24, dst_ip), timeout 1 min, >=5 pkts across
                >=2 distinct dst ports (the multi-protocol rule)
  newkid-mono   key (src_prefix/24, dst_ip, dst_port), timeout 1 min, >=5 pkts

Prefix-keyed events record the hosts they saw as member targets.
"""

from __future__ import annotations

import numpy as np

from .flows import group_flows
from .model import (
    AttackDefinition,
    EventBatch,
    PacketBatch,
    Ragged,
    US_PER_S,
    distinct,
    int_to_ip,
    merge_runs,
    observatory_codes,
    prefix_mask,
    time_clusters,
    type_code,
)

PRESETS: dict[str, AttackDefinition] = {
    "amppot": AttackDefinition(
        key_fields=("src_ip", "src_port", "dst_ip", "dst_port"),
        timeout=3600.0,
        pkt_threshold=100,
    ),
    "hopscotch": AttackDefinition(
        key_fields=("src_ip", "dst_ip", "dst_port"),
        timeout=900.0,
        pkt_threshold=5,
    ),
    # NewKid carries two thresholds: mono-port attacks need >=5 packets to
    # one (dst IP, dst port); multi-protocol attacks need >=5 packets over
    # >=2 distinct dst ports of one dst IP. "newkid" is the multi-protocol
    # rule; use "newkid-mono" for the port-keyed variant.
    "newkid": AttackDefinition(
        key_fields=("src_prefix", "dst_ip"),
        timeout=60.0,
        pkt_threshold=5,
        port_threshold=2,
        src_prefix_len=24,
    ),
    "newkid-mono": AttackDefinition(
        key_fields=("src_prefix", "dst_ip", "dst_port"),
        timeout=60.0,
        pkt_threshold=5,
        src_prefix_len=24,
    ),
}


def preset(name: str) -> AttackDefinition:
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown honeypot preset {name!r}; choose from {sorted(PRESETS)}") from None


# PacketBatch column of each key field but src_prefix
_KEY_COLUMNS = {"protocol": "protocol", "src_ip": "src", "src_port": "src_port",
                "dst_ip": "dst", "dst_port": "dst_port"}


def detect_honeypot(
    packets: PacketBatch,
    definition: AttackDefinition,
    observatory: str = "honeypot",
) -> EventBatch:
    """Run one attack definition over honeypot request logs.

    Packets must be time-ordered per sensor (dst_ip); violations raise
    ValueError naming the offending record. Output is sorted by
    (start_ts, target), ties in the order their flow keys first appear.
    """
    _check_sensor_order(packets)
    d = definition
    keys = [
        packets.src & np.uint32(prefix_mask(d.src_prefix_len)) if f == "src_prefix"
        else getattr(packets, _KEY_COLUMNS[f])
        for f in d.key_fields
    ]
    flows = group_flows(
        packets, keys, lambda prev, cur: cur - prev > int(d.timeout * US_PER_S),
        min_packets=d.pkt_threshold,
        min_duration_us=(d.duration_threshold or 0) * US_PER_S,
        min_ports=d.port_threshold,
    )
    order, bounds, f = flows.order, flows.bounds, flows.attacks
    first, last = order[bounds[f]], order[bounds[f + 1] - 1]
    by_prefix = "src_prefix" in d.key_fields
    plen = d.src_prefix_len if by_prefix else 32
    return EventBatch.build(
        observatory, type_code("RA"), packets.src[first] & np.uint32(prefix_mask(plen)), plen,
        packets.ts[first], packets.ts[last], bounds[f + 1] - bounds[f],
        bytes=np.add.reduceat(packets.len_bytes[order], bounds[:-1])[f],
        sensors=Ragged(*distinct(packets.dst[order], bounds)[::-1])[f],
        members=Ragged(*distinct(packets.src[order], bounds)[::-1])[f] if by_prefix else None,
    ).ordered()


def _check_sensor_order(packets: PacketBatch) -> None:
    """Raise on the first record earlier than the one before it at its sensor."""
    by_sensor = np.argsort(packets.dst, kind="stable")
    ts, dst = packets.ts[by_sensor], packets.dst[by_sensor]
    back = np.flatnonzero((ts[1:] < ts[:-1]) & (dst[1:] == dst[:-1]))
    if len(back):
        j = back[np.argmin(by_sensor[back + 1])]
        raise ValueError(
            f"packets not time-ordered for sensor {int_to_ip(int(dst[j]))}: "
            f"record {by_sensor[j + 1]} has ts {ts[j + 1]} after ts {ts[j]}"
        )


def aggregate_sensors(events: EventBatch, merge_gap: float) -> EventBatch:
    """Merge per-sensor events of one platform into per-attack events.

    Events with identical observatory, attack type and target become one
    event when their spans overlap or sit within `merge_gap` seconds: span
    union, packets and bytes summed, sensor and member sets unioned. The
    clusters are `model.time_clusters` with those three as the group: in
    start order, an event joins the cluster before it when it starts
    within the gap of the running maximum of that cluster's ends.
    Idempotent, packet-conserving. The gap must be >= 0.
    """
    if merge_gap < 0:
        raise ValueError(f"merge gap {merge_gap} is negative")
    order, bounds = time_clusters(
        events, (observatory_codes(events.observatory), events.type_code, events.net, events.plen),
        int(merge_gap * US_PER_S))
    events = events.take(order)
    starts = bounds[:-1]
    return merge_runs(events, bounds, events.net[starts], events.plen[starts], events.members).ordered()
