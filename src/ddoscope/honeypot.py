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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .flows import distinct, group_flows
from .model import (
    AttackDefinition,
    AttackEvent,
    PacketBatch,
    PacketRecord,
    US_PER_S,
    as_batch,
    event_sort_key,
    format_prefix,
    int_to_ip,
    prefix_mask,
)


@dataclass(frozen=True)
class HoneypotPreset:
    name: str
    definition: AttackDefinition


PRESETS: dict[str, HoneypotPreset] = {
    "amppot": HoneypotPreset(
        "amppot",
        AttackDefinition(
            key_fields=("src_ip", "src_port", "dst_ip", "dst_port"),
            timeout=3600.0,
            pkt_threshold=100,
        ),
    ),
    "hopscotch": HoneypotPreset(
        "hopscotch",
        AttackDefinition(
            key_fields=("src_ip", "dst_ip", "dst_port"),
            timeout=900.0,
            pkt_threshold=5,
        ),
    ),
    # NewKid carries two thresholds: mono-port attacks need >=5 packets to
    # one (dst IP, dst port); multi-protocol attacks need >=5 packets over
    # >=2 distinct dst ports of one dst IP. "newkid" is the multi-protocol
    # rule; use "newkid-mono" for the port-keyed variant.
    "newkid": HoneypotPreset(
        "newkid",
        AttackDefinition(
            key_fields=("src_prefix", "dst_ip"),
            timeout=60.0,
            pkt_threshold=5,
            port_threshold=2,
            src_prefix_len=24,
        ),
    ),
    "newkid-mono": HoneypotPreset(
        "newkid-mono",
        AttackDefinition(
            key_fields=("src_prefix", "dst_ip", "dst_port"),
            timeout=60.0,
            pkt_threshold=5,
            src_prefix_len=24,
        ),
    ),
}


def preset(name: str) -> HoneypotPreset:
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown honeypot preset {name!r}; choose from {sorted(PRESETS)}") from None


# PacketBatch column of each key field but src_prefix
_KEY_COLUMNS = {"protocol": "protocol", "src_ip": "src", "src_port": "src_port",
                "dst_ip": "dst", "dst_port": "dst_port"}


def detect_honeypot(
    packets: PacketBatch | Iterable[PacketRecord],
    definition: AttackDefinition,
    observatory: str = "honeypot",
) -> list[AttackEvent]:
    """Run one attack definition over honeypot request logs.

    Packets must be time-ordered per sensor (dst_ip); violations raise
    ValueError naming the offending record. Output is sorted by
    (start_ts, target), ties in the order their flow keys first appear.
    """
    packets = as_batch(packets)
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
    order, bounds = flows.order, flows.bounds
    n_bytes = np.add.reduceat(packets.len_bytes[order], bounds[:-1])
    sensors, sensor_bounds = distinct(packets.dst[order], bounds)
    by_prefix = "src_prefix" in d.key_fields
    if by_prefix:
        hosts, host_bounds = distinct(packets.src[order], bounds)
    plen = d.src_prefix_len if by_prefix else 32

    events = []
    for f in flows.attacks.tolist():
        first, last = order[bounds[f]], order[bounds[f + 1] - 1]
        members = (tuple(sorted(map(int_to_ip, hosts[host_bounds[f]:host_bounds[f + 1]].tolist())))
                   if by_prefix else None)
        net = int(packets.src[first]) & prefix_mask(plen)
        events.append(AttackEvent(
            observatory=observatory,
            attack_type="RA",
            target=format_prefix(net, plen),
            _network=(net, plen),
            start_ts=int(packets.ts[first]),
            end_ts=int(packets.ts[last]),
            packets=int(bounds[f + 1] - bounds[f]),
            bytes=int(n_bytes[f]),
            sensors=frozenset(map(int_to_ip, sensors[sensor_bounds[f]:sensor_bounds[f + 1]].tolist())),
            member_targets=members,
        ))
    events.sort(key=event_sort_key)
    return events


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


def aggregate_sensors(events: Iterable[AttackEvent], merge_gap: float) -> list[AttackEvent]:
    """Merge per-sensor events of one platform into per-attack events.

    Events with identical target whose spans overlap or sit within
    `merge_gap` seconds become one event: span union, packets and bytes
    summed, sensor sets unioned. Idempotent, packet-conserving.
    """
    gap_us = int(merge_gap * US_PER_S)
    by_target: dict[tuple[str, str, str], list[AttackEvent]] = {}
    for e in events:
        by_target.setdefault((e.observatory, e.attack_type, e.target), []).append(e)

    merged: list[AttackEvent] = []
    for group in by_target.values():
        group.sort(key=lambda e: (e.start_ts, e.end_ts))
        cur = group[0]
        acc = [cur]
        for e in group[1:]:
            if e.start_ts <= cur.end_ts + gap_us:
                cur = _merge(cur, e)
                acc[-1] = cur
            else:
                cur = e
                acc.append(e)
        merged.extend(acc)
    merged.sort(key=event_sort_key)
    return merged


def _merge(a: AttackEvent, b: AttackEvent) -> AttackEvent:
    total_bytes = None
    if a.bytes is not None and b.bytes is not None:
        total_bytes = a.bytes + b.bytes
    members = None
    if a.member_targets is not None or b.member_targets is not None:
        members = tuple(sorted({*(a.member_targets or ()), *(b.member_targets or ())}))
    return AttackEvent(
        observatory=a.observatory,
        attack_type=a.attack_type,
        target=a.target,
        start_ts=min(a.start_ts, b.start_ts),
        end_ts=max(a.end_ts, b.end_ts),
        packets=a.packets + b.packets,
        bytes=total_bytes,
        sensors=a.sensors | b.sensors,
        member_targets=members,
    )
