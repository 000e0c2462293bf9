"""Generic attack-definition engine for reflection-amplification honeypots.

A honeypot sensor logs the spoofed requests it is asked to reflect, so the
packet's source address is the victim and the destination is the sensor.
Packets are grouped by the definition's key fields, flows split on
inter-packet gaps above the timeout, and completed flows that clear the
thresholds become RA attack events.

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
from typing import Iterable, Optional

from .model import (
    AttackDefinition,
    AttackEvent,
    PacketRecord,
    US_PER_S,
    event_sort_key,
    format_prefix,
    ip_to_int,
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


def _flow_key(p: PacketRecord, d: AttackDefinition) -> tuple:
    key = []
    for f in d.key_fields:
        if f == "protocol":
            key.append(p.protocol)
        elif f == "src_ip":
            key.append(p.src_ip)
        elif f == "src_prefix":
            key.append(ip_to_int(p.src_ip) & prefix_mask(d.src_prefix_len))
        elif f == "src_port":
            key.append(p.src_port)
        elif f == "dst_ip":
            key.append(p.dst_ip)
        elif f == "dst_port":
            key.append(p.dst_port)
    return tuple(key)


def _target_of(
    d: AttackDefinition, key: tuple, flow: list[PacketRecord]
) -> tuple[str, Optional[tuple[str, ...]]]:
    """Event target and, for a prefix key, the member hosts seen."""
    if "src_prefix" in d.key_fields:
        net = key[d.key_fields.index("src_prefix")]
        return format_prefix(net, d.src_prefix_len), tuple(sorted({p.src_ip for p in flow}))
    return f"{flow[0].src_ip}/32", None


def detect_honeypot(
    packets: Iterable[PacketRecord],
    definition: AttackDefinition,
    observatory: str = "honeypot",
) -> list[AttackEvent]:
    """Run one attack definition over honeypot request logs.

    Packets must be time-ordered per sensor (dst_ip); violations raise
    ValueError naming the offending record. Output is sorted by
    (start_ts, target).
    """
    last_per_sensor: dict[str, int] = {}
    groups: dict[tuple, list[PacketRecord]] = {}
    for i, p in enumerate(packets):
        prev = last_per_sensor.get(p.dst_ip)
        if prev is not None and p.ts < prev:
            raise ValueError(
                f"packets not time-ordered for sensor {p.dst_ip}: "
                f"record {i} has ts {p.ts} after ts {prev}"
            )
        last_per_sensor[p.dst_ip] = p.ts
        groups.setdefault(_flow_key(p, definition), []).append(p)

    timeout_us = int(definition.timeout * US_PER_S)
    events: list[AttackEvent] = []
    for key, pkts in groups.items():
        pkts.sort(key=lambda p: p.ts)  # sensors may interleave within one key
        flow_start = 0
        for i in range(1, len(pkts) + 1):
            if i == len(pkts) or pkts[i].ts - pkts[i - 1].ts > timeout_us:
                flow = pkts[flow_start:i]
                flow_start = i
                event = _flow_to_event(flow, definition, key, observatory)
                if event is not None:
                    events.append(event)
    events.sort(key=event_sort_key)
    return events


def _flow_to_event(
    flow: list[PacketRecord],
    d: AttackDefinition,
    key: tuple,
    observatory: str,
) -> Optional[AttackEvent]:
    if len(flow) < d.pkt_threshold:
        return None
    if d.port_threshold is not None:
        if len({p.dst_port for p in flow}) < d.port_threshold:
            return None
    if d.duration_threshold is not None:
        if flow[-1].ts - flow[0].ts < d.duration_threshold * US_PER_S:
            return None
    target, members = _target_of(d, key, flow)
    return AttackEvent(
        observatory=observatory,
        attack_type="RA",
        target=target,
        start_ts=flow[0].ts,
        end_ts=flow[-1].ts,
        packets=len(flow),
        bytes=sum(p.len_bytes for p in flow),
        sensors=frozenset(p.dst_ip for p in flow),
        member_targets=members,
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
