"""Readers and writers for the on-disk interchange formats.

All schemas are fixed and validated byte-for-byte on the header line:

  packets.csv   ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags
  attacks.csv   observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors
  flows.csv     target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us
  routed.csv    prefix,asn
  alloc.csv     prefix,registry
  targets.csv   date,ip
  series.json   {"label": str, "start_week": "YYYY-MM-DD", "values": [number|null, ...]}

The sensors cell is a semicolon-joined sorted list of sensor IPs (empty
allowed). Hashed-target files hold one lowercase hex digest per line.
"""

from __future__ import annotations

import csv
import json
import re
from datetime import date
from pathlib import Path
from typing import Iterable, Optional

from .model import (
    AttackEvent,
    AllocationTable,
    PacketRecord,
    RoutedPrefixTable,
    TargetTuple,
    WeeklySeries,
    ip_to_int,
)

PACKETS_HEADER = "ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags"
ATTACKS_HEADER = "observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors"
FLOWS_HEADER = "target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us"
ROUTED_HEADER = "prefix,asn"
ALLOC_HEADER = "prefix,registry"
TARGETS_HEADER = "date,ip"
_SHA256_HEX = re.compile("[0-9a-f]{64}")


class FormatError(ValueError):
    """Malformed input file; message carries file and line context."""


def _check_header(line: str, expected: str, path) -> None:
    if line.rstrip("\r\n") != expected:
        raise FormatError(f"{path}: expected header {expected!r}, got {line.rstrip()!r}")


def _rows(path) -> Iterable[tuple[int, list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if row:
                yield lineno, row


# -- packets ----------------------------------------------------------------

def read_packets(path, sensor_col: Optional[str] = None) -> list[PacketRecord]:
    """Load packets.csv. With `sensor_col`, an extra column of that name must
    be present and replaces dst_ip as the sensor identity.
    """
    path = Path(path)
    expected = PACKETS_HEADER + (f",{sensor_col}" if sensor_col else "")
    records = []
    it = _rows(path)
    try:
        _, header = next(it)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    _check_header(",".join(header), expected, path)
    for lineno, row in it:
        try:
            ts, proto, src, sport, dst, dport, length, flags = row[:8]
            sensor = row[8] if sensor_col else dst
            records.append(
                PacketRecord(
                    ts=int(ts),
                    protocol=int(proto),
                    src_ip=src,
                    src_port=int(sport),
                    dst_ip=sensor,
                    dst_port=int(dport),
                    len_bytes=int(length),
                    tcp_flags=flags,
                )
            )
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return records


def write_packets(path, packets: Iterable[PacketRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(PACKETS_HEADER + "\n")
        for p in packets:
            fh.write(
                f"{p.ts},{p.protocol},{p.src_ip},{p.src_port},"
                f"{p.dst_ip},{p.dst_port},{p.len_bytes},{p.tcp_flags}\n"
            )


# -- attacks ----------------------------------------------------------------

def read_attacks(path) -> list[AttackEvent]:
    path = Path(path)
    it = _rows(path)
    try:
        _, header = next(it)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    _check_header(",".join(header), ATTACKS_HEADER, path)
    events = []
    for lineno, row in it:
        try:
            obs, atype, target, start, end, packets, sensors = row[:7]
            events.append(
                AttackEvent(
                    observatory=obs,
                    attack_type=atype,
                    target=target,
                    start_ts=int(start),
                    end_ts=int(end),
                    packets=int(packets),
                    sensors=frozenset(s for s in sensors.split(";") if s),
                )
            )
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return events


def write_attacks(path, events: Iterable[AttackEvent]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(ATTACKS_HEADER + "\n")
        for e in events:
            sensors = ";".join(sorted(e.sensors, key=ip_to_int))
            fh.write(
                f"{e.observatory},{e.attack_type},{e.target},"
                f"{e.start_ts},{e.end_ts},{e.packets},{sensors}\n"
            )


# -- flow summaries ----------------------------------------------------------

def read_flows(path) -> list["FlowSummary"]:
    from .flowclass import FlowSummary

    path = Path(path)
    it = _rows(path)
    try:
        _, header = next(it)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    _check_header(",".join(header), FLOWS_HEADER, path)
    flows = []
    for lineno, row in it:
        try:
            target, proto, sport, nsrc, bitrate, start, end = row[:7]
            flows.append(
                FlowSummary(
                    target_ip=target,
                    protocol=int(proto),
                    src_port=int(sport),
                    distinct_src_ips=int(nsrc),
                    bitrate_bps=float(bitrate),
                    start_ts=int(start),
                    end_ts=int(end),
                )
            )
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return flows


def write_flows(path, flows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(FLOWS_HEADER + "\n")
        for f in flows:
            fh.write(
                f"{f.target_ip},{f.protocol},{f.src_port},{f.distinct_src_ips},"
                f"{f.bitrate_bps:.6f},{f.start_ts},{f.end_ts}\n"
            )


# -- prefix tables -----------------------------------------------------------

def read_routed_table(path) -> RoutedPrefixTable:
    path = Path(path)
    it = _rows(path)
    try:
        _, header = next(it)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    _check_header(",".join(header), ROUTED_HEADER, path)
    entries = []
    for lineno, row in it:
        try:
            entries.append((row[0], int(row[1])))
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return RoutedPrefixTable(entries)


def read_alloc_table(path) -> AllocationTable:
    path = Path(path)
    it = _rows(path)
    try:
        _, header = next(it)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    _check_header(",".join(header), ALLOC_HEADER, path)
    entries = []
    for lineno, row in it:
        try:
            entries.append((row[0], row[1]))
        except IndexError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return AllocationTable(entries)


# -- target tuples -----------------------------------------------------------

def read_targets(path) -> set[TargetTuple]:
    path = Path(path)
    it = _rows(path)
    try:
        _, header = next(it)
    except StopIteration:
        raise FormatError(f"{path}: empty file") from None
    _check_header(",".join(header), TARGETS_HEADER, path)
    tuples = set()
    for lineno, row in it:
        try:
            ip_to_int(row[1])
            tuples.add(TargetTuple(date.fromisoformat(row[0]), row[1]))
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return tuples


def write_targets(path, tuples: Iterable[TargetTuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(TARGETS_HEADER + "\n")
        for t in sorted(tuples, key=lambda t: (t.date, ip_to_int(t.ip))):
            fh.write(f"{t.date.isoformat()},{t.ip}\n")


def read_hashed_targets(path) -> set[str]:
    digests = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not _SHA256_HEX.fullmatch(line):
                raise FormatError(f"{path}:{lineno}: not a lowercase sha256 hex digest")
            digests.add(line)
    return digests


def write_hashed_targets(path, digests: Iterable[str]) -> None:
    with open(path, "w") as fh:
        for d in sorted(digests):
            fh.write(d + "\n")


# -- weekly series -----------------------------------------------------------

def series_to_json(series: WeeklySeries) -> dict:
    return {
        "label": series.label,
        "start_week": series.start_week.isoformat(),
        "values": list(series.values),
    }


def series_from_json(doc: dict) -> WeeklySeries:
    return WeeklySeries(
        start_week=date.fromisoformat(doc["start_week"]),
        values=tuple(None if v is None else float(v) for v in doc["values"]),
        label=doc.get("label", ""),
    )


def read_series(path) -> WeeklySeries:
    with open(path) as fh:
        try:
            return series_from_json(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad series document: {exc}") from None


def write_series(path, series: WeeklySeries) -> None:
    with open(path, "w") as fh:
        json.dump(series_to_json(series), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
