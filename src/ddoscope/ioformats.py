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
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import (
    FLAG_A,
    FLAG_F,
    FLAG_R,
    FLAG_S,
    FLAG_STRINGS,
    AttackEvent,
    AllocationTable,
    PacketBatch,
    PacketRecord,
    RoutedPrefixTable,
    TargetTuple,
    WeeklySeries,
    as_batch,
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

# Bytes read per parsing step; a step always ends at a line break, so a row
# is never split between two steps.
_CHUNK_BYTES = 1 << 18
# Bit of each TCP flag letter; 16 marks a byte that is not one.
_FLAG_BITS = np.full(256, 16, np.uint8)
_FLAG_BITS[np.frombuffer(b"SARF", np.uint8)] = (FLAG_S, FLAG_A, FLAG_R, FLAG_F)


def read_packets(path, sensor_col: Optional[str] = None) -> PacketBatch:
    """Load packets.csv. With `sensor_col`, an extra column of that name must
    be present and replaces dst_ip as the sensor identity.

    Rows must follow the canonical grammar (see README); the first row that
    does not raises FormatError naming its line.
    """
    path = Path(path)
    expected = PACKETS_HEADER + (f",{sensor_col}" if sensor_col else "")
    n_fields = 9 if sensor_col else 8
    batches = []
    with open(path, "rb") as fh:
        lineno = 0
        for raw in iter(fh.readline, b""):
            lineno += 1
            if raw.strip(b"\r\n"):
                break
        else:
            raise FormatError(f"{path}: empty file")
        header = next(csv.reader([raw.decode("utf-8", "replace")]))
        _check_header(",".join(header), expected, path)
        pending = b""
        while True:
            data = fh.read(_CHUNK_BYTES)
            pending += data
            # whole lines only, but the last line of the file may lack its break
            cut = pending.rfind(b"\n") + 1 if data else len(pending)
            if cut:
                chunk, pending = pending[:cut], pending[cut:]
                batch, bad = _parse_packet_rows(chunk, n_fields)
                if bad is not None:
                    line = chunk.split(b"\n")[bad].decode("utf-8", "replace")
                    raise FormatError(f"{path}:{lineno + bad + 1}: {_row_error(line, sensor_col)}")
                batches.append(batch)
                lineno += chunk.count(b"\n")
            if not data:
                return PacketBatch.concat(batches)


def _row_error(line: str, sensor_col: Optional[str]) -> str:
    """Why one packets.csv line is rejected: the PacketRecord check's message,
    or a grammar violation the csv module and PacketRecord let through."""
    try:
        row = next(csv.reader([line]))
        ts, proto, src, sport, dst, dport, length, flags = row[:8]
        PacketRecord(
            ts=int(ts), protocol=int(proto), src_ip=src, src_port=int(sport),
            dst_ip=row[8] if sensor_col else dst, dst_port=int(dport),
            len_bytes=int(length), tcp_flags=flags,
        )
    except (ValueError, IndexError) as exc:
        return str(exc)
    except csv.Error:
        pass
    return "not a canonical packets row"


def _parse_packet_rows(chunk: bytes, n_fields: int) -> tuple[Optional[PacketBatch], Optional[int]]:
    """Parse packets.csv rows, one per line.

    Returns the batch, or None and the index of the first bad line (blank
    lines count but are skipped).
    """
    # Field parsers read up to 18 bytes before a field and 15 after its
    # start; the zero padding keeps those reads, wrapped or not, in bounds.
    buf = np.frombuffer(chunk + bytes(32), np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not chunk.endswith(b"\n"):
        ends = np.append(ends, len(chunk))
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= (ends > starts) & (buf[ends - 1] == ord("\r"))
    lines = np.flatnonzero(ends > starts)
    starts, ends = starts[lines], ends[lines]
    commas = np.flatnonzero(buf == ord(","))
    per_row = np.bincount(np.searchsorted(starts, commas, "right") - 1, minlength=len(lines))
    miscounted = np.flatnonzero(per_row != n_fields - 1)
    n = miscounted[0] if len(miscounted) else len(lines)
    # field bounds of the rows before the first with a wrong field count
    cuts = commas[: n * (n_fields - 1)].reshape(n, n_fields - 1)
    lo = np.column_stack((starts[:n], cuts + 1))
    hi = np.column_stack((cuts, ends[:n]))

    valid: list[np.ndarray] = []

    def field(i, parse, *args):
        values, ok = parse(buf, lo[:, i], hi[:, i], *args)
        valid.append(ok)
        return values

    ts = field(0, _decimal, 18)
    protocol = field(1, _decimal, 3)
    src = field(2, _ipv4)
    src_port = field(3, _decimal, 5)
    dst = field(4, _ipv4)
    dst_port = field(5, _decimal, 5)
    len_bytes = field(6, _decimal, 9)
    flags = field(7, _tcp_flags)
    if n_fields == 9:
        dst = field(8, _ipv4)
    valid += [
        protocol <= 255, src_port <= 65535, dst_port <= 65535, len_bytes >= 20,
        (protocol == 6) | (protocol == 17) | ((src_port == 0) & (dst_port == 0)),
    ]
    bad = np.flatnonzero(~np.logical_and.reduce(valid))
    if len(bad) or n < len(lines):
        return None, int(lines[bad[0] if len(bad) else n])
    return PacketBatch(
        ts, protocol.astype(np.uint8), src, src_port.astype(np.uint16), dst,
        dst_port.astype(np.uint16), len_bytes, flags,
    ), None


def _decimal(buf, lo, hi, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Fields buf[lo:hi] as canonical ASCII decimals of at most `width` digits:
    (int64 values, validity)."""
    length = hi - lo
    ok = (length >= 1) & (length <= width) & ((length == 1) | (buf[lo] != ord("0")))
    value = np.zeros(len(lo), np.int64)
    for j in range(min(width, length.max(initial=0)), 0, -1):     # the digit j places from the end
        digit = buf[hi - j] - np.uint8(ord("0"))
        inside = length >= j
        ok &= ~inside | (digit <= 9)
        value = value * 10 + np.where(inside, digit, 0)
    return value, ok


def _ipv4(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Fields buf[lo:hi] as dotted-quads: (uint32 values, validity)."""
    width = len("255.255.255.255")
    dot = (buf[lo[:, None] + np.arange(width)] == ord(".")) & (np.arange(width) < (hi - lo)[:, None])
    ok = (hi - lo <= width) & (dot.sum(axis=1) == 3)
    dot[~ok] = np.arange(width) < 3      # any three dots, so every row yields three
    dots = lo[:, None] + np.nonzero(dot)[1].reshape(-1, 3)
    value = np.zeros(len(lo), np.uint32)
    for o_lo, o_hi in zip((lo, *(dots.T + 1)), (*dots.T, hi)):
        octet, octet_ok = _decimal(buf, o_lo, o_hi, 3)
        ok &= octet_ok & (octet <= 255)
        value = value << 8 | octet.astype(np.uint32)
    return value, ok


def _tcp_flags(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Fields buf[lo:hi] as any sequence of SARF letters: (uint8 masks, validity)."""
    length = hi - lo
    offsets = np.cumsum(length) - length
    pos = np.repeat(lo - offsets, length) + np.arange(length.sum())
    mask = np.zeros(len(lo), np.uint8)
    nonempty = length > 0
    if nonempty.any():
        mask[nonempty] = np.bitwise_or.reduceat(_FLAG_BITS[buf[pos]], offsets[nonempty])
    return mask & 15, mask < 16


# Decimal spelling of each octet value
_OCTET_TEXT = tuple(str(i) for i in range(256))


def _dotted_quads(col: np.ndarray) -> list[str]:
    """Each address of a uint32 column as a dotted-quad, formatted once per
    distinct address."""
    o = _OCTET_TEXT
    distinct, index = np.unique(col, return_inverse=True)
    text = [f"{o[v >> 24]}.{o[v >> 16 & 255]}.{o[v >> 8 & 255]}.{o[v & 255]}" for v in distinct.tolist()]
    return [text[i] for i in index.tolist()]


def write_packets(path, packets: PacketBatch | Iterable[PacketRecord]) -> None:
    """Write packets.csv, one row per packet in batch order."""
    b = as_batch(packets)
    flags = [FLAG_STRINGS[f] for f in b.flags.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(PACKETS_HEADER + "\n")
        fh.write("".join(
            f"{ts},{proto},{src},{sport},{dst},{dport},{length},{flag}\n"
            for ts, proto, src, sport, dst, dport, length, flag in zip(
                b.ts.tolist(), b.protocol.tolist(), _dotted_quads(b.src), b.src_port.tolist(),
                _dotted_quads(b.dst), b.dst_port.tolist(), b.len_bytes.tolist(), flags)
        ))


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


def write_weekly_csv(path, header: Sequence[str], series: Sequence[WeeklySeries]) -> None:
    """CSV of series on one week grid; `header` names the columns after `week`."""
    with open(path, "w") as fh:
        fh.write(",".join(("week", *header)) + "\n")
        for week, *values in zip(series[0].weeks(), *(s.values for s in series)):
            fh.write(week.isoformat() + "".join(f",{v:g}" for v in values) + "\n")


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
