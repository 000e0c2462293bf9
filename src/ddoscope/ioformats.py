"""Readers and writers for the on-disk interchange formats.

Every CSV schema is fixed, its header line (the *_HEADER constants) checked
byte for byte, and each row must have the header's field count. The
attacks.csv sensors cell is a semicolon-joined sorted list of sensor IPs
(empty allowed). Hashed-target files hold one lowercase hex digest per
line; series.json is {"label": str, "start_week": "YYYY-MM-DD", "values":
[number|null, ...]}.
"""

from __future__ import annotations

import csv
import json
import re
from datetime import date
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
    FlowBatch,
    PacketBatch,
    PacketRecord,
    RoutedPrefixTable,
    TargetTuple,
    WeeklySeries,
    as_batch,
    ip_to_int,
    parse_prefix,
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


def _check_header(fh, expected: str, path) -> int:
    """Read `fh` up to its first non-blank line, check that line as a CSV
    header against `expected`, and return its line number."""
    for lineno, line in enumerate(fh, start=1):
        line = line.decode("utf-8", "replace") if isinstance(line, bytes) else line
        if line.strip("\r\n"):
            header = ",".join(next(csv.reader([line])))
            if header != expected:
                raise FormatError(f"{path}: expected header {expected!r}, got {header.rstrip()!r}")
            return lineno
    raise FormatError(f"{path}: empty file")


# -- column-spec reader: packets.csv and flows.csv ----------------------------

# Bytes read per parsing step; a step always ends at a line break, so a row
# is never split between two steps.
_CHUNK_BYTES = 1 << 18
# Bit of each TCP flag letter; 16 marks a byte that is not one.
_FLAG_BITS = np.full(256, 16, np.uint8)
_FLAG_BITS[np.frombuffer(b"SARF", np.uint8)] = (FLAG_S, FLAG_A, FLAG_R, FLAG_F)


def _read_columns(path, header: str, fields, checks, row_error) -> list[np.ndarray]:
    """The columns of a CSV file whose rows follow a fixed grammar.

    `fields` holds one (stored dtype, parser, *parser arguments) per column,
    `checks(*columns)` the range checks each row must pass, and
    `row_error(line)` the message for a rejected line. The first row that
    fails a parser or a check raises FormatError naming its line.
    """
    with open(path, "rb") as fh:
        lineno = _check_header(fh, header, path)
        parts = [[np.empty(0, dtype) for dtype, *_ in fields]]
        pending = b""
        while True:
            data = fh.read(_CHUNK_BYTES)
            pending += data
            # whole lines only, but the last line of the file may lack its break
            cut = pending.rfind(b"\n") + 1 if data else len(pending)
            if cut:
                chunk, pending = pending[:cut], pending[cut:]
                columns, bad = _parse_rows(chunk, fields, checks)
                if bad is not None:
                    line = chunk.split(b"\n")[bad].decode("utf-8", "replace")
                    raise FormatError(f"{path}:{lineno + bad + 1}: {row_error(line)}")
                parts.append(columns)
                lineno += chunk.count(b"\n")
            if not data:
                return [np.concatenate(col) for col in zip(*parts)]


def _parse_rows(chunk: bytes, fields, checks) -> tuple[Optional[list[np.ndarray]], Optional[int]]:
    """Parse the rows of `chunk`, one per line.

    Returns the columns, or None and the index of the first bad line (blank
    lines count but are skipped).
    """
    # Field parsers read up to 18 bytes before a field and 17 after its
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
    miscounted = np.flatnonzero(per_row != len(fields) - 1)
    n = miscounted[0] if len(miscounted) else len(lines)
    # field bounds of the rows before the first with a wrong field count
    cuts = commas[: n * (len(fields) - 1)].reshape(n, len(fields) - 1)
    lo = np.column_stack((starts[:n], cuts + 1))
    hi = np.column_stack((cuts, ends[:n]))

    parsed = [parse(buf, lo[:, i], hi[:, i], *args) for i, (_, parse, *args) in enumerate(fields)]
    columns = [values for values, _ in parsed]
    valid = [ok for _, ok in parsed] + checks(*columns)
    bad = np.flatnonzero(~np.logical_and.reduce(valid))
    if len(bad) or n < len(lines):
        return None, int(lines[bad[0] if len(bad) else n])
    return [col.astype(dtype, copy=False) for col, (dtype, *_) in zip(columns, fields)], None


def _decimal(buf, lo, hi, width: int, leading_zeros: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Fields buf[lo:hi] as 1 to `width` ASCII digits, canonical (no leading
    zero) unless `leading_zeros`: (int64 values, validity)."""
    length = hi - lo
    ok = (length >= 1) & (length <= width) & ((length == 1) | (buf[lo] != ord("0")) | leading_zeros)
    value = np.zeros(len(lo), np.int64)
    for j in range(min(width, length.max(initial=0)), 0, -1):     # the digit j places from the end
        digit = buf[hi - j] - np.uint8(ord("0"))
        inside = length >= j
        ok &= ~inside | (digit <= 9)
        value = value * 10 + np.where(inside, digit, 0)
    return value, ok


def _fixed(buf, lo, hi, width: int, places: int) -> tuple[np.ndarray, np.ndarray]:
    """Fields buf[lo:hi] as a canonical decimal of at most `width` digits,
    then optionally "." and 1 to `places` digits: (float64 values, validity).
    Below 2**53 each value is the double nearest the decimal, as float()
    gives it."""
    length = hi - lo
    span = np.arange(width + 1)
    dot = (buf[lo[:, None] + span] == ord(".")) & (span < length[:, None])
    has_point = dot.any(axis=1)
    point = np.where(has_point, lo + dot.argmax(axis=1), hi)
    whole, ok = _decimal(buf, lo, point, width)
    frac, frac_ok = _decimal(buf, point + 1, hi, places, leading_zeros=True)
    ok &= ~has_point | frac_ok
    # the fraction in units of 10**-places
    frac = np.where(has_point, frac * 10 ** np.clip(places - (hi - point - 1), 0, places), 0)
    # For places <= 6: below 2**33 the scaled decimal is an integer under
    # 2**53, and dividing exact operands rounds once. From 2**33 up the
    # rounding midpoints are multiples of 2**-20, and a decimal with `places`
    # places is one or lies >= 10**-places * 2**-20 from one, far beyond the
    # error of frac / 10**places, so the sum rounds correctly too.
    small = whole < 2 ** 33
    scaled = np.where(small, whole, 0) * 10 ** places + frac
    return np.where(small, scaled / 10 ** places, whole + frac / 10 ** places), ok


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


# -- packets ----------------------------------------------------------------

# packets.csv columns: (stored dtype, parser, *parser arguments)
_PACKET_FIELDS = (
    (np.int64, _decimal, 18),       # ts_us
    (np.uint8, _decimal, 3),        # protocol
    (np.uint32, _ipv4),             # src_ip
    (np.uint16, _decimal, 5),       # src_port
    (np.uint32, _ipv4),             # dst_ip
    (np.uint16, _decimal, 5),       # dst_port
    (np.int64, _decimal, 9),        # len_bytes
    (np.uint8, _tcp_flags),         # tcp_flags
)


def _packet_checks(ts, protocol, src, src_port, dst, dst_port, len_bytes, flags, *sensor):
    return [
        protocol <= 255, src_port <= 65535, dst_port <= 65535, len_bytes >= 20,
        (protocol == 6) | (protocol == 17) | ((src_port == 0) & (dst_port == 0)),
    ]


def read_packets(path, sensor_col: Optional[str] = None) -> PacketBatch:
    """Load packets.csv. With `sensor_col`, an extra column of that name must
    be present and replaces dst_ip as the sensor identity.

    Rows must follow the canonical grammar (see README); the first row that
    does not raises FormatError naming its line.
    """
    header = PACKETS_HEADER + (f",{sensor_col}" if sensor_col else "")
    fields = _PACKET_FIELDS + (((np.uint32, _ipv4),) if sensor_col else ())
    columns = _read_columns(path, header, fields, _packet_checks,
                            lambda line: _row_error(line, sensor_col))
    if sensor_col:
        columns[4] = columns.pop()
    return PacketBatch(*columns)


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


# -- row-wise csv readers (attacks, tables, targets) ---------------------------

def _read_csv(path, header: str, parse) -> list:
    """`parse(*fields)` of each row after the exact `header`. A row whose
    field count differs from the header's, or that `parse` rejects with
    ValueError, raises FormatError naming its line."""
    width = header.count(",") + 1
    out = []
    with open(path, newline="") as fh:
        first = _check_header(fh, header, path)
        for lineno, row in enumerate(csv.reader(fh), start=first + 1):
            if not row:
                continue
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                out.append(parse(*row))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return out


def _int(text: str) -> int:
    """A canonical ASCII decimal: no sign, blank, separator or leading zero."""
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and len(text) > 1):
        raise ValueError(f"not a canonical decimal: {text!r}")
    return int(text)


def _valid(parse, text: str) -> str:
    """`text`, once `parse` accepts it."""
    parse(text)
    return text


# -- attacks ----------------------------------------------------------------

def _attack(obs, atype, target, start, end, packets, sensors) -> AttackEvent:
    return AttackEvent(observatory=obs, attack_type=atype, target=target,
                       start_ts=_int(start), end_ts=_int(end), packets=_int(packets),
                       sensors=frozenset(_valid(ip_to_int, s) for s in sensors.split(";") if s))


def read_attacks(path) -> list[AttackEvent]:
    return _read_csv(path, ATTACKS_HEADER, _attack)


def write_attacks(path, events: Iterable[AttackEvent]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(ATTACKS_HEADER + "\n")
        fh.write("".join(
            f"{e.observatory},{e.attack_type},{e.target},{e.start_ts},{e.end_ts},{e.packets},"
            f"{';'.join(sorted(e.sensors, key=ip_to_int))}\n" for e in events))


# -- flow summaries ----------------------------------------------------------

# flows.csv columns: (stored dtype, parser, *parser arguments)
_FLOW_FIELDS = (
    (np.uint32, _ipv4),             # target_ip
    (np.uint8, _decimal, 3),        # protocol
    (np.uint16, _decimal, 5),       # src_port
    (np.int64, _decimal, 10),       # distinct_src_ips
    (np.float64, _fixed, 16, 6),    # bitrate_bps
    (np.int64, _decimal, 18),       # start_ts_us
    (np.int64, _decimal, 18),       # end_ts_us
)


def _flow_checks(target, protocol, src_port, sources, bitrate, start, end):
    return [protocol <= 255, src_port <= 65535, (sources >= 1) & (sources <= 2 ** 32),
            (bitrate >= 0) & (bitrate <= 1e15), start <= end]


# what a row that fails each of _flow_checks breaks; the bitrate bound is
# a value, not a width, so that every double up to it is written back readable
_FLOW_CHECK_ERRORS = ("protocol above 255", "src_port above 65535", "distinct_src_ips outside 1-4294967296",
                      "bitrate_bps outside 0-1000000000000000", "start_ts_us after end_ts_us")


def read_flows(path) -> FlowBatch:
    """Load flows.csv; see README for the row grammar."""
    return FlowBatch(*_read_columns(path, FLOWS_HEADER, _FLOW_FIELDS, _flow_checks, _flow_row_error))


def _flow_row_error(line: str) -> str:
    """Why one flows.csv line is rejected: the range check it fails, or a
    grammar violation that int() and float() would let through."""
    try:
        target, protocol, src_port, sources, bitrate, start, end = line.split(",")
        passed = _flow_checks(ip_to_int(target), int(protocol), int(src_port), int(sources),
                              float(bitrate), int(start), int(end))
    except ValueError as exc:
        return str(exc)
    return next((error for ok, error in zip(passed, _FLOW_CHECK_ERRORS) if not ok),
                "not a canonical flows row")


def write_flows(path, flows: FlowBatch) -> None:
    """Write flows.csv, one row per flow in batch order."""
    with open(path, "w", newline="") as fh:
        fh.write(FLOWS_HEADER + "\n")
        fh.write("".join(
            f"{target},{proto},{sport},{sources},{bitrate:.6f},{start},{end}\n"
            for target, proto, sport, sources, bitrate, start, end in zip(
                _dotted_quads(flows.target), *(col.tolist() for col in flows.columns()[1:]))
        ))


# -- prefix tables -----------------------------------------------------------

def read_routed_table(path) -> RoutedPrefixTable:
    return RoutedPrefixTable(_read_csv(
        path, ROUTED_HEADER, lambda prefix, asn: (_valid(parse_prefix, prefix), _int(asn))))


def read_alloc_table(path) -> AllocationTable:
    return AllocationTable(_read_csv(
        path, ALLOC_HEADER, lambda prefix, registry: (_valid(parse_prefix, prefix), registry)))


# -- target tuples -----------------------------------------------------------

def _target(day: str, ip: str) -> TargetTuple:
    if date.fromisoformat(day).isoformat() != day:
        raise ValueError(f"not a YYYY-MM-DD date: {day!r}")
    return TargetTuple(date.fromisoformat(day), _valid(ip_to_int, ip))


def read_targets(path) -> set[TargetTuple]:
    return set(_read_csv(path, TARGETS_HEADER, _target))


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
