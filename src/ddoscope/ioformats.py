"""Readers and writers for the on-disk interchange formats.

Every CSV schema is fixed and shares one line rule: lines are UTF-8 and end
in LF or CRLF, blank lines are skipped but counted, fields are split on
every comma (nothing is quoted), the header line must equal its *_HEADER
constant, and each row must have the header's field count. The
attacks.csv sensors cell is a semicolon-joined sorted list of sensor IPs
(empty allowed). Hashed-target files hold one lowercase hex digest per
line; series.json is {"label": str, "start_week": "YYYY-MM-DD", "values":
[number|null, ...]}.
"""

from __future__ import annotations

import json
import re
from datetime import date
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import (
    FLAG_A, FLAG_F, FLAG_R, FLAG_S, FLAG_STRINGS, AttackEvent, AllocationTable, FlowBatch, PacketBatch,
    PacketRecord, RoutedPrefixTable, TargetTuple, WeeklySeries, as_batch, ip_to_int, parse_prefix,
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


def _lines(raws, path, start: int = 1):
    """(line number, text) of each non-blank line of `raws`, the binary lines
    of `path` from line `start` on, without its LF or CRLF end."""
    for lineno, raw in enumerate(raws, start):
        try:
            line = raw.decode().removesuffix("\n").removesuffix("\r")
        except UnicodeDecodeError:
            raise FormatError(f"{path}:{lineno}: not UTF-8") from None
        if line:
            yield lineno, line


def _check_header(lines, expected: str, path) -> int:
    """The number of the first of `lines`, once it equals `expected`."""
    lineno, header = next(lines, (None, None))
    if header is None:
        raise FormatError(f"{path}: empty file")
    if header != expected:
        raise FormatError(f"{path}: expected header {expected!r}, got {header!r}")
    return lineno


# -- column-spec reader: packets.csv and flows.csv ----------------------------

# Bytes read per parsing step; a step always ends at a line break, so a row
# is never split between two steps.
_CHUNK_BYTES = 1 << 18
# Bit of each TCP flag letter; 16 marks a byte that is not one.
_FLAG_BITS = np.full(256, 16, np.uint8)
_FLAG_BITS[np.frombuffer(b"SARF", np.uint8)] = (FLAG_S, FLAG_A, FLAG_R, FLAG_F)


def _read_columns(path, header: str, fields, checks) -> list[np.ndarray]:
    """The columns of a CSV file whose rows follow a fixed grammar.

    `fields` holds one (stored dtype, parser, *parser arguments) per column
    and `checks(*columns)` one (rule, validity) pair per range check. The
    first row with a wrong field count, a field its parser rejects or a
    broken rule raises FormatError naming its line and what it breaks.
    """
    with open(path, "rb") as fh:
        lineno = _check_header(_lines(fh, path), header, path)
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
                    index, failed = bad
                    at, line = next(_lines([chunk.split(b"\n")[index]], path, lineno + index + 1))
                    raise FormatError(f"{path}:{at}: {_rejection(line, header, fields, failed)}")
                parts.append(columns)
                lineno += chunk.count(b"\n")
            if not data:
                return [np.concatenate(col) for col in zip(*parts)]


def _parse_rows(chunk: bytes, fields, checks) -> tuple[Optional[list[np.ndarray]], Optional[tuple]]:
    """Parse the rows of `chunk`, one per line.

    Returns the columns and None, or None and (index of the first bad line,
    what it fails first): None for its field count, a column's index for a
    field that column's parser rejects, or a broken rule's text. Blank
    lines count but are skipped.
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
    rules = checks(*columns)
    valid = [ok for _, ok in parsed] + [ok for _, ok in rules]
    bad = np.flatnonzero(~np.logical_and.reduce(valid))
    if len(bad):
        first = next(k for k, ok in enumerate(valid) if not ok[bad[0]])
        failed = first if first < len(fields) else rules[first - len(fields)][0]
        return None, (int(lines[bad[0]]), failed)
    if n < len(lines):
        return None, (int(lines[n]), None)
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


# What a field must be, by its column's parser and that parser's arguments
_MUST_BE = {
    _decimal: "a canonical decimal of at most {} digits",
    _fixed: "a canonical decimal of at most {} digits, then optionally '.' and 1 to {} digits",
    _ipv4: "an IPv4 dotted-quad",
    _tcp_flags: "a sequence of the TCP flag letters S, A, R, F",
}


def _rejection(line: str, header: str, fields, failed) -> str:
    """Why `line` is rejected, given what `_parse_rows` found it fails first."""
    cells = line.split(",")
    if failed is None:
        return f"expected {len(fields)} fields, got {len(cells)}"
    if isinstance(failed, str):
        return failed
    _, parse, *args = fields[failed]
    return f"{header.split(',')[failed]} {cells[failed]!r} is not {_MUST_BE[parse].format(*args)}"


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
        ("protocol above 255", protocol <= 255),
        ("src_port above 65535", src_port <= 65535),
        ("dst_port above 65535", dst_port <= 65535),
        ("len_bytes below 20", len_bytes >= 20),
        ("src_port and dst_port must be 0 unless protocol is 6 or 17",
         (protocol == 6) | (protocol == 17) | ((src_port == 0) & (dst_port == 0))),
    ]


def read_packets(path, sensor_col: Optional[str] = None) -> PacketBatch:
    """Load packets.csv. With `sensor_col`, an extra column of that name must
    be present and replaces dst_ip as the sensor identity.

    Rows must follow the canonical grammar (see README); the first row that
    does not raises FormatError naming its line.
    """
    header = PACKETS_HEADER + (f",{sensor_col}" if sensor_col else "")
    fields = _PACKET_FIELDS + (((np.uint32, _ipv4),) if sensor_col else ())
    columns = _read_columns(path, header, fields, _packet_checks)
    if sensor_col:
        columns[4] = columns.pop()
    return PacketBatch(*columns)


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
    """`parse(*fields)` of each row after the exact `header`. A row holding
    a double quote, whose field count differs from the header's, or that
    `parse` rejects with ValueError, raises FormatError naming its line."""
    width = header.count(",") + 1
    out = []
    with open(path, "rb") as fh:
        lines = _lines(fh, path)
        _check_header(lines, header, path)
        for lineno, line in lines:
            row = line.split(",")
            try:
                if '"' in line:
                    raise ValueError("a double quote in a row; fields are never quoted")
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
    # the bitrate bound is a value, not a width, so that every double up to
    # it is written back readable
    return [
        ("protocol above 255", protocol <= 255),
        ("src_port above 65535", src_port <= 65535),
        ("distinct_src_ips outside 1-4294967296", (sources >= 1) & (sources <= 2 ** 32)),
        ("bitrate_bps outside 0-1000000000000000", (bitrate >= 0) & (bitrate <= 1e15)),
        ("start_ts_us after end_ts_us", start <= end),
    ]


def read_flows(path) -> FlowBatch:
    """Load flows.csv; see README for the row grammar."""
    return FlowBatch(*_read_columns(path, FLOWS_HEADER, _FLOW_FIELDS, _flow_checks))


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
    rows = _read_csv(path, ALLOC_HEADER, lambda prefix, registry: (_valid(parse_prefix, prefix), registry))
    try:
        return AllocationTable(rows)
    except ValueError as exc:       # overlapping blocks
        raise FormatError(f"{path}: {exc}") from None


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
    with open(path, "rb") as fh:
        for lineno, line in _lines(fh, path):
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

def read_series(path) -> WeeklySeries:
    with open(path) as fh:
        try:
            doc = json.load(fh)
            return WeeklySeries(start_week=date.fromisoformat(doc["start_week"]),
                                values=tuple(None if v is None else float(v) for v in doc["values"]),
                                label=doc.get("label", ""))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad series document: {exc}") from None


def write_series(path, series: WeeklySeries) -> None:
    write_json(path, {"label": series.label, "start_week": series.start_week.isoformat(),
                      "values": list(series.values)})


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
