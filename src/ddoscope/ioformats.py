"""Readers and writers for the on-disk interchange formats.

Every CSV schema is fixed and shares one line rule: lines are UTF-8 and end
in LF or CRLF, blank lines are skipped but counted, fields are split on
every comma (nothing is quoted), the header line is the names of the
format's fields joined by commas, and each row must have the header's
field count. The attacks.csv sensors cell is a semicolon-joined sorted
list of sensor IPs (empty allowed). Hashed-target files hold one lowercase
hex digest per line; series.json is {"label": str, "start_week":
"YYYY-MM-DD", "values": [number|null, ...]}.
"""

from __future__ import annotations

import json
import math
import re
from datetime import date
from typing import Optional, Sequence

import numpy as np

from .model import (
    ATTACK_TYPES, FLAG_A, FLAG_F, FLAG_R, FLAG_S, FLAG_STRINGS, MAX_TS_US, EventBatch, FlowBatch, PacketBatch,
    PrefixTable, Ragged, WeeklySeries, distinct, dotted_quads, format_prefix, iso_dates, pack_targets, unpack_targets,
)

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


# -- field tables: every CSV file --------------------------------------------

# Bytes read per parsing step; a step always ends at a line break, so a row
# is never split between two steps.
_CHUNK_BYTES = 1 << 18
# Rows spelled per writing step, so a writer's memory does not grow with its
# file: a step's cells and lines take about 0.5 kB a row
_WRITE_ROWS = 512
# Field parsers read from 18 bytes before a field's start to 17 past it, or
# to its end; the zero bytes after the data keep those reads, wrapped or not,
# in bounds, and past the file's last line they are no digit or dot.
_PAD = 32
# Bit of each TCP flag letter; 16 marks a byte that is not one.
_FLAG_BITS = np.full(256, 16, np.uint8)
_FLAG_BITS[np.frombuffer(b"SARF", np.uint8)] = (FLAG_S, FLAG_A, FLAG_R, FLAG_F)
# An octet's length by which of its 2nd-4th bytes (bits 0-2) are dots: to the first, or 4 for none
_DOT_AT = np.array([4, 1, 2, 1, 3, 1, 2, 1], np.uint8)


def _header(fields) -> str:
    return ",".join(name for name, *_ in fields)


def _read_columns(path, fields, checks=lambda *columns: ()) -> list:
    """The kept columns of a CSV file whose rows follow a fixed grammar.

    `fields` holds one (column name, stored dtype, parser, *parser
    arguments) per column, where the dtype Ragged stores the parser's
    Ragged as it is and None checks the column but does not keep it, and
    `checks(*columns)` one (rule, validity) pair per range check over every
    column. The header must be the column names; the first row with a
    wrong field count, a field its parser rejects or a broken rule raises
    FormatError naming its line and what it breaks.
    """
    kept = [i for i, (_, dtype, *_) in enumerate(fields) if dtype is not None]
    with open(path, "rb") as fh:
        lineno = _check_header(_lines(fh, path), _header(fields), path)
        parts = [[] for _ in kept]      # per kept column, its values from each step
        # one buffer for every step: the lines not parsed yet, then _PAD zero bytes
        buf, size = bytearray(_CHUNK_BYTES + _PAD), 0
        while True:
            got = fh.readinto(memoryview(buf)[size:-_PAD])
            size += got
            buf[size:size + _PAD] = bytes(_PAD)
            # whole lines only, but the last line of the file may lack its break
            cut = buf.rfind(b"\n", 0, size) + 1 if got else size
            if cut:
                columns, bad, breaks = _parse_rows(np.frombuffer(buf, np.uint8), cut, fields, checks)
                if bad is not None:
                    index, failed = bad
                    at, line = next(_lines([bytes(buf[:cut]).split(b"\n")[index]], path, lineno + index + 1))
                    raise FormatError(f"{path}:{at}: {_rejection(line, fields, failed)}")
                for column_parts, i in zip(parts, kept):
                    column_parts.append(columns[i])
                lineno += breaks
                buf[:size - cut], size = buf[cut:size], size - cut
            elif size == len(buf) - _PAD:       # a line longer than the buffer
                buf = buf + bytes(len(buf))
            if not got:
                # one column at a time, so only one column is ever held twice
                return [_joined(parts[k], fields[i][1]) for k, i in enumerate(kept)]


def _joined(parts: list, dtype):
    """The values of `parts` in one column; each part is let go once copied."""
    if dtype is Ragged:
        return Ragged.concat(parts) if parts else Ragged.from_lists(())
    if len(parts) == 1:
        return parts.pop()
    # a text column's steps may hold strings of different widths
    out = np.empty(sum(map(len, parts)), np.result_type(*parts) if parts else dtype)
    at = 0
    for k, part in enumerate(parts):
        parts[k] = None
        out[at:at + len(part)] = part
        at += len(part)
    return out


def _write_columns(path, fields, columns) -> None:
    """Write a CSV file of `columns`, one per field of `fields` and each as
    that field's parser reads it back, under the header of their names.
    Text its parser would reject raises ValueError, and nothing is written."""
    for (name, _, parse, *_), col in zip(fields, columns):
        if parse is _text:
            # a step at a time, as a str array's values are new objects in a list
            for lo in range(0, len(col), _WRITE_ROWS):
                for value in dict.fromkeys(col[lo:lo + _WRITE_ROWS].tolist()):
                    if any(ch in value for ch in ',"\n'):
                        raise ValueError(f"{name} {value!r} holds a comma, a double quote or a line feed; "
                                         f"{path} could not be read back")
    row = ",".join(["%s"] * len(fields)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(_header(fields) + "\n")
        for lo in range(0, len(columns[0]), _WRITE_ROWS):
            cells = [_FIELD_KINDS[parse][1](col[lo:lo + _WRITE_ROWS], *args)
                     for (_, _, parse, *args), col in zip(fields, columns)]
            fh.write("".join(map(row.__mod__, zip(*cells))))
            del cells       # before the next step's are spelled


def _parse_rows(buf: np.ndarray, size: int, fields, checks) -> tuple[Optional[list], Optional[tuple], int]:
    """Parse the rows of buf[:size], one per line; `buf` runs on at least _PAD bytes.

    Returns the columns and None, or None and (index of the first bad line,
    what it fails first): None for its field count, a column's index for a
    field that column's parser rejects, or a broken rule's text. Blank
    lines count but are skipped. Last comes the number of LFs.
    """
    data = buf[:size]
    ends = np.flatnonzero(data == ord("\n"))
    breaks = len(ends)
    if data[-1] != ord("\n"):
        ends = np.append(ends, size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= (ends > starts) & (buf[ends - 1] == ord("\r"))
    lines = np.flatnonzero(ends > starts)
    starts, ends = starts[lines], ends[lines]
    commas = np.flatnonzero(data == ord(","))
    per_row, n = len(fields) - 1, len(lines)
    # every row has its field count when the commas split evenly and each
    # row's share starts and ends inside it; if not, count them row by row
    first_comma, last_comma = commas[::per_row], commas[per_row - 1::per_row]
    if not (len(commas) == n * per_row and ((first_comma >= starts) & (last_comma < ends)).all()):
        counts = np.bincount(np.searchsorted(starts, commas, "right") - 1, minlength=len(lines))
        miscounted = np.flatnonzero(counts != per_row)
        n = miscounted[0] if len(miscounted) else n
    # bounds of the rows before the first with a wrong field count: row i
    # holds what precedes field i, row i + 1 what ends it
    bounds = np.empty((len(fields) + 1, n), np.int64)
    bounds[0], bounds[1:-1], bounds[-1] = starts[:n] - 1, commas[: n * per_row].reshape(n, per_row).T, ends[:n]
    lo, hi = bounds[:-1] + 1, bounds[1:]

    parsed = [parse(buf, lo[i], hi[i], *args) for i, (_, _, parse, *args) in enumerate(fields)]
    columns = [values for values, _ in parsed]
    rules = checks(*columns)
    valid = [ok for _, ok in parsed] + [ok for _, ok in rules]
    bad = np.flatnonzero(~np.logical_and.reduce(valid))
    if len(bad):
        first = next(k for k, ok in enumerate(valid) if not ok[bad[0]])
        failed = first if first < len(fields) else rules[first - len(fields)][0]
        return None, (int(lines[bad[0]]), failed), breaks
    if n < len(lines):
        return None, (int(lines[n]), None), breaks
    return [col if dtype in (Ragged, None) else col.astype(dtype, copy=False)
            for col, (_, dtype, *_) in zip(columns, fields)], None, breaks


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
    # the point, if any: the last dot among the field's 2nd- to (places + 1)th-last bytes
    point = hi
    for f in range(places, 0, -1):
        point = np.where((buf[hi - 1 - f] == ord(".")) & (length > f), hi - 1 - f, point)
    has_point = point < hi
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
    value, ok, pos = np.zeros(len(lo), np.uint32), np.ones(len(lo), bool), lo
    shifted = [buf[j:] for j in range(4)]       # shifted[j][pos] is buf[pos + j]
    for octet in range(4):
        # the octet's first three bytes less "0": 0-9 for a digit, 254 for a dot
        d0, d1, d2 = (b[pos] - np.uint8(ord("0")) for b in shifted[:3])
        if octet < 3:
            # a dot past hi needs no check: the octet would then hold the byte
            # at hi, a separator or padding, which is no digit
            dots = (d1 == 254, d2 == 254, shifted[3][pos] == ord("."))
            length = _DOT_AT.take(sum(bit * dot.view(np.uint8) for bit, dot in zip((1, 2, 4), dots)))
        else:
            length = hi - pos
        two, three = length >= 2, length >= 3
        number = d0.astype(np.uint16)
        number = np.where(two, number * 10 + d1, number)
        number = np.where(three, number * 10 + d2, number)
        ok &= (length >= 1) & (length <= 3) & (d0 <= 9) & (~two | (d0 > 0) & (d1 <= 9)) & (~three | (d2 <= 9))
        ok &= number <= 255
        value = value << 8 | number
        pos = pos + length + 1
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


def _prefix(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Fields buf[lo:hi] as a dotted-quad, optionally then "/" and a length
    of 0 to 32, with no host bits set; a bare dotted-quad is a /32: (int64
    values net << 6 | length, validity)."""
    # a length has one or two digits, so a slash is 2 or 3 bytes from the end
    slash = np.where(buf[hi - 2] == ord("/"), hi - 2, np.where(buf[hi - 3] == ord("/"), hi - 3, hi))
    net, ok = _ipv4(buf, lo, slash)
    length, length_ok = _decimal(buf, slash + 1, hi, 2)
    ok &= (slash == hi) | length_ok & (length <= 32)
    length = np.where(slash < hi, np.minimum(length, 32), 32)
    net = net.astype(np.int64)
    ok &= (net & (1 << (32 - length)) - 1) == 0
    return net << 6 | length, ok


def _date(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Fields buf[lo:hi] as YYYY-MM-DD dates of the years 1 to 9999: (int64
    days since 1970-01-01, validity)."""
    (year, year_ok), (month, month_ok), (day, day_ok) = (
        _decimal(buf, lo + at, lo + at + width, width, leading_zeros=True) for at, width in ((0, 4), (5, 2), (8, 2)))
    # the first day of the month and of the next, in days since 1970-01-01
    months = (year - 1970) * 12 + np.clip(month, 1, 12) - 1
    first, following = ((months + k).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
                        for k in (0, 1))
    ok = (hi - lo == 10) & (buf[lo + 4] == ord("-")) & (buf[lo + 7] == ord("-")) & year_ok & month_ok & day_ok
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= following - first)
    return first + day - 1, ok


def _attack_type(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Fields buf[lo:hi] as attack type names: (codes into ATTACK_TYPES, validity)."""
    code = np.full(len(lo), len(ATTACK_TYPES))
    for k, name in enumerate(ATTACK_TYPES):
        same = hi - lo == len(name)
        for j, byte in enumerate(name.encode()):
            same &= buf[lo + j] == byte
        code[same] = k
    return code, code < len(ATTACK_TYPES)


def _text(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Fields buf[lo:hi] as UTF-8 text without a double quote: (str objects, validity)."""
    data = buf.tobytes()
    cells = [data[a:b] for a, b in zip(lo.tolist(), hi.tolist())]
    text = {cell: cell.decode(errors="replace") for cell in set(cells)}
    # a cell is UTF-8 when its decoded text encodes back to it
    valid = {cell: b'"' not in cell and value.encode() == cell for cell, value in text.items()}
    return np.array([text[cell] for cell in cells], object), np.array([valid[cell] for cell in cells], bool)


def _ipv4_list(buf, lo, hi) -> tuple[Ragged, np.ndarray]:
    """Fields buf[lo:hi] as ";"-joined dotted-quads, empty items skipped:
    (each field's sorted distinct addresses, validity)."""
    semis = np.flatnonzero(buf[:hi.max(initial=0)] == ord(";"))
    field = np.searchsorted(lo, semis, "right") - 1
    semis = semis[np.searchsorted(hi, semis, "right") == field]     # those inside a field
    # an item runs from a field's start or a semicolon to the next semicolon or the field's end
    starts, ends = np.sort(np.concatenate((lo, semis + 1))), np.sort(np.concatenate((semis, hi)))
    filled = ends > starts
    values, ok = _ipv4(buf, starts[filled], ends[filled])
    owner = np.searchsorted(lo, starts[filled], "right") - 1
    values, bounds = distinct(values, np.searchsorted(owner, np.arange(len(lo) + 1)))
    return Ragged(bounds, values), np.bincount(owner[~ok], minlength=len(lo)) == 0


def _prefixes(col: np.ndarray) -> list[str]:
    return [f"{quad}/{plen}" for quad, plen in zip(dotted_quads((col >> 6).astype(np.uint32)), (col & 63).tolist())]


def _address_lists(col: Ragged) -> list[str]:
    quads, bounds = dotted_quads(col.values), col.bounds.tolist()
    return [";".join(quads[a:b]) if a < b else "" for a, b in zip(bounds, bounds[1:])]


# The text of each flags bitmask and each attack type code, looked up a column at a time
_NAMED_FLAGS, _NAMED_TYPES = np.array(FLAG_STRINGS, object), np.array(ATTACK_TYPES, object)
# By a column's parser: what a field must be, where {i} stands for the
# parser's argument i, and the cells that write a column of the parser's
# values so that it reads them back, given the column and those arguments
_FIELD_KINDS = {
    _decimal: ("a canonical decimal of at most {} digits", lambda col, *_: col.tolist()),
    _fixed: ("a canonical decimal of at most {} digits, then optionally '.' and 1 to {} digits",
             lambda col, width, places: list(map(f"%.{places}f".__mod__, col.tolist()))),
    _ipv4: ("an IPv4 dotted-quad", dotted_quads),
    _tcp_flags: ("a sequence of the TCP flag letters S, A, R, F",
                 lambda col: _NAMED_FLAGS[col].tolist()),
    _prefix: ("a dotted-quad, optionally then '/' and a length of 0 to 32, with no host bits set", _prefixes),
    _date: ("a YYYY-MM-DD date", iso_dates),
    _attack_type: (f"one of {', '.join(ATTACK_TYPES)}", lambda col: _NAMED_TYPES[col].tolist()),
    _text: ("UTF-8 text without a double quote", np.ndarray.tolist),
    _ipv4_list: ("a ';'-joined list of IPv4 dotted-quads", _address_lists),
}


def _rejection(line: str, fields, failed) -> str:
    """Why `line` is rejected, given what `_parse_rows` found it fails first."""
    cells = line.split(",")
    if failed is None:
        return f"expected {len(fields)} fields, got {len(cells)}"
    if isinstance(failed, str):
        return failed
    name, _, parse, *args = fields[failed]
    return f"{name} {cells[failed]!r} is not {_FIELD_KINDS[parse][0].format(*args)}"


# -- packets ----------------------------------------------------------------

_PACKET_FIELDS = (
    ("ts_us", np.int64, _decimal, 18),
    ("protocol", np.uint8, _decimal, 3),
    ("src_ip", np.uint32, _ipv4),
    ("src_port", np.uint16, _decimal, 5),
    ("dst_ip", np.uint32, _ipv4),
    ("dst_port", np.uint16, _decimal, 5),
    ("len_bytes", None, _decimal, 9),       # checked, not kept
    ("tcp_flags", np.uint8, _tcp_flags),
)
PACKETS_HEADER = _header(_PACKET_FIELDS)


def _packet_checks(ts, protocol, src, src_port, dst, dst_port, len_bytes, flags, *sensor):
    return [
        (f"ts_us above {MAX_TS_US}", ts <= MAX_TS_US),
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
    does not raises FormatError naming its line. len_bytes is checked but
    not kept.
    """
    fields = _PACKET_FIELDS + (((sensor_col, np.uint32, _ipv4),) if sensor_col else ())
    columns = _read_columns(path, fields, _packet_checks)
    if sensor_col:
        columns[4] = columns.pop()
    return PacketBatch(*columns)


def write_packets(path, packets: PacketBatch, len_bytes) -> None:
    """Write packets.csv, one row per packet in batch order, with the
    packet lengths `len_bytes`: one per row, or one for every row."""
    *head, flags = packets.columns()
    _write_columns(path, _PACKET_FIELDS, (*head, np.broadcast_to(len_bytes, (len(packets),)), flags))


# -- attacks ----------------------------------------------------------------

_ATTACK_FIELDS = (
    ("observatory", np.str_, _text),
    ("attack_type", np.uint8, _attack_type),
    ("target", np.int64, _prefix),
    ("start_ts_us", np.int64, _decimal, 18),
    ("end_ts_us", np.int64, _decimal, 18),
    ("packets", np.int64, _decimal, 18),
    ("sensors", Ragged, _ipv4_list),
)
ATTACKS_HEADER = _header(_ATTACK_FIELDS)


def _attack_checks(observatory, attack_type, target, start, end, packets, sensors):
    return [
        (f"start_ts_us above {MAX_TS_US}", start <= MAX_TS_US),
        (f"end_ts_us above {MAX_TS_US}", end <= MAX_TS_US),
        ("start_ts after end_ts", start <= end),
        ("target prefix length outside 11-32", target & 63 >= 11),
    ]


def read_attacks(path) -> EventBatch:
    """Load attacks.csv; see README for the row grammar. Rows read back
    without members."""
    observatory, code, target, start, end, packets, sensors = _read_columns(path, _ATTACK_FIELDS, _attack_checks)
    return EventBatch.build(observatory, code, target >> 6, target & 63, start, end, packets, sensors=sensors)


def write_attacks(path, events: EventBatch) -> None:
    """Write attacks.csv, one row per event in batch order."""
    _write_columns(path, _ATTACK_FIELDS, (
        events.observatory, events.type_code, events.net.astype(np.int64) << 6 | events.plen, events.start_ts,
        events.end_ts, events.packets, events.sensors))


# -- flow summaries ----------------------------------------------------------

_FLOW_FIELDS = (
    ("target_ip", np.uint32, _ipv4),
    ("protocol", np.uint8, _decimal, 3),
    ("src_port", np.uint16, _decimal, 5),
    ("distinct_src_ips", np.int64, _decimal, 10),
    ("bitrate_bps", np.float64, _fixed, 16, 6),
    ("start_ts_us", np.int64, _decimal, 18),
    ("end_ts_us", np.int64, _decimal, 18),
)
FLOWS_HEADER = _header(_FLOW_FIELDS)
# a value, not a width, so that every double up to it is written back readable
MAX_BITRATE_BPS = 10 ** 15


def _flow_checks(target, protocol, src_port, sources, bitrate, start, end):
    return [
        ("protocol above 255", protocol <= 255),
        ("src_port above 65535", src_port <= 65535),
        ("distinct_src_ips outside 1-4294967296", (sources >= 1) & (sources <= 2 ** 32)),
        (f"bitrate_bps outside 0-{MAX_BITRATE_BPS}", (bitrate >= 0) & (bitrate <= MAX_BITRATE_BPS)),
        (f"start_ts_us above {MAX_TS_US}", start <= MAX_TS_US),
        (f"end_ts_us above {MAX_TS_US}", end <= MAX_TS_US),
        ("start_ts_us after end_ts_us", start <= end),
    ]


def read_flows(path) -> FlowBatch:
    """Load flows.csv; see README for the row grammar."""
    return FlowBatch(*_read_columns(path, _FLOW_FIELDS, _flow_checks))


def write_flows(path, flows: FlowBatch) -> None:
    """Write flows.csv, one row per flow in batch order."""
    _write_columns(path, _FLOW_FIELDS, flows.columns())


# -- prefix tables -----------------------------------------------------------

_ROUTED_FIELDS = (("prefix", np.int64, _prefix), ("asn", np.int64, _decimal, 10))
_ALLOC_FIELDS = (("prefix", np.int64, _prefix), ("registry", object, _text))
ROUTED_HEADER, ALLOC_HEADER = _header(_ROUTED_FIELDS), _header(_ALLOC_FIELDS)


def _prefix_table(prefix: np.ndarray, value: np.ndarray) -> PrefixTable:
    return PrefixTable((prefix >> 6).astype(np.uint32), (prefix & 63).astype(np.uint8), value)


def read_routed_table(path) -> PrefixTable:
    """Load routed.csv: a prefix table of origin ASNs."""
    return _prefix_table(*_read_columns(path, _ROUTED_FIELDS))


def read_alloc_table(path) -> PrefixTable:
    """Load alloc.csv: a prefix table of registry names, whose blocks must
    be pairwise disjoint."""
    table = _prefix_table(*_read_columns(path, _ALLOC_FIELDS))
    # sorted by (net, length), a block that overlaps another overlaps the next
    order = np.lexsort((table.plen, table.net))
    net, plen = table.net[order].astype(np.int64), table.plen[order].astype(np.int64)
    overlaps = np.flatnonzero(net[1:] <= (net | (1 << (32 - plen)) - 1)[:-1])
    if len(overlaps):
        pair = order[overlaps[0]:overlaps[0] + 2]
        raise FormatError(f"{path}: allocation blocks overlap: "
                          + " and ".join(map(format_prefix, table.net[pair].tolist(), table.plen[pair].tolist())))
    return table


# -- target tuples -----------------------------------------------------------

_TARGET_FIELDS = (("date", np.int64, _date), ("ip", np.uint32, _ipv4))
TARGETS_HEADER = _header(_TARGET_FIELDS)


def read_targets(path) -> np.ndarray:
    """Load targets.csv as target keys (see `model.pack_targets`)."""
    return pack_targets(*_read_columns(path, _TARGET_FIELDS))


def write_targets(path, keys: np.ndarray) -> None:
    """Write targets.csv, one row per key in key order: by date, then by numeric IP."""
    _write_columns(path, _TARGET_FIELDS, unpack_targets(keys))


def read_hashed_targets(path) -> set[str]:
    """The digests of a hashed-target file, one lowercase sha256 hex digest a
    line; blank lines, CRLF ends and whitespace around a digest are allowed."""
    with open(path, "rb") as fh:
        data = fh.read()
    # the usual shape, checked over the whole file at once: lowercase hex digests on LF-ended lines, blank lines allowed
    buf = np.frombuffer(data, np.uint8)
    newline = buf == ord("\n")
    lengths = np.diff(np.flatnonzero(newline), prepend=-1, append=len(buf)) - 1
    digit = (buf >= ord("0")) & (buf <= ord("9"))
    letter = (buf >= ord("a")) & (buf <= ord("f"))
    if ((lengths == 0) | (lengths == 64)).all() and (newline | digit | letter).all():
        return set(data.decode().split())
    # any other shape: check line by line, so an error names the first bad line
    digests = set()
    for lineno, line in _lines(data.split(b"\n"), path):
        line = line.strip()
        if not line:
            continue
        if not _SHA256_HEX.fullmatch(line):
            raise FormatError(f"{path}:{lineno}: not a lowercase sha256 hex digest")
        digests.add(line)
    return digests


# -- weekly series -----------------------------------------------------------

def read_series(path) -> WeeklySeries:
    with open(path) as fh:
        try:
            doc = json.load(fh)
            # json reads NaN and Infinity, and a bool is an int
            bad = [v for v in doc["values"] if v is not None and not (type(v) in (int, float) and math.isfinite(v))]
            if bad:
                raise ValueError(f"value {bad[0]!r} is neither a finite number nor null")
            return WeeklySeries(start_week=date.fromisoformat(doc["start_week"]),
                                values=tuple(None if v is None else float(v) for v in doc["values"]),
                                label=doc.get("label", ""))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad series document: {exc}") from None


def write_series(path, series: WeeklySeries) -> None:
    write_json(path, {"label": series.label, "start_week": series.start_week.isoformat(),
                      "values": list(series.values)})


def write_weekly_csv(path, header: Sequence[str], series: Sequence[WeeklySeries]) -> None:
    """CSV of series on one week grid; `header` names the columns after `week`."""
    with open(path, "w") as fh:
        fh.write(",".join(("week", *header)) + "\n")
        for week, *values in zip(series[0].weeks(), *(s.values for s in series)):
            fh.write(week.isoformat() + "".join(f",{v:.0f}" for v in values) + "\n")


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
