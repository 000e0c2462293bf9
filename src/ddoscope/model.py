"""Core domain types shared by every detector and analysis stage.

IPv4 only. Packets, flow summaries, attack events and target sets are
numpy columns, and addresses inside them are uint32; dotted-quad strings
appear only in files, messages and the readable row types. All types
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import ClassVar, Iterable, NamedTuple, Optional, Sequence

import numpy as np

KEY_FIELDS = ("protocol", "src_ip", "src_prefix", "src_port", "dst_ip", "dst_port")


# ---------------------------------------------------------------------------
# IPv4 helpers
# ---------------------------------------------------------------------------

# Every valid octet and prefix length spelling: ASCII decimal 0-255, or
# 0-32, without leading zeros.
_OCTETS = {str(i): i for i in range(256)}
_PREFIX_LENGTHS = {str(i): i for i in range(33)}


def ip_to_int(ip: str) -> int:
    """Parse a dotted-quad IPv4 address. IPv6 (or anything else) is rejected."""
    try:
        a, b, c, d = ip.split(".")
        return (_OCTETS[a] << 24) | (_OCTETS[b] << 16) | (_OCTETS[c] << 8) | _OCTETS[d]
    except (ValueError, KeyError):
        raise ValueError(f"not an IPv4 address: {ip!r}") from None


def int_to_ip(value: int) -> str:
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 int out of range: {value}")
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


# Decimal digits of each octet value, padded to three with zero bytes
_OCTET_DIGITS = np.array([list(str(i).encode().ljust(3, b"\0")) for i in range(256)], np.uint8)


def dotted_quads(col: np.ndarray) -> list[str]:
    """Each address of a uint32 column as a dotted-quad."""
    # 16 bytes an address: each octet's padded digits, then "." or, after
    # the last, "\n"; without the padding they are the lines of the quads
    text = np.empty((len(col), 4, 4), np.uint8)
    text[:, :, :3] = _OCTET_DIGITS[col[:, None] >> np.array([24, 16, 8, 0]) & 255]
    text[:, :, 3] = ord(".")
    text[:, 3, 3] = ord("\n")
    return text.tobytes().replace(b"\0", b"").decode().split("\n")[:-1]


def parse_prefix(prefix: str) -> tuple[int, int]:
    """Parse "a.b.c.d/len" into (network int, prefix length), len being a
    canonical decimal 0-32.

    Host bits must be zero; "a.b.c.d" alone is treated as a /32.
    """
    addr, slash, lenstr = prefix.partition("/")
    if not slash:
        return ip_to_int(addr), 32
    plen = _PREFIX_LENGTHS.get(lenstr)
    if plen is None:
        raise ValueError(f"bad prefix length in {prefix!r}")
    net = ip_to_int(addr)
    if net & ((1 << (32 - plen)) - 1):
        raise ValueError(f"host bits set in prefix {prefix!r}")
    return net, plen


def prefix_mask(plen: int) -> int:
    return (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF if plen else 0


def format_prefix(net: int, plen: int) -> str:
    return f"{int_to_ip(net)}/{plen}"


# ---------------------------------------------------------------------------
# Time helpers: microsecond timestamps, UTC dates, ISO weeks starting Monday
# ---------------------------------------------------------------------------

US_PER_S = 1_000_000
US_PER_DAY = 86_400 * US_PER_S
# 9999-12-31T23:59:59.999999Z, the last instant a `date` can hold
MAX_TS_US = 253_402_300_799_999_999
EPOCH = date(1970, 1, 1)


def week_index(days: np.ndarray) -> np.ndarray:
    """Index of the Monday-to-Sunday week of each UTC day number;
    1970-01-01 was a Thursday."""
    return (days + 3) // 7


def week_monday(week: int) -> date:
    """The Monday that starts week index `week` (see `week_index`)."""
    return EPOCH + timedelta(days=7 * week - 3)


def week_counts(days: np.ndarray, first_week: int, n_weeks: int, label: str = "") -> "WeeklySeries":
    """How many of the UTC day numbers `days` fall in each of the `n_weeks`
    weeks from week index `first_week` on."""
    values = np.bincount(week_index(days) - first_week, minlength=n_weeks)
    return WeeklySeries(week_monday(first_week), tuple(values.astype(float).tolist()), label)


def quarter_start(d: date) -> date:
    return date(d.year, 3 * ((d.month - 1) // 3) + 1, 1)


# ---------------------------------------------------------------------------
# Packets and flow summaries
# ---------------------------------------------------------------------------

# TCP flag bits of PacketBatch.flags, and the canonical string of each
# mask, its letters in S, A, R, F order ("SA", "AR", ...)
FLAG_S, FLAG_A, FLAG_R, FLAG_F = 1, 2, 4, 8
FLAG_STRINGS = tuple(
    "".join(ch for bit, ch in enumerate("SARF") if mask >> bit & 1) for mask in range(16)
)


@dataclass(frozen=True, eq=False)
class Ragged:
    """A column of integer lists: row i holds values[bounds[i]:bounds[i + 1]].
    The lists of an EventBatch hold uint32 addresses."""

    bounds: np.ndarray      # int64, one more than the rows
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.bounds) - 1

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "Ragged":
        bounds = np.cumsum([0] + [len(values) for values in lists], dtype=np.int64)
        return cls(bounds, np.array([v for values in lists for v in values], np.uint32))

    def __getitem__(self, index) -> "Ragged":
        """Rows selected by a slice, an index array or a boolean mask."""
        starts = self.bounds[:-1][index]
        lengths = self.bounds[1:][index] - starts
        bounds = np.cumsum(np.append(0, lengths), dtype=np.int64)
        return Ragged(bounds, self.values[np.repeat(starts - bounds[:-1], lengths) + np.arange(bounds[-1])])

    @staticmethod
    def concat(parts: Sequence["Ragged"]) -> "Ragged":
        shifts = np.cumsum([0] + [len(p.values) for p in parts])
        return Ragged(np.concatenate([[0]] + [p.bounds[1:] + s for p, s in zip(parts, shifts)]),
                      np.concatenate([p.values for p in parts]))

    def union(self, runs: np.ndarray) -> "Ragged":
        """The sorted distinct values of each run of rows, run r being rows
        runs[r] to runs[r + 1] - 1."""
        values, bounds = distinct(self.values, self.bounds[runs])
        return Ragged(bounds, values)


def distinct(values: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct `values` (uint32 or narrower) of each run `bounds` cuts them
    into: the values sorted by run then value, and each run's bounds in them."""
    pairs = np.repeat(np.arange(len(bounds) - 1, dtype=np.int64) << 32, np.diff(bounds))
    pairs |= values
    pairs.sort()
    # marked with one byte a value, where np.diff would take two int64s
    first = np.ones(len(pairs), bool)
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    pairs = pairs[first]
    return (pairs & 0xFFFFFFFF).astype(values.dtype), np.searchsorted(pairs >> 32, np.arange(len(bounds)))


@dataclass(frozen=True, eq=False)
class _Columns:
    """Rows as columns of one length; a subclass names the columns as its
    fields and gives their dtypes, in field order, in DTYPES. A column is a
    numpy array, or a Ragged where DTYPES says so. Rows are validated before
    they get here, by a CSV reader or the code that made them."""

    DTYPES: ClassVar[dict] = {}

    def __post_init__(self):
        if len({len(col) for col in self.columns()}) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length")

    def columns(self) -> tuple:
        """The columns in DTYPES order."""
        return tuple(getattr(self, name) for name in self.DTYPES)

    def __len__(self) -> int:
        return len(self.columns()[0])

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]):
        """Rows of Python values, each a tuple in column order."""
        cols = zip(*rows) if rows else [()] * len(cls.DTYPES)
        return cls(*(Ragged.from_lists(col) if dtype is Ragged else np.array(col, dtype=dtype)
                     for col, dtype in zip(cols, cls.DTYPES.values())))

    def take(self, index: np.ndarray):
        """Rows selected by an index array or a boolean mask."""
        return type(self)(*(col[index] for col in self.columns()))

    @classmethod
    def concat(cls, batches: Sequence):
        """The rows of `batches` in order; a single batch is returned as it is."""
        if not batches:
            return cls.from_rows(())
        if len(batches) == 1:
            return batches[0]
        return cls(*(Ragged.concat(cols) if isinstance(cols[0], Ragged) else np.concatenate(cols)
                     for cols in zip(*(b.columns() for b in batches))))


@dataclass(frozen=True, eq=False)
class PacketBatch(_Columns):
    """Packets as numpy columns, one row per packet, in input order.

    Addresses are uint32 and `flags` is a bitmask of FLAG_S/A/R/F. The
    packet length of packets.csv is checked on reading but not kept: no
    detector reads it.
    """

    ts: np.ndarray          # microseconds since Unix epoch
    protocol: np.ndarray
    src: np.ndarray
    src_port: np.ndarray
    dst: np.ndarray         # the sensor
    dst_port: np.ndarray
    flags: np.ndarray

    DTYPES = {"ts": np.int64, "protocol": np.uint8, "src": np.uint32, "src_port": np.uint16,
              "dst": np.uint32, "dst_port": np.uint16, "flags": np.uint8}


@dataclass(frozen=True, eq=False)
class FlowBatch(_Columns):
    """Flow summaries as numpy columns, one row per summary of the traffic
    toward one target over one window."""

    target: np.ndarray             # uint32 address
    protocol: np.ndarray
    src_port: np.ndarray
    distinct_src_ips: np.ndarray
    bitrate_bps: np.ndarray
    start_ts: np.ndarray           # microseconds since Unix epoch
    end_ts: np.ndarray

    DTYPES = {"target": np.uint32, "protocol": np.uint8, "src_port": np.uint16, "distinct_src_ips": np.int64,
              "bitrate_bps": np.float64, "start_ts": np.int64, "end_ts": np.int64}


@dataclass(frozen=True, slots=True)
class AttackDefinition:
    """Parameterized detection rule (flow identifier + timeout + thresholds)."""

    key_fields: tuple[str, ...]
    timeout: float                                   # seconds
    pkt_threshold: int
    duration_threshold: Optional[float] = None       # seconds
    port_threshold: Optional[int] = None             # min distinct dst ports
    src_prefix_len: int = 24

    def __post_init__(self):
        for f in self.key_fields:
            if f not in KEY_FIELDS:
                raise ValueError(f"unknown key field {f!r}")
        if len(set(self.key_fields)) != len(self.key_fields):
            raise ValueError("duplicate key fields")
        if "src_ip" in self.key_fields and "src_prefix" in self.key_fields:
            raise ValueError("key cannot contain both src_ip and src_prefix")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.pkt_threshold < 1:
            raise ValueError("pkt_threshold must be >= 1")
        if self.port_threshold is not None and self.port_threshold < 1:
            raise ValueError("port_threshold must be >= 1")
        if not 1 <= self.src_prefix_len <= 32:
            raise ValueError("src_prefix_len must be in [1, 32]")


# ---------------------------------------------------------------------------
# Attack events
# ---------------------------------------------------------------------------

# Attack types by code; in name order, so codes sort as the names do
ATTACK_TYPES = ("DP", "RA", "RSDoS")
_TYPE_CODES = {name: code for code, name in enumerate(ATTACK_TYPES)}


def type_code(name: str) -> int:
    try:
        return _TYPE_CODES[name]
    except KeyError:
        raise ValueError(f"unknown attack type {name!r}") from None


@dataclass(frozen=True, eq=False)
class EventBatch(_Columns):
    """Inferred attacks as columns, one row per attack: the unit every
    downstream analysis counts.

    The target is the prefix (net, plen), a host /32 unless prefix keying
    or carpet aggregation produced it. `members` keeps the host targets of
    a prefix row so overlap analysis stays host-granular; it is not part of
    the attacks.csv schema, so prefix rows read back have none recorded.
    Rows start no later than they end and target a /11 to /32: detectors
    make them so, and `read_attacks` checks them.
    """

    observatory: np.ndarray     # str
    type_code: np.ndarray       # index into ATTACK_TYPES
    net: np.ndarray             # uint32 network address of the target
    plen: np.ndarray            # target prefix length
    start_ts: np.ndarray        # microseconds since Unix epoch
    end_ts: np.ndarray
    packets: np.ndarray
    sensors: Ragged             # sorted distinct sensor addresses
    members: Ragged             # sorted distinct member hosts

    DTYPES = {"observatory": np.str_, "type_code": np.uint8, "net": np.uint32, "plen": np.uint8,
              "start_ts": np.int64, "end_ts": np.int64, "packets": np.int64, "sensors": Ragged,
              "members": Ragged}

    @classmethod
    def build(cls, observatory, type_code, net, plen, start_ts, end_ts, packets, *,
              sensors: Optional[Ragged] = None, members: Optional[Ragged] = None) -> "EventBatch":
        """Rows from columns and scalars, which are broadcast; sensors and
        members left out are empty."""
        n = len(start_ts)
        given = {"type_code": type_code, "net": net, "plen": plen, "start_ts": start_ts,
                 "end_ts": end_ts, "packets": packets}
        empty = Ragged(np.zeros(n + 1, np.int64), np.empty(0, np.uint32))
        return cls(np.full(n, observatory), **{k: np.full(n, v, cls.DTYPES[k]) for k, v in given.items()},
                   sensors=empty if sensors is None else sensors, members=empty if members is None else members)

    def ordered(self) -> "EventBatch":
        """The rows by (start, net, plen, observatory, attack type), ties in
        row order."""
        return self.take(np.lexsort((self.type_code, observatory_codes(self.observatory),
                                     self.plen, self.net, self.start_ts)))


def observatory_codes(observatory: np.ndarray) -> np.ndarray:
    """A code per row that orders and groups rows as their observatory
    names do."""
    if not len(observatory) or (observatory == observatory[0]).all():
        return np.zeros(len(observatory), np.int64)
    return np.unique(observatory, return_inverse=True)[1]


def host_targets(events: EventBatch) -> Ragged:
    """The host addresses each row stands for: its own for a /32, else its
    recorded members."""
    prefix = events.plen < 32
    counts = np.where(prefix, np.diff(events.members.bounds), 1)
    missing = np.flatnonzero(counts == 0)
    if len(missing):
        i = missing[0]
        raise ValueError(
            f"prefix event {format_prefix(int(events.net[i]), int(events.plen[i]))} has no recorded member hosts; "
            "derive targets from pre-aggregation events"
        )
    bounds = np.cumsum(np.append(0, counts), dtype=np.int64)
    hosts = np.repeat(events.net, counts)
    members = events.members[prefix]
    hosts[np.repeat(bounds[:-1][prefix] - members.bounds[:-1], np.diff(members.bounds))
          + np.arange(len(members.values))] = members.values
    return Ragged(bounds, hosts)


def time_clusters(events: EventBatch, group: Sequence[np.ndarray], gap_us: int) -> tuple[np.ndarray, np.ndarray]:
    """Cluster the rows of each group in time; rows equal in every column of
    `group` are one group.

    Rows are ordered by (group, start, net, plen). A row opens a new cluster
    when it is the first of its group or starts more than `gap_us` after
    the running maximum of the ends before it in its group. Returns
    (order, bounds): cluster c is rows order[bounds[c]:bounds[c + 1]].
    """
    order = np.lexsort((events.plen, events.net, events.start_ts, *group[::-1]))
    start, end = events.start_ts[order], events.end_ts[order]
    first = np.zeros(len(order), bool)
    first[:1] = True
    for key in group:
        key = key[order]
        first[1:] |= key[1:] != key[:-1]
    # the running max of end within each group, taken over the ranks of the
    # ends raised by a per-group offset, so no group sees another's ends
    ends, rank = np.unique(end, return_inverse=True)
    offset = (np.cumsum(first) - 1) * len(ends)
    reach = ends[np.maximum.accumulate(offset + rank) - offset]
    first[1:] |= start[1:] - reach[:-1] > gap_us
    return order, np.append(np.flatnonzero(first), len(order))


def merge_runs(events: EventBatch, bounds: np.ndarray, net, plen, members: Ragged) -> EventBatch:
    """One row per run of rows, run r being rows bounds[r] to
    bounds[r + 1] - 1: target (net[r], plen[r]), the span union, packets
    summed, sensors unioned, and the union of `members` (one list per row)
    as its members."""
    starts = bounds[:-1]
    return EventBatch(
        events.observatory[starts], events.type_code[starts], np.asarray(net, np.uint32),
        np.asarray(plen, np.uint8), np.minimum.reduceat(events.start_ts, starts),
        np.maximum.reduceat(events.end_ts, starts), np.add.reduceat(events.packets, starts),
        events.sensors.union(bounds), members.union(bounds))


class TargetTuple(NamedTuple):
    """Victim identifier used by all overlap analyses, as a readable row.

    The analyses hold target sets as keys (see `pack_targets`);
    `tuples_to_keys` and `keys_to_tuples` convert between the two.
    """

    date: date
    ip: str


def pack_targets(days, ips) -> np.ndarray:
    """The target set of (UTC day number since 1970-01-01, uint32 host)
    pairs: one sorted, duplicate-free int64 array of keys day << 32 | ip.
    Sorting the keys orders the targets by date, then by numeric IP."""
    keys = np.sort(np.asarray(days, np.int64) << 32 | np.asarray(ips, np.int64))
    first = np.ones(len(keys), bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def unpack_targets(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(day numbers, uint32 hosts) of target keys."""
    return keys >> 32, (keys & 0xFFFFFFFF).astype(np.uint32)


def iso_dates(days: np.ndarray) -> list[str]:
    """The YYYY-MM-DD text of each UTC day number since 1970-01-01."""
    distinct, index = np.unique(days, return_inverse=True)
    spelled = [(EPOCH + timedelta(days=d)).isoformat() for d in distinct.tolist()]
    return [spelled[i] for i in index.tolist()]


def target_text(keys: np.ndarray) -> tuple[list[str], list[str]]:
    """The YYYY-MM-DD date and the dotted-quad of each target key."""
    days, ips = unpack_targets(keys)
    return iso_dates(days), dotted_quads(ips)


def tuples_to_keys(tuples: Iterable[TargetTuple]) -> np.ndarray:
    """The target set of TargetTuples, as keys."""
    rows = [((t.date - EPOCH).days, ip_to_int(t.ip)) for t in tuples]
    return pack_targets(*zip(*rows)) if rows else np.empty(0, np.int64)


def keys_to_tuples(keys: np.ndarray) -> list[TargetTuple]:
    """The TargetTuple of each key, in key order."""
    days, ips = unpack_targets(keys)
    return [TargetTuple(EPOCH + timedelta(days=d), int_to_ip(ip))
            for d, ip in zip(days.tolist(), ips.tolist())]


# ---------------------------------------------------------------------------
# Prefix tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PrefixTable(_Columns):
    """Prefixes with one value each: a routed table's origin ASNs, or a
    registry's allocation blocks. Prefixes may nest."""

    net: np.ndarray         # uint32 network address
    plen: np.ndarray        # prefix length
    value: np.ndarray

    DTYPES = {"net": np.uint32, "plen": np.uint8, "value": None}

    def containing(self, lo, hi) -> np.ndarray:
        """For each pair of `lo` and `hi` addresses, the row of the longest
        prefix that holds every address from lo to hi, or -1; of equal
        prefixes, the last row."""
        lo, hi = np.asarray(lo, np.int64), np.asarray(hi, np.int64)
        found = np.full(len(lo), -1, np.int64)
        for plen in np.flatnonzero(np.bincount(self.plen, minlength=33))[::-1].tolist():
            rows = np.flatnonzero(self.plen == plen)
            shift = 32 - plen
            nets = self.net[rows].astype(np.int64) >> shift
            order = np.argsort(nets, kind="stable")
            at = np.searchsorted(nets[order], lo >> shift, "right") - 1
            hit = (found < 0) & (at >= 0) & (hi >> shift == lo >> shift) & (nets[order[at]] == lo >> shift)
            found[hit] = rows[order[at[hit]]]
        return found


# ---------------------------------------------------------------------------
# Weekly series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeeklySeries:
    """Week-indexed counts. None marks missing data (never imputed); weeks
    observed with no attacks hold an explicit 0.
    """

    start_week: date
    values: tuple[Optional[float], ...]
    label: str = ""

    def __post_init__(self):
        if self.start_week.weekday() != 0:
            raise ValueError(f"start_week {self.start_week} is not a Monday")
        for v in self.values:
            if v is not None and v < 0:
                raise ValueError(f"negative series value: {v}")
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def week_date(self, i: int) -> date:
        return self.start_week + timedelta(weeks=i)

    def weeks(self) -> list[date]:
        return [self.week_date(i) for i in range(len(self.values))]

    def with_values(self, values: Sequence[Optional[float]], label: Optional[str] = None) -> "WeeklySeries":
        return WeeklySeries(self.start_week, tuple(values), self.label if label is None else label)
