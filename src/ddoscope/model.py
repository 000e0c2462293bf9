"""Core domain types shared by every detector and analysis stage.

IPv4 only: addresses are dotted-quad strings at the API surface and
32-bit ints wherever prefix arithmetic happens. All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from typing import ClassVar, Iterable, NamedTuple, Optional, Sequence

import numpy as np

ATTACK_TYPES = ("RSDoS", "RA", "DP")

# Canonical order for the tcp_flags string ("SA", "AR", ...).
_FLAG_ORDER = "SARF"

KEY_FIELDS = ("protocol", "src_ip", "src_prefix", "src_port", "dst_ip", "dst_port")


# ---------------------------------------------------------------------------
# IPv4 helpers
# ---------------------------------------------------------------------------

# Every valid octet spelling: ASCII decimal 0-255 without leading zeros.
_OCTETS = {str(i): i for i in range(256)}


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


def _each_distinct(col: np.ndarray, texts) -> list[str]:
    """The text of each value of `col`, where `texts(values)` spells a list
    of values and is given each distinct value once."""
    distinct, index = np.unique(col, return_inverse=True)
    spelled = texts(distinct.tolist())
    return [spelled[i] for i in index.tolist()]


# Decimal spelling of each octet value
_OCTET_TEXT = tuple(str(i) for i in range(256))


def dotted_quads(col: np.ndarray) -> list[str]:
    """Each address of a uint32 column as a dotted-quad."""
    o = _OCTET_TEXT
    return _each_distinct(col, lambda values: [
        f"{o[v >> 24]}.{o[v >> 16 & 255]}.{o[v >> 8 & 255]}.{o[v & 255]}" for v in values])


def parse_prefix(prefix: str) -> tuple[int, int]:
    """Parse "a.b.c.d/len" into (network int, prefix length).

    Host bits must be zero; "a.b.c.d" alone is treated as a /32.
    """
    addr, slash, lenstr = prefix.partition("/")
    if not slash:
        return ip_to_int(addr), 32
    if not (lenstr.isascii() and lenstr.isdigit()) or int(lenstr) > 32:
        raise ValueError(f"bad prefix length in {prefix!r}")
    plen = int(lenstr)
    net = ip_to_int(addr)
    if net & ((1 << (32 - plen)) - 1):
        raise ValueError(f"host bits set in prefix {prefix!r}")
    return net, plen


def prefix_mask(plen: int) -> int:
    return (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF if plen else 0


def format_prefix(net: int, plen: int) -> str:
    return f"{int_to_ip(net)}/{plen}"


def prefix_contains(net: int, plen: int, other_net: int, other_plen: int) -> bool:
    """True when prefix (net, plen) fully contains prefix (other_net, other_plen)."""
    if other_plen < plen:
        return False
    return (other_net & prefix_mask(plen)) == net


def normalize_tcp_flags(flags: str) -> str:
    """Canonicalize a flag string to S,A,R,F order; rejects unknown letters."""
    seen = set()
    for ch in flags:
        if ch not in _FLAG_ORDER:
            raise ValueError(f"unknown TCP flag {ch!r} in {flags!r}")
        seen.add(ch)
    return "".join(ch for ch in _FLAG_ORDER if ch in seen)


# ---------------------------------------------------------------------------
# Time helpers: microsecond timestamps, UTC dates, ISO weeks starting Monday
# ---------------------------------------------------------------------------

US_PER_S = 1_000_000
US_PER_DAY = 86_400 * US_PER_S
# 9999-12-31T23:59:59.999999Z, the last instant a `date` can hold
MAX_TS_US = 253_402_300_799_999_999
EPOCH = date(1970, 1, 1)


def ts_to_date(ts_us: int) -> date:
    """UTC calendar day of a microsecond epoch timestamp."""
    return datetime.fromtimestamp(ts_us // US_PER_S, tz=timezone.utc).date()


def date_to_ts(d: date) -> int:
    """Microsecond timestamp of UTC midnight of `d`."""
    return int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp()) * US_PER_S


def week_start(d: date) -> date:
    """Monday of the ISO week containing `d`."""
    return d - timedelta(days=d.weekday())


def quarter_start(d: date) -> date:
    return date(d.year, 3 * ((d.month - 1) // 3) + 1, 1)


# ---------------------------------------------------------------------------
# Records and events
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One timestamped packet (or honeypot request) seen at a sensor."""

    ts: int                 # microseconds since Unix epoch
    protocol: int           # IP protocol number
    src_ip: str
    src_port: int           # 0 when the protocol has no ports
    dst_ip: str
    dst_port: int
    len_bytes: int
    tcp_flags: str = ""     # canonical subset of "SARF"

    def __post_init__(self):
        if self.ts < 0:
            raise ValueError(f"negative timestamp: {self.ts}")
        ip_to_int(self.src_ip)
        ip_to_int(self.dst_ip)
        if not 0 <= self.protocol <= 255:
            raise ValueError(f"protocol out of range: {self.protocol}")
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"port out of range: {port}")
        if self.protocol not in (6, 17) and (self.src_port or self.dst_port):
            raise ValueError(f"ports must be 0 for protocol {self.protocol}")
        if self.len_bytes < 20:
            raise ValueError(f"len_bytes below IPv4 minimum: {self.len_bytes}")
        if self.tcp_flags:
            object.__setattr__(self, "tcp_flags", normalize_tcp_flags(self.tcp_flags))


# TCP flag bits of PacketBatch.flags, and the canonical string of each mask
FLAG_S, FLAG_A, FLAG_R, FLAG_F = 1, 2, 4, 8
FLAG_STRINGS = tuple(
    "".join(ch for bit, ch in enumerate(_FLAG_ORDER) if mask >> bit & 1) for mask in range(16)
)
_FLAG_MASKS = {s: mask for mask, s in enumerate(FLAG_STRINGS)}


@dataclass(frozen=True, eq=False)
class _Columns:
    """Rows as numpy columns of one length; a subclass names the columns as
    its fields and gives their dtypes, in field order, in DTYPES. Rows are
    validated before they get here: by a CSV reader, or by PacketRecord in
    `as_batch`."""

    DTYPES: ClassVar[dict] = {}

    def __post_init__(self):
        if len({len(col) for col in self.columns()}) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length")

    def columns(self) -> tuple[np.ndarray, ...]:
        """The columns in DTYPES order."""
        return tuple(getattr(self, name) for name in self.DTYPES)

    def __len__(self) -> int:
        return len(self.columns()[0])

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]):
        """Rows of Python values, each a tuple in column order."""
        cols = zip(*rows) if rows else [()] * len(cls.DTYPES)
        return cls(*(np.array(col, dtype=dtype) for col, dtype in zip(cols, cls.DTYPES.values())))

    def take(self, index: np.ndarray):
        """Rows selected by an index array or a boolean mask."""
        return type(self)(*(col[index] for col in self.columns()))

    @classmethod
    def concat(cls, batches: Sequence):
        if not batches:
            return cls.from_rows(())
        return cls(*(np.concatenate(cols) for cols in zip(*(b.columns() for b in batches))))


@dataclass(frozen=True, eq=False)
class PacketBatch(_Columns):
    """Packets as numpy columns, one row per packet, in input order.

    Addresses are uint32 and `flags` is a bitmask of FLAG_S/A/R/F.
    """

    ts: np.ndarray          # microseconds since Unix epoch
    protocol: np.ndarray
    src: np.ndarray
    src_port: np.ndarray
    dst: np.ndarray         # the sensor
    dst_port: np.ndarray
    len_bytes: np.ndarray
    flags: np.ndarray

    DTYPES = {"ts": np.int64, "protocol": np.uint8, "src": np.uint32, "src_port": np.uint16,
              "dst": np.uint32, "dst_port": np.uint16, "len_bytes": np.int64, "flags": np.uint8}

    def records(self) -> list[PacketRecord]:
        """The rows as PacketRecords, for tests and reference implementations."""
        return [
            PacketRecord(ts, proto, int_to_ip(src), sport, int_to_ip(dst), dport, length,
                         FLAG_STRINGS[flags])
            for ts, proto, src, sport, dst, dport, length, flags in zip(
                *(col.tolist() for col in self.columns()))
        ]


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


def as_batch(packets) -> PacketBatch:
    """`packets` itself if it is a PacketBatch, else its records as one."""
    if isinstance(packets, PacketBatch):
        return packets
    return PacketBatch.from_rows([
        (p.ts, p.protocol, ip_to_int(p.src_ip), p.src_port, ip_to_int(p.dst_ip),
         p.dst_port, p.len_bytes, _FLAG_MASKS[p.tcp_flags])
        for p in packets
    ])


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


@dataclass(frozen=True, slots=True)
class AttackEvent:
    """One inferred attack, the unit counted by all downstream analyses.

    `target` is a host /32 unless prefix aggregation produced it.
    `member_targets` preserves the pre-aggregation host targets so overlap
    analysis stays host-granular; it is in-memory only and not part of the
    attacks.csv schema.
    """

    observatory: str
    attack_type: str
    target: str              # "a.b.c.d/len"
    start_ts: int
    end_ts: int
    packets: int
    bytes: Optional[int] = None
    sensors: frozenset[str] = frozenset()
    source_ips: Optional[int] = None
    member_targets: Optional[tuple[str, ...]] = None
    # (network int, prefix length) of `target`: given by a detector that
    # holds it already, in which case `target` must be its canonical text,
    # else parsed from `target` at construction
    _network: Optional[tuple[int, int]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.attack_type not in ATTACK_TYPES:
            raise ValueError(f"unknown attack type {self.attack_type!r}")
        if self.start_ts > self.end_ts:
            raise ValueError("start_ts after end_ts")
        if self.packets < 0:
            raise ValueError("negative packet count")
        if self._network is None:
            net, plen = parse_prefix(self.target)
            # ip_to_int accepts only canonical dotted-quads, so only the length
            # spelling ("/032", or none for a bare address) may need rewriting
            object.__setattr__(self, "target", f"{self.target.partition('/')[0]}/{plen}")
            object.__setattr__(self, "_network", (net, plen))
        plen = self._network[1]
        if not 11 <= plen <= 32:
            raise ValueError(f"target prefix length {plen} outside [11, 32]")
        if not isinstance(self.sensors, frozenset):
            object.__setattr__(self, "sensors", frozenset(self.sensors))

    def target_network(self) -> tuple[int, int]:
        return self._network

    def host_targets(self) -> tuple[str, ...]:
        """Host IPs this event stands for (see build_targets)."""
        net, plen = self._network
        if plen == 32:
            return (int_to_ip(net),)
        if self.member_targets is not None:
            return self.member_targets
        raise ValueError(
            f"prefix event {self.target} has no recorded member hosts; "
            "derive targets from pre-aggregation events"
        )


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


def target_text(keys: np.ndarray) -> tuple[list[str], list[str]]:
    """The YYYY-MM-DD date and the dotted-quad of each target key."""
    days, ips = unpack_targets(keys)
    iso = _each_distinct(days, lambda values: [(EPOCH + timedelta(days=d)).isoformat() for d in values])
    return iso, dotted_quads(ips)


def tuples_to_keys(tuples: Iterable[TargetTuple]) -> np.ndarray:
    """The target set of TargetTuples, as keys."""
    rows = [((t.date - EPOCH).days, ip_to_int(t.ip)) for t in tuples]
    return pack_targets(*zip(*rows)) if rows else np.empty(0, np.int64)


def keys_to_tuples(keys: np.ndarray) -> list[TargetTuple]:
    """The TargetTuple of each key, in key order."""
    days, ips = unpack_targets(keys)
    return [TargetTuple(EPOCH + timedelta(days=d), int_to_ip(ip))
            for d, ip in zip(days.tolist(), ips.tolist())]


def event_sort_key(e: AttackEvent) -> tuple:
    net, plen = e._network
    return (e.start_ts, net, plen, e.observatory, e.attack_type)


# ---------------------------------------------------------------------------
# Prefix tables
# ---------------------------------------------------------------------------

class RoutedPrefixTable:
    """BGP-style routed prefix table with longest-prefix match.

    Overlapping prefixes are allowed; the most specific entry wins. Lookup
    probes one hash table per occupied prefix length, longest first.
    """

    def __init__(self, entries: Iterable[tuple[str, int]]):
        self._by_len: dict[int, dict[int, tuple[str, int]]] = {}
        self.entries: list[tuple[str, int]] = []
        for prefix, asn in entries:
            net, plen = parse_prefix(prefix)
            canon = format_prefix(net, plen)
            self._by_len.setdefault(plen, {})[net] = (canon, int(asn))
            self.entries.append((canon, int(asn)))
        self._lengths = sorted(self._by_len, reverse=True)

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, ip: str) -> Optional[tuple[str, int]]:
        """Most specific (prefix, ASN) covering `ip`, or None."""
        addr = ip_to_int(ip)
        for plen in self._lengths:
            hit = self._by_len[plen].get(addr & prefix_mask(plen))
            if hit is not None:
                return hit
        return None

    def longest_covering(self, net: int, plen: int) -> Optional[tuple[str, int, int]]:
        """Most specific routed prefix fully containing (net, plen).

        Returns (prefix string, prefix length, ASN) or None. Candidates are
        exactly the ancestors of the query prefix, so at most plen+1 probes.
        """
        for length in range(plen, -1, -1):
            bucket = self._by_len.get(length)
            if bucket is None:
                continue
            hit = bucket.get(net & prefix_mask(length))
            if hit is not None:
                return (hit[0], length, hit[1])
        return None


class AllocationTable:
    """Registry allocation blocks; blocks must be pairwise disjoint."""

    def __init__(self, entries: Iterable[tuple[str, str]]):
        self._by_len: dict[int, dict[int, str]] = {}
        self.entries: list[tuple[str, str]] = []
        parsed = []
        for prefix, registry in entries:
            net, plen = parse_prefix(prefix)
            canon = format_prefix(net, plen)
            parsed.append((net, plen, canon))
            self._by_len.setdefault(plen, {})[net] = canon
            self.entries.append((canon, registry))
        self._lengths = sorted(self._by_len, reverse=True)
        parsed.sort(key=lambda t: (t[0], t[1]))
        for (na, la, pa), (nb, lb, pb) in zip(parsed, parsed[1:]):
            if prefix_contains(na, la, nb, lb) or prefix_contains(nb, lb, na, la):
                raise ValueError(f"allocation blocks overlap: {pa} and {pb}")

    def __len__(self) -> int:
        return len(self.entries)

    def block_of(self, ip: str) -> Optional[str]:
        """The unique allocation block containing `ip`, or None."""
        addr = ip_to_int(ip)
        for plen in self._lengths:
            hit = self._by_len[plen].get(addr & prefix_mask(plen))
            if hit is not None:
                return hit
        return None


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
