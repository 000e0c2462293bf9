"""Independent brute-force reference implementations.

Everything here recomputes results from first principles with different
algorithms than the package (full window scans, per-flow interval splits,
exhaustive subset enumeration, scipy for correlation p-values) so tests
compare two genuinely separate routes to the same answer.
"""

from __future__ import annotations

import bisect
import re
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Optional

from ddoscope.ioformats import (
    ALLOC_HEADER, ATTACKS_HEADER, FLOWS_HEADER, PACKETS_HEADER, ROUTED_HEADER, TARGETS_HEADER, FormatError,
)
from ddoscope.model import (
    ATTACK_TYPES, EPOCH, FLAG_STRINGS, MAX_TS_US, US_PER_S, EventBatch, FlowBatch, PacketBatch, TargetTuple,
    WeeklySeries, format_prefix, int_to_ip, ip_to_int, keys_to_tuples, pack_targets, parse_prefix, prefix_mask,
    quarter_start, type_code,
)
from ddoscope.overlap import target_digest
from ddoscope.trends import pearson, spearman


# -- readable rows and small helpers ----------------------------------------------

@dataclass(frozen=True)
class AttackEvent:
    """One inferred attack as a readable row, the form tests build and
    compare; the package holds attacks as `model.EventBatch` columns.
    `events_to_batch` and `batch_to_events` convert between the two."""

    observatory: str
    attack_type: str
    target: str                  # "a.b.c.d/len"
    start_ts: int
    end_ts: int
    packets: int
    bytes: Optional[int] = None
    sensors: frozenset = frozenset()
    source_ips: Optional[int] = None
    member_targets: Optional[tuple] = None   # dotted-quads, sorted as text

    def host_targets(self) -> tuple:
        """Host IPs this event stands for (see overlap.build_targets)."""
        net, plen = parse_prefix(self.target)
        if plen == 32:
            return (int_to_ip(net),)
        if self.member_targets is not None:
            return self.member_targets
        raise ValueError(f"prefix event {self.target} has no recorded member hosts")


def event_violation(events: EventBatch) -> Optional[tuple[int, str]]:
    """The first row that breaks an event rule, with the first rule it
    breaks; None when every row holds them all."""
    rules = [
        ("start_ts after end_ts", events.start_ts <= events.end_ts),
        ("negative packet count", events.packets >= 0),
        ("target prefix length {} outside [11, 32]", (events.plen >= 11) & (events.plen <= 32)),
    ]
    for i in range(len(events)):
        for rule, valid in rules:
            if not valid[i]:
                return i, rule.format(events.plen[i])
    return None


def prefix_contains(net: int, plen: int, other_net: int, other_plen: int) -> bool:
    """True when prefix (net, plen) fully contains prefix (other_net, other_plen)."""
    return other_plen >= plen and other_net & prefix_mask(plen) == net


def events_to_batch(events) -> EventBatch:
    """The EventBatch of AttackEvent rows. A row that breaks an event rule
    raises ValueError with the rule's message."""
    rows = []
    for e in events:
        net, plen = parse_prefix(e.target)
        rows.append((e.observatory, type_code(e.attack_type), net, plen, e.start_ts, e.end_ts,
                     e.packets, e.bytes or 0, e.bytes is not None, e.source_ips or 0,
                     sorted(map(ip_to_int, e.sensors)), sorted(map(ip_to_int, e.member_targets or ()))))
    batch = EventBatch.from_rows(rows)
    bad = event_violation(batch)
    if bad is not None:
        raise ValueError(bad[1])
    return batch


def batch_to_events(batch: EventBatch) -> list:
    """The AttackEvent of each row, in row order."""
    return [
        AttackEvent(obs, atype, target, start, end, packets, n_bytes if has_bytes else None,
                    frozenset(map(int_to_ip, sensors)), sources or None,
                    tuple(sorted(map(int_to_ip, members))) or None)
        for obs, atype, target, start, end, packets, n_bytes, has_bytes, sources, sensors, members in zip(
            batch.observatory.tolist(), [ATTACK_TYPES[code] for code in batch.type_code.tolist()],
            map(format_prefix, batch.net.tolist(), batch.plen.tolist()), batch.start_ts.tolist(),
            batch.end_ts.tolist(), batch.packets.tolist(), batch.bytes.tolist(), batch.has_bytes.tolist(),
            batch.source_ips.tolist(), _lists(batch.sensors), _lists(batch.members))
    ]


def _lists(ragged) -> list:
    values, bounds = ragged.values.tolist(), ragged.bounds.tolist()
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


def normalize_tcp_flags(flags: str) -> str:
    """Canonicalize a flag string to S,A,R,F order; rejects unknown letters."""
    for ch in flags:
        if ch not in "SARF":
            raise ValueError(f"unknown TCP flag {ch!r} in {flags!r}")
    return "".join(ch for ch in "SARF" if ch in flags)


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One timestamped packet (or honeypot request) seen at a sensor, as a
    readable row; the package holds packets as `model.PacketBatch` columns.
    `as_batch` and `batch_to_records` convert between the two."""

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


def as_batch(packets) -> PacketBatch:
    """`packets` itself if it is a PacketBatch, else its PacketRecords as one."""
    if isinstance(packets, PacketBatch):
        return packets
    return PacketBatch.from_rows([
        (p.ts, p.protocol, ip_to_int(p.src_ip), p.src_port, ip_to_int(p.dst_ip),
         p.dst_port, p.len_bytes, FLAG_STRINGS.index(p.tcp_flags))
        for p in packets
    ])


def batch_to_records(batch: PacketBatch) -> list:
    """The PacketRecord of each row, in row order."""
    return [
        PacketRecord(ts, proto, int_to_ip(src), sport, int_to_ip(dst), dport, length, FLAG_STRINGS[flags])
        for ts, proto, src, sport, dst, dport, length, flags in zip(
            *(col.tolist() for col in batch.columns()))
    ]


def ts_to_date(ts_us: int) -> date:
    """UTC calendar day of a microsecond epoch timestamp."""
    return datetime.fromtimestamp(ts_us // US_PER_S, tz=timezone.utc).date()


def week_start(d: date) -> date:
    """Monday of the ISO week containing `d`."""
    return d - timedelta(days=d.weekday())


def date_to_ts(d: date) -> int:
    """Microsecond timestamp of UTC midnight of `d`."""
    return int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp()) * US_PER_S


def hash_targets(keys, salt: str) -> set:
    """The digest (see `overlap.target_digest`) of each target key."""
    return {target_digest(t, salt) for t in keys_to_tuples(keys)}


def write_hashed_targets(path, digests) -> None:
    """A hashed-target file: one digest per line, sorted."""
    with open(path, "w") as fh:
        fh.writelines(d + "\n" for d in sorted(digests))


def oracle_read_hashed_targets(path) -> set:
    """Read a hashed-target file line by line: decode each line, strip its
    LF or CRLF end and surrounding whitespace, skip it if that leaves it
    blank, and reject it unless it is 64 lowercase hex digits."""
    digests = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode().strip()
            except UnicodeDecodeError:
                raise FormatError(f"{path}:{lineno}: not UTF-8") from None
            if not line:
                continue
            if not re.fullmatch("[0-9a-f]{64}", line):
                raise FormatError(f"{path}:{lineno}: not a lowercase sha256 hex digest")
            digests.add(line)
    return digests


def oracle_decimal(text: str, width: int, leading_zeros: bool = False) -> Optional[int]:
    """The value of 1 to `width` ASCII digits, with no leading zero unless
    `leading_zeros` allows one, else None."""
    if not re.fullmatch(f"[0-9]{{1,{width}}}", text) or (text[0] == "0" and len(text) > 1 and not leading_zeros):
        return None
    return int(text)


def oracle_ipv4(text: str) -> Optional[int]:
    """The value of four dot-separated canonical octets of 0-255, the rule
    model.ip_to_int applies, else None."""
    octets = [oracle_decimal(octet, 3) for octet in text.split(".")]
    if len(octets) != 4 or any(o is None or o > 255 for o in octets):
        return None
    a, b, c, d = octets
    return a * 2 ** 24 + b * 2 ** 16 + c * 2 ** 8 + d


# -- CSV text of whole files, each built row by row in one join ----------------

def packets_csv(batch: PacketBatch) -> str:
    return "".join([PACKETS_HEADER + "\n"] + [
        f"{p.ts},{p.protocol},{p.src_ip},{p.src_port},{p.dst_ip},{p.dst_port},{p.len_bytes},{p.tcp_flags}\n"
        for p in batch_to_records(batch)])


def attacks_csv(batch: EventBatch) -> str:
    return "".join([ATTACKS_HEADER + "\n"] + [
        f"{e.observatory},{e.attack_type},{e.target},{e.start_ts},{e.end_ts},{e.packets},"
        f"{';'.join(sorted(e.sensors, key=ip_to_int))}\n" for e in batch_to_events(batch)])


def flows_csv(batch: FlowBatch) -> str:
    return "".join([FLOWS_HEADER + "\n"] + [
        f"{int_to_ip(target)},{proto},{sport},{sources},{bitrate:.6f},{start},{end}\n"
        for target, proto, sport, sources, bitrate, start, end in zip(
            *(col.tolist() for col in batch.columns()))])


def targets_csv(keys) -> str:
    return "".join([TARGETS_HEADER + "\n"] + [f"{t.date.isoformat()},{t.ip}\n" for t in keys_to_tuples(keys)])


def min_detectable_rate(n_addresses, pkt_threshold=25, window_s=300.0, packet_bytes=110):
    """Smallest attack a telescope of `n_addresses` can detect, as (pps, bps).

    Assumes spoofed sources are drawn uniformly from the IPv4 space, so the
    telescope samples a n/2^32 fraction of the backscatter: an attack is
    visible when its rate puts `pkt_threshold` sampled packets into one
    `window_s` window. bps applies a flat per-packet size of `packet_bytes`.
    """
    if n_addresses <= 0:
        raise ValueError("n_addresses must be positive")
    if pkt_threshold <= 0 or window_s <= 0 or packet_bytes <= 0:
        raise ValueError("all arguments must be positive")
    pps = pkt_threshold / ((n_addresses / 2 ** 32) * window_s)
    return pps, pps * packet_bytes * 8


# -- telescope ----------------------------------------------------------------

def oracle_detect_rsdos(packets, cfg):
    """Reference RSDoS detector.

    Splits each (protocol, src_ip) packet list wherever two consecutive
    packets are separated by a complete empty accounting interval, then
    evaluates all three thresholds per segment, scanning every
    slide-aligned rate window by brute force. Returns a set of
    (target, start_ts, end_ts, packets) tuples.
    """
    interval_us = int(cfg.interval * US_PER_S)
    flows = defaultdict(list)
    for p in packets:
        flows[(p.protocol, p.src_ip)].append(p.ts)

    events = set()
    for (proto, src), stamps in flows.items():
        segment = [stamps[0]]
        segments = []
        for prev, cur in zip(stamps, stamps[1:]):
            # an entire interval [k*I, (k+1)*I) with no packets ends the flow
            if cur // interval_us - prev // interval_us >= 2:
                segments.append(segment)
                segment = [cur]
            else:
                segment.append(cur)
        segments.append(segment)
        for seg in segments:
            if _segment_is_attack(seg, cfg):
                events.add((f"{src}/32", seg[0], seg[-1], len(seg)))
    return events


def _segment_is_attack(seg, cfg):
    if len(seg) < cfg.pkt_threshold:
        return False
    if seg[-1] - seg[0] < cfg.duration_threshold * US_PER_S:
        return False
    slide_us = int(cfg.rate_slide * US_PER_S)
    window_us = int(cfg.rate_window * US_PER_S)
    first_w = max(0, (seg[0] - window_us) // slide_us * slide_us)
    w = first_w
    while w <= seg[-1]:
        lo = bisect.bisect_left(seg, w)
        hi = bisect.bisect_left(seg, w + window_us)
        if hi - lo >= cfg.rate_pkts:
            return True
        w += slide_us
    return False


# -- honeypot -----------------------------------------------------------------

def oracle_detect_honeypot(packets, definition):
    """Reference flow splitter: group, split on gaps, filter on thresholds.

    Returns a set of (target, start_ts, end_ts, packets, sensors) tuples.
    """
    groups = defaultdict(list)
    for p in packets:
        key = []
        for f in definition.key_fields:
            if f == "src_prefix":
                shift = 32 - definition.src_prefix_len
                key.append((ip_to_int(p.src_ip) >> shift) << shift)
            else:
                key.append(getattr(p, f))
        groups[tuple(key)].append(p)

    timeout_us = definition.timeout * US_PER_S
    out = set()
    for key, pkts in groups.items():
        pkts = sorted(pkts, key=lambda p: p.ts)
        flows = [[pkts[0]]]
        for prev, cur in zip(pkts, pkts[1:]):
            if cur.ts - prev.ts > timeout_us:
                flows.append([cur])
            else:
                flows[-1].append(cur)
        for flow in flows:
            if len(flow) < definition.pkt_threshold:
                continue
            if definition.port_threshold is not None:
                if len({p.dst_port for p in flow}) < definition.port_threshold:
                    continue
            if "src_prefix" in definition.key_fields:
                i = definition.key_fields.index("src_prefix")
                net = key[i]
                target = (
                    f"{net >> 24}.{(net >> 16) & 255}.{(net >> 8) & 255}.{net & 255}"
                    f"/{definition.src_prefix_len}"
                )
            else:
                target = f"{flow[0].src_ip}/32"
            out.add((
                target, flow[0].ts, flow[-1].ts, len(flow),
                frozenset(p.dst_ip for p in flow),
            ))
    return out


def oracle_aggregate_sensors(events, merge_gap):
    """Quadratic fixpoint merger over (observatory, type, target) groups.

    Returns a set of (target, start_ts, end_ts, packets, sensors) tuples.
    """
    gap_us = merge_gap * US_PER_S
    groups = defaultdict(list)
    for e in events:
        groups[(e.observatory, e.attack_type, e.target)].append(
            [e.start_ts, e.end_ts, e.packets, set(e.sensors)]
        )
    out = set()
    for (obs, atype, target), items in groups.items():
        changed = True
        while changed:
            changed = False
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    a, b = items[i], items[j]
                    if a[0] <= b[1] + gap_us and b[0] <= a[1] + gap_us:
                        merged = [min(a[0], b[0]), max(a[1], b[1]), a[2] + b[2], a[3] | b[3]]
                        items = [items[k] for k in range(len(items)) if k not in (i, j)]
                        items.append(merged)
                        changed = True
                        break
                if changed:
                    break
        for start, end, packets, sensors in items:
            out.add((target, start, end, packets, frozenset(sensors)))
    return out


# -- carpet aggregation --------------------------------------------------------

def oracle_aggregate_carpet(events, routed, alloc, concurrency_gap=60.0, min_targets=2):
    """Reference carpet aggregation over AttackEvent rows, one event at a
    time: greedy clustering, earliest start first, where an event joins
    the open cluster of its (observatory, attack type) when it starts
    within the gap of the latest end seen in that cluster. A cluster with
    at least `min_targets` distinct targets merges into the longest routed
    prefix covering them when that is /11 to /28 and one allocation block
    holds them all. Returns rows sorted by (start, network, observatory,
    attack type)."""
    def key(e):
        return (e.start_ts, *parse_prefix(e.target), e.observatory, e.attack_type)

    gap_us = int(concurrency_gap * US_PER_S)
    groups, open_end = {}, {}
    for e in sorted(events, key=key):
        g = (e.observatory, e.attack_type)
        clusters = groups.setdefault(g, [])
        if clusters and e.start_ts <= open_end[g] + gap_us:
            clusters[-1].append(e)
            open_end[g] = max(open_end[g], e.end_ts)
        else:
            clusters.append([e])
            open_end[g] = e.end_ts
    out = []
    for clusters in groups.values():
        for cluster in clusters:
            merged = _oracle_merge(cluster, routed, alloc, min_targets)
            out.extend(cluster if merged is None else [merged])
    return sorted(out, key=key)


def _oracle_merge(cluster, routed, alloc, min_targets):
    targets = {e.target for e in cluster}
    if len({parse_prefix(t) for t in targets}) < min_targets:
        return None
    hit = oracle_longest_covering(routed, targets)
    if hit is None or not 11 <= hit[1] <= 28 or oracle_longest_covering(alloc, targets) is None:
        return None
    members = {h for e in cluster for h in e.host_targets()}
    return AttackEvent(
        observatory=cluster[0].observatory, attack_type=cluster[0].attack_type, target=hit[0],
        start_ts=min(e.start_ts for e in cluster), end_ts=max(e.end_ts for e in cluster),
        packets=sum(e.packets for e in cluster),
        bytes=sum(e.bytes for e in cluster) if all(e.bytes is not None for e in cluster) else None,
        sensors=frozenset().union(*(e.sensors for e in cluster)),
        member_targets=tuple(sorted(members)),
    )


def oracle_longest_covering(table, targets):
    """Exhaustive scan over the rows of a PrefixTable: the most specific
    prefix containing every target prefix ("a.b.c.d/len"). Returns
    (prefix, plen) or None."""
    best = None
    for net, plen in zip(table.net.tolist(), table.plen.tolist()):
        if all(prefix_contains(net, plen, *parse_prefix(t)) for t in targets):
            if best is None or plen > best[1]:
                best = (format_prefix(net, plen), plen)
    return best


# -- the row-by-row CSV reader, reference for the columnar readers -------------

def oracle_read_rows(path, header: str, parse) -> list:
    """(line number, parse(*fields)) of each row of a CSV file, read a line
    at a time. Lines are UTF-8, end in LF or CRLF and may be blank; the
    first other line must equal `header`. A row holding a double quote,
    whose field count differs from the header's, or that `parse` rejects
    with ValueError raises FormatError naming its line."""
    width, rows, seen_header = header.count(",") + 1, [], False
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode().removesuffix("\n").removesuffix("\r")
            except UnicodeDecodeError:
                raise FormatError(f"{path}:{lineno}: not UTF-8") from None
            if not line:
                continue
            if not seen_header:
                if line != header:
                    raise FormatError(f"{path}: expected header {header!r}, got {line!r}")
                seen_header = True
                continue
            fields = line.split(",")
            try:
                if '"' in line:
                    raise ValueError("a double quote in a row; fields are never quoted")
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                rows.append((lineno, parse(*fields)))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not seen_header:
        raise FormatError(f"{path}: empty file")
    return rows


def _canonical_int(text: str, most: Optional[int] = None) -> int:
    """A canonical ASCII decimal: no sign, blank, separator or leading zero, and at most `most`."""
    if not (text.isascii() and text.isdigit()) or (text[0] == "0" and len(text) > 1):
        raise ValueError(f"not a canonical decimal: {text!r}")
    if most is not None and int(text) > most:
        raise ValueError(f"{text} above {most}")
    return int(text)


def _oracle_attack(obs, atype, target, start, end, packets, sensors) -> tuple:
    return (obs, type_code(atype), *parse_prefix(target), _canonical_int(start, MAX_TS_US),
            _canonical_int(end, MAX_TS_US), _canonical_int(packets, 10 ** 18 - 1), 0, False, 0,
            sorted({ip_to_int(s) for s in sensors.split(";") if s}), ())


def oracle_read_attacks(path) -> EventBatch:
    """attacks.csv read row by row; after every row parses, the first row
    that breaks an event rule raises FormatError naming its line."""
    rows = oracle_read_rows(path, ATTACKS_HEADER, _oracle_attack)
    events = EventBatch.from_rows([row for _, row in rows])
    bad = event_violation(events)
    if bad is not None:
        raise FormatError(f"{path}:{rows[bad[0]][0]}: {bad[1]}")
    return events


def oracle_read_table(path, header: str) -> list:
    """(net, plen, value) rows of routed.csv (an ASN) or alloc.csv (a
    registry); overlapping allocation blocks raise FormatError naming the file."""
    routed = header == ROUTED_HEADER
    rows = [row for _, row in oracle_read_rows(
        path, header, lambda prefix, value: (*parse_prefix(prefix), _canonical_int(value) if routed else value))]
    if header == ALLOC_HEADER:
        ordered = sorted(rows, key=lambda row: row[:2])
        for (na, la, _), (nb, lb, _) in zip(ordered, ordered[1:]):
            if prefix_contains(na, la, nb, lb) or prefix_contains(nb, lb, na, la):
                raise FormatError(
                    f"{path}: allocation blocks overlap: {format_prefix(na, la)} and {format_prefix(nb, lb)}")
    return rows


def _oracle_target(day: str, ip: str) -> tuple:
    if date.fromisoformat(day).isoformat() != day:
        raise ValueError(f"not a YYYY-MM-DD date: {day!r}")
    return (date.fromisoformat(day) - EPOCH).days, ip_to_int(ip)


def oracle_read_targets(path):
    """targets.csv read row by row, as target keys."""
    rows = [row for _, row in oracle_read_rows(path, TARGETS_HEADER, _oracle_target)]
    return pack_targets(*zip(*rows)) if rows else pack_targets([], [])


# -- trends ---------------------------------------------------------------------

def oracle_normalize(values, baseline_weeks=15):
    baseline = [v for v in values if v is not None][:baseline_weeks]
    med = statistics.median(baseline)
    return [None if v is None else v / med for v in values]


def oracle_ewma(values, span):
    alpha = 2.0 / (span + 1.0)
    out, y = [], None
    for v in values:
        if v is None:
            out.append(None)
        else:
            y = v if y is None else alpha * v + (1 - alpha) * y
            out.append(y)
    return out


def oracle_slope(points):
    """OLS slope via numpy.polyfit on (index, value) pairs."""
    import numpy as np

    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    return float(np.polyfit(xs, ys, 1)[0])


def oracle_spearman(xs, ys):
    from scipy import stats

    rho, p = stats.spearmanr(xs, ys)
    return float(rho), float(p)


def oracle_pearson(xs, ys):
    from scipy import stats

    r = stats.pearsonr(xs, ys)
    return float(r.statistic), float(r.pvalue)


def oracle_t_pvalue(t, df):
    from scipy import stats

    return float(2.0 * stats.t.sf(abs(t), df))


def oracle_quarterly_correlations(a, b, method="spearman"):
    """One correlation per calendar quarter: for each quarter, a contiguous
    week grid over the weeks either series holds in it, and the two series
    cut to that grid, correlated by `trends.spearman` or `trends.pearson`."""
    corr = {"spearman": spearman, "pearson": pearson}[method]
    amap = {a.week_date(i): v for i, v in enumerate(a.values)}
    bmap = {b.week_date(i): v for i, v in enumerate(b.values)}
    weeks = sorted(set(amap) | set(bmap))
    if not weeks:
        return []
    results = []
    q = quarter_start(weeks[0])
    last_q = quarter_start(weeks[-1])
    while q <= last_q:
        next_q = quarter_start(q + timedelta(days=93))
        in_q = [w for w in weeks if q <= w < next_q]
        if in_q:
            grid = []
            w = in_q[0]
            while w <= in_q[-1]:
                grid.append(w)
                w += timedelta(weeks=1)
            sub_a = WeeklySeries(grid[0], tuple(amap.get(w) for w in grid), a.label)
            sub_b = WeeklySeries(grid[0], tuple(bmap.get(w) for w in grid), b.label)
            try:
                results.append((q, corr(sub_a, sub_b)))
            except ValueError:
                results.append((q, None))
        else:
            results.append((q, None))
        q = next_q
    return results


# -- overlap ---------------------------------------------------------------------

def oracle_upset_exclusive(sets_by_label):
    """Per non-empty subset S: |intersection(S) - union(complement)|."""
    labels = list(sets_by_label)
    out = {}
    n = len(labels)
    for mask in range(1, 1 << n):
        inside = [sets_by_label[labels[i]] for i in range(n) if mask & (1 << i)]
        outside = [sets_by_label[labels[i]] for i in range(n) if not mask & (1 << i)]
        acc = set(inside[0])
        for s in inside[1:]:
            acc &= s
        for s in outside:
            acc -= s
        out[frozenset(labels[i] for i in range(n) if mask & (1 << i))] = len(acc)
    return out


def oracle_build_targets(events, mode="start_date"):
    """Victim tuples as a set of TargetTuples, one date at a time: the
    start date, or with mode "per_day" every date from start to end."""
    tuples = set()
    for e in events:
        d = ts_to_date(e.start_ts)
        last = d if mode == "start_date" else ts_to_date(e.end_ts)
        while d <= last:
            tuples.update(TargetTuple(d, ip) for ip in e.host_targets())
            d += timedelta(days=1)
    return tuples


def oracle_overlap_timeseries(a, b, labels=("a", "b")):
    """Weekly sums of per-date tuple counts of TargetTuple sets a, b and
    a & b on one Monday-start week grid covering both."""
    union = a | b
    start = week_start(min(t.date for t in union))
    n_weeks = (week_start(max(t.date for t in union)) - start).days // 7 + 1

    def weekly(tuples, label):
        values = [0.0] * n_weeks
        for day, count in Counter(t.date for t in tuples).items():
            values[(week_start(day) - start).days // 7] += count
        return WeeklySeries(start, tuple(values), label)

    return weekly(a, labels[0]), weekly(b, labels[1]), weekly(a & b, f"{labels[0]}&{labels[1]}")


def oracle_confirm_share(local_tuples, external_tuples):
    """Plaintext join: fraction of local tuples present in the external set."""
    if not local_tuples:
        return 0.0
    return len(set(local_tuples) & set(external_tuples)) / len(local_tuples)


# -- flow classification --------------------------------------------------------

def oracle_classify_flow(protocol, src_port, distinct_src_ips, bitrate_bps, ampl_ports):
    """The per-row flow rule: "RA" for UDP from an amplification port with
    at least 10 sources above 1 Gbit/s, "DP" for TCP with at least 10
    sources above 100 Mbit/s, else None."""
    if protocol == 17 and src_port in ampl_ports and distinct_src_ips >= 10 and bitrate_bps > 1e9:
        return "RA"
    if protocol == 6 and distinct_src_ips >= 10 and bitrate_bps > 1e8:
        return "DP"
    return None
