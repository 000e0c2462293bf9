"""Independent brute-force reference implementations.

Everything here recomputes results from first principles with different
algorithms than the package (full window scans, per-flow interval splits,
exhaustive subset enumeration, scipy for correlation p-values) so tests
compare two genuinely separate routes to the same answer.
"""

from __future__ import annotations

import bisect
import statistics
from collections import Counter, defaultdict
from datetime import timedelta

from ddoscope.model import (
    US_PER_S, TargetTuple, WeeklySeries, ip_to_int, parse_prefix, prefix_contains, ts_to_date, week_start,
)


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

def oracle_longest_covering(routed_entries, targets):
    """Exhaustive scan: most specific routed prefix containing every target
    prefix. Returns (prefix, plen) or None."""
    best = None
    for prefix, _asn in routed_entries:
        net, plen = parse_prefix(prefix)
        if all(
            prefix_contains(net, plen, *parse_prefix(t)) for t in targets
        ):
            if best is None or plen > best[1]:
                best = (prefix, plen)
    return best


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
