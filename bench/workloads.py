"""Inputs and planted truth for the three benchmark workloads.

Each builder writes one workload's inputs and pipeline config into a fresh
directory and returns a `Workload`. Its `check` scores a finished bundle
against the truth planted here, never against anything the program
computed: every planted attack sits clearly above the detection thresholds
(25 packets / 60 s / 30 packets per 60 s window for the telescope, the
preset packet counts for honeypots, 10 sources and 100 Mbps / 1 Gbps for
flows) and every decoy sits clearly below them.

Input sizes depend only on the workload, never on the seed: the seed moves
victims, times and which observatory sees what, so runs with different
seeds do the same amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

import numpy as np

T0 = 1_704_067_200          # 2024-01-01T00:00:00Z, a Monday
HOUR = 3600
DAY = 86_400
WEEK = 7 * DAY
US = 1_000_000
HOURS_PER_WEEK = 168

PACKETS_HEADER = "ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags"
FLOWS_HEADER = "target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us"


def ip(value: int) -> str:
    value = int(value)
    return f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


def ip_int(text: str) -> int:
    a, b, c, d = (int(x) for x in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def day_of(ts_us: int) -> str:
    return datetime.fromtimestamp(ts_us // US, tz=timezone.utc).date().isoformat()


def weekly_counts(rng, weeks: int, pattern) -> np.ndarray:
    """Per-week counts that vary week to week but always sum the same."""
    return rng.permutation(np.resize(np.asarray(pattern), weeks))


def hosts_in(rng, prefix: str, n: int) -> list[int]:
    """`n` distinct host addresses drawn from an IPv4 prefix."""
    base, plen = prefix.split("/")
    size = 1 << (32 - int(plen))
    offsets = rng.choice(size - 2, n, replace=False) + 1
    return [ip_int(base) + int(o) for o in offsets]


# -- truth and scoring ---------------------------------------------------------

@dataclass
class Planted:
    """One attack the named bundle file must list exactly once."""

    file: str                     # attacks CSV inside the bundle
    attack_type: str
    target: str
    start: tuple[int, int]        # accepted start_ts_us range, inclusive
    end: tuple[int, int]          # accepted end_ts_us range, inclusive
    packets: Optional[int] = None  # exact count, or None when sampled


@dataclass
class Score:
    recall: float
    precision: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Workload:
    config: Path
    records: Optional[int]       # input packets plus flow rows; None: count from the bundle
    planted: list[Planted]
    files: list[str]             # every attacks CSV that is scored
    extra_checks: list[Callable[[Path], list[str]]] = field(default_factory=list)

    def check(self, bundle: Path) -> Score:
        matched = detected = 0
        problems: list[str] = []
        by_file: dict[str, list[Planted]] = {f: [] for f in self.files}
        for p in self.planted:
            by_file[p.file].append(p)
        for name, planted in by_file.items():
            path = bundle / name
            if not path.exists():
                problems.append(f"{name}: missing")
                continue
            rows = read_attacks(path)
            detected += len(rows)
            free = list(rows)
            for p in planted:
                hit = next((r for r in free if _matches(p, r)), None)
                if hit is None:
                    problems.append(f"{name}: no event for planted {p.attack_type} on {p.target}")
                else:
                    free.remove(hit)
                    matched += 1
            for r in free:
                problems.append(f"{name}: unplanted {r[0]} event on {r[1]} at {r[2]}")
        for extra in self.extra_checks:
            problems.extend(extra(bundle))
        recall = matched / len(self.planted) if self.planted else 0.0
        precision = matched / detected if detected else 0.0
        return Score(recall, precision, problems)


def read_attacks(path: Path) -> list[tuple]:
    with open(path, newline="") as fh:
        return [
            (r["attack_type"], r["target"], int(r["start_ts_us"]),
             int(r["end_ts_us"]), int(r["packets"]))
            for r in csv.DictReader(fh)
        ]


def _matches(p: Planted, row: tuple) -> bool:
    atype, target, start, end, packets = row
    return (
        atype == p.attack_type and target == p.target
        and p.start[0] <= start <= p.start[1] and p.end[0] <= end <= p.end[1]
        and (p.packets is None or packets == p.packets)
    )


def exact(file: str, atype: str, target: str, start: int, end: int, packets: Optional[int]) -> Planted:
    return Planted(file, atype, target, (start, start), (end, end), packets)


# -- writers -------------------------------------------------------------------

def write_packets(path: Path, cols: dict[str, np.ndarray]) -> int:
    """Write a time-ordered packets.csv from column arrays; returns rows."""
    order = np.argsort(cols["ts"], kind="stable")
    c = {k: v[order] for k, v in cols.items()}
    lines = [PACKETS_HEADER]
    lines.extend(
        f"{ts},{proto},{ip(src)},{sport},{ip(dst)},{dport},{length},{flags}"
        for ts, proto, src, sport, dst, dport, length, flags in zip(
            c["ts"].tolist(), c["proto"].tolist(), c["src"].tolist(), c["sport"].tolist(),
            c["dst"].tolist(), c["dport"].tolist(), c["len"].tolist(), c["flags"].tolist(),
        )
    )
    path.write_text("\n".join(lines) + "\n")
    return len(order)


def concat(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def packets(ts, proto, src, sport, dst, dport, length, flags) -> dict[str, np.ndarray]:
    n = len(ts)
    full = lambda v, dt: np.broadcast_to(np.asarray(v, dtype=dt), (n,)).copy()
    return {
        "ts": np.asarray(ts, dtype=np.int64), "proto": full(proto, np.int64),
        "src": full(src, np.int64), "sport": full(sport, np.int64),
        "dst": full(dst, np.int64), "dport": full(dport, np.int64),
        "len": full(length, np.int64), "flags": full(flags, object),
    }


def grid_times(rng, start_us: int, n: int, spacing_s: float) -> np.ndarray:
    """`n` increasing timestamps, one per `spacing_s` slot, jittered inside
    the slot so no gap exceeds two slots."""
    step = int(spacing_s * US)
    return start_us + np.arange(n, dtype=np.int64) * step + rng.integers(0, step, n)


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def analysis(**overrides) -> dict:
    doc = {
        "normalize": True, "ewma_span": 12, "correlation": "spearman",
        "upset": True, "overlap_timeseries": True, "target_mode": "start_date",
    }
    doc.update(overrides)
    return doc


# -- synth-pipeline --------------------------------------------------------------

SYNTH_WEEKS = 17
SYNTH_SENSORS = [f"198.51.100.{i}" for i in range(1, 13)]
SYNTH_TOLERANCE_US = 30 * US   # synth jitters packets inside each second


def synth_pipeline(work: Path, seed: int) -> Workload:
    """A scenario spec run through the whole pipeline, synth included, with
    telescope, hopscotch honeypot and flow observatories at parallelism 1.

    Victims come from one /16, so the builder scales to any number of weeks.
    """
    rng = np.random.default_rng([seed, 1])
    strong_rsdos = weekly_counts(rng, SYNTH_WEEKS, [2, 3, 4])
    strong_refl = weekly_counts(rng, SYNTH_WEEKS, [1, 2, 3])
    per_week_extra = 5   # faint rsdos, faint reflection, amplified, strong and faint direct
    victims = iter(hosts_in(rng, "172.16.0.0/16",
                            int(strong_rsdos.sum() + strong_refl.sum()) + per_week_extra * SYNTH_WEEKS))
    attacks: list[dict] = []
    planted: list[Planted] = []

    def add(kind: str, week: int, slot: int, **spec) -> tuple[str, int, int]:
        victim = ip(next(victims))
        start_s = T0 + week * WEEK + slot * HOUR + int(rng.integers(0, 1800))
        attacks.append({"type": kind, "victim": victim, "start_s": start_s, **spec})
        return victim, start_s * US, (start_s + spec["duration_s"]) * US

    def near(file, atype, victim, s, e, packets=None):
        planted.append(Planted(file, atype, f"{victim}/32", (s, s + SYNTH_TOLERANCE_US),
                               (e - SYNTH_TOLERANCE_US, e), packets))

    for w in range(SYNTH_WEEKS):
        slots = iter(rng.choice(HOURS_PER_WEEK - 1, HOURS_PER_WEEK - 1, replace=False).tolist())
        for _ in range(strong_rsdos[w]):   # ~440 backscatter packets in 300 s
            v, s, e = add("rsdos", w, next(slots), duration_s=300, rate_pps=1500)
            near("attacks_scope.csv", "RSDoS", v, s, e)
        # ~6 backscatter packets, far below 25; 18 kbit/s flow
        add("rsdos", w, next(slots), duration_s=300, rate_pps=20)
        for _ in range(strong_refl[w]):    # 60 requests to each of 5 sensors
            v, s, e = add("reflection", w, next(slots), duration_s=600, rate_pps=0.5,
                          reflector_subset=5)
            near("attacks_hop.csv", "RA", v, s, e, packets=300)
        # 2 requests to one sensor, below hopscotch's 5
        add("reflection", w, next(slots), duration_s=600, rate_pps=1 / 300, reflector_subset=1)
        # amplified NTP: 100 requests to each of 12 sensors, 2.4 Gbit/s from 12 reflectors
        v, s, e = add("reflection", w, next(slots), duration_s=300, rate_pps=4,
                      packet_bytes=500, reflector_subset=12, amplification=150_000.0)
        near("attacks_hop.csv", "RA", v, s, e, packets=1200)
        planted.append(exact("attacks_ixp.csv", "RA", f"{v}/32", s, e, 0))
        # direct-path flood: 1.2 Gbit/s from 100 sources, and an 8 Mbit/s one
        v, s, e = add("direct_nonspoofed", w, next(slots), duration_s=300, rate_pps=150_000,
                      packet_bytes=1000)
        planted.append(exact("attacks_ixp.csv", "DP", f"{v}/32", s, e, 0))
        add("direct_nonspoofed", w, next(slots), duration_s=300, rate_pps=1000, packet_bytes=1000)

    write_json(work / "scenario.json", {
        "seed": seed,
        "duration_s": T0 + SYNTH_WEEKS * WEEK,
        "telescope": {"n_addresses": 2 ** 22},
        "honeypot_sensors": SYNTH_SENSORS,
        "attacks": attacks,
    })
    write_json(work / "pipeline.json", {
        "scenario": "scenario.json",
        "out_dir": "out",
        "parallelism": 1,
        "observatories": [
            {"name": "scope", "type": "telescope"},
            {"name": "hop", "type": "honeypot", "preset": "hopscotch"},
            {"name": "ixp", "type": "flow"},
        ],
        "analysis": analysis(),
    })
    files = ["attacks_scope.csv", "attacks_hop.csv", "attacks_ixp.csv"]
    return Workload(work / "pipeline.json", None, planted, files)


# -- darknet-logs ----------------------------------------------------------------

DARKNET_WEEKS = 16
TELESCOPE_BASE = ip_int("10.0.0.0")
TELESCOPE_SIZE = 2 ** 22
HONEYPOT_SENSORS = np.array([ip_int(f"198.51.100.{i}") for i in range(1, 9)])
AMPLIFIER_PORTS = np.array([53, 123, 161, 1900, 11211])
FAINT_SOURCES, SCANS, PROBES = 600, 800, 300    # per week


def darknet_logs(work: Path, seed: int) -> Workload:
    """Pre-written telescope and honeypot logs, so synth does no work.

    The telescope trace mixes planted RSDoS floods with many concurrent
    sub-threshold backscatter sources and lone-SYN/UDP scan noise the
    prefilter drops. The honeypot logs feed two observatories, hopscotch and
    amppot, whose packet thresholds (5 and 100 per flow) split the planted
    reflection attacks into seen-by-both and seen-by-hopscotch-only.
    """
    rng = np.random.default_rng([seed, 2])
    weeks = DARKNET_WEEKS
    n_rsdos = weekly_counts(rng, weeks, [2, 3, 4])
    n_large = weekly_counts(rng, weeks, [1, 2, 3])
    n_small = weekly_counts(rng, weeks, [2, 3, 4])
    rsdos_victims = iter(hosts_in(rng, "172.20.0.0/16", int(n_rsdos.sum())))
    refl_victims = iter(hosts_in(rng, "172.21.0.0/16", int(n_large.sum() + n_small.sum())))
    faint_sources = np.array(hosts_in(rng, "100.64.0.0/10", FAINT_SOURCES * weeks))
    probe_sources = np.array(hosts_in(rng, "11.0.0.0/8", PROBES * weeks))
    planted: list[Planted] = []
    scope: list[dict] = []
    honey: list[dict] = []

    def tele_dst(n):
        return TELESCOPE_BASE + rng.integers(0, TELESCOPE_SIZE, n)

    for w in range(weeks):
        week_us = (T0 + w * WEEK) * US
        slots = iter(rng.choice(HOURS_PER_WEEK - 1, HOURS_PER_WEEK - 1, replace=False).tolist())
        # RSDoS floods: 300 responses, one every ~1 s (2x the rate rule, 12x
        # the packet rule, 5x the duration rule)
        for k in range(n_rsdos[w]):
            v = next(rsdos_victims)
            ts = grid_times(rng, week_us + next(slots) * HOUR * US, 300, 1.0)
            proto, sport, flags = [(6, 80, "SA"), (6, 443, "AR"), (1, 0, "")][k % 3]
            dport = 0 if proto == 1 else rng.integers(1024, 65536, len(ts))
            scope.append(packets(ts, proto, v, sport, tele_dst(len(ts)), dport, 60, flags))
            planted.append(exact("attacks_scope.csv", "RSDoS", f"{ip(v)}/32",
                                 int(ts[0]), int(ts[-1]), len(ts)))
        # sub-threshold backscatter: 1..8 packets per source, all sources of
        # the week live inside one hour, so hundreds of flows are open at once
        burst_us = week_us + next(slots) * HOUR * US
        per_source = rng.permutation(np.resize(np.arange(1, 9), FAINT_SOURCES))
        src = np.repeat(faint_sources[w * FAINT_SOURCES:(w + 1) * FAINT_SOURCES], per_source)
        n = len(src)
        scope.append(packets(burst_us + rng.integers(0, 3000 * US, n), 6, src, 80,
                             tele_dst(n), rng.integers(1024, 65536, n), 60, "SA"))
        # scan noise the prefilter drops: lone SYNs and UDP probes
        udp = rng.random(SCANS) < 0.5
        scope.append(packets(
            week_us + rng.integers(0, WEEK * US, SCANS), np.where(udp, 17, 6),
            ip_int("45.0.0.0") + rng.integers(0, 1 << 24, SCANS),
            rng.integers(1024, 65536, SCANS), tele_dst(SCANS),
            rng.choice([22, 23, 80, 443, 3389], SCANS), 60, np.where(udp, "", "S").astype(object),
        ))
        # reflection attacks: "large" ones clear amppot's 100 packets per
        # (victim, port, sensor, port) and "small" ones only hopscotch's 5
        for per_sensor, n_sensors, count in ((150, 3, n_large[w]), (30, 2, n_small[w])):
            for _ in range(count):
                v = next(refl_victims)
                start_us = week_us + next(slots) * HOUR * US
                sport, dport = int(rng.integers(1024, 65536)), int(rng.choice(AMPLIFIER_PORTS))
                times = []
                for s in rng.choice(HONEYPOT_SENSORS, n_sensors, replace=False).tolist():
                    ts = grid_times(rng, start_us, per_sensor, 10.0)
                    honey.append(packets(ts, 17, v, sport, s, dport, 64, ""))
                    times.append(ts)
                first, last = min(int(t[0]) for t in times), max(int(t[-1]) for t in times)
                total = per_sensor * n_sensors
                planted.append(exact("attacks_hop.csv", "RA", f"{ip(v)}/32", first, last, total))
                if per_sensor >= 100:
                    planted.append(exact("attacks_amp.csv", "RA", f"{ip(v)}/32", first, last, total))
        # probes: 1..3 requests within a minute from each source to one sensor
        per_probe = rng.permutation(np.resize(np.arange(1, 4), PROBES))
        idx = np.repeat(np.arange(PROBES), per_probe)
        start = week_us + rng.integers(0, (WEEK - HOUR) * US, PROBES)
        n = len(idx)
        honey.append(packets(
            start[idx] + rng.integers(0, 60 * US, n), 17,
            probe_sources[w * PROBES:(w + 1) * PROBES][idx],
            rng.integers(1024, 65536, PROBES)[idx], rng.choice(HONEYPOT_SENSORS, PROBES)[idx],
            rng.choice(AMPLIFIER_PORTS, PROBES)[idx], 64, "",
        ))

    records = write_packets(work / "telescope.csv", concat(scope))
    honey_cols = concat(honey)
    for s in HONEYPOT_SENSORS.tolist():
        mine = honey_cols["dst"] == s
        records += write_packets(work / f"honeypot_{ip(s)}.csv",
                                 {k: v[mine] for k, v in honey_cols.items()})
    write_json(work / "pipeline.json", {
        "out_dir": "out",
        "parallelism": 2,
        "observatories": [
            {"name": "scope", "type": "telescope", "inputs": ["telescope.csv"],
             "config": {"n_addresses": TELESCOPE_SIZE}},
            {"name": "hop", "type": "honeypot", "preset": "hopscotch",
             "inputs": ["honeypot_*.csv"]},
            {"name": "amp", "type": "honeypot", "preset": "amppot",
             "inputs": ["honeypot_*.csv"]},
        ],
        "analysis": analysis(),
    })
    files = ["attacks_scope.csv", "attacks_hop.csv", "attacks_amp.csv"]
    return Workload(work / "pipeline.json", records, planted, files)


# -- carpet-analysis -------------------------------------------------------------

CARPET_WEEKS = 52
CARPET_EVERY = 4               # weeks between carpet bursts
CARPET_PREFIX = "185.30.0.0/16"
CARPET_MEMBERS = 1200          # concurrent /32s per burst at ixp-a; ixp-b sees half
FLOW_OBS = ("ixp-a", "ixp-b", "ixp-c")
SHARED_MASKS = (("ixp-a", "ixp-b"), ("ixp-a", "ixp-c"), ("ixp-b", "ixp-c"), FLOW_OBS)
BURST_SLOT = 2 * 24 + 10       # Wednesday 10:00 UTC
RA_PORTS = np.array([53, 123, 389, 1900, 11211])
NOISE_FLOWS = 40               # per observatory and week
# sub-threshold flows: (protocol, src port, sources, bit/s) with too few
# sources, too low a rate, or a non-amplifier port
NOISE_KINDS = ((17, 123, 3, 5e9), (17, 53, 100, 2e8), (17, 4444, 100, 5e9),
               (6, 0, 3, 1e9), (6, 0, 100, 2e7))


def carpet_analysis(work: Path, seed: int) -> Workload:
    """Flow summaries from three observatories over a year, aggregated.

    Every fourth week a carpet burst hits CARPET_MEMBERS concurrent /32s
    inside one routed, single-allocation /16; ixp-a sees all of them and
    ixp-b half. Single-target RA and DP attacks outside the /16 are
    seen by one, two or all three observatories, so target sets partly
    overlap, and sub-threshold flows add rows that classify to nothing.
    Targets are counted per day and confirmed against salted digests of a
    known share of them.
    """
    rng = np.random.default_rng([seed, 3])
    weeks = CARPET_WEEKS
    n_shared = weekly_counts(rng, weeks, [2, 3, 4, 5, 6])
    singles = int(2 * (len(FLOW_OBS) * weeks + n_shared.sum()))
    victims = iter(hosts_in(rng, "172.24.0.0/13", singles))
    rows: dict[str, list[tuple]] = {o: [] for o in FLOW_OBS}
    planted: list[Planted] = []
    tuples: dict[str, set[tuple[str, str]]] = {o: set() for o in FLOW_OBS}

    def attack_rows(targets: list[str], atype: str, start_us, end_us) -> list[tuple]:
        """Flow rows clearly above the RA (>=10 sources, >1 Gbit/s from an
        amplifier port) or DP (>=10 sources, >100 Mbit/s) thresholds."""
        n = len(targets)
        if atype == "RA":
            cols = (np.full(n, 17), rng.choice(RA_PORTS, n), rng.integers(20, 200, n),
                    rng.uniform(3e9, 8e9, n))
        else:
            cols = (np.full(n, 6), np.zeros(n, int), rng.integers(50, 500, n),
                    rng.uniform(3e8, 2e9, n))
        return list(zip(targets, *(c.tolist() for c in cols), start_us, end_us))

    for w in range(weeks):
        week_us = (T0 + w * WEEK) * US
        # singles: one exclusive per observatory and type, plus shared ones;
        # distinct hour slots keep same-type attacks of one observatory apart
        free = [h for h in range(HOURS_PER_WEEK) if abs(h - BURST_SLOT) > 1]
        slots = iter(rng.choice(free, len(free), replace=False).tolist())
        masks = [(o,) for o in FLOW_OBS] + [SHARED_MASKS[i % len(SHARED_MASKS)] for i in
                                             rng.permutation(n_shared[w])]
        for atype in ("RA", "DP"):
            for mask in masks:
                target = ip(next(victims))
                start_us = week_us + next(slots) * HOUR * US + int(rng.integers(0, 600)) * US
                end_us = start_us + int(rng.integers(60, 1200)) * US
                row = attack_rows([target], atype, [start_us], [end_us])[0]
                for o in mask:
                    rows[o].append(row)
                    planted.append(exact(f"attacks_{o}_agg.csv", atype, f"{target}/32",
                                         start_us, end_us, 0))
                    tuples[o].add((day_of(start_us), target))
        # the carpet burst: every member starts before any member ends
        if w % CARPET_EVERY == 0:
            burst_us = week_us + BURST_SLOT * HOUR * US
            start = burst_us + rng.integers(0, 240, CARPET_MEMBERS) * US
            end = start + rng.integers(300, 1200, CARPET_MEMBERS) * US
            members = [ip(m) for m in hosts_in(rng, CARPET_PREFIX, CARPET_MEMBERS)]
            burst = attack_rows(members, "DP", start.tolist(), end.tolist())
            seen_b = rng.permutation(len(burst)) < len(burst) // 2
            for o, seen in (("ixp-a", burst), ("ixp-b", [r for r, b in zip(burst, seen_b) if b])):
                rows[o].extend(seen)
                planted.append(exact(f"attacks_{o}_agg.csv", "DP", CARPET_PREFIX,
                                     min(r[5] for r in seen), max(r[6] for r in seen), 0))
                tuples[o].update((day_of(burst_us), r[0]) for r in seen)
        for o in FLOW_OBS:
            start = week_us + rng.integers(0, WEEK - HOUR, NOISE_FLOWS) * US
            end = start + rng.integers(60, 1200, NOISE_FLOWS) * US
            targets = ip_int("172.24.0.0") + rng.integers(0, 1 << 19, NOISE_FLOWS)
            for k, (t, s, e) in enumerate(zip(targets.tolist(), start.tolist(), end.tolist())):
                rows[o].append((ip(t), *NOISE_KINDS[k % len(NOISE_KINDS)], s, e))

    records = 0
    for o in FLOW_OBS:
        ordered = sorted(rows[o], key=lambda r: (r[5], ip_int(r[0])))
        lines = [FLOWS_HEADER] + [
            f"{t},{p},{sp},{n},{bps:.6f},{s},{e}" for t, p, sp, n, bps, s, e in ordered
        ]
        (work / f"flows_{o}.csv").write_text("\n".join(lines) + "\n")
        records += len(ordered)
    (work / "routed.csv").write_text(
        "prefix,asn\n185.30.0.0/16,64500\n185.31.0.0/16,64501\n192.0.2.0/24,64502\n")
    (work / "alloc.csv").write_text(
        "prefix,registry\n185.30.0.0/16,RIPE\n185.31.0.0/17,RIPE\n185.31.128.0/17,RIPE\n")

    # external digests: a seeded share of the real tuples plus decoys
    salt = f"bench-{seed}"
    universe = sorted(set().union(*tuples.values()))
    confirmed = {t for t, keep in zip(universe, rng.random(len(universe)) < 0.6) if keep}
    digests = {_digest(salt, t) for t in confirmed}
    digests.update(hashlib.sha256(f"decoy|{seed}|{i}".encode()).hexdigest()
                   for i in range(len(universe) // 5))
    (work / "hashes.txt").write_text("".join(d + "\n" for d in sorted(digests)))

    write_json(work / "pipeline.json", {
        "out_dir": "out",
        "parallelism": 1,
        "observatories": [
            {"name": o, "type": "flow", "inputs": [f"flows_{o}.csv"]} for o in FLOW_OBS
        ],
        "routed": "routed.csv",
        "alloc": "alloc.csv",
        "aggregate": True,
        "analysis": analysis(target_mode="per_day",
                             confirm={"external": "hashes.txt", "salt": salt}),
    })
    files = [f"attacks_{o}_agg.csv" for o in FLOW_OBS]
    checks = [
        lambda b: _check_targets(b, tuples),
        lambda b: _check_upset(b, tuples),
        lambda b: _check_confirm(b, tuples, confirmed),
    ]
    return Workload(work / "pipeline.json", records, planted, files, checks)


def _digest(salt: str, t: tuple[str, str]) -> str:
    return hashlib.sha256(f"{salt}|{t[0]}|{t[1]}".encode("ascii")).hexdigest()


def _exclusive(tuples: dict[str, set]) -> dict[tuple[str, ...], set]:
    """Tuples grouped by exactly which observatories saw them."""
    groups: dict[tuple[str, ...], set] = {}
    for t in set().union(*tuples.values()):
        key = tuple(o for o in sorted(tuples) if t in tuples[o])
        groups.setdefault(key, set()).add(t)
    return groups


def _subsets(names) -> list[tuple[str, ...]]:
    names = sorted(names)
    return [tuple(n for i, n in enumerate(names) if mask >> i & 1)
            for mask in range(1, 1 << len(names))]


def _check_targets(bundle: Path, tuples: dict[str, set]) -> list[str]:
    """Per-day target files hold exactly the planted (day, host) tuples,
    which pins each carpet event to exactly its member hosts."""
    problems = []
    for o, want in tuples.items():
        path = bundle / "targets" / f"{o}.csv"
        with open(path, newline="") as fh:
            got = {(r["date"], r["ip"]) for r in csv.DictReader(fh)}
        if got != want:
            problems.append(f"targets/{o}.csv: {len(got - want)} unplanted, "
                            f"{len(want - got)} missing tuples")
    return problems


def _check_upset(bundle: Path, tuples: dict[str, set]) -> list[str]:
    groups = _exclusive(tuples)
    want = {
        "sets": {o: len(s) for o, s in tuples.items()},
        "union": len(set().union(*tuples.values())),
        "exclusive": {"&".join(k): len(groups.get(k, ())) for k in _subsets(tuples)},
    }
    got = json.loads((bundle / "upset.json").read_text())
    return [] if got == want else ["upset.json differs from the planted overlap"]


def _check_confirm(bundle: Path, tuples: dict[str, set], confirmed: set) -> list[str]:
    groups = _exclusive(tuples)
    want = {}
    for k in _subsets(tuples):
        members = groups.get(k, set())
        want["&".join(k)] = len(members & confirmed) / len(members) if members else 0.0
    got = json.loads((bundle / "confirm.json").read_text())["shares"]
    return [] if got == want else ["confirm.json shares differ from the planted ones"]


BUILDERS = {
    "synth-pipeline": synth_pipeline,
    "darknet-logs": darknet_logs,
    "carpet-analysis": carpet_analysis,
}
