"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred.
"""

import hashlib
import json
import math
import random
import time
from datetime import date

import pytest

from ddoscope import carpet, honeypot, ioformats, telescope
from ddoscope.honeypot import PRESETS, preset
from ddoscope.model import (
    TargetTuple,
    US_PER_S,
    WeeklySeries,
    parse_prefix,
    tuples_to_keys,
)
from ddoscope.overlap import federated_confirm, upset_exclusive
from ddoscope.pipeline import PipelineConfig, run_pipeline
from ddoscope.synth import AttackSpec, ScenarioSpec, generate
from ddoscope.telescope import ADDRESS_SPACE, TelescopeConfig
from ddoscope.trends import ewma, linreg_trend, normalize, pearson, spearman

from conftest import make_telescope_trace, prefix_table, write_pipeline_fixture
from oracles import (
    AttackEvent,
    PacketRecord,
    as_batch,
    batch_to_events,
    events_to_batch,
    hash_targets,
    min_detectable_rate,
    oracle_aggregate_sensors,
    oracle_detect_honeypot,
    oracle_detect_rsdos,
    oracle_ewma,
    oracle_longest_covering,
    oracle_normalize,
    oracle_pearson,
    oracle_slope,
    oracle_spearman,
    oracle_upset_exclusive,
)

MONDAY = date(2019, 1, 7)


# The package holds packets and attacks as columns; the criteria build
# packets as PacketRecord rows and read attacks as AttackEvent rows.

def detect_rsdos(packets, cfg):
    return batch_to_events(telescope.detect_rsdos(as_batch(packets), cfg))


def detect_honeypot(packets, definition):
    return batch_to_events(honeypot.detect_honeypot(as_batch(packets), definition))


def aggregate_sensors(events, merge_gap):
    return batch_to_events(honeypot.aggregate_sensors(events_to_batch(events), merge_gap))


def aggregate_carpet(events, routed, alloc):
    return batch_to_events(carpet.aggregate_carpet(events_to_batch(events), routed, alloc))


def read_attacks(path):
    return batch_to_events(ioformats.read_attacks(path))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def rel_err(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def series(values, start=MONDAY, label="x"):
    return WeeklySeries(start, tuple(values), label)


# -- 1. RSDoS detector vs brute-force oracle -----------------------------------

def test_c01_rsdos_oracle_equivalence_1000_traces():
    cfg = TelescopeConfig(n_addresses=2 ** 22)
    started = time.monotonic()
    total_packets = 0
    for seed in range(1000):
        if seed % 100 == 99:
            packets = make_telescope_trace(seed, max_pkts=20_000)
        elif seed % 20 == 19:
            packets = make_telescope_trace(seed, max_pkts=3_000)
        else:
            packets = make_telescope_trace(seed, max_pkts=400)
        assert len(packets) <= 100_000
        total_packets += len(packets)
        got = {
            (e.target, e.start_ts, e.end_ts, e.packets)
            for e in detect_rsdos(packets, cfg)
        }
        want = oracle_detect_rsdos(packets, cfg)
        assert got == want, f"trace seed {seed}: {got ^ want}"
    elapsed = time.monotonic() - started
    report(1, elapsed < 60.0,
           f"1000 traces ({total_packets} packets) matched the oracle exactly "
           f"in {elapsed:.1f}s (< 60s)")


# -- 2. minimum detectable rate reproduces the published figures ----------------

def test_c02_min_detectable_rate_paper_figures():
    pps_large, bps_large = min_detectable_rate(12_582_912, 25, 300, packet_bytes=110)
    pps_small, bps_small = min_detectable_rate(500_000, 25, 300, packet_bytes=110)
    err_large = abs(bps_large / 1e6 - 0.026) / 0.026
    err_small = abs(bps_small / 1e6 - 0.60) / 0.60
    ratio_err = rel_err(pps_small / pps_large, 12_582_912 / 500_000)
    ok = err_large < 0.10 and err_small < 0.10 and ratio_err <= 1e-9
    report(2, ok,
           f"0.026 Mbps within {err_large:.1%}, 0.60 Mbps within {err_small:.1%}, "
           f"pps ratio off by {ratio_err:.1e} (<= 1e-9)")


# -- 3. honeypot presets: fixtures, oracle equivalence, aggregation laws --------

def _hp_pkt(ts_s, victim="203.0.113.5", sensor="192.0.2.1", sport=5353, dport=123):
    return PacketRecord(ts=int(round(ts_s * US_PER_S)), protocol=17, src_ip=victim,
                        src_port=sport, dst_ip=sensor, dst_port=dport, len_bytes=60)


def _hp_random_trace(rng):
    packets = []
    for _ in range(rng.randint(1, 8)):
        victim = rng.choice(["203.0.113.5", "203.0.113.9", "203.0.114.20"])
        sensor = rng.choice(["192.0.2.1", "192.0.2.2", "192.0.2.3"])
        sport = rng.choice([5353, 5353, 9999])
        t = rng.uniform(0, 4000)
        for _ in range(rng.choice([2, 4, 5, 6, 99, 100, 101, rng.randint(1, 150)])):
            packets.append(_hp_pkt(t, victim=victim, sensor=sensor, sport=sport,
                                   dport=rng.choice([19, 123, 123])))
            t += rng.choice([rng.uniform(0, 30), 59.9, 60.1, 899.0, 901.0, 3599.0, 3601.0])
    bysensor = {}
    for p in sorted(packets, key=lambda p: p.ts):
        bysensor.setdefault(p.dst_ip, []).append(p)
    merged = []
    for pkts in bysensor.values():
        merged.extend(pkts)
    return merged


def test_c03_honeypot_fixtures_and_oracle():
    hop = preset("hopscotch")
    # fixture: 4 packets, below >=5
    assert detect_honeypot([_hp_pkt(i * 10.0) for i in range(4)], hop) == []
    # fixture: 16-minute gap splits into 3 + 2
    ts = [0, 60, 120, 120 + 960, 120 + 990]
    assert detect_honeypot([_hp_pkt(t) for t in ts], hop) == []
    # fixture: AmpPot, 100 packets in 10 minutes on one 4-tuple
    amp_events = detect_honeypot(
        [_hp_pkt(i * 6.0, sport=777) for i in range(100)], preset("amppot")
    )
    assert len(amp_events) == 1 and amp_events[0].packets == 100
    # fixture: NewKid multi-protocol, 3 packets to port 19 + 2 to port 123
    nk_packets = [
        _hp_pkt(0.0, victim="203.0.113.5", dport=19),
        _hp_pkt(10.0, victim="203.0.113.200", dport=19),
        _hp_pkt(20.0, victim="203.0.113.5", dport=19),
        _hp_pkt(30.0, victim="203.0.113.77", dport=123),
        _hp_pkt(40.0, victim="203.0.113.5", dport=123),
    ]
    nk_events = detect_honeypot(nk_packets, preset("newkid"))
    assert len(nk_events) == 1 and nk_events[0].target == "203.0.113.0/24"

    checked = 0
    for seed in range(1000):
        rng = random.Random(seed)
        packets = _hp_random_trace(rng)
        definition = preset(sorted(PRESETS)[seed % len(PRESETS)])
        events = detect_honeypot(packets, definition)
        got = {
            (e.target, e.start_ts, e.end_ts, e.packets, frozenset(e.sensors))
            for e in events
        }
        assert got == oracle_detect_honeypot(packets, definition), f"seed {seed}"
        merged = aggregate_sensors(events, definition.timeout)
        merged_tuples = {
            (e.target, e.start_ts, e.end_ts, e.packets, frozenset(e.sensors))
            for e in merged
        }
        assert merged_tuples == oracle_aggregate_sensors(events, definition.timeout)
        assert aggregate_sensors(merged, definition.timeout) == merged  # idempotent
        assert sum(e.packets for e in merged) == sum(e.packets for e in events)
        checked += 1
    report(3, checked == 1000,
           "4 fixture cases exact; 1000 randomized traces matched the oracle; "
           "aggregation idempotent and packet-conserving throughout")


# -- 4. carpet-bombing aggregation ----------------------------------------------

def test_c04_carpet_fixtures_and_randomized_invariants():
    routed_rows = [
        ("203.0.113.0/24", 64500), ("203.0.112.0/20", 64500),
        ("203.0.0.0/16", 64501), ("10.0.0.0/8", 64502),
        ("198.51.100.0/24", 64503),
    ]
    routed = prefix_table(routed_rows)
    alloc = prefix_table([
        ("203.0.112.0/22", "ripe"), ("203.0.116.0/22", "ripe"),
        ("198.51.100.0/24", "arin"), ("10.0.0.0/8", "arin"),
    ])

    def ev(ip, start_s, end_s, atype="RA"):
        return AttackEvent(observatory="hp", attack_type=atype, target=f"{ip}/32",
                           start_ts=int(start_s * US_PER_S),
                           end_ts=int(end_s * US_PER_S), packets=10)

    # fixture: singleton passes through
    single = ev("203.0.113.5", 0, 100)
    assert aggregate_carpet([single], routed, alloc) == [single]
    # fixture: concurrent pair merges to the routed /24
    merged = aggregate_carpet(
        [ev("203.0.113.5", 0, 100), ev("203.0.113.99", 20, 130)], routed, alloc
    )
    assert len(merged) == 1 and merged[0].target == "203.0.113.0/24"
    # fixture: allocation split forbids the merge
    split = aggregate_carpet(
        [ev("203.0.112.5", 0, 100), ev("203.0.119.9", 10, 90)], routed, alloc
    )
    assert len(split) == 2
    # fixture: /8-only covering prefix is rejected
    wide = aggregate_carpet(
        [ev("10.0.0.5", 0, 100), ev("10.200.0.9", 10, 90)], routed, alloc
    )
    assert len(wide) == 2

    routed_set = {p for p, _ in routed_rows}
    rng = random.Random(0xCA4B)
    for _ in range(300):
        events = []
        t = 0.0
        for _ in range(rng.randint(1, 20)):
            t += rng.choice([0.0, 5.0, 30.0, 61.0, 120.0, 400.0])
            block = rng.choice(["203.0.113", "203.0.112", "203.0.119", "10.7.3", "198.51.100"])
            events.append(ev(f"{block}.{rng.randint(1, 254)}", t, t + rng.uniform(10, 200),
                             atype=rng.choice(["RA", "RA", "DP"])))
        events.sort(key=lambda e: e.start_ts)
        out = aggregate_carpet(events, routed, alloc)
        assert sum(e.packets for e in out) == sum(e.packets for e in events)
        for e in out:
            net, plen = parse_prefix(e.target)
            if plen == 32:
                continue
            assert e.target in routed_set
            assert 11 <= plen <= 28
            blocks = {oracle_longest_covering(alloc, {f"{h}/32"}) for h in e.member_targets}
            assert len(blocks) == 1 and None not in blocks
    report(4, True,
           "merge, allocation-split, /8-rejection, singleton fixtures exact; "
           "300 randomized scenarios kept prefixes routed, /11../28, one allocation")


# -- 5. trend math vs independent oracles ----------------------------------------

def test_c05_trend_oracles_10000_series():
    rng = random.Random(0x7E57)
    worst = 0.0
    # 2500 normalize + 2500 ewma + 2000 linreg + 1500 spearman + 1500 pearson
    for _ in range(2500):
        values = [rng.uniform(0.01, 100) for _ in range(rng.randint(15, 80))]
        got = normalize(series(values)).values
        want = oracle_normalize(values)
        worst = max(worst, max(rel_err(a, b) for a, b in zip(got, want)))
    for _ in range(2500):
        values = [None if rng.random() < 0.1 else rng.uniform(0, 100)
                  for _ in range(rng.randint(1, 80))]
        span = rng.uniform(1, 30)
        got = ewma(series(values), span).values
        want = oracle_ewma(values, span)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                worst = max(worst, rel_err(a, b))
    for _ in range(2000):
        n = rng.randint(2, 100)
        values = [rng.uniform(0, 10) for _ in range(n)]
        if len(set(values)) == 1:
            values[0] += 1.0
        got = linreg_trend(series(values)).slope
        want = oracle_slope(list(enumerate(values)))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    for _ in range(1500):
        n = rng.randint(5, 80)
        xs = [rng.choice([rng.uniform(0, 50), float(rng.randint(0, 5))]) for _ in range(n)]
        ys = [rng.choice([rng.uniform(0, 50), float(rng.randint(0, 5))]) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        got = spearman(series(xs), series(ys))
        rho, p = oracle_spearman(xs, ys)
        worst = max(worst, rel_err(got.rho, rho), rel_err(got.p_value, p))
    for _ in range(1500):
        n = rng.randint(3, 80)
        xs = [rng.uniform(0, 50) for _ in range(n)]
        ys = [rng.uniform(0, 50) for _ in range(n)]
        got = pearson(series(xs), series(ys))
        rho, p = oracle_pearson(xs, ys)
        worst = max(worst, rel_err(got.rho, rho), rel_err(got.p_value, p))
    assert worst <= 1e-9

    # hand-computed examples, exact to stated precision
    values = [3.0, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 10]
    assert normalize(series(values)).values[-1] == 2.0
    assert ewma(series([0.0, 1.0]), 12).values[1] == pytest.approx(2 / 13, abs=1e-15)
    sp = spearman(series([1.0, 2, 3, 4, 5]), series([2.0, 1, 4, 3, 5]))
    assert sp.rho == pytest.approx(0.8, abs=1e-12)
    pr = pearson(series([1.0, 2, 3]), series([1.0, 2, 4]))
    assert round(pr.rho, 5) == 0.98198
    report(5, worst <= 1e-9,
           f"10,000 randomized series matched oracles (worst rel err {worst:.2e} <= 1e-9); "
           "median->2.0, EWMA 2/13, rho 0.8, Pearson 0.98198 exact")


# -- 6. trend classification per the +-5% rule -----------------------------------

def test_c06_trend_classification():
    def synthetic(net_change):
        slope = net_change / 208.0
        return series([1.0 + slope * i for i in range(209)])

    up = linreg_trend(synthetic(+0.10))
    flat = linreg_trend(series([1.0] * 209))
    down = linreg_trend(synthetic(-0.06))
    ok = (up.trend_class, flat.trend_class, down.trend_class) == (
        "Increasing", "Steady", "Decreasing"
    )
    report(6, ok,
           f"+10% -> {up.trend_class}, 0% -> {flat.trend_class}, "
           f"-6% -> {down.trend_class}")


# -- 7. UpSet partition law --------------------------------------------------------

def test_c07_upset_partition_law():
    # worked A/B/C example returns the exact listed counts
    def tt(i):
        return TargetTuple(date(2022, 3, 7), f"10.0.{i // 256}.{i % 256}")

    abc = {
        "A": tuples_to_keys({tt(1), tt(2), tt(3)}),
        "B": tuples_to_keys({tt(2), tt(3), tt(4)}),
        "C": tuples_to_keys({tt(3), tt(4), tt(5)}),
    }
    counts = upset_exclusive(abc)
    assert counts == {
        frozenset("A"): 1, frozenset(["A", "B"]): 1, frozenset(["A", "B", "C"]): 1,
        frozenset(["B", "C"]): 1, frozenset("C"): 1, frozenset("B"): 0,
        frozenset(["A", "C"]): 0,
    }
    assert sum(counts.values()) == 5

    rng = random.Random(0x0B5E)
    for case in range(100):
        n_obs = rng.randint(1, 6)
        n_tuples = 100_000 if case == 0 else rng.randint(1, 5000)
        pool = [tt(rng.randint(0, 60_000)) for _ in range(n_tuples)]
        sets = {}
        for i in range(n_obs):
            density = rng.uniform(0.05, 0.9)
            sets[f"obs{i}"] = {t for t in pool if rng.random() < density}
        if not any(sets.values()):
            sets["obs0"] = {tt(1)}
        counts = upset_exclusive({label: tuples_to_keys(s) for label, s in sets.items()})
        union = set().union(*sets.values())
        assert sum(counts.values()) == len(union), f"case {case}"
        if case % 10 == 0:
            assert counts == oracle_upset_exclusive(sets)
    report(7, True,
           "A/B/C example exact; partition law held on 100 random set systems "
           "(up to 6 observatories, up to 1e5 tuples)")


# -- 8. federated confirmation equals the plaintext join ---------------------------

def test_c08_federated_confirmation():
    def tt(d, ip):
        return TargetTuple(d, ip)

    # 3-of-10 fixture yields 0.30 exactly
    tuples = [tt(date(2022, 1, 1 + i), "10.0.0.1") for i in range(10)]
    system = {"local": tuples_to_keys(tuples)}
    shares = federated_confirm(system, hash_targets(tuples_to_keys(tuples[:3]), "pepper"), "pepper")
    assert shares[frozenset(["local"])] == 0.3

    rng = random.Random(0xF00D)
    for case in range(100):
        salt = "%016x" % rng.getrandbits(64)
        pool = [
            tt(date(2022, 1, 1 + rng.randint(0, 27)),
               f"10.{rng.randint(0, 3)}.{rng.randint(0, 9)}.{rng.randint(1, 99)}")
            for _ in range(rng.randint(5, 120))
        ]
        n = rng.randint(1, 4)
        sets = {f"s{i}": {t for t in pool if rng.random() < 0.5} for i in range(n)}
        if not any(sets.values()):
            sets["s0"] = {pool[0]}
        external_plain = {t for t in pool if rng.random() < 0.4}
        system = {label: tuples_to_keys(s) for label, s in sets.items()}
        got = federated_confirm(system, hash_targets(tuples_to_keys(external_plain), salt), salt)
        union = set().union(*sets.values())
        for subset, share in got.items():
            members = {
                t for t in union
                if all(t in sets[l] for l in subset)
                and not any(t in sets[l] for l in set(sets) - subset)
            }
            want = (len(members & external_plain) / len(members)) if members else 0.0
            assert share == want, f"case {case} subset {sorted(subset)}"
    report(8, True,
           "hashed join equals plaintext join on 100 random salt/set fixtures; "
           "3-of-10 fixture = 0.30 exactly")


# -- 9. telescope sampling statistics ----------------------------------------------

def test_c09_telescope_sampling_statistics():
    n = 12_582_912
    rate, dur = 20_000, 300
    p = n / ADDRESS_SPACE
    expectation = rate * dur * p          # 17578.125
    stderr = math.sqrt(rate * dur * p * (1 - p))
    counts = []
    detected = 0
    cfg = TelescopeConfig(n_addresses=n)
    for seed in range(30):
        spec = ScenarioSpec(
            seed=seed, duration_s=400, telescope_addresses=n,
            honeypot_sensors=(), attacks=(
                AttackSpec(type="rsdos", victim="203.0.113.7", start_s=0,
                           duration_s=dur, rate_pps=rate),
            ),
        )
        g = generate(spec)
        counts.append(len(g.telescope_packets))
        events = detect_rsdos(g.telescope_packets, cfg)
        if len(events) == 1 and events[0].target == "203.0.113.7/32":
            detected += 1
    mean = sum(counts) / len(counts)
    mean_err = abs(mean - expectation)
    bound = 3 * stderr / math.sqrt(len(counts))
    ok = mean_err <= bound and detected >= 29
    report(9, ok,
           f"mean {mean:.1f} vs expectation {expectation:.1f} "
           f"(|diff| {mean_err:.1f} <= {bound:.1f}); detected {detected}/30 (>= 29)")


# -- 10. end-to-end pipeline determinism and recovery -------------------------------

def _bundle_digests(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[p.relative_to(root).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _matches(gt, events, want_type):
    """Events matching one ground-truth attack: same victim, overlapping span."""
    victim = gt["victim"] + "/32"
    return [
        e for e in events
        if e.target == victim and e.attack_type == want_type
        and e.start_ts <= gt["end_ts_us"] and gt["start_ts_us"] <= e.end_ts
    ]


def test_c10_pipeline_determinism_and_recovery(tmp_path):
    cfg1 = write_pipeline_fixture(tmp_path / "p1", weeks=17, normalize=True,
                                  ewma_span=12, out_rel="out", parallelism=1)
    cfg8 = write_pipeline_fixture(tmp_path / "p8", weeks=17, normalize=True,
                                  ewma_span=12, out_rel="out", parallelism=8)
    out1 = run_pipeline(PipelineConfig.load(cfg1))
    out8 = run_pipeline(PipelineConfig.load(cfg8))
    d1 = _bundle_digests(out1)
    d8 = _bundle_digests(out8)
    assert d1 == d8, "bundles differ between parallelism 1 and 8"
    assert "manifest.json" in d1 and "upset.json" in d1

    truth = json.loads((out1 / "inputs" / "ground_truth.json").read_text())
    scope = read_attacks(out1 / "attacks_scope.csv")
    hop = read_attacks(out1 / "attacks_hop.csv")
    ixp = read_attacks(out1 / "attacks_ixp.csv")

    matched_events = 0
    gt_expected = 0
    for atk in truth["attacks"]:
        if atk["type"] == "rsdos":
            hits = _matches(atk, scope, "RSDoS")
            assert len(hits) == 1, f"rsdos {atk['victim']}: {len(hits)} events"
            gt_expected += 1
            matched_events += 1
        elif atk["type"] == "reflection":
            hits = _matches(atk, hop, "RA")
            assert len(hits) == 1, f"reflection {atk['victim']}: {len(hits)} events"
            gt_expected += 1
            matched_events += 1
        cls = atk["flow"]["classification"]
        if cls is not None:
            hits = _matches(atk, ixp, cls)
            assert len(hits) == 1, f"flow {atk['victim']}: {len(hits)} events"
    # precision: no detected event without a ground-truth attack
    n_flow_expected = sum(
        1 for a in truth["attacks"] if a["flow"]["classification"] is not None
    )
    precision_ok = (
        len(scope) == sum(1 for a in truth["attacks"] if a["type"] == "rsdos")
        and len(hop) == sum(1 for a in truth["attacks"] if a["type"] == "reflection")
        and len(ixp) == n_flow_expected
    )
    assert precision_ok
    report(10, True,
           f"bundles byte-identical at parallelism 1 and 8 ({len(d1)} files); "
           f"{matched_events}/{gt_expected} packet-level attacks and "
           f"{n_flow_expected} flow attacks recovered with precision = recall = 1")
