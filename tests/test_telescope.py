import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ddoscope import telescope
from ddoscope.model import US_PER_S
from ddoscope.telescope import TelescopeConfig

from conftest import make_telescope_trace as make_trace, telescope_pkt as pkt
from oracles import as_batch, batch_to_events, batch_to_records, min_detectable_rate, oracle_detect_rsdos


def detect_rsdos(packets, cfg):
    """detect_rsdos over PacketRecords, as AttackEvent rows."""
    return batch_to_events(telescope.detect_rsdos(as_batch(packets), cfg))


def backscatter_prefilter(packets, mode="default"):
    """backscatter_prefilter over PacketRecords of one length, as PacketRecords."""
    length, = {p.len_bytes for p in packets}
    return batch_to_records(telescope.backscatter_prefilter(as_batch(packets), mode), length)

CFG = TelescopeConfig(n_addresses=2 ** 22)
# a flow of two packets a microsecond apart is an attack
LOW = TelescopeConfig(n_addresses=2 ** 22, pkt_threshold=1, duration_threshold=1e-6, rate_pkts=1,
                      rate_window=20.0, rate_slide=10.0)


@st.composite
def telescope_configs(draw):
    slide = draw(st.sampled_from([5.0, 10.0, 20.0, 30.0]))
    return TelescopeConfig(
        n_addresses=500_000,
        interval=draw(st.sampled_from([30.0, 60.0, 300.0])),
        pkt_threshold=draw(st.integers(1, 40)),
        duration_threshold=draw(st.floats(0.001, 150.0)),
        rate_pkts=draw(st.integers(1, 40)),
        rate_window=slide * draw(st.integers(2, 6)),
        rate_slide=slide,
    )


@st.composite
def tied_traces(draw):
    """A few keys on a coarse clock, so that many packets share a timestamp."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    tick = rng.choice([1.0, 5.0, 30.0])
    ticks = sorted(rng.randint(0, int(rng.choice([120, 600, 1800]) / tick))
                   for _ in range(rng.randint(0, 400)))
    return [pkt(t * tick, src=f"198.51.100.{rng.randint(1, 3)}", proto=rng.choice([1, 6]))
            for t in ticks]


def fixed_config_examples(test):
    """One fixed non-default config over 100 seeded traces."""
    cfg = TelescopeConfig(
        n_addresses=500_000, interval=120.0, pkt_threshold=10,
        duration_threshold=20.0, rate_pkts=8, rate_window=30.0, rate_slide=5.0,
    )
    for seed in range(100):
        test = example(cfg=cfg, packets=make_trace(seed + 10_000))(test)
    return test


class TestDetectRsdos:
    def test_empty_stream(self):
        assert detect_rsdos([], CFG) == []

    def test_25_slow_packets_fail_rate_window(self):
        # one packet every 2.5 s over [0, 60]: count and duration pass, but
        # no 60-s window ever holds 30 packets
        packets = [pkt(i * 2.5) for i in range(25)]
        assert packets[-1].ts == 60 * US_PER_S
        assert detect_rsdos(packets, CFG) == []

    def test_burst_plus_straggler_is_attack(self):
        # 30 packets inside [0, 59] trip the window; the packet at 70 s
        # finally satisfies the 60-s duration
        packets = [pkt(i * 59.0 / 29) for i in range(30)] + [pkt(70.0)]
        events = detect_rsdos(packets, CFG)
        assert len(events) == 1
        e = events[0]
        assert e.target == "198.51.100.7/32"
        assert e.packets == 31
        assert (e.start_ts, e.end_ts) == (0, 70 * US_PER_S)
        assert e.attack_type == "RSDoS"

    def test_flow_key_includes_protocol(self):
        packets = sorted(
            [pkt(0.0, proto=6), pkt(1.0, proto=1)], key=lambda p: p.ts
        )
        assert detect_rsdos(packets, CFG) == []

    def test_unsorted_input_equals_sorted(self):
        packets = [pkt(10.0), pkt(5.0)]
        events = detect_rsdos(packets, LOW)
        assert [(e.start_ts, e.end_ts, e.packets) for e in events] == [(5 * US_PER_S, 10 * US_PER_S, 2)]
        assert events == detect_rsdos(sorted(packets, key=lambda p: p.ts), LOW)

    @pytest.mark.parametrize("seed", range(20))
    def test_any_order_equals_time_sorted(self, seed):
        # whole-second timestamps tie often, within a key and across keys
        rng = random.Random(seed)
        times = [rng.choice([0.0, 1.0, 2.0]) for _ in range(rng.randint(2, 20))]
        packets = [pkt(t, src=f"198.51.100.{rng.randint(1, 2)}", proto=rng.choice([1, 6])) for t in times]
        for rows in (packets, packets[::-1]):
            assert detect_rsdos(rows, LOW) == detect_rsdos(sorted(rows, key=lambda p: p.ts), LOW)

    def test_flow_expires_after_idle_interval(self):
        # two bursts separated by two full 300-s intervals: separate flows
        burst1 = [pkt(i * 2.0) for i in range(31)]            # [0, 60]: attack
        burst2 = [pkt(700 + i * 2.0) for i in range(31)]      # second flow, also attack
        events = detect_rsdos(burst1 + burst2, CFG)
        assert len(events) == 2
        assert events[0].end_ts == 60 * US_PER_S
        assert events[1].start_ts == 700 * US_PER_S

    def test_matches_oracle_on_random_traces(self):
        for seed in range(300):
            packets = make_trace(seed)
            got = {
                (e.target, e.start_ts, e.end_ts, e.packets)
                for e in detect_rsdos(packets, CFG)
            }
            assert got == oracle_detect_rsdos(packets, CFG), f"seed {seed}"

    @settings(max_examples=200, deadline=None)
    @given(cfg=telescope_configs(), packets=st.one_of(st.integers(0, 10 ** 6).map(make_trace),
                                                      tied_traces()))
    @fixed_config_examples
    def test_matches_oracle_nondefault_config(self, cfg, packets):
        got = {
            (e.target, e.start_ts, e.end_ts, e.packets)
            for e in detect_rsdos(packets, cfg)
        }
        assert got == oracle_detect_rsdos(packets, cfg)

    def test_tied_events_in_key_order(self):
        # ICMP and TCP flows of one target start together, ICMP first in the
        # input. TCP ends at 60 s and ICMP runs on to 650 s, so an expiry
        # scan would close the TCP flow first.
        burst = [pkt(i * 2.0, proto=proto) for i in range(31) for proto in (1, 6)]
        packets = burst + [pkt(400.0, proto=1), pkt(650.0, proto=1)]
        events = detect_rsdos(packets, CFG)
        assert [(e.start_ts, e.packets) for e in events] == [(0, 33), (0, 31)]

    def test_monotonicity_adding_packets_keeps_attack(self):
        # once a flow is an attack it stays one for the rest of its lifetime
        rng = random.Random(99)
        base = [pkt(i * 1.5) for i in range(45)]  # 66 s span, dense: attack
        assert len(detect_rsdos(base, CFG)) == 1
        for _ in range(20):
            extra_ts = sorted(rng.uniform(66.5, 250.0) for _ in range(rng.randint(1, 30)))
            extended = base + [pkt(t) for t in extra_ts]
            events = detect_rsdos(extended, CFG)
            assert len(events) == 1
            assert events[0].packets == len(extended)

    def test_determinism(self):
        packets = make_trace(424242)
        assert detect_rsdos(packets, CFG) == detect_rsdos(list(packets), CFG)


class TestBackscatterPrefilter:
    def test_syn_ack_kept(self):
        assert backscatter_prefilter([pkt(0, flags="SA")]) == [pkt(0, flags="SA")]

    def test_lone_syn_dropped(self):
        assert backscatter_prefilter([pkt(0, flags="S")]) == []

    def test_rst_kept(self):
        assert len(backscatter_prefilter([pkt(0, flags="R"), pkt(1, flags="AR")])) == 2

    def test_icmp_kept_udp_dropped(self):
        kept = backscatter_prefilter([pkt(0, proto=1), pkt(1, proto=17)])
        assert [p.protocol for p in kept] == [1]

    def test_none_mode_is_identity(self):
        packets = [pkt(0, flags="S"), pkt(1, proto=17), pkt(2, flags="SA")]
        assert backscatter_prefilter(packets, "none") == packets

    def test_a_batch_it_keeps_whole_is_returned_itself(self):
        packets = as_batch([pkt(0, flags="SA"), pkt(1, flags="R"), pkt(2, flags="AR"), pkt(3, proto=1)])
        assert telescope.backscatter_prefilter(packets) is packets

    def test_a_batch_it_drops_from_is_copied_in_order(self):
        packets = as_batch([pkt(0, flags="SA"), pkt(1, flags="S"), pkt(2, proto=1), pkt(3, proto=17)])
        kept = telescope.backscatter_prefilter(packets)
        assert kept is not packets
        for got, col in zip(kept.columns(), packets.columns()):
            assert got.tolist() == col[[0, 2]].tolist()


class TestMinDetectableRate:
    def test_full_internet_telescope(self):
        pps, _ = min_detectable_rate(2 ** 32, 25, 300)
        assert pps == pytest.approx(25 / 300)

    def test_slash_10_equivalent(self):
        pps, _ = min_detectable_rate(2 ** 22, 25, 300)
        assert pps == pytest.approx(25 * 1024 / 300)

    def test_paper_figures_within_10_percent(self):
        _, bps_large = min_detectable_rate(12_582_912, 25, 300, packet_bytes=110)
        assert abs(bps_large / 1e6 - 0.026) / 0.026 < 0.10
        _, bps_small = min_detectable_rate(500_000, 25, 300, packet_bytes=110)
        assert abs(bps_small / 1e6 - 0.60) / 0.60 < 0.10

    def test_inverse_proportionality(self):
        sizes = [1000, 12_582_912, 500_000, 2 ** 30, 7]
        products = [min_detectable_rate(n)[0] * n for n in sizes]
        for prod in products[1:]:
            assert abs(prod - products[0]) / products[0] < 1e-9

    def test_zero_telescope_errors(self):
        with pytest.raises(ValueError):
            min_detectable_rate(0)
