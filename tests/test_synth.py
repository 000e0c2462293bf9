import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ddoscope.honeypot import aggregate_sensors, detect_honeypot, preset
from ddoscope.ioformats import MAX_BITRATE_BPS, read_flows, read_packets
from ddoscope.model import MAX_TS_US, EventBatch, PacketBatch, format_prefix, int_to_ip, ip_to_int, parse_prefix, prefix_mask
from ddoscope.schema import ConfigError
from ddoscope.synth import (
    MAX_DURATION_S,
    MAX_PACKET_BYTES,
    MAX_PACKET_ROWS,
    TELESCOPE_BASE,
    AttackSpec,
    ScenarioSpec,
    generate,
    sensor_filename,
    write_scenario,
)
from ddoscope.telescope import ADDRESS_SPACE, TelescopeConfig, detect_rsdos

from oracles import batch_to_events, batch_to_records

SENSORS = tuple(f"198.51.100.{i}" for i in range(1, 11))


def scenario(attacks, seed=1234, duration=3600, n_addresses=2 ** 22):
    return ScenarioSpec(
        seed=seed, duration_s=duration, telescope_addresses=n_addresses,
        honeypot_sensors=SENSORS, attacks=tuple(attacks),
    )


def rsdos(victim="203.0.113.7", start=0, duration=300, rate=20000, **kw):
    return AttackSpec(type="rsdos", victim=victim, start_s=start,
                      duration_s=duration, rate_pps=rate, **kw)


def reflection(victim="203.0.113.9", start=0, duration=600, rate=10 / 6,
               subset=5, **kw):
    return AttackSpec(type="reflection", victim=victim, start_s=start,
                      duration_s=duration, rate_pps=rate,
                      reflector_subset=subset, **kw)


class TestScenarioValidation:
    def test_zero_attacks_empty_outputs(self):
        g = generate(scenario([]))
        assert len(g.telescope_packets) == 0
        assert all(len(v) == 0 for v in g.honeypot_packets.values())
        assert len(g.flows) == 0
        assert g.ground_truth["attacks"] == []

    def test_attack_past_scenario_end(self):
        with pytest.raises(ValueError, match="past the scenario end"):
            scenario([rsdos(start=3500, duration=300)])

    def test_rsdos_needs_packets(self):
        with pytest.raises(ValueError, match="rate_pps \\* duration_s = 0.4 rounds to 0"):
            rsdos(rate=0.4, duration=1)

    def test_reflection_needs_sensors(self):
        with pytest.raises(ValueError):
            scenario([reflection(subset=0)])
        with pytest.raises(ValueError, match="sensors"):
            scenario([reflection(subset=11)])

    @pytest.mark.parametrize("ports", [(), (70000,), (123, -1)])
    def test_reflection_ports_checked(self, ports):
        # an out-of-range port would wrap silently in the uint16 column
        with pytest.raises(ValueError, match="ports"):
            reflection(ports=ports)

    def test_planned_packet_rows_are_bounded(self):
        # 1e8 attack packets of which a 2**22-address telescope sees one in 1024
        # (97 656.25 rows), and a reflection's requests, each counted as planned
        at_bound = MAX_PACKET_ROWS - 97_657
        assert scenario([rsdos(rate=1e8 / 300), reflection(rate=at_bound / 600)])
        with pytest.raises(ValueError, match="^the attacks plan 1e[+]07 packet rows, above the 10000000 "
                                             "a scenario may hold$"):
            scenario([rsdos(rate=1e8 / 300), reflection(rate=(at_bound + 1) / 600)])
        with pytest.raises(ValueError, match="^the attacks plan 7.5e[+]07 packet rows"):
            scenario([rsdos(rate=1e8 / 300)], n_addresses=2 ** 32 - 2 ** 30)

    def test_the_telescope_block_ends_within_ipv4(self):
        # the block starts at 10.0.0.0, so it holds at most 2^32 - 2^27 - 2^25 addresses,
        # and a telescope that size generates for every seed
        at_bound = ADDRESS_SPACE - TELESCOPE_BASE
        assert at_bound == 4_127_195_136
        for seed in range(40):
            dst = generate(scenario([rsdos(rate=20 / 300)], seed=seed, n_addresses=at_bound)).telescope_packets.dst
            assert len(dst) and TELESCOPE_BASE <= int(dst.min())
        for n in (0, at_bound + 1, 2 ** 32 - 2 ** 26, ADDRESS_SPACE):
            with pytest.raises(ValueError, match="^telescope size out of range$"):
                scenario([rsdos(rate=20 / 300)], n_addresses=n)

    def test_packet_bytes_fit_packets_csv(self):
        assert rsdos(packet_bytes=MAX_PACKET_BYTES).packet_bytes == 999_999_999
        with pytest.raises(ValueError, match="^packet_bytes 1000000000 above 999999999$"):
            rsdos(packet_bytes=10 ** 9)

    def test_bitrate_fits_flows_csv(self, tmp_path):
        # rate_pps * packet_bytes * 8, times amplification for a reflection only
        at_bound = [AttackSpec(type="direct_nonspoofed", victim="203.0.113.11", start_s=0, duration_s=1,
                               rate_pps=1.25e11, packet_bytes=1000),
                    rsdos(duration=1, rate=1.25e11, packet_bytes=1000, amplification=1e6),
                    reflection(duration=1, rate=1, packet_bytes=1000, amplification=1.25e11)]
        assert [a.bitrate_bps for a in at_bound] == [MAX_BITRATE_BPS] * 3
        with pytest.raises(ValueError, match="^bitrate_bps 1.6e\\+16 above 1000000000000000$"):
            AttackSpec(type="direct_nonspoofed", victim="203.0.113.11", start_s=0, duration_s=1,
                       rate_pps=2e12, packet_bytes=1000)
        with pytest.raises(ValueError, match="^bitrate_bps 1.6e\\+15 above 1000000000000000$"):
            reflection(duration=1, rate=1, packet_bytes=1000, amplification=2e11)
        # the flow summaries of the first and the last read back (an rsdos at 1.25e11 pps is too many packets)
        g = generate(scenario([at_bound[0], dataclasses.replace(at_bound[2], victim="203.0.113.12")]))
        write_scenario(g, tmp_path)
        assert read_flows(tmp_path / "flows.csv").bitrate_bps.tolist() == [MAX_BITRATE_BPS] * 2

    @pytest.mark.parametrize("duration", [MAX_DURATION_S + 1, 3e11, math.inf, math.nan])
    def test_scenario_ends_by_year_9999(self, duration):
        with pytest.raises(ValueError, match="^duration_s .* ends the scenario past 9999-12-31T23:59:59$"):
            scenario([], duration=duration)

    def test_largest_spec_reads_back(self, tmp_path):
        # the last second and the widest packets a spec allows still fit packets.csv, and at the
        # highest rate the flows.csv bitrate bound leaves those packets, the flows read back too
        end = MAX_DURATION_S
        widest = MAX_PACKET_BYTES
        g = generate(scenario([rsdos(start=end - 2, duration=2, rate=MAX_BITRATE_BPS // (8 * widest),
                                     packet_bytes=widest),
                               reflection(start=end - 1, duration=1, rate=100, packet_bytes=widest)],
                              duration=end))
        write_scenario(g, tmp_path)
        assert len(g.telescope_packets) and g.telescope_packets.ts.max() <= MAX_TS_US
        for path, batch in [(tmp_path / "telescope.csv", g.telescope_packets),
                            *((tmp_path / sensor_filename(s), b) for s, b in g.honeypot_packets.items())]:
            back = read_packets(path)
            for name, col in columns(batch).items():
                assert np.array_equal(getattr(back, name), col), name
        flows = read_flows(tmp_path / "flows.csv")
        assert flows.end_ts.tolist() == g.flows.end_ts.tolist()
        assert flows.bitrate_bps.tolist() == pytest.approx(g.flows.bitrate_bps.tolist())

    def test_json_round_trip(self):
        doc = {
            "seed": 9, "duration_s": 600,
            "telescope": {"n_addresses": 1024},
            "honeypot_sensors": list(SENSORS),
            "attacks": [
                {"type": "rsdos", "victim": "203.0.113.7", "start_s": 0,
                 "duration_s": 60, "rate_pps": 100},
                {"type": "reflection", "victim": "203.0.113.8", "start_s": 0,
                 "duration_s": 60, "rate_pps": 5, "reflector_subset": 2,
                 "ports": [19, 123], "amplification": 50.0},
            ],
        }
        spec = ScenarioSpec.from_json(doc)
        assert spec.attacks[1].ports == (19, 123)
        assert spec.attacks[1].amplification == 50.0

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(seed=7.9), "scenario: seed must be an integer, not 7.9"),
        (lambda doc: doc.update(seed="7"), "scenario: seed must be an integer, not '7'"),
        (lambda doc: doc["telescope"].update(n_addresses=4194304.5),
         "telescope: n_addresses must be an integer, not 4194304.5"),
        (lambda doc: doc["attacks"][0].update(packet_bytes=110.7),
         "attacks[0]: packet_bytes must be an integer, not 110.7"),
        (lambda doc: doc["attacks"][1].update(ports="53"), "attacks[1]: ports must be a list of integers, not '53'"),
        (lambda doc: doc.update(sensors=[]), "scenario: unknown config keys ['sensors']"),
        (lambda doc: doc["attacks"][0].update(rate=5), "attacks[0]: unknown config keys ['rate']"),
    ], ids=["seed-float", "seed-string", "n_addresses", "packet_bytes", "ports", "top-key", "attack-key"])
    def test_values_that_would_not_run_as_written_are_rejected(self, edit, message):
        doc = {
            "seed": 9, "duration_s": 600, "telescope": {"n_addresses": 1024},
            "honeypot_sensors": list(SENSORS),
            "attacks": [
                {"type": "rsdos", "victim": "203.0.113.7", "start_s": 0, "duration_s": 60, "rate_pps": 100},
                {"type": "reflection", "victim": "203.0.113.8", "start_s": 0, "duration_s": 60,
                 "rate_pps": 5, "reflector_subset": 2},
            ],
        }
        edit(doc)
        with pytest.raises(ConfigError) as err:
            ScenarioSpec.from_json(doc)
        assert str(err.value) == message


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        spec = scenario([rsdos(), reflection(start=100)])
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_scenario(generate(spec), a)
        write_scenario(generate(spec), b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
        files_b = sorted(p.relative_to(b) for p in b.rglob("*.csv"))
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()
        assert (a / "ground_truth.json").read_bytes() == (b / "ground_truth.json").read_bytes()

    def test_seed_changes_output(self):
        g1 = generate(scenario([rsdos()], seed=1))
        g2 = generate(scenario([rsdos()], seed=2))
        assert g1.telescope_packets.ts.tolist() != g2.telescope_packets.ts.tolist()

    def test_substreams_isolated(self):
        # adding a second attack must not perturb the first one's packets
        one = generate(scenario([rsdos()]))
        two = generate(scenario([rsdos(), reflection(start=1000, victim="203.0.113.99")]))
        assert batch_to_records(one.telescope_packets, one.telescope_lengths) == \
            batch_to_records(two.telescope_packets, two.telescope_lengths)


class TestTelescopeSampling:
    def test_unbiased_over_30_seeds(self):
        rate, dur, n = 20_000, 300, 12_582_912
        p = n / ADDRESS_SPACE
        total = rate * dur
        expectation = total * p
        stderr = math.sqrt(total * p * (1 - p))
        counts = []
        for seed in range(30):
            g = generate(scenario(
                [rsdos(rate=rate, duration=dur)], seed=seed, n_addresses=n,
            ))
            assert g.ground_truth["attacks"][0]["telescope"]["observed_packets"] == len(g.telescope_packets)
            counts.append(len(g.telescope_packets))
        mean = sum(counts) / len(counts)
        assert abs(mean - expectation) <= 3 * stderr / math.sqrt(len(counts))

    def test_ground_truth_matches_spec(self):
        g = generate(scenario([rsdos(rate=1000, duration=100)]))
        atk = g.ground_truth["attacks"][0]
        assert atk["attack_packets"] == 100_000
        assert atk["telescope"]["expected_packets"] == pytest.approx(100_000 * 2 ** 22 / ADDRESS_SPACE)
        assert atk["flow"]["classification"] is None  # 0.88 Mbps TCP: below DP cut


class TestReflectionEmission:
    def test_five_of_ten_sensors_200_packets(self):
        # 1000 packets over 10 minutes across 5 sensors -> 200 per sensor;
        # hopscotch + aggregation recovers exactly one event, |sensors| = 5
        g = generate(scenario([reflection(rate=10 / 6, duration=600, subset=5)]))
        hit = {s: len(p) for s, p in g.honeypot_packets.items() if p}
        assert len(hit) == 5
        assert all(v == 200 for v in hit.values())
        events = EventBatch.concat([detect_honeypot(pkts, preset("hopscotch"))
                                    for pkts in g.honeypot_packets.values()])
        merged = batch_to_events(aggregate_sensors(events, 900))
        assert len(merged) == 1
        assert len(merged[0].sensors) == 5
        assert merged[0].packets == 1000
        assert merged[0].target == "203.0.113.9/32"

    def test_sensor_choice_is_seeded(self):
        def hit(seed):
            g = generate(scenario([reflection()], seed=seed))
            return frozenset(s for s, p in g.honeypot_packets.items() if len(p))
        assert hit(5) == hit(5)
        # 5 of 10 sensors: 252 possible sets, so the seed must change the choice
        assert len({hit(seed) for seed in range(10)}) >= 2

    def test_multi_port_reflection(self):
        g = generate(scenario([reflection(rate=1, duration=60, subset=1, ports=(19, 123))]))
        pkts = next(p for p in g.honeypot_packets.values() if len(p))
        assert set(pkts.dst_port.tolist()) == {19, 123}

    def test_amplified_flow_classified_ra(self):
        g = generate(scenario([
            reflection(rate=20, duration=300, subset=10, packet_bytes=500,
                       amplification=13_000.0),
        ]))
        atk = g.ground_truth["attacks"][0]
        assert atk["flow"]["classification"] == "RA"
        assert atk["flow"]["bitrate_bps"] > 1e9


class TestNonSpoofed:
    def test_flows_only(self):
        g = generate(scenario([
            AttackSpec(type="direct_nonspoofed", victim="203.0.113.11",
                       start_s=0, duration_s=300, rate_pps=150_000,
                       packet_bytes=1000),
        ]))
        assert len(g.telescope_packets) == 0
        assert all(len(v) == 0 for v in g.honeypot_packets.values())
        assert len(g.flows) == 1
        assert g.ground_truth["attacks"][0]["flow"]["classification"] == "DP"


class TestEndToEndRecovery:
    def test_noiseless_precision_recall_one(self):
        spec = scenario([
            rsdos(victim="203.0.113.7", start=0, duration=300, rate=5000),
            rsdos(victim="203.0.113.8", start=600, duration=300, rate=5000),
            reflection(victim="203.0.114.1", start=0, duration=600, rate=5 / 3, subset=4),
            reflection(victim="203.0.114.2", start=1200, duration=600, rate=5 / 3, subset=7),
        ], n_addresses=2 ** 22)
        g = generate(spec)

        tele_events = batch_to_events(detect_rsdos(g.telescope_packets, TelescopeConfig(n_addresses=2 ** 22)))
        want_tele = {"203.0.113.7/32", "203.0.113.8/32"}
        assert {e.target for e in tele_events} == want_tele
        assert len(tele_events) == 2

        hp_events = EventBatch.concat([detect_honeypot(pkts, preset("hopscotch"))
                                       for pkts in g.honeypot_packets.values()])
        merged = batch_to_events(aggregate_sensors(hp_events, 900))
        assert {e.target for e in merged} == {"203.0.114.1/32", "203.0.114.2/32"}
        assert len(merged) == 2
        by_target = {e.target: e for e in merged}
        assert len(by_target["203.0.114.1/32"].sensors) == 4
        assert len(by_target["203.0.114.2/32"].sensors) == 7


# -- columnar emission: properties of every generated file --------------------

@st.composite
def victims(draw):
    plen = draw(st.sampled_from([32, 32, 31, 28, 24, 16]))
    net = draw(st.integers(0, 2 ** 32 - 1)) & prefix_mask(plen)
    return int_to_ip(net) if plen == 32 else format_prefix(net, plen)


def timing(draw, max_rate: float) -> dict:
    """Fractional start, duration and rate; at most 40 * max_rate packets."""
    return dict(victim=draw(victims()), start=draw(st.floats(0, 1000)),
                duration=draw(st.floats(0.1, 40)), rate=draw(st.floats(0.05, max_rate)),
                packet_bytes=draw(st.sampled_from([20, MAX_PACKET_BYTES])
                                  | st.integers(20, MAX_PACKET_BYTES)))


@st.composite
def rsdos_specs(draw):
    t = timing(draw, 5000)
    assume(round(t["rate"] * t["duration"]) >= 1)    # AttackSpec rejects rsdos with no packets
    return rsdos(**t)


@st.composite
def reflection_specs(draw):
    return reflection(**timing(draw, 60), subset=draw(st.integers(1, len(SENSORS))),
                      ports=tuple(draw(st.lists(st.integers(1, 65535), min_size=1, max_size=3))))


def in_prefix(addrs: np.ndarray, prefix: str) -> bool:
    net, plen = parse_prefix(prefix)
    return bool(np.all(addrs & np.uint32(prefix_mask(plen)) == net))


def columns(batch: PacketBatch) -> dict:
    return {name: getattr(batch, name) for name in PacketBatch.DTYPES}


class TestColumnarEmission:
    @settings(max_examples=60, deadline=None)
    @given(tele=rsdos_specs(), refl=reflection_specs(), n_addresses=st.sampled_from([2 ** 24, 2 ** 28]) | st.integers(1, 2 ** 28),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_rows_follow_the_spec(self, tmp_path_factory, tele, refl, n_addresses, seed):
        end = max(a.start_s + a.duration_s for a in (tele, refl))
        g = generate(scenario([tele, refl], seed=seed, duration=math.ceil(end) + 1,
                              n_addresses=n_addresses))
        truth_tele, truth_refl = g.ground_truth["attacks"]
        for batch, atk in [(g.telescope_packets, truth_tele),
                           *((b, truth_refl) for b in g.honeypot_packets.values())]:
            assert np.all(np.diff(batch.ts) >= 0)
            assert np.all((atk["start_ts_us"] <= batch.ts) & (batch.ts <= atk["end_ts_us"]))
            assert in_prefix(batch.src, atk["victim"])

        scope = g.telescope_packets
        assert truth_tele["telescope"]["observed_packets"] == len(scope)
        assert np.all((TELESCOPE_BASE <= scope.dst) & (scope.dst < TELESCOPE_BASE + n_addresses))
        assert set(scope.protocol.tolist()) <= {6} and set(scope.flags.tolist()) <= {3}

        chosen = truth_refl["honeypot"]["sensors"]
        per_sensor = truth_refl["honeypot"]["packets_per_sensor"]
        ports = np.array(truth_refl["honeypot"]["dst_ports"])
        assert len(chosen) == refl.reflector_subset
        for sensor, batch in g.honeypot_packets.items():
            assert len(batch) == (per_sensor if sensor in chosen else 0)
            assert np.all(batch.dst == ip_to_int(sensor))
            # dst ports cycle in time order; rows sharing a timestamp may come in any order
            want = ports[np.arange(len(batch)) % len(ports)]
            assert np.array_equal(batch.dst_port[np.lexsort((batch.dst_port, batch.ts))],
                                  want[np.lexsort((want, batch.ts))])

        out = tmp_path_factory.mktemp("synth")
        write_scenario(g, out)
        for path, batch in [(out / "telescope.csv", scope),
                            *((out / sensor_filename(s), b) for s, b in g.honeypot_packets.items())]:
            back = read_packets(path)
            for name, col in columns(batch).items():
                got = getattr(back, name)
                assert got.dtype == col.dtype and np.array_equal(got, col), name
