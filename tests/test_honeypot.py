import random

import pytest
from hypothesis import given, settings, strategies as st

from ddoscope import honeypot
from ddoscope.honeypot import PRESETS, preset
from ddoscope.model import AttackDefinition, US_PER_S, parse_prefix

from oracles import (
    AttackEvent,
    PacketRecord,
    as_batch,
    batch_to_events,
    events_to_batch,
    oracle_aggregate_sensors,
    oracle_detect_honeypot,
)


def detect_honeypot(packets, definition):
    """detect_honeypot over PacketRecords, as AttackEvent rows."""
    return batch_to_events(honeypot.detect_honeypot(as_batch(packets), definition))


def aggregate_sensors(events, merge_gap):
    """aggregate_sensors over AttackEvent rows."""
    return batch_to_events(honeypot.aggregate_sensors(events_to_batch(events), merge_gap))

SENSORS = ["192.0.2.1", "192.0.2.2", "192.0.2.3"]
VICTIMS = ["203.0.113.5", "203.0.113.9", "203.0.114.20", "198.51.100.77"]


def req(ts_s, victim=VICTIMS[0], sensor=SENSORS[0], sport=5353, dport=123, size=60):
    return PacketRecord(
        ts=int(round(ts_s * US_PER_S)), protocol=17, src_ip=victim,
        src_port=sport, dst_ip=sensor, dst_port=dport, len_bytes=size,
    )


class TestPresets:
    def test_table_parameters(self):
        amppot = preset("amppot")
        assert amppot.key_fields == ("src_ip", "src_port", "dst_ip", "dst_port")
        assert (amppot.timeout, amppot.pkt_threshold) == (3600.0, 100)
        hop = preset("hopscotch")
        assert hop.key_fields == ("src_ip", "dst_ip", "dst_port")
        assert (hop.timeout, hop.pkt_threshold) == (900.0, 5)
        nk = preset("newkid")
        assert nk.key_fields == ("src_prefix", "dst_ip")
        assert (nk.timeout, nk.pkt_threshold, nk.port_threshold) == (60.0, 5, 2)
        assert nk.src_prefix_len == 24
        mono = preset("newkid-mono")
        assert mono.key_fields == ("src_prefix", "dst_ip", "dst_port")
        assert mono.port_threshold is None

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown honeypot preset"):
            preset("nothere")


class TestAttackDefinition:
    @pytest.mark.parametrize("kwargs, error", [
        ({"key_fields": ("src_ip", "bogus")}, ValueError),
        ({"key_fields": ("src_ip", "src_ip")}, ValueError),
        ({"key_fields": ("src_ip", "src_prefix")}, ValueError),
        ({"timeout": 0.0}, ValueError),
        ({"pkt_threshold": 0}, ValueError),
        ({"port_threshold": 0}, ValueError),
        ({"src_prefix_len": 33}, ValueError),
        # never applied by detection, so the field was removed
        ({"rate_threshold": (1000, 60.0, 10.0)}, TypeError),
    ])
    def test_invalid_definitions_rejected(self, kwargs, error):
        base = {"key_fields": ("src_ip", "dst_ip"), "timeout": 60.0, "pkt_threshold": 5}
        with pytest.raises(error):
            AttackDefinition(**{**base, **kwargs})


class TestDetectHoneypot:
    def test_below_threshold(self):
        packets = [req(i * 10.0) for i in range(4)]
        assert detect_honeypot(packets, preset("hopscotch")) == []

    def test_gap_splits_flow(self):
        # 5 packets with a 16-min gap after the third: flows of 3 and 2
        ts = [0, 60, 120, 120 + 16 * 60, 120 + 16 * 60 + 30]
        packets = [req(t) for t in ts]
        assert detect_honeypot(packets, preset("hopscotch")) == []

    def test_amppot_100_packets_10_minutes(self):
        packets = [req(i * 6.0, dport=123, sport=777) for i in range(100)]
        events = detect_honeypot(packets, preset("amppot"))
        assert len(events) == 1
        assert events[0].packets == 100
        assert events[0].attack_type == "RA"
        assert events[0].target == "203.0.113.5/32"
        assert events[0].sensors == {SENSORS[0]}

    def test_newkid_multi_protocol(self):
        # 3 packets to port 19 + 2 to port 123 from the same /24 in 1 minute
        packets = [
            req(0.0, victim="203.0.113.5", dport=19),
            req(10.0, victim="203.0.113.200", dport=19),
            req(20.0, victim="203.0.113.5", dport=19),
            req(30.0, victim="203.0.113.77", dport=123),
            req(40.0, victim="203.0.113.5", dport=123),
        ]
        events = detect_honeypot(packets, preset("newkid"))
        assert len(events) == 1
        assert events[0].target == "203.0.113.0/24"
        assert events[0].packets == 5
        assert events[0].member_targets == ("203.0.113.200", "203.0.113.5", "203.0.113.77")
        assert events[0].host_targets() == events[0].member_targets

    def test_newkid_multi_needs_two_ports(self):
        packets = [req(i * 5.0, dport=19) for i in range(6)]
        assert detect_honeypot(packets, preset("newkid")) == []
        assert len(detect_honeypot(packets, preset("newkid-mono"))) == 1

    def test_unsorted_per_sensor_errors(self):
        packets = [req(10.0), req(5.0)]
        with pytest.raises(ValueError, match="not time-ordered"):
            detect_honeypot(packets, preset("hopscotch"))

    @pytest.mark.parametrize("seed", range(40))
    def test_order_error_names_first_late_record(self, seed):
        # reference: the record-by-record scan over per-sensor last timestamps
        rng = random.Random(seed)
        packets = [req(rng.choice([0.0, 1.0, 2.0, 3.0]), sensor=rng.choice(SENSORS))
                   for _ in range(rng.randint(2, 30))]
        last: dict = {}
        expected = None
        for i, p in enumerate(packets):
            prev = last.get(p.dst_ip)
            if prev is not None and p.ts < prev:
                expected = (f"packets not time-ordered for sensor {p.dst_ip}: "
                            f"record {i} has ts {p.ts} after ts {prev}")
                break
            last[p.dst_ip] = p.ts
        if expected is None:
            detect_honeypot(packets, preset("hopscotch"))
        else:
            with pytest.raises(ValueError) as exc:
                detect_honeypot(packets, preset("hopscotch"))
            assert str(exc.value) == expected

    def test_tied_events_keep_first_appearance_order(self):
        # same victim and start at two sensors: events tie on the sort key and
        # keep the order in which their flow keys first appear in the input
        packets = [req(i * 10.0, sensor=s) for i in range(5) for s in (SENSORS[2], SENSORS[0])]
        events = detect_honeypot(packets, preset("hopscotch"))
        assert [e.sensors for e in events] == [{SENSORS[2]}, {SENSORS[0]}]

    def test_interleaved_sensors_allowed(self):
        # each sensor's stream is ordered even though the merge is not
        packets = [req(0.0, sensor=SENSORS[0]), req(100.0, sensor=SENSORS[1]),
                   req(50.0, sensor=SENSORS[0])]
        detect_honeypot(packets, preset("hopscotch"))

    def _random_trace(self, rng):
        packets = []
        for _ in range(rng.randint(1, 8)):
            victim = rng.choice(VICTIMS)
            sensor = rng.choice(SENSORS)
            sport = rng.choice([5353, 5353, 9999])
            t = rng.uniform(0, 4000)
            for _ in range(rng.choice([2, 4, 5, 6, 99, 100, 101, rng.randint(1, 150)])):
                packets.append(req(
                    t, victim=victim, sensor=sensor, sport=sport,
                    dport=rng.choice([19, 123, 123]),
                ))
                t += rng.choice([
                    rng.uniform(0, 30), 59.9, 60.1, 899.0, 901.0, 3599.0, 3601.0,
                ])
        bysensor = {}
        for p in sorted(packets, key=lambda p: p.ts):
            bysensor.setdefault(p.dst_ip, []).append(p)
        merged = []
        for pkts in bysensor.values():
            merged.extend(pkts)
        return merged

    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_matches_oracle_on_random_traces(self, preset_name):
        definition = preset(preset_name)
        rng = random.Random(hash(preset_name) & 0xFFFF)
        for case in range(150):
            packets = self._random_trace(rng)
            got = {
                (e.target, e.start_ts, e.end_ts, e.packets, frozenset(e.sensors))
                for e in detect_honeypot(packets, definition)
            }
            assert got == oracle_detect_honeypot(packets, definition), \
                f"{preset_name} case {case}"


class TestAggregateSensors:
    def ev(self, start_s, end_s, target="203.0.113.5/32", packets=10, sensors=("192.0.2.1",)):
        return AttackEvent(
            observatory="hp", attack_type="RA", target=target,
            start_ts=int(start_s * US_PER_S), end_ts=int(end_s * US_PER_S),
            packets=packets, sensors=frozenset(sensors),
        )

    def test_single_event_unchanged(self):
        e = self.ev(0, 100)
        assert aggregate_sensors([e], 900) == [e]

    def test_overlapping_sensors_merge(self):
        a = self.ev(0, 100, sensors=("192.0.2.1",))
        b = self.ev(50, 150, sensors=("192.0.2.2",))
        merged = aggregate_sensors([a, b], 900)
        assert len(merged) == 1
        m = merged[0]
        assert (m.start_ts, m.end_ts) == (0, 150 * US_PER_S)
        assert m.sensors == {"192.0.2.1", "192.0.2.2"}
        assert m.packets == 20

    def test_gap_beyond_merge_gap_stays_split(self):
        gap = 900.0
        a = self.ev(0, 100)
        b = self.ev(100 + gap + 1, 100 + gap + 50)
        assert len(aggregate_sensors([a, b], gap)) == 2
        c = self.ev(100 + gap, 100 + gap + 50)  # exactly the gap: merges
        assert len(aggregate_sensors([a, c], gap)) == 1

    def test_prefix_event_members_union(self):
        a = AttackEvent(observatory="hp", attack_type="RA", target="203.0.113.0/24",
                        start_ts=0, end_ts=10, packets=5, sensors=frozenset({"192.0.2.1"}),
                        member_targets=("203.0.113.5", "203.0.113.77"))
        b = AttackEvent(observatory="hp", attack_type="RA", target="203.0.113.0/24",
                        start_ts=5, end_ts=20, packets=5, sensors=frozenset({"192.0.2.2"}),
                        member_targets=("203.0.113.200", "203.0.113.5"))
        (m,) = aggregate_sensors([a, b], 60.0)
        assert m.member_targets == ("203.0.113.200", "203.0.113.5", "203.0.113.77")
        (h,) = aggregate_sensors([self.ev(0, 100), self.ev(50, 150)], 900)
        assert h.member_targets is None

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="^merge gap -0.5 is negative$"):
            aggregate_sensors([self.ev(0, 100)], -0.5)

    def test_different_targets_never_merge(self):
        a = self.ev(0, 100, target="203.0.113.5/32")
        b = self.ev(0, 100, target="203.0.113.9/32")
        assert len(aggregate_sensors([a, b], 900)) == 2

    def _random_events(self, rng):
        events = []
        for _ in range(rng.randint(1, 25)):
            start = rng.uniform(0, 5000)
            events.append(self.ev(
                start, start + rng.uniform(1, 1500),
                target=rng.choice(VICTIMS) + "/32",
                packets=rng.randint(1, 500),
                sensors=(rng.choice(SENSORS),),
            ))
        return events

    def test_matches_oracle_idempotent_and_conserving(self):
        rng = random.Random(321)
        for _ in range(200):
            events = self._random_events(rng)
            gap = rng.choice([0.5, 60.0, 900.0])
            merged = aggregate_sensors(events, gap)
            got = {
                (e.target, e.start_ts, e.end_ts, e.packets, frozenset(e.sensors))
                for e in merged
            }
            assert got == oracle_aggregate_sensors(events, gap)
            # idempotence
            assert aggregate_sensors(merged, gap) == merged
            # packet conservation and span/sensor sanity
            assert sum(e.packets for e in merged) == sum(e.packets for e in events)
            for e in merged:
                assert e.sensors
            for original in events:
                holder = [m for m in merged if m.target == original.target
                          and m.start_ts <= original.start_ts
                          and original.end_ts <= m.end_ts]
                assert holder, "every input span is contained in some output"


@st.composite
def sensor_events(draw):
    events = []
    for _ in range(draw(st.integers(1, 25))):
        start = draw(st.sampled_from([0, 10, 100, 1000]) | st.integers(0, 5000)) * US_PER_S
        if draw(st.booleans()):
            target, members = f"{draw(st.sampled_from(VICTIMS))}/32", None
        else:
            target = draw(st.sampled_from(["203.0.113.0/24", "203.0.114.0/24"]))
            members = tuple(sorted(draw(st.sets(
                st.sampled_from([target[:-4] + str(i) for i in (5, 9, 77, 200)]), min_size=1))))
        events.append(AttackEvent(
            observatory=draw(st.sampled_from(["hp", "amp"])),
            attack_type=draw(st.sampled_from(["RA", "DP"])),
            target=target, start_ts=start,
            end_ts=start + draw(st.sampled_from([0, 30, 899, 900, 901]) | st.integers(0, 2000)) * US_PER_S,
            packets=draw(st.integers(1, 500)), bytes=draw(st.none() | st.integers(0, 10 ** 6)),
            sensors=frozenset(draw(st.sets(st.sampled_from(SENSORS), min_size=1))),
            member_targets=members,
        ))
    return events


class TestAggregateSensorsOracle:
    @settings(max_examples=200, deadline=None)
    @given(events=sensor_events(), gap=st.sampled_from([0.0, 60.0, 900.0]))
    def test_equals_fixpoint_reference(self, events, gap):
        merged = aggregate_sensors(events, gap)
        for obs, atype in {(e.observatory, e.attack_type) for e in events}:
            assert {(e.target, e.start_ts, e.end_ts, e.packets, e.sensors) for e in merged
                    if (e.observatory, e.attack_type) == (obs, atype)} == oracle_aggregate_sensors(
                [e for e in events if (e.observatory, e.attack_type) == (obs, atype)], gap)
        for m in merged:
            held = [e for e in events if (e.observatory, e.attack_type, e.target) ==
                    (m.observatory, m.attack_type, m.target) and m.start_ts <= e.start_ts <= m.end_ts]
            assert m.packets == sum(e.packets for e in held)
            assert m.bytes == (None if None in [e.bytes for e in held] else sum(e.bytes for e in held))
            assert m.member_targets == (tuple(sorted({h for e in held for h in e.member_targets}))
                                        if held[0].member_targets else None)
        keys = [(e.start_ts, parse_prefix(e.target), e.observatory, e.attack_type) for e in merged]
        assert keys == sorted(keys)
