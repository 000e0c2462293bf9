import random

import numpy as np
from hypothesis import given, settings, strategies as st

from ddoscope import flowclass
from ddoscope.flowclass import (
    AMPLIFICATION_PORTS,
    TCP,
    UDP,
    attack_masks,
)
from ddoscope.model import FlowBatch, int_to_ip, ip_to_int

from oracles import batch_to_events, oracle_classify_flow


def classify_flow(flows, ampl_ports=AMPLIFICATION_PORTS, observatory="flow"):
    """classify_flow as AttackEvent rows."""
    return batch_to_events(flowclass.classify_flow(flows, ampl_ports, observatory))

TARGET = ip_to_int("203.0.113.7")


def flow_row(protocol=UDP, src_port=123, sources=12, gbps=1.2, start=0, end=300_000_000):
    return (TARGET, protocol, src_port, sources, gbps * 1e9, start, end)


def classify_one(ampl_ports=AMPLIFICATION_PORTS, **row):
    events = classify_flow(FlowBatch.from_rows([flow_row(**row)]), ampl_ports)
    assert len(events) <= 1
    return events[0] if events else None


class TestClassifyFlow:
    def test_udp_amplification_is_ra(self):
        e = classify_one(protocol=UDP, src_port=123, sources=12, gbps=1.2)
        assert e is not None and e.attack_type == "RA"
        assert e.target == "203.0.113.7/32"
        assert e.source_ips == 12

    def test_too_few_sources(self):
        assert classify_one(sources=9, gbps=5.0) is None

    def test_tcp_direct_path(self):
        e = classify_one(protocol=TCP, src_port=0, sources=15, gbps=0.150)
        assert e is not None and e.attack_type == "DP"

    def test_thresholds_strict(self):
        # exactly 1 Gbps fails; exactly 10 sources passes
        assert classify_one(sources=10, gbps=1.0) is None
        assert classify_one(sources=10, gbps=1.0 + 1e-9) is not None
        assert classify_one(protocol=TCP, src_port=0, sources=10, gbps=0.1) is None
        assert classify_one(protocol=TCP, src_port=0, sources=10, gbps=0.11) is not None

    def test_non_amplification_port_udp(self):
        assert classify_one(src_port=4444, sources=50, gbps=9.0) is None

    def test_never_crosses_protocols(self):
        rng = random.Random(5)
        rows = []
        for _ in range(2000):
            protocol = rng.choice([UDP, TCP, 1, 47])
            rows.append(flow_row(
                protocol=protocol,
                src_port=rng.choice(sorted(AMPLIFICATION_PORTS) + [4444, 0]) if protocol in (UDP, TCP) else 0,
                sources=rng.randint(1, 50),
                gbps=rng.uniform(0, 5),
            ))
        ra, dp = attack_masks(FlowBatch.from_rows(rows))
        assert not (ra & dp).any()
        for (_, protocol, src_port, sources, bitrate, _, _), is_ra, is_dp in zip(rows, ra, dp):
            assert not is_ra or (protocol == UDP and src_port in AMPLIFICATION_PORTS
                                 and sources >= 10 and bitrate > 1e9)
            assert not is_dp or (protocol == TCP and sources >= 10 and bitrate > 1e8)

    def test_custom_port_set(self):
        assert classify_one(src_port=4444, sources=12, gbps=2.0,
                            ampl_ports=frozenset({4444})) is not None

    def test_events_follow_row_order(self):
        rows = [flow_row(protocol=TCP, src_port=0, gbps=0.5, start=30),
                flow_row(sources=3),
                flow_row(gbps=2.0, start=10),
                flow_row(protocol=TCP, src_port=0, gbps=0.5, start=20)]
        events = classify_flow(FlowBatch.from_rows(rows), observatory="ixp")
        assert [(e.attack_type, e.start_ts, e.observatory) for e in events] == \
               [("DP", 30, "ixp"), ("RA", 10, "ixp"), ("DP", 20, "ixp")]
        assert classify_flow(FlowBatch.from_rows([])) == []


@st.composite
def flow_rows(draw):
    protocol = draw(st.sampled_from([UDP, TCP, 1, 47]) | st.integers(0, 255))
    return (
        draw(st.integers(0, 2 ** 32 - 1)), protocol,
        draw(st.sampled_from(sorted(AMPLIFICATION_PORTS) + [0, 4444]) | st.integers(0, 65535)),
        draw(st.integers(1, 30) | st.integers(1, 2 ** 32)),
        draw(st.sampled_from([1e8, 1e9, 1e8 + 1e-6, 1e9 + 1e-6, 0.0])
             | st.floats(0, 1e13, allow_nan=False)),
        0, 1,
    )


class TestMasksMatchOracle:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(flow_rows(), max_size=40),
           ports=st.sampled_from([AMPLIFICATION_PORTS, frozenset(), frozenset({4444, 0})]))
    def test_every_row(self, rows, ports):
        flows = FlowBatch.from_rows(rows)
        ra, dp = attack_masks(flows, ports)
        expected = [oracle_classify_flow(p, sp, n, bps, ports) for _, p, sp, n, bps, _, _ in rows]
        assert ["RA" if r else "DP" if d else None for r, d in zip(ra, dp)] == expected
        events = classify_flow(flows, ports)
        assert [(e.attack_type, e.target, e.source_ips) for e in events] == [
            (cls, f"{int_to_ip(t)}/32", n)
            for (t, _, _, n, _, _, _), cls in zip(rows, expected) if cls is not None]
        assert np.array_equal(ra | dp, [cls is not None for cls in expected])
        batch = flowclass.classify_flow(flows, ports)
        assert (batch.plen == 32).all() and batch.net.dtype == np.uint32 and not batch.has_bytes.any()
