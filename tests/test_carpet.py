import random

import pytest
from hypothesis import given, settings, strategies as st

from ddoscope.carpet import aggregate_carpet as aggregate_batch
from ddoscope.model import (
    US_PER_S,
    int_to_ip,
    ip_to_int,
    parse_prefix,
    prefix_mask,
)

from conftest import prefix_table
from oracles import (
    AttackEvent,
    batch_to_events,
    events_to_batch,
    oracle_aggregate_carpet,
    oracle_longest_covering,
    prefix_contains,
)

ROUTED_ROWS = [
    ("203.0.113.0/24", 64500),
    ("203.0.112.0/20", 64500),
    ("203.0.0.0/16", 64501),
    ("10.0.0.0/8", 64502),
    ("198.51.100.0/24", 64503),
]
ROUTED = prefix_table(ROUTED_ROWS)
ALLOC = prefix_table([
    ("203.0.112.0/22", "ripe"),
    ("203.0.116.0/22", "ripe"),
    ("198.51.100.0/24", "arin"),
    ("10.0.0.0/8", "arin"),
])


def aggregate_carpet(events, *args, **kwargs):
    """aggregate_carpet over AttackEvent rows."""
    return batch_to_events(aggregate_batch(events_to_batch(events), *args, **kwargs))


def ev(target_ip, start_s, end_s, packets=50, atype="RA"):
    return AttackEvent(
        observatory="hp", attack_type=atype, target=f"{target_ip}/32",
        start_ts=int(start_s * US_PER_S), end_ts=int(end_s * US_PER_S),
        packets=packets,
    )


class TestCarpetFixtures:
    def test_singleton_passes_through(self):
        e = ev("203.0.113.5", 0, 100)
        assert aggregate_carpet([e], ROUTED, ALLOC) == [e]

    def test_concurrent_pair_merges_to_routed_24(self):
        a = ev("203.0.113.5", 0, 100)
        b = ev("203.0.113.99", 20, 130)
        out = aggregate_carpet([a, b], ROUTED, ALLOC)
        assert len(out) == 1
        m = out[0]
        assert m.target == "203.0.113.0/24"
        assert (m.start_ts, m.end_ts) == (0, 130 * US_PER_S)
        assert m.packets == 100
        assert sorted(m.member_targets) == ["203.0.113.5", "203.0.113.99"]
        # the target matches the exhaustive covering-prefix oracle
        oracle = oracle_longest_covering(ROUTED, {a.target, b.target})
        assert oracle is not None and oracle[0] == m.target

    def test_allocation_split_blocks_merge(self):
        # one /20 routed prefix, but the targets sit in two RIR allocations
        a = ev("203.0.112.5", 0, 100)
        b = ev("203.0.119.9", 10, 90)
        out = aggregate_carpet([a, b], ROUTED, ALLOC)
        assert sorted(e.target for e in out) == ["203.0.112.5/32", "203.0.119.9/32"]

    def test_slash8_covering_prefix_rejected(self):
        a = ev("10.0.0.5", 0, 100)
        b = ev("10.200.0.9", 10, 90)
        out = aggregate_carpet([a, b], ROUTED, ALLOC)
        assert len(out) == 2

    def test_nonconcurrent_not_merged(self):
        a = ev("203.0.113.5", 0, 100)
        b = ev("203.0.113.99", 100 + 61, 300)  # beyond the 60 s gap
        assert len(aggregate_carpet([a, b], ROUTED, ALLOC)) == 2
        c = ev("203.0.113.99", 100 + 59, 300)  # within the gap
        assert len(aggregate_carpet([a, c], ROUTED, ALLOC)) == 1

    def test_attack_types_do_not_mix(self):
        a = ev("203.0.113.5", 0, 100, atype="RA")
        b = ev("203.0.113.99", 10, 90, atype="DP")
        assert len(aggregate_carpet([a, b], ROUTED, ALLOC)) == 2

    def test_unsorted_input_equals_sorted(self):
        a = ev("203.0.113.5", 100, 200)
        b = ev("203.0.113.99", 0, 90)
        out = aggregate_carpet([a, b], ROUTED, ALLOC)
        assert [e.target for e in out] == ["203.0.113.0/24"]
        assert out == aggregate_carpet([b, a], ROUTED, ALLOC)

    def test_missing_tables_error(self):
        with pytest.raises(ValueError):
            aggregate_carpet([ev("203.0.113.5", 0, 1)], None, ALLOC)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="^concurrency gap -1.0 is negative$"):
            aggregate_carpet([ev("203.0.113.5", 0, 1)], ROUTED, ALLOC, concurrency_gap=-1.0)

    @pytest.mark.parametrize("min_targets", [1, 0, -3])
    def test_min_targets_below_two_rejected(self, min_targets):
        # a lone /32 under a routed prefix would otherwise become a carpet event
        with pytest.raises(ValueError, match=f"^min_targets {min_targets} is below 2: a single target is no carpet$"):
            aggregate_carpet([ev("203.0.113.5", 0, 1)], ROUTED, ALLOC, min_targets=min_targets)


class TestCarpetProperties:
    def _random_events(self, rng):
        events = []
        t = 0.0
        for _ in range(rng.randint(1, 20)):
            t += rng.choice([0.0, 5.0, 30.0, 61.0, 120.0, 400.0])
            block = rng.choice(["203.0.113", "203.0.112", "203.0.119", "10.7.3", "198.51.100"])
            events.append(ev(
                f"{block}.{rng.randint(1, 254)}", t, t + rng.uniform(10, 200),
                packets=rng.randint(1, 100),
                atype=rng.choice(["RA", "RA", "DP"]),
            ))
        return sorted(events, key=lambda e: e.start_ts)

    def test_invariants_on_random_scenarios(self):
        rng = random.Random(2024)
        for _ in range(300):
            events = self._random_events(rng)
            out = aggregate_carpet(events, ROUTED, ALLOC)
            routed_set = {p for p, _ in ROUTED_ROWS}

            # packet conservation
            assert sum(e.packets for e in out) == sum(e.packets for e in events)

            # partition: every input event is represented in exactly one
            # output, either verbatim or inside one merged event
            got_hosts = []
            for e in out:
                got_hosts.extend(e.host_targets())
            want_hosts = {t.target.split("/")[0] for t in events}
            assert set(got_hosts) == want_hosts
            for e in events:
                holders = [
                    m for m in out
                    if m == e or (
                        m.member_targets is not None
                        and e.target.split("/")[0] in m.member_targets
                        and m.start_ts <= e.start_ts
                        and e.end_ts <= m.end_ts
                        and m.attack_type == e.attack_type
                    )
                ]
                assert len(holders) == 1, f"event held by {len(holders)} outputs"

            for e in out:
                net, plen = parse_prefix(e.target)
                if plen == 32:
                    continue
                # merged prefixes are routed, length-bounded, single-allocation
                assert e.target in routed_set
                assert 11 <= plen <= 28
                blocks = {oracle_longest_covering(ALLOC, {f"{h}/32"}) for h in e.member_targets}
                assert len(blocks) == 1 and None not in blocks
                for h in e.member_targets:
                    assert prefix_contains(net, plen, ip_to_int(h), 32)

            # idempotence on its own output
            again = aggregate_carpet(out, ROUTED, ALLOC)
            assert again == out

    def test_any_order_equals_time_sorted(self):
        rng = random.Random(30)
        for _ in range(300):
            events = self._random_events(rng)
            rng.shuffle(events)
            assert (aggregate_carpet(events, ROUTED, ALLOC)
                    == aggregate_carpet(sorted(events, key=lambda e: e.start_ts), ROUTED, ALLOC))

    def test_merged_target_matches_exhaustive_oracle(self):
        rng = random.Random(77)
        for _ in range(200):
            events = self._random_events(rng)
            out = aggregate_carpet(events, ROUTED, ALLOC)
            for e in out:
                _, plen = parse_prefix(e.target)
                if plen == 32:
                    continue
                oracle = oracle_longest_covering(ROUTED, {f"{h}/32" for h in e.member_targets})
                assert oracle is not None
                assert oracle[0] == e.target


class TestCarpetClustering:
    def test_cluster_extends_to_latest_end_seen(self):
        # the short event ends long before the third starts, but the long
        # first event is still running: all three are one cluster
        events = [
            ev("203.0.113.5", 0, 1000),
            ev("203.0.113.6", 10, 20),
            ev("203.0.113.7", 500, 600),
        ]
        out = aggregate_carpet(events, ROUTED, ALLOC, concurrency_gap=60.0)
        assert len(out) == 1
        assert out[0].member_targets == ("203.0.113.5", "203.0.113.6", "203.0.113.7")
        assert (out[0].start_ts, out[0].end_ts) == (0, 1000 * US_PER_S)

    def test_nested_targets_cover_the_widest_one(self):
        # the /32 sorts above the /24 as (net, plen), but the /24 reaches
        # higher; the covering prefix must hold every member host
        routed = prefix_table([("10.0.0.0/16", 64500), ("10.0.0.0/28", 64500)])
        alloc = prefix_table([("10.0.0.0/16", "arin")])
        wide = AttackEvent(
            observatory="hp", attack_type="RA", target="10.0.0.0/24",
            start_ts=0, end_ts=100 * US_PER_S, packets=10,
            member_targets=("10.0.0.7", "10.0.0.200"),
        )
        host = ev("10.0.0.1", 10, 90)
        out = aggregate_carpet([wide, host], routed, alloc)
        assert len(out) == 1
        assert out[0].target == "10.0.0.0/16"
        assert out[0].member_targets == ("10.0.0.1", "10.0.0.200", "10.0.0.7")


# -- the running-max clustering against the greedy reference ---------------------

NESTED_ROUTED = prefix_table(ROUTED_ROWS + [
    ("203.0.113.0/25", 64510), ("203.0.113.64/26", 64511), ("10.7.0.0/16", 64504),
    ("10.7.3.0/24", 64505),
])
HOSTS = ["203.0.113.5", "203.0.113.70", "203.0.113.99", "203.0.113.200", "203.0.112.9",
         "203.0.119.9", "10.7.3.1", "10.7.3.77", "10.7.9.4", "198.51.100.3"]
PREFIXES = ["203.0.113.0/24", "203.0.113.64/26", "203.0.112.0/22", "10.7.3.0/24"]


@st.composite
def carpet_events(draw):
    events, t = [], 0
    for _ in range(draw(st.integers(1, 25))):
        t += draw(st.sampled_from([0, 0, 1, 30, 59, 60, 61, 200])) * US_PER_S
        if draw(st.integers(0, 4)):
            target, members = f"{draw(st.sampled_from(HOSTS))}/32", None
        else:
            target = draw(st.sampled_from(PREFIXES))
            net, plen = parse_prefix(target)
            inside = [h for h in HOSTS if ip_to_int(h) & prefix_mask(plen) == net]
            members = tuple(sorted(draw(st.sets(st.sampled_from(inside or [int_to_ip(net + 1)]),
                                                min_size=1))))
        events.append(AttackEvent(
            observatory=draw(st.sampled_from(["hp", "ixp"])),
            attack_type=draw(st.sampled_from(["RA", "RA", "DP", "RSDoS"])),
            target=target, start_ts=t,
            end_ts=t + draw(st.sampled_from([0, 5, 60, 150, 1000])) * US_PER_S,
            packets=draw(st.integers(0, 100)),
            sensors=frozenset(draw(st.sets(st.sampled_from(["192.0.2.1", "192.0.2.2", "192.0.2.3"])))),
            member_targets=members,
        ))
    return events


class TestCarpetOracle:
    @settings(max_examples=200, deadline=None)
    @given(events=carpet_events(), min_targets=st.integers(2, 3), gap=st.sampled_from([0.0, 30.0, 60.0]))
    def test_equals_greedy_reference(self, events, min_targets, gap):
        got = aggregate_carpet(events, NESTED_ROUTED, ALLOC, concurrency_gap=gap, min_targets=min_targets)
        assert got == oracle_aggregate_carpet(events, NESTED_ROUTED, ALLOC, gap, min_targets)
