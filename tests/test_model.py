import random
from datetime import date, timedelta

import pytest

from ddoscope.model import (
    EPOCH,
    US_PER_DAY,
    WeeklySeries,
    int_to_ip,
    ip_to_int,
    keys_to_tuples,
    parse_prefix,
    week_index,
    week_monday,
)
from ddoscope.overlap import build_targets

from conftest import prefix_table
from oracles import AttackEvent, PacketRecord, events_to_batch, prefix_contains, ts_to_date, week_start


class TestIpParsing:
    def test_round_trip(self):
        for ip in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "203.0.113.9"):
            assert int_to_ip(ip_to_int(ip)) == ip

    @pytest.mark.parametrize("bad", [
        "2001:db8::1", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1.2.3.04",
        "\u0661.2.3.4",  # Arabic-Indic digit one: a Unicode decimal, not ASCII
    ])
    def test_rejects_non_ipv4(self, bad):
        with pytest.raises(ValueError, match="not an IPv4 address"):
            ip_to_int(bad)

    def test_prefix_host_bits(self):
        assert parse_prefix("203.0.113.0/24") == (ip_to_int("203.0.113.0"), 24)
        assert parse_prefix("203.0.113.9") == (ip_to_int("203.0.113.9"), 32)
        with pytest.raises(ValueError):
            parse_prefix("203.0.113.1/24")

    def test_prefix_length_ascii_only(self):
        with pytest.raises(ValueError, match="bad prefix length"):
            parse_prefix("203.0.113.0/\u0662\u0664")  # Arabic-Indic "24"


class TestPacketRecord:
    def test_flag_normalization(self):
        p = PacketRecord(ts=0, protocol=6, src_ip="10.0.0.1", src_port=80,
                         dst_ip="10.0.0.2", dst_port=1234, len_bytes=40, tcp_flags="AS")
        assert p.tcp_flags == "SA"

    def test_ports_zero_for_icmp(self):
        with pytest.raises(ValueError):
            PacketRecord(ts=0, protocol=1, src_ip="10.0.0.1", src_port=80,
                         dst_ip="10.0.0.2", dst_port=0, len_bytes=40)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            PacketRecord(ts=0, protocol=6, src_ip="10.0.0.1", src_port=1,
                         dst_ip="10.0.0.2", dst_port=2, len_bytes=19)


class TestAttackEvent:
    def test_prefix_length_bounds(self):
        with pytest.raises(ValueError, match=r"^target prefix length 8 outside \[11, 32\]$"):
            events_to_batch([AttackEvent(observatory="t", attack_type="RSDoS", target="10.0.0.0/8",
                                         start_ts=0, end_ts=1, packets=1)])

    def test_time_order(self):
        with pytest.raises(ValueError, match="^start_ts after end_ts$"):
            events_to_batch([AttackEvent(observatory="t", attack_type="RA", target="10.0.0.1/32",
                                         start_ts=5, end_ts=4, packets=1)])

    def test_prefix_event_requires_members(self):
        e = AttackEvent(observatory="t", attack_type="RA", target="10.0.0.0/24",
                        start_ts=0, end_ts=1, packets=2)
        with pytest.raises(ValueError, match="no recorded member hosts"):
            build_targets(events_to_batch([e]))
        e2 = AttackEvent(observatory="t", attack_type="RA", target="10.0.0.0/24",
                         start_ts=0, end_ts=1, packets=2,
                         member_targets=("10.0.0.5", "10.0.0.9"))
        assert [ip for _, ip in keys_to_tuples(build_targets(events_to_batch([e2])))] == \
            ["10.0.0.5", "10.0.0.9"]

    def test_unknown_type_and_negative_packets(self):
        with pytest.raises(ValueError, match="^unknown attack type 'XX'$"):
            events_to_batch([AttackEvent(observatory="t", attack_type="XX", target="10.0.0.1/32",
                                         start_ts=0, end_ts=1, packets=1)])
        with pytest.raises(ValueError, match="^negative packet count$"):
            events_to_batch([AttackEvent(observatory="t", attack_type="RA", target="10.0.0.1/32",
                                         start_ts=0, end_ts=1, packets=-1)])


def longest_match(table, ip: str):
    """(prefix, value) of the row `PrefixTable.containing` finds for one address, or None."""
    row = int(table.containing([ip_to_int(ip)], [ip_to_int(ip)])[0])
    return None if row < 0 else (f"{int_to_ip(int(table.net[row]))}/{table.plen[row]}", table.value[row].item())


class TestLongestPrefixMatch:
    def test_most_specific_wins(self):
        table = prefix_table([("203.0.113.0/24", 64500), ("203.0.0.0/16", 64501)])
        assert longest_match(table, "203.0.113.9") == ("203.0.113.0/24", 64500)
        assert longest_match(table, "203.0.5.1") == ("203.0.0.0/16", 64501)

    def test_no_covering_prefix(self):
        table = prefix_table([("203.0.113.0/24", 64500), ("203.0.0.0/16", 64501)])
        assert longest_match(table, "198.51.100.1") is None
        assert longest_match(prefix_table([]), "198.51.100.1") is None

    def test_matches_linear_scan_oracle(self):
        # randomized tables vs the obvious O(entries) scan
        rng = random.Random(0xDD05)
        for _ in range(20):
            entries = []
            for _ in range(rng.randint(1, 80)):
                plen = rng.randint(4, 32)
                net = rng.getrandbits(32) & ~((1 << (32 - plen)) - 1) & 0xFFFFFFFF
                entries.append((f"{int_to_ip(net)}/{plen}", rng.randint(1, 2 ** 16)))
            table = prefix_table(entries)
            parsed = [parse_prefix(p) for p, _ in entries]
            addrs = [rng.getrandbits(32) for _ in range(500)]
            for addr, row in zip(addrs, table.containing(addrs, addrs).tolist()):
                best = None
                for k, (net, plen) in enumerate(parsed):
                    if prefix_contains(net, plen, addr, 32):
                        # ties on identical prefixes: the last entry wins
                        if best is None or plen >= best[0]:
                            best = (plen, k)
                assert row == (-1 if best is None else best[1])

    def test_span_query_matches_linear_scan_oracle(self):
        # a prefix holds a span when it holds both of its ends
        rng = random.Random(0xDD06)
        for _ in range(20):
            rows = [(rng.getrandbits(32) >> (32 - plen) << (32 - plen) if plen else 0, plen)
                    for plen in (rng.randint(0, 32) for _ in range(rng.randint(0, 40)))]
            table = prefix_table([(f"{int_to_ip(net)}/{plen}", k) for k, (net, plen) in enumerate(rows)])
            lo = [rng.getrandbits(32) for _ in range(300)]
            hi = [min(a + rng.choice([0, 1, 255, 4095, 2 ** 20, 2 ** 31]), 2 ** 32 - 1) for a in lo]
            got = table.containing(lo, hi).tolist()
            for a, b, row in zip(lo, hi, got):
                holding = [k for k, (net, plen) in enumerate(rows)
                           if prefix_contains(net, plen, a, 32) and prefix_contains(net, plen, b, 32)]
                longest = max((rows[k][1] for k in holding), default=None)
                assert row == max((k for k in holding if rows[k][1] == longest), default=-1)


class TestAllocationBlocks:
    def test_block_lookup(self):
        table = prefix_table([("203.0.112.0/22", "ripe"), ("198.51.100.0/24", "arin")])
        assert longest_match(table, "203.0.113.9") == ("203.0.112.0/22", "ripe")
        assert longest_match(table, "198.51.100.250") == ("198.51.100.0/24", "arin")
        assert longest_match(table, "192.0.2.1") is None


class TestWeeklySeries:
    def test_start_must_be_monday(self):
        with pytest.raises(ValueError):
            WeeklySeries(date(2022, 1, 4), (1.0,), "x")

    def test_week_dates(self):
        s = WeeklySeries(date(2022, 1, 3), (1.0, 2.0, None), "x")
        assert s.weeks() == [date(2022, 1, 3), date(2022, 1, 10), date(2022, 1, 17)]

    def test_week_start_helper(self):
        assert week_start(date(2022, 1, 9)) == date(2022, 1, 3)   # Sunday -> prior Monday
        assert week_start(date(2022, 1, 3)) == date(2022, 1, 3)
        for day in range(-400, 400):
            d = date(2022, 1, 3) + timedelta(days=day)
            assert week_monday(week_index((d - EPOCH).days)) == week_start(d)

    def test_ts_to_date_is_utc(self):
        assert ts_to_date(0) == date(1970, 1, 1)
        assert ts_to_date(86_400_000_000 - 1) == date(1970, 1, 1)
        assert ts_to_date(86_400_000_000) == date(1970, 1, 2)
        for ts in (0, 1, US_PER_DAY - 1, US_PER_DAY, 1_700_000_000_123_456):
            assert EPOCH + timedelta(days=ts // US_PER_DAY) == ts_to_date(ts)
