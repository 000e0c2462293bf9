import random
from datetime import date

import pytest

from ddoscope.model import (
    AllocationTable,
    AttackEvent,
    PacketRecord,
    RoutedPrefixTable,
    WeeklySeries,
    covering_prefix,
    int_to_ip,
    ip_to_int,
    parse_prefix,
    prefix_contains,
    ts_to_date,
    week_start,
)


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
        with pytest.raises(ValueError):
            AttackEvent(observatory="t", attack_type="RSDoS", target="10.0.0.0/8",
                        start_ts=0, end_ts=1, packets=1)

    def test_time_order(self):
        with pytest.raises(ValueError):
            AttackEvent(observatory="t", attack_type="RA", target="10.0.0.1/32",
                        start_ts=5, end_ts=4, packets=1)

    def test_prefix_event_requires_members(self):
        e = AttackEvent(observatory="t", attack_type="RA", target="10.0.0.0/24",
                        start_ts=0, end_ts=1, packets=2)
        with pytest.raises(ValueError):
            e.host_targets()
        e2 = AttackEvent(observatory="t", attack_type="RA", target="10.0.0.0/24",
                         start_ts=0, end_ts=1, packets=2,
                         member_targets=("10.0.0.5", "10.0.0.9"))
        assert e2.host_targets() == ("10.0.0.5", "10.0.0.9")


class TestLongestPrefixMatch:
    def test_most_specific_wins(self):
        table = RoutedPrefixTable([("203.0.113.0/24", 64500), ("203.0.0.0/16", 64501)])
        assert table.lookup("203.0.113.9") == ("203.0.113.0/24", 64500)
        assert table.lookup("203.0.5.1") == ("203.0.0.0/16", 64501)

    def test_no_covering_prefix(self):
        table = RoutedPrefixTable([("203.0.113.0/24", 64500), ("203.0.0.0/16", 64501)])
        assert table.lookup("198.51.100.1") is None

    def test_matches_linear_scan_oracle(self):
        # randomized tables vs the obvious O(entries) scan
        rng = random.Random(0xDD05)
        for _ in range(20):
            entries = []
            for _ in range(rng.randint(1, 80)):
                plen = rng.randint(4, 32)
                net = rng.getrandbits(32) & ~((1 << (32 - plen)) - 1) & 0xFFFFFFFF
                entries.append((f"{int_to_ip(net)}/{plen}", rng.randint(1, 2 ** 16)))
            table = RoutedPrefixTable(entries)
            parsed = [(parse_prefix(p), asn, p) for p, asn in entries]
            for _ in range(500):
                ip = int_to_ip(rng.getrandbits(32))
                best = None
                for (net, plen), asn, canon in parsed:
                    if prefix_contains(net, plen, ip_to_int(ip), 32):
                        # ties on identical prefixes: the last entry wins
                        if best is None or plen >= best[0]:
                            best = (plen, canon, asn)
                got = table.lookup(ip)
                expected = None if best is None else (best[1], best[2])
                assert got == expected


class TestCoveringPrefix:
    def test_singleton(self):
        assert covering_prefix({"203.0.113.5"}) == "203.0.113.5/32"

    def test_two_addresses(self):
        assert covering_prefix({"203.0.113.5", "203.0.113.99"}) == "203.0.113.0/25"

    def test_full_disagreement(self):
        assert covering_prefix({"0.0.0.0", "255.255.255.255"}) == "0.0.0.0/0"

    def test_contains_all_and_is_tight(self):
        rng = random.Random(7)
        for _ in range(300):
            base = rng.getrandbits(32)
            ips = {int_to_ip((base + rng.randint(0, 2 ** rng.randint(0, 16))) & 0xFFFFFFFF)
                   for _ in range(rng.randint(1, 12))}
            net, plen = parse_prefix(covering_prefix(ips))
            for ip in ips:
                assert prefix_contains(net, plen, ip_to_int(ip), 32)
            if plen < 32:
                # one more prefix bit must exclude at least one address
                excluded = [ip for ip in ips
                            if not prefix_contains(net, plen + 1, ip_to_int(ip), 32)]
                assert excluded


class TestAllocationTable:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            AllocationTable([("10.0.0.0/8", "a"), ("10.1.0.0/16", "b")])

    def test_block_lookup(self):
        table = AllocationTable([("203.0.112.0/22", "ripe"), ("198.51.100.0/24", "arin")])
        assert table.block_of("203.0.113.9") == "203.0.112.0/22"
        assert table.block_of("198.51.100.250") == "198.51.100.0/24"
        assert table.block_of("192.0.2.1") is None


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

    def test_ts_to_date_is_utc(self):
        assert ts_to_date(0) == date(1970, 1, 1)
        assert ts_to_date(86_400_000_000 - 1) == date(1970, 1, 1)
        assert ts_to_date(86_400_000_000) == date(1970, 1, 2)
