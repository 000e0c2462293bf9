import pytest

from ddoscope.ioformats import (
    FormatError,
    read_attacks,
    read_hashed_targets,
    read_packets,
    read_series,
    read_targets,
    write_attacks,
    write_hashed_targets,
    write_packets,
    write_series,
    write_targets,
)
from ddoscope.model import AttackEvent, TargetTuple, WeeklySeries
from datetime import date

PACKETS = """ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags
1000000,6,203.0.113.5,80,10.0.0.1,4444,110,SA
2000000,1,203.0.113.5,0,10.0.0.2,0,64,
"""


class TestPackets:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "packets.csv"
        p.write_text(PACKETS)
        records = read_packets(p)
        assert len(records) == 2
        assert records[0].tcp_flags == "SA"
        out = tmp_path / "out.csv"
        write_packets(out, records)
        assert out.read_text() == PACKETS

    def test_header_must_be_exact(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("ts,proto\n1,2\n")
        with pytest.raises(FormatError, match="expected header"):
            read_packets(p)

    def test_bad_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(PACKETS + "x,y,z,1,2,3,4,5\n")
        with pytest.raises(FormatError, match="bad.csv:4"):
            read_packets(p)

    def test_ipv6_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags\n"
            "1,6,2001:db8::1,80,10.0.0.1,1,110,\n"
        )
        with pytest.raises(FormatError, match="IPv4"):
            read_packets(p)

    def test_sensor_column(self, tmp_path):
        p = tmp_path / "packets.csv"
        p.write_text(
            "ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags,sensor\n"
            "1,17,203.0.113.5,53,10.0.0.1,53,60,,192.0.2.9\n"
        )
        records = read_packets(p, sensor_col="sensor")
        assert records[0].dst_ip == "192.0.2.9"


class TestAttacks:
    def test_round_trip_with_sensors(self, tmp_path):
        events = [
            AttackEvent(observatory="hp", attack_type="RA", target="203.0.113.5/32",
                        start_ts=0, end_ts=10, packets=7,
                        sensors=frozenset({"192.0.2.2", "192.0.2.1"})),
            AttackEvent(observatory="t", attack_type="RSDoS", target="203.0.113.9/32",
                        start_ts=5, end_ts=6, packets=30),
        ]
        p = tmp_path / "attacks.csv"
        write_attacks(p, events)
        text = p.read_text()
        assert "192.0.2.1;192.0.2.2" in text
        back = read_attacks(p)
        assert [(e.target, e.packets, e.sensors) for e in back] == \
               [(e.target, e.packets, e.sensors) for e in events]


class TestSeries:
    def test_round_trip_with_nulls(self, tmp_path):
        s = WeeklySeries(date(2022, 1, 3), (1.0, None, 2.5), "hp:RA")
        p = tmp_path / "series.json"
        write_series(p, s)
        assert read_series(p) == s
        assert '"values"' in p.read_text() and "null" in p.read_text()


class TestTargets:
    def test_round_trip_sorted(self, tmp_path):
        tuples = {
            TargetTuple(date(2022, 1, 5), "10.0.0.2"),
            TargetTuple(date(2022, 1, 4), "10.0.0.9"),
        }
        p = tmp_path / "targets.csv"
        write_targets(p, tuples)
        assert p.read_text().splitlines()[1] == "2022-01-04,10.0.0.9"
        assert read_targets(p) == tuples

    def test_hashed_round_trip(self, tmp_path):
        digests = {"ab" * 32, "cd" * 32}
        p = tmp_path / "hashes.txt"
        write_hashed_targets(p, digests)
        assert read_hashed_targets(p) == digests

    def test_hashed_rejects_garbage(self, tmp_path):
        p = tmp_path / "hashes.txt"
        p.write_text("nothex\n")
        with pytest.raises(FormatError, match="sha256"):
            read_hashed_targets(p)

    @pytest.mark.parametrize("bad", [
        "AB" * 32,                       # uppercase
        "ab" * 31,                       # short
        "ab" * 33,                       # long
        "g" + "a" * 63,                  # non-hex letter
        "ab" * 16 + " " + "a" * 31,      # inner blank
    ])
    def test_hashed_rejects_bad_line_with_location(self, tmp_path, bad):
        p = tmp_path / "hashes.txt"
        p.write_text("ab" * 32 + "\n\n" + bad + "\n")
        with pytest.raises(FormatError, match=r"hashes\.txt:3: not a lowercase sha256"):
            read_hashed_targets(p)
