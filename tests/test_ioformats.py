import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddoscope import ioformats
from ddoscope.ioformats import (
    FLOWS_HEADER,
    FormatError,
    read_alloc_table,
    read_attacks,
    read_flows,
    read_hashed_targets,
    read_packets,
    read_routed_table,
    read_series,
    read_targets,
    write_attacks,
    write_flows,
    write_hashed_targets,
    write_packets,
    write_series,
    write_targets,
)
from ddoscope.model import (
    AttackEvent, FlowBatch, PacketBatch, PacketRecord, TargetTuple, WeeklySeries, int_to_ip, ip_to_int,
)
from datetime import date

PACKETS = """ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags
1000000,6,203.0.113.5,80,10.0.0.1,4444,110,SA
2000000,1,203.0.113.5,0,10.0.0.2,0,64,
"""


class TestPackets:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "packets.csv"
        p.write_text(PACKETS)
        records = read_packets(p).records()
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
        records = read_packets(p, sensor_col="sensor").records()
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


# -- packets.csv grammar: properties and chunk boundaries ----------------------

HEADER = "ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags"
COLUMNS = ("ts", "protocol", "src", "src_port", "dst", "dst_port", "len_bytes", "flags")


def row_text(p: PacketRecord) -> str:
    return (f"{p.ts},{p.protocol},{p.src_ip},{p.src_port},"
            f"{p.dst_ip},{p.dst_port},{p.len_bytes},{p.tcp_flags}")


@st.composite
def packet_records(draw):
    protocol = draw(st.sampled_from([1, 6, 17, 0, 47, 255]) | st.integers(0, 255))
    port = st.integers(0, 65535) if protocol in (6, 17) else st.just(0)
    ip = st.integers(0, 2 ** 32 - 1).map(int_to_ip)
    return PacketRecord(
        ts=draw(st.integers(0, 10 ** 18 - 1)), protocol=protocol,
        src_ip=draw(ip), src_port=draw(port), dst_ip=draw(ip), dst_port=draw(port),
        len_bytes=draw(st.integers(20, 999_999_999)),
        tcp_flags=draw(st.text(alphabet="SARF", max_size=6)),
    )


def _field(i: int, change):
    def mutate(p: PacketRecord, draw) -> str:
        fields = row_text(p).split(",")
        fields[i] = change(fields[i], draw)
        return ",".join(fields)
    return mutate


def _pad_octet(ip: str, i: int) -> str:
    octets = ip.split(".")
    octets[i] = "0" + octets[i]
    return ".".join(octets)


def _drop_field(row: str, i: int) -> str:
    fields = row.split(",")
    del fields[i]
    return ",".join(fields)


NUMERIC = (0, 1, 3, 5, 6)
MUTATIONS = {
    "leading zero": lambda p, draw: _field(draw(st.sampled_from(NUMERIC)), lambda f, d: "0" + f)(p, draw),
    "leading zero octet": lambda p, draw: _field(
        draw(st.sampled_from([2, 4])), lambda f, d: _pad_octet(f, d(st.integers(0, 3))))(p, draw),
    "ipv6": lambda p, draw: _field(
        draw(st.sampled_from([2, 4])),
        lambda f, d: d(st.sampled_from(["2001:db8::1", "::1", "::ffff:1.2.3.4", "fe80::"])))(p, draw),
    "sign or whitespace": lambda p, draw: _field(
        draw(st.sampled_from(NUMERIC + (2, 4))),
        lambda f, d: d(st.sampled_from(["+{}", "-{}", " {}", "{} ", "\t{}", "1_{}"])).format(f))(p, draw),
    "unknown flag": lambda p, draw: _field(
        7, lambda f, d: f + d(st.sampled_from(list("sarfXUPE0 "))))(p, draw),
    "port out of range": lambda p, draw: _field(
        draw(st.sampled_from([3, 5])), lambda f, d: str(d(st.integers(65536, 99999))))(p, draw),
    "protocol out of range": lambda p, draw: _field(1, lambda f, d: str(d(st.integers(256, 999))))(p, draw),
    "port on icmp": lambda p, draw: row_text(p).split(",", 2)[0] + ",1," + ",".join([
        p.src_ip, str(draw(st.integers(1, 65535))), p.dst_ip, "0", str(p.len_bytes), ""]),
    "short packet": lambda p, draw: _field(6, lambda f, d: str(d(st.integers(0, 19))))(p, draw),
    "missing column": lambda p, draw: _drop_field(row_text(p), draw(st.integers(0, 7))),
    "extra column": lambda p, draw: row_text(p) + "," + draw(st.sampled_from(["", "x", "1"])),
    "quoted field": lambda p, draw: _field(draw(st.integers(0, 7)), lambda f, d: f'"{f}"')(p, draw),
}


# what a ts_us field must be
TS_US = "a canonical decimal of at most 18 digits"


def _changed_column(header: str, old: list[str], new: list[str]) -> str:
    """A pattern for the header name of the one column `new` changes, or ""
    when it changes the field count or more than one column."""
    changed = [name for name, a, b in zip(header.split(","), old, new) if a != b]
    return rf".*\b{changed[0]}\b" if len(old) == len(new) and len(changed) == 1 else ""


def _write(path, lines, crlf=False):
    path.write_bytes(("\r\n" if crlf else "\n").join([HEADER, *lines, ""]).encode())


class TestPacketGrammar:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(packet_records(), min_size=1, max_size=30),
           blanks=st.lists(st.integers(0, 30), max_size=4), crlf=st.booleans(),
           chunk=st.sampled_from([1, 13, 64, ioformats._CHUNK_BYTES]))
    def test_valid_rows_round_trip(self, tmp_path_factory, rows, blanks, crlf, chunk):
        lines = [row_text(p) for p in rows]
        for at in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), "")
        path = tmp_path_factory.mktemp("valid") / "packets.csv"
        _write(path, lines, crlf)
        with mock.patch.object(ioformats, "_CHUNK_BYTES", chunk):
            assert read_packets(path).records() == rows

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(packet_records(), min_size=1, max_size=12), data=st.data(),
           chunk=st.sampled_from([5, 64, ioformats._CHUNK_BYTES]))
    def test_mutated_row_names_its_line(self, tmp_path_factory, rows, data, chunk):
        kind = data.draw(st.sampled_from(sorted(MUTATIONS)))
        at = data.draw(st.integers(0, len(rows) - 1))
        lines = [row_text(p) for p in rows]
        lines[at] = MUTATIONS[kind](rows[at], data.draw)
        path = tmp_path_factory.mktemp("bad") / "packets.csv"
        _write(path, ["", *lines])       # a blank line still counts
        column = _changed_column(HEADER, row_text(rows[at]).split(","), lines[at].split(","))
        with mock.patch.object(ioformats, "_CHUNK_BYTES", chunk):
            with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:{at + 3}: {column}"):
                read_packets(path)

    @pytest.mark.parametrize("row, message", [
        ("+5,6,1.2.3.4,1,1.2.3.4,1,20,", f"ts_us '+5' is not {TS_US}"),
        (" 5,6,1.2.3.4,1,1.2.3.4,1,20,", f"ts_us ' 5' is not {TS_US}"),
        ("1_000,6,1.2.3.4,1,1.2.3.4,1,20,", f"ts_us '1_000' is not {TS_US}"),
        ("0100,6,1.2.3.4,1,1.2.3.4,1,20,", f"ts_us '0100' is not {TS_US}"),
        ("٥,6,1.2.3.4,1,1.2.3.4,1,20,", f"ts_us '٥' is not {TS_US}"),
        ('"5",6,1.2.3.4,1,1.2.3.4,1,20,', f"ts_us '\"5\"' is not {TS_US}"),
        ("5,6,1.2.3.4,1,1.2.3.4,1,20,,extra", "expected 8 fields, got 9"),
        ("5,6,1.2.3.4,1,1.2.3.4,1,20,SX", "tcp_flags 'SX' is not a sequence of the TCP flag letters S, A, R, F"),
        ("5,1,1.2.3.4,1,1.2.3.4,0,20,", "src_port and dst_port must be 0 unless protocol is 6 or 17"),
        ("-5,6,1.2.3.4,1,1.2.3.4,1,20,", f"ts_us '-5' is not {TS_US}"),
        ("5,6,1.2.3,1,1.2.3.4,1,20,", "src_ip '1.2.3' is not an IPv4 dotted-quad"),
        ("5,6,1.2.3.4,1", "expected 8 fields, got 4"),
    ])
    def test_rejection_messages(self, tmp_path, row, message):
        path = tmp_path / "packets.csv"
        _write(path, ["1,6,1.2.3.4,1,1.2.3.4,1,20,", row])
        with pytest.raises(FormatError, match=rf"^{re.escape(f'{path}:3: {message}')}$"):
            read_packets(path)

    def test_sensor_column_replaces_dst_and_is_checked(self, tmp_path):
        path = tmp_path / "packets.csv"
        path.write_text(HEADER + ",sensor\n1,17,203.0.113.5,53,10.0.0.1,53,60,,192.0.2.9\n"
                        "2,17,203.0.113.5,53,10.0.0.1,53,60,,192.0.2.256\n")
        with pytest.raises(FormatError, match=r":3: sensor '192\.0\.2\.256' is not an IPv4 dotted-quad$"):
            read_packets(path, sensor_col="sensor")


def _big_rows(n):
    return [PacketRecord(ts=1_600_000_000_000_000 + 7 * i, protocol=(6, 17, 1)[i % 3],
                         src_ip=int_to_ip(0xCB007100 + i % 251),
                         src_port=0 if i % 3 == 2 else 1024 + i % 60000,
                         dst_ip=int_to_ip(0x0A000000 + i), dst_port=0 if i % 3 == 2 else 80,
                         len_bytes=20 + i % 1500, tcp_flags=("SA", "", "")[i % 3])
            for i in range(n)]


class TestPacketChunks:
    N = 3 * ioformats._CHUNK_BYTES // 60        # rows are 60-70 bytes: about three chunks

    def test_multi_chunk_file_equals_small_files(self, tmp_path):
        rows = _big_rows(self.N)
        big = tmp_path / "big.csv"
        write_packets(big, rows)
        assert big.stat().st_size > 2 * ioformats._CHUNK_BYTES
        parts = []
        for k in range(0, len(rows), 997):
            part = tmp_path / f"part{k}.csv"
            write_packets(part, rows[k:k + 997])
            parts.append(read_packets(part))
        whole, joined = read_packets(big), PacketBatch.concat(parts)
        for name in COLUMNS:
            a, b = getattr(whole, name), getattr(joined, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert whole.records() == rows

    def test_bad_row_in_later_chunk_reports_true_line(self, tmp_path):
        lines = [row_text(p) for p in _big_rows(self.N)]
        bad_at = len(lines) - 5
        lines[bad_at] = "0" + lines[bad_at]            # leading zero on ts
        ts = lines[bad_at].split(",")[0]
        lines[10:10] = ["", ""]                    # blank lines still count
        path = tmp_path / "packets.csv"
        _write(path, lines)
        assert sum(map(len, lines[:bad_at])) > ioformats._CHUNK_BYTES
        with pytest.raises(FormatError, match=rf"packets\.csv:{bad_at + 4}: ts_us '{ts}' is not {TS_US}$"):
            read_packets(path)

    def test_header_only_file_is_empty_batch(self, tmp_path):
        path = tmp_path / "packets.csv"
        path.write_text(HEADER + "\n")
        batch = read_packets(path)
        assert len(batch) == 0 and batch.records() == []
        assert {getattr(batch, c).dtype for c in ("src", "dst")} == {np.dtype(np.uint32)}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "packets.csv"
        path.write_text("\n\n")
        with pytest.raises(FormatError, match="empty file"):
            read_packets(path)


# -- flows.csv grammar ---------------------------------------------------------

FLOW_COLUMNS = ("target", "protocol", "src_port", "distinct_src_ips", "bitrate_bps", "start_ts", "end_ts")


@st.composite
def flow_texts(draw):
    """One canonical flows.csv row as its seven field texts."""
    start = draw(st.integers(0, 10 ** 18 - 1))
    whole = draw(st.sampled_from([0, 100_000_000, 1_000_000_000, 2 ** 33, 10 ** 15 - 1, 10 ** 15])
                 | st.integers(0, 10 ** 15 - 1))
    fraction = draw(st.none() | st.text(alphabet="0123456789" if whole < 10 ** 15 else "0",
                                        min_size=1, max_size=6))
    return [
        int_to_ip(draw(st.integers(0, 2 ** 32 - 1))), str(draw(st.integers(0, 255))),
        str(draw(st.integers(0, 65535))), str(draw(st.integers(1, 2 ** 32))),
        str(whole) + ("" if fraction is None else "." + fraction),
        str(start), str(draw(st.integers(start, 10 ** 18 - 1))),
    ]


def _flow_field(i: int, values):
    def mutate(fields, draw):
        fields[i] = draw(values(fields[i]))
    return mutate


def _flow_swap_window(fields, draw):
    fields[5] = str(int(fields[6]) + draw(st.integers(1, 10 ** 6)))


FLOW_NUMERIC = (1, 2, 3, 4, 5, 6)
FLOW_MUTATIONS = {
    "nan or inf": _flow_field(4, lambda f: st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"])),
    "exponent": _flow_field(4, lambda f: st.sampled_from(["5e9", "1E3", "5.0e9", "1e+09"])),
    "fraction": _flow_field(4, lambda f: st.sampled_from([".5", "5.", "5.1234567", "5..0", "5.0.0"])),
    "too wide": _flow_field(4, lambda f: st.sampled_from(["1" * 17, "1000000000000001", "1000000000000000.5"])),
    "sign": lambda fields, draw: _flow_field(
        draw(st.sampled_from(FLOW_NUMERIC)), lambda f: st.sampled_from(["+" + f, "-" + f]))(fields, draw),
    "blank": lambda fields, draw: _flow_field(
        draw(st.integers(0, 6)), lambda f: st.sampled_from(["", " " + f, f + " ", "\t" + f]))(fields, draw),
    "underscore": lambda fields, draw: _flow_field(
        draw(st.sampled_from(FLOW_NUMERIC)), lambda f: st.just(f[0] + "_" + f[1:] if len(f) > 1 else "1_" + f))(fields, draw),
    "leading zero": lambda fields, draw: _flow_field(
        draw(st.sampled_from(FLOW_NUMERIC)), lambda f: st.just("0" + f))(fields, draw),
    "leading zero octet": _flow_field(0, lambda f: st.integers(0, 3).map(lambda i: _pad_octet(f, i))),
    "protocol 256": _flow_field(1, lambda f: st.integers(256, 999).map(str)),
    "port 65536": _flow_field(2, lambda f: st.integers(65536, 99999).map(str)),
    "no sources": _flow_field(3, lambda f: st.just("0")),
    "too many sources": _flow_field(3, lambda f: st.integers(2 ** 32 + 1, 9_999_999_999).map(str)),
    "start after end": _flow_swap_window,
    "missing column": lambda fields, draw: fields.pop(draw(st.integers(0, 6))),
    "extra column": lambda fields, draw: fields.append(draw(st.sampled_from(["", "x", "1"]))),
}


# what a bitrate_bps field must be
BITRATE = "a canonical decimal of at most 16 digits, then optionally '.' and 1 to 6 digits"


def _write_flows_text(path, lines, crlf=False):
    path.write_bytes(("\r\n" if crlf else "\n").join([FLOWS_HEADER, *lines, ""]).encode())


class TestFlowGrammar:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(flow_texts(), min_size=1, max_size=30),
           blanks=st.lists(st.integers(0, 30), max_size=4), crlf=st.booleans(),
           chunk=st.sampled_from([1, 13, 64, ioformats._CHUNK_BYTES]))
    def test_valid_rows_round_trip(self, tmp_path_factory, rows, blanks, crlf, chunk):
        lines = [",".join(r) for r in rows]
        for at in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), "")
        work = tmp_path_factory.mktemp("valid")
        _write_flows_text(work / "flows.csv", lines, crlf)
        with mock.patch.object(ioformats, "_CHUNK_BYTES", chunk):
            flows = read_flows(work / "flows.csv")
            expected = [(ip_to_int(t), int(p), int(sp), int(n), float(bps), int(s), int(e))
                        for t, p, sp, n, bps, s, e in rows]
            assert list(zip(*(getattr(flows, c).tolist() for c in FLOW_COLUMNS))) == expected
            write_flows(work / "again.csv", flows)
            again = read_flows(work / "again.csv")
        for name in FLOW_COLUMNS:
            a, b = getattr(flows, name), getattr(again, name)
            assert a.dtype == b.dtype == FlowBatch.DTYPES[name] and np.array_equal(a, b), name

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(flow_texts(), min_size=1, max_size=12), data=st.data(),
           chunk=st.sampled_from([5, 64, ioformats._CHUNK_BYTES]))
    def test_mutated_row_names_its_line(self, tmp_path_factory, rows, data, chunk):
        kind = data.draw(st.sampled_from(sorted(FLOW_MUTATIONS)))
        at = data.draw(st.integers(0, len(rows) - 1))
        lines, bad = [",".join(r) for r in rows], list(rows[at])
        FLOW_MUTATIONS[kind](bad, data.draw)
        lines[at] = ",".join(bad)
        path = tmp_path_factory.mktemp("bad") / "flows.csv"
        _write_flows_text(path, ["", *lines])       # a blank line still counts
        column = _changed_column(FLOWS_HEADER, rows[at], bad)
        with mock.patch.object(ioformats, "_CHUNK_BYTES", chunk):
            with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:{at + 3}: {column}"):
                read_flows(path)

    @pytest.mark.parametrize("row, message", [
        ("1.2.3.4,17,123,0,5.0,0,1", "distinct_src_ips outside 1-4294967296"),
        ("1.2.3.4,17,123,12,5.0,2,1", "start_ts_us after end_ts_us"),
        ("1.2.3.4,17,123,12,1000000000000000.5,0,1", "bitrate_bps outside 0-1000000000000000"),
        ("1.2.3.4,17,123,12,nan,0,1", f"bitrate_bps 'nan' is not {BITRATE}"),
        ("1.2.3.4,17,123,12,-1.0,0,1", f"bitrate_bps '-1.0' is not {BITRATE}"),
        ("1.2.3.4,256,123,12,5.0,0,1", "protocol above 255"),
        ("1.2.3.4,17,65536,12,5.0,0,1", "src_port above 65535"),
        ("1.2.3,17,123,12,5.0,0,1", "target_ip '1.2.3' is not an IPv4 dotted-quad"),
        ("1.2.3.4,17,123,12,5e9,0,1", f"bitrate_bps '5e9' is not {BITRATE}"),
        ("1.2.3.4,17,123,12,1_000,0,1", f"bitrate_bps '1_000' is not {BITRATE}"),
        ("1.2.3.4,17,123,12,5.0,0,1,junk", "expected 7 fields, got 8"),
    ])
    def test_rejection_messages(self, tmp_path, row, message):
        path = tmp_path / "flows.csv"
        _write_flows_text(path, ["1.2.3.4,17,123,12,5.0,0,1", row])
        with pytest.raises(FormatError, match=rf"^{re.escape(f'{path}:3: {message}')}$"):
            read_flows(path)

    def test_summary_checks(self, tmp_path):
        path = tmp_path / "flows.csv"
        for row in ("203.0.113.7,17,123,0,1.000000,0,1",      # no sources
                    "203.0.113.7,17,123,1,-1.000000,0,1",     # negative bitrate
                    "not-an-ip,17,123,1,1.000000,0,1"):
            _write_flows_text(path, [row])
            with pytest.raises(FormatError, match=r"flows\.csv:2: "):
                read_flows(path)

    def test_header_only_and_empty(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(FLOWS_HEADER + "\n")
        flows = read_flows(path)
        assert len(flows) == 0 and flows.target.dtype == np.uint32
        path.write_text("\n")
        with pytest.raises(FormatError, match="empty file"):
            read_flows(path)


# -- row-wise csv readers: exact rows, line numbers, fuzzing --------------------

class TestCsvRows:
    @pytest.mark.parametrize("row", [
        "hp,RA,203.0.113.5/32, 5,10,7,",
        "hp,RA,203.0.113.5/32,1_0,10,7,",
        "hp,RA,203.0.113.5/32,0,10,07,",
        "hp,RA,203.0.113.5/32,0,10,7,,junk",
        "hp,RA,203.0.113.5/32,0,10,7",
        "hp,RA,203.0.113.5/32,0,10,7,192.0.2.1;junk",
    ])
    def test_attacks_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "attacks.csv"
        path.write_text("observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors\n"
                        "hp,RA,203.0.113.5/32,0,10,7,\n" + row + "\n")
        with pytest.raises(FormatError, match=r"attacks\.csv:3: "):
            read_attacks(path)

    @pytest.mark.parametrize("row", ["10.0.0.0/8,+64500", "10.0.0.0/8,64500,x", "10.0.0.1/8,64500"])
    def test_routed_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "routed.csv"
        path.write_text("prefix,asn\n192.0.2.0/24,64501\n" + row + "\n")
        with pytest.raises(FormatError, match=r"routed\.csv:3: "):
            read_routed_table(path)

    @pytest.mark.parametrize("row", ["10.0.0.0/8,RIPE,x", "10.0.0.0/33,RIPE", "10.0.0.0/8"])
    def test_alloc_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "alloc.csv"
        path.write_text("prefix,registry\n192.0.2.0/24,ARIN\n" + row + "\n")
        with pytest.raises(FormatError, match=r"alloc\.csv:3: "):
            read_alloc_table(path)

    @pytest.mark.parametrize("row", ["2022-01-04,10.0.0.9,x", "20220104,10.0.0.9", "2022-01-04,010.0.0.9"])
    def test_targets_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "targets.csv"
        path.write_text("date,ip\n2022-01-05,10.0.0.2\n" + row + "\n")
        with pytest.raises(FormatError, match=r"targets\.csv:3: "):
            read_targets(path)

    @pytest.mark.parametrize("cell", ['"h\np"', '"h,p"', '"hp"'], ids=["multi-line", "comma", "plain"])
    def test_quoted_cell_rejected_on_its_physical_line(self, tmp_path, cell):
        path = tmp_path / "attacks.csv"
        path.write_text("observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors\n\n"
                        "hp,RA,203.0.113.5/32,0,10,7,\n" + cell + ",RA,203.0.113.5/32,0,10,7,\n")
        with pytest.raises(FormatError, match=r"attacks\.csv:4: a double quote in a row; fields are never quoted$"):
            read_attacks(path)

    def test_quoted_header_rejected(self, tmp_path):
        path = tmp_path / "routed.csv"
        path.write_text('"prefix","asn"\n192.0.2.0/24,64501\n')
        with pytest.raises(FormatError, match=r"""routed\.csv: expected header 'prefix,asn', got '"prefix","asn"'$"""):
            read_routed_table(path)

    def test_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "routed.csv"
        path.write_bytes(b"\r\nprefix,asn\r\n192.0.2.0/24,64501\r\n\r\n10.0.0.0/8,64500")
        assert read_routed_table(path).entries == [("192.0.2.0/24", 64501), ("10.0.0.0/8", 64500)]
        path.write_bytes(b"\r\nprefix,asn\r\n192.0.2.0/24,64501\r\n\r\n10.0.0.0/8,+1\r\n")
        with pytest.raises(FormatError, match=r"routed\.csv:5: not a canonical decimal: '\+1'$"):
            read_routed_table(path)

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "routed.csv"
        path.write_bytes(b"prefix,asn\n192.0.2.0/24,64501\n10.0.0.0/8,6450\xff\n")
        with pytest.raises(FormatError, match=r"routed\.csv:3: not UTF-8$"):
            read_routed_table(path)
        path = tmp_path / "hashes.txt"
        path.write_bytes(b"ab" * 32 + b"\n\n" + b"cd" * 31 + b"c\xff\n")
        with pytest.raises(FormatError, match=r"hashes\.txt:3: not UTF-8$"):
            read_hashed_targets(path)

    def test_overlapping_alloc_blocks_name_the_file(self, tmp_path):
        path = tmp_path / "alloc.csv"
        path.write_text("prefix,registry\n10.0.0.0/8,RIPE\n10.1.0.0/16,ARIN\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: allocation blocks overlap: "
                                              r"10\.0\.0\.0/8 and 10\.1\.0\.0/16$"):
            read_alloc_table(path)


def _prefix_text(net: int, plen: int) -> str:
    return f"{int_to_ip(net >> (32 - plen) << (32 - plen) if plen else 0)}/{plen}"


ROW_MUTATIONS = {
    "extra column": lambda fields, draw: fields.append(draw(st.sampled_from(["", "x", "1"]))),
    "missing column": lambda fields, draw: fields.pop(draw(st.integers(0, len(fields) - 1))),
    "host bits": lambda fields, draw: fields.__setitem__(0, draw(st.sampled_from(
        ["10.0.0.1/8", "192.0.2.1/31", "0.0.0.1/0"]))),
    "bad length": lambda fields, draw: fields.__setitem__(0, draw(st.sampled_from(
        ["10.0.0.0/33", "10.0.0.0/", "10.0.0.0/+8", "10.0.0.0/ 8"]))),
    "bad address": lambda fields, draw: fields.__setitem__(0, draw(st.sampled_from(
        ["10.0.0/8", "010.0.0.0/8", "::1/128", " 10.0.0.0/8"]))),
}
ASN_MUTATIONS = {
    "bad asn": lambda fields, draw: fields.__setitem__(1, draw(st.sampled_from(
        ["+64500", "-1", " 64500", "64500 ", "64_500", "064500", "", "AS64500", "٥"]))),
}
TARGET_MUTATIONS = {
    "extra column": ROW_MUTATIONS["extra column"],
    "missing column": ROW_MUTATIONS["missing column"],
    "bad date": lambda fields, draw: fields.__setitem__(0, draw(st.sampled_from(
        ["20220104", "2022-1-04", " 2022-01-04", "2022-02-30", "2022-W01-1"]))),
    "bad address": lambda fields, draw: fields.__setitem__(1, draw(st.sampled_from(
        ["10.0.0", "010.0.0.1", "::1", "10.0.0.256"]))),
}


def _table_file(path, header, rows):
    path.write_text("\n".join([header, *(",".join(r) for r in rows)]) + "\n")


prefixes = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 32)).map(lambda t: _prefix_text(*t))


class TestTableFuzz:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(prefixes, st.integers(0, 2 ** 32 - 1).map(str)), max_size=20))
    def test_routed_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("routed") / "routed.csv"
        _table_file(path, "prefix,asn", rows)
        assert read_routed_table(path).entries == [(p, int(a)) for p, a in rows]

    @settings(max_examples=100, deadline=None)
    @given(plen=st.integers(8, 32), nets=st.sets(st.integers(0, 255), max_size=20),
           registry=st.text(alphabet="ABCINRPE-_ ", min_size=1, max_size=8))
    def test_alloc_round_trip(self, tmp_path_factory, plen, nets, registry):
        rows = [(_prefix_text(n << 24 | 0xFFFFFF, plen), registry) for n in sorted(nets)]
        path = tmp_path_factory.mktemp("alloc") / "alloc.csv"
        _table_file(path, "prefix,registry", rows)
        assert read_alloc_table(path).entries == rows

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.dates().map(date.isoformat),
                                   st.integers(0, 2 ** 32 - 1).map(int_to_ip)), max_size=20))
    def test_targets_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("targets") / "targets.csv"
        _table_file(path, "date,ip", rows)
        assert read_targets(path) == {TargetTuple(date.fromisoformat(d), ip) for d, ip in rows}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), which=st.sampled_from(["routed", "alloc", "targets"]))
    def test_mutated_row_names_its_line(self, tmp_path_factory, data, which):
        if which == "targets":
            header, read, mutations = "date,ip", read_targets, TARGET_MUTATIONS
            rows = [["2022-01-0" + str(k + 1), f"10.0.0.{k}"] for k in range(data.draw(st.integers(1, 6)))]
        else:
            header, read = ("prefix,asn", read_routed_table) if which == "routed" else \
                ("prefix,registry", read_alloc_table)
            mutations = {**ROW_MUTATIONS, **(ASN_MUTATIONS if which == "routed" else {})}
            rows = [[f"10.{k}.0.0/16", str(64500 + k)] for k in range(data.draw(st.integers(1, 6)))]
        kind = data.draw(st.sampled_from(sorted(mutations)))
        at = data.draw(st.integers(0, len(rows) - 1))
        mutations[kind](rows[at], data.draw)
        path = tmp_path_factory.mktemp("bad") / f"{which}.csv"
        _table_file(path, header, rows)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:{at + 2}: "):
            read(path)
