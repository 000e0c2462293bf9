import dataclasses
import re
import tracemalloc
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
    write_packets,
    write_series,
    write_targets,
)
from ddoscope.model import (
    EPOCH, MAX_TS_US, EventBatch, FlowBatch, PacketBatch, Ragged, TargetTuple,
    WeeklySeries, int_to_ip, ip_to_int, keys_to_tuples, pack_targets, parse_prefix, tuples_to_keys,
)
from datetime import date

from conftest import table_rows
from oracles import (
    AttackEvent, PacketRecord, as_batch, attacks_csv, batch_to_events, batch_to_records, events_to_batch,
    flows_csv, oracle_decimal, oracle_ipv4, oracle_read_attacks, oracle_read_hashed_targets, oracle_read_table,
    oracle_read_targets, packets_csv, targets_csv, write_hashed_targets,
)

PACKETS = """ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags
1000000,6,203.0.113.5,80,10.0.0.1,4444,110,SA
2000000,1,203.0.113.5,0,10.0.0.2,0,64,
"""


class TestPackets:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "packets.csv"
        p.write_text(PACKETS)
        records = batch_to_records(read_packets(p))
        assert len(records) == 2
        assert records[0].tcp_flags == "SA"
        out = tmp_path / "out.csv"
        write_packets(out, as_batch(records))
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
        records = batch_to_records(read_packets(p, sensor_col="sensor"))
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
        write_attacks(p, events_to_batch(events))
        text = p.read_text()
        assert "192.0.2.1;192.0.2.2" in text
        back = batch_to_events(read_attacks(p))
        assert [(e.target, e.packets, e.sensors) for e in back] == \
               [(e.target, e.packets, e.sensors) for e in events]


class TestSeries:
    def test_round_trip_with_nulls(self, tmp_path):
        s = WeeklySeries(date(2022, 1, 3), (1.0, None, 2.5), "hp:RA")
        p = tmp_path / "series.json"
        write_series(p, s)
        assert read_series(p) == s
        assert '"values"' in p.read_text() and "null" in p.read_text()


DIGESTS = st.binary(min_size=32, max_size=32).map(lambda b: b.hex().encode())
# bytes that str.strip removes, in UTF-8: ASCII, C1 and Unicode whitespace
STRIPPED = st.sampled_from([b" ", b"\t", b"\x0b", b"\x0c", b"\r", b"\x1c", b"\xc2\x85", b"\xc2\xa0", b"\xe3\x80\x80"])
HASHED_LINE_MUTATIONS = {
    "surrounded": lambda line, draw: draw(STRIPPED) + line + draw(STRIPPED),
    "whitespace only": lambda line, draw: draw(STRIPPED),
    "upper case": lambda line, draw: line.upper(),
    "one short": lambda line, draw: line[:-1],
    "one long": lambda line, draw: line + draw(st.sampled_from([b"0", b"f"])),
    "joined by CR": lambda line, draw: line + b"\r" + draw(DIGESTS),
    "byte replaced": lambda line, draw: _replace_byte(line, draw, st.sampled_from(
        [b"g", b"A", b" ", b"\r", b"\x00", b"\xc3\xa9", b"\xff", b"\xc3"])),
}


def _replace_byte(line, draw, replacements):
    at = draw(st.integers(0, max(len(line) - 1, 0)))
    return line[:at] + draw(replacements) + line[at + 1:]


class TestTargets:
    def test_round_trip_sorted(self, tmp_path):
        tuples = {
            TargetTuple(date(2022, 1, 5), "10.0.0.2"),
            TargetTuple(date(2022, 1, 4), "10.0.0.9"),
        }
        p = tmp_path / "targets.csv"
        write_targets(p, tuples_to_keys(tuples))
        assert p.read_text().splitlines()[1] == "2022-01-04,10.0.0.9"
        assert set(keys_to_tuples(read_targets(p))) == tuples

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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), lines=st.lists(DIGESTS | st.just(b""), max_size=8),
           ends=st.sampled_from([b"\n", b"\r\n"]), last_end=st.booleans())
    def test_hashed_matches_line_reader(self, tmp_path_factory, data, lines, ends, last_end):
        """The same digests as the line-by-line reader, or the same error, on
        digest files as written and with one line mutated."""
        if lines and data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(lines) - 1))
            lines[at] = HASHED_LINE_MUTATIONS[data.draw(st.sampled_from(sorted(HASHED_LINE_MUTATIONS)))](
                lines[at], data.draw)
        path = tmp_path_factory.mktemp("hashed") / "hashes.txt"
        path.write_bytes(ends.join(lines) + (ends if last_end and lines else b""))

        def outcome(read):
            try:
                return read(path)
            except FormatError as exc:
                return str(exc)
        assert outcome(read_hashed_targets) == outcome(oracle_read_hashed_targets)


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
        ts=draw(st.integers(0, MAX_TS_US)), protocol=protocol,
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
    "ts past 9999": lambda p, draw: _field(
        0, lambda f, d: str(d(st.integers(MAX_TS_US + 1, 10 ** 18 - 1))))(p, draw),
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
            assert batch_to_records(read_packets(path)) == rows

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
        *[(f"5,6,{ip},1,1.2.3.4,1,20,", f"src_ip '{ip}' is not an IPv4 dotted-quad") for ip in (
            "1.2.3.4.", ".1.2.3", "1..2.3", "1.2.3.1234", "1234.1.1.1", "1.2.3.256", "1.02.3.4", "1.2.3.4 ")],
        ("5,6,1.2.3.4,1", "expected 8 fields, got 4"),
        ("253402300800000000,6,1.2.3.4,1,1.2.3.4,1,20,", "ts_us above 253402300799999999"),
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

    @pytest.mark.parametrize("sensor", ["192.0.2.256", "192.0.2.", "192.0.2.1234", ""])
    def test_bad_last_sensor_without_final_newline(self, tmp_path, sensor):
        path = tmp_path / "packets.csv"
        path.write_text(HEADER + ",sensor\n1,17,203.0.113.5,53,10.0.0.1,53,60,,192.0.2.9\n"
                        f"2,17,203.0.113.5,53,10.0.0.1,53,60,,{sensor}")
        message = f"{path}:3: sensor {sensor!r} is not an IPv4 dotted-quad"
        with pytest.raises(FormatError, match=rf"^{re.escape(message)}$"):
            read_packets(path, sensor_col="sensor")


# Field bytes: digits, dot, separators, signs and one non-ASCII byte; and
# dot-joined runs of digits, so that near-valid quads and decimals are common
FIELDS = (st.lists(st.sampled_from([*b"0123456789.,\r +-", 0xE9]), max_size=20).map(bytes)
          | st.lists(st.text("0123456789", max_size=4), max_size=5).map(".".join).map(str.encode)
          .filter(lambda field: len(field) <= 20))


def _parsed(parse, field: bytes, *args) -> list:
    """What `parse` reads from `field` placed first in a buffer, then last in
    one with no final newline, each padded as `_parse_rows` pads a chunk:
    its value, or None when it rejects the field."""
    out = []
    for before, after in ((b"", b",1.2.3.4,5\n"), (b"1.2.3.4,5,", b"")):
        buf = np.frombuffer(before + field + after + bytes(32), np.uint8)
        value, ok = parse(buf, np.array([len(before)]), np.array([len(before) + len(field)]), *args)
        out.append(value[0].item() if ok[0] else None)
    return out


# Prefix bytes: FIELDS with an optional "/" and digits, and prefixes with
# no host bits set whose length may carry leading zeros
PREFIXES = (st.tuples(FIELDS, st.sampled_from([b"", b"/"]), st.text("0123456789", max_size=4).map(str.encode))
            .map(b"".join)
            | st.builds(lambda net, plen, zeros: f"{int_to_ip(net >> 32 - plen << 32 - plen)}/{zeros}{plen}".encode(),
                        st.integers(0, 2 ** 32 - 1), st.integers(0, 32), st.sampled_from(["", "0", "00"])))


class TestFieldParsers:
    @settings(max_examples=600, deadline=None)
    @given(field=PREFIXES)
    def test_scenario_and_file_prefixes_are_one_grammar(self, field):
        # model.parse_prefix and model.ip_to_int read scenario specs, _prefix and _ipv4 files
        text = field.decode("latin-1")
        try:
            net, plen = parse_prefix(text)
            prefix = net << 6 | plen
        except ValueError:
            prefix = None
        assert _parsed(ioformats._prefix, field) == [prefix] * 2
        try:
            address = ip_to_int(text)
        except ValueError:
            address = None
        assert _parsed(ioformats._ipv4, field) == [address] * 2

    @settings(max_examples=600, deadline=None)
    @given(field=FIELDS, width=st.sampled_from([1, 3, 5, 9, 10, 18]), leading_zeros=st.booleans())
    def test_parsers_match_oracles(self, field, width, leading_zeros):
        text = field.decode("latin-1")
        expected = oracle_ipv4(text)
        try:
            assert ip_to_int(text) == expected
        except ValueError:
            assert expected is None
        assert _parsed(ioformats._ipv4, field) == [expected] * 2
        decimal = oracle_decimal(text, width, leading_zeros)
        assert _parsed(ioformats._decimal, field, width, leading_zeros) == [decimal] * 2
        whole, point, fraction = text.partition(".")
        valid = oracle_decimal(whole, 16) is not None and (not point or oracle_decimal(fraction, 6, True) is not None)
        for value in _parsed(ioformats._fixed, field, 16, 6):
            assert (value is not None) == valid
            # below 2**53 the double nearest the decimal
            assert not valid or float(text) >= 2 ** 53 or value == float(text)


def _big_rows(n):
    return [PacketRecord(ts=1_600_000_000_000_000 + 7 * i, protocol=(6, 17, 1)[i % 3],
                         src_ip=int_to_ip(0xCB007100 + i % 251),
                         src_port=0 if i % 3 == 2 else 1024 + i % 60000,
                         dst_ip=int_to_ip(0x0A000000 + i), dst_port=0 if i % 3 == 2 else 80,
                         len_bytes=20 + i % 1500, tcp_flags=("SA", "", "")[i % 3])
            for i in range(n)]


# Row counts around the writers' step of _WRITE_ROWS rows
STEP = ioformats._WRITE_ROWS
WRITE_STEP_ROWS = (0, 1, STEP - 1, STEP, STEP + 1, 2 * STEP + 1)


class TestPacketChunks:
    N = 3 * ioformats._CHUNK_BYTES // 60        # rows are 60-70 bytes: about three chunks

    def test_multi_chunk_file_equals_small_files(self, tmp_path):
        rows = _big_rows(self.N)
        big = tmp_path / "big.csv"
        write_packets(big, as_batch(rows))
        assert big.stat().st_size > 2 * ioformats._CHUNK_BYTES
        assert big.read_text() == packets_csv(as_batch(rows))
        # parts of every size around a write step, then the rest
        cuts = np.cumsum([0, *WRITE_STEP_ROWS, self.N - sum(WRITE_STEP_ROWS)])
        parts = []
        for lo, hi in zip(cuts, cuts[1:]):
            part = tmp_path / f"part{lo}.csv"
            write_packets(part, as_batch(rows[lo:hi]))
            assert part.read_text() == packets_csv(as_batch(rows[lo:hi]))
            parts.append(read_packets(part))
        whole, joined = read_packets(big), PacketBatch.concat(parts)
        for name in COLUMNS:
            a, b = getattr(whole, name), getattr(joined, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert batch_to_records(whole) == rows

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
        assert len(batch) == 0 and batch_to_records(batch) == []
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
    start = draw(st.integers(0, MAX_TS_US))
    whole = draw(st.sampled_from([0, 100_000_000, 1_000_000_000, 2 ** 33, 10 ** 15 - 1, 10 ** 15])
                 | st.integers(0, 10 ** 15 - 1))
    fraction = draw(st.none() | st.text(alphabet="0123456789" if whole < 10 ** 15 else "0",
                                        min_size=1, max_size=6))
    return [
        int_to_ip(draw(st.integers(0, 2 ** 32 - 1))), str(draw(st.integers(0, 255))),
        str(draw(st.integers(0, 65535))), str(draw(st.integers(1, 2 ** 32))),
        str(whole) + ("" if fraction is None else "." + fraction),
        str(start), str(draw(st.integers(start, MAX_TS_US))),
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
    "ts past 9999": lambda fields, draw: _flow_field(
        draw(st.sampled_from([5, 6])),
        lambda f: st.integers(MAX_TS_US + 1, 10 ** 18 - 1).map(str))(fields, draw),
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
        ("1.2.3.4,17,123,12,5.0,999999999999999999,999999999999999999",
         "start_ts_us above 253402300799999999"),
        ("1.2.3.4,17,123,12,5.0,0,253402300800000000", "end_ts_us above 253402300799999999"),
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

    @pytest.mark.parametrize("start, end, column", [
        (253402300800000000, 253402300800000000, "start_ts_us"),
        (0, 999999999999999999, "end_ts_us"),
    ])
    def test_attack_timestamps_end_in_9999(self, tmp_path, start, end, column):
        path = tmp_path / "attacks.csv"
        path.write_text("observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors\n"
                        f"hp,RA,203.0.113.5/32,0,{MAX_TS_US},7,\nhp,RA,203.0.113.5/32,{start},{end},7,\n")
        with pytest.raises(FormatError, match=rf"attacks\.csv:3: {column} above {MAX_TS_US}$"):
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

    @pytest.mark.parametrize("cell, message", [
        ('"h\np"', "expected 7 fields, got 1"),
        ('"h,p"', "expected 7 fields, got 8"),
        ('"hp"', """observatory '"hp"' is not UTF-8 text without a double quote"""),
    ], ids=["multi-line", "comma", "plain"])
    def test_quoted_cell_rejected_on_its_physical_line(self, tmp_path, cell, message):
        path = tmp_path / "attacks.csv"
        path.write_text("observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors\n\n"
                        "hp,RA,203.0.113.5/32,0,10,7,\n" + cell + ",RA,203.0.113.5/32,0,10,7,\n")
        with pytest.raises(FormatError, match=rf"attacks\.csv:4: {re.escape(message)}$"):
            read_attacks(path)

    def test_quoted_header_rejected(self, tmp_path):
        path = tmp_path / "routed.csv"
        path.write_text('"prefix","asn"\n192.0.2.0/24,64501\n')
        with pytest.raises(FormatError, match=r"""routed\.csv: expected header 'prefix,asn', got '"prefix","asn"'$"""):
            read_routed_table(path)

    def test_crlf_and_blank_lines(self, tmp_path):
        path = tmp_path / "routed.csv"
        path.write_bytes(b"\r\nprefix,asn\r\n192.0.2.0/24,64501\r\n\r\n10.0.0.0/8,64500")
        assert table_rows(read_routed_table(path)) == [("192.0.2.0/24", 64501), ("10.0.0.0/8", 64500)]
        path.write_bytes(b"\r\nprefix,asn\r\n192.0.2.0/24,64501\r\n\r\n10.0.0.0/8,+1\r\n")
        with pytest.raises(FormatError,
                           match=r"routed\.csv:5: asn '\+1' is not a canonical decimal of at most 10 digits$"):
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
        assert table_rows(read_routed_table(path)) == [(p, int(a)) for p, a in rows]

    @settings(max_examples=100, deadline=None)
    @given(plen=st.integers(8, 32), nets=st.sets(st.integers(0, 255), max_size=20),
           registry=st.text(alphabet="ABCINRPE-_ ", min_size=1, max_size=8))
    def test_alloc_round_trip(self, tmp_path_factory, plen, nets, registry):
        rows = [(_prefix_text(n << 24 | 0xFFFFFF, plen), registry) for n in sorted(nets)]
        path = tmp_path_factory.mktemp("alloc") / "alloc.csv"
        _table_file(path, "prefix,registry", rows)
        assert table_rows(read_alloc_table(path)) == rows

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.dates().map(date.isoformat),
                                   st.integers(0, 2 ** 32 - 1).map(int_to_ip)), max_size=20))
    def test_targets_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("targets") / "targets.csv"
        _table_file(path, "date,ip", rows)
        assert set(keys_to_tuples(read_targets(path))) == {
            TargetTuple(date.fromisoformat(d), ip) for d, ip in rows}

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.dates(), st.integers(0, 2 ** 32 - 1)), max_size=20))
    def test_target_keys_round_trip(self, tmp_path_factory, rows):
        keys = pack_targets([(d - EPOCH).days for d, _ in rows], [ip for _, ip in rows])
        path = tmp_path_factory.mktemp("keys") / "targets.csv"
        write_targets(path, keys)
        assert path.read_text().splitlines() == ["date,ip"] + [
            f"{d.isoformat()},{int_to_ip(ip)}" for d, ip in sorted(set(rows))]
        back = read_targets(path)
        assert back.dtype == np.int64 and np.array_equal(back, keys)

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


# -- attacks.csv: round trip, mutated rows, messages ------------------------------

ATTACKS_HEADER = "observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors"
ATTACK_FILE_COLUMNS = ("observatory", "type_code", "net", "plen", "start_ts", "end_ts", "packets")
# what a start_ts_us, end_ts_us or packets field must be
INT64 = "a canonical decimal of at most 18 digits"
# what a prefix field must be
PREFIX = "a dotted-quad, optionally then '/' and a length of 0 to 32, with no host bits set"


@st.composite
def attack_batches(draw):
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        plen = draw(st.integers(11, 32))
        start = draw(st.sampled_from([0, MAX_TS_US]) | st.integers(0, MAX_TS_US))
        rows.append((
            draw(st.text(alphabet="abcXYZ019._-", min_size=1, max_size=8)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2 ** 32 - 1)) >> (32 - plen) << (32 - plen), plen,
            start, draw(st.integers(start, MAX_TS_US)),
            draw(st.sampled_from([0, 10 ** 18 - 1]) | st.integers(0, 10 ** 18 - 1)),
            0, False, 0,
            sorted(draw(st.sets(st.integers(0, 2 ** 32 - 1), max_size=4))), [],
        ))
    return EventBatch.from_rows(rows)


ATTACK_MUTATIONS = {
    "extra column": lambda f, draw: f.append(draw(st.sampled_from(["", "x", "1"]))),
    "missing column": lambda f, draw: f.pop(draw(st.integers(0, 6))),
    "unknown type": lambda f, draw: f.__setitem__(1, draw(st.sampled_from(["ra", "", "DDoS", " RA"]))),
    "bad target": lambda f, draw: f.__setitem__(2, draw(st.sampled_from(
        ["10.0.0.1/24", "10.0.0.0/33", "10.0.0.0/8", "10.0.0/24", "::1/128", "10.0.0.0/+24"]))),
    "bad number": lambda f, draw: f.__setitem__(draw(st.integers(3, 5)), draw(st.sampled_from(
        ["-1", "+5", " 5", "05", "1_0", "", "x", "1234567890123456789"]))),
    "ts past 9999": lambda f, draw: f.__setitem__(draw(st.integers(3, 4)), str(MAX_TS_US + 1)),
    "start after end": lambda f, draw: f.__setitem__(3, str(int(f[4]) + 1)),
    "bad sensor": lambda f, draw: f.__setitem__(6, draw(st.sampled_from(
        ["192.0.2.256", "192.0.2.1;192.0.2", "192.0.2.1,192.0.2.2", "x"]))),
    "quoted field": lambda f, draw: f.__setitem__(0, f'"{f[0]}"'),
}


class TestAttackGrammar:
    @settings(max_examples=150, deadline=None)
    @given(batch=attack_batches())
    def test_round_trip_column_by_column(self, tmp_path_factory, batch):
        path = tmp_path_factory.mktemp("attacks") / "attacks.csv"
        write_attacks(path, batch)
        assert path.read_text() == attacks_csv(batch)
        back = read_attacks(path)
        for name in ATTACK_FILE_COLUMNS:
            assert np.array_equal(getattr(back, name), getattr(batch, name)), name
            assert getattr(back, name).dtype == getattr(batch, name).dtype, name
        for name in ("sensors", "members"):
            got, want = getattr(back, name), getattr(batch, name)
            assert np.array_equal(got.bounds, want.bounds) and np.array_equal(got.values, want.values)
        assert not back.has_bytes.any() and not back.source_ips.any()

    @settings(max_examples=300, deadline=None)
    @given(batch=attack_batches().filter(len), data=st.data())
    def test_mutated_row_names_its_line(self, tmp_path_factory, batch, data):
        lines = attacks_csv(batch).splitlines()[1:]
        kind = data.draw(st.sampled_from(sorted(ATTACK_MUTATIONS)))
        at = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[at].split(",")
        ATTACK_MUTATIONS[kind](fields, data.draw)
        lines[at] = ",".join(fields)
        path = tmp_path_factory.mktemp("bad") / "attacks.csv"
        path.write_text("\n".join([ATTACKS_HEADER, "", *lines]) + "\n")     # a blank line still counts
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:{at + 3}: "):
            read_attacks(path)

    @pytest.mark.parametrize("row, message", [
        ("hp,RA,203.0.113.5/32,0,10,123456789012345678901234567890,",
         f"packets '123456789012345678901234567890' is not {INT64}"),
        ("hp,RA,203.0.113.5/32,0,10,1000000000000000000,", f"packets '1000000000000000000' is not {INT64}"),
        ("hp,RA,203.0.113.5/32,0,10,-1,", f"packets '-1' is not {INT64}"),
        ("hp,RA,203.0.113.5/32,+0,10,7,", f"start_ts_us '+0' is not {INT64}"),
        ("hp,RA,203.0.113.5/32,0,010,7,", f"end_ts_us '010' is not {INT64}"),
        ("hp,RA,203.0.113.5/32,0,253402300800000000,7,", "end_ts_us above 253402300799999999"),
        ("hp,RA,203.0.113.5/32,11,10,7,", "start_ts after end_ts"),
        ("hp,XX,203.0.113.5/32,0,10,7,", "attack_type 'XX' is not one of DP, RA, RSDoS"),
        ("hp,RA,10.0.0.0/8,0,10,7,", "target prefix length outside 11-32"),
        ("hp,RA,203.0.113.5/24,0,10,7,", f"target '203.0.113.5/24' is not {PREFIX}"),
        ("hp,RA,203.0.113.5/32,0,10,7,192.0.2.1;x",
         "sensors '192.0.2.1;x' is not a ';'-joined list of IPv4 dotted-quads"),
        ("hp,RA,203.0.113.5/32,0,10,7", "expected 7 fields, got 6"),
    ])
    def test_rejection_messages(self, tmp_path, row, message):
        path = tmp_path / "attacks.csv"
        path.write_text(f"{ATTACKS_HEADER}\nhp,RA,203.0.113.5/32,0,10,7,\n{row}\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(f'{path}:3: {message}')}$"):
            read_attacks(path)

    def test_header_only_file_is_empty_batch(self, tmp_path):
        path = tmp_path / "attacks.csv"
        path.write_text(ATTACKS_HEADER + "\n")
        events = read_attacks(path)
        assert len(events) == 0 and events.net.dtype == np.uint32 and len(events.sensors) == 0
        write_attacks(path, events)
        assert path.read_text() == ATTACKS_HEADER + "\n"


# -- the columnar readers against the row-by-row reference ---------------------

texts = st.text(st.characters(exclude_characters=",\n", exclude_categories=("Cs",)), max_size=6)
ips = st.integers(0, 2 ** 32 - 1).map(int_to_ip)
# per file: header, reader, reference reader, and well-formed rows as lists of cells
READERS = {
    "attacks": (ATTACKS_HEADER, read_attacks, oracle_read_attacks, attack_batches().map(
        lambda batch: [line.split(",") for line in attacks_csv(batch).splitlines()[1:]])),
    "routed": ("prefix,asn", read_routed_table, lambda path: oracle_read_table(path, "prefix,asn"),
               st.lists(st.tuples(prefixes, st.integers(0, 10 ** 10 - 1).map(str)).map(list), max_size=8)),
    "alloc": ("prefix,registry", read_alloc_table, lambda path: oracle_read_table(path, "prefix,registry"),
              st.lists(st.tuples(prefixes, texts).map(list), max_size=6)),
    "targets": ("date,ip", read_targets, oracle_read_targets,
                st.lists(st.tuples(st.dates().map(date.isoformat), ips).map(list), max_size=8)),
}
# cells a field may be mutated to; none is a decimal of over 10 digits or a
# prefix length with a leading zero, which only the row reader took
JUNK = st.binary(max_size=8).filter(lambda cell: b"," not in cell and b"\n" not in cell) | st.sampled_from([
    "", "x", "-1", "+5", " 5", "05", "1_0", "٥", '"hp"', "10.0.0.1/8", "10.0.0.0/33",
    "10.0.0.0/", "10.0.0/8", "010.0.0.0/8", "::1/128", "203.0.113.5", "0.0.0.0/0", "10.0.0.0/ 8", "2022-02-30",
    "2024-02-29", "0000-01-01", "2022-1-04", "20220104", "RA", "ra", "RSDoS ", "192.0.2.1;;192.0.2.1", ";",
    "192.0.2.1;x", "192.0.2", "é", "\r",
]).map(str.encode)


def _outcome(read, path):
    """(what `read` returns, None), or (None, the path or path:line its FormatError names)."""
    try:
        return read(path), None
    except FormatError as exc:
        return None, re.match(rf"{re.escape(str(path))}(:\d+)?", str(exc)).group()


class TestReadersMatchRowReader:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(READERS)), crlf=st.booleans(), last_break=st.booleans(),
           chunk=st.sampled_from([1, 13, 64, ioformats._CHUNK_BYTES]))
    def test_same_values_or_same_line(self, tmp_path_factory, data, kind, crlf, last_break, chunk):
        header, read, reference, rows = READERS[kind]
        rows = [[cell.encode() for cell in row] for row in data.draw(rows)]
        if rows and data.draw(st.booleans()):       # one row mutated
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            how = data.draw(st.sampled_from(["cell", "extra column", "missing column"]))
            if how == "cell":
                row[data.draw(st.integers(0, len(row) - 1))] = data.draw(JUNK)
            elif how == "extra column":
                row.append(data.draw(JUNK))
            else:
                row.pop(data.draw(st.integers(0, len(row) - 1)))
        lines = [header.encode(), *(b",".join(row) for row in rows)]
        for at in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
            lines.insert(at, b"")                   # blank lines, before the header too
        path = tmp_path_factory.mktemp(kind) / f"{kind}.csv"
        path.write_bytes((b"\r\n" if crlf else b"\n").join(lines) + (b"\n" if last_break else b""))
        with mock.patch.object(ioformats, "_CHUNK_BYTES", chunk):
            got, got_at = _outcome(read, path)
        want, want_at = _outcome(reference, path)
        assert got_at == want_at
        if kind == "attacks" and want is not None:
            assert _same_columns(got, want)
        elif kind == "targets" and want is not None:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        elif want is not None:
            assert list(zip(*(col.tolist() for col in got.columns()))) == want

    @pytest.mark.parametrize("read, header, row, message", [
        (read_routed_table, "prefix,asn", "10.0.0.0/8,12345678901",
         "asn '12345678901' is not a canonical decimal of at most 10 digits"),
    ])
    def test_what_only_the_row_reader_took(self, tmp_path, read, header, row, message):
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{row}\n")
        reference = oracle_read_attacks if read is read_attacks else lambda path: oracle_read_table(path, header)
        assert _outcome(reference, path)[1] is None         # the row reader took it
        with pytest.raises(FormatError, match=rf"^{re.escape(f'{path}:2: {message}')}$"):
            read(path)

    @pytest.mark.parametrize("read, header, row, message", [
        (read_routed_table, "prefix,asn", "10.0.0.0/08,64500", f"prefix '10.0.0.0/08' is not {PREFIX}"),
        (read_routed_table, "prefix,asn", "10.0.0.0/008,64500", f"prefix '10.0.0.0/008' is not {PREFIX}"),
        (read_alloc_table, "prefix,registry", "10.0.0.0/08,RIPE", f"prefix '10.0.0.0/08' is not {PREFIX}"),
        (read_attacks, ATTACKS_HEADER, "hp,RA,203.0.113.5/032,0,10,7,", f"target '203.0.113.5/032' is not {PREFIX}"),
    ])
    def test_prefix_length_with_a_leading_zero(self, tmp_path, read, header, row, message):
        # refused by the row reader too, through model.parse_prefix
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{row}\n")
        reference = oracle_read_attacks if read is read_attacks else lambda path: oracle_read_table(path, header)
        assert _outcome(reference, path)[1] == f"{path}:2"
        with pytest.raises(FormatError, match=rf"^{re.escape(f'{path}:2: {message}')}$"):
            read(path)


# -- writers: fixed steps, bounded memory -------------------------------------

def _packet_batch(n: int, seed: int = 0) -> PacketBatch:
    rng = np.random.default_rng(seed)
    protocol = rng.choice(np.array([6, 17, 1], np.uint8), n)
    ports = lambda: np.where(protocol == 1, 0, rng.integers(0, 65536, n)).astype(np.uint16)
    return PacketBatch(np.sort(rng.integers(0, MAX_TS_US, n)), protocol, rng.integers(0, 2 ** 32, n, np.uint32),
                       ports(), rng.integers(0, 2 ** 32, n, np.uint32), ports(), rng.integers(20, 1500, n),
                       rng.integers(0, 16, n).astype(np.uint8))


def _event_batch(n: int, seed: int = 0) -> EventBatch:
    """Events of three observatories, with 0 to 3 sensors each."""
    rng = np.random.default_rng(seed)
    plen = rng.integers(11, 33, n).astype(np.uint8)
    net = rng.integers(0, 2 ** 32, n, np.uint32) >> (32 - plen) << (32 - plen)
    start = rng.integers(0, MAX_TS_US - 10 ** 9, n)
    counts = rng.integers(0, 4, n)
    bounds = np.cumsum(np.append(0, counts))
    # row i holds sensors 4i, 4i + 1, ... above 192.0.2.0
    sensors = 0xC0000200 + np.repeat(4 * np.arange(n) - bounds[:-1], counts) + np.arange(bounds[-1])
    batch = EventBatch.build("hp", rng.integers(0, 3, n), net, plen, start, start + rng.integers(0, 10 ** 9, n),
                             rng.integers(0, 10 ** 18, n), sensors=Ragged(bounds, sensors.astype(np.uint32)))
    # as narrow a string dtype as attacks.csv reads back
    observatory = np.array(rng.choice(["hp", "scope", "ixp-1"], n).tolist(), np.str_)
    return dataclasses.replace(batch, observatory=observatory)


def _flow_batch(n: int, seed: int = 0) -> FlowBatch:
    rng = np.random.default_rng(seed)
    start = rng.integers(0, MAX_TS_US - 10 ** 9, n)
    return FlowBatch(rng.integers(0, 2 ** 32, n, np.uint32), rng.integers(0, 256, n).astype(np.uint8),
                     rng.integers(0, 65536, n).astype(np.uint16), rng.integers(1, 2 ** 32 + 1, n),
                     rng.integers(0, 10 ** 15, n) / 1000, start, start + rng.integers(0, 10 ** 9, n))


def _target_keys(n: int, seed: int = 0) -> np.ndarray:
    """`n` distinct target keys over 40 days."""
    rng = np.random.default_rng(seed)
    ips = np.arange(n, dtype=np.int64) * 2654435761 % 2 ** 32 ^ rng.integers(0, 2 ** 32)
    return pack_targets(19_000 + rng.integers(0, 40, n), ips)


# per writer: (write, read, synthetic rows, one-join reference text)
WRITERS = {
    "packets": (write_packets, read_packets, _packet_batch, packets_csv),
    "attacks": (write_attacks, read_attacks, _event_batch, attacks_csv),
    "flows": (write_flows, read_flows, _flow_batch, flows_csv),
    "targets": (write_targets, read_targets, _target_keys, targets_csv),
}


def _same_columns(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and np.array_equal(got, want)
    if isinstance(want, Ragged):
        return _same_columns(got.bounds, want.bounds) and _same_columns(got.values, want.values)
    return all(_same_columns(a, b) for a, b in zip(got.columns(), want.columns()))


class TestWriteSteps:
    @pytest.mark.parametrize("rows", WRITE_STEP_ROWS)
    @pytest.mark.parametrize("kind", ["attacks", "flows", "targets"])
    def test_rows_around_a_step_match_one_join_and_read_back(self, tmp_path, kind, rows):
        write, read, make, reference = WRITERS[kind]
        table = make(rows)
        assert len(table) == rows
        path = tmp_path / f"{kind}.csv"
        write(path, table)
        assert path.read_text() == reference(table)
        back = read(path)
        if kind == "attacks":       # the attacks.csv columns only
            table = dataclasses.replace(back, **{name: getattr(table, name) for name in ATTACK_FILE_COLUMNS},
                                        sensors=table.sensors)
        assert _same_columns(back, table)

    @pytest.mark.parametrize("kind", ["packets", "attacks"])
    def test_write_memory_does_not_grow_with_rows(self, tmp_path, kind):
        write, _, make, _ = WRITERS[kind]
        table = make(40_000)
        tracemalloc.start()
        try:
            write(tmp_path / f"{kind}.csv", table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, f"{kind}: {peak} bytes at peak for 40 000 rows"
