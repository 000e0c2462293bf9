"""Bytes a packet row costs: tracemalloc peaks per row of synth and the packet
layers on fixed generated input, the writer's peak above the rows it
writes, the release of each parsed file after its last reader, and the
imports a pipeline run makes.

The inputs are large enough (150 000 rows, and about 1 000 000 for synth)
that the reader's per-step buffers and the detectors' per-call constants
add little to a row's share.
"""

import json
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from ddoscope import pipeline
from ddoscope.honeypot import detect_honeypot, preset
from ddoscope.ioformats import PACKETS_HEADER, read_packets
from ddoscope.model import dotted_quads
from ddoscope.synth import AttackSpec, ScenarioSpec, generate, write_scenario
from ddoscope.telescope import TelescopeConfig, backscatter_prefilter, detect_rsdos

from conftest import child_env, write_pipeline_fixture

ROWS = 150_000
T0_US = 1_704_067_200 * 10 ** 6     # 2024-01-01


def _write_packets_csv(path: Path, ts, protocol, src, src_port, dst, dst_port, flags) -> None:
    """packets.csv of the given columns, every packet 60 bytes long."""
    cells = zip(ts.tolist(), protocol.tolist(), dotted_quads(src), src_port.tolist(), dotted_quads(dst),
                dst_port.tolist(), flags)
    path.write_text(PACKETS_HEADER + "\n" + "".join(f"{t},{p},{s},{sp},{d},{dp},60,{f}\n"
                                                    for t, p, s, sp, d, dp, f in cells))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """A week of telescope packets (SYN-ACKs, resets, lone SYNs, UDP and ICMP
    from 5000 sources) and of honeypot requests (5000 sources, 7 sensors, 5
    ports), ROWS rows each; in both, a tenth of the rows come from 20 of the
    sources within ten minutes, which makes them attacks."""
    root = tmp_path_factory.mktemp("packets")
    rng = np.random.default_rng(7)
    dense = np.arange(ROWS) < ROWS // 10
    ts = T0_US + np.where(dense, rng.integers(0, 600 * 10 ** 6, ROWS), rng.integers(0, 7 * 86_400 * 10 ** 6, ROWS))
    sources = np.where(dense, rng.integers(0, 20, ROWS), rng.integers(0, 5000, ROWS)).astype(np.uint32)
    kind = rng.choice(5, ROWS, p=[0.4, 0.1, 0.2, 0.15, 0.15])
    protocol = np.array([6, 6, 6, 17, 1])[kind]
    ported = protocol != 1
    _write_packets_csv(root / "telescope.csv", ts, protocol, 0xAC140000 + sources, np.where(ported, 80, 0),
                       (0x0A000000 + rng.integers(0, 1 << 16, ROWS)).astype(np.uint32),
                       np.where(ported, rng.integers(1024, 65536, ROWS), 0),
                       np.array(["SA", "AR", "S", "", ""])[kind].tolist())
    _write_packets_csv(root / "honeypot.csv", ts, np.full(ROWS, 17), 0xAC150000 + sources, np.full(ROWS, 4444),
                       (0xC6336401 + rng.integers(0, 7, ROWS)).astype(np.uint32),
                       rng.choice([53, 123, 389, 1900, 11211], ROWS), [""] * ROWS)
    return root


def _peak(fn, *args):
    """What fn(*args) returns, and the most bytes it held at once."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _scenario(rsdos_pps: float, reflection_pps: float) -> ScenarioSpec:
    """A day with eight 30-minute rsdos attacks that a /8 telescope sees
    1/256 of, and eight 20-minute reflections on six of twelve sensors."""
    attacks = [AttackSpec("rsdos", f"172.16.{i}.1", i * 3000.0, 1800.0, rsdos_pps) for i in range(8)]
    attacks += [AttackSpec("reflection", f"172.17.{i}.0/24", i * 3000.0, 1200.0, reflection_pps,
                           reflector_subset=6, ports=(123, 53)) for i in range(8)]
    return ScenarioSpec(7, 86_400.0, 1 << 24, tuple(f"198.51.100.{i}" for i in range(1, 13)), tuple(attacks))


def _rows(generated) -> int:
    return len(generated.telescope_packets) + sum(map(len, generated.honeypot_packets.values()))


# Bounds in bytes per row. Each holds the change's peak with a margin and
# lies below the peak before it (in brackets): read 32.6 (62.1), prefilter
# 16.3 (21.5), rsdos 33.0 (56.3), honeypot 37.9 (52.8), generate 35.3 (58.2).
# Measured with numpy 2.4.6 on Python 3.11; tracemalloc counts numpy's
# buffers, so the margins, 10 % or more, leave room for other releases.
class TestPeakPerRow:
    def test_read_packets(self, inputs):
        # 22 bytes of kept columns a row, with the step buffers spread over the rows
        packets, peak = _peak(read_packets, inputs / "telescope.csv")
        assert len(packets) == ROWS
        assert peak / ROWS < 40

    def test_backscatter_prefilter(self, inputs):
        packets = read_packets(inputs / "telescope.csv")
        _, peak = _peak(backscatter_prefilter, packets)
        assert peak / ROWS < 19

    def test_detect_rsdos(self, inputs):
        kept = backscatter_prefilter(read_packets(inputs / "telescope.csv"))
        events, peak = _peak(detect_rsdos, kept, TelescopeConfig(n_addresses=1 << 16))
        assert len(events)
        assert peak / len(kept) < 40

    def test_detect_honeypot(self, inputs):
        packets = read_packets(inputs / "honeypot.csv")
        events, peak = _peak(detect_honeypot, packets, preset("hopscotch"))
        assert len(events)
        assert peak / ROWS < 44

    def test_generate(self):
        # 26 bytes of kept columns a row: a PacketBatch row and its length
        generated, peak = _peak(generate, _scenario(10_000.0, 50.0))
        assert 1_000_000 < _rows(generated) < 1_100_000
        assert peak / _rows(generated) < 40


def test_the_writer_holds_a_step_of_rows_at_a_time(tmp_path):
    # the peak above the rows being written, 230 kB (1082 kB before) with
    # numpy 2.4.6 on Python 3.11: a writing step's cells and lines
    generated = generate(_scenario(500.0, 5.0))
    assert _rows(generated) > 70_000
    _, peak = _peak(write_scenario, generated, tmp_path)
    assert peak < 320_000


def _honeypot(name: str, preset_name: str, inputs: list) -> pipeline.ObservatoryConfig:
    return pipeline.observatory_config({"name": name, "type": "honeypot", "preset": preset_name,
                                        "inputs": [str(p) for p in inputs]}, name)


class TestParsedRelease:
    def test_a_batch_is_gone_once_its_last_reader_has_gathered_it(self, inputs, tmp_path, monkeypatch):
        # "both" reads a.csv and b.csv, "later" only b.csv: a's batch has no
        # reader after "both", and b's none after "later"
        lines = (inputs / "honeypot.csv").read_text().splitlines(keepends=True)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("".join(lines[:2000]))
        b.write_text("".join(lines[:1] + lines[2000:4000]))
        parsed = {(p.resolve(), None): read_packets(p) for p in (a, b)}
        refs = {p.name: weakref.ref(parsed[(p.resolve(), None)]) for p in (a, b)}
        alive = []

        def detect(packets, definition, observatory):
            alive.append((observatory, sorted(name for name, ref in refs.items() if ref() is not None)))
            return detect_honeypot(packets, definition, observatory)

        monkeypatch.setattr(pipeline, "detect_honeypot", detect)
        cfg = types.SimpleNamespace(observatories=[_honeypot("both", "hopscotch", [a, b]),
                                                   _honeypot("later", "amppot", [b])])
        pipeline._stage_detect(cfg, tmp_path, parsed)
        # "later" detects over b's batch itself, as it reads no other file
        assert alive == [("both", ["b.csv"]), ("later", ["b.csv"])]
        assert parsed == {} and all(ref() is None for ref in refs.values())

    def test_a_batch_no_observatory_reads_is_gone_before_detection(self, inputs, tmp_path, monkeypatch):
        # synth's packets of a file that no observatory reads, as its honeypot
        # files are when a scenario's telescope is the only observatory
        lines = (inputs / "honeypot.csv").read_text().splitlines(keepends=True)
        read, unread = tmp_path / "read.csv", tmp_path / "unread.csv"
        read.write_text("".join(lines[:2000]))
        unread.write_text("".join(lines[:1] + lines[2000:4000]))
        parsed = {(p.resolve(), None): read_packets(p) for p in (read, unread)}
        refs = {p.name: weakref.ref(parsed[(p.resolve(), None)]) for p in (read, unread)}
        alive = []

        def detect(packets, definition, observatory):
            alive.append(sorted(name for name, ref in refs.items() if ref() is not None))
            return detect_honeypot(packets, definition, observatory)

        monkeypatch.setattr(pipeline, "detect_honeypot", detect)
        cfg = types.SimpleNamespace(observatories=[_honeypot("only", "hopscotch", [read])])
        pipeline._stage_detect(cfg, tmp_path, parsed)
        assert alive == [["read.csv"]]
        assert parsed == {} and all(ref() is None for ref in refs.values())


def test_a_normalizing_pipeline_run_does_not_import_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma; trends.normalize takes its median without it
    cfg = write_pipeline_fixture(tmp_path, weeks=20, normalize=True, ewma_span=12)
    script = ("import sys\n"
              "from ddoscope.cli import main\n"
              f"try:\n    main(['pipeline', '--config', {str(cfg)!r}])\n"
              "except SystemExit as exc:\n    assert not exc.code, exc.code\n"
              "print('numpy.ma' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True, text=True,
                            check=True)
    # some series was normalized
    assert any("class" in entry for entry in json.loads((tmp_path / "out" / "trends.json").read_text()).values())
    assert result.stdout.split()[-1] == "False"
