import copy
import json
import os
import re
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest
from click.testing import CliRunner

import ddoscope
from ddoscope.cli import main
from ddoscope import ioformats, pipeline
from ddoscope.model import EPOCH, US_PER_DAY, US_PER_S, TargetTuple, keys_to_tuples, tuples_to_keys
from ddoscope.ioformats import read_targets
from ddoscope.schema import REQUIRED

from conftest import FIRST_MONDAY, build_scenario, write_pipeline_fixture
from oracles import batch_to_events, hash_targets


def read_attacks(path):
    """attacks.csv as AttackEvent rows."""
    return batch_to_events(ioformats.read_attacks(path))


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, expect=0):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result


@pytest.fixture
def generated(runner, tmp_path):
    """A small generated scenario shared by the detect-command tests."""
    scenario = {
        "seed": 11, "duration_s": 4000,
        "telescope": {"n_addresses": 2 ** 22},
        "honeypot_sensors": [f"198.51.100.{i}" for i in range(1, 11)],
        "attacks": [
            {"type": "rsdos", "victim": "203.0.113.7", "start_s": 0,
             "duration_s": 300, "rate_pps": 20_000},
            {"type": "reflection", "victim": "203.0.113.9", "start_s": 100,
             "duration_s": 600, "rate_pps": 5 / 3, "reflector_subset": 5},
            {"type": "direct_nonspoofed", "victim": "203.0.113.11",
             "start_s": 0, "duration_s": 300, "rate_pps": 150_000,
             "packet_bytes": 1000},
        ],
    }
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(scenario))
    gen = tmp_path / "gen"
    invoke(runner, ["synth", "--spec", str(spec), "--out", str(gen)])
    return gen


class TestSynthCommand:
    def test_outputs_exist(self, generated):
        assert (generated / "telescope.csv").exists()
        assert (generated / "flows.csv").exists()
        assert (generated / "ground_truth.json").exists()
        assert len(list(generated.glob("honeypot_*.csv"))) == 10


class TestDetectCommands:
    def test_telescope(self, runner, generated, tmp_path):
        cfg = tmp_path / "tcfg.json"
        cfg.write_text(json.dumps({"n_addresses": 2 ** 22}))
        out = tmp_path / "attacks.csv"
        invoke(runner, ["detect", "telescope", "--config", str(cfg),
                        "--in", str(generated / "telescope.csv"),
                        "--out", str(out), "--observatory", "scope"])
        events = read_attacks(out)
        assert [e.target for e in events] == ["203.0.113.7/32"]
        assert events[0].observatory == "scope"

    def test_telescope_requires_n_addresses(self, runner, generated, tmp_path):
        result = runner.invoke(main, [
            "detect", "telescope",
            "--in", str(generated / "telescope.csv"),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2, result.output
        assert result.output.strip() == "error: telescope 'telescope' needs config.n_addresses"

    def test_honeypot_multi_file(self, runner, generated, tmp_path):
        out = tmp_path / "attacks.csv"
        args = ["detect", "honeypot", "--preset", "hopscotch", "--out", str(out)]
        for f in sorted(generated.glob("honeypot_*.csv")):
            args += ["--in", str(f)]
        invoke(runner, args)
        events = read_attacks(out)
        assert len(events) == 1
        assert len(events[0].sensors) == 5

    def test_flow(self, runner, generated, tmp_path):
        out = tmp_path / "attacks.csv"
        invoke(runner, ["detect", "flow", "--in", str(generated / "flows.csv"),
                        "--out", str(out)])
        events = read_attacks(out)
        assert [e.attack_type for e in events] == ["DP"]
        assert events[0].target == "203.0.113.11/32"

    @pytest.mark.parametrize("command, settings, message", [
        ("flow", ["--ampl-ports", "70000,-1"],
         "flow 'flow': ampl_ports must be a list of integers from 0 to 65535, not [70000, -1]"),
        ("flow", ["--ampl-ports", "53,5x"],
         "flow 'flow': ampl_ports must be a list of integers from 0 to 65535, not [53, '5x']"),
        ("honeypot", ["--preset", "hopscotch", "--merge-gap", "-1"],
         "honeypot 'hopscotch': merge_gap must be a number of at least 0, not -1.0"),
        ("telescope", {"n_addresses": 2 ** 22, "bogus": 1}, "telescope 'telescope': unknown config keys ['bogus']"),
        ("telescope", {"n_addresses": "5"}, "telescope 'telescope': n_addresses must be an integer, not '5'"),
        ("telescope", {"n_addresses": 2 ** 22, "interval": -1}, "telescope 'telescope': thresholds must be positive"),
    ], ids=["ampl_ports-range", "ampl_ports-text", "merge_gap", "telescope-key", "telescope-type", "telescope-range"])
    def test_settings_are_read_as_in_a_pipeline(self, runner, generated, tmp_path, command, settings, message):
        if isinstance(settings, dict):
            (tmp_path / "tcfg.json").write_text(json.dumps(settings))
            settings = ["--config", str(tmp_path / "tcfg.json")]
        inputs = {"flow": "flows.csv", "honeypot": "honeypot_198.51.100.1.csv", "telescope": "telescope.csv"}
        out = tmp_path / "attacks.csv"
        result = runner.invoke(main, ["detect", command, *settings, "--in", str(generated / inputs[command]),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.strip() == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["../../escaped", "a,b"])
    def test_observatory_name_must_be_a_file_name_token(self, runner, tmp_path, name):
        flows = tmp_path / "flows.csv"
        flows.write_text("target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us\n")
        out = tmp_path / "attacks.csv"
        result = runner.invoke(main, ["detect", "flow", "--in", str(flows), "--out", str(out),
                                      "--observatory", name])
        assert result.exit_code == 2, result.output
        assert "does not match [A-Za-z0-9][A-Za-z0-9._-]*" in result.output
        assert not out.exists()


class TestCliMatchesPipeline:
    """Each CLI step gives the same bytes as the matching bundle file."""

    def test_outputs_byte_identical(self, runner, generated, tmp_path):
        # The scenario spans one hour; one flow summary from the following
        # week rides along, so the overlap series spans two weeks.
        late = tmp_path / "late_flows.csv"
        late.write_text(
            "target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us\n"
            f"203.0.113.11,6,0,20,200000000,{(FIRST_MONDAY + 3600) * US_PER_S},"
            f"{(FIRST_MONDAY + 3900) * US_PER_S}\n"
        )
        honeypots = [str(p) for p in sorted(generated.glob("honeypot_*.csv"))]
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({
            "out_dir": str(tmp_path / "bundle"),
            "observatories": [
                {"name": "scope", "type": "telescope",
                 "inputs": [str(generated / "telescope.csv")],
                 "config": {"n_addresses": 2 ** 22}},
                {"name": "hop", "type": "honeypot", "preset": "hopscotch",
                 "inputs": honeypots},
                {"name": "ixp", "type": "flow",
                 "inputs": [str(generated / "flows.csv"), str(late)]},
            ],
            "analysis": {"normalize": False, "ewma_span": None},
        }))
        invoke(runner, ["pipeline", "--config", str(cfg)])
        bundle = tmp_path / "bundle"

        tcfg = tmp_path / "tcfg.json"
        tcfg.write_text(json.dumps({"n_addresses": 2 ** 22}))
        cli = tmp_path / "cli"
        cli.mkdir()
        invoke(runner, ["detect", "telescope", "--config", str(tcfg), "--observatory", "scope",
                        "--in", str(generated / "telescope.csv"),
                        "--out", str(cli / "attacks_scope.csv")])
        invoke(runner, ["detect", "honeypot", "--preset", "hopscotch", "--observatory", "hop",
                        *[a for p in honeypots for a in ("--in", p)],
                        "--out", str(cli / "attacks_hop.csv")])
        invoke(runner, ["detect", "flow", "--observatory", "ixp",
                        "--in", str(generated / "flows.csv"), "--in", str(late),
                        "--out", str(cli / "attacks_ixp.csv")])
        for name in ("scope", "hop", "ixp"):
            got = (cli / f"attacks_{name}.csv").read_bytes()
            assert got == (bundle / f"attacks_{name}.csv").read_bytes(), name
            assert len(read_attacks(cli / f"attacks_{name}.csv")) >= 1, name

        invoke(runner, ["overlap", "--mode", "per_day",
                        "--sets", f"ixp={cli / 'attacks_ixp.csv'}",
                        "--sets", f"scope={cli / 'attacks_scope.csv'}",
                        "--timeseries", str(cli / "ixp_scope.csv")])
        assert ((cli / "ixp_scope.csv").read_bytes()
                == (bundle / "overlap" / "ixp_scope.csv").read_bytes())

        sets = ",".join(f"{n}={cli / f'attacks_{n}.csv'}" for n in ("hop", "ixp", "scope"))
        invoke(runner, ["overlap", "--sets", sets, "--upset", "--out", str(cli / "upset.json")])
        assert (cli / "upset.json").read_bytes() == (bundle / "upset.json").read_bytes()

    def test_aggregate_and_confirm_give_the_bundle_files(self, runner, tmp_path):
        # a 3-week bundle with carpet aggregation and confirmation; two
        # bursts of concurrent attacks on neighbouring hosts make carpets
        cfg = write_pipeline_fixture(tmp_path, weeks=3, normalize=False, ewma_span=None)
        scenario = json.loads((tmp_path / "scenario.json").read_text())
        start = FIRST_MONDAY + 3 * 3600
        scenario["attacks"] += [
            {"type": "rsdos", "victim": f"203.0.113.{200 + k}", "start_s": start + 10 * k,
             "duration_s": 300, "rate_pps": 3000} for k in range(4)] + [
            {"type": "direct_nonspoofed", "victim": f"203.0.116.{50 + k}", "start_s": start + 10 * k,
             "duration_s": 300, "rate_pps": 150_000, "packet_bytes": 1000} for k in range(3)]
        (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        (tmp_path / "routed.csv").write_text(
            "prefix,asn\n203.0.113.0/24,64500\n203.0.112.0/20,64501\n203.0.116.0/24,64502\n203.0.0.0/16,64503\n")
        (tmp_path / "alloc.csv").write_text("prefix,registry\n203.0.112.0/22,RIPE\n203.0.116.0/22,ARIN\n")
        planted = {TargetTuple(EPOCH + timedelta(days=a["start_s"] // 86_400), a["victim"])
                   for a in scenario["attacks"][::2]}
        (tmp_path / "hashes.txt").write_text(
            "".join(digest + "\n" for digest in sorted(hash_targets(tuples_to_keys(planted), "1f2e"))))
        doc = json.loads(cfg.read_text())
        doc.update(aggregate=True, routed="routed.csv", alloc="alloc.csv")
        doc["analysis"]["confirm"] = {"external": "hashes.txt", "salt": "1f2e"}
        cfg.write_text(json.dumps(doc))
        invoke(runner, ["pipeline", "--config", str(cfg)])
        bundle, cli = tmp_path / "out", tmp_path / "cli"
        cli.mkdir()

        carpets = []
        for name in ("scope", "hop", "ixp"):
            agg = cli / f"attacks_{name}_agg.csv"
            invoke(runner, ["aggregate", "--routed", str(tmp_path / "routed.csv"),
                            "--alloc", str(tmp_path / "alloc.csv"),
                            "--in", str(bundle / f"attacks_{name}.csv"), "--out", str(agg)])
            assert agg.read_bytes() == (bundle / f"attacks_{name}_agg.csv").read_bytes(), name
            carpets += [e.target for e in read_attacks(agg) if not e.target.endswith("/32")]
        assert sorted(carpets) == ["203.0.113.0/24", "203.0.116.0/24"]

        invoke(runner, ["confirm", *(arg for name in ("hop", "ixp", "scope") for arg in (
                            "--local", f"{name}={bundle / 'targets' / f'{name}.csv'}")),
                        "--external", str(tmp_path / "hashes.txt"), "--salt", "1f2e",
                        "--out", str(cli / "confirm.json")])
        assert (cli / "confirm.json").read_bytes() == (bundle / "confirm.json").read_bytes()
        assert any(share > 0 for share in json.loads((cli / "confirm.json").read_text())["shares"].values())

    def test_trends_and_correlate_give_the_bundle_entries(self, runner, tmp_path):
        # A 20-week bundle, plus a flow monitor that saw two attacks in it:
        # the pipeline skips that monitor's series (its baseline median is 0).
        cfg = write_pipeline_fixture(tmp_path, weeks=20, normalize=True, ewma_span=12)
        doc = json.loads(cfg.read_text())
        (tmp_path / "sparse.csv").write_text(
            "target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us\n" + "".join(
                f"203.0.113.11,6,0,20,200000000,{start * US_PER_S},{(start + 300) * US_PER_S}\n"
                for start in (FIRST_MONDAY + 86_400, FIRST_MONDAY + 18 * 7 * 86_400)))
        doc["observatories"].append({"name": "sparse", "type": "flow", "inputs": ["sparse.csv"]})
        cfg.write_text(json.dumps(doc))
        invoke(runner, ["pipeline", "--config", str(cfg)])
        bundle = tmp_path / "out"
        trends = json.loads((bundle / "trends.json").read_text())
        assert trends["sparse:DP"] == {"skipped": "baseline median is zero; series cannot be normalized"}
        assert sum("skipped" not in entry for entry in trends.values()) == 4

        # the bundle's span: the first and last event start of every observatory
        starts = [e.start_ts for name in ("scope", "hop", "ixp", "sparse")
                  for e in read_attacks(bundle / f"attacks_{name}.csv")]
        start, end = (str(EPOCH + timedelta(ts // US_PER_DAY)) for ts in (min(starts), max(starts)))
        for label, entry in trends.items():
            obs, atype = label.split(":")
            out = tmp_path / f"{obs}_{atype}.json"
            args = ["trends", "--in", str(bundle / f"attacks_{obs}.csv"), "--attack-type", atype,
                    "--normalize", "--ewma", "12", "--start", start, "--end", end, "--out", str(out), "--summary"]
            if "skipped" in entry:
                result = invoke(runner, args, expect=3)
                assert result.output.strip() == f"error: {entry['skipped']}"
                assert not out.exists()
                continue
            result = invoke(runner, args)
            first, summary = result.output.splitlines()
            assert first == f"20 weeks, --start {start} --end {end} -> {out}"
            assert out.read_bytes() == (bundle / "series" / out.name).read_bytes(), label
            assert json.loads(summary) == entry, label

        correlations = json.loads((bundle / "correlations.json").read_text())
        assert len(correlations) == 6
        for entry in correlations:
            result = invoke(runner, ["correlate", "--method", "spearman",
                                     *(arg for side in "ab" for arg in (
                                         f"--{side}", str(bundle / "series" / f"{entry[side].replace(':', '_')}.json")))])
            assert json.loads(result.output) == entry

        # on its own, trends spans its own events, and prints that span
        result = invoke(runner, ["trends", "--in", str(bundle / "attacks_ixp.csv"), "--attack-type", "RA",
                                 "--out", str(tmp_path / "own.json")])
        own = [e.start_ts for e in read_attacks(bundle / "attacks_ixp.csv") if e.attack_type == "RA"]
        own_start, own_end = (str(EPOCH + timedelta(ts // US_PER_DAY)) for ts in (min(own), max(own)))
        assert (own_start, own_end) != (start, end)
        assert result.output.startswith(f"19 weeks, --start {own_start} --end {own_end} -> ")


class TestAggregateCommand:
    def test_merges_concurrent_hosts(self, runner, tmp_path):
        attacks = tmp_path / "attacks.csv"
        attacks.write_text(
            "observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors\n"
            f"hp,RA,203.0.113.5/32,0,{100 * US_PER_S},50,\n"
            f"hp,RA,203.0.113.99/32,{20 * US_PER_S},{130 * US_PER_S},50,\n"
        )
        routed = tmp_path / "routed.csv"
        routed.write_text("prefix,asn\n203.0.113.0/24,64500\n")
        alloc = tmp_path / "alloc.csv"
        alloc.write_text("prefix,registry\n203.0.112.0/22,ripe\n")
        out = tmp_path / "agg.csv"
        invoke(runner, ["aggregate", "--routed", str(routed), "--alloc", str(alloc),
                        "--in", str(attacks), "--out", str(out)])
        events = read_attacks(out)
        assert [e.target for e in events] == ["203.0.113.0/24"]
        assert events[0].packets == 100

    def test_missing_table_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["aggregate", "--routed", str(tmp_path / "no.csv"),
                                      "--alloc", str(tmp_path / "no2.csv"),
                                      "--in", str(tmp_path / "no3.csv"),
                                      "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2


class TestTrendsAndCorrelate:
    def test_trends_series_and_summary(self, runner, tmp_path):
        week_us = 7 * 86_400 * US_PER_S
        rows = ["observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors"]
        for w in range(4):
            for k in range(w + 1):
                start = w * week_us + k * US_PER_S
                rows.append(f"scope,RSDoS,203.0.113.{k + 1}/32,{start},{start + US_PER_S},30,")
        attacks = tmp_path / "attacks.csv"
        attacks.write_text("\n".join(rows) + "\n")
        series = tmp_path / "series.json"
        result = invoke(runner, ["trends", "--in", str(attacks), "--out", str(series),
                                 "--summary"])
        doc = json.loads(series.read_text())
        assert doc["label"] == "scope:RSDoS"
        assert doc["values"] == [1.0, 2.0, 3.0, 4.0]
        assert '"class"' in result.output and "Increasing" in result.output

    def test_correlate(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"label": "a", "start_week": "2022-01-03",
                                 "values": [1, 2, 3, 4, 5]}))
        b.write_text(json.dumps({"label": "b", "start_week": "2022-01-03",
                                 "values": [2, 1, 4, 3, 5]}))
        result = invoke(runner, ["correlate", "--a", str(a), "--b", str(b),
                                 "--method", "spearman"])
        doc = json.loads(result.output)
        assert doc["rho"] == pytest.approx(0.8, abs=1e-12)
        assert doc["n"] == 5

    def test_correlate_quarterly(self, runner, tmp_path):
        a = tmp_path / "a.json"
        values = [float(1 + (i * 7) % 13) for i in range(52)]
        a.write_text(json.dumps({"label": "a", "start_week": "2022-01-03",
                                 "values": values}))
        result = invoke(runner, ["correlate", "--a", str(a), "--b", str(a),
                                 "--quarterly"])
        doc = json.loads(result.output)
        assert len(doc["quarters"]) == 4
        assert all(q["rho"] == 1.0 for q in doc["quarters"])


class TestOverlapAndConfirm:
    def make_targets(self, path: Path, rows):
        path.write_text("date,ip\n" + "".join(f"{d},{ip}\n" for d, ip in rows))

    def test_upset_and_confirm(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.make_targets(a, [("2022-01-03", "10.0.0.1"), ("2022-01-03", "10.0.0.2")])
        self.make_targets(b, [("2022-01-03", "10.0.0.2"), ("2022-01-04", "10.0.0.3")])
        out = tmp_path / "upset.json"
        invoke(runner, ["overlap", "--sets", f"a={a},b={b}", "--upset",
                        "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["exclusive"] == {"a": 1, "b": 1, "a&b": 1}
        assert doc["union"] == 3

        salt = "feed"
        external = tmp_path / "hashes.txt"
        digests = sorted(hash_targets(read_targets(a), salt))
        external.write_text("\n".join(digests[:1]) + "\n")
        result = invoke(runner, ["confirm", "--local", str(a),
                                 "--external", str(external), "--salt", salt])
        doc = json.loads(result.output)
        assert doc["shares"]["local"] == 0.5

    def test_overlap_accepts_attacks_csv(self, runner, tmp_path):
        attacks = tmp_path / "attacks.csv"
        attacks.write_text(
            "observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors\n"
            "hp,RA,203.0.113.5/32,0,1000000,50,\n"
        )
        out = tmp_path / "upset.json"
        invoke(runner, ["overlap", "--sets", f"x={attacks}", "--upset", "--out", str(out)])
        assert json.loads(out.read_text())["sets"] == {"x": 1}

    def test_targets_csv_after_blank_lines_is_a_targets_file(self, runner, tmp_path):
        # as for every reader, the header is the first non-blank line
        t = tmp_path / "t.csv"
        t.write_text("\n\r\ndate,ip\r\n2022-01-03,10.0.0.1\n")
        out = tmp_path / "upset.json"
        invoke(runner, ["overlap", "--sets", f"t={t}", "--upset", "--out", str(out)])
        assert json.loads(out.read_text())["sets"] == {"t": 1}

    def test_new_recurring_and_attribution(self, runner, tmp_path):
        t = tmp_path / "t.csv"
        self.make_targets(t, [("2022-01-03", "10.0.0.1"), ("2022-01-12", "10.0.0.1"),
                              ("2022-01-13", "10.0.0.2")])
        routed = tmp_path / "routed.csv"
        routed.write_text("prefix,asn\n10.0.0.0/8,64500\n")
        nr = tmp_path / "nr.csv"
        attr = tmp_path / "attr.json"
        invoke(runner, ["overlap", "--sets", f"t={t}", "--new-recurring", str(nr),
                        "--attribution", str(attr), "--routed", str(routed)])
        lines = nr.read_text().splitlines()
        assert lines[0] == "week,new,recurring,cumulative_new"
        assert lines[1] == "2022-01-03,1,0,1"
        assert lines[2] == "2022-01-10,1,1,2"
        doc = json.loads(attr.read_text())
        assert doc == [{"asn": "AS64500", "tuples": 3, "share": 1.0}]


class TestOptionErrors:
    """Option values a pipeline config would refuse, and options that do not
    fit together, are configuration errors: exit 2, nothing written."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "attacks.csv").write_text(
            "observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors\n"
            "hp,RA,20.1.2.3/32,0,1000000,50,\n")
        (tmp_path / "routed.csv").write_text("prefix,asn\n20.1.0.0/16,64500\n")
        (tmp_path / "alloc.csv").write_text("prefix,registry\n20.0.0.0/8,ARIN\n")
        (tmp_path / "targets.csv").write_text("date,ip\n1970-01-01,20.1.2.3\n")
        (tmp_path / "hashes.txt").write_text("0" * 64 + "\n")
        return tmp_path

    @pytest.mark.parametrize("args, message", [
        ("trends --in {d}/attacks.csv --ewma 0", "error: trends: --ewma must be a number of at least 1, or null, not 0.0"),
        ("trends --in {d}/attacks.csv --ewma 0.5",
         "error: trends: --ewma must be a number of at least 1, or null, not 0.5"),
        ("trends --in {d}/attacks.csv --ewma -2",
         "error: trends: --ewma must be a number of at least 1, or null, not -2.0"),
        ("trends --in {d}/attacks.csv --start 1970-01-01", "Error: --start and --end must be given together"),
        ("trends --in {d}/attacks.csv --start 1970-05-01 --end 1970-01-05",
         "Error: --start 1970-05-01 is after --end 1970-01-05"),
        ("aggregate --routed {d}/routed.csv --alloc {d}/alloc.csv --in {d}/attacks.csv --gap -1",
         "error: aggregate: --gap must be a number of at least 0, not -1.0"),
        ("aggregate --routed {d}/routed.csv --alloc {d}/alloc.csv --in {d}/attacks.csv --min-targets 1",
         "error: aggregate: --min-targets must be an integer of at least 2, not 1"),
        ("overlap --sets a={d}/targets.csv --attribution {d}/out", "Error: --attribution needs --routed"),
        ("overlap --sets a={d}/targets.csv,b={d}/targets.csv,c={d}/attacks.csv --timeseries {d}/out",
         "Error: --timeseries needs exactly two sets"),
        ("overlap --sets {d}/targets.csv --upset --out {d}/out", "Error: --sets wants label=path, got '{d}/targets.csv'"),
        ("overlap --sets a={d}/targets.csv --sets a={d}/attacks.csv --upset --out {d}/out",
         "Error: --sets: duplicate set label 'a'"),
        ("confirm --local a={d}/targets.csv --local a={d}/targets.csv --external {d}/hashes.txt --salt s --out {d}/out",
         "Error: --local: duplicate set label 'a'"),
        ("overlap --sets a={d}/targets.csv --attribution {d}/out --routed {d}/routed.csv --top-n 0",
         "Error: Invalid value for '--top-n': 0 is not in the range x>=1."),
        ("overlap --sets a={d}/targets.csv --attribution {d}/out --routed {d}/routed.csv --top-n -1",
         "Error: Invalid value for '--top-n': -1 is not in the range x>=1."),
    ], ids=["ewma-zero", "ewma-half", "ewma-negative", "start-alone", "start-after-end", "gap-negative",
            "min_targets-one", "attribution-unrouted", "timeseries-three", "sets-unlabelled", "sets-repeated",
            "local-repeated", "top-n-zero", "top-n-negative"])
    def test_exit_2(self, runner, files, args, message):
        args = args.format(d=files).split()
        if args[0] in ("trends", "aggregate"):
            args += ["--out", str(files / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output.strip().splitlines()[-1] == message.format(d=files)
        assert not (files / "out").exists()

    def test_min_targets_two_keeps_a_lone_target(self, runner, files):
        invoke(runner, ["aggregate", "--routed", str(files / "routed.csv"), "--alloc", str(files / "alloc.csv"),
                        "--in", str(files / "attacks.csv"), "--out", str(files / "out"), "--min-targets", "2"])
        assert [e.target for e in read_attacks(files / "out")] == ["20.1.2.3/32"]


def test_readme_cli_lines_name_existing_options(runner):
    # each README CLI line, optional parts included, with --help added: click
    # refuses an unknown option before it handles --help
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    assert len(lines) == 10
    for line in lines:
        command, *args = line.replace("[", "").replace("]", "").split()
        assert command == "ddoscope"
        result = runner.invoke(main, [*args, "--help"])
        assert result.exit_code == 0, (line, result.output)


class TestPipelineCommand:
    def test_small_pipeline_bundle(self, runner, tmp_path):
        cfg = write_pipeline_fixture(tmp_path, weeks=3, normalize=False, ewma_span=None)
        result = invoke(runner, ["pipeline", "--config", str(cfg)])
        out = tmp_path / "out"
        assert (out / "manifest.json").exists()
        assert (out / "attacks_scope.csv").exists()
        assert (out / "attacks_hop.csv").exists()
        assert (out / "attacks_ixp.csv").exists()
        assert (out / "upset.json").exists()
        assert (out / "series" / "scope_RSDoS.json").exists()
        assert (out / "correlations.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 20_240_101
        assert "attacks_scope.csv" in manifest["files"]

    def test_config_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "observatories": [{"name": "x", "type": "nope"}],
        }))
        result = runner.invoke(main, ["pipeline", "--config", str(bad)])
        assert result.exit_code == 2
        assert "unknown observatory type" in result.output

    @pytest.mark.parametrize("telescope, message", [
        ({}, "needs config.n_addresses"),
        ({"n_addresses": 2 ** 22, "bogus": 1}, "unknown config keys ['bogus']"),
        ({"n_addresses": 2 ** 22, "interval": -1}, "thresholds must be positive"),
        ({"n_addresses": "many"}, "n_addresses must be an integer, not 'many'"),
    ])
    def test_telescope_config_errors(self, runner, tmp_path, telescope, message):
        packets = tmp_path / "packets.csv"
        packets.write_text("ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags\n")
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "observatories": [{"name": "scope", "type": "telescope",
                               "inputs": [str(packets)], "config": telescope}],
        }))
        result = runner.invoke(main, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert "stage 'config': telescope 'scope'" in result.output and message in result.output

    @pytest.mark.parametrize("name", ["../../escaped", "a,b", ["x"]])
    def test_observatory_name_must_be_a_file_name_token(self, runner, tmp_path, name):
        flows = tmp_path / "flows.csv"
        flows.write_text("target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us\n"
                         "203.0.113.7,17,123,20,2000000000.000000,0,1000000\n")
        cfg = tmp_path / "sub" / "pipeline.json"
        cfg.parent.mkdir()
        cfg.write_text(json.dumps({
            "out_dir": "out",
            "observatories": [{"name": name, "type": "flow", "inputs": [str(flows)]}],
            "analysis": {"normalize": False, "ewma_span": None},
        }))
        result = runner.invoke(main, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert f"stage 'config': observatory name {name!r} does not match" in result.output
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["flows.csv", "pipeline.json", "sub"]

    def test_overlapping_alloc_blocks_name_the_file(self, runner, tmp_path):
        cfg_path = write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None)
        doc = json.loads(cfg_path.read_text())
        doc.update(aggregate=True, routed="routed.csv", alloc="alloc.csv")
        cfg_path.write_text(json.dumps(doc))
        (tmp_path / "routed.csv").write_text("prefix,asn\n203.0.113.0/24,64500\n")
        (tmp_path / "alloc.csv").write_text("prefix,registry\n10.0.0.0/8,RIPE\n10.1.0.0/16,ARIN\n")
        result = runner.invoke(main, ["pipeline", "--config", str(cfg_path)])
        assert result.exit_code == 3, result.output
        assert (f"stage 'aggregate': {tmp_path / 'alloc.csv'}: allocation blocks overlap: "
                "10.0.0.0/8 and 10.1.0.0/16") in result.output

    @pytest.mark.parametrize("with_scenario", [True, False], ids=["scenario", "inputs"])
    @pytest.mark.parametrize("preset, message", [
        (None, "honeypot 'hop' needs a preset"),
        ("bogus", "honeypot 'hop': unknown honeypot preset 'bogus'"),
    ], ids=["missing", "unknown"])
    def test_honeypot_preset_errors(self, runner, tmp_path, with_scenario, preset, message):
        hop = {"name": "hop", "type": "honeypot", "preset": preset}
        doc = {"out_dir": str(tmp_path / "out"), "observatories": [hop]}
        if with_scenario:
            doc["scenario"] = str(tmp_path / "scenario.json")
            (tmp_path / "scenario.json").write_text(json.dumps(build_scenario(weeks=1)))
        else:
            hop["inputs"] = [str(tmp_path / "honeypot.csv")]
            (tmp_path / "honeypot.csv").write_text(
                "ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags\n")
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert f"stage 'config': {message}" in result.output

    def test_newkid_prefix_events_give_host_targets(self, runner, tmp_path):
        # two weeks of /24 multi-protocol attacks, each from three hosts
        rows = ["ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags"]
        for week in range(2):
            base = (FIRST_MONDAY + week * 7 * 86_400) * US_PER_S
            for i in range(10):
                host = ("203.0.113.5", "203.0.113.77", "203.0.113.200")[i % 3]
                rows.append(f"{base + i * US_PER_S},17,{host},5353,198.51.100.1,"
                            f"{(19, 123)[i % 2]},60,")
        packets = tmp_path / "honeypot.csv"
        packets.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({
            "out_dir": str(tmp_path / "out"),
            "observatories": [{"name": "nk", "type": "honeypot", "preset": "newkid",
                               "inputs": [str(packets)]}],
            "analysis": {"normalize": False, "ewma_span": None},
        }))
        invoke(runner, ["pipeline", "--config", str(cfg)])
        out = tmp_path / "out"
        assert [e.target for e in read_attacks(out / "attacks_nk.csv")] == ["203.0.113.0/24"] * 2
        hosts = {"203.0.113.5", "203.0.113.77", "203.0.113.200"}
        assert set(keys_to_tuples(read_targets(out / "targets" / "nk.csv"))) == {
            (d, ip) for d in (date(1970, 1, 5), date(1970, 1, 12)) for ip in hosts
        }

    def test_missing_routed_table_with_aggregation(self, runner, tmp_path):
        cfg_path = write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None)
        doc = json.loads(cfg_path.read_text())
        doc["aggregate"] = True
        cfg_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["pipeline", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert "routed" in result.output

    def test_failure_removes_partial_outputs(self, runner, tmp_path):
        # confirm is the last stage, so every other output is written first
        hashes = tmp_path / "hashes.txt"
        hashes.write_text("not a digest\n")
        cfg_path = write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None)
        doc = json.loads(cfg_path.read_text())
        doc["analysis"]["confirm"] = {"external": "hashes.txt", "salt": "1f2e"}
        cfg_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["pipeline", "--config", str(cfg_path)])
        assert result.exit_code == 3
        assert "stage 'confirm'" in result.output
        out = tmp_path / "out"
        assert not out.exists() and hidden_siblings(out) == []

    def test_timestamp_past_9999_is_a_data_error(self, runner, tmp_path):
        cfg_path = write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None)
        doc = json.loads(cfg_path.read_text())
        (tmp_path / "flows.csv").write_text(
            "target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us\n"
            "203.0.113.11,6,0,20,200000000,999999999999999999,999999999999999999\n")
        doc["observatories"][2]["inputs"] = ["flows.csv"]
        cfg_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["pipeline", "--config", str(cfg_path)])
        assert result.exit_code == 3, result.output
        assert re.search(r"stage 'detect': \S*flows\.csv:2: start_ts_us above 253402300799999999$",
                         result.output.strip()), result.output

    def test_short_data_skips_trends_and_keeps_detections(self, runner, tmp_path):
        cfg_path = write_pipeline_fixture(tmp_path, weeks=2, normalize=True, ewma_span=None)
        # 2 weeks cannot satisfy the 15-week normalization baseline
        invoke(runner, ["pipeline", "--config", str(cfg_path)])
        out = tmp_path / "out"
        trends = json.loads((out / "trends.json").read_text())
        assert trends == {
            label: {"skipped": "series has 2 non-null values; need 15 for the baseline"}
            for label in ("hop:RA", "ixp:DP", "ixp:RA", "scope:RSDoS")
        }
        assert not (out / "series").exists()
        assert json.loads((out / "correlations.json").read_text()) == []
        for name in ("scope", "hop", "ixp"):
            assert read_attacks(out / f"attacks_{name}.csv")
            assert len(read_targets(out / "targets" / f"{name}.csv"))
        assert "trends.json" in json.loads((out / "manifest.json").read_text())["files"]

    def test_readme_pipeline_example(self, runner, tmp_path):
        # the scenario and pipeline config of README.md, as written there
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        scenario, config = (json.loads(b) for b in blocks)
        assert scenario["duration_s"] == 3600
        (tmp_path / config["scenario"]).write_text(json.dumps(scenario))
        (tmp_path / config["routed"]).write_text("prefix,asn\n203.0.113.0/24,64500\n")
        (tmp_path / config["alloc"]).write_text("prefix,registry\n203.0.0.0/16,ARIN\n")
        (tmp_path / config["analysis"]["confirm"]["external"]).write_text(
            hash_targets(tuples_to_keys({TargetTuple(date(1970, 1, 1), "203.0.113.7")}), "1f2e").pop() + "\n"
        )
        (tmp_path / "pipeline.json").write_text(json.dumps(config))
        invoke(runner, ["pipeline", "--config", str(tmp_path / "pipeline.json")])
        out = tmp_path / config["out_dir"]
        scope = read_attacks(out / "attacks_scope.csv")
        assert [e.target for e in scope] == ["203.0.113.7/32"]
        assert [e.target for e in read_attacks(out / "attacks_hop.csv")] == ["203.0.113.9/32"]
        assert {"scope.csv", "hop.csv", "ixp.csv"} <= {p.name for p in (out / "targets").iterdir()}
        # one hour of data is too short for any trend, so each is skipped
        trends = json.loads((out / "trends.json").read_text())
        assert trends and all(set(v) == {"skipped"} for v in trends.values())
        assert json.loads((out / "confirm.json").read_text())["external_digests"] == 1
        # pinned: a change that moves the hash of a config that still runs must change this value
        assert json.loads((out / "manifest.json").read_text())["config_sha256"] == (
            "203d486d4c7c696630ea811d2d81e6d9b1eec4acb2f3df334097e91169831e9d")

    def test_readme_config_tables_match_the_schema(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        text = readme[readme.index("## Pipeline config"):]
        tables = {}
        for name, rows in re.findall(r"^Section `([^`]+)`.*\n\n\| key \| JSON type \| default \|\n\|---\|---\|---\|\n"
                                     r"((?:\|.*\|\n)+)", text, re.M):
            cells = ([cell.strip().replace("`", "") for cell in row.strip("|").split("|")] for row in rows.splitlines())
            tables[name] = {key: (what, default) for key, what, default in cells}
        sections = {"pipeline": pipeline.PIPELINE, "analysis": pipeline.ANALYSIS, "analysis.confirm": pipeline.CONFIRM,
                    "observatories[i]": pipeline.OBSERVATORY, "telescope config": pipeline.TELESCOPE_CONFIG,
                    **pipeline.BY_TYPE}
        assert tables == {
            name: {key: (kind.what, "required" if default is REQUIRED else json.dumps(default))
                   for key, (kind, default) in section.items()}
            for name, section in sections.items()
        }

    def test_readme_and_cli_file_schemas_match_the_readers(self):
        headers = {"packets.csv": ioformats.PACKETS_HEADER, "attacks.csv": ioformats.ATTACKS_HEADER,
                   "flows.csv": ioformats.FLOWS_HEADER, "routed.csv": ioformats.ROUTED_HEADER,
                   "alloc.csv": ioformats.ALLOC_HEADER, "targets.csv": ioformats.TARGETS_HEADER}
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        formats = readme[readme.index("## File formats"):].split("\n## ")[0]
        assert dict(re.findall(r"^\| (\w+\.csv) \| `([^`]+)`", formats, re.M)) == headers
        schemas = ddoscope.cli.__doc__.split("File schemas")[1]
        assert dict(re.findall(r"(\w+\.csv) +(\S+)", schemas)) == headers

    def test_empty_detections_are_data(self, runner, tmp_path):
        (tmp_path / "packets.csv").write_text(
            "ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags\n")
        (tmp_path / "routed.csv").write_text("prefix,asn\n203.0.113.0/24,64500\n")
        (tmp_path / "alloc.csv").write_text("prefix,registry\n203.0.0.0/16,ARIN\n")
        (tmp_path / "hashes.txt").write_text("0" * 64 + "\n")
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({
            "out_dir": "out",
            "observatories": [
                {"name": "scope", "type": "telescope", "inputs": ["packets.csv"],
                 "config": {"n_addresses": 2 ** 22}},
                {"name": "hop", "type": "honeypot", "preset": "hopscotch", "inputs": ["packets.csv"]},
            ],
            "routed": "routed.csv", "alloc": "alloc.csv", "aggregate": True,
            "analysis": {"confirm": {"external": "hashes.txt", "salt": "1f2e"}},
        }))
        invoke(runner, ["pipeline", "--config", str(cfg)])
        out = tmp_path / "out"
        header = "observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors\n"
        for name in ("scope", "hop"):
            assert (out / f"attacks_{name}.csv").read_text() == header
            assert (out / f"attacks_{name}_agg.csv").read_text() == header
            assert (out / "targets" / f"{name}.csv").read_text() == "date,ip\n"
        assert json.loads((out / "trends.json").read_text()) == {}
        assert json.loads((out / "correlations.json").read_text()) == []
        assert json.loads((out / "upset.json").read_text()) == {
            "sets": {"hop": 0, "scope": 0}, "union": 0,
            "exclusive": {"hop": 0, "scope": 0, "hop&scope": 0}}
        assert json.loads((out / "confirm.json").read_text()) == {
            "external_digests": 1, "shares": {"hop": 0.0, "scope": 0.0, "hop&scope": 0.0}}
        assert not (out / "series").exists() and not (out / "overlap").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) | {"manifest.json"} == set(bundle_files(out))

    def test_synth_and_pipeline_reject_a_bad_spec_alike(self, runner, tmp_path):
        cfg = write_pipeline_fixture(tmp_path, weeks=1, normalize=False, ewma_span=None)
        doc = json.loads((tmp_path / "scenario.json").read_text())
        doc["duration_s"] = -5
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        expected = "error: stage 'synth': duration must be positive"
        for args in (["synth", "--spec", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "gen")],
                     ["pipeline", "--config", str(cfg)]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert result.output.strip() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.json", "scenario.json"]

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(concurency_gap=30), "pipeline: unknown config keys ['concurency_gap']"),
        (lambda doc: doc["analysis"].update(normalise=False), "analysis: unknown config keys ['normalise']"),
        (lambda doc: doc["analysis"].update(confirm={"external": "h.txt", "salt": "s", "pepper": "p"}),
         "analysis.confirm: unknown config keys ['pepper']"),
        (lambda doc: doc["observatories"][1].update(sensorcol="sensor"),
         "observatories[1]: unknown config keys ['sensorcol']"),
        (lambda doc: doc["observatories"][2].update(input="flows.csv"),
         "observatories[2]: unknown config keys ['input']"),
        (lambda doc: doc.update(analysis=[]), "analysis must be an object, not []"),
        (lambda doc: doc.update(aggregate="false"), "aggregate must be true or false, not 'false'"),
        (lambda doc: doc["analysis"].update(upset="no"), "upset must be true or false, not 'no'"),
        (lambda doc: doc["analysis"].update(normalize=1), "normalize must be true or false, not 1"),
        (lambda doc: doc["analysis"].update(overlap_timeseries=None),
         "overlap_timeseries must be true or false, not None"),
        (lambda doc: doc["observatories"][2].update(inputs="flows.csv"),
         "observatories[2]: inputs must be a list of strings, not 'flows.csv'"),
        (lambda doc: doc["observatories"][2].update(inputs=[["flows.csv"]]),
         "observatories[2]: inputs must be a list of strings, not [['flows.csv']]"),
        (lambda doc: doc.pop("out_dir"), "missing required key 'out_dir' (in the config, or from --out)"),
        (lambda doc: doc["observatories"][1].pop("name"), "observatories[1]: missing required key 'name'"),
        (lambda doc: doc["observatories"][0].pop("type"), "observatories[0]: missing required key 'type'"),
        (lambda doc: doc["observatories"][1].update(config={"n_addresses": 5}),
         "honeypot 'hop': unknown config keys ['config']"),
        (lambda doc: doc["observatories"][0].update(preset="amppot"), "telescope 'scope': unknown config keys ['preset']"),
        (lambda doc: doc["observatories"][0].update(merge_gap=5), "telescope 'scope': unknown config keys ['merge_gap']"),
        (lambda doc: doc["observatories"][2].update(sensor_col="x"), "flow 'ixp': unknown config keys ['sensor_col']"),
        (lambda doc: doc.update(min_targets=2.9), "pipeline: min_targets must be an integer of at least 2, not 2.9"),
        (lambda doc: doc.update(min_targets=True), "pipeline: min_targets must be an integer of at least 2, not True"),
        (lambda doc: doc.update(min_targets=1), "pipeline: min_targets must be an integer of at least 2, not 1"),
        (lambda doc: doc.update(concurrency_gap="60"),
         "pipeline: concurrency_gap must be a number of at least 0, not '60'"),
        (lambda doc: doc.update(concurrency_gap=-1), "pipeline: concurrency_gap must be a number of at least 0, not -1"),
        (lambda doc: doc.update(parallelism="2"), "pipeline: parallelism must be an integer of at least 1, not '2'"),
        (lambda doc: doc.update(parallelism=1.7), "pipeline: parallelism must be an integer of at least 1, not 1.7"),
        (lambda doc: doc.update(seed="7"), "pipeline: seed must be an integer, not '7'"),
        (lambda doc: doc["observatories"][1].update(merge_gap="5"),
         "honeypot 'hop': merge_gap must be a number of at least 0, not '5'"),
        (lambda doc: doc["observatories"][1].update(merge_gap=-1),
         "honeypot 'hop': merge_gap must be a number of at least 0, not -1"),
        (lambda doc: doc["analysis"].update(ewma_span="12"),
         "analysis: ewma_span must be a number of at least 1, or null, not '12'"),
        (lambda doc: doc["analysis"].update(ewma_span=0.5),
         "analysis: ewma_span must be a number of at least 1, or null, not 0.5"),
        (lambda doc: doc["analysis"].update(ewma_span=0),
         "analysis: ewma_span must be a number of at least 1, or null, not 0"),
        (lambda doc: doc["observatories"][2].update(ampl_ports="53"),
         "flow 'ixp': ampl_ports must be a list of integers from 0 to 65535, not '53'"),
        (lambda doc: doc["observatories"][2].update(ampl_ports=[70000]),
         "flow 'ixp': ampl_ports must be a list of integers from 0 to 65535, not [70000]"),
        (lambda doc: doc["observatories"][2].update(ampl_ports=[-1]),
         "flow 'ixp': ampl_ports must be a list of integers from 0 to 65535, not [-1]"),
        (lambda doc: doc["observatories"][1].update(sensor_col=3), "honeypot 'hop': sensor_col must be a string, not 3"),
        (lambda doc: doc.update(scenario=5), "pipeline: scenario must be a string, not 5"),
        (lambda doc: doc["observatories"][0].update(config={"n_addresses": 4194304.0}),
         "telescope 'scope': n_addresses must be an integer, not 4194304.0"),
        (lambda doc: doc["observatories"][0].update(config={"n_addresses": "5"}),
         "telescope 'scope': n_addresses must be an integer, not '5'"),
        (lambda doc: doc["analysis"].update(confirm=[]), "analysis.confirm must be an object, not []"),
        (lambda doc: doc.update(observatories=[]), "pipeline: observatories must be a non-empty list, not []"),
    ], ids=["top", "analysis", "confirm", "observatory", "input-alias", "analysis-type", "aggregate",
            "upset", "normalize", "overlap_timeseries", "inputs-string", "inputs-nested", "no-out_dir",
            "no-name", "no-type", "honeypot-config", "telescope-preset", "telescope-merge_gap", "flow-sensor_col",
            "min_targets-float", "min_targets-bool", "min_targets-one", "concurrency_gap-string", "concurrency_gap-negative",
            "parallelism-string", "parallelism-float", "seed-string", "merge_gap-string", "merge_gap-negative",
            "ewma_span-string", "ewma_span-half", "ewma_span-zero", "ampl_ports-string", "ampl_ports-high",
            "ampl_ports-negative", "sensor_col-int", "scenario-int", "n_addresses-float", "n_addresses-string",
            "confirm-list", "no-observatories"])
    def test_config_fields_that_would_not_take_effect_are_rejected(self, runner, tmp_path, edit, message):
        cfg = write_pipeline_fixture(tmp_path, weeks=1, normalize=False, ewma_span=None)
        doc = json.loads(cfg.read_text())
        edit(doc)
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output.strip() == f"error: stage 'config': {message}"
        assert not (tmp_path / "out").exists()

    def test_overrides_are_read_as_their_keys(self, runner, tmp_path):
        cfg = write_pipeline_fixture(tmp_path, weeks=1, normalize=False, ewma_span=None)
        result = runner.invoke(main, ["pipeline", "--config", str(cfg), "--parallelism", "0"])
        assert result.exit_code == 2, result.output
        assert result.output.strip() == ("error: stage 'config': overrides: parallelism must be an integer "
                                         "of at least 1, not 0")
        assert not (tmp_path / "out").exists()

    def test_out_supplies_a_missing_out_dir(self, runner, tmp_path):
        cfg = write_pipeline_fixture(tmp_path, weeks=1, normalize=False, ewma_span=None)
        doc = json.loads(cfg.read_text())
        del doc["out_dir"]
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "elsewhere"
        result = invoke(runner, ["pipeline", "--config", str(cfg), "--out", str(out)])
        assert result.output.strip() == str(out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) | {"manifest.json"} == set(bundle_files(out))
        assert not (tmp_path / "out").exists()


class TestManifestHash:
    """config_sha256 changes with every setting and input byte that shapes
    the bundle, and with nothing else."""

    FLOWS = ("target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us\n"
             f"203.0.113.11,6,0,20,200000000,{FIRST_MONDAY * US_PER_S},"
             f"{(FIRST_MONDAY + 300) * US_PER_S}\n")

    def run(self, runner, root, edit=None, flows=FLOWS):
        cfg_path = write_pipeline_fixture(root, weeks=2, normalize=False, ewma_span=None)
        doc = json.loads(cfg_path.read_text())
        # the flow observatory reads a hand-written file, not synth's
        (root / "flows.csv").write_text(flows)
        doc["observatories"][2]["inputs"] = ["flows.csv"]
        if edit:
            edit(doc)
        cfg_path.write_text(json.dumps(doc))
        invoke(runner, ["pipeline", "--config", str(cfg_path)])
        out = root / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}
        return manifest["config_sha256"], files

    def test_identical_runs_hash_equal(self, runner, tmp_path):
        first, files = self.run(runner, tmp_path / "a")
        assert self.run(runner, tmp_path / "b") == (first, files)

    def test_one_input_byte_changes_hash(self, runner, tmp_path):
        first, files = self.run(runner, tmp_path / "a")
        # 200000000 -> 200000001 bps is still DP: every output but the hash stays
        edited = self.FLOWS.replace(",200000000,", ",200000001,")
        assert edited != self.FLOWS
        second, edited_files = self.run(runner, tmp_path / "b", flows=edited)
        assert second != first
        assert edited_files == files

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["observatories"][0].update(config={"pkt_threshold": 400}),
        lambda doc: doc["observatories"][1].update(merge_gap=1800),
        lambda doc: doc["observatories"][2].update(ampl_ports=[123]),
        lambda doc: doc.update(min_targets=3),
    ], ids=["pkt_threshold", "merge_gap", "ampl_ports", "min_targets"])
    def test_setting_changes_hash(self, runner, tmp_path, edit):
        first, _ = self.run(runner, tmp_path / "a")
        second, _ = self.run(runner, tmp_path / "b", edit)
        assert second != first

    @pytest.mark.parametrize("normalize, ewma_span, digest", [
        (True, 12, "c0617001910d2a867e576bf0c9a778058e59fb35d744b94c2d635fe740bdd24e"),
        (False, None, "358c6dc364d35296202b5795c4d5dae553515c9b3cad18e2155219dba6f3ef60"),
    ], ids=["normalized", "raw"])
    def test_fixture_hashes_are_pinned(self, runner, tmp_path, normalize, ewma_span, digest):
        # a change that moves the hash of a config that still runs must change these values
        cfg = write_pipeline_fixture(tmp_path, weeks=3, normalize=normalize, ewma_span=ewma_span)
        invoke(runner, ["pipeline", "--config", str(cfg)])
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config_sha256"] == digest

    def test_each_input_file_is_hashed_once(self, tmp_path, monkeypatch):
        for name in ("shared.csv", "own.csv"):
            (tmp_path / name).write_text(ioformats.PACKETS_HEADER + "\n")
        (tmp_path / "sub").mkdir()
        cfg_path = tmp_path / "pipeline.json"
        cfg_path.write_text(json.dumps({"out_dir": "out", "observatories": [
            {"name": "hop", "type": "honeypot", "preset": "hopscotch", "inputs": ["shared.csv", "own.csv"]},
            {"name": "amp", "type": "honeypot", "preset": "amppot", "inputs": ["sub/../shared.csv"]},
        ]}))
        cfg = pipeline.PipelineConfig.load(cfg_path)
        hashed, real = [], pipeline._sha256
        monkeypatch.setattr(pipeline, "_sha256", lambda path: hashed.append(Path(path).resolve()) or real(path))
        pipeline._config_digest(cfg)
        assert sorted(hashed) == sorted(tmp_path.resolve() / name for name in ("shared.csv", "own.csv"))


def bundle_files(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def hidden_siblings(out: Path) -> list:
    """Staging directories of `out` left next to it."""
    return sorted(p.name for p in out.parent.glob(f".{out.name}.*"))


@pytest.fixture
def parses(monkeypatch):
    """The name of each file the pipeline parses as packets.csv."""
    calls = []
    real = pipeline.read_packets

    def counting(path, sensor_col=None):
        calls.append(Path(path).name)
        return real(path, sensor_col=sensor_col)

    monkeypatch.setattr(pipeline, "read_packets", counting)
    return calls


class TestParseOnce:
    """Each packet file is parsed at most once per run, and never when synth
    wrote it in the same run; outputs do not depend on how often it is."""

    def run(self, runner, root, observatories):
        root.mkdir(parents=True, exist_ok=True)
        cfg = root / "pipeline.json"
        cfg.write_text(json.dumps({"out_dir": "out", "observatories": observatories}))
        invoke(runner, ["pipeline", "--config", str(cfg)])
        return bundle_files(root / "out")

    def test_scenario_run_parses_no_packets(self, runner, tmp_path, parses):
        cfg = write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None)
        invoke(runner, ["pipeline", "--config", str(cfg)])
        assert parses == []

    def test_observatories_sharing_a_glob_parse_each_file_once(self, runner, generated, tmp_path, parses):
        shared = str(generated / "honeypot_*.csv")
        self.run(runner, tmp_path / "run", [
            {"name": "hop", "type": "honeypot", "preset": "hopscotch", "inputs": [shared]},
            {"name": "amp", "type": "honeypot", "preset": "amppot", "inputs": [shared]},
        ])
        assert parses == sorted(p.name for p in generated.glob("honeypot_*.csv"))

    def test_shared_files_give_the_bundle_of_copies(self, runner, generated, tmp_path, parses):
        copies = tmp_path / "copies"
        copies.mkdir()
        for p in generated.glob("honeypot_*.csv"):
            (copies / p.name).write_bytes(p.read_bytes())

        def observatories(amp_dir):
            return [{"name": "hop", "type": "honeypot", "preset": "hopscotch",
                     "inputs": [str(generated / "honeypot_*.csv")]},
                    {"name": "amp", "type": "honeypot", "preset": "amppot",
                     "inputs": [str(amp_dir / "honeypot_*.csv")]}]

        shared = self.run(runner, tmp_path / "shared", observatories(generated))
        n_files = len(parses)
        apart = self.run(runner, tmp_path / "apart", observatories(copies))
        assert len(parses) == 3 * n_files
        assert "manifest.json" in shared and shared == apart

    def test_scenario_run_equals_its_inputs_given_explicitly(self, runner, tmp_path, parses):
        cfg = write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None)
        invoke(runner, ["pipeline", "--config", str(cfg)])
        inputs = tmp_path / "out" / "inputs"
        explicit = self.run(runner, tmp_path / "explicit", [
            {"name": "scope", "type": "telescope", "config": {"n_addresses": 2 ** 22},
             "inputs": [str(inputs / "telescope.csv")]},
            {"name": "hop", "type": "honeypot", "preset": "hopscotch",
             "inputs": [str(inputs / "honeypot_*.csv")]},
            {"name": "ixp", "type": "flow", "inputs": [str(inputs / "flows.csv")]},
        ])
        assert len(parses) == 1 + len(list(inputs.glob("honeypot_*.csv")))
        scenario = bundle_files(tmp_path / "out")
        attacks = [name for name in scenario if name.startswith("attacks_")]
        assert len(attacks) == 3
        assert {name: explicit[name] for name in attacks} == {name: scenario[name] for name in attacks}

    @pytest.mark.parametrize("name, overlapping", [
        ("scope", ["telescope.csv", "telescope*.csv"]),
        ("hop", ["honeypot_*.csv", "honeypot_198.51.100.1.csv"]),
    ])
    def test_overlapping_patterns_read_each_file_once(self, runner, generated, tmp_path, parses,
                                                      name, overlapping):
        def observatories(patterns):
            inputs = {"scope": ["telescope.csv"], "hop": ["honeypot_*.csv"], name: patterns}
            return [
                {"name": "scope", "type": "telescope", "config": {"n_addresses": 2 ** 22},
                 "inputs": [str(generated / p) for p in inputs["scope"]]},
                {"name": "hop", "type": "honeypot", "preset": "hopscotch",
                 "inputs": [str(generated / p) for p in inputs["hop"]]},
            ]

        once = self.run(runner, tmp_path / "once", observatories(overlapping[:1]))
        assert self.run(runner, tmp_path / "twice", observatories(overlapping)) == once
        assert len(parses) == 2 * len(set(parses))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["attacks"][0].update(packet_bytes=10 ** 9),
         "packet_bytes 1000000000 above 999999999"),
        (lambda doc: (doc.update(duration_s=3e11), doc["attacks"][0].update(start_s=2.6e11)),
         "duration_s 3e+11 ends the scenario past 9999-12-31T23:59:59"),
        (lambda doc: doc["attacks"][0].update(victim="172.16.0.0/016"),
         "bad prefix length in '172.16.0.0/016'"),
    ], ids=["packet_bytes", "duration_s", "victim"])
    def test_spec_packets_csv_cannot_hold_is_a_synth_error(self, runner, tmp_path, edit, message):
        cfg = write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None)
        doc = json.loads((tmp_path / "scenario.json").read_text())
        edit(doc)
        (tmp_path / "scenario.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["pipeline", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert result.output.strip() == f"error: stage 'synth': {message}"
        assert not any((tmp_path / "out").rglob("*.csv"))


class TestBundleGuarantee:
    """A bundle is complete or absent: a run replaces an earlier bundle only
    when it succeeds, the manifest lists every file of the bundle, and no
    staging directory outlives the run."""

    def test_failed_rerun_leaves_the_earlier_bundle(self, runner, tmp_path):
        cfg_path = write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None)
        invoke(runner, ["pipeline", "--config", str(cfg_path)])
        out = tmp_path / "out"
        before = bundle_files(out)
        # confirm is the last stage, so every other output is written first
        (tmp_path / "hashes.txt").write_text("not a digest\n")
        doc = json.loads(cfg_path.read_text())
        doc["analysis"]["confirm"] = {"external": "hashes.txt", "salt": "1f2e"}
        cfg_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["pipeline", "--config", str(cfg_path)])
        assert result.exit_code == 3, result.output
        assert "stage 'confirm'" in result.output
        assert "manifest.json" in before and bundle_files(out) == before
        assert hidden_siblings(out) == []

    def test_rerun_drops_files_the_manifest_does_not_list(self, runner, tmp_path):
        cfg_path = write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None)
        invoke(runner, ["pipeline", "--config", str(cfg_path)])
        out = tmp_path / "out"
        first = bundle_files(out)
        (out / "stray.txt").write_text("left over\n")
        (out / "series").mkdir(exist_ok=True)
        (out / "series" / "gone_RA.json").write_text("{}\n")
        invoke(runner, ["pipeline", "--config", str(cfg_path)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(bundle_files(out)) == set(manifest["files"]) | {"manifest.json"}
        assert bundle_files(out) == first
        assert hidden_siblings(out) == []

    @pytest.mark.parametrize("out_dir", ["out", ".", "out/..", "pipeline.json"])
    def test_out_dir_that_is_not_a_bundle_is_left_alone(self, runner, tmp_path, out_dir):
        cfg_path = write_pipeline_fixture(tmp_path, weeks=1, normalize=False, ewma_span=None)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "notes.txt").write_text("mine\n")
        doc = json.loads(cfg_path.read_text())
        doc["out_dir"] = out_dir
        cfg_path.write_text(json.dumps(doc))
        before = bundle_files(tmp_path)
        result = runner.invoke(main, ["pipeline", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "stage 'config': out_dir" in result.output
        assert bundle_files(tmp_path) == before
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_an_empty_out_dir_is_filled(self, runner, tmp_path):
        cfg_path = write_pipeline_fixture(tmp_path, weeks=1, normalize=False, ewma_span=None)
        (tmp_path / "out").mkdir()
        invoke(runner, ["pipeline", "--config", str(cfg_path)])
        assert (tmp_path / "out" / "manifest.json").is_file()

    def test_two_runs_of_one_config_give_one_bundle(self, tmp_path):
        cfg = pipeline.PipelineConfig.load(
            write_pipeline_fixture(tmp_path, weeks=2, normalize=False, ewma_span=None))
        given = copy.deepcopy(cfg)
        out = pipeline.run_pipeline(cfg)
        assert cfg == given
        first = bundle_files(out)
        assert pipeline.run_pipeline(cfg) == out
        assert cfg == given
        assert bundle_files(out) == first
        assert hidden_siblings(out) == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
class TestBlasThreads:
    @staticmethod
    def import_cli(blas_threads=None) -> list[str]:
        """The thread count and OPENBLAS_NUM_THREADS of a fresh process after `import ddoscope.cli`."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        env["PYTHONPATH"] = os.pathsep.join([str(Path(ddoscope.__file__).parents[1]), env.get("PYTHONPATH", "")])
        code = "import os, ddoscope.cli; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_cli_starts_no_blas_pool(self):
        assert self.import_cli() == ["1", "1"]

    def test_caller_setting_wins(self):
        assert self.import_cli("3")[1] == "3"
