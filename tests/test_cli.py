import json
import re
from datetime import date
from pathlib import Path

import pytest
from click.testing import CliRunner

from ddoscope.cli import main
from ddoscope.model import US_PER_S, TargetTuple
from ddoscope.overlap import hash_targets
from ddoscope.ioformats import read_attacks, read_targets

from conftest import FIRST_MONDAY, build_scenario, write_pipeline_fixture


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
        assert result.exit_code == 3

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
        ({"n_addresses": "many"}, "'<=' not supported between instances of 'int' and 'str'"),
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
        assert read_targets(out / "targets" / "nk.csv") == {
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
        assert not any(out.rglob("*.csv"))
        assert not any(out.rglob("*.json"))

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
            assert read_targets(out / "targets" / f"{name}.csv")
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
            hash_targets({TargetTuple(date(1970, 1, 1), "203.0.113.7")}, "1f2e").pop() + "\n"
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
