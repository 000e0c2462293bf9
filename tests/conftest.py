import json
import os
import random
from pathlib import Path
from typing import Optional

import ddoscope
from ddoscope.model import US_PER_S, PrefixTable, format_prefix, parse_prefix

from oracles import PacketRecord


def child_env(env: Optional[dict] = None) -> dict:
    """A copy of `env`, os.environ by default, with the directory this ddoscope is
    imported from first on PYTHONPATH, so a child Python process imports the same one."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(ddoscope.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def prefix_table(rows) -> PrefixTable:
    """The PrefixTable of ("a.b.c.d/len", value) rows."""
    return PrefixTable.from_rows([(*parse_prefix(prefix), value) for prefix, value in rows])


def table_rows(table: PrefixTable) -> list:
    """The ("a.b.c.d/len", value) rows of a PrefixTable."""
    net, plen, value = (col.tolist() for col in table.columns())
    return [(format_prefix(*prefix), v) for *prefix, v in zip(net, plen, value)]

# Scenario used by the CLI and acceptance pipeline tests: a multi-week,
# multi-observatory schedule with per-week attack counts that vary
# deterministically, so weekly series are non-constant and normalizable.

DAY = 86_400
WEEK = 7 * DAY
FIRST_MONDAY = 4 * DAY  # 1970-01-05


def telescope_pkt(ts_s, src="198.51.100.7", proto=6, flags="SA"):
    sport, dport = (80, 4321) if proto in (6, 17) else (0, 0)
    return PacketRecord(
        ts=int(round(ts_s * US_PER_S)), protocol=proto, src_ip=src,
        src_port=sport, dst_ip="10.0.0.1", dst_port=dport,
        len_bytes=110, tcp_flags=flags if proto == 6 else "",
    )


def make_telescope_trace(seed, max_pkts=400):
    """Random telescope trace: a few flows mixing bursts and trickles, with
    threshold-straddling counts, durations, and window rates. Large budgets
    yield proportionally heavier flows."""
    rng = random.Random(seed)
    packets = []
    n_flows = rng.randint(0, 6) if max_pkts <= 1000 else rng.randint(4, 12)
    for _ in range(n_flows):
        src = f"198.51.{rng.randint(0, 3)}.{rng.randint(1, 9)}"
        proto = rng.choice([1, 6, 6, 17])
        t = rng.uniform(0, 900)
        style = rng.random()
        n = min(rng.choice([5, 24, 25, 26, 30, 31, 60,
                            rng.randint(1, max(120, max_pkts // 3))]),
                max_pkts - len(packets))
        for _ in range(max(0, n)):
            packets.append(telescope_pkt(t, src=src, proto=proto))
            if style < 0.4:
                t += rng.uniform(0.1, 2.0)        # burst: can trip the rate window
            elif style < 0.8:
                t += rng.uniform(1.0, 30.0)       # trickle
            else:
                t += rng.choice([0.0, 2.5, 10.0, 61.0, 299.0, 301.0, 599.0, 601.0])
    packets.sort(key=lambda p: p.ts)
    return packets


def build_scenario(weeks: int, seed: int = 20_240_101) -> dict:
    attacks = []
    for w in range(weeks):
        base = FIRST_MONDAY + w * WEEK
        for k in range(1 + (w * 3) % 4):  # randomly-spoofed floods: 1..4 per week
            attacks.append({
                "type": "rsdos",
                "victim": f"203.0.113.{1 + w * 5 + k}",
                "start_s": base + 120 + k * 3600,
                "duration_s": 300,
                "rate_pps": 3000,
            })
        for k in range(1 + (w * 2) % 3):  # reflection: 1..3 per week, 200 pkts/sensor
            attacks.append({
                "type": "reflection",
                "victim": f"203.0.114.{1 + w * 5 + k}",
                "start_s": base + 43_200 + k * 7200,
                "duration_s": 600,
                "rate_pps": 5 / 3,
                "reflector_subset": 5,
            })
        if w % 2 == 0:  # big amplified attack, visible in flow data
            attacks.append({
                "type": "reflection",
                "victim": f"203.0.115.{1 + w}",
                "start_s": base + 90_000,
                "duration_s": 300,
                "rate_pps": 20,
                "packet_bytes": 500,
                "reflector_subset": 10,
                "amplification": 13_000.0,
            })
        for k in range(1 + w % 2):  # non-spoofed direct-path: flows only
            attacks.append({
                "type": "direct_nonspoofed",
                "victim": f"203.0.116.{1 + w * 3 + k}",
                "start_s": base + 100_000 + k * 3600,
                "duration_s": 300,
                "rate_pps": 150_000,
                "packet_bytes": 1000,
            })
    return {
        "seed": seed,
        "duration_s": FIRST_MONDAY + weeks * WEEK,
        "telescope": {"n_addresses": 2 ** 22},
        "honeypot_sensors": [f"198.51.100.{i}" for i in range(1, 13)],
        "attacks": attacks,
    }


def build_pipeline_config(scenario_rel: str, out_rel: str, *, normalize: bool,
                          ewma_span, parallelism: int = 1) -> dict:
    return {
        "scenario": scenario_rel,
        "out_dir": out_rel,
        "parallelism": parallelism,
        "observatories": [
            {"name": "scope", "type": "telescope"},
            {"name": "hop", "type": "honeypot", "preset": "hopscotch"},
            {"name": "ixp", "type": "flow"},
        ],
        "analysis": {
            "normalize": normalize,
            "ewma_span": ewma_span,
            "correlation": "spearman",
            "upset": True,
            "overlap_timeseries": True,
            "target_mode": "start_date",
        },
    }


def write_pipeline_fixture(root: Path, weeks: int, *, normalize: bool,
                           ewma_span, out_rel: str = "out",
                           parallelism: int = 1) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    (root / "scenario.json").write_text(json.dumps(build_scenario(weeks)))
    cfg = build_pipeline_config("scenario.json", out_rel,
                                normalize=normalize, ewma_span=ewma_span,
                                parallelism=parallelism)
    path = root / "pipeline.json"
    path.write_text(json.dumps(cfg))
    return path
