"""Run the ddoscope CLI with spans around each layer's public functions.

Usage: python3 bench/traced.py SPANS_JSON ddoscope-args...

Spans wrap the names `ddoscope.pipeline` imports the layer functions by
(and `ddoscope.cli.run_pipeline` for the root), so the real orchestration
is what gets traced. A name that no longer exists is reported as missing
instead of failing the run. Spans stay in memory and are written to
SPANS_JSON when the CLI returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name). `model` and `stats` helpers are leaf
# calls made millions of times; they are measured inside their callers.
WRAPPED = [
    ("ddoscope.cli", "run_pipeline", "pipeline.total"),
    ("ddoscope.pipeline", "generate", "synth.generate"),
    ("ddoscope.pipeline", "write_scenario", "synth.write"),
    ("ddoscope.pipeline", "read_packets", "ioformats.read_packets"),
    ("ddoscope.pipeline", "read_flows", "ioformats.read_flows"),
    ("ddoscope.pipeline", "write_attacks", "ioformats.write"),
    ("ddoscope.pipeline", "write_series", "ioformats.write"),
    ("ddoscope.pipeline", "write_targets", "ioformats.write"),
    ("ddoscope.pipeline", "write_json", "ioformats.write"),
    ("ddoscope.pipeline", "backscatter_prefilter", "telescope.prefilter"),
    ("ddoscope.pipeline", "detect_rsdos", "telescope.detect"),
    ("ddoscope.pipeline", "detect_honeypot", "honeypot.detect"),
    ("ddoscope.pipeline", "aggregate_sensors", "honeypot.aggregate"),
    ("ddoscope.pipeline", "classify_flow", "flowclass.classify"),
    ("ddoscope.pipeline", "aggregate_carpet", "carpet.aggregate"),
    ("ddoscope.pipeline", "weekly_counts", "trends.series"),
    ("ddoscope.pipeline", "normalize", "trends.series"),
    ("ddoscope.pipeline", "ewma", "trends.series"),
    ("ddoscope.pipeline", "linreg_trend", "trends.series"),
    ("ddoscope.pipeline", "spearman", "trends.correlate"),
    ("ddoscope.pipeline", "pearson", "trends.correlate"),
    ("ddoscope.pipeline", "build_targets", "overlap.build_targets"),
    ("ddoscope.pipeline", "upset_exclusive", "overlap.upset"),
    ("ddoscope.pipeline", "overlap_timeseries", "overlap.timeseries"),
    ("ddoscope.pipeline", "federated_confirm", "overlap.confirm"),
]


def _size(value):
    """len() of a sized value, else None; never consumes an iterator."""
    try:
        return len(value)
    except TypeError:
        return None


def _synth_packets(out):
    try:
        return len(out.telescope_packets) + sum(len(p) for p in out.honeypot_packets.values())
    except (AttributeError, TypeError):
        return None


def _wrap(fn, span: str, attr: str, spans: list):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        n_out = _synth_packets(out) if attr == "generate" else _size(out)
        if n_out is None and attr == "classify_flow":
            n_out = 0 if out is None else 1
        spans.append({
            "name": span, "fn": attr, "t0": t0, "t1": t1,
            "n_in": _size(args[0]) if args else None,
            "n_out": n_out,
        })
        return out
    return traced


def install(spans: list) -> list[str]:
    """Wrap every listed function that exists; return the missing ones."""
    missing = []
    for module, attr, span in WRAPPED:
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
            continue
        setattr(mod, attr, _wrap(fn, span, attr, spans))
    return missing


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    spans: list = []
    missing = install(spans)
    from ddoscope.cli import main as cli_main

    try:
        cli_main(args=cli_args, prog_name="ddoscope")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": spans, "missing": missing}, fh)
    return code



# -- per-layer metrics, computed in the benchmark process -----------------------

PER_LAYER = [
    ("synth.generate_s", "s"), ("synth.write_s", "s"), ("synth.packets_out", "count"),
    ("ioformats.read_packets_s", "s"), ("ioformats.rows_read", "count"),
    ("ioformats.read_rows_per_s", "1/s"), ("ioformats.read_flows_s", "s"),
    ("ioformats.write_s", "s"),
    ("telescope.prefilter_s", "s"), ("telescope.prefilter_kept_ratio", "ratio"),
    ("telescope.detect_s", "s"), ("telescope.packets_in", "count"),
    ("telescope.events_out", "count"),
    ("honeypot.detect_s", "s"), ("honeypot.aggregate_s", "s"), ("honeypot.packets_in", "count"),
    ("honeypot.events_raw", "count"), ("honeypot.events_out", "count"),
    ("flowclass.classify_s", "s"), ("flowclass.flows_in", "count"),
    ("flowclass.events_out", "count"),
    ("carpet.aggregate_s", "s"), ("carpet.events_in", "count"), ("carpet.events_out", "count"),
    ("trends.series_s", "s"), ("trends.correlate_s", "s"), ("trends.series", "count"),
    ("trends.pairs", "count"),
    ("overlap.build_targets_s", "s"), ("overlap.upset_s", "s"), ("overlap.timeseries_s", "s"),
    ("overlap.confirm_s", "s"), ("overlap.tuples", "count"),
    ("pipeline.total_s", "s"), ("pipeline.self_s", "s"), ("trace.overhead_s", "s"),
]


def layer_metrics(doc: dict) -> dict:
    """Per-layer values of one traced run; None marks a layer whose wrapped
    function no longer exists. trace.overhead_s needs an untraced run and is
    filled in by the caller."""
    spans, missing = doc["spans"], set(doc["missing"])
    feeds: dict[str, set] = {}
    for module, attr, span in WRAPPED:
        feeds.setdefault(span, set()).add(f"{module}.{attr}")

    def pick(span, fn=None):
        return [s for s in spans if s["name"] == span and (fn is None or s["fn"] == fn)]

    def measured(span):
        return not feeds[span] & missing

    def secs(span):
        return sum(s["t1"] - s["t0"] for s in pick(span)) if measured(span) else None

    def total(span, key, fn=None):
        vals = [s[key] for s in pick(span, fn)]
        return None if not measured(span) or None in vals else sum(vals)

    def calls(span, fn=None):
        return len(pick(span, fn)) if measured(span) else None

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    m = {
        "synth.generate_s": secs("synth.generate"),
        "synth.write_s": secs("synth.write"),
        "synth.packets_out": total("synth.generate", "n_out"),
        "ioformats.read_packets_s": secs("ioformats.read_packets"),
        "ioformats.rows_read": total("ioformats.read_packets", "n_out"),
        "ioformats.read_flows_s": secs("ioformats.read_flows"),
        "ioformats.write_s": secs("ioformats.write"),
        "telescope.prefilter_s": secs("telescope.prefilter"),
        "telescope.prefilter_kept_ratio": ratio(total("telescope.prefilter", "n_out"),
                                                total("telescope.prefilter", "n_in")),
        "telescope.detect_s": secs("telescope.detect"),
        "telescope.packets_in": total("telescope.detect", "n_in"),
        "telescope.events_out": total("telescope.detect", "n_out"),
        "honeypot.detect_s": secs("honeypot.detect"),
        "honeypot.aggregate_s": secs("honeypot.aggregate"),
        "honeypot.packets_in": total("honeypot.detect", "n_in"),
        "honeypot.events_raw": total("honeypot.detect", "n_out"),
        "honeypot.events_out": total("honeypot.aggregate", "n_out"),
        "flowclass.classify_s": secs("flowclass.classify"),
        "flowclass.flows_in": calls("flowclass.classify"),
        "flowclass.events_out": total("flowclass.classify", "n_out"),
        "carpet.aggregate_s": secs("carpet.aggregate"),
        "carpet.events_in": total("carpet.aggregate", "n_in"),
        "carpet.events_out": total("carpet.aggregate", "n_out"),
        "trends.series_s": secs("trends.series"),
        "trends.correlate_s": secs("trends.correlate"),
        "trends.series": calls("trends.series", "weekly_counts"),
        "trends.pairs": calls("trends.correlate"),
        "overlap.build_targets_s": secs("overlap.build_targets"),
        "overlap.upset_s": secs("overlap.upset"),
        "overlap.timeseries_s": secs("overlap.timeseries"),
        "overlap.confirm_s": secs("overlap.confirm"),
        "overlap.tuples": total("overlap.build_targets", "n_out"),
        "pipeline.total_s": None,
        "pipeline.self_s": None,
        "trace.overhead_s": None,
    }
    m["ioformats.read_rows_per_s"] = ratio(m["ioformats.rows_read"], m["ioformats.read_packets_s"])
    roots = pick("pipeline.total")
    if measured("pipeline.total") and len(roots) == 1:
        t0, t1 = roots[0]["t0"], roots[0]["t1"]
        covered, reach = 0.0, t0
        for s in sorted((s for s in spans if s["name"] != "pipeline.total"), key=lambda s: s["t0"]):
            lo, hi = max(s["t0"], reach), min(s["t1"], t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        m["pipeline.total_s"] = t1 - t0
        m["pipeline.self_s"] = (t1 - t0) - covered
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
