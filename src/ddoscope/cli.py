"""ddoscope command line.

Subcommands: synth, detect (telescope|honeypot|flow), aggregate, trends,
correlate, overlap, confirm, pipeline. Exit codes: 0 success, 2 config
error, 3 data error, 4 internal invariant violation.

The commands call the pipeline's stage functions and read their options
as its config keys, so a step run on its own gives the same bytes as the
matching file of a pipeline bundle, and refuses what a config refuses.
`trends` spans its own events unless --start/--end give the span it prints.

No stage calls BLAS, so the CLI runs OpenBLAS with one thread unless
OPENBLAS_NUM_THREADS is already set.

File schemas (headers are exact):
  packets.csv  ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags
  attacks.csv  observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors
  flows.csv    target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us
  routed.csv   prefix,asn          alloc.csv  prefix,registry
  targets.csv  date,ip             hashed targets: one sha256 hex digest per line
  series.json  {"label", "start_week": "YYYY-MM-DD", "values": [number|null, ...]}
"""

from __future__ import annotations

import functools
import json
import os
import sys

# No stage calls BLAS: spare each process the idle OpenBLAS pool numpy would start on import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click
import numpy as np

from . import __version__
from .flowclass import AMPLIFICATION_PORTS
from .honeypot import PRESETS
from .ioformats import (
    TARGETS_HEADER,
    _lines,
    read_alloc_table,
    read_attacks,
    read_routed_table,
    read_series,
    read_targets,
    write_attacks,
    write_json,
    write_series,
    write_weekly_csv,
)
from .model import ATTACK_TYPES, type_code
from .overlap import (
    as_attribution,
    build_targets,
    new_vs_recurring,
    overlap_timeseries,
)
from .pipeline import (
    ANALYSIS,
    PIPELINE,
    PipelineConfig,
    PipelineError,
    aggregate_carpet,
    confirm_document,
    correlation_entry,
    detect_observatory,
    event_span,
    observatory_config,
    run_pipeline,
    synthesize,
    trend_series,
    upset_document,
)
from .schema import ConfigError, read
from .synth import write_scenario
from .trends import quarterly_correlations

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _guarded(fn):
    """Map failures onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except PipelineError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit({"config": EXIT_CONFIG, "data": EXIT_DATA}.get(exc.kind, EXIT_INTERNAL))
        except (ConfigError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except Exception as exc:  # invariant violation
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(EXIT_INTERNAL)

    return wrapper


def _emit(doc, out_path) -> None:
    """Write `doc` as JSON to `out_path`, or print it when no path is given."""
    if out_path:
        write_json(out_path, doc)
        click.echo(out_path)
    else:
        click.echo(json.dumps(doc, indent=2, sort_keys=True))


@click.group()
@click.version_option(__version__)
def main():
    """Multi-observatory DDoS measurement pipelines."""


# -- synth --------------------------------------------------------------------

@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True),
              help="Scenario JSON: seed, duration_s, telescope.n_addresses, "
                   "honeypot_sensors, attacks[].")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@_guarded
def synth(spec_path, out_dir, seed):
    """Generate a synthetic scenario with ground truth."""
    _, generated = synthesize(spec_path, seed)
    written = write_scenario(generated, out_dir)
    for p in written:
        click.echo(p)


# -- detect -------------------------------------------------------------------

@main.group()
def detect():
    """Infer attacks from observatory data."""


def _detect(doc: dict, out_path) -> None:
    events = detect_observatory(observatory_config(doc, "detect"))
    write_attacks(out_path, events)
    click.echo(f"{len(events)} attacks -> {out_path}")


@detect.command("telescope")
@click.option("--config", "config_file", type=click.File(), default=None,
              help="JSON with TelescopeConfig fields (n_addresses required).")
@click.option("--in", "inputs", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--observatory", default="telescope")
@_guarded
def detect_telescope_cmd(config_file, inputs, out_path, observatory):
    """RSDoS inference from telescope backscatter (packets.csv)."""
    _detect({"name": observatory, "type": "telescope", "inputs": list(inputs),
             "config": json.load(config_file) if config_file else {}}, out_path)


@detect.command("honeypot")
@click.option("--preset", "preset_name", required=True,
              type=click.Choice(sorted(PRESETS), case_sensitive=False))
@click.option("--in", "inputs", multiple=True, required=True, type=click.Path(exists=True),
              help="packets.csv, one file per sensor or combined.")
@click.option("--sensor-col", default=None,
              help="Extra column naming the sensor when dst_ip does not.")
@click.option("--merge-gap", type=float, default=None,
              help="Cross-sensor merge gap in seconds (default: preset timeout).")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--observatory", default=None, help="Defaults to the preset name.")
@_guarded
def detect_honeypot_cmd(preset_name, inputs, sensor_col, merge_gap, out_path, observatory):
    """Reflection-amplification inference from honeypot request logs.

    Per-sensor events are merged into per-attack events.
    """
    _detect({"name": observatory or preset_name, "type": "honeypot", "inputs": list(inputs),
             "preset": preset_name, "merge_gap": merge_gap, "sensor_col": sensor_col}, out_path)


@detect.command("flow")
@click.option("--in", "inputs", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--ampl-ports", default=None,
              help="Comma-separated amplification source ports "
                   f"(default {sorted(AMPLIFICATION_PORTS)}).")
@click.option("--observatory", default="flow")
@_guarded
def detect_flow_cmd(inputs, out_path, ampl_ports, observatory):
    """RA/DP classification of flow summaries (flows.csv)."""
    # a field that is no integer stays text, for the check of ampl_ports to name
    ports = [int(p) if p.strip().removeprefix("-").isdecimal() else p
             for p in ampl_ports.split(",")] if ampl_ports else None
    _detect({"name": observatory, "type": "flow", "inputs": list(inputs), "ampl_ports": ports}, out_path)


# -- aggregate ----------------------------------------------------------------

@main.command()
@click.option("--routed", required=True, type=click.Path(exists=True))
@click.option("--alloc", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--gap", type=float, default=60.0, help="Concurrency gap, seconds.")
@click.option("--min-targets", type=int, default=2, help="Distinct targets of a carpet, at least 2.")
@_guarded
def aggregate(routed, alloc, in_path, out_path, gap, min_targets):
    """Merge concurrent attacks into carpet-bombing prefix events."""
    given = read({"--gap": gap, "--min-targets": min_targets},
                 {"--gap": PIPELINE["concurrency_gap"], "--min-targets": PIPELINE["min_targets"]}, "aggregate")
    events = read_attacks(in_path)
    merged = aggregate_carpet(
        events, read_routed_table(routed), read_alloc_table(alloc),
        concurrency_gap=given["--gap"], min_targets=given["--min-targets"],
    )
    write_attacks(out_path, merged)
    click.echo(f"{len(events)} events -> {len(merged)} after aggregation -> {out_path}")


# -- trends -------------------------------------------------------------------

@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--observatory", default=None, help="Filter attacks.csv rows.")
@click.option("--attack-type", default=None, type=click.Choice(["RSDoS", "RA", "DP"]))
@click.option("--normalize", "do_normalize", is_flag=True,
              help="Divide by the median of the first 15 non-null weeks.")
@click.option("--ewma", "ewma_span", type=float, default=None,
              help="Smooth with the given span (at least 1) after normalization.")
@click.option("--start", type=click.DateTime(["%Y-%m-%d"]), default=None)
@click.option("--end", type=click.DateTime(["%Y-%m-%d"]), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--summary", is_flag=True, help="Print the series' trends.json entry.")
@_guarded
def trends(in_path, observatory, attack_type, do_normalize, ewma_span,
           start, end, out_path, summary):
    """Weekly attack-count series from attacks.csv over its events' span or --start/--end."""
    ewma_span = read({"--ewma": ewma_span}, {"--ewma": ANALYSIS["ewma_span"]}, "trends")["--ewma"]
    if (start is None) != (end is None):
        raise click.UsageError("--start and --end must be given together")
    if start and start > end:
        raise click.UsageError(f"--start {start.date()} is after --end {end.date()}")
    events = read_attacks(in_path)
    if observatory:
        events = events.take(events.observatory == observatory)
    if attack_type:
        events = events.take(events.type_code == type_code(attack_type))
    combos = set(zip(events.observatory.tolist(), map(ATTACK_TYPES.__getitem__, events.type_code.tolist())))
    if not len(events):
        raise ValueError("no events left after filtering")
    if len(combos) > 1:
        raise ValueError(
            f"multiple (observatory, attack type) combinations {sorted(combos)}; "
            "filter with --observatory/--attack-type"
        )
    obs, atype = next(iter(combos))
    span = (start.date(), end.date()) if start else event_span(events)
    series, entry = trend_series(events, f"{obs}:{atype}", span, do_normalize, ewma_span)
    write_series(out_path, series)
    click.echo(f"{len(series.values)} weeks, --start {span[0]} --end {span[1]} -> {out_path}")
    if summary:
        click.echo(json.dumps(entry, sort_keys=True))


# -- correlate ----------------------------------------------------------------

@main.command()
@click.option("--a", "a_path", required=True, type=click.Path(exists=True))
@click.option("--b", "b_path", required=True, type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["spearman", "pearson"]), default="spearman")
@click.option("--quarterly", is_flag=True, help="One correlation per calendar quarter.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write JSON here instead of stdout.")
@_guarded
def correlate(a_path, b_path, method, quarterly, out_path):
    """Correlate two series.json files with significance."""
    a = read_series(a_path)
    b = read_series(b_path)
    if quarterly:
        rows = []
        for q, r in quarterly_correlations(a, b, method):
            rows.append({
                "quarter": q.isoformat(),
                "rho": None if r is None else r.rho,
                "p_value": None if r is None else r.p_value,
                "n": None if r is None else r.n,
                "significant": None if r is None else r.significant,
            })
        doc = {"method": method, "a": a.label, "b": b.label, "quarters": rows}
    else:
        doc = correlation_entry(a, b, method)
    _emit(doc, out_path)


# -- overlap ------------------------------------------------------------------

def _load_target_set(path: str, mode: str) -> np.ndarray:
    """targets.csv or attacks.csv, told apart by the header the readers find."""
    with open(path, "rb") as fh:
        _, header = next(_lines(fh, path), (None, None))
    if header == TARGETS_HEADER:
        return read_targets(path)
    return build_targets(read_attacks(path), mode)


def _set_paths(option: str, specs, default_label=None) -> dict[str, str]:
    """{label: path} of `label=path` specs; a spec without a label is named
    `default_label(i)`, or refused without one. A repeated label is refused."""
    paths: dict[str, str] = {}
    for i, spec in enumerate(specs):
        label, _, path = spec.partition("=")
        if not path:
            if default_label is None:
                raise click.UsageError(f"{option} wants label=path, got {spec!r}")
            label, path = default_label(i), label
        if label in paths:
            raise click.UsageError(f"{option}: duplicate set label {label!r}")
        paths[label] = path
    return paths


@main.command("overlap")
@click.option("--sets", "set_specs", multiple=True, required=True,
              help="label=path[,label=path...]; paths are targets.csv or attacks.csv.")
@click.option("--mode", type=click.Choice(["start_date", "per_day"]), default="start_date",
              help="Tuple construction when reading attacks.csv.")
@click.option("--upset", "do_upset", is_flag=True, help="Exclusive intersection counts.")
@click.option("--timeseries", type=click.Path(), default=None,
              help="Weekly overlap CSV (exactly two sets).")
@click.option("--new-recurring", "new_rec", type=click.Path(), default=None,
              help="Weekly new/recurring decomposition CSV of the union.")
@click.option("--attribution", type=click.Path(), default=None,
              help="Per-AS ranking JSON of the union (needs --routed).")
@click.option("--routed", type=click.Path(exists=True), default=None)
@click.option("--top-n", type=click.IntRange(min=1), default=10)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_guarded
def overlap_cmd(set_specs, mode, do_upset, timeseries, new_rec, attribution,
                routed, top_n, out_path):
    """Target-overlap analyses over observatory target sets."""
    paths = _set_paths("--sets", [part for spec in set_specs for part in spec.split(",")])
    if timeseries and len(paths) != 2:
        raise click.UsageError("--timeseries needs exactly two sets")
    if attribution and not routed:
        raise click.UsageError("--attribution needs --routed")
    sets = {label: _load_target_set(path, mode) for label, path in paths.items()}
    union = functools.reduce(np.union1d, sets.values())
    if do_upset:
        _emit(upset_document(sets), out_path)
    if timeseries:
        (la, ta), (lb, tb) = sets.items()
        write_weekly_csv(timeseries, (la, lb, "intersection"),
                         overlap_timeseries(ta, tb, (la, lb)))
        click.echo(timeseries)
    if new_rec:
        write_weekly_csv(new_rec, ("new", "recurring", "cumulative_new"),
                         new_vs_recurring(union))
        click.echo(new_rec)
    if attribution:
        rows = as_attribution(union, read_routed_table(routed), top_n)
        write_json(attribution, [
            {"asn": asn, "tuples": count, "share": share}
            for asn, count, share in rows
        ])
        click.echo(attribution)


# -- confirm ------------------------------------------------------------------

@main.command()
@click.option("--local", "locals_", multiple=True, required=True,
              help="targets.csv, or label=targets.csv (repeatable).")
@click.option("--external", required=True, type=click.Path(exists=True),
              help="One lowercase sha256 hex digest per line.")
@click.option("--salt", required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_guarded
def confirm(locals_, external, salt, out_path):
    """Share of local targets confirmed by an external hashed set.

    Digests are sha256 over "salt|YYYY-MM-DD|ip"; a salt mismatch is
    undetectable and simply confirms nothing.
    """
    paths = _set_paths("--local", locals_, lambda i: f"local{i}" if len(locals_) > 1 else "local")
    sets = {label: read_targets(path) for label, path in paths.items()}
    _emit(confirm_document(sets, external, salt), out_path)


# -- pipeline -----------------------------------------------------------------

@main.command("pipeline")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="Pipeline JSON; see README for the full schema.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Override out_dir from the config.")
@click.option("--parallelism", type=int, default=None)
@click.option("--seed", type=int, default=None, help="Threads into synth only.")
@_guarded
def pipeline_cmd(config_path, out_dir, parallelism, seed):
    """Run the full detection/analysis pipeline into one bundle."""
    cfg = PipelineConfig.load(
        config_path,
        out_dir=out_dir,
        parallelism=parallelism,
        seed=seed,
    )
    bundle = run_pipeline(cfg)
    click.echo(bundle)


if __name__ == "__main__":
    main()
