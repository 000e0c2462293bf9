"""ddoscope command line.

Subcommands: synth, detect (telescope|honeypot|flow), aggregate, trends,
correlate, overlap, confirm, pipeline. Exit codes: 0 success, 2 config
error, 3 data error, 4 internal invariant violation.

The commands call the pipeline's stage functions (`detect_observatory`,
`upset_document`, `confirm_document`), so a step run on its own gives the
same bytes as the matching file of a pipeline bundle.

File schemas (headers are exact):
  packets.csv  ts_us,protocol,src_ip,src_port,dst_ip,dst_port,len_bytes,tcp_flags
  attacks.csv  observatory,attack_type,target,start_ts_us,end_ts_us,packets,sensors
  flows.csv    target_ip,protocol,src_port,distinct_src_ips,bitrate_bps,start_ts_us,end_ts_us
  routed.csv   prefix,asn          alloc.csv  prefix,registry
  targets.csv  date,ip             hashed targets: one sha256 hex digest per line
  series.json  {"label", "start_week": "YYYY-MM-DD", "values": [number|null, ...]}
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import click

from . import __version__
from .carpet import aggregate_carpet
from .flowclass import AMPLIFICATION_PORTS
from .honeypot import PRESETS
from .ioformats import (
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
from .model import TargetTuple
from .overlap import (
    TargetSetSystem,
    as_attribution,
    build_targets,
    new_vs_recurring,
    overlap_timeseries,
)
from .pipeline import (
    OBSERVATORY_NAME,
    ObservatoryConfig,
    PipelineConfig,
    PipelineError,
    confirm_document,
    detect_observatory,
    run_pipeline,
    upset_document,
)
from .synth import ScenarioSpec, generate, write_scenario
from .trends import (
    ewma,
    linreg_trend,
    normalize,
    pearson,
    quarterly_correlations,
    spearman,
    weekly_counts,
)

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
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
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
    spec = ScenarioSpec.load(spec_path)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    written = write_scenario(generate(spec), out_dir)
    for p in written:
        click.echo(p)


# -- detect -------------------------------------------------------------------

@main.group()
def detect():
    """Infer attacks from observatory data."""


def _observatory_name(ctx, param, name):
    if name is not None and not OBSERVATORY_NAME.fullmatch(name):
        raise click.BadParameter(f"{name!r} does not match {OBSERVATORY_NAME.pattern}")
    return name


def _detect(o: ObservatoryConfig, out_path) -> None:
    events = detect_observatory(o)
    write_attacks(out_path, events)
    click.echo(f"{len(events)} attacks -> {out_path}")


@detect.command("telescope")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON with TelescopeConfig fields (n_addresses required).")
@click.option("--in", "inputs", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--observatory", default="telescope", callback=_observatory_name)
@_guarded
def detect_telescope_cmd(config_path, inputs, out_path, observatory):
    """RSDoS inference from telescope backscatter (packets.csv)."""
    telescope = {}
    if config_path:
        with open(config_path) as fh:
            telescope = json.load(fh)
    _detect(ObservatoryConfig(observatory, "telescope", list(inputs), telescope=telescope),
            out_path)


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
@click.option("--observatory", default=None, callback=_observatory_name,
              help="Defaults to the preset name.")
@_guarded
def detect_honeypot_cmd(preset_name, inputs, sensor_col, merge_gap, out_path, observatory):
    """Reflection-amplification inference from honeypot request logs.

    Per-sensor events are merged into per-attack events.
    """
    _detect(ObservatoryConfig(observatory or preset_name, "honeypot", list(inputs),
                              preset=preset_name, merge_gap=merge_gap,
                              sensor_col=sensor_col),
            out_path)


@detect.command("flow")
@click.option("--in", "inputs", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--ampl-ports", default=None,
              help="Comma-separated amplification source ports "
                   f"(default {sorted(AMPLIFICATION_PORTS)}).")
@click.option("--observatory", default="flow", callback=_observatory_name)
@_guarded
def detect_flow_cmd(inputs, out_path, ampl_ports, observatory):
    """RA/DP classification of flow summaries (flows.csv)."""
    ports = [int(p) for p in ampl_ports.split(",")] if ampl_ports else None
    _detect(ObservatoryConfig(observatory, "flow", list(inputs), ampl_ports=ports), out_path)


# -- aggregate ----------------------------------------------------------------

@main.command()
@click.option("--routed", required=True, type=click.Path(exists=True))
@click.option("--alloc", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--gap", type=float, default=60.0, help="Concurrency gap, seconds.")
@click.option("--min-targets", type=int, default=2)
@_guarded
def aggregate(routed, alloc, in_path, out_path, gap, min_targets):
    """Merge concurrent attacks into carpet-bombing prefix events."""
    events = read_attacks(in_path)
    merged = aggregate_carpet(
        events, read_routed_table(routed), read_alloc_table(alloc),
        concurrency_gap=gap, min_targets=min_targets,
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
              help="Smooth with the given span after normalization.")
@click.option("--start", type=click.DateTime(["%Y-%m-%d"]), default=None)
@click.option("--end", type=click.DateTime(["%Y-%m-%d"]), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--summary", is_flag=True, help="Print the regression trend class.")
@_guarded
def trends(in_path, observatory, attack_type, do_normalize, ewma_span,
           start, end, out_path, summary):
    """Weekly attack-count series from attacks.csv."""
    events = read_attacks(in_path)
    if observatory:
        events = [e for e in events if e.observatory == observatory]
    if attack_type:
        events = [e for e in events if e.attack_type == attack_type]
    combos = {(e.observatory, e.attack_type) for e in events}
    if not events:
        raise ValueError("no events left after filtering")
    if len(combos) > 1:
        raise ValueError(
            f"multiple (observatory, attack type) combinations {sorted(combos)}; "
            "filter with --observatory/--attack-type"
        )
    obs, atype = next(iter(combos))
    span = None
    if start or end:
        if not (start and end):
            raise ValueError("--start and --end must be given together")
        span = (start.date(), end.date())
    series = weekly_counts(events, span, label=f"{obs}:{atype}")
    if do_normalize:
        series = normalize(series)
    trend = linreg_trend(series) if summary else None
    if ewma_span:
        series = ewma(series, ewma_span)
    write_series(out_path, series)
    click.echo(f"{len(series.values)} weeks -> {out_path}")
    if summary:
        click.echo(json.dumps({
            "slope_per_week": trend.slope,
            "net_change_4y": trend.net_change_4y,
            "class": trend.trend_class,
            "marker": trend.marker,
        }, sort_keys=True))


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
        r = (spearman if method == "spearman" else pearson)(a, b)
        doc = {
            "method": method, "a": a.label, "b": b.label,
            "rho": r.rho, "p_value": r.p_value, "n": r.n,
            "significant": r.significant,
        }
    _emit(doc, out_path)


# -- overlap ------------------------------------------------------------------

def _load_target_set(path: str, mode: str) -> set[TargetTuple]:
    """targets.csv or attacks.csv, sniffed by header."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n")
    if header == "date,ip":
        return read_targets(path)
    return build_targets(read_attacks(path), mode)


def _parse_sets(specs: tuple[str, ...], mode: str) -> dict[str, set[TargetTuple]]:
    sets: dict[str, set[TargetTuple]] = {}
    for spec in specs:
        for part in spec.split(","):
            label, _, path = part.partition("=")
            if not path:
                raise ValueError(f"--sets wants label=path, got {part!r}")
            if label in sets:
                raise ValueError(f"duplicate set label {label!r}")
            sets[label] = _load_target_set(path, mode)
    return sets


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
@click.option("--top-n", type=int, default=10)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_guarded
def overlap_cmd(set_specs, mode, do_upset, timeseries, new_rec, attribution,
                routed, top_n, out_path):
    """Target-overlap analyses over observatory target sets."""
    sets = _parse_sets(set_specs, mode)
    union = set().union(*sets.values())
    if do_upset:
        _emit(upset_document(sets), out_path)
    if timeseries:
        if len(sets) != 2:
            raise ValueError("--timeseries needs exactly two sets")
        (la, ta), (lb, tb) = sets.items()
        write_weekly_csv(timeseries, (la, lb, "intersection"),
                         overlap_timeseries(ta, tb, (la, lb)))
        click.echo(timeseries)
    if new_rec:
        write_weekly_csv(new_rec, ("new", "recurring", "cumulative_new"),
                         new_vs_recurring(union))
        click.echo(new_rec)
    if attribution:
        if not routed:
            raise ValueError("--attribution needs --routed")
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
    sets = {}
    for i, spec in enumerate(locals_):
        label, _, path = spec.partition("=")
        if not path:
            label, path = (f"local{i}" if len(locals_) > 1 else "local"), label
        sets[label] = read_targets(path)
    _emit(confirm_document(TargetSetSystem.from_dict(sets), external, salt), out_path)


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
        out_dir=Path(out_dir) if out_dir else None,
        parallelism=parallelism,
        seed=seed,
    )
    bundle = run_pipeline(cfg)
    click.echo(bundle)


if __name__ == "__main__":
    main()
