"""End-to-end pipeline: scenario synthesis, per-observatory detection,
prefix aggregation, trend series, correlation matrix, and target overlap,
emitted as one reproducible bundle.

The CLI's detect, overlap and confirm commands call the same stage
functions (`detect_observatory`, `upset_document`, `confirm_document`).

The bundle is deterministic: identical config and inputs produce
byte-identical files, and manifest.json records the config hash, seed,
version, and a sha256 per output file. Detection runs serially, so the
validated `parallelism` setting does not change any output. Any stage
failure removes the partial outputs and aborts with the stage name.
"""

from __future__ import annotations

import dataclasses
import glob as globmod
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .carpet import aggregate_carpet
from .flowclass import AMPLIFICATION_PORTS, classify_flow
from .honeypot import aggregate_sensors, detect_honeypot, preset
from .ioformats import (
    FormatError,
    read_alloc_table,
    read_flows,
    read_hashed_targets,
    read_packets,
    read_routed_table,
    write_attacks,
    write_json,
    write_series,
    write_targets,
    write_weekly_csv,
)
from .model import AttackEvent, PacketBatch, TargetTuple, ts_to_date
from .overlap import (
    TargetSetSystem,
    build_targets,
    federated_confirm,
    overlap_timeseries,
    upset_exclusive,
)
from .synth import ScenarioSpec, generate, write_scenario
from .telescope import TelescopeConfig, backscatter_prefilter, detect_rsdos
from .trends import ewma, linreg_trend, normalize, pearson, spearman, weekly_counts

OBSERVATORY_TYPES = ("telescope", "honeypot", "flow")
TELESCOPE_KEYS = frozenset(f.name for f in dataclasses.fields(TelescopeConfig))
# Observatory names become parts of bundle file names (attacks_<name>.csv)
OBSERVATORY_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


class PipelineError(Exception):
    """Stage failure; `kind` maps to the CLI exit codes (config/data/internal)."""

    def __init__(self, stage: str, message: str, kind: str = "data"):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage
        self.kind = kind


@dataclass
class ObservatoryConfig:
    name: str
    type: str
    inputs: list[str] = field(default_factory=list)
    preset: Optional[str] = None            # honeypot
    merge_gap: Optional[float] = None       # honeypot; default: preset timeout
    sensor_col: Optional[str] = None        # honeypot
    telescope: dict = field(default_factory=dict)   # TelescopeConfig kwargs
    ampl_ports: Optional[list[int]] = None  # flow


@dataclass
class PipelineConfig:
    out_dir: Path
    observatories: list[ObservatoryConfig]
    scenario: Optional[Path] = None
    seed: Optional[int] = None
    routed: Optional[Path] = None
    alloc: Optional[Path] = None
    aggregate: bool = False
    concurrency_gap: float = 60.0
    min_targets: int = 2
    normalize: bool = True
    ewma_span: Optional[float] = 12
    correlation: str = "spearman"
    upset: bool = True
    overlap_series: bool = True
    target_mode: str = "start_date"
    confirm_external: Optional[Path] = None
    confirm_salt: Optional[str] = None
    parallelism: int = 1

    @classmethod
    def from_json(cls, doc: dict, base_dir: Path) -> "PipelineConfig":
        def path_of(value):
            if value is None:
                return None
            p = Path(value)
            return p if p.is_absolute() else base_dir / p

        observatories = []
        for o in doc.get("observatories", []):
            inputs = o.get("inputs", [])
            if isinstance(inputs, str):
                inputs = [inputs]
            if "input" in o:
                inputs = [o["input"]] + list(inputs)
            observatories.append(
                ObservatoryConfig(
                    name=o["name"],
                    type=o["type"],
                    inputs=[str(path_of(i)) for i in inputs],
                    preset=o.get("preset"),
                    merge_gap=o.get("merge_gap"),
                    sensor_col=o.get("sensor_col"),
                    telescope=o.get("config", {}),
                    ampl_ports=o.get("ampl_ports"),
                )
            )
        analysis = doc.get("analysis", {})
        confirm = analysis.get("confirm") or {}
        return cls(
            out_dir=path_of(doc["out_dir"]),
            observatories=observatories,
            scenario=path_of(doc.get("scenario")),
            seed=doc.get("seed"),
            routed=path_of(doc.get("routed")),
            alloc=path_of(doc.get("alloc")),
            aggregate=bool(doc.get("aggregate", False)),
            concurrency_gap=float(doc.get("concurrency_gap", 60.0)),
            min_targets=int(doc.get("min_targets", 2)),
            normalize=bool(analysis.get("normalize", True)),
            ewma_span=analysis.get("ewma_span", 12),
            correlation=analysis.get("correlation", "spearman"),
            upset=bool(analysis.get("upset", True)),
            overlap_series=bool(analysis.get("overlap_timeseries", True)),
            target_mode=analysis.get("target_mode", "start_date"),
            confirm_external=path_of(confirm.get("external")),
            confirm_salt=confirm.get("salt"),
            parallelism=int(doc.get("parallelism", 1)),
        )

    @classmethod
    def load(cls, path, **overrides) -> "PipelineConfig":
        path = Path(path)
        with open(path) as fh:
            doc = json.load(fh)
        cfg = cls.from_json(doc, path.parent)
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
        return cfg


def _config_error(message: str) -> PipelineError:
    return PipelineError("config", message, "config")


def _validate(cfg: PipelineConfig) -> None:
    if not cfg.observatories:
        raise _config_error("no observatories configured")
    for o in cfg.observatories:
        if not (isinstance(o.name, str) and OBSERVATORY_NAME.fullmatch(o.name)):
            raise _config_error(f"observatory name {o.name!r} does not match {OBSERVATORY_NAME.pattern}")
        if o.type not in OBSERVATORY_TYPES:
            raise _config_error(f"unknown observatory type {o.type!r}")
        if o.type == "honeypot":
            if not o.preset:
                raise _config_error(f"honeypot {o.name!r} needs a preset")
            try:
                preset(str(o.preset))
            except ValueError as exc:
                raise _config_error(f"honeypot {o.name!r}: {exc}") from None
        if not o.inputs and cfg.scenario is None:
            raise _config_error(f"observatory {o.name!r} has no inputs")
        if o.type == "telescope":
            unknown = sorted(set(o.telescope) - TELESCOPE_KEYS)
            if unknown:
                raise _config_error(f"telescope {o.name!r}: unknown config keys {unknown}")
            # synth fills n_addresses in only for observatories without inputs
            if "n_addresses" not in o.telescope and (o.inputs or cfg.scenario is None):
                raise _config_error(f"telescope {o.name!r} needs config.n_addresses")
            try:
                TelescopeConfig(**{"n_addresses": 1, **o.telescope})
            except (TypeError, ValueError) as exc:
                raise _config_error(f"telescope {o.name!r}: {exc}") from None
    names = [o.name for o in cfg.observatories]
    if len(set(names)) != len(names):
        raise _config_error("observatory names must be unique")
    if cfg.aggregate and (cfg.routed is None or cfg.alloc is None):
        missing = "routed" if cfg.routed is None else "alloc"
        raise _config_error(f"aggregation enabled but the {missing} table is not configured")
    if cfg.correlation not in ("spearman", "pearson"):
        raise _config_error(f"unknown correlation {cfg.correlation!r}")
    if cfg.target_mode not in ("start_date", "per_day"):
        raise _config_error(f"unknown target mode {cfg.target_mode!r}")
    if (cfg.confirm_external is None) != (cfg.confirm_salt is None):
        raise _config_error("confirm needs both external file and salt")
    for p, what in ((cfg.scenario, "scenario"), (cfg.routed, "routed table"),
                    (cfg.alloc, "allocation table"), (cfg.confirm_external, "external hashes")):
        if p is not None and not Path(p).exists():
            raise _config_error(f"{what} file not found: {p}")
    if cfg.parallelism < 1:
        raise _config_error("parallelism must be >= 1")


class _Bundle:
    """Tracks files written so a failed run can clean up after itself."""

    def __init__(self, root: Path):
        self.root = root
        self.files: list[Path] = []

    def path(self, *parts: str) -> Path:
        p = self.root.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        self.files.append(p)
        return p

    def discard(self) -> None:
        for p in self.files:
            try:
                p.unlink()
            except FileNotFoundError:
                pass


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Run all configured stages; returns the bundle directory."""
    _validate(cfg)
    bundle = _Bundle(Path(cfg.out_dir))
    bundle.root.mkdir(parents=True, exist_ok=True)
    try:
        seed = _stage_synth(cfg, bundle)
        events = _stage_detect(cfg, bundle)
        if cfg.aggregate:
            events = _stage_aggregate(cfg, bundle, events)
        serieses = _stage_trends(cfg, bundle, events)
        _stage_correlate(cfg, bundle, serieses)
        systems = _stage_overlap(cfg, bundle, events)
        if cfg.confirm_external is not None:
            _stage_confirm(cfg, bundle, systems)
        _write_manifest(cfg, bundle, seed)
        return bundle.root
    except PipelineError:
        bundle.discard()
        raise
    except FormatError as exc:
        bundle.discard()
        raise PipelineError("io", str(exc), "data") from exc
    except Exception as exc:
        bundle.discard()
        raise PipelineError("internal", f"{type(exc).__name__}: {exc}", "internal") from exc


# -- stages -------------------------------------------------------------------

def _stage_synth(cfg: PipelineConfig, bundle: _Bundle) -> Optional[int]:
    if cfg.scenario is None:
        return cfg.seed
    try:
        spec = ScenarioSpec.load(cfg.scenario)
        if cfg.seed is not None:
            spec = dataclasses.replace(spec, seed=cfg.seed)
        generated = generate(spec)
        input_dir = bundle.root / "inputs"
        for p in write_scenario(generated, input_dir):
            bundle.files.append(p)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise PipelineError("synth", str(exc), "config") from exc

    # Wire scenario outputs into observatories that name no inputs.
    for o in cfg.observatories:
        if o.inputs:
            continue
        if o.type == "telescope":
            o.inputs = [str(input_dir / "telescope.csv")]
            o.telescope.setdefault("n_addresses", spec.telescope_addresses)
        elif o.type == "honeypot":
            o.inputs = sorted(
                str(p) for p in input_dir.glob("honeypot_*.csv")
            )
        else:
            o.inputs = [str(input_dir / "flows.csv")]
    return spec.seed


def _expand_inputs(o: ObservatoryConfig) -> list[str]:
    paths: list[str] = []
    for pattern in o.inputs:
        hits = sorted(globmod.glob(pattern))
        if hits:
            paths.extend(hits)
        elif Path(pattern).exists():
            paths.append(pattern)
        else:
            raise PipelineError("detect", f"{o.name}: input not found: {pattern}", "config")
    if not paths:
        raise PipelineError("detect", f"{o.name}: no input files", "config")
    return paths


def _settings(o: ObservatoryConfig) -> dict:
    """The detector settings of one observatory, defaults applied."""
    if o.type == "telescope":
        return {"telescope": TelescopeConfig(**o.telescope)}
    if o.type == "honeypot":
        definition = preset(o.preset).definition
        return {"preset": o.preset, "definition": definition, "sensor_col": o.sensor_col,
                "merge_gap": definition.timeout if o.merge_gap is None else o.merge_gap}
    return {"ampl_ports": AMPLIFICATION_PORTS if o.ampl_ports is None else frozenset(o.ampl_ports)}


def detect_observatory(o: ObservatoryConfig) -> list[AttackEvent]:
    """Attack events of one observatory from its input files (globs allowed)."""
    paths = _expand_inputs(o)
    settings = _settings(o)
    if o.type == "telescope":
        tcfg = settings["telescope"]
        packets = PacketBatch.concat([read_packets(p) for p in paths])
        packets = packets.take(np.argsort(packets.ts, kind="stable"))
        packets = backscatter_prefilter(packets, tcfg.backscatter_filter)
        return detect_rsdos(packets, tcfg, observatory=o.name)
    if o.type == "honeypot":
        packets = PacketBatch.concat([read_packets(p, sensor_col=o.sensor_col) for p in paths])
        events = detect_honeypot(packets, settings["definition"], observatory=o.name)
        return aggregate_sensors(events, settings["merge_gap"])
    return [event for p in paths
            for event in classify_flow(read_flows(p), settings["ampl_ports"], observatory=o.name)]


def _stage_detect(cfg: PipelineConfig, bundle: _Bundle) -> dict[str, list[AttackEvent]]:
    results: dict[str, list[AttackEvent]] = {}
    try:
        for o in cfg.observatories:
            results[o.name] = detect_observatory(o)
    except (FormatError, ValueError) as exc:
        raise PipelineError("detect", str(exc), "data") from exc
    for o in cfg.observatories:
        write_attacks(bundle.path(f"attacks_{o.name}.csv"), results[o.name])
    return results


def _stage_aggregate(
    cfg: PipelineConfig, bundle: _Bundle, events: dict[str, list[AttackEvent]]
) -> dict[str, list[AttackEvent]]:
    try:
        routed = read_routed_table(cfg.routed)
        alloc = read_alloc_table(cfg.alloc)
        out = {}
        for name, evs in events.items():
            out[name] = aggregate_carpet(
                evs, routed, alloc,
                concurrency_gap=cfg.concurrency_gap,
                min_targets=cfg.min_targets,
            )
            write_attacks(bundle.path(f"attacks_{name}_agg.csv"), out[name])
        return out
    except (FormatError, ValueError) as exc:
        raise PipelineError("aggregate", str(exc), "data") from exc


def _stage_trends(cfg, bundle, events: dict[str, list[AttackEvent]]):
    all_dates = [
        ts_to_date(e.start_ts) for evs in events.values() for e in evs
    ]
    if not all_dates:
        raise PipelineError("trends", "no attacks detected by any observatory", "data")
    span = (min(all_dates), max(all_dates))
    serieses = {}
    summaries = {}
    try:
        for name in sorted(events):
            by_type: dict[str, list[AttackEvent]] = {}
            for e in events[name]:
                by_type.setdefault(e.attack_type, []).append(e)
            for atype in sorted(by_type):
                label = f"{name}:{atype}"
                series = weekly_counts(by_type[atype], span, label=label)
                # too short or too sparse for this analysis: skip this series only
                try:
                    if cfg.normalize:
                        series = normalize(series)
                    trend = linreg_trend(series)
                except ValueError as exc:
                    summaries[label] = {"skipped": str(exc)}
                    continue
                if cfg.ewma_span:
                    series = ewma(series, cfg.ewma_span)
                serieses[label] = series
                summaries[label] = {
                    "slope_per_week": trend.slope,
                    "net_change_4y": trend.net_change_4y,
                    "class": trend.trend_class,
                    "marker": trend.marker,
                    "weeks": trend.n,
                }
                write_series(bundle.path("series", f"{name}_{atype}.json"), series)
    except ValueError as exc:
        raise PipelineError("trends", str(exc), "data") from exc
    write_json(bundle.path("trends.json"), summaries)
    return serieses


def _stage_correlate(cfg, bundle, serieses) -> None:
    corr = spearman if cfg.correlation == "spearman" else pearson
    labels = sorted(serieses)
    matrix = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            entry = {"a": a, "b": b, "method": cfg.correlation}
            try:
                r = corr(serieses[a], serieses[b])
                entry.update(
                    rho=r.rho, p_value=r.p_value, n=r.n, significant=r.significant
                )
            except ValueError as exc:
                entry["error"] = str(exc)
            matrix.append(entry)
    write_json(bundle.path("correlations.json"), matrix)


def upset_document(sets: dict[str, set[TargetTuple]]) -> dict:
    """Set sizes, union size and UpSet exclusive-intersection counts."""
    counts = upset_exclusive(TargetSetSystem.from_dict(sets))
    return {
        "sets": {name: len(tuples) for name, tuples in sets.items()},
        "union": len(frozenset().union(*sets.values())),
        "exclusive": {"&".join(sorted(subset)): count for subset, count in counts.items()},
    }


def confirm_document(system: TargetSetSystem, external_path, salt: str) -> dict:
    """Share of each exclusive subset confirmed by a hashed external set."""
    external = read_hashed_targets(external_path)
    shares = federated_confirm(system, external, salt)
    return {
        "external_digests": len(external),
        "shares": {"&".join(sorted(k)): v for k, v in shares.items()},
    }


def _stage_overlap(cfg, bundle, events) -> TargetSetSystem:
    try:
        sets = {
            name: build_targets(events[name], cfg.target_mode)
            for name in sorted(events)
        }
        system = TargetSetSystem.from_dict(sets)
        for name, tuples in sets.items():
            write_targets(bundle.path("targets", f"{name}.csv"), tuples)
        if cfg.upset:
            write_json(bundle.path("upset.json"), upset_document(sets))
        if cfg.overlap_series:
            if cfg.target_mode == "per_day":
                daily = sets
            else:
                daily = {
                    name: build_targets(events[name], "per_day") for name in sorted(events)
                }
            names = sorted(daily)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    if not (daily[a] | daily[b]):
                        continue
                    write_weekly_csv(
                        bundle.path("overlap", f"{a}_{b}.csv"), (a, b, "intersection"),
                        overlap_timeseries(daily[a], daily[b], (a, b)),
                    )
        return system
    except ValueError as exc:
        raise PipelineError("overlap", str(exc), "data") from exc


def _stage_confirm(cfg, bundle, system: TargetSetSystem) -> None:
    try:
        doc = confirm_document(system, cfg.confirm_external, cfg.confirm_salt)
        write_json(bundle.path("confirm.json"), doc)
    except (FormatError, ValueError) as exc:
        raise PipelineError("confirm", str(exc), "data") from exc


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _file_digest(path) -> Optional[dict]:
    # a basename, so the hash is stable across working directories
    return None if path is None else {"name": Path(path).name, "sha256": _sha256(path)}


def _json_default(value):
    """JSON form of the settings' dataclasses and port sets."""
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) else sorted(value)


def _config_digest(cfg: PipelineConfig) -> str:
    """sha256 of everything that shapes the bundle: every setting after
    defaults, and the contents of every input file."""
    doc = {
        "observatories": [
            {"name": o.name, "type": o.type, **_settings(o),
             "inputs": [_file_digest(p) for p in _expand_inputs(o)]}
            for o in cfg.observatories
        ],
        "scenario": _file_digest(cfg.scenario),
        "routed": _file_digest(cfg.routed),
        "alloc": _file_digest(cfg.alloc),
        "confirm": {"external": _file_digest(cfg.confirm_external), "salt": cfg.confirm_salt},
        **{name: getattr(cfg, name) for name in (
            "aggregate", "concurrency_gap", "min_targets", "normalize", "ewma_span",
            "correlation", "upset", "overlap_series", "target_mode")},
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=_json_default).encode()).hexdigest()


def _write_manifest(cfg: PipelineConfig, bundle: _Bundle, seed: Optional[int]) -> None:
    files = {}
    for p in sorted(set(bundle.files)):
        rel = p.relative_to(bundle.root).as_posix()
        files[rel] = _sha256(p)
    write_json(
        bundle.path("manifest.json"),
        {
            "config_sha256": _config_digest(cfg),
            "seed": seed,
            "version": __version__,
            "files": files,
        },
    )
