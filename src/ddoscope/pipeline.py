"""End-to-end pipeline: scenario synthesis, per-observatory detection,
prefix aggregation, trend series, correlation matrix, and target overlap,
emitted as one reproducible bundle.

The CLI's commands run the stage functions and config kinds defined here,
so a step run alone gives the bytes of the matching bundle file.

Each packet file is parsed at most once per run. Detection looks packets
up in one map from (resolved path, sensor column) to PacketBatch: synth
fills it with the packets it wrote, and the first observatory to read any
other file adds it, so observatories that share an input share one parse.
A file's entry is dropped as soon as the last observatory that reads it
has gathered its packets, and a telescope's unfiltered packets as soon as
the backscatter prefilter has copied the rows it keeps, so a parse is held
no longer than detection needs it. A prefilter that drops no row hands
detection the gathered batch itself, so it makes no copy.

The bundle is deterministic: identical config and inputs produce
byte-identical files, and manifest.json records the config hash, seed,
version, and a sha256 per file. Detection runs serially, so the validated
`parallelism` setting does not change any output. A bundle is complete or
absent: a run writes into a hidden sibling of `out_dir` (`.<name>.*`) and
renames it into place after the manifest, replacing an earlier bundle or
an empty directory and nothing else. Any failure removes the sibling,
leaves `out_dir` as it was, and aborts with the stage name; only a hard
kill can leave the sibling behind.
"""

from __future__ import annotations

import dataclasses
import glob as globmod
import hashlib
import json
import re
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .carpet import aggregate_carpet
from .flowclass import AMPLIFICATION_PORTS, classify_flow
from .honeypot import PRESETS, aggregate_sensors, detect_honeypot, preset
from .ioformats import (
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
from .model import ATTACK_TYPES, EventBatch, PacketBatch, WeeklySeries
from .overlap import (
    MAX_OBSERVATORIES,
    build_targets,
    federated_confirm,
    overlap_timeseries,
    upset_exclusive,
)
from .schema import (INTEGER, NUMBER, OBJECT, REQUIRED, STRING, SWITCH, ConfigError, Kind, fields_of, list_of,
                     load_json, one_of, read)
from .synth import GeneratedScenario, ScenarioSpec, generate, write_scenario
from .telescope import TelescopeConfig, backscatter_prefilter, detect_rsdos
from .trends import event_span, ewma, linreg_trend, normalize, pearson, spearman, weekly_counts

# Observatory names become parts of bundle file names (attacks_<name>.csv)
OBSERVATORY_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
NAME = Kind(f"a name matching {OBSERVATORY_NAME.pattern}",
            lambda value: type(value) is str and OBSERVATORY_NAME.fullmatch(value),
            message="observatory name {value!r} does not match " + OBSERVATORY_NAME.pattern)
PATH = Kind("a string", lambda value: isinstance(value, (str, Path)), Path)  # an override may be a Path
GAP = Kind("a number of at least 0", lambda value: NUMBER.test(value) and value >= 0)
PORTS = list_of("a list of integers from 0 to 65535", lambda port: type(port) is int and 0 <= port <= 65535)

PIPELINE = {
    "out_dir": (PATH, None),
    "observatories": (Kind("a non-empty list", lambda value: type(value) is list and len(value) > 0), REQUIRED),
    "scenario": (PATH, None),
    "seed": (Kind("an integer, with a scenario", INTEGER.test,
                  message="{where}: {key} must be an integer, not {value!r}"), None),
    "routed": (PATH, None),
    "alloc": (PATH, None),
    "aggregate": (SWITCH, False),
    "concurrency_gap": (Kind(GAP.what, GAP.test, float), 60.0),
    "min_targets": (Kind("an integer of at least 2", lambda value: type(value) is int and value >= 2), 2),
    "parallelism": (Kind("an integer of at least 1", lambda value: type(value) is int and value >= 1), 1),
    "analysis": (OBJECT, {}),
}
ANALYSIS = {
    "normalize": (SWITCH, True),
    "ewma_span": (Kind("a number of at least 1, or null",
                       lambda value: value is None or NUMBER.test(value) and value >= 1), 12),
    "correlation": (one_of("spearman", "pearson"), "spearman"),
    "upset": (SWITCH, True),
    "overlap_timeseries": (SWITCH, True),
    "target_mode": (one_of("start_date", "per_day"), "start_date"),
    "confirm": (OBJECT, {}),
}
CONFIRM = {"external": (PATH, None), "salt": (STRING, None)}
BY_TYPE = {
    "telescope": {"config": (OBJECT, {})},
    # preset() refuses an unknown name; a known one is kept as written
    "honeypot": {"preset": (Kind(f"one of {sorted(PRESETS)}", bool, lambda value: preset(str(value)) and value,
                                 message="{where} needs a preset"), REQUIRED),
                 "merge_gap": (GAP, None),                # default: the preset's timeout
                 "sensor_col": (STRING, None)},
    "flow": {"ampl_ports": (PORTS, None)},                # default: AMPLIFICATION_PORTS
}
OBSERVATORY = {
    "name": (NAME, REQUIRED),
    "type": (one_of(*BY_TYPE, message="unknown observatory type {value!r}"), REQUIRED),
    "inputs": (list_of("a list of strings", STRING.test), []),
}
# a telescope's config; synth fills n_addresses in for observatories without inputs
TELESCOPE_CONFIG = fields_of(TelescopeConfig, {"Optional[int]": INTEGER, "int": INTEGER, "float": NUMBER,
                                               "str": STRING})


class PipelineError(Exception):
    """Stage failure; `kind` maps to the CLI exit codes (config/data/internal)."""

    def __init__(self, stage: str, message: str, kind: str = "data"):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage
        self.kind = kind


@contextmanager
def stage(name: str, kind: str = "data"):
    """Run a stage's body with its failures named by the stage: a PipelineError
    passes through, an OSError (a file it cannot open or write) is a config
    error, and any other ValueError is of `kind`."""
    try:
        yield
    except PipelineError:
        raise
    except OSError as exc:
        raise PipelineError(name, str(exc), "config") from exc
    except ValueError as exc:
        raise PipelineError(name, str(exc), kind) from exc


@dataclass
class ObservatoryConfig:
    name: str
    type: str
    inputs: list[str]
    settings: dict    # its type's detector settings, defaults applied; see observatory_config


@dataclass
class PipelineConfig:
    out_dir: Optional[Path]      # required; None until --out gives it
    observatories: list[ObservatoryConfig]
    scenario: Optional[Path]
    seed: Optional[int]
    routed: Optional[Path]
    alloc: Optional[Path]
    aggregate: bool
    concurrency_gap: float
    min_targets: int
    normalize: bool
    ewma_span: Optional[float]
    correlation: str
    upset: bool
    overlap_timeseries: bool
    target_mode: str
    confirm_external: Optional[Path]
    confirm_salt: Optional[str]
    parallelism: int

    @classmethod
    def from_json(cls, doc: dict, base_dir: Path) -> "PipelineConfig":
        """The config of a pipeline JSON document, each field read from the key
        of its name, relative paths taken from `base_dir`."""
        top = read(doc, PIPELINE, "pipeline")
        top["observatories"] = [observatory_config(o, f"observatories[{i}]", base_dir, top["scenario"])
                                for i, o in enumerate(top["observatories"])]
        analysis = read(top.pop("analysis"), ANALYSIS, "analysis")
        confirm = read(analysis.pop("confirm"), CONFIRM, "analysis.confirm")
        fields = {**top, **analysis, "confirm_external": confirm["external"], "confirm_salt": confirm["salt"]}
        for key in ("out_dir", "scenario", "routed", "alloc", "confirm_external"):
            fields[key] = None if fields[key] is None else base_dir / fields[key]
        return cls(**fields)

    @classmethod
    def load(cls, path, **overrides) -> "PipelineConfig":
        """The config at `path`, each override that is not None (`out_dir`,
        `parallelism`, `seed`) read as its key is and replacing it."""
        path = Path(path)
        given = {key: value for key, value in overrides.items() if value is not None}
        with stage("config", "config"):
            cfg = cls.from_json(load_json(path), path.parent)
            return dataclasses.replace(cfg, **read(given, {key: PIPELINE[key] for key in given}, "overrides"))


def observatory_config(doc, where: str, base_dir: Path = Path(),
                       scenario: Optional[Path] = None) -> ObservatoryConfig:
    """One observatory of a config and its detector settings, relative inputs taken
    from `base_dir`; without inputs it reads the files synth writes from `scenario`,
    a telescope taking the scenario's n_addresses unless it gives its own. Errors in
    the keys every observatory takes name it by position, those in its type's by type and name."""
    o = read(doc, OBSERVATORY, where, others=BY_TYPE.values())
    if not o["inputs"] and scenario is None:
        raise ConfigError(f"observatory {o['name']!r} has no inputs")
    where = f"{o['type']} {o['name']!r}"
    typed = read({key: value for key, value in doc.items() if key not in OBSERVATORY}, BY_TYPE[o["type"]], where)
    if o["type"] == "telescope":
        telescope = read(typed["config"], TELESCOPE_CONFIG, where)
        if telescope["n_addresses"] is None and o["inputs"]:
            raise ConfigError(f"{where} needs config.n_addresses")
        try:
            settings = {"telescope": TelescopeConfig(**telescope)}
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    elif o["type"] == "honeypot":
        definition = preset(typed["preset"])
        settings = {**typed, "definition": definition,
                    "merge_gap": definition.timeout if typed["merge_gap"] is None else typed["merge_gap"]}
    else:
        ports = typed["ampl_ports"]
        settings = {"ampl_ports": AMPLIFICATION_PORTS if ports is None else frozenset(ports)}
    return ObservatoryConfig(o["name"], o["type"], [str(base_dir / p) for p in o["inputs"]], settings)


def _validate(cfg: PipelineConfig) -> None:
    names = [o.name for o in cfg.observatories]
    if len(set(names)) != len(names):
        raise ConfigError("observatory names must be unique")
    # both count every exclusive subset of the observatories' target sets
    if len(names) > MAX_OBSERVATORIES and (cfg.upset or cfg.confirm_external is not None):
        raise ConfigError(f"{len(names)} observatories exceed the {MAX_OBSERVATORIES}-set limit "
                          "of analysis.upset and analysis.confirm")
    if cfg.seed is not None and cfg.scenario is None:
        raise ConfigError("seed given without a scenario, the only thing it seeds")
    if cfg.aggregate and (cfg.routed is None or cfg.alloc is None):
        missing = "routed" if cfg.routed is None else "alloc"
        raise ConfigError(f"aggregation enabled but the {missing} table is not configured")
    if (cfg.confirm_external is None) != (cfg.confirm_salt is None):
        raise ConfigError("confirm needs both external file and salt")
    for p, what in ((cfg.scenario, "scenario"), (cfg.routed, "routed table"),
                    (cfg.alloc, "allocation table"), (cfg.confirm_external, "external hashes")):
        if p is not None and not Path(p).exists():
            raise ConfigError(f"{what} file not found: {p}")
    if cfg.out_dir is None:
        raise ConfigError("missing required key 'out_dir' (in the config, or from --out)")
    # a bundle replaces only an empty directory or an earlier bundle, so a
    # mistyped out_dir never deletes anything else
    out = Path(cfg.out_dir)
    if out.name in ("", ".."):
        raise ConfigError(f"out_dir {str(out)!r} does not end in a directory name")
    bundle_or_empty = out.is_dir() and ((out / "manifest.json").is_file() or not any(out.iterdir()))
    if out.exists() and not bundle_or_empty:
        raise ConfigError(f"out_dir {out} is neither empty nor a bundle with a manifest.json")


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Run all configured stages and rename the bundle into place at
    `cfg.out_dir`, which it returns; `cfg` is not changed. A failure is a
    PipelineError naming its stage, or `internal` for what no stage maps."""
    with stage("config", "config"):
        _validate(cfg)
        out = Path(cfg.out_dir)
        out.parent.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        # the bundle is a subdirectory, so it gets the permissions of a
        # plain mkdir rather than mkdtemp's 0700
        root = work / "bundle"
        root.mkdir()
        with stage("synth", "config"):
            cfg, seed, parsed = _stage_synth(cfg, root)
        with stage("detect"):
            events = _stage_detect(cfg, root, parsed)
        del parsed  # later stages hold no packets
        if cfg.aggregate:
            with stage("aggregate"):
                events = _stage_aggregate(cfg, root, events)
        # both skip a series or pair on its ValueError, so any other is a fault
        with stage("trends", "internal"):
            serieses = _stage_trends(cfg, root, events)
        with stage("correlate", "internal"):
            _stage_correlate(cfg, root, serieses)
        with stage("overlap"):
            sets = _stage_overlap(cfg, root, events)
        if cfg.confirm_external is not None:
            with stage("confirm"):
                write_json(_path(root, "confirm.json"),
                           confirm_document(sets, cfg.confirm_external, cfg.confirm_salt))
        with stage("manifest", "internal"):
            _write_manifest(cfg, root, seed)
        if out.exists():
            out.rename(work / "old")
        root.rename(out)
        return out
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("internal", f"{type(exc).__name__}: {exc}", "internal") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _path(root: Path, *parts: str) -> Path:
    """`root` joined with `parts`, its parent directory created."""
    p = root.joinpath(*parts)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


# -- stages -------------------------------------------------------------------

def synthesize(spec_path, seed: Optional[int] = None) -> tuple[ScenarioSpec, GeneratedScenario]:
    """The scenario spec at `spec_path`, its seed replaced when `seed` is
    given, and what it generates; ValueError for an invalid spec."""
    spec = ScenarioSpec.load(spec_path)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return spec, generate(spec)


def _stage_synth(cfg: PipelineConfig, root: Path) -> tuple[PipelineConfig, Optional[int], dict]:
    """A copy of `cfg` whose observatories without inputs read the scenario
    written under `root`, the seed, and the packets of each packet file
    written keyed as `detect_observatory` looks them up, so detection
    never parses them."""
    if cfg.scenario is None:
        return cfg, cfg.seed, {}
    spec, generated = synthesize(cfg.scenario, cfg.seed)
    input_dir = root / "inputs"
    written = write_scenario(generated, input_dir)

    inputs = {"telescope": [str(input_dir / "telescope.csv")],
              "honeypot": sorted(str(p) for p in input_dir.glob("honeypot_*.csv")),
              "flow": [str(input_dir / "flows.csv")]}
    wired = []
    for o in cfg.observatories:
        if not o.inputs:
            o = dataclasses.replace(o, inputs=inputs[o.type])
            if o.type == "telescope" and o.settings["telescope"].n_addresses is None:
                tcfg = dataclasses.replace(o.settings["telescope"], n_addresses=spec.telescope_addresses)
                o.settings = {"telescope": tcfg}    # the copy's own dict: the loaded config is kept
        wired.append(o)
    cfg = dataclasses.replace(cfg, observatories=wired)
    return cfg, spec.seed, {(p.resolve(), None): content for p, content in written.items()
                            if isinstance(content, PacketBatch)}


def _expand_inputs(o: ObservatoryConfig) -> list[str]:
    """Each input file of `o` once, at its first position; the hits of a
    glob come in sorted order."""
    paths: dict[Path, str] = {}
    for pattern in o.inputs:
        hits = sorted(globmod.glob(pattern))
        if not hits and Path(pattern).exists():
            hits = [pattern]
        if not hits:
            raise PipelineError("detect", f"{o.name}: input not found: {pattern}", "config")
        for p in hits:
            paths.setdefault(Path(p).resolve(), p)
    if not paths:
        raise PipelineError("detect", f"{o.name}: no input files", "config")
    return list(paths.values())


def detect_observatory(o: ObservatoryConfig, parsed: Optional[dict] = None, paths: Optional[list[str]] = None,
                       last: frozenset = frozenset()) -> EventBatch:
    """Attack events of one observatory from its input files (globs allowed),
    or from `paths` when its inputs are already expanded.

    `parsed` maps (resolved path, sensor_col) to the PacketBatch of a packet
    file; a file missing from it is read and added, so observatories that
    share a map parse a shared file once. The keys in `last`, files no
    later observatory reads, are dropped from it once gathered."""
    parsed = {} if parsed is None else parsed
    paths = _expand_inputs(o) if paths is None else paths
    if o.type == "flow":
        return EventBatch.concat([classify_flow(read_flows(p), o.settings["ampl_ports"], observatory=o.name)
                                  for p in paths])
    packets = PacketBatch.concat([_packets(key, parsed) for key in _packet_keys(o, paths)])
    for key in last:
        del parsed[key]
    if o.type == "telescope":
        tcfg = o.settings["telescope"]
        # rebinding frees the unfiltered rows before detection, unless a later observatory reads them
        packets = backscatter_prefilter(packets, tcfg.backscatter_filter)
        return detect_rsdos(packets, tcfg, observatory=o.name)
    events = detect_honeypot(packets, o.settings["definition"], observatory=o.name)
    return aggregate_sensors(events, o.settings["merge_gap"])


def _packet_keys(o: ObservatoryConfig, paths: list[str]) -> list[tuple]:
    """The `parsed` key of each packet file of `o`."""
    return [(Path(p).resolve(), o.settings.get("sensor_col")) for p in paths]


def _packets(key: tuple, parsed: dict) -> PacketBatch:
    if key not in parsed:
        path, sensor_col = key
        parsed[key] = read_packets(path, sensor_col=sensor_col)
    return parsed[key]


def _stage_detect(cfg: PipelineConfig, root: Path, parsed: dict) -> dict[str, EventBatch]:
    """Detection over every observatory; `parsed` starts with the packets
    synth wrote, gains each packet file as it is first read and loses it
    once its last reader has gathered it."""
    paths = {o.name: _expand_inputs(o) for o in cfg.observatories}
    # the last observatory to read each packet file
    reader = {key: o.name for o in cfg.observatories if o.type != "flow" for key in _packet_keys(o, paths[o.name])}
    results = {o.name: detect_observatory(o, parsed, paths[o.name],
                                          frozenset(key for key, name in reader.items() if name == o.name))
               for o in cfg.observatories}
    for o in cfg.observatories:
        write_attacks(_path(root, f"attacks_{o.name}.csv"), results[o.name])
    return results


def _stage_aggregate(
    cfg: PipelineConfig, root: Path, events: dict[str, EventBatch]
) -> dict[str, EventBatch]:
    routed = read_routed_table(cfg.routed)
    alloc = read_alloc_table(cfg.alloc)
    out = {}
    for name, evs in events.items():
        out[name] = aggregate_carpet(
            evs, routed, alloc,
            concurrency_gap=cfg.concurrency_gap,
            min_targets=cfg.min_targets,
        )
        write_attacks(_path(root, f"attacks_{name}_agg.csv"), out[name])
    return out


def trend_series(events: EventBatch, label: str, span, normalized: bool,
                 ewma_span: Optional[float]) -> tuple[WeeklySeries, dict]:
    """The series of `events` over `span`, normalized and then smoothed as asked, and its
    trends.json entry; ValueError when it is too short or too sparse for a trend."""
    series = weekly_counts(events, span, label=label)
    if normalized:
        series = normalize(series)
    trend = linreg_trend(series)
    if ewma_span is not None:
        series = ewma(series, ewma_span)
    return series, {
        "slope_per_week": trend.slope,
        "net_change_4y": trend.net_change_4y,
        "class": trend.trend_class,
        "marker": trend.marker,
        "weeks": trend.n,
    }


def _stage_trends(cfg, root, events: dict[str, EventBatch]):
    serieses = {}
    summaries = {}
    # with no events there is no span, and no series needs one
    span = event_span(*events.values()) if any(map(len, events.values())) else None
    for name in sorted(events):
        evs = events[name]
        # type codes sort as the type names do
        for code in np.flatnonzero(np.bincount(evs.type_code, minlength=len(ATTACK_TYPES))).tolist():
            atype = ATTACK_TYPES[code]
            label = f"{name}:{atype}"
            try:
                series, summaries[label] = trend_series(evs.take(evs.type_code == code), label, span,
                                                        cfg.normalize, cfg.ewma_span)
            except ValueError as exc:
                # too short or too sparse for this analysis: skip this series only
                summaries[label] = {"skipped": str(exc)}
                continue
            serieses[label] = series
            write_series(_path(root, "series", f"{name}_{atype}.json"), series)
    write_json(_path(root, "trends.json"), summaries)
    return serieses


def correlation_entry(a: WeeklySeries, b: WeeklySeries, method: str) -> dict:
    """The correlations.json entry of series `a` and `b`; ValueError when they cannot be correlated."""
    r = (spearman if method == "spearman" else pearson)(a, b)
    return {"a": a.label, "b": b.label, "method": method, **r.entry()}


def _stage_correlate(cfg, root, serieses) -> None:
    labels = sorted(serieses)
    matrix = []
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            try:
                matrix.append(correlation_entry(serieses[a], serieses[b], cfg.correlation))
            except ValueError as exc:
                matrix.append({"a": a, "b": b, "method": cfg.correlation, "error": str(exc)})
    write_json(_path(root, "correlations.json"), matrix)


def upset_document(sets: dict[str, np.ndarray]) -> dict:
    """Set sizes, union size and UpSet exclusive-intersection counts of
    target key sets."""
    counts = upset_exclusive(sets)
    return {
        "sets": {name: len(keys) for name, keys in sets.items()},
        # the exclusive counts partition the union
        "union": sum(counts.values()),
        "exclusive": {"&".join(sorted(subset)): count for subset, count in counts.items()},
    }


def confirm_document(sets: dict[str, np.ndarray], external_path, salt: str) -> dict:
    """Share of each exclusive subset of target key sets confirmed by a
    hashed external set."""
    external = read_hashed_targets(external_path)
    shares = federated_confirm(sets, external, salt)
    return {
        "external_digests": len(external),
        "shares": {"&".join(sorted(k)): v for k, v in shares.items()},
    }


def _stage_overlap(cfg, root, events) -> dict[str, np.ndarray]:
    sets = {
        name: build_targets(events[name], cfg.target_mode)
        for name in sorted(events)
    }
    for name, keys in sets.items():
        write_targets(_path(root, "targets", f"{name}.csv"), keys)
    if cfg.upset:
        write_json(_path(root, "upset.json"), upset_document(sets))
    if cfg.overlap_timeseries:
        if cfg.target_mode == "per_day":
            daily = sets
        else:
            daily = {
                name: build_targets(events[name], "per_day") for name in sorted(events)
            }
        names = sorted(daily)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if not (len(daily[a]) or len(daily[b])):
                    continue
                write_weekly_csv(
                    _path(root, "overlap", f"{a}_{b}.csv"), (a, b, "intersection"),
                    overlap_timeseries(daily[a], daily[b], (a, b)),
                )
    return sets


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _json_default(value):
    """JSON form of the settings' dataclasses and port sets."""
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) else sorted(value)


def _config_digest(cfg: PipelineConfig, hashes: Optional[dict[Path, str]] = None) -> str:
    """sha256 of everything that shapes the bundle: every setting after
    defaults, and the contents of every input file. `hashes` holds the
    sha256 of files already hashed, by resolved path, and gains the rest."""
    hashes = {} if hashes is None else hashes    # by resolved path, as observatories may share files

    def file_digest(path) -> Optional[dict]:
        if path is None:
            return None
        key = Path(path).resolve()
        if key not in hashes:
            hashes[key] = _sha256(path)
        # a basename, so the hash is stable across working directories
        return {"name": Path(path).name, "sha256": hashes[key]}

    doc = {
        "observatories": [
            {"name": o.name, "type": o.type, **o.settings,
             "inputs": [file_digest(p) for p in _expand_inputs(o)]}
            for o in cfg.observatories
        ],
        "scenario": file_digest(cfg.scenario),
        "routed": file_digest(cfg.routed),
        "alloc": file_digest(cfg.alloc),
        "confirm": {"external": file_digest(cfg.confirm_external), "salt": cfg.confirm_salt},
        **{name: getattr(cfg, name) for name in (
            "aggregate", "concurrency_gap", "min_targets", "normalize", "ewma_span",
            "correlation", "upset", "target_mode")},
        "overlap_series": cfg.overlap_timeseries,   # the hash's name for the key
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=_json_default).encode()).hexdigest()


def _write_manifest(cfg: PipelineConfig, root: Path, seed: Optional[int]) -> None:
    """manifest.json: the sha256 of every file under `root`."""
    hashes = {p.resolve(): _sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}
    files = {p.relative_to(root.resolve()).as_posix(): digest for p, digest in hashes.items()}
    write_json(
        root / "manifest.json",
        {
            "config_sha256": _config_digest(cfg, hashes),    # a scenario's inputs are under `root`
            "seed": seed,
            "version": __version__,
            "files": files,
        },
    )
