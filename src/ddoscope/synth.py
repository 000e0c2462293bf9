"""Seeded synthetic multi-observatory attack scenarios with ground truth.

Three attack models are generated:

  rsdos             direct-path flood with uniformly spoofed sources; the
                    victim's responses backscatter into the telescope,
                    each attack packet landing there independently with
                    probability n_addresses / 2^32
  reflection        spoofed requests (source = victim) sent to a seeded
                    subset of the honeypot sensors
  direct_nonspoofed state-exhaustion flood; visible to the flow monitor
                    only, so it emits no packets at all

Every attack also emits one flow summary toward its victim. Randomness
comes from Philox4x64-10 keyed (seed, attack index), so per-attack streams
are independent: adding an attack never perturbs another's packets, and
identical (spec, seed) yields byte-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .flowclass import attack_masks
from .ioformats import MAX_BITRATE_BPS, write_flows, write_json, write_packets
from .model import (
    FLAG_A,
    FLAG_S,
    MAX_TS_US,
    US_PER_S,
    FlowBatch,
    PacketBatch,
    ip_to_int,
    parse_prefix,
)
from .schema import INTEGER, NUMBER, OBJECT, REQUIRED, STRING, Kind, fields_of, list_of, load_json, read
from .telescope import ADDRESS_SPACE

TELESCOPE_BASE = ip_to_int("10.0.0.0")  # synthetic telescope block
ATTACK_TYPES = ("rsdos", "reflection", "direct_nonspoofed")
DEFAULT_REFLECTION_PORTS = (123,)
# Bounds of what packets.csv can hold, so every file synth writes reads
# back: a 9-digit len_bytes, and timestamps up to 9999-12-31T23:59:59;
# flows.csv holds a bitrate_bps up to ioformats.MAX_BITRATE_BPS.
MAX_PACKET_BYTES = 999_999_999
MAX_DURATION_S = MAX_TS_US // US_PER_S
# The most packet rows a scenario may plan, so that a spec too large to
# generate is refused before any draw instead of exhausting memory
MAX_PACKET_ROWS = 10_000_000

# Flow-summary source counts are modeled, not measured: uniform spoofing
# makes nearly every packet a fresh source; a non-spoofed flood comes from
# a bounded bot population.
NONSPOOFED_SOURCES = 100


@dataclass(frozen=True)
class AttackSpec:
    type: str
    victim: str                       # host IP or prefix (carpet bombing)
    start_s: float
    duration_s: float
    rate_pps: float
    packet_bytes: int = 110
    reflector_subset: int = 0         # reflection only: sensors to select
    spoof: str = "uniform"
    ports: tuple[int, ...] = DEFAULT_REFLECTION_PORTS  # reflection dst service ports
    amplification: float = 1.0        # reflection only: response/request byte ratio

    def __post_init__(self):
        if self.type not in ATTACK_TYPES:
            raise ValueError(f"unknown attack type {self.type!r}")
        if self.rate_pps <= 0 or self.duration_s <= 0:
            raise ValueError("rate and duration must be positive")
        if self.type == "rsdos" and round(self.rate_pps * self.duration_s) < 1:
            raise ValueError(f"rsdos attack on {self.victim} has no packets: "
                             f"rate_pps * duration_s = {self.rate_pps * self.duration_s:g} rounds to 0")
        if self.start_s < 0:
            raise ValueError("attack cannot start before the scenario")
        if self.packet_bytes < 20:
            raise ValueError("packet_bytes below IPv4 minimum")
        if self.packet_bytes > MAX_PACKET_BYTES:
            raise ValueError(f"packet_bytes {self.packet_bytes} above {MAX_PACKET_BYTES}")
        if self.spoof not in ("uniform", "none"):
            raise ValueError(f"unknown spoof mode {self.spoof!r}")
        if self.type == "reflection" and self.reflector_subset < 1:
            raise ValueError("reflection attacks need at least one sensor")
        if self.amplification <= 0:
            raise ValueError("amplification must be positive")
        if not self.bitrate_bps <= MAX_BITRATE_BPS:
            raise ValueError(f"bitrate_bps {self.bitrate_bps:g} above {MAX_BITRATE_BPS}")
        if self.type == "reflection" and not (self.ports and all(0 <= p <= 65535 for p in self.ports)):
            raise ValueError(f"reflection needs ports in [0, 65535], got {self.ports}")
        parse_prefix(self.victim)  # validates
        object.__setattr__(self, "ports", tuple(self.ports))

    def planned_rows(self, n_addresses: int) -> float:
        """The packet rows it is expected to emit with a telescope of
        `n_addresses`: a reflection's requests, or the share of an rsdos
        attack's packets that lands on the telescope."""
        if self.type == "reflection":
            return round(self.rate_pps * self.duration_s)
        if self.type == "rsdos":
            return round(self.rate_pps * self.duration_s) * n_addresses / ADDRESS_SPACE
        return 0

    @property
    def bitrate_bps(self) -> float:
        """Its flow summary's bitrate; only a reflection's bytes are amplified."""
        return self.rate_pps * self.packet_bytes * 8.0 * (self.amplification if self.type == "reflection" else 1.0)


# a spec's numbers are kept as float()
FLOAT = Kind(NUMBER.what, NUMBER.test, float)
ATTACK = fields_of(AttackSpec, {"str": STRING, "float": FLOAT, "int": INTEGER,
                                "tuple[int, ...]": list_of("a list of integers", INTEGER.test, tuple)})
SCENARIO = {"seed": (INTEGER, REQUIRED), "duration_s": (FLOAT, REQUIRED), "telescope": (OBJECT, REQUIRED),
            "honeypot_sensors": (list_of("a list of strings", STRING.test, tuple), ()),
            "attacks": (list_of("a list", OBJECT.test), REQUIRED)}


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    duration_s: float
    telescope_addresses: int
    honeypot_sensors: tuple[str, ...]
    attacks: tuple[AttackSpec, ...]

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not self.duration_s <= MAX_DURATION_S:
            raise ValueError(f"duration_s {self.duration_s:g} ends the scenario past 9999-12-31T23:59:59")
        if not 1 <= self.telescope_addresses <= ADDRESS_SPACE:
            raise ValueError("telescope size out of range")
        for ip in self.honeypot_sensors:
            ip_to_int(ip)
        if len(set(self.honeypot_sensors)) != len(self.honeypot_sensors):
            raise ValueError("duplicate honeypot sensors")
        for a in self.attacks:
            if a.start_s + a.duration_s > self.duration_s:
                raise ValueError(
                    f"attack on {a.victim} runs past the scenario end"
                )
            if a.type == "reflection" and a.reflector_subset > len(self.honeypot_sensors):
                raise ValueError(
                    f"attack on {a.victim} wants {a.reflector_subset} sensors, "
                    f"only {len(self.honeypot_sensors)} exist"
                )
        rows = sum(a.planned_rows(self.telescope_addresses) for a in self.attacks)
        if rows > MAX_PACKET_ROWS:
            raise ValueError(f"the attacks plan {rows:.4g} packet rows, above the {MAX_PACKET_ROWS} "
                             "a scenario may hold")

    @classmethod
    def from_json(cls, doc: dict) -> "ScenarioSpec":
        spec = read(doc, SCENARIO, "scenario")
        spec["telescope_addresses"] = read(spec.pop("telescope"), {"n_addresses": (INTEGER, REQUIRED)},
                                           "telescope")["n_addresses"]
        spec["attacks"] = tuple(AttackSpec(**read(a, ATTACK, f"attacks[{i}]")) for i, a in enumerate(spec["attacks"]))
        return cls(**spec)

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        return cls.from_json(load_json(path))


@dataclass
class GeneratedScenario:
    telescope_packets: PacketBatch
    honeypot_packets: dict[str, PacketBatch]  # sensor IP -> packets
    # the packet length of each row, which packets.csv holds and a PacketBatch does not
    telescope_lengths: np.ndarray
    honeypot_lengths: dict[str, np.ndarray]   # sensor IP -> lengths
    flows: FlowBatch
    ground_truth: dict


def _attack_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


# The columns synth builds: a PacketBatch's, then the packet length that packets.csv holds
_COLUMNS = {**PacketBatch.DTYPES, "length": np.int32}


def generate(spec: ScenarioSpec) -> GeneratedScenario:
    """Materialize a scenario: sensor packet streams, flow summaries, and
    per-attack ground truth. Deterministic given (spec, seed).

    Each attack's row count comes first, so every column is allocated
    once, at its full length, and each attack writes its draws straight
    into its own rows. An rsdos attack's count is the first draw of its
    generator, which _emit_rsdos draws again from a fresh one."""
    counts = [int(_telescope_counts(atk, _attack_rng(spec.seed, idx), spec.telescope_addresses).sum())
              if atk.type == "rsdos" else atk.reflector_subset * _per_sensor(atk) if atk.type == "reflection"
              else 0 for idx, atk in enumerate(spec.attacks)]
    # the telescope's rows (rsdos) and every sensor's (reflection, dst the sensor)
    columns = {kind: {name: np.empty(sum(n for a, n in zip(spec.attacks, counts) if a.type == kind), dtype)
                      for name, dtype in _COLUMNS.items()} for kind in ("rsdos", "reflection")}
    filled = dict.fromkeys(columns, 0)
    rows: dict = {}                     # an attack's views of its rows in the columns
    flows: list[tuple] = []             # one FlowBatch row per attack
    truth_attacks: list[dict] = []
    sample_prob = spec.telescope_addresses / ADDRESS_SPACE

    for idx, atk in enumerate(spec.attacks):
        rng = _attack_rng(spec.seed, idx)
        net, plen = parse_prefix(atk.victim)
        start_us = int(round(atk.start_s * US_PER_S))
        end_us = int(round((atk.start_s + atk.duration_s) * US_PER_S))
        total_pkts = int(round(atk.rate_pps * atk.duration_s))
        entry: dict = {
            "index": idx,
            "type": atk.type,
            "victim": atk.victim,
            "start_ts_us": start_us,
            "end_ts_us": end_us,
            "attack_packets": total_pkts,
        }
        if atk.type in columns:
            lo = filled[atk.type]
            filled[atk.type] += counts[idx]
            rows = {name: col[lo:filled[atk.type]] for name, col in columns[atk.type].items()}
            rows["length"][:] = atk.packet_bytes

        # flow summary: (protocol, src port, distinct sources)
        if atk.type == "rsdos":
            _emit_rsdos(atk, rng, spec.telescope_addresses, rows)
            entry["telescope"] = {
                "sample_probability": sample_prob,
                "expected_packets": total_pkts * sample_prob,
                "observed_packets": counts[idx],
            }
            sources = min(total_pkts, ADDRESS_SPACE) if atk.spoof == "uniform" else NONSPOOFED_SOURCES
            protocol, src_port = 6, 0
        elif atk.type == "reflection":
            sensors_hit, per_sensor = _emit_reflection(atk, rng, spec.honeypot_sensors, rows)
            entry["honeypot"] = {
                "sensors": sensors_hit,
                "packets_per_sensor": per_sensor,
                "dst_ports": list(atk.ports),
            }
            sources = atk.reflector_subset
            protocol, src_port = 17, atk.ports[0]
        else:  # direct_nonspoofed: flows only, invisible to telescope and honeypots
            protocol, src_port, sources = 6, 0, NONSPOOFED_SOURCES

        bitrate = atk.bitrate_bps
        flows.append((net, protocol, src_port, sources, bitrate, start_us, end_us))
        entry["flow"] = {"protocol": protocol, "src_port": src_port,
                         "distinct_src_ips": sources, "bitrate_bps": bitrate}
        truth_attacks.append(entry)
    del rows        # its views would keep the unsorted columns alive

    flow_rows = FlowBatch.from_rows(flows)
    for entry, ra, dp in zip(truth_attacks, *attack_masks(flow_rows)):
        entry["flow"]["classification"] = "RA" if ra else "DP" if dp else None
    telescope_rows, telescope_lengths = _sorted(columns.pop("rsdos"))
    # by sensor first, so each sensor's rows are one slice, in the order of the others
    honeypot_rows, honeypot_lengths = _sorted(columns.pop("reflection"), by_dst=True)
    ips = [ip_to_int(ip) for ip in spec.honeypot_sensors]
    sensor_rows = {ip: slice(lo, hi) for ip, lo, hi in zip(spec.honeypot_sensors, *(
        np.searchsorted(honeypot_rows.dst, ips, side).tolist() for side in ("left", "right")))}
    ground_truth = {
        "seed": spec.seed,
        "duration_s": spec.duration_s,
        "telescope": {
            "n_addresses": spec.telescope_addresses,
            "sample_probability": sample_prob,
        },
        "rng": "philox4x64-10, key = (seed, attack index)",
        "attacks": truth_attacks,
    }
    return GeneratedScenario(
        telescope_packets=telescope_rows,
        honeypot_packets={ip: honeypot_rows.take(rows) for ip, rows in sensor_rows.items()},
        telescope_lengths=telescope_lengths,
        honeypot_lengths={ip: honeypot_lengths[rows] for ip, rows in sensor_rows.items()},
        flows=flow_rows.take(np.lexsort((flow_rows.target, flow_rows.start_ts))),
        ground_truth=ground_truth,
    )


def _sorted(cols: dict[str, np.ndarray], by_dst: bool = False) -> tuple[PacketBatch, np.ndarray]:
    """The rows of `cols`, one array per column of _COLUMNS, and their
    lengths, in (ts, src, dst, src_port, dst_port, protocol, length, flags)
    order, first by dst if `by_dst`: a total order on row contents, so it
    does not depend on the order of the attacks. The columns are sorted
    one at a time, so no step copies all of them."""
    order = np.lexsort((cols["flags"], cols["length"], cols["protocol"], cols["dst_port"], cols["src_port"],
                        cols["dst"], cols["src"], cols["ts"]) + ((cols["dst"],) if by_dst else ()))
    for name in cols:
        cols[name] = cols[name][order]
    length = cols.pop("length")
    return PacketBatch(**cols), length


def _seconds(start_s: float, until: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each attack second's first microsecond and its span in microseconds;
    second i runs from start_s + i to start_s + until[i]."""
    sec = np.arange(len(until), dtype=np.float64)
    base = np.round((start_s + sec) * US_PER_S).astype(np.int64)
    width = np.maximum(1, np.round((until - sec) * US_PER_S)).astype(np.int64)
    return base, width


def _victim_sources(rng, net: int, plen: int, n: int):
    """`n` uniform draws from the victim prefix, or its address for a /32."""
    return net | rng.integers(0, 1 << (32 - plen), n) if plen < 32 else net


def _rsdos_until(atk: AttackSpec) -> np.ndarray:
    """Where each second of an rsdos attack ends, in seconds from its start."""
    return np.minimum(np.arange(1, math.ceil(atk.duration_s) + 1, dtype=np.float64), atk.duration_s)


def _telescope_counts(atk: AttackSpec, rng, n_addresses: int) -> np.ndarray:
    """The packets of each second of an rsdos attack that land on the
    telescope's `n_addresses`: a binomial draw of the victim's responses,
    the first draw of the attack's generator `rng`.

    Per-second attack packet counts follow cumulative quotas, so they sum
    exactly to round(rate * duration) and the total observed count is a
    Binomial(total, n/2^32) sample.
    """
    quotas = np.diff(np.round(atk.rate_pps * _rsdos_until(atk)), prepend=0.0).astype(np.int64)
    return rng.binomial(quotas, n_addresses / ADDRESS_SPACE)


def _emit_rsdos(atk: AttackSpec, rng, n_addresses: int, rows: dict) -> None:
    """Backscatter sampling: writes the telescope packets of each attack
    second into `rows`, one array per column of _COLUMNS but the length."""
    seen = _telescope_counts(atk, rng, n_addresses)
    base, width = _seconds(atk.start_s, _rsdos_until(atk))
    ts = rows["ts"]
    ts[:] = rng.integers(0, np.repeat(width, seen))
    ts += np.repeat(base, seen)
    net, plen = parse_prefix(atk.victim)
    rows["src"][:] = _victim_sources(rng, net, plen, len(ts))
    dst = rng.integers(0, n_addresses, len(ts))
    dst += TELESCOPE_BASE
    if len(dst) and dst.max() > 0xFFFFFFFF:
        raise ValueError(f"IPv4 int out of range: {int(dst.max())}")
    rows["dst"][:] = dst
    del dst
    rows["dst_port"][:] = rng.integers(1024, 65536, len(ts))
    rows["protocol"][:], rows["src_port"][:], rows["flags"][:] = 6, 80, FLAG_S | FLAG_A


def _per_sensor(atk: AttackSpec) -> int:
    """The requests a reflection sends each sensor it chooses."""
    return int(round(atk.rate_pps * atk.duration_s / atk.reflector_subset))


def _emit_reflection(atk: AttackSpec, rng, sensors: tuple[str, ...], rows: dict) -> tuple[list[str], int]:
    """Spoofed requests from the victim to a seeded subset of the sensors:
    per_sensor requests each, spread over the attack's whole seconds, their
    dst ports cycling through `atk.ports` in time order. Writes them into
    `rows` as _emit_rsdos does, sensor by sensor, and returns the sensors
    chosen and per_sensor."""
    chosen_idx = sorted(int(i) for i in rng.choice(len(sensors), atk.reflector_subset, replace=False))
    chosen = [sensors[i] for i in chosen_idx]
    per_sensor = _per_sensor(atk)
    rows["src_port"][:] = rng.integers(1024, 65536)
    whole_seconds = max(1, int(atk.duration_s))
    quotas = np.diff(per_sensor * np.arange(whole_seconds + 1) // whole_seconds)
    until = np.minimum(np.arange(1, whole_seconds + 1, dtype=np.float64), atk.duration_s)
    base, width = (np.repeat(col, quotas) for col in _seconds(atk.start_s, until))
    # one row of the column views per sensor
    ts, dst, dst_port = (rows[name].reshape(len(chosen), per_sensor) for name in ("ts", "dst", "dst_port"))
    ts[:] = rng.integers(0, width, ts.shape)
    ts += base
    ts.sort(axis=1)
    net, plen = parse_prefix(atk.victim)
    rows["src"][:] = _victim_sources(rng, net, plen, ts.size)
    dst[:] = np.array([ip_to_int(s) for s in chosen], np.uint32)[:, None]
    ports = np.array(atk.ports)
    dst_port[:] = ports[np.arange(per_sensor) % len(ports)]
    rows["protocol"][:], rows["flags"][:] = 17, 0
    return chosen, per_sensor


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

def sensor_filename(sensor_ip: str) -> str:
    return f"honeypot_{sensor_ip}.csv"


def write_scenario(generated: GeneratedScenario, out_dir) -> dict[Path, object]:
    """Write telescope.csv, one honeypot_<sensor>.csv per sensor, flows.csv,
    and ground_truth.json into `out_dir`. Returns each path written, in that
    order, with what was written to it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [(out_dir / "telescope.csv", write_packets, generated.telescope_packets, generated.telescope_lengths)]
    files += [(out_dir / sensor_filename(sensor), write_packets, generated.honeypot_packets[sensor],
               generated.honeypot_lengths[sensor])
              for sensor in sorted(generated.honeypot_packets, key=ip_to_int)]
    files += [(out_dir / "flows.csv", write_flows, generated.flows),
              (out_dir / "ground_truth.json", write_json, generated.ground_truth)]
    for path, write, content, *lengths in files:
        write(path, content, *lengths)
    return {path: content for path, _, content, *_ in files}
