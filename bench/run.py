"""Benchmark of the ddoscope pipeline on seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): synth-pipeline, darknet-logs, carpet-analysis.
The benchmark writes the workload's inputs from the seed, then runs
`ddoscope pipeline --config` from this checkout's src/ in a closed loop,
one fresh process per run, until S seconds have passed. Every bundle is
scored against the planted truth and must be byte-identical (manifest
aside) to the first one.

With --trace 0 it reports the end-to-end metrics: medians over the runs of
wall time, records per second, CPU time and peak RSS (both from the run's
own child via wait4); set-up time, the median start-up of a bare
`ddoscope pipeline --help` launched before each run; recall and precision
against the planted truth; and the share of runs that succeeded. With --trace 1 it alternates untraced runs with runs
under traced.py and reports per-layer medians from the traced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Work files live in .bench_work/
inside the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from traced import PER_LAYER, layer_metrics
from workloads import BUILDERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "traced.py"
CLI = "from ddoscope.cli import main; main(prog_name='ddoscope')"
SETUP_MIN_LAUNCHES = 5
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60
LOOP_LIMIT_S = 110      # stop starting runs after this, even below MIN_RUNS


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def run_child(argv: list[str], env: dict, cwd: Path, log: Path) -> Child:
    """Run one process to completion; resources come from its own wait4."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,   # kilobytes on Linux
        stderr=log.read_text(errors="replace").strip()[-500:],
    )


def bundle_digests(bundle: Path) -> dict[str, str]:
    return {
        p.relative_to(bundle).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(bundle.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def count_input_records(bundle: Path) -> int:
    """Packet and flow rows synth wrote into the bundle, headers excluded."""
    files = [bundle / "inputs" / "telescope.csv", bundle / "inputs" / "flows.csv"]
    files += sorted((bundle / "inputs").glob("honeypot_*.csv"))
    total = 0
    for f in files:
        with open(f, "rb") as fh:
            total += sum(1 for _ in fh) - 1
    return total


def source_lines() -> dict[str, int]:
    """Non-blank source lines per module (information only)."""
    return {
        p.stem: sum(1 for line in p.read_text().splitlines() if line.strip())
        for p in sorted((SRC / "ddoscope").glob("*.py"))
    }


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


class Bench:
    def __init__(self, args, env: dict, work: Path):
        self.args = args
        self.env = env
        self.work = work
        self.python = sys.executable

    def cli(self, *args: str) -> list[str]:
        return [self.python, "-c", CLI, *args]

    def probe(self) -> str | None:
        """Return why the program cannot run from this checkout, or None."""
        code = "import ddoscope; print(ddoscope.__file__)"
        res = subprocess.run([self.python, "-c", code], env=self.env, cwd=self.work,
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            return f"cannot import ddoscope: {res.stderr.strip()[-300:]}"
        where = Path(res.stdout.strip()).resolve()
        if SRC.resolve() not in where.parents:
            return f"ddoscope imports from {where}, not from {SRC}"
        return None

    def launch(self) -> float:
        """Wall time of one fresh `ddoscope pipeline --help` process: the
        set-up every run pays (interpreter, package import, CLI parsing)."""
        child = run_child(self.cli("pipeline", "--help"), self.env, self.work,
                          self.work / "setup.log")
        if child.code != 0:
            raise RuntimeError(f"ddoscope pipeline --help exited {child.code}: {child.stderr}")
        return child.wall_s

    def run(self) -> int:
        why = self.probe()
        if why is not None:
            print(f"bench: {why}", file=sys.stderr)
            return 2
        self.launch()           # warms the bytecode cache; not timed
        inputs = self.work / "inputs"
        inputs.mkdir()
        workload = BUILDERS[self.args.workload](inputs, self.args.seed)

        plain, problems, setups = [], [], []
        layer_runs, overheads = [], []
        last_plain = None       # the untraced run just before a traced one
        reference = score = None
        records = workload.records
        start = time.perf_counter()
        runs = 0
        min_runs = MIN_RUNS * (2 if self.args.trace else 1)
        while True:
            elapsed = time.perf_counter() - start
            if runs >= min_runs and elapsed >= self.args.seconds:
                break
            if runs >= 2 and elapsed >= LOOP_LIMIT_S:
                break
            tracing = bool(self.args.trace) and runs % 2 == 1
            if not self.args.trace:
                # set-up launches are spread over the run like the pipeline
                # runs, so both see the same drift in machine speed
                setups.append(self.launch())
            out = self.work / f"out{runs}"
            args = ["pipeline", "--config", str(workload.config), "--out", str(out)]
            spans = self.work / "spans.json"
            argv = ([self.python, str(TRACER), str(spans), *args] if tracing
                    else self.cli(*args))
            child = run_child(argv, self.env, self.work, self.work / "run.log")
            runs += 1
            failure = None
            if child.code != 0:
                failure = f"run {runs}: exit {child.code}: {child.stderr}"
            else:
                digests = bundle_digests(out)
                if reference is None:
                    reference = digests
                    score = workload.check(out)
                    if records is None:
                        records = count_input_records(out)
                    if score.problems:
                        failure = f"run {runs}: " + "; ".join(score.problems[:5])
                elif digests != reference:
                    failure = f"run {runs}: bundle differs from the first run's"
            shutil.rmtree(out, ignore_errors=True)
            if failure:
                problems.append(failure)
                last_plain = None
                continue
            if tracing:
                layer_runs.append(layer_metrics(json.loads(spans.read_text())))
                if last_plain is not None:
                    overheads.append(child.wall_s - last_plain.wall_s)
                last_plain = None
            else:
                plain.append(child)
                last_plain = child

        while not self.args.trace and len(setups) < SETUP_MIN_LAUNCHES:
            setups.append(self.launch())
        failed = len(problems)
        for p in problems[:10]:
            print(f"bench: FAIL {p}")
        if self.args.trace:
            metrics = self.layer_report(layer_runs, overheads, len(plain))
        else:
            metrics = self.end_to_end(plain, median(setups), records, score, runs, failed)
        for name, m in metrics.items():
            print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']}")
        print("  source lines: " + ", ".join(f"{k}={v}" for k, v in source_lines().items()))
        print(json.dumps({
            "correct": failed == 0 and score is not None and not score.problems,
            "attempted": runs,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0

    def end_to_end(self, ok: list[Child], setup_s, records, score, runs, failed) -> dict:
        wall = median(c.wall_s for c in ok)
        values = {
            "wall_s": (wall, "s"),
            "records_per_s": (median(records / c.wall_s for c in ok) if records else None, "1/s"),
            "cpu_s": (median(c.cpu_s for c in ok), "s"),
            "peak_rss_mb": (median(c.rss_mb for c in ok), "MB"),
            "setup_s": (setup_s, "s"),
            "recall": (score.recall if score else 0.0, "ratio"),
            "precision": (score.precision if score else 0.0, "ratio"),
            "success_rate": ((runs - failed) / runs, "ratio"),
        }
        print(f"bench: {self.args.workload} seed={self.args.seed}: {runs} runs, "
              f"{failed} failed, {records} input records")
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def layer_report(self, layer_runs: list[dict], overheads: list[float], n_plain: int) -> dict:
        """Per-layer medians over the traced runs. Tracing overhead is the
        median wall-time difference between each traced run and the
        untraced run just before it."""
        out = {}
        for name, unit in PER_LAYER:
            out[name] = {"value": median(r[name] for r in layer_runs), "unit": unit}
        out["trace.overhead_s"]["value"] = median(overheads)
        unmeasured = [k for k, v in out.items() if v["value"] is None]
        if unmeasured:
            print("bench: unmeasured (wrapped name missing): " + ", ".join(unmeasured))
        busy: dict[str, float] = {}
        for name, m in out.items():
            layer = name.split(".")[0]
            if m["unit"] == "s" and m["value"] is not None and layer not in ("pipeline", "trace"):
                busy[layer] = busy.get(layer, 0.0) + m["value"]
        if busy:
            print("bench: busy seconds per layer: " + ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(busy.items(), key=lambda kv: -kv[1])))
        print(f"bench: {self.args.workload} seed={self.args.seed}: "
              f"{len(layer_runs)} traced and {n_plain} untraced runs")
        return out


def fmt(value) -> str:
    return "unmeasured" if value is None else f"{value:.6g}"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and work files go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "ddoscope" / "cli.py").is_file():
        print(f"bench: no ddoscope sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return Bench(args, env, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
