"""Benchmark of the leinster command line: end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
Workloads (see workloads.py and README.md): verify, sweep, classify-big,
gen-dihedral.

Each repetition of a workload runs its fixed list of operations in a fresh
interpreter (child.py), so no cache or lazily verified table survives from
one repetition to the next, and each sweep cache file is new.  Before each
repetition one more interpreter only imports the package, so set-up time is
sampled across the whole run.  Repetitions continue until S seconds have
passed; every metric is a median over them.  Every time is divided by a
fixed reference timed next to it and scaled to a nominal host
(calibrate.py), because the speed of a shared host drifts.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics taken from the traced
ones (see tracer.py).  Every operation of every repetition passes the
correctness gate or is counted as failed.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The line before
it records the provenance of the run and the raw, unscaled medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import calibrate
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().with_name("child.py")
OUT_DIR = ROOT / ".perfbench_out"

DECLARED = ROOT / "BENCHMARK.json"

CHILD_TIMEOUT_S = 150
# consistency assertion: the traced self times must add up to the traced
# wall time within this share (they telescope to the root spans, so a miss
# means spans were lost or nested wrongly)
MAX_UNATTRIBUTED = 0.01


class RunError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the oracle's default order cap and the package under src/ only
    env.pop("LEINSTER_ORACLE_CAP", None)
    env.pop("PYTHONPATH", None)
    return env


def run_child(work: Path, ops: list[workloads.Op], trace: bool) -> tuple[float, dict, Path]:
    """Start one interpreter on `ops`; returns (raw setup seconds, result, spans path)."""
    rep = Path(tempfile.mkdtemp(dir=work))
    plan = {
        "ops": [list(op.argv) for op in ops],
        "cache": str(rep / "cache.jsonl"),
        "trace": trace,
        "spans": str(rep / "spans.npz"),
        "result": str(rep / "result.json"),
    }
    plan_path = rep / "plan.json"
    plan_path.write_text(json.dumps(plan))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(plan_path)],
        env=_child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(Path(plan["result"]).read_text())
    return result["ready"] - started, result, Path(plan["spans"])


def time_start_baseline() -> float:
    """Seconds to start an interpreter that only imports numpy and exits."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *calibrate.START_BASELINE],
        env=_child_env(),
        cwd=ROOT,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RunError(f"set-up reference exited {proc.returncode}")
    return time.monotonic() - started


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the maximum
    when there are at most ten samples)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def scaled_latencies(result: dict) -> list[float]:
    """The operations' seconds on the nominal host; operation i is read
    against its ticks and the readings just before and after it."""
    readings = result["readings"]
    return [
        calibrate.scaled(op["seconds"], op["sampler_s"], op["ticks"], readings[i], readings[i + 1])
        for i, op in enumerate(result["ops"])
    ]


class Run:
    """The repetitions of one benchmark run and the checks of their outputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.ops = workloads.WORKLOADS[workload](seed)
        self.instances = workloads.instance_ops(workload, self.ops)
        self.reference = workloads.load_reference()
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.start_baseline: list[float] = []
        self.plain: list[dict] = []  # per untraced repetition: latencies, wall, rss
        self.traced: list[dict] = []  # per traced repetition: layer metrics

    def _gate(self, result: dict) -> None:
        for op, got in zip(self.ops, result["ops"], strict=True):
            self.attempted += 1
            reason = workloads.check(op, got["code"], got["digest"], self.reference)
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{op.id}: {reason} {got['stderr'][-300:]}".strip())

    def _add_setup(self, setup: float) -> None:
        self.raw_setup.append(setup)
        self.setup.append(calibrate.normalize_start(setup, self.start_baseline[-1]))

    def repetition(self, trace: bool) -> None:
        setup, result, spans = run_child(self.work, self.ops, trace)
        self._gate(result)
        self._add_setup(setup)
        reading = statistics.median(result["readings"])
        if not trace:
            latencies = scaled_latencies(result)
            self.plain.append(
                {
                    "latencies": latencies,
                    "wall_s": sum(latencies),
                    "raw_wall_s": sum(op["seconds"] - op["sampler_s"] for op in result["ops"]),
                    "reading_s": reading,
                    "peak_rss_mb": result["peak_rss_mb"],
                }
            )
            return
        wall = sum(op["seconds"] for op in result["ops"])
        with np.load(spans) as table:
            layers = tracer.layer_metrics(table)
        attributed = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
        if abs(wall - attributed) > MAX_UNATTRIBUTED * wall:
            raise RunError(
                f"layer self times sum to {attributed:.6f}s but traced wall is {wall:.6f}s"
            )
        layers["trace.wall_s"] = wall
        # one scale for the whole repetition keeps the self times summing
        # to trace.wall_s
        scale = calibrate.scale(reading)
        for key in layers:
            if key.endswith("_s"):
                layers[key] *= scale
        self.traced.append(layers)

    def setup_only(self) -> None:
        setup, _, _ = run_child(self.work, [], False)
        self._add_setup(setup)


def _median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def end_to_end(run: Run) -> dict[str, float]:
    # an instance's latency is its median over the repetitions
    per_op = [statistics.median(column) for column in zip(*(r["latencies"] for r in run.plain))]
    instances = [per_op[i] for i in run.instances]
    return {
        "wall_s": _median_of(run.plain, "wall_s"),
        "op_p50_s": statistics.median(instances),
        "op_tail_s": tail(instances),
        "peak_rss_mb": _median_of(run.plain, "peak_rss_mb"),
        "setup_s": statistics.median(run.setup),
    }


def per_layer(run: Run) -> dict[str, float]:
    metrics = {key: _median_of(run.traced, key) for key in run.traced[0]}
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / _median_of(run.plain, "wall_s")
    return metrics


def raw_medians(run: Run) -> dict[str, float]:
    """The unscaled times behind the metrics, and the references' times."""
    return {
        "wall_s": _median_of(run.plain, "raw_wall_s"),
        "setup_s": statistics.median(run.raw_setup),
        "tick_s": _median_of(run.plain, "reading_s"),
        "nominal_tick_s": calibrate.NOMINAL_TICK_S,
        "start_baseline_s": statistics.median(run.start_baseline),
        "nominal_start_s": calibrate.NOMINAL_START_S,
    }


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    declared = json.loads(DECLARED.read_text())
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "leinster").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "seed": seed,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        run = Run(workload, seed, work)
        run_child(work, [], False)  # untimed: compiles bytecode once, as an install does
        start = time.monotonic()
        while time.monotonic() - start < seconds or not run.plain or (trace and not run.traced):
            run.start_baseline.append(time_start_baseline())
            run.setup_only()
            run.repetition(trace=False)
            if trace:
                run.repetition(trace=True)
        metrics = per_layer(run) if trace else end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    units = declared_units()
    return raw_medians(run), {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "leinster" / "__init__.py").is_file() or not DECLARED.is_file():
        print(f"no leinster sources under {ROOT / 'src'} or no {DECLARED.name}", file=sys.stderr)
        return 2
    try:
        raw, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"provenance": provenance(args.seed), "raw": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
