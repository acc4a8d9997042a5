"""Benchmark of ``heatgrid run --solver tensor``: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload canonical_day --seed 1 --seconds 30 --trace 0

Each measured run is a fresh process (``launch.py``) running ``heatgrid
run`` on the workload's inputs, one process at a time, until ``--seconds``
have passed and at least ``MIN_RUNS`` runs passed. Every run is checked:
exit status 0, every step converged, every snapshot present and finite,
snapshots byte-identical across runs. ``max_rel_err`` compares
the snapshots with reference-solver fields computed once per invocation.

With ``--trace 1`` untraced and traced runs alternate; the traced runs
report per-layer self times (see ``layers.py``), their snapshots must match
the untraced ones byte for byte, and the difference in ``run_s`` is the
tracing overhead. ``--workload all`` runs every workload in turn.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or the per-layer ones
with ``--trace 1``), each metric as ``{"value": ..., "unit": ...}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from layers import TARGETS
from workloads import ROOT, WORKLOADS, Workload, write_inputs

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
LAUNCH = HERE / "launch.py"
TIME_LIMIT = 150.0  # s from the first run; a run still going after this is killed
TAIL_BEYOND = 10  # steps of a run that lie beyond its tail percentile
MIN_RUNS = 3  # untraced runs (and traced ones, with --trace 1) an invocation needs
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms": "ms",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "max_rel_err": "ratio",
}
#: Per-layer self times reported for the whole run [s].
RUN_LAYERS = ("import.heatgrid", "building.load", "weather.load",
              "radiation.exchange_build", "cli.output")
#: Per-layer self times reported per timestep [ms].
STEP_LAYERS = ("conditions.boundary", "solar.position", "radiation.exterior_lw",
               "radiation.interior_lw", "radiation.solar", "mass.update",
               "tensor_solver.shift", "tensor_solver.self")
#: Every layer a traced run must report: the wrapped ones and the import.
TRACED_LAYERS = {layer for layer, _owner, _name in TARGETS} | {"import.heatgrid"}
#: Counts read from the exchange matrix a traced run builds.
EXCHANGE_COUNTS = ("radiation.exchange_mb", "radiation.n_surfaces")
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in RUN_LAYERS},
    **{f"{layer}_ms_per_step": "ms" for layer in STEP_LAYERS},
    "radiation.exchange_mb": "MB",
    "radiation.n_surfaces": "count",
    "tensor_solver.iterations_per_step": "count",
    "tensor_solver.unconverged_steps": "count",
    "cli.output_mb": "MB",
    "trace.other_s": "s",
    "trace.overhead_s": "s",
}

clock = time.perf_counter  # CLOCK_MONOTONIC, the clock launch.py records on


class RunFailure(Exception):
    """A run whose process or outputs failed a check."""


@dataclass
class Run:
    traced: bool
    run_s: float = math.nan
    setup_s: float = math.nan
    step_ms: List[float] = field(default_factory=list)
    peak_rss_mb: float = math.nan
    output_mb: float = math.nan
    iterations: List[int] = field(default_factory=list)
    unconverged: int = 0
    record: dict = field(default_factory=dict)
    error: Optional[str] = None


def installed(package: str) -> Optional[str]:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **{package: installed(package) for package in ("numpy", "scipy", "PyYAML")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def oracle_fields(workload: Workload, building: Path, weather: Path):
    """Reference-solver temperature fields for the first ``oracle_steps`` steps."""
    import heatgrid as hg

    grid, mats, config = hg.load_building_file(building)
    records = hg.load_weather_file(weather)
    snapshots, _ = hg.run_episode(grid, mats, config, records, workload.oracle_steps,
                                  stepper=hg.oracle_step)
    return [s.t for s in snapshots]


def spawn(cmd: List[str], env: dict, stderr_path: Path, deadline: float):
    """Run ``cmd`` to completion, killing it at ``deadline``.

    Returns (wall seconds, spawn time, exit code).
    """
    with open(stderr_path, "w", encoding="utf-8") as stderr:
        start = clock()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=stderr)
        try:
            proc.wait(timeout=max(deadline - clock(), 1.0))
        except subprocess.TimeoutExpired:
            pass  # killed below; the run fails on its exit status
        finally:
            proc.kill()  # does nothing once the process has been waited for
            proc.wait()
        end = clock()
    return end - start, start, proc.returncode


def read_trace(out: Path, steps: int):
    """Inner iterations per step and the unconverged step count, from ``trace.csv``."""
    rows = [line.split(",") for line in
            (out / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]]
    if len(rows) != steps:
        raise RunFailure(f"trace.csv has {len(rows)} steps, expected {steps}")
    return [int(row[1]) for row in rows], sum(row[3] != "True" for row in rows)


def snapshot_paths(out: Path, steps: int) -> List[Path]:
    paths = [out / f"snapshot_{i:04d}.csv" for i in range(1, steps + 1)]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        raise RunFailure(f"{len(missing)} snapshot(s) missing, first {missing[0]}")
    return paths


def check_snapshots(paths: List[Path], reference) -> float:
    """Parse every snapshot; returns the max relative difference to ``reference``."""
    import numpy as np

    shape = reference[0].shape
    worst = 0.0
    for index, path in enumerate(paths):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] != shape[0] * shape[1] or not np.isfinite(data).all():
            raise RunFailure(f"{path.name} is incomplete or holds a non-finite value")
        if index < len(reference):
            t = data[:, 3].reshape(shape)
            worst = max(worst, float((np.abs(t - reference[index])
                                      / np.abs(reference[index])).max()))
    return worst


class Harness:
    """Measured runs of one workload, sharing inputs, reference and checks."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.building, self.weather = write_inputs(workload, seed, work)
        self.reference = oracle_fields(workload, self.building, self.weather)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.digest: Optional[str] = None
        self.max_rel_err = math.nan
        self.runs: List[Run] = []

    def measure(self, traced: bool, deadline: float) -> Run:
        w = self.workload
        index = len(self.runs)
        out = self.work / f"run{index}"
        record_path = self.work / f"run{index}.json"
        cmd = [sys.executable, str(LAUNCH), str(record_path), "1" if traced else "0",
               "--", "run", "--solver", "tensor", "--building", str(self.building),
               "--weather", str(self.weather), "--steps", str(w.steps), "--out", str(out)]
        run = Run(traced=traced)
        self.runs.append(run)
        stderr_path = self.work / f"run{index}.err"
        run.run_s, started, code = spawn(cmd, self.env, stderr_path, deadline)
        try:
            if code != 0:
                tail = stderr_path.read_text(encoding="utf-8").strip().splitlines()[-3:]
                raise RunFailure(f"exit status {code}: {' | '.join(tail)}")
            run.iterations, run.unconverged = read_trace(out, w.steps)
            if run.unconverged:
                raise RunFailure(f"{run.unconverged} step(s) did not converge")
            run.record = json.loads(record_path.read_text(encoding="utf-8"))
            starts, ends = run.record["step_start"], run.record["step_end"]
            if len(starts) != w.steps or len(ends) != w.steps:
                raise RunFailure(f"probes saw {len(starts)}/{len(ends)} step starts/ends")
            uncalled = TRACED_LAYERS - set(run.record.get("layers", TRACED_LAYERS))
            if uncalled:
                raise RunFailure(f"traced run never called {', '.join(sorted(uncalled))}")
            run.peak_rss_mb = run.record["peak_rss_mb"]
            run.setup_s = starts[0] - started
            run.step_ms = [(b - a) * 1e3 for a, b in zip(starts, ends)]
            paths = snapshot_paths(out, w.steps)
            hasher = hashlib.sha256()
            for path in paths:
                hasher.update(path.read_bytes())
            digest = hasher.hexdigest()
            if self.digest is None:
                self.max_rel_err = check_snapshots(paths, self.reference)
                self.digest = digest
            elif digest != self.digest:
                raise RunFailure("snapshots differ from the first run's")
            run.output_mb = sum(p.stat().st_size for p in out.iterdir()) / 1e6
        except (RunFailure, OSError, ValueError, KeyError) as exc:
            run.error = str(exc) if isinstance(exc, RunFailure) else repr(exc)
            print(f"run {index} ({'traced' if traced else 'untraced'}) failed: "
                  f"{run.error}", file=sys.stderr)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return run

    def passed(self, traced: bool) -> List[Run]:
        return [r for r in self.runs if r.traced == traced and r.error is None]


def tail_level(steps: int) -> float:
    """Highest percentile of a run's steps with ``TAIL_BEYOND`` steps beyond it."""
    return 100.0 * (1.0 - TAIL_BEYOND / steps)


def tail(samples: List[float]) -> float:
    """Nearest-rank value at ``tail_level``: the ``TAIL_BEYOND + 1``-th largest."""
    return sorted(samples)[-TAIL_BEYOND - 1]


def summary(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g} .. {q3:.6g}"


def end_to_end(h: Harness, lines: List[str]) -> Dict[str, float]:
    runs = h.passed(False)
    steps = [ms for r in runs for ms in r.step_ms]
    tails = [tail(r.step_ms) for r in runs]
    values = {
        "run_s": statistics.median(r.run_s for r in runs),
        "setup_s": statistics.median(r.setup_s for r in runs),
        "step_ms": statistics.median(steps),
        "step_ms_tail": statistics.median(tails),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "max_rel_err": h.max_rel_err,
    }
    notes = {
        "run_s": summary([r.run_s for r in runs]),
        "setup_s": summary([r.setup_s for r in runs]),
        "step_ms": f"median of {len(steps)} steps",
        "step_ms_tail": f"p{tail_level(h.workload.steps):.4g} of each run's "
                        f"{h.workload.steps} steps; {summary(tails)}",
        "peak_rss_mb": summary([r.peak_rss_mb for r in runs]),
        "max_rel_err": f"first {h.workload.oracle_steps} steps vs reference solver",
    }
    for name, value in values.items():
        lines.append(f"  {name:<40}{value:>14.6g} {END_TO_END[name]:<6}{notes[name]}")
    return values


def per_layer(h: Harness, lines: List[str]) -> Dict[str, float]:
    steps = h.workload.steps
    traced = h.passed(True)
    samples: Dict[str, List[float]] = {name: [] for name in PER_LAYER}
    for run in traced:
        layers = run.record["layers"]
        for layer in RUN_LAYERS:
            samples[f"{layer}_s"].append(layers[layer])
        for layer in STEP_LAYERS:
            samples[f"{layer}_ms_per_step"].append(layers[layer] * 1e3 / steps)
        for name in EXCHANGE_COUNTS:
            samples[name].append(run.record["counts"][name])
        samples["tensor_solver.iterations_per_step"].append(sum(run.iterations) / steps)
        samples["tensor_solver.unconverged_steps"].append(float(run.unconverged))
        samples["cli.output_mb"].append(run.output_mb)
        samples["trace.other_s"].append(run.run_s - sum(layers.values()))
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    values["trace.overhead_s"] = (statistics.median(r.run_s for r in traced)
                                  - statistics.median(r.run_s for r in h.passed(False)))
    for name, value in values.items():
        lines.append(f"  {name:<40}{value:>14.6g} {PER_LAYER[name]}")
    return values


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 lines: List[str]) -> dict:
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        h = Harness(workload, seed, work)
        window, elapsed = clock(), 0.0
        deadline = window + TIME_LIMIT
        while clock() < deadline:
            run = h.measure(traced and len(h.runs) % 2 == 1, deadline)
            elapsed = clock() - window
            enough = (len(h.passed(False)) >= MIN_RUNS
                      and (not traced or len(h.passed(True)) >= MIN_RUNS))
            failures = any(r.error is not None for r in h.runs)
            if elapsed >= seconds and (enough or failures):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in h.runs if r.error is not None)
    lines.append(f"{workload.name} seed {seed}: {len(h.runs)} runs, {failed} failed, "
                 f"{elapsed:.1f} s measured")
    metrics: Dict[str, float] = {}
    ok = bool(h.passed(False)) and (not traced or bool(h.passed(True)))
    if ok:
        metrics = per_layer(h, lines) if traced else end_to_end(h, lines)
    units = PER_LAYER if traced else END_TO_END
    return {
        "correct": ok and failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": len(h.runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heatgrid" / "__init__.py").is_file():
        print(f"error: no heatgrid sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = ["machine " + json.dumps(machine_facts(), sort_keys=True)]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), lines)
    print("\n".join(lines), flush=True)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
