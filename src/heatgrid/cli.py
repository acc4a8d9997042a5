"""
Command-line driver: run, compare, and benchmark the two solvers.

``run`` simulates a building against a weather file and writes per-step
temperature snapshots, a convergence trace, and a manifest of the resolved
configuration. ``compare`` runs both solvers on identical inputs and
reports their per-cell agreement. ``bench`` times both solvers and writes
a benchmark table.

Both solvers are driven through the same step interface; nothing here
depends on which implementation is behind a name.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import List, Optional

import numpy as np
import yaml

from . import __version__
from .building import load_building_file
from .oracle_solver import oracle_step
from .tensor_solver import SolverError, run_episode, step
from .weather import load_weather_file

SOLVERS = {
    "tensor": step,
    "iterative": oracle_step,
}

#: Previously reported wall-clock result for this formulation (measured on
#: a Ryzen 7 5800X with an RTX 3080); kept in the bench artifact so local
#: figures have a point of reference.
REFERENCE_BENCHMARK = {
    "speedup": 4.19,
    "total_time_iterative": 12.70,
    "total_time_tensorized": 3.03,
    "hardware": "AMD Ryzen 7 5800X, 48 GB DDR4, NVIDIA RTX 3080",
}


@dataclass
class ComparisonReport:
    """Per-cell agreement between the two solvers over a run."""

    per_cell_max_rel_diff: float
    per_cell_max_abs_diff: float
    sig_figs_agreement: int
    passed: bool


@dataclass
class BenchmarkReport:
    solver_name: str
    total_time: float
    mean_per_step: float
    per_step_times: List[float]


def default_building_path() -> Path:
    return Path(str(resources.files("heatgrid.data") / "two_zone_building.yaml"))


def default_weather_path() -> Path:
    return Path(str(resources.files("heatgrid.data") / "summer_day_weather.csv"))


def _write_snapshots(out_dir: Path, grid, snapshots, with_mass: bool) -> None:
    header = "row,col,cv_type,t" + (",t_mass" if with_mass else "")
    kinds = grid.cv_type.tolist()
    cells = [f"{r},{c},{kinds[r][c]}" for r in range(grid.rows) for c in range(grid.cols)]
    for snap in snapshots:
        columns = [cells, map(repr, snap.t.ravel().tolist())]
        if with_mass:
            columns.append(map(repr, snap.mass.t_mass.ravel().tolist()))
        body = "\n".join(map(",".join, zip(*columns)))
        path = out_dir / f"snapshot_{snap.step_index:04d}.csv"
        path.write_text(f"{header}\n{body}\n", encoding="utf-8")


def _write_trace(out_dir: Path, reports) -> None:
    lines = ["step,inner_iterations,max_delta,converged,wall_time,mixed_from"]
    for i, report in enumerate(reports, start=1):
        lines.append(
            f"{i},{report.inner_iterations},{repr(report.max_delta)},"
            f"{report.converged},{repr(report.wall_time)},{report.mixed_from}"
        )
    (out_dir / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _config_manifest(config) -> dict:
    doc = asdict(config)
    doc["site"] = asdict(config.site) if config.site else None
    return doc


def _write_manifest(out_dir: Path, args, config, extra: Optional[dict] = None) -> None:
    manifest = {
        "tool": f"heatgrid {__version__}",
        "building": str(args.building),
        "weather": str(args.weather),
        "steps": args.steps,
        "config": _config_manifest(config),
    }
    if getattr(args, "solver", None):
        manifest["solver"] = args.solver
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.yaml").write_text(
        yaml.safe_dump(manifest, sort_keys=False), encoding="utf-8"
    )


def _load_inputs(args):
    grid, mats, config = load_building_file(args.building)
    records = load_weather_file(args.weather)
    return grid, mats, config, records


def cmd_run(args) -> int:
    grid, mats, config, records = _load_inputs(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshots, reports = run_episode(
        grid, mats, config, records, args.steps, stepper=SOLVERS[args.solver]
    )
    _write_snapshots(out_dir, grid, snapshots, config.enable_interior_mass)
    _write_trace(out_dir, reports)
    _write_manifest(out_dir, args, config)
    unconverged = sum(1 for r in reports if not r.converged)
    print(f"{args.solver}: {len(reports)} steps -> {out_dir}")
    if unconverged:
        print(f"warning: {unconverged} step(s) did not converge", file=sys.stderr)
        return 1
    return 0


def compare_runs(grid, mats, config, records, steps: int) -> ComparisonReport:
    """Run every registered solver on identical inputs and diff the fields."""
    trajectories = {}
    for name, solver in SOLVERS.items():
        snapshots, _reports = run_episode(
            grid, mats, config, records, steps, stepper=solver
        )
        trajectories[name] = snapshots

    names = list(trajectories)
    first, second = trajectories[names[0]], trajectories[names[1]]
    max_rel = 0.0
    max_abs = 0.0
    for a, b in zip(first, second):
        diff = np.abs(a.t - b.t)
        max_abs = max(max_abs, float(diff.max()))
        max_rel = max(max_rel, float((diff / np.abs(b.t)).max()))
    sig_figs = int(math.floor(-math.log10(max_rel))) if max_rel > 0.0 else 16
    return ComparisonReport(
        per_cell_max_rel_diff=max_rel,
        per_cell_max_abs_diff=max_abs,
        sig_figs_agreement=sig_figs,
        passed=max_rel <= 1e-5,
    )


def cmd_compare(args) -> int:
    grid, mats, config, records = _load_inputs(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = compare_runs(grid, mats, config, records, args.steps)
    doc = {
        "solvers": sorted(SOLVERS),
        "steps": args.steps,
        "per_cell_max_rel_diff": report.per_cell_max_rel_diff,
        "per_cell_max_abs_diff": report.per_cell_max_abs_diff,
        "sig_figs_agreement": report.sig_figs_agreement,
        "pass": report.passed,
    }
    (out_dir / "comparison.yaml").write_text(
        yaml.safe_dump(doc, sort_keys=False), encoding="utf-8"
    )
    _write_manifest(out_dir, args, config)
    print(
        f"max rel diff {report.per_cell_max_rel_diff:.3e} "
        f"({report.sig_figs_agreement} significant figures) -> "
        + ("PASS" if report.passed else "FAIL")
    )
    return 0 if report.passed else 1


def bench_solvers(grid, mats, config, records, steps: int, repeats: int):
    """Best-of-``repeats`` timing for every solver; returns reports and raw totals."""
    results = {}
    raw_totals = {}
    for name, solver in SOLVERS.items():
        best: Optional[BenchmarkReport] = None
        totals = []
        for _ in range(repeats):
            _snapshots, reports = run_episode(
                grid, mats, config, records, steps, stepper=solver
            )
            times = [r.wall_time for r in reports]
            total = sum(times)
            totals.append(total)
            if best is None or total < best.total_time:
                best = BenchmarkReport(
                    solver_name=name,
                    total_time=total,
                    mean_per_step=total / len(times),
                    per_step_times=times,
                )
        results[name] = best
        raw_totals[name] = totals
    return results, raw_totals


def cmd_bench(args) -> int:
    grid, mats, config, records = _load_inputs(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results, raw_totals = bench_solvers(
        grid, mats, config, records, args.steps, args.repeats
    )
    speedup = results["iterative"].total_time / results["tensor"].total_time
    doc = {
        "steps": args.steps,
        "repeats": args.repeats,
        "solvers": {
            name: {
                "total_time": report.total_time,
                "mean_per_step": report.mean_per_step,
                "per_step_times": report.per_step_times,
                "repeat_totals": raw_totals[name],
            }
            for name, report in results.items()
        },
        "speedup": speedup,
        "reference": REFERENCE_BENCHMARK,
    }
    (out_dir / "bench.yaml").write_text(
        yaml.safe_dump(doc, sort_keys=False), encoding="utf-8"
    )
    _write_manifest(out_dir, args, config)

    print(f"{'metric':<20}{'iterative':>12}{'tensorized':>12}")
    print(f"{'total time (s)':<20}{results['iterative'].total_time:>12.3f}"
          f"{results['tensor'].total_time:>12.3f}")
    print(f"{'mean per step (ms)':<20}{results['iterative'].mean_per_step * 1e3:>12.4f}"
          f"{results['tensor'].mean_per_step * 1e3:>12.4f}")
    print(f"{'speedup':<20}{speedup:>24.2f}x")
    print(f"(reference run: {REFERENCE_BENCHMARK['speedup']}x on "
          f"{REFERENCE_BENCHMARK['hardware']})")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatgrid",
        description="2D building thermal simulation with radiative exchange",
    )
    parser.add_argument("--version", action="version", version=f"heatgrid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--building", default=default_building_path(),
                       help="building description YAML (default: bundled two-zone plan)")
        p.add_argument("--weather", default=default_weather_path(),
                       help="weather CSV (default: bundled synthetic day)")
        p.add_argument("--steps", type=_positive_int, default=10,
                       help="number of simulation steps (default 10)")
        p.add_argument("--out", default="out", help="output directory")

    run_p = sub.add_parser("run", help="simulate and write snapshots")
    common(run_p)
    run_p.add_argument("--solver", choices=sorted(SOLVERS), default="tensor")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run both solvers and diff the fields")
    common(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    bench_p = sub.add_parser("bench", help="time both solvers")
    common(bench_p)
    bench_p.add_argument("--repeats", type=_positive_int, default=1,
                         help="timing repeats, best-of reported (default 1)")
    bench_p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
