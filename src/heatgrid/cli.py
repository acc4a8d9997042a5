"""
Command-line driver: run, compare, and benchmark the two solvers.

``run`` simulates a building against a weather file and writes per-step
temperature snapshots, a convergence trace, and a manifest of the resolved
configuration. Snapshot values are written as ``repr`` writes them, by a
vectorized formatter that gives ``repr``'s bytes for 100 <= x < 512 (any
other value, or an exact 17th-digit tie, sends its block through ``repr``
itself). The snapshots are formatted and written in this process once the
last step is done. ``compare`` runs both solvers on identical inputs and
reports their per-cell agreement and each solver's unconverged steps.
``bench`` times both solvers and writes
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
from typing import Dict, List, Optional, Tuple

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
    """Per-cell agreement between the two solvers over a run.

    ``unconverged_steps`` lists, per solver, the steps (numbered from 1, as
    in ``trace.csv``) that did not converge; the comparison fails while any
    solver has one.
    """

    per_cell_max_rel_diff: float
    per_cell_max_abs_diff: float
    sig_figs_agreement: int
    passed: bool
    unconverged_steps: Dict[str, List[int]]


@dataclass
class BenchmarkReport:
    solver_name: str
    total_time: float
    mean_per_step: float
    per_step_times: List[float]
    iterations_per_step: float


def default_building_path() -> Path:
    return Path(str(resources.files("heatgrid.data") / "two_zone_building.yaml"))


def default_weather_path() -> Path:
    return Path(str(resources.files("heatgrid.data") / "summer_day_weather.csv"))


# Snapshot text: ``_float_text`` gives the bytes of ``repr(x)`` for a whole
# array of temperatures at once. Proof sketch for its domain 100 <= x < 512:
#
# * There a double's spacing is at most 2^-44 < 1e-13, so its rounding
#   interval holds at most one decimal with 13 fractional digits (16
#   significant). When one does, it is the shortest round trip: a shorter
#   decimal is also a multiple of 1e-13, so the same one. ``repr`` prints it
#   with trailing zeros stripped down to one ("300.0"). It is n - 1, n or
#   n + 1 for n = rint(x * 1e13), and c / 1e13 == x tests a candidate c:
#   c < 2^53 and 1e13 are exact doubles, so IEEE division rounds as
#   ``float(str)`` does. Division rounds monotonically, so when n / 1e13 is
#   not x, only the neighbour on x's side of it can be.
# * Otherwise ``repr`` prints 17 digits, round(x * 10^14): the nearest such
#   decimal is at most 0.5e-14 away, less than half the spacing on either
#   side (at least 2^-47), so it round-trips. The spacing is at least 2^-46,
#   so M = x * 2^46 is an integer below 2^55 and
#   x * 10^14 = M * 5^14 / 2^32 (frexp's m * 2^53 * 5^14 >> (39 - e), with
#   the mantissa shifted by e - 7). With 5^14 = 2^32 + F and M split at bit
#   32 into H and L, that is M + H*F + L*F / 2^32, where L*F < 2^63: exact in
#   uint64. A remainder of exactly half (a tie at the 17th digit) is flagged.
# * Values outside the domain, non-finite ones and ties are flagged; the
#   caller formats those with ``repr``.
#
# Integer arrays stay uint64 throughout: numpy < 2 promotes a uint64/int64
# mix to float64.

_U64 = np.uint64
_FIVE14_LOW = _U64(5**14 - 2**32)
_LOW32 = _U64(2**32 - 1)
_HALF32 = _U64(2**31)
#: Values formatted at once; larger calls run slower as temporaries leave cache.
_TEXT_CHUNK = 4096


def _text_tables():
    """4-digit ASCII groups as uint32 words, "ddd." words for the integer
    part, and each group's digit count without its trailing zeros."""
    n = np.arange(10000, dtype=np.int16)
    ascii4 = np.empty((n.size, 4), np.uint8)
    for k, scale in enumerate((1000, 100, 10, 1)):
        ascii4[:, k] = n // scale % 10 + ord("0")
    int_dot = np.concatenate([ascii4[:512, 1:], np.full((512, 1), ord("."), np.uint8)], axis=1)
    trailing = (n % 10 == 0).astype(np.int8) + (n % 100 == 0) + (n % 1000 == 0)
    kept = np.where(n == 0, -99, 4 - trailing).astype(np.int8)  # -99: ends nothing
    return ascii4.view(np.uint32).ravel(), int_dot.view(np.uint32).ravel(), kept


_GROUP_TEXT, _INT_DOT_TEXT, _GROUP_KEPT = _text_tables()


def _float_text(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bytes of ``repr`` for every value of a float64 array.

    Returns ``(text, length, uncovered)``: row ``i`` of the ``(n, 20)`` uint8
    array ``text`` starts with the ``length[i]`` bytes of ``repr(values[i])``
    unless ``uncovered[i]``, which flags a value outside 100 <= x < 512, not
    finite, or an exact tie at the 17th digit (see the notes above).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    text = np.empty((values.size, 5), np.uint32)
    length = np.empty(values.size, np.intp)
    uncovered = np.empty(values.size, bool)
    for start in range(0, values.size, _TEXT_CHUNK):
        part = slice(start, start + _TEXT_CHUNK)
        _float_text_chunk(values[part], text[part], length[part], uncovered[part])
    return text.view(np.uint8), length, uncovered


def _float_text_chunk(x, text, length, uncovered) -> None:
    # Ufuncs write into a few chunk-sized buffers (``n``, ``f``, ``m``, ``low``
    # and ``digits``) with ``out=`` rather than allocate a temporary each.
    with np.errstate(invalid="ignore"):  # a NaN compares False; some numpy 1.x warn
        covered = (x >= 100.0) & (x < 512.0)
    if not covered.all():
        x = np.where(covered, x, 256.0)  # keeps the arithmetic below quiet
    # 16 significant digits, when a 13-decimal c lies in x's rounding interval
    n = np.multiply(x, 1e13)
    np.rint(n, out=n)
    f = np.divide(n, 1e13)
    np.subtract(x, f, out=f)
    n += np.sign(f, out=f)  # n itself, or the neighbour on x's side
    short = np.divide(n, 1e13, out=f) == x
    # 17 digits: round(M * 5^14 / 2^32) for M = x * 2^46
    m = np.multiply(x, 2.0**46, out=f).astype(_U64)
    low = np.bitwise_and(m, _LOW32)
    low *= _FIVE14_LOW
    digits = np.right_shift(m, _U64(32))
    digits *= _FIVE14_LOW
    digits += m
    np.add(low, _HALF32, out=m)
    digits += np.right_shift(m, _U64(32), out=m)
    tie = np.bitwise_and(low, _LOW32, out=low) == _HALF32
    tie &= ~short
    np.logical_or(~covered, tie, out=uncovered)
    np.copyto(m, n, casting="unsafe")
    m *= _U64(10)
    digits = np.where(short, m, digits)
    # "ddd." then 14 fraction digits in groups of 4, 4, 4 and 2; each group
    # lands in ``low``, whose values (below 10^4) index the tables as intp
    group = low
    np.floor_divide(digits, _U64(10**14), out=group)
    digits -= np.multiply(group, _U64(10**14), out=m)
    np.take(_INT_DOT_TEXT, group.view(np.intp), out=text[:, 0], mode="clip")
    # keep fraction digits up to the last non-zero one, and at least one
    kept = np.ones(x.size, np.int8)
    for k, scale in enumerate((10**10, 10**6, 10**2, None)):
        if scale is None:
            np.multiply(digits, _U64(100), out=group)
        else:
            np.floor_divide(digits, _U64(scale), out=group)
            digits -= np.multiply(group, _U64(scale), out=m)
        np.take(_GROUP_TEXT, group.view(np.intp), out=text[:, k + 1], mode="clip")
        last = _GROUP_KEPT.take(group.view(np.intp))
        last += 4 * k
        np.maximum(kept, last, out=kept)
    np.add(kept, 4, out=length)


def _field_used() -> np.ndarray:
    """Bytes in use of a 20-byte value field, as words, by text length."""
    used = np.arange(20) < np.arange(19)[:, None]
    used[:, 18] = True  # the separator after the value
    used[:, 19] = False
    return used.view(np.uint32)


_FIELD_USED = _field_used()


class _SnapshotRows:
    """The CSV rows of up to ``capacity`` snapshots, one fixed-width byte row
    per cell, with a mask of the bytes in use.

    A row is the cell's ``r,c,kind,`` prefix padded to whole 4-byte words,
    then per field 20 bytes: the value's text, its separator (``,`` or a
    newline) and a pad byte. ``fill`` writes the values' text and returns
    the bodies, taken out by one masked copy.
    """

    def __init__(self, cells: List[str], n_fields: int, capacity: int):
        prefix = (",".join(cells) + ",").encode()
        widths = np.array([len(cell) + 1 for cell in cells])
        self.start = -(-int(widths.max()) // 4) * 4
        head = np.arange(self.start) < widths[:, None]
        shape = (capacity, len(cells), self.start + 20 * n_fields)
        self.rows, self.used = np.zeros(shape, np.uint8), np.zeros(shape, bool)
        self.rows[:, :, :self.start][:, head] = np.frombuffer(prefix, np.uint8)
        self.used[:, :, :self.start] = head
        self.separators = [self.start + 20 * j + 18 for j in range(n_fields)]
        self.separator_bytes = np.frombuffer(b"," * (n_fields - 1) + b"\n", np.uint8)
        self.rows[:, :, self.separators] = self.separator_bytes
        self.fixed = int(widths.sum()) + n_fields * len(cells)

    def fill(self, values: np.ndarray) -> Optional[List[memoryview]]:
        """CSV bodies for ``values`` of shape (snapshots, fields, cells), or
        None when ``_float_text`` does not cover one of them."""
        k, n_fields, n_cells = values.shape
        text, length, uncovered = _float_text(values)
        if uncovered.any():
            return None
        text = text.view(np.uint32).reshape(k, n_fields, n_cells, 5)
        length = length.reshape(k, n_fields, n_cells)
        rows, used = self.rows[:k], self.used[:k]
        rows32, used32 = rows.view(np.uint32), used.view(np.uint32)
        for j in range(n_fields):
            word = self.start // 4 + 5 * j
            rows32[:, :, word:word + 5] = text[:, j]
            used32[:, :, word:word + 5] = _FIELD_USED.take(length[:, j], axis=0)
        rows[:, :, self.separators] = self.separator_bytes
        body = memoryview(rows[used])
        ends = np.cumsum(self.fixed + length.sum(axis=(1, 2))).tolist()
        return [body[a:b] for a, b in zip([0] + ends, ends)]


def _write_snapshots(out_dir: Path, grid, snapshots, with_mass: bool) -> None:
    """Write one CSV per snapshot, formatted in blocks of about ``_TEXT_CHUNK``
    values through ``_float_text`` and ``_SnapshotRows``.

    A block holding a value that ``_float_text`` does not cover is formatted
    value by value with ``repr``. A snapshot that cannot be written does not
    stop the others; the first failure is raised afterwards, as the
    ``OSError`` naming its file.
    """
    header = ("row,col,cv_type,t" + (",t_mass" if with_mass else "") + "\n").encode()
    kinds = grid.cv_type.tolist()
    cells = [f"{r},{c},{kinds[r][c]}" for r in range(grid.rows) for c in range(grid.cols)]
    fields = ("t", "t_mass") if with_mass else ("t",)
    per_block = max(1, _TEXT_CHUNK // (len(cells) * len(fields)))

    def repr_body(snap) -> bytes:
        columns = [cells] + [map(repr, getattr(snap, f).ravel().tolist()) for f in fields]
        return ("\n".join(map(",".join, zip(*columns))) + "\n").encode()

    rows = _SnapshotRows(cells, len(fields), min(per_block, len(snapshots)))
    failure = None  # the first; later snapshots are still written
    for start in range(0, len(snapshots), per_block):
        block = snapshots[start:start + per_block]
        values = np.stack([[getattr(s, f).ravel() for f in fields] for s in block])
        bodies = rows.fill(values) or [repr_body(snap) for snap in block]
        for snap, body in zip(block, bodies):
            path = out_dir / f"snapshot_{snap.step_index:04d}.csv"
            try:
                with open(path, "wb") as f:
                    f.write(header)
                    f.write(body)
            except OSError as exc:
                failure = failure or exc
    if failure:
        raise failure


def _write_trace(out_dir: Path, reports) -> None:
    lines = ["step,inner_iterations,max_delta,converged,wall_time,mixed_from,error_estimate"]
    for i, report in enumerate(reports, start=1):
        lines.append(
            f"{i},{report.inner_iterations},{repr(report.max_delta)},"
            f"{report.converged},{repr(report.wall_time)},{report.mixed_from},"
            f"{repr(report.error_estimate)}"
        )
    (out_dir / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, args, config) -> None:
    manifest = {
        "tool": f"heatgrid {__version__}",
        "building": str(args.building),
        "weather": str(args.weather),
        "steps": args.steps,
        "config": asdict(config),
    }
    if getattr(args, "solver", None):
        manifest["solver"] = args.solver
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
    unconverged = {}
    for name, solver in SOLVERS.items():
        snapshots, reports = run_episode(
            grid, mats, config, records, steps, stepper=solver
        )
        trajectories[name] = snapshots
        unconverged[name] = [i for i, r in enumerate(reports, start=1) if not r.converged]

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
        passed=max_rel <= 1e-5 and not any(unconverged.values()),
        unconverged_steps=unconverged,
    )


def cmd_compare(args) -> int:
    grid, mats, config, records = _load_inputs(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = compare_runs(grid, mats, config, records, args.steps)
    unconverged = sorted(report.unconverged_steps.items())
    doc = {
        "solvers": sorted(SOLVERS),
        "steps": args.steps,
        "per_cell_max_rel_diff": report.per_cell_max_rel_diff,
        "per_cell_max_abs_diff": report.per_cell_max_abs_diff,
        "sig_figs_agreement": report.sig_figs_agreement,
        "unconverged_steps": {name: len(steps) for name, steps in unconverged},
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
    for name, steps in unconverged:
        if steps:
            print(f"warning: {name}: {len(steps)} step(s) did not converge, "
                  f"the first at step {steps[0]}", file=sys.stderr)
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
                    iterations_per_step=sum(r.inner_iterations for r in reports) / len(reports),
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
                "iterations_per_step": report.iterations_per_step,
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
    print(f"{'iterations per step':<20}{results['iterative'].iterations_per_step:>12.2f}"
          f"{results['tensor'].iterations_per_step:>12.2f}")
    print(f"{'speedup':<20}{speedup:>24.2f}x")
    print(f"(reference run: {REFERENCE_BENCHMARK['speedup']}x on "
          f"{REFERENCE_BENCHMARK['hardware']})")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
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
