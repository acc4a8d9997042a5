"""One measured run: ``heatgrid run`` in this process, with step probes.

Usage: python3 perfbench/launch.py RECORD TRACE -- <heatgrid run arguments>

The harness spawns one of these per run, with ``src`` on PYTHONPATH. Two
probes record when each timestep starts (its boundary assembly) and ends
(the stepper returns); they cost two clock reads a step. With TRACE=1 the
layer wrappers of ``layers.Tracer`` are installed as well, and a third
probe reads the size of the interior exchange matrix the run builds. After
the run, RECORD receives the probe times (on the clock the harness shares,
CLOCK_MONOTONIC), this process's peak resident memory and, when traced,
per-layer self times and the exchange-matrix counts. The exit status is
``heatgrid run``'s.
"""

import contextlib
import json
import sys
import time


def peak_rss_mb() -> float:
    """High-water resident memory [MB] of this process since it was exec'd.

    Read from VmHWM, which belongs to this process's own address space. The
    ``wait4`` rusage of a child would also carry the parent's peak from
    before the exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    record_path, traced = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    clock = time.perf_counter
    import_start = clock()
    import heatgrid.cli as cli
    import heatgrid.tensor_solver as tensor_solver
    import_end = clock()

    tracer = None
    if traced:
        from layers import Tracer, exchange_counts

        tracer = Tracer(clock)
        tracer.add("import.heatgrid", import_start, import_end)

    starts, ends, counts = [], [], {}
    with tracer or contextlib.nullcontext():
        boundary = tensor_solver.boundary_for_time
        stepper = cli.SOLVERS["tensor"]
        build = tensor_solver.build_exchange_matrix_2d

        def probed_boundary(*args, **kwargs):
            starts.append(clock())
            return boundary(*args, **kwargs)

        def probed_step(*args, **kwargs):
            try:
                return stepper(*args, **kwargs)
            finally:
                ends.append(clock())

        def counted_build(*args, **kwargs):
            matrix = build(*args, **kwargs)
            counts.update(exchange_counts(matrix))
            return matrix

        tensor_solver.boundary_for_time = probed_boundary
        cli.SOLVERS["tensor"] = probed_step
        if traced:
            tensor_solver.build_exchange_matrix_2d = counted_build
        try:
            status = cli.main(argv)
        finally:
            tensor_solver.boundary_for_time = boundary
            cli.SOLVERS["tensor"] = stepper
            tensor_solver.build_exchange_matrix_2d = build

    record = {"import_s": import_end - import_start, "step_start": starts,
              "step_end": ends, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        record.update(layers=tracer.self_times(), counts=counts)
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
