"""Time the vectorized solver against the iterative reference.

Ten steps on the 276-cell validation plan, best of three repeats, echoing
the wall-clock table format. Absolute numbers vary with hardware; the
vectorized solver should come out several times faster.
"""

from heatgrid.cli import (
    REFERENCE_BENCHMARK,
    bench_solvers,
    default_building_path,
    default_weather_path,
)
import heatgrid as hg

grid, mats, config = hg.load_building_file(default_building_path())
records = hg.load_weather_file(default_weather_path())

results, totals = bench_solvers(grid, mats, config, records, steps=10, repeats=3)
speedup = results["iterative"].total_time / results["tensor"].total_time

print(f"{'metric':<22} {'iterative':>12} {'tensorized':>12}")
print(f"{'total time (s)':<22} {results['iterative'].total_time:>12.4f} "
      f"{results['tensor'].total_time:>12.4f}")
print(f"{'mean per step (ms)':<22} {results['iterative'].mean_per_step * 1e3:>12.4f} "
      f"{results['tensor'].mean_per_step * 1e3:>12.4f}")
print(f"{'speedup':<22} {speedup:>25.2f}x")
print(f"\nrepeat totals (s): iterative {['%.4f' % t for t in totals['iterative']]}, "
      f"tensorized {['%.4f' % t for t in totals['tensor']]}")
print(f"reference: {REFERENCE_BENCHMARK['speedup']}x on {REFERENCE_BENCHMARK['hardware']}")
