"""Run the vectorized solver against the node-by-node reference.

Both solvers advance the bundled building through identical inputs with
every feature enabled. The per-step maximum relative difference stays
within five significant figures; the two implementations share no
numerical kernels, so this agreement is the correctness argument. Exits
with status 1 when the difference leaves that band.
"""

import sys

import numpy as np

import heatgrid as hg
from heatgrid.cli import default_building_path, default_weather_path

grid, mats, config = hg.load_building_file(default_building_path())
records = hg.load_weather_file(default_weather_path())
steps = 10

print(f"running both solvers for {steps} steps "
      f"(dt={config.dt:.0f} s, epsilon={config.convergence_epsilon} K)\n")
snaps_tensor, reps_tensor = hg.run_episode(grid, mats, config, records, steps)
snaps_oracle, reps_oracle = hg.run_episode(
    grid, mats, config, records, steps, stepper=hg.oracle_step
)

print(f"{'step':>4} {'max |dT| [K]':>14} {'rel diff':>12} {'sig figs':>9} "
      f"{'iters (vec/ref)':>16}")
worst = 0.0
for i, (a, b) in enumerate(zip(snaps_tensor, snaps_oracle), start=1):
    abs_diff = float(np.abs(a.t - b.t).max())
    rel_diff = float((np.abs(a.t - b.t) / np.abs(b.t)).max())
    worst = max(worst, rel_diff)
    figs = int(np.floor(-np.log10(rel_diff))) if rel_diff > 0 else 16
    print(f"{i:>4} {abs_diff:>14.3e} {rel_diff:>12.3e} {figs:>9} "
          f"{reps_tensor[i-1].inner_iterations:>8}/{reps_oracle[i-1].inner_iterations}")

print(f"\nworst per-cell relative difference: {worst:.3e} "
      f"({'within' if worst <= 1e-5 else 'OUTSIDE'} five significant figures)")
sys.exit(0 if worst <= 1e-5 else 1)
