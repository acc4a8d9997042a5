"""Simulate the bundled two-zone building through a full summer day.

Runs the vectorized solver at 300-second steps across the 24-hour synthetic
weather file and prints an hourly digest of zone air temperatures, the mass
nodes, and convergence effort. Writes the final field to single_day_final.csv
in a new temporary directory and prints its path.
"""

import tempfile
from pathlib import Path

import heatgrid as hg
from heatgrid.cli import default_building_path, default_weather_path

grid, mats, config = hg.load_building_file(default_building_path())
records = hg.load_weather_file(default_weather_path())

steps_per_hour = int(3600 / config.dt)
n_steps = 24 * steps_per_hour
print(f"two-zone plan: {grid.rows}x{grid.cols} cells, {grid.n_zones} zones, "
      f"{(grid.cv_type == int(hg.CvType.WINDOW)).sum()} windows")
print(f"running {n_steps} steps of {config.dt:.0f} s from "
      f"{records[0].timestamp:%H:%M} UTC\n")

snapshots, reports = hg.run_episode(grid, mats, config, records, n_steps)

west = grid.zone_id == grid.zone_id[5, 5]
east = grid.zone_id == grid.zone_id[5, 15]
print(f"{'clock':>6} {'T_west [C]':>11} {'T_east [C]':>11} {'T_mass [C]':>11} {'iters':>6}")
for hour in range(24):
    snap = snapshots[(hour + 1) * steps_per_hour - 1]
    report = reports[(hour + 1) * steps_per_hour - 1]
    t_west = snap.t[west].mean() - 273.15
    t_east = snap.t[east].mean() - 273.15
    t_mass = snap.t_mass[west | east].mean() - 273.15
    print(f"{snap.sim_clock:%H:%M} {t_west:>11.2f} {t_east:>11.2f} "
          f"{t_mass:>11.2f} {report.inner_iterations:>6}")

final = snapshots[-1]
out_path = Path(tempfile.mkdtemp(prefix="heatgrid_demo_")) / "single_day_final.csv"
with open(out_path, "w") as handle:
    handle.write("row,col,cv_type,t\n")
    for r in range(grid.rows):
        for c in range(grid.cols):
            handle.write(f"{r},{c},{int(grid.cv_type[r, c])},{final.t[r, c]!r}\n")
print(f"\nfinal field -> {out_path}")
print(f"field span: {final.t.min() - 273.15:.2f} .. {final.t.max() - 273.15:.2f} C")
print(f"total inner iterations: {sum(r.inner_iterations for r in reports)}")
