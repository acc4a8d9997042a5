"""Benchmark workloads and the seeded plan and weather generator.

Generated inputs are YAML and CSV text that the program reads through its
own loaders (``heatgrid.load_building`` / ``load_weather``), so a generated
case exercises the same parsing and validation as a user's files. The
generator uses only the standard library's ``random.Random``, whose stream
is fixed across Python versions: the same seed gives byte-identical text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Optional, Tuple

import yaml

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_BUILDING = ROOT / "src" / "heatgrid" / "data" / "two_zone_building.yaml"
BUNDLED_WEATHER = ROOT / "src" / "heatgrid" / "data" / "summer_day_weather.csv"

ROOM = 10  # room edge in cells; rooms sit between 1-cell partitions
WINDOW = 3  # window width in cells, one window per exterior side of a room
START = datetime(2021, 6, 21, 6, 0, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Workload:
    """One set of inputs for ``heatgrid run --solver tensor``.

    ``rooms`` is the (rows, cols) room layout of a generated plan, or None
    for the bundled two-zone plan and weather. ``steps`` is the horizon of
    every run process; ``oracle_steps`` is the prefix of it that the
    reference solver covers for ``max_rel_err``.
    """

    name: str
    why: str
    rooms: Optional[Tuple[int, int]]
    dt: float
    steps: int
    oracle_steps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="canonical_day",
            why="bundled 276-CV two-zone plan and day, dt 300 s: import, "
            "per-step fixed costs and snapshot output dominate a tiny grid",
            rooms=None,
            dt=300.0,
            steps=250,
            oracle_steps=250,
        ),
        Workload(
            name="tiled_6k",
            why="6x8 rooms, 5,963 CVs, 1,920 surfaces, dt 300 s: the dense "
            "interior exchange matrix dominates build, step and memory",
            rooms=(6, 8),
            dt=300.0,
            steps=36,
            oracle_steps=6,
        ),
        Workload(
            name="tiled_1k5_hourly",
            why="3x4 rooms, 1,530 CVs, dt 3600 s: about 19 Picard iterations "
            "a step, so per-iteration solver cost dominates",
            rooms=(3, 4),
            dt=3600.0,
            steps=48,
            oracle_steps=24,
        ),
    )
}


def tiled_building_yaml(n_rows: int, n_cols: int, dt: float, seed: int) -> str:
    """Plan of ``n_rows`` x ``n_cols`` square rooms with the canonical materials.

    Rooms of ``ROOM`` x ``ROOM`` air cells sit between 1-cell partitions
    inside a 1-cell exterior wall ring. Every exterior side of a room gets
    one ``WINDOW``-cell window; the seed picks each window's offset.
    Materials, solver settings and site come from the bundled plan, with
    ``dt`` replaced.
    """
    rng = random.Random(f"plan-{seed}")
    canonical = yaml.safe_load(BUNDLED_BUILDING.read_text(encoding="utf-8"))
    rows = n_rows * (ROOM + 1) + 1
    cols = n_cols * (ROOM + 1) + 1
    zones = [
        {"name": "shell", "cv_type": "exterior_wall", "rect": [0, 0, rows - 1, cols - 1]},
        {"name": "air", "cv_type": "interior_air", "rect": [1, 1, rows - 2, cols - 2]},
    ]
    for i in range(1, n_rows):
        r = i * (ROOM + 1)
        zones.append({"name": f"wall_row_{i}", "cv_type": "interior_wall",
                      "rect": [r, 1, r, cols - 2]})
    for j in range(1, n_cols):
        c = j * (ROOM + 1)
        zones.append({"name": f"wall_col_{j}", "cv_type": "interior_wall",
                      "rect": [1, c, rows - 2, c]})

    def window(name: str, start: int, fixed: int, along_row: bool) -> dict:
        a = start + rng.randrange(ROOM - WINDOW + 1)
        b = a + WINDOW - 1
        rect = [fixed, a, fixed, b] if along_row else [a, fixed, b, fixed]
        return {"name": name, "cv_type": "window", "rect": rect}

    for j in range(n_cols):
        c0 = j * (ROOM + 1) + 1
        zones.append(window(f"north_{j}", c0, 0, True))
        zones.append(window(f"south_{j}", c0, rows - 1, True))
    for i in range(n_rows):
        r0 = i * (ROOM + 1) + 1
        zones.append(window(f"west_{i}", r0, 0, False))
        zones.append(window(f"east_{i}", r0, cols - 1, False))

    doc = {
        "grid": {"rows": rows, "cols": cols, "z": canonical["grid"]["z"],
                 "cell_size": canonical["grid"]["cell_size"]},
        "zones": zones,
        "materials": canonical["materials"],
        "simulation": dict(canonical["simulation"], dt=dt),
        "site": canonical["site"],
    }
    return yaml.safe_dump(doc, sort_keys=False)


def weather_csv(dt: float, steps: int, seed: int) -> str:
    """Hourly summer weather from ``START`` covering ``steps`` of ``dt`` seconds.

    A smooth diurnal cycle (air 288-298 K, clear-sky irradiance by hour)
    with seeded per-hour jitter: +-1 K on temperatures, 0.85-1.0 of the
    clear-sky irradiance.
    """
    rng = random.Random(f"weather-{seed}")
    hours = math.ceil(steps * dt / 3600.0) + 1
    lines = ["timestamp,t_air,t_gnd,t_sky,ghi,dni,dhi", "-,K,K,K,W/m2,W/m2,W/m2"]
    for h in range(hours):
        when = START + timedelta(hours=h)
        solar_hour = when.hour + when.minute / 60.0
        t_air = 293.0 + 5.0 * math.sin(2.0 * math.pi * (solar_hour - 9.0) / 24.0)
        t_air += rng.uniform(-1.0, 1.0)
        t_gnd = t_air - 1.5 + rng.uniform(-1.0, 1.0)
        t_sky = t_air - 18.0 + rng.uniform(-1.0, 1.0)
        elevation = math.sin(math.pi * (solar_hour - 5.0) / 14.0)
        clear = max(elevation, 0.0) * rng.uniform(0.85, 1.0)
        ghi, dni, dhi = 850.0 * clear, 780.0 * clear, 110.0 * clear
        lines.append(
            f"{when.strftime('%Y-%m-%dT%H:%M:%SZ')},{t_air:.2f},{t_gnd:.2f},"
            f"{t_sky:.2f},{ghi:.1f},{dni:.1f},{dhi:.1f}"
        )
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> Tuple[Path, Path]:
    """Write the workload's building and weather files; returns their paths.

    The bundled workload ignores the seed: it is the paper's validation case.
    """
    if workload.rooms is None:
        return BUNDLED_BUILDING, BUNDLED_WEATHER
    building = out_dir / "building.yaml"
    weather = out_dir / "weather.csv"
    n_rows, n_cols = workload.rooms
    building.write_text(tiled_building_yaml(n_rows, n_cols, workload.dt, seed),
                        encoding="utf-8")
    weather.write_text(weather_csv(workload.dt, workload.steps, seed), encoding="utf-8")
    return building, weather
