"""Random building/weather generation for solver comparison tests.

Buildings are emitted as config documents and loaded through the real
loader, so every generated case also exercises the config path. Material
ranges stay physical and keep the fixed-point iteration well conditioned.
"""

from __future__ import annotations

import dataclasses
from datetime import datetime, timedelta, timezone

import numpy as np
import yaml

import heatgrid as hg
from heatgrid.building import DIR_ORIENTATION
from heatgrid.cli import default_building_path


def remade(grid, mats, **changes):
    """``mats`` made again for ``grid`` by ``MaterialField.for_grid``, with ``changes``."""
    return hg.MaterialField.for_grid(grid, **{**dataclasses.asdict(mats), **changes})


def boundary_at(records, site, when, q_x=None):
    """The boundary at the single instant ``when``: row 0 of a one-step boundary series."""
    return hg.boundary_for_time(hg.boundary_series(records, site, when, 1.0, 1), 0, q_x)


def dark_boundary(t_inf, t_gnd=None, t_sky=None, q_x=None):
    """A step boundary with no sun, ground and sky at ``t_inf`` unless given."""
    return hg.StepBoundary(
        t_inf=t_inf,
        t_gnd=t_inf if t_gnd is None else t_gnd,
        t_sky=t_inf if t_sky is None else t_sky,
        poa=np.zeros(4),
        q_x=q_x,
    )


def facade_poa(**irradiance):
    """POA irradiance [W/m^2] given by facade name, as the shift-order row a boundary holds."""
    return np.array([irradiance[o] for o in DIR_ORIENTATION], dtype=float)


def instants(*when):
    """UTC ``datetime``s as the ``datetime64`` array that ``solar_position`` reads."""
    return np.array([w.astimezone(timezone.utc).replace(tzinfo=None) for w in when],
                    dtype="datetime64[us]")


def on_grid(basis, cells, values):
    """``values`` on the flat ``cells`` of ``basis``'s grid, as a field that is zero elsewhere."""
    field = np.zeros(basis.shape)
    field.reshape(-1)[cells] = values
    return field


def tiled_building_yaml(n_rows: int = 3, n_cols: int = 3, room: int = 4) -> str:
    """Plan of ``n_rows`` x ``n_cols`` rooms of ``room`` x ``room`` air cells."""
    return rooms_building_yaml([room] * n_rows, [room] * n_cols)


def rooms_building_yaml(row_sizes, col_sizes) -> str:
    """Plan of ``len(row_sizes)`` x ``len(col_sizes)`` rooms, one air zone each.

    Room ``(i, j)`` has ``row_sizes[i]`` x ``col_sizes[j]`` air cells. Rooms
    sit between 1-cell partitions inside a 1-cell exterior wall ring. Each
    exterior side of a room gets a one-cell window at its middle, so most
    zones mix wall and glass emissivities. Materials, solver settings and
    site come from the bundled plan.
    """
    bundled = yaml.safe_load(default_building_path().read_text(encoding="utf-8"))
    # Offsets of each room's first air row/column; partitions sit just before them.
    row_starts = np.cumsum([1] + [size + 1 for size in row_sizes])
    col_starts = np.cumsum([1] + [size + 1 for size in col_sizes])
    rows, cols = int(row_starts[-1]), int(col_starts[-1])
    zones = [
        {"name": "shell", "cv_type": "exterior_wall", "rect": [0, 0, rows - 1, cols - 1]},
        {"name": "air", "cv_type": "interior_air", "rect": [1, 1, rows - 2, cols - 2]},
    ]
    for i, r in enumerate(row_starts[1:-1], start=1):
        zones.append({"name": f"wall_row_{i}", "cv_type": "interior_wall",
                      "rect": [int(r) - 1, 1, int(r) - 1, cols - 2]})
    for j, c in enumerate(col_starts[1:-1], start=1):
        zones.append({"name": f"wall_col_{j}", "cv_type": "interior_wall",
                      "rect": [1, int(c) - 1, rows - 2, int(c) - 1]})
    col_middles = [int(c) + size // 2 for c, size in zip(col_starts, col_sizes)]
    row_middles = [int(r) + size // 2 for r, size in zip(row_starts, row_sizes)]
    windows = [(0, c) for c in col_middles] + [(rows - 1, c) for c in col_middles]
    windows += [(r, 0) for r in row_middles] + [(r, cols - 1) for r in row_middles]
    for r, c in windows:
        zones.append({"name": f"win_{r}_{c}", "cv_type": "window", "rect": [r, c, r, c]})

    doc = {
        "grid": {"rows": rows, "cols": cols, "z": bundled["grid"]["z"],
                 "cell_size": bundled["grid"]["cell_size"]},
        "zones": zones,
        "materials": bundled["materials"],
        "simulation": bundled["simulation"],
        "site": bundled["site"],
    }
    return yaml.safe_dump(doc, sort_keys=False)


def padded_l_building_yaml() -> str:
    """Two rooms in an L-shaped footprint, padded to a 9 x 10 grid by boundary cells.

    The west wing (rows 1-7, cols 1-4) holds a 5 x 2 room and the south
    wing (rows 4-7, cols 1-8) a 2 x 3 room, split by a partition in column
    4; each room has one window. Every cell outside the L is boundary
    padding, so the exterior also reaches the plan through the notch at
    its north-east. Materials, solver settings and site come from the
    bundled plan.
    """
    bundled = yaml.safe_load(default_building_path().read_text(encoding="utf-8"))
    doc = {
        "grid": {"rows": 9, "cols": 10, "z": 3.0, "cell_size": 0.5},
        "zones": [
            {"name": "padding", "cv_type": "boundary", "rect": [0, 0, 8, 9]},
            {"name": "west_wing", "cv_type": "exterior_wall", "rect": [1, 1, 7, 4]},
            {"name": "south_wing", "cv_type": "exterior_wall", "rect": [4, 1, 7, 8]},
            {"name": "west_room", "cv_type": "interior_air", "rect": [2, 2, 6, 3]},
            {"name": "south_room", "cv_type": "interior_air", "rect": [5, 5, 6, 7]},
            {"name": "partition", "cv_type": "interior_wall", "rect": [4, 4, 6, 4]},
            {"name": "north_window", "cv_type": "window", "rect": [1, 2, 1, 2]},
            {"name": "south_window", "cv_type": "window", "rect": [7, 6, 7, 6]},
        ],
        "materials": bundled["materials"],
        "simulation": bundled["simulation"],
        "site": bundled["site"],
    }
    return yaml.safe_dump(doc, sort_keys=False)


def layered_sloped_building_yaml() -> str:
    """One room inside a double-thickness shell, part of it tilted.

    The inner shell layer has no exposed face, so it is an interior wall of
    the shell's material. Part of the north wall is tilted 35 degrees, and
    the south wall holds a two-cell window.
    """
    doc = {
        "grid": {"rows": 7, "cols": 8, "z": 3.0, "cell_size": 0.5},
        "zones": [
            {"name": "shell", "cv_type": "exterior_wall", "rect": [0, 0, 6, 7]},
            {"name": "inner_shell", "cv_type": "interior_wall", "rect": [1, 1, 5, 6]},
            {"name": "air", "cv_type": "interior_air", "rect": [2, 2, 4, 5]},
            {"name": "win", "cv_type": "window", "rect": [6, 3, 6, 4]},
        ],
        "materials": [
            {"name": "wall", "rect": [0, 0, 6, 7],
             "properties": {"conductivity": 1.2, "h_exterior": 14.0,
                            "specific_heat": 900.0, "density": 2200.0,
                            "emissivity": 0.9, "absorptivity": 0.5,
                            "transmissivity": 0.0}},
            {"name": "glass", "cv_type": "window",
             "properties": {"conductivity": 0.8, "h_exterior": 14.0,
                            "specific_heat": 840.0, "density": 2500.0,
                            "emissivity": 0.88, "absorptivity": 0.1,
                            "transmissivity": 0.65}},
            {"name": "air", "cv_type": "interior_air",
             "properties": {"conductivity": 0.12, "specific_heat": 1005.0,
                            "density": 1.2}},
            {"name": "sloped", "rect": [0, 2, 0, 5],
             "properties": {"conductivity": 1.2, "h_exterior": 14.0,
                            "specific_heat": 900.0, "density": 2200.0,
                            "emissivity": 0.9, "absorptivity": 0.5,
                            "transmissivity": 0.0, "tilt": 35.0}},
        ],
        "simulation": {"dt": 240.0, "convergence_epsilon": 1e-5,
                       "max_inner_iterations": 5000,
                       "initial_temperature": 292.0},
        "site": {"latitude": 45.0, "longitude": 10.0, "albedo": 0.25},
    }
    return yaml.safe_dump(doc)


def random_building_yaml(rng: np.random.Generator, epsilon: float = 1e-5) -> str:
    rows = int(rng.integers(4, 9))
    cols = int(rng.integers(4, 9))
    cell = round(float(rng.uniform(0.4, 1.0)), 3)
    z = round(float(rng.uniform(2.5, 3.5)), 2)

    zones = [
        {"name": "shell", "cv_type": "exterior_wall", "rect": [0, 0, rows - 1, cols - 1]},
        {"name": "air", "cv_type": "interior_air", "rect": [1, 1, rows - 2, cols - 2]},
    ]
    if cols >= 5 and rng.random() < 0.5:
        p = int(rng.integers(2, cols - 2))
        zones.append(
            {"name": "partition", "cv_type": "interior_wall", "rect": [1, p, rows - 2, p]}
        )

    ring = [(0, c) for c in range(1, cols - 1)] + [(rows - 1, c) for c in range(1, cols - 1)]
    ring += [(r, 0) for r in range(1, rows - 1)] + [(r, cols - 1) for r in range(1, rows - 1)]
    for r, c in ring:
        if rng.random() < 0.25:
            zones.append({"name": f"win_{r}_{c}", "cv_type": "window", "rect": [r, c, r, c]})

    def u(a, b, digits=4):
        return round(float(rng.uniform(a, b)), digits)

    materials = [
        {
            "name": "wall",
            "cv_type": "exterior_wall",
            "properties": {
                "conductivity": u(0.6, 2.0),
                "h_exterior": u(8.0, 25.0),
                "specific_heat": u(700.0, 1000.0, 1),
                "density": u(1800.0, 2600.0, 1),
                "emissivity": u(0.75, 0.95),
                "absorptivity": u(0.3, 0.8),
                "transmissivity": 0.0,
            },
        },
        {
            "name": "partition",
            "cv_type": "interior_wall",
            "properties": {
                "conductivity": u(0.2, 0.8),
                "h_exterior": 0.0,
                "specific_heat": u(900.0, 1200.0, 1),
                "density": u(600.0, 1000.0, 1),
                "emissivity": u(0.8, 0.95),
                "absorptivity": u(0.2, 0.6),
                "transmissivity": 0.0,
            },
        },
        {
            "name": "glass",
            "cv_type": "window",
            "properties": {
                "conductivity": u(0.5, 1.2),
                "h_exterior": u(8.0, 25.0),
                "specific_heat": u(750.0, 900.0, 1),
                "density": u(2400.0, 2600.0, 1),
                "emissivity": u(0.82, 0.92),
                "absorptivity": u(0.05, 0.2),
                "transmissivity": u(0.4, 0.75),
            },
        },
        {
            "name": "air",
            "cv_type": "interior_air",
            "properties": {
                "conductivity": u(0.03, 0.25),
                "h_exterior": 0.0,
                "specific_heat": 1005.0,
                "density": u(1.1, 1.3),
                "emissivity": 0.0,
                "absorptivity": 0.0,
                "transmissivity": 0.0,
            },
        },
    ]

    doc = {
        "grid": {"rows": rows, "cols": cols, "z": z, "cell_size": cell},
        "zones": zones,
        "materials": materials,
        "simulation": {
            "dt": round(float(rng.uniform(100.0, 400.0)), 1),
            "convergence_epsilon": epsilon,
            "max_inner_iterations": 5000,
            "enable_interior_lw": True,
            "enable_exterior_lw": True,
            "enable_solar": True,
            "enable_interior_mass": True,
            "initial_temperature": round(float(rng.uniform(283.0, 301.0)), 2),
            "mass_params": {
                "k_mass": u(0.5, 3.0),
                "rho_mass": u(500.0, 2000.0, 1),
                "c_mass": u(800.0, 1500.0, 1),
            },
        },
        "site": {
            "latitude": round(float(rng.uniform(-55.0, 55.0)), 3),
            "longitude": round(float(rng.uniform(-120.0, 120.0)), 3),
            "albedo": round(float(rng.uniform(0.05, 0.6)), 3),
        },
    }
    return yaml.safe_dump(doc, sort_keys=False)


def random_weather_csv(rng: np.random.Generator, dt: float, n_steps: int) -> str:
    """Weather covering ``n_steps`` of ``dt`` seconds, 1 to 3 records."""
    start = datetime(2021, int(rng.integers(1, 13)), int(rng.integers(1, 28)),
                     int(rng.integers(0, 24)), tzinfo=timezone.utc)
    n_records = int(rng.integers(1, 4))
    spacing = timedelta(seconds=max(dt * n_steps / max(n_records - 1, 1), dt) + 1.0)

    lines = ["timestamp,t_air,t_gnd,t_sky,ghi,dni,dhi", "-,K,K,K,W/m2,W/m2,W/m2"]
    when = start
    for _ in range(n_records):
        t_air = round(float(rng.uniform(265.0, 305.0)), 2)
        t_gnd = round(t_air + float(rng.uniform(-6.0, 6.0)), 2)
        t_sky = "" if rng.random() < 0.3 else round(t_air - float(rng.uniform(5.0, 30.0)), 2)
        dark = rng.random() < 0.4
        ghi = 0.0 if dark else round(float(rng.uniform(0.0, 900.0)), 1)
        dni = 0.0 if dark else round(float(rng.uniform(0.0, 900.0)), 1)
        dhi = 0.0 if dark else round(float(rng.uniform(0.0, 250.0)), 1)
        stamp = when.strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"{stamp},{t_air},{t_gnd},{t_sky},{ghi},{dni},{dhi}")
        when = when + spacing
    return "\n".join(lines) + "\n"


def random_case(rng: np.random.Generator, n_steps: int = 5, epsilon: float = 1e-5):
    """A loaded random building with matching weather and optional heat source."""
    grid, mats, config = hg.load_building(random_building_yaml(rng, epsilon=epsilon))
    records = hg.load_weather(random_weather_csv(rng, config.dt, n_steps))
    q_x = None
    if rng.random() < 0.5:
        q_x = np.zeros((grid.rows, grid.cols))
        air_cells = np.argwhere(grid.zone_id >= 0)
        pick = air_cells[rng.integers(0, len(air_cells))]
        q_x[pick[0], pick[1]] = float(rng.uniform(50.0, 500.0))
    return grid, mats, config, records, q_x
