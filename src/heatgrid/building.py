"""
Building grid, control-volume typing, materials, and config loading.

A building floor plan is a rectangular grid of control volumes (CVs). Each
CV has one type (interior air, exterior wall, interior wall, boundary
padding, or window), per-cell dimensions, and per-cell material properties.
Envelope CVs are classified by how many of their faces touch the exterior
(out of grid, or adjacent to a boundary-padding cell): 2 at corners, 1 on
straight runs. That exposure drives the area scaling of every exterior
flux term.

Plan conventions: row 0 is the north edge and column 0 the west edge.
Cardinal direction indices follow the solver's shifted-field order:
0 = east (+col), 1 = north (-row), 2 = west (-col), 3 = south (+row).
East/west faces have length V (the cell's row-axis extent) and north/south
faces have length U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Optional, Tuple

import numpy as np
import yaml

from .weather import SitePosition

# =============================================================================
# CV TYPES AND DIRECTIONS
# =============================================================================


class CvType(IntEnum):
    """Control-volume classification codes."""

    INTERIOR_AIR = 0
    EXTERIOR_WALL = 1
    INTERIOR_WALL = 2
    BOUNDARY = 3
    WINDOW = 4


#: CV types that form the building envelope (receive exterior fluxes).
ENVELOPE_TYPES = (CvType.EXTERIOR_WALL, CvType.WINDOW)

#: Direction indices into per-direction fields, in solver order.
DIR_EAST, DIR_NORTH, DIR_WEST, DIR_SOUTH = 0, 1, 2, 3

#: (row, col) offset of the neighbor in each direction.
DIR_OFFSETS = ((0, 1), (-1, 0), (0, -1), (1, 0))

#: Facade orientation name for an exposed face in each direction.
DIR_ORIENTATION = ("east", "north", "west", "south")

_CV_TYPE_NAMES = {
    "interior_air": CvType.INTERIOR_AIR,
    "exterior_wall": CvType.EXTERIOR_WALL,
    "interior_wall": CvType.INTERIOR_WALL,
    "boundary": CvType.BOUNDARY,
    "window": CvType.WINDOW,
}


class ConfigError(ValueError):
    """Raised when a building config document cannot be parsed."""


class ValidationError(ValueError):
    """Raised when a parsed building violates a structural invariant."""


def shift_fields(pad: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Neighbor fields ``(east, north, west, south)`` of ``values``.

    ``pad`` is a buffer one cell wider than the field on every side whose
    border holds the value a neighbor outside the grid reads. The field is
    written into its interior and the four shifted views are returned, so
    ``east[i, j]`` is ``values[i, j+1]`` and a neighbor off the grid reads
    the border's fill.
    """
    pad[1:-1, 1:-1] = values
    return pad[1:-1, 2:], pad[:-2, 1:-1], pad[1:-1, :-2], pad[2:, 1:-1]


def face_length(u: np.ndarray, v: np.ndarray, direction: int) -> np.ndarray:
    """Length of the face a cell presents in ``direction`` (V east/west, U north/south)."""
    return v if direction in (DIR_EAST, DIR_WEST) else u


# =============================================================================
# GRID
# =============================================================================


@dataclass
class BuildingGrid:
    """Geometry of the discretized floor plan.

    Attributes
    ----------
    rows, cols : int
        Grid shape.
    cv_type : ndarray (rows, cols) of int
        CvType code per cell.
    u, v : ndarray (rows, cols)
        Cell extents along the column (x) and row (y) axes [m].
    z : float
        Floor height [m]; every vertical face has area length * z.
    delta_x : ndarray (rows, cols)
        Total exposed boundary-face length per cell [m] (sum over exposed
        faces; twice the face length at corners of a square-cell grid).
    exposed_faces : ndarray (rows, cols) of int
        Number of exterior-adjacent faces (0, 1, or 2).
    exposed_mask : ndarray (4, rows, cols) of bool
        Per-direction exterior adjacency.
    zone_id : ndarray (rows, cols) of int
        Connected-component label of interior-air cells, -1 elsewhere.
    n_zones : int
        Number of distinct air zones.
    window_zone : dict
        Maps each window cell (row, col) to the zone id behind it.
    """

    rows: int
    cols: int
    cv_type: np.ndarray
    u: np.ndarray
    v: np.ndarray
    z: float
    delta_x: np.ndarray = field(default=None, repr=False)
    exposed_faces: np.ndarray = field(default=None, repr=False)
    exposed_mask: np.ndarray = field(default=None, repr=False)
    zone_id: np.ndarray = field(default=None, repr=False)
    n_zones: int = 0
    window_zone: Dict[Tuple[int, int], int] = field(default_factory=dict, repr=False)
    source_config: Optional[dict] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_cv_types(
        cls, cv_type: np.ndarray, u: np.ndarray, v: np.ndarray, z: float
    ) -> "BuildingGrid":
        """Build a grid from a type map, classify exposure, and label zones."""
        cv_type = np.asarray(cv_type, dtype=np.int64)
        rows, cols = cv_type.shape
        grid = cls(
            rows=rows,
            cols=cols,
            cv_type=cv_type,
            u=np.broadcast_to(np.asarray(u, dtype=float), cv_type.shape).copy(),
            v=np.broadcast_to(np.asarray(v, dtype=float), cv_type.shape).copy(),
            z=float(z),
        )
        classify_exposure(grid)
        assign_zones(grid)
        return grid

    def is_envelope(self) -> np.ndarray:
        return np.isin(self.cv_type, [int(t) for t in ENVELOPE_TYPES])

    def validate(self, allow_inner_envelope: bool = False) -> None:
        """Check structural invariants; raise ValidationError naming the cell."""
        if self.rows * self.cols < 4:
            raise ValidationError(f"grid {self.rows}x{self.cols} has fewer than 4 cells")
        if self.z <= 0.0:
            raise ValidationError(f"floor height z={self.z} must be positive")
        for name, arr in (("U", self.u), ("V", self.v)):
            if np.any(arr <= 0.0):
                r, c = np.argwhere(arr <= 0.0)[0]
                raise ValidationError(f"{name} <= 0 at cell ({r}, {c})")
        if self.exposed_faces is None:
            raise ValidationError("exposure not classified; call classify_exposure first")

        air_or_partition = np.isin(
            self.cv_type, [int(CvType.INTERIOR_AIR), int(CvType.INTERIOR_WALL)]
        )
        bad = air_or_partition & (self.exposed_faces > 0)
        if np.any(bad):
            r, c = np.argwhere(bad)[0]
            kind = CvType(self.cv_type[r, c]).name
            raise ValidationError(
                f"{kind} cell ({r}, {c}) touches the exterior; envelope required"
            )
        unexposed = self.is_envelope() & (self.exposed_faces == 0)
        if np.any(unexposed):
            r, c = np.argwhere(unexposed)[0]
            kind = CvType(self.cv_type[r, c]).name
            if kind == "WINDOW" or not allow_inner_envelope:
                raise ValidationError(
                    f"{kind} cell ({r}, {c}) has no face adjacent to the exterior"
                )
        if not np.any(self.cv_type == int(CvType.INTERIOR_AIR)):
            raise ValidationError("plan contains no interior air cells")


def classify_exposure(grid: BuildingGrid) -> BuildingGrid:
    """Populate exposure fields: per-direction mask, face count, and delta_x.

    A face is exposed when its neighbor lies outside the grid or is a
    boundary-padding cell. Envelope cells with more than two exposed faces
    are unsupported geometry (a one-cell wall finger) and rejected.
    """
    boundary = grid.cv_type == int(CvType.BOUNDARY)
    pad = np.ones((grid.rows + 2, grid.cols + 2), dtype=bool)  # a face off the grid is exposed
    exposed = np.stack(shift_fields(pad, boundary))

    # Boundary cells themselves are the exterior; they expose nothing.
    exposed[:, boundary] = False

    counts = exposed.sum(axis=0)
    too_many = grid.is_envelope() & (counts > 2)
    if np.any(too_many):
        r, c = np.argwhere(too_many)[0]
        raise ValidationError(
            f"envelope cell ({r}, {c}) has {counts[r, c]} exterior faces; "
            "at most 2 supported"
        )

    delta = np.zeros((grid.rows, grid.cols), dtype=float)
    for d in range(4):
        delta += np.where(exposed[d], face_length(grid.u, grid.v, d), 0.0)
    # Exposure length only matters on envelope cells.
    delta *= grid.is_envelope()

    grid.exposed_mask = exposed
    grid.exposed_faces = counts.astype(np.int64)
    grid.delta_x = delta
    return grid


def assign_zones(grid: BuildingGrid) -> BuildingGrid:
    """Label connected interior-air regions and map windows to their zones.

    Zones are 4-connected components of interior-air cells, numbered in
    raster order of each zone's first cell. A window's zone is found
    through its first interior-facing neighbor (marching inward through
    envelope layers if needed).
    """
    rows, cols = grid.rows, grid.cols
    air_mask = grid.cv_type == int(CvType.INTERIOR_AIR)
    air = air_mask.tolist()
    labels = [[-1] * cols for _ in range(rows)]
    n_zones = 0
    for r0, c0 in np.argwhere(air_mask).tolist():  # raster order
        if labels[r0][c0] >= 0:
            continue
        labels[r0][c0] = n_zones
        stack = [(r0, c0)]
        while stack:
            r, c = stack.pop()
            for dr, dc in DIR_OFFSETS:
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols and air[nr][nc] and labels[nr][nc] < 0:
                    labels[nr][nc] = n_zones
                    stack.append((nr, nc))
        n_zones += 1
    grid.zone_id = np.array(labels, dtype=np.int64).reshape(rows, cols)
    grid.n_zones = n_zones

    grid.window_zone = {}
    windows = np.argwhere(grid.cv_type == int(CvType.WINDOW))
    for r, c in windows:
        zone = _zone_behind(grid, int(r), int(c))
        if zone is None:
            raise ValidationError(f"window cell ({r}, {c}) has no interior zone behind it")
        grid.window_zone[(int(r), int(c))] = zone
    return grid


def _zone_behind(grid: BuildingGrid, r: int, c: int) -> Optional[int]:
    # Direct air neighbor first; then march inward along unexposed
    # directions; finally along diagonals combining them (covers corner
    # windows and windows sitting over a partition end).
    for dr, dc in DIR_OFFSETS:
        nr, nc = r + dr, c + dc
        if 0 <= nr < grid.rows and 0 <= nc < grid.cols and grid.zone_id[nr, nc] >= 0:
            return int(grid.zone_id[nr, nc])
    straights = [(dr, dc) for d, (dr, dc) in enumerate(DIR_OFFSETS)
                 if not grid.exposed_mask[d, r, c]]
    diagonals = []
    for i, (ar, ac) in enumerate(straights):
        for br, bc in straights[i + 1:]:
            combo = (ar + br, ac + bc)
            if combo != (0, 0) and combo not in diagonals:
                diagonals.append(combo)
    for dr, dc in straights + diagonals:
        nr, nc = r + dr, c + dc
        while 0 <= nr < grid.rows and 0 <= nc < grid.cols:
            if grid.zone_id[nr, nc] >= 0:
                return int(grid.zone_id[nr, nc])
            if grid.cv_type[nr, nc] == int(CvType.BOUNDARY):
                break
            nr, nc = nr + dr, nc + dc
    return None


# =============================================================================
# MATERIALS
# =============================================================================


@dataclass
class MaterialField:
    """Per-cell physical properties aligned to the grid.

    ``k_face`` and ``h_face`` are per-direction conduction and convection
    coefficient fields, shape (4, rows, cols), direction order east, north,
    west, south. Convection couples a face to the ambient air, so the
    loader populates ``h_face`` only on exposed faces and zeroes ``k_face``
    there (no conduction into the ambient).
    """

    k_face: np.ndarray  # W/(m K)
    h_face: np.ndarray  # W/(m^2 K)
    heat_capacity: np.ndarray  # J/(kg K)
    density: np.ndarray  # kg/m^3
    emissivity: np.ndarray
    absorptivity: np.ndarray
    transmissivity: np.ndarray
    tilt: np.ndarray  # deg from horizontal

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MaterialField":
        shape = (rows, cols)
        return cls(
            k_face=np.zeros((4,) + shape),
            h_face=np.zeros((4,) + shape),
            heat_capacity=np.zeros(shape),
            density=np.zeros(shape),
            emissivity=np.zeros(shape),
            absorptivity=np.zeros(shape),
            transmissivity=np.zeros(shape),
            tilt=np.full(shape, 90.0),
        )

    def volumetric_capacity(self) -> np.ndarray:
        """C * rho [J/(m^3 K)]."""
        return self.heat_capacity * self.density

    def validate(self, grid: BuildingGrid) -> None:
        shape = (grid.rows, grid.cols)
        for name, top in (
            ("emissivity", 1.0), ("absorptivity", 1.0), ("transmissivity", 1.0), ("tilt", 180.0)
        ):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValidationError(f"{name} shape {arr.shape} != grid {shape}")
            outside = ~((arr >= 0.0) & (arr <= top))  # NaN too
            if np.any(outside):
                r, c = np.argwhere(outside)[0]
                raise ValidationError(
                    f"{name}={arr[r, c]} outside [0, {top:g}] at cell ({r}, {c})"
                )
        over = self.absorptivity + self.transmissivity > 1.0 + 1e-12
        if np.any(over):
            r, c = np.argwhere(over)[0]
            raise ValidationError(
                f"absorptivity + transmissivity > 1 at cell ({r}, {c}): "
                f"{self.absorptivity[r, c]} + {self.transmissivity[r, c]}"
            )
        opaque = grid.cv_type != int(CvType.WINDOW)
        leaking = opaque & (self.transmissivity > 0.0)
        if np.any(leaking):
            r, c = np.argwhere(leaking)[0]
            raise ValidationError(
                f"transmissivity {self.transmissivity[r, c]} > 0 on opaque cell ({r}, {c})"
            )
        if not ((self.k_face >= 0.0).all() and (self.h_face >= 0.0).all()):
            raise ValidationError("conductivity and convection coefficients must be >= 0")
        if not ((self.heat_capacity >= 0.0).all() and (self.density >= 0.0).all()):
            raise ValidationError("heat capacity and density must be >= 0")
        needs_capacity = grid.cv_type != int(CvType.BOUNDARY)
        dead = needs_capacity & ~(self.volumetric_capacity() > 0.0)
        if np.any(dead):
            r, c = np.argwhere(dead)[0]
            raise ValidationError(f"C*rho = 0 on non-boundary cell ({r}, {c})")


# =============================================================================
# SIMULATION CONFIG
# =============================================================================


@dataclass
class MassParams:
    k_mass: float = 1.0  # W/(m K)
    rho_mass: float = 800.0  # kg/m^3
    c_mass: float = 1200.0  # J/(kg K)


@dataclass
class SimulationConfig:
    dt: float = 300.0  # s
    convergence_epsilon: float = 0.001  # K
    max_inner_iterations: int = 500
    enable_interior_lw: bool = True
    enable_exterior_lw: bool = True
    enable_solar: bool = True
    enable_interior_mass: bool = True
    envelope_layer_divisor: int = 1
    initial_temperature: float = 293.15  # K
    mass_params: MassParams = field(default_factory=MassParams)
    site: Optional[SitePosition] = None

    def validate(self) -> None:
        for key, value in (
            ("dt", self.dt),
            ("convergence_epsilon", self.convergence_epsilon),
            ("initial_temperature", self.initial_temperature),
            ("mass_params.k_mass", self.mass_params.k_mass),
            ("mass_params.rho_mass", self.mass_params.rho_mass),
            ("mass_params.c_mass", self.mass_params.c_mass),
        ):
            if not np.isfinite(value):
                raise ValidationError(f"{key}={value} must be finite")
        if self.site is not None:
            self.site.validate()
        if self.dt <= 0.0:
            raise ValidationError(f"dt={self.dt} must be positive")
        if self.convergence_epsilon <= 0.0:
            raise ValidationError(f"convergence_epsilon={self.convergence_epsilon} must be > 0")
        if self.max_inner_iterations < 1:
            raise ValidationError("max_inner_iterations must be >= 1")
        if self.envelope_layer_divisor < 1:
            raise ValidationError("envelope_layer_divisor must be >= 1")
        if self.initial_temperature <= 0.0:
            raise ValidationError("initial_temperature must be > 0 K")
        if self.enable_interior_mass and self.mass_params.k_mass <= 0.0:
            raise ValidationError("k_mass must be > 0 when interior mass is enabled")


# =============================================================================
# CONFIG LOADING
# =============================================================================

#: Material property keys and the value a material that omits one gets.
_PROPERTY_DEFAULTS = {
    "conductivity": 0.0,
    "h_exterior": 0.0,
    "specific_heat": 0.0,
    "density": 0.0,
    "emissivity": 0.0,
    "absorptivity": 0.0,
    "transmissivity": 0.0,
    "tilt": 90.0,
}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing {key!r} in {where}")
    return mapping[key]


def _finite(raw, where: str) -> float:
    """``raw`` as a float; raise ``ConfigError`` naming ``where`` unless it is a finite number."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}={value} must be finite")
    return value


def _parse_rect(raw, where: str, rows: int, cols: int) -> Tuple[int, int, int, int]:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
        raise ConfigError(f"{where}: rect must be [row0, col0, row1, col1], got {raw!r}")
    r0, c0, r1, c1 = (int(x) for x in raw)
    if not (0 <= r0 <= r1 < rows and 0 <= c0 <= c1 < cols):
        raise ConfigError(
            f"{where}: rect {raw!r} out of bounds for {rows}x{cols} grid "
            "(bounds are inclusive)"
        )
    return r0, c0, r1, c1


def _parse_cv_type(raw, where: str) -> CvType:
    name = str(raw).strip().lower()
    if name not in _CV_TYPE_NAMES:
        raise ConfigError(
            f"{where}: unknown cv_type {raw!r}; expected one of {sorted(_CV_TYPE_NAMES)}"
        )
    return _CV_TYPE_NAMES[name]


def load_building(config_text: str) -> Tuple[BuildingGrid, MaterialField, SimulationConfig]:
    """Parse a YAML building description into grid, materials, and config.

    The document has four sections. ``grid`` fixes the shape, floor height,
    and cell size. ``zones`` is an ordered list of rectangles painted onto
    the type map (later entries win). ``materials`` binds named property
    sets to CV types or rectangles, again in order. ``simulation`` holds
    solver settings, feature flags, and mass parameters; ``site`` is the
    location used for solar geometry.
    """
    try:
        doc = yaml.safe_load(config_text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("building config must be a mapping of sections")

    grid_sec = _require(doc, "grid", "building config")
    rows = int(_require(grid_sec, "rows", "grid section"))
    cols = int(_require(grid_sec, "cols", "grid section"))
    z = _finite(_require(grid_sec, "z", "grid section"), "grid.z")
    cell_size = _require(grid_sec, "cell_size", "grid section")
    if isinstance(cell_size, (list, tuple)):
        if len(cell_size) != 2:
            raise ConfigError("grid.cell_size must be a number or [size_x, size_y]")
        size_u, size_v = (_finite(x, "grid.cell_size") for x in cell_size)
    else:
        size_u = size_v = _finite(cell_size, "grid.cell_size")
    if rows < 1 or cols < 1 or size_u <= 0 or size_v <= 0 or z <= 0:
        raise ConfigError("grid dimensions, cell_size, and z must be positive")

    zones = _require(doc, "zones", "building config")
    if not isinstance(zones, list) or not zones:
        raise ConfigError("zones section must be a non-empty list")
    cv = np.full((rows, cols), int(CvType.BOUNDARY), dtype=np.int64)
    painted = np.zeros((rows, cols), dtype=bool)
    for i, zone in enumerate(zones):
        where = f"zones[{i}]" + (f" ({zone.get('name')})" if isinstance(zone, dict) else "")
        if not isinstance(zone, dict):
            raise ConfigError(f"{where}: zone entries must be mappings")
        kind = _parse_cv_type(_require(zone, "cv_type", where), where)
        r0, c0, r1, c1 = _parse_rect(_require(zone, "rect", where), where, rows, cols)
        cv[r0 : r1 + 1, c0 : c1 + 1] = int(kind)
        painted[r0 : r1 + 1, c0 : c1 + 1] = True
    if not painted.all():
        r, c = np.argwhere(~painted)[0]
        raise ConfigError(f"cell ({r}, {c}) not covered by any zone rectangle")

    grid = BuildingGrid.from_cv_types(cv, size_u, size_v, z)
    grid.source_config = doc

    sim_sec = doc.get("simulation", {}) or {}
    mass_sec = sim_sec.get("mass_params", {}) or {}
    config = SimulationConfig(
        dt=float(sim_sec.get("dt", 300.0)),
        convergence_epsilon=float(sim_sec.get("convergence_epsilon", 0.001)),
        max_inner_iterations=int(sim_sec.get("max_inner_iterations", 500)),
        enable_interior_lw=bool(sim_sec.get("enable_interior_lw", True)),
        enable_exterior_lw=bool(sim_sec.get("enable_exterior_lw", True)),
        enable_solar=bool(sim_sec.get("enable_solar", True)),
        enable_interior_mass=bool(sim_sec.get("enable_interior_mass", True)),
        envelope_layer_divisor=int(sim_sec.get("envelope_layer_divisor", 1)),
        initial_temperature=float(sim_sec.get("initial_temperature", 293.15)),
        mass_params=MassParams(
            k_mass=float(mass_sec.get("k_mass", 1.0)),
            rho_mass=float(mass_sec.get("rho_mass", 800.0)),
            c_mass=float(mass_sec.get("c_mass", 1200.0)),
        ),
    )
    site_sec = doc.get("site")
    if site_sec:
        config.site = SitePosition(
            latitude=float(_require(site_sec, "latitude", "site section")),
            longitude=float(_require(site_sec, "longitude", "site section")),
            albedo=float(site_sec.get("albedo", 0.2)),
        )
    config.validate()

    mats = _build_materials(doc, grid)

    grid.validate(allow_inner_envelope=config.envelope_layer_divisor > 1)
    mats.validate(grid)
    return grid, mats, config


def _build_materials(doc: dict, grid: BuildingGrid) -> MaterialField:
    mats = MaterialField.zeros(grid.rows, grid.cols)
    entries = _require(doc, "materials", "building config")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("materials section must be a non-empty list")

    cell_k = np.zeros((grid.rows, grid.cols))
    cell_h = np.zeros((grid.rows, grid.cols))
    covered = np.zeros((grid.rows, grid.cols), dtype=bool)

    for i, entry in enumerate(entries):
        where = f"materials[{i}]" + (
            f" ({entry.get('name')})" if isinstance(entry, dict) else ""
        )
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: material entries must be mappings")
        props = _require(entry, "properties", where)
        unknown = set(props) - _PROPERTY_DEFAULTS.keys()
        if unknown:
            raise ConfigError(f"{where}: unknown property keys {sorted(unknown)}")
        if "cv_type" in entry:
            mask = grid.cv_type == int(_parse_cv_type(entry["cv_type"], where))
        elif "rect" in entry:
            r0, c0, r1, c1 = _parse_rect(entry["rect"], where, grid.rows, grid.cols)
            mask = np.zeros((grid.rows, grid.cols), dtype=bool)
            mask[r0 : r1 + 1, c0 : c1 + 1] = True
        else:
            raise ConfigError(f"{where}: needs a cv_type or rect selector")

        values = {
            key: _finite(props.get(key, default), f"{where}: {key}")
            for key, default in _PROPERTY_DEFAULTS.items()
        }
        cell_k[mask] = values["conductivity"]
        cell_h[mask] = values["h_exterior"]
        mats.heat_capacity[mask] = values["specific_heat"]
        mats.density[mask] = values["density"]
        mats.emissivity[mask] = values["emissivity"]
        mats.absorptivity[mask] = values["absorptivity"]
        mats.transmissivity[mask] = values["transmissivity"]
        mats.tilt[mask] = values["tilt"]
        covered |= mask

    needs_props = grid.cv_type != int(CvType.BOUNDARY)
    if np.any(needs_props & ~covered):
        r, c = np.argwhere(needs_props & ~covered)[0]
        raise ConfigError(f"cell ({r}, {c}) has no material binding")

    _assign_face_coefficients(grid, mats, cell_k, cell_h)
    return mats


def _assign_face_coefficients(
    grid: BuildingGrid, mats: MaterialField, cell_k: np.ndarray, cell_h: np.ndarray
) -> None:
    """Turn per-cell conductivity into per-face fields.

    Interior faces carry the harmonic mean of the two cells' conductivities
    (zero if either side is zero). Exposed faces carry no conduction; they
    get the cell's exterior film coefficient instead. Faces adjacent to
    boundary-padding cells count as exposed.
    """

    def harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        s = a + b
        return np.where(s > 0.0, 2.0 * a * b / np.where(s > 0.0, s, 1.0), 0.0)

    # A face off the grid is exposed, so its zero fill never reaches k_face.
    neighbor_k = shift_fields(np.zeros((grid.rows + 2, grid.cols + 2)), cell_k)
    for d in range(4):
        exposed = grid.exposed_mask[d]
        mats.k_face[d] = np.where(exposed, 0.0, harmonic(cell_k, neighbor_k[d]))
        mats.h_face[d] = np.where(exposed, cell_h, 0.0)
    # Boundary-padding cells take no part in the update at all.
    boundary = grid.cv_type == int(CvType.BOUNDARY)
    mats.k_face[:, boundary] = 0.0
    mats.h_face[:, boundary] = 0.0


def load_building_file(path) -> Tuple[BuildingGrid, MaterialField, SimulationConfig]:
    with open(path, "r", encoding="utf-8") as handle:
        return load_building(handle.read())


def save_building(grid: BuildingGrid) -> str:
    """Serialize a loaded building back to the YAML document it came from.

    Reloading the returned text reproduces the grid, materials, and config
    field for field (loading is deterministic in the source document).
    """
    if grid.source_config is None:
        raise ValueError("grid was not produced by load_building; nothing to serialize")
    return yaml.safe_dump(grid.source_config, sort_keys=False)
