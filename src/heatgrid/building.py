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
import re
from dataclasses import MISSING, asdict, dataclass, field, fields
from enum import IntEnum
from numbers import Integral
from typing import Dict, Optional, Tuple

import numpy as np
import yaml

from .weather import SitePosition, ValidationError, check_finite

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

_CV_TYPE_NAMES = {kind.name.lower(): kind for kind in CvType}


class ConfigError(ValueError):
    """Raised when a building config document cannot be parsed."""


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


@dataclass(frozen=True)
class BuildingGrid:
    """Geometry of the discretized floor plan; built by ``from_cv_types``, read-only.

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
    delta_x: np.ndarray = field(repr=False)
    exposed_faces: np.ndarray = field(repr=False)
    exposed_mask: np.ndarray = field(repr=False)
    zone_id: np.ndarray = field(repr=False)
    n_zones: int
    window_zone: Dict[Tuple[int, int], int] = field(repr=False)

    @classmethod
    def from_cv_types(
        cls, cv_type: np.ndarray, u: np.ndarray, v: np.ndarray, z: float
    ) -> "BuildingGrid":
        """Build a grid from a type map and cell sizes: classify exposure, label zones.
        A size not finite and > 0 raises ``ValidationError`` naming the cell."""
        cv_type = np.array(cv_type, dtype=np.int64)
        rows, cols = cv_type.shape
        u = np.broadcast_to(np.asarray(u, dtype=float), cv_type.shape).copy()
        v = np.broadcast_to(np.asarray(v, dtype=float), cv_type.shape).copy()
        if not 0.0 < z < np.inf:
            raise ValidationError(f"floor height z={z} must be finite and > 0")
        for name, arr in (("U", u), ("V", v)):
            bad = ~((arr > 0.0) & (arr < np.inf))
            if np.any(bad):
                r, c = np.argwhere(bad)[0]
                raise ValidationError(
                    f"{name}={arr[r, c]} at cell ({r}, {c}) must be finite and > 0"
                )
        exposed_mask, exposed_faces, delta_x = _exposure(cv_type, u, v)
        zone_id, n_zones, window_zone = _zones(cv_type, exposed_mask)
        for arr in (cv_type, u, v, delta_x, exposed_faces, exposed_mask, zone_id):
            arr.flags.writeable = False
        return cls(
            rows=rows, cols=cols, cv_type=cv_type, u=u, v=v, z=float(z),
            delta_x=delta_x, exposed_faces=exposed_faces, exposed_mask=exposed_mask,
            zone_id=zone_id, n_zones=n_zones, window_zone=window_zone,
        )

    def is_envelope(self) -> np.ndarray:
        return _envelope(self.cv_type)

    def validate(self) -> None:
        """Check the rules a loaded plan obeys; raise ValidationError naming the cell."""
        if self.rows * self.cols < 4:
            raise ValidationError(f"grid {self.rows}x{self.cols} has fewer than 4 cells")
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
            raise ValidationError(
                f"{kind} cell ({r}, {c}) has no face adjacent to the exterior; "
                "an inner layer of a thick wall is an interior_wall cell"
            )
        if not np.any(self.cv_type == int(CvType.INTERIOR_AIR)):
            raise ValidationError("plan contains no interior air cells")


def _envelope(cv_type: np.ndarray) -> np.ndarray:
    return np.isin(cv_type, [int(t) for t in ENVELOPE_TYPES])


def _exposure(
    cv_type: np.ndarray, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-direction exterior mask, exposed-face count and delta_x of a type map.

    A face is exposed when its neighbor lies outside the grid or is a
    boundary-padding cell. Envelope cells with more than two exposed faces
    are unsupported geometry (a one-cell wall finger) and rejected.
    """
    rows, cols = cv_type.shape
    boundary = cv_type == int(CvType.BOUNDARY)
    pad = np.ones((rows + 2, cols + 2), dtype=bool)  # a face off the grid is exposed
    exposed = np.stack(shift_fields(pad, boundary))

    # Boundary cells themselves are the exterior; they expose nothing.
    exposed[:, boundary] = False

    counts = exposed.sum(axis=0)
    envelope = _envelope(cv_type)
    too_many = envelope & (counts > 2)
    if np.any(too_many):
        r, c = np.argwhere(too_many)[0]
        raise ValidationError(
            f"envelope cell ({r}, {c}) has {counts[r, c]} exterior faces; "
            "at most 2 supported"
        )

    delta = np.zeros((rows, cols), dtype=float)
    for d in range(4):
        delta += np.where(exposed[d], face_length(u, v, d), 0.0)
    # Exposure length only matters on envelope cells.
    delta *= envelope
    return exposed, counts.astype(np.int64), delta


def _zones(
    cv_type: np.ndarray, exposed_mask: np.ndarray
) -> Tuple[np.ndarray, int, Dict[Tuple[int, int], int]]:
    """Zone label per cell, zone count, and the zone behind each window.

    Zones are 4-connected components of interior-air cells, numbered in
    raster order of each zone's first cell; every other cell reads -1. A
    window's zone is found through its first interior-facing neighbor
    (marching inward through wall layers if needed).
    """
    rows, cols = cv_type.shape
    air_mask = cv_type == int(CvType.INTERIOR_AIR)
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
    zone_id = np.array(labels, dtype=np.int64).reshape(rows, cols)

    window_zone = {}
    for r, c in np.argwhere(cv_type == int(CvType.WINDOW)).tolist():
        zone = _zone_behind(cv_type, zone_id, exposed_mask, r, c)
        if zone is None:
            raise ValidationError(f"window cell ({r}, {c}) has no interior zone behind it")
        window_zone[(r, c)] = zone
    return zone_id, n_zones, window_zone


def _zone_behind(
    cv_type: np.ndarray, zone_id: np.ndarray, exposed_mask: np.ndarray, r: int, c: int
) -> Optional[int]:
    # Direct air neighbor first; then march inward along unexposed
    # directions; finally along diagonals combining them (covers corner
    # windows and windows sitting over a partition end).
    rows, cols = cv_type.shape
    for dr, dc in DIR_OFFSETS:
        nr, nc = r + dr, c + dc
        if 0 <= nr < rows and 0 <= nc < cols and zone_id[nr, nc] >= 0:
            return int(zone_id[nr, nc])
    straights = [(dr, dc) for d, (dr, dc) in enumerate(DIR_OFFSETS)
                 if not exposed_mask[d, r, c]]
    diagonals = []
    for i, (ar, ac) in enumerate(straights):
        for br, bc in straights[i + 1:]:
            combo = (ar + br, ac + bc)
            if combo != (0, 0) and combo not in diagonals:
                diagonals.append(combo)
    for dr, dc in straights + diagonals:
        nr, nc = r + dr, c + dc
        while 0 <= nr < rows and 0 <= nc < cols:
            if zone_id[nr, nc] >= 0:
                return int(zone_id[nr, nc])
            if cv_type[nr, nc] == int(CvType.BOUNDARY):
                break
            nr, nc = nr + dr, nc + dc
    return None


# =============================================================================
# MATERIALS
# =============================================================================


@dataclass(frozen=True)
class MaterialField:
    """Per-cell physical properties aligned to a grid, read-only.

    ``k_face`` and ``h_face`` are per-direction conduction and convection
    coefficient fields, shape (4, rows, cols), direction order east, north,
    west, south. Convection couples a face to the ambient air, so the
    loader populates ``h_face`` only on exposed faces and zeroes ``k_face``
    there (no conduction into the ambient).

    Every construction, ``dataclasses.replace`` included, stores read-only
    float copies of the properties, a scalar filled out to the shape of
    ``heat_capacity``, and checks every value that needs no grid; a
    property of the wrong shape or out of range raises ``ValidationError``
    naming it. ``for_grid`` also checks what needs the grid, and is how the
    program makes one.
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
    def for_grid(
        cls, grid: BuildingGrid, *, k_face=0.0, h_face=0.0, heat_capacity=0.0, density=0.0,
        emissivity=0.0, absorptivity=0.0, transmissivity=0.0, tilt=90.0,
    ) -> "MaterialField":
        """Materials of ``grid``, each property a scalar or an array of the grid's shape,
        (4, rows, cols) for ``k_face`` and ``h_face``.

        A property of the wrong shape or out of range raises ``ValidationError``
        naming it and the cell.
        """
        shape = (grid.rows, grid.cols)
        if np.ndim(heat_capacity) == 0:  # it gives the other properties their shape
            heat_capacity = np.full(shape, heat_capacity, float)
        elif np.shape(heat_capacity) != shape:
            raise ValidationError(f"heat_capacity shape {np.shape(heat_capacity)} != grid {shape}")
        mats = cls(k_face=k_face, h_face=h_face, heat_capacity=heat_capacity, density=density,
                   emissivity=emissivity, absorptivity=absorptivity,
                   transmissivity=transmissivity, tilt=tilt)
        mats._check_grid(grid)
        return mats

    def volumetric_capacity(self) -> np.ndarray:
        """C * rho [J/(m^3 K)]."""
        return self.heat_capacity * self.density

    def __post_init__(self) -> None:
        shape = np.shape(self.heat_capacity)  # the grid's, as the materials know it
        if len(shape) != 2:
            raise ValidationError(f"heat_capacity shape {shape} != grid (rows, cols)")
        for f in fields(self):
            value = getattr(self, f.name)
            want = (4,) + shape if f.name in _FACE_PROPERTIES else shape
            arr = np.full(want, value, float) if np.ndim(value) == 0 else np.array(value, float)
            if arr.shape != want:
                raise ValidationError(f"{f.name} shape {arr.shape} != grid {want}")
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)
        for name, top in (
            ("emissivity", 1.0), ("absorptivity", 1.0), ("transmissivity", 1.0), ("tilt", 180.0)
        ):
            arr = getattr(self, name)
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
        for name in ("k_face", "h_face", "heat_capacity", "density"):
            arr = getattr(self, name)
            negative = ~(arr >= 0.0)  # NaN too
            if np.any(negative):
                index = tuple(np.argwhere(negative)[0])
                *face, r, c = index
                label = f"{name}[{DIR_ORIENTATION[face[0]]}]" if face else name
                raise ValidationError(f"{label}={arr[index]} must be >= 0 at cell ({r}, {c})")

    def _check_grid(self, grid: BuildingGrid) -> None:
        opaque = grid.cv_type != int(CvType.WINDOW)
        leaking = opaque & (self.transmissivity > 0.0)
        if np.any(leaking):
            r, c = np.argwhere(leaking)[0]
            raise ValidationError(
                f"transmissivity {self.transmissivity[r, c]} > 0 on opaque cell ({r}, {c})"
            )
        needs_capacity = grid.cv_type != int(CvType.BOUNDARY)
        dead = needs_capacity & ~(self.volumetric_capacity() > 0.0)
        if np.any(dead):
            r, c = np.argwhere(dead)[0]
            raise ValidationError(f"C*rho = 0 on non-boundary cell ({r}, {c})")


#: The properties given per face, with a leading direction axis.
_FACE_PROPERTIES = ("k_face", "h_face")


# =============================================================================
# SIMULATION CONFIG
# =============================================================================


@dataclass(frozen=True)
class MassParams:
    k_mass: float = 1.0  # W/(m K)
    rho_mass: float = 800.0  # kg/m^3
    c_mass: float = 1200.0  # J/(kg K)


@dataclass(frozen=True)
class SimulationConfig:
    """Solver settings, checked when made; ``dataclasses.replace`` checks again."""

    dt: float = 300.0  # s
    convergence_epsilon: float = 0.001  # K
    max_inner_iterations: int = 500
    enable_interior_lw: bool = True
    enable_exterior_lw: bool = True
    enable_solar: bool = True
    enable_interior_mass: bool = True
    initial_temperature: float = 293.15  # K
    mass_params: MassParams = field(default_factory=MassParams)
    site: Optional[SitePosition] = None

    def __post_init__(self) -> None:
        values = {k: getattr(self, k) for k in ("dt", "convergence_epsilon", "initial_temperature")}
        values.update((f"mass_params.{k}", v) for k, v in asdict(self.mass_params).items())
        for key, value in values.items():
            check_finite(value, key)
        for key in ("enable_interior_lw", "enable_exterior_lw", "enable_solar",
                    "enable_interior_mass"):
            if not isinstance(getattr(self, key), bool):
                raise ValidationError(f"{key}={getattr(self, key)!r} is not true or false")
        if self.dt <= 0.0:
            raise ValidationError(f"dt={self.dt} must be positive")
        if self.convergence_epsilon <= 0.0:
            raise ValidationError(f"convergence_epsilon={self.convergence_epsilon} must be > 0")
        iterations = self.max_inner_iterations
        if isinstance(iterations, bool) or not isinstance(iterations, Integral) or iterations < 1:
            raise ValidationError(f"max_inner_iterations={iterations!r} must be an integer >= 1")
        if self.initial_temperature <= 0.0:
            raise ValidationError("initial_temperature must be > 0 K")
        if self.enable_interior_mass and self.mass_params.k_mass <= 0.0:
            raise ValidationError("k_mass must be > 0 when interior mass is enabled")
        # Zero is the t0 -> 0 limit of the mass update; below it the node runs away.
        for key in ("rho_mass", "c_mass"):
            value = getattr(self.mass_params, key)
            if value < 0.0:
                raise ValidationError(f"mass_params.{key}={value} must be >= 0")


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


def _known_keys(mapping: dict, keys, where: str) -> None:
    """Raise ``ConfigError`` naming ``where`` if ``mapping`` holds a key not in ``keys``."""
    unknown = set(mapping) - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(map(str, unknown))}")


def _mapping(raw, where: str, keys) -> dict:
    """``raw`` as a mapping of some of ``keys``, None (an empty YAML section) as an
    empty one; else ``ConfigError``."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, got {raw!r}")
    _known_keys(raw, keys, where)
    return raw


def _finite(raw, where: str) -> float:
    """``raw`` as a float; raise ``ConfigError`` naming ``where`` unless it is a finite number.

    A YAML string is not a number, even one that ``float`` reads (``"300"``).
    """
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = None
    if value is None or isinstance(raw, (bool, str)):  # float(True) is 1.0
        raise ConfigError(f"{where}={raw!r} is not a number")
    if not math.isfinite(value):
        raise ConfigError(f"{where}={value} must be finite")
    return value


def _integer(raw, where: str) -> int:
    """``raw`` as an int; raise ``ConfigError`` naming ``where`` unless it is an integral number."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not float(raw).is_integer():
        raise ConfigError(f"{where}={raw!r} is not an integer")
    return int(raw)


def _flag(raw, where: str) -> bool:
    """``raw`` as a flag; raise ``ConfigError`` naming ``where`` unless it is a YAML boolean."""
    if not isinstance(raw, bool):
        raise ConfigError(f"{where}={raw!r} is not true or false")
    return raw


#: The reader of each ``simulation`` key, in ``SimulationConfig`` field order.
_SIMULATION_READERS = dict(
    dt=_finite, convergence_epsilon=_finite, max_inner_iterations=_integer,
    enable_interior_lw=_flag, enable_exterior_lw=_flag, enable_solar=_flag,
    enable_interior_mass=_flag, initial_temperature=_finite,
)


def _settings(cls, section: dict, prefix: str, readers=None) -> dict:
    """Keyword arguments of dataclass ``cls`` for the keys ``section`` states, read in field
    order by ``readers[key]`` (all by ``_finite`` if ``readers`` is None). A field with no
    reader is left out; one with no default must be stated."""
    settings = {}
    for f in fields(cls):
        read = _finite if readers is None else readers.get(f.name)
        if read and f.name in section:
            settings[f.name] = read(section[f.name], f"{prefix}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing {f.name!r} in {prefix} section")
    return settings


def _parse_rect(raw, where: str, rows: int, cols: int) -> Tuple[int, int, int, int]:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
        raise ConfigError(f"{where}: rect must be [row0, col0, row1, col1], got {raw!r}")
    r0, c0, r1, c1 = (_integer(x, f"{where}: rect entry") for x in raw)
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


def _plan_loader(base: type) -> type:
    """PyYAML's safe loader ``base``, reading YAML 1.2's exponent floats too.

    PyYAML resolves plain scalars by YAML 1.1, whose floats need a dot and
    a signed exponent, so without this ``1e-3`` and ``1E3`` load as strings.
    """
    loader = type("PlanLoader", (base,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )
    return loader


#: libyaml's parser where PyYAML was built with it; same documents
_PLAN_LOADER = _plan_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


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
        doc = yaml.load(config_text, Loader=_PLAN_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("building config must be a mapping of sections")
    _known_keys(doc, ("grid", "zones", "materials", "simulation", "site"), "building config")

    grid_sec = _mapping(
        _require(doc, "grid", "building config"), "grid section", ("rows", "cols", "z", "cell_size")
    )
    rows = _integer(_require(grid_sec, "rows", "grid section"), "grid.rows")
    cols = _integer(_require(grid_sec, "cols", "grid section"), "grid.cols")
    z = _finite(_require(grid_sec, "z", "grid section"), "grid.z")
    cell_size = _require(grid_sec, "cell_size", "grid section")
    if isinstance(cell_size, (list, tuple)):
        if len(cell_size) != 2:
            raise ConfigError("grid.cell_size must be a number or [size_x, size_y]")
        size_u, size_v = (_finite(x, "grid.cell_size") for x in cell_size)
    else:
        size_u = size_v = _finite(cell_size, "grid.cell_size")
    for key, value in (("rows", rows), ("cols", cols)):
        if value < 1:
            raise ConfigError(f"grid.{key}={value} must be >= 1")
    for key, value in (("z", z), ("cell_size", size_u), ("cell_size", size_v)):
        if value <= 0:
            raise ConfigError(f"grid.{key}={value} must be > 0")

    zones = _require(doc, "zones", "building config")
    if not isinstance(zones, list) or not zones:
        raise ConfigError("zones section must be a non-empty list")
    cv = np.full((rows, cols), int(CvType.BOUNDARY), dtype=np.int64)
    painted = np.zeros((rows, cols), dtype=bool)
    for i, zone in enumerate(zones):
        where = f"zones[{i}]" + (f" ({zone.get('name')})" if isinstance(zone, dict) else "")
        if not isinstance(zone, dict):
            raise ConfigError(f"{where}: zone entries must be mappings")
        _known_keys(zone, ("name", "cv_type", "rect"), where)
        kind = _parse_cv_type(_require(zone, "cv_type", where), where)
        r0, c0, r1, c1 = _parse_rect(_require(zone, "rect", where), where, rows, cols)
        cv[r0 : r1 + 1, c0 : c1 + 1] = int(kind)
        painted[r0 : r1 + 1, c0 : c1 + 1] = True
    if not painted.all():
        r, c = np.argwhere(~painted)[0]
        raise ConfigError(f"cell ({r}, {c}) not covered by any zone rectangle")

    grid = BuildingGrid.from_cv_types(cv, size_u, size_v, z)
    grid.validate()

    sim_keys = [f.name for f in fields(SimulationConfig) if f.name != "site"]
    sim_sec = _mapping(doc.get("simulation"), "simulation section", sim_keys)
    mass_keys = [f.name for f in fields(MassParams)]
    mass_sec = _mapping(sim_sec.get("mass_params"), "simulation.mass_params section", mass_keys)
    site_sec = _mapping(doc.get("site"), "site section", [f.name for f in fields(SitePosition)])
    config = SimulationConfig(
        **_settings(SimulationConfig, sim_sec, "simulation", _SIMULATION_READERS),
        mass_params=MassParams(**_settings(MassParams, mass_sec, "simulation.mass_params")),
        site=SitePosition(**_settings(SitePosition, site_sec, "site")) if site_sec else None,
    )
    return grid, _build_materials(doc, grid), config


def _build_materials(doc: dict, grid: BuildingGrid) -> MaterialField:
    entries = _require(doc, "materials", "building config")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("materials section must be a non-empty list")

    cells = {key: np.full((grid.rows, grid.cols), default)
             for key, default in _PROPERTY_DEFAULTS.items()}
    covered = np.zeros((grid.rows, grid.cols), dtype=bool)

    for i, entry in enumerate(entries):
        where = f"materials[{i}]" + (
            f" ({entry.get('name')})" if isinstance(entry, dict) else ""
        )
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: material entries must be mappings")
        _known_keys(entry, ("name", "cv_type", "rect", "properties"), where)
        props = _mapping(
            _require(entry, "properties", where), f"{where}: properties", _PROPERTY_DEFAULTS
        )
        if "cv_type" in entry and "rect" in entry:
            raise ConfigError(f"{where}: give cv_type or rect, not both")
        if "cv_type" in entry:
            mask = grid.cv_type == int(_parse_cv_type(entry["cv_type"], where))
        elif "rect" in entry:
            r0, c0, r1, c1 = _parse_rect(entry["rect"], where, grid.rows, grid.cols)
            mask = np.zeros((grid.rows, grid.cols), dtype=bool)
            mask[r0 : r1 + 1, c0 : c1 + 1] = True
        else:
            raise ConfigError(f"{where}: needs a cv_type or rect selector")

        for key, default in _PROPERTY_DEFAULTS.items():
            value = _finite(props.get(key, default), f"{where}: {key}")
            if value < 0.0:
                raise ConfigError(f"{where}: {key}={value} must be >= 0")
            cells[key][mask] = value
        covered |= mask

    needs_props = grid.cv_type != int(CvType.BOUNDARY)
    if np.any(needs_props & ~covered):
        r, c = np.argwhere(needs_props & ~covered)[0]
        raise ConfigError(f"cell ({r}, {c}) has no material binding")

    k_face, h_face = _face_coefficients(grid, cells.pop("conductivity"), cells.pop("h_exterior"))
    cells["heat_capacity"] = cells.pop("specific_heat")  # the rest are named as their field
    return MaterialField.for_grid(grid, k_face=k_face, h_face=h_face, **cells)


def _face_coefficients(
    grid: BuildingGrid, cell_k: np.ndarray, cell_h: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-face ``(k_face, h_face)`` fields from per-cell conductivity and film coefficient.

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
    exposed = grid.exposed_mask
    k_face = np.where(exposed, 0.0, np.stack([harmonic(cell_k, k) for k in neighbor_k]))
    h_face = np.where(exposed, cell_h, 0.0)
    # Boundary-padding cells take no part in the update at all.
    boundary = grid.cv_type == int(CvType.BOUNDARY)
    k_face[:, boundary] = 0.0
    h_face[:, boundary] = 0.0
    return k_face, h_face


def load_building_file(path) -> Tuple[BuildingGrid, MaterialField, SimulationConfig]:
    with open(path, "r", encoding="utf-8") as handle:
        return load_building(handle.read())
