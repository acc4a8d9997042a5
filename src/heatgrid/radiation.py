"""
Radiative flux assembly: exterior long-wave, interior exchange, and solar.

Exterior surfaces exchange long-wave radiation with ground, sky, and air,
weighted by tilt-dependent view factors with a sky correction
(beta = sqrt(F_sky)) that shifts part of the sky exchange to air
temperature. Interior surfaces exchange through gray-body exchange
factors held in one form only: dense blocks, one per group of surfaces
that exchange with each other (for a built plan, one per zone), padded
into a few size classes. Zones never exchange with each other, so neither
the build nor the solve of a built plan forms an S x S array. The dense
matrix exists only in the delimited-text format and on request
(``RadiationExchangeMatrix.coefficients``); loading it finds the groups
again as the connected components of its nonzero entries. A builder
derives the factors with the 2D crossed-strings method; it needs
rectangular zones and rejects any other with an ``OpenCavityError``
naming the zone and its bounding box. Solar fluxes are
split into an absorbed part on the envelope and a transmitted part
deposited in the zone behind each window (or routed to the interior mass
nodes when those are enabled).

Every returned flux tensor is expressed in watts per cell. Envelope cells
scale the surface flux density [W/m^2] by their exposed face area: one
face length times floor height on straight runs, the sum of both face
lengths at corners. Only envelope cells radiate to the exterior, so the
per-step work runs on envelope vectors: the solver evaluates exterior
long-wave on the columns of the weights that are non-zero, and
``solar_basis`` keeps, once per plan, the cells, windows and air cells
that a step's solar tensors touch.
"""

from __future__ import annotations

import csv
import io
from dataclasses import InitVar, dataclass, field
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .building import (
    CvType,
    BuildingGrid,
    DIR_OFFSETS,
    DIR_ORIENTATION,
    MaterialField,
    face_length,
)
from .solar import PoaIrradiance

STEFAN_BOLTZMANN = 5.670374419e-8  # W/(m^2 K^4)

_FACE_NAMES = ("east", "north", "west", "south")


class OpenCavityError(ValueError):
    """Raised when a zone is not a closed rectangular cavity of wall or window cells."""


# =============================================================================
# EXTERIOR LONG-WAVE
# =============================================================================


class ViewFactorSet(NamedTuple):
    """Tilt-dependent view factors and sky correction, one entry per tilt.

    For tilt angle phi from horizontal:
    ``F_gnd = (1 - cos phi)/2``, ``F_sky = (1 + cos phi)/2``,
    ``beta = sqrt(F_sky)``, ``F_air = F_sky (1 - beta)``.
    The weights satisfy ``F_gnd + beta F_sky + F_air = 1`` for every tilt.
    """

    f_gnd: np.ndarray
    f_sky: np.ndarray
    beta: np.ndarray
    f_air: np.ndarray


def view_factors(tilt) -> ViewFactorSet:
    """View factors for surfaces tilted ``tilt`` degrees from horizontal.

    Takes a scalar or an array of tilts and returns arrays of the same
    shape. A tilt outside [0, 180], NaN included, raises. Uses a
    degree-exact cosine so vertical surfaces come out at F_gnd = F_sky =
    0.5 exactly.
    """
    tilt = np.asarray(tilt, dtype=float)
    bad = ~((tilt >= 0.0) & (tilt <= 180.0))
    if np.any(bad):
        raise ValueError(f"tilt {tilt[bad][0]} outside [0, 180] degrees")
    # Degree-exact cosine: table values at 0, 90 and 180 degrees.
    quarter_turns, rest = np.divmod(tilt, 90.0)
    exact = np.array([1.0, 0.0, -1.0])[quarter_turns.astype(np.intp)]
    cos_tilt = np.where(rest == 0.0, exact, np.cos(np.radians(tilt)))
    f_gnd = 0.5 * (1.0 - cos_tilt)
    f_sky = 0.5 * (1.0 + cos_tilt)
    beta = np.sqrt(f_sky)
    return ViewFactorSet(f_gnd, f_sky, beta, f_sky * (1.0 - beta))


def exterior_lw_weights(
    grid: BuildingGrid, mats: MaterialField, layer_divisor: int
) -> np.ndarray:
    """Exterior long-wave weights [W/K^4 per cell], shape ``(3, rows, cols)``.

    ``eps sigma A (F_gnd, beta F_sky, F_air)``, with ``A`` the exposed area
    [m^2]: the cell's total exposed face length times floor height, so a
    corner of a square-cell grid gets twice an edge cell's. With
    ``layer_divisor`` > 1, an envelope cell with no exposed face (an inner
    layer of a multi-layer wall) gets a nominal face length divided by the
    layer count; otherwise it gets nothing. Every weight is zero off the
    envelope. They depend on the plan alone; ``prepare`` computes them once
    per run.
    """
    scale = grid.delta_x * grid.z
    if layer_divisor > 1:
        inner = grid.is_envelope() & (grid.exposed_faces == 0)
        nominal = 0.5 * (grid.u + grid.v)
        scale = scale + np.where(inner, nominal / layer_divisor * grid.z, 0.0)
    vf = view_factors(mats.tilt)
    area = mats.emissivity * STEFAN_BOLTZMANN * scale
    return np.stack((area * vf.f_gnd, area * vf.beta * vf.f_sky, area * vf.f_air))


def assemble_exterior_lw_tensor(
    weights: np.ndarray, temperatures: np.ndarray, t_gnd: float, t_sky: float, t_air: float
) -> np.ndarray:
    """Exterior long-wave tensor [W per cell] for one temperature field.

    ``w_gnd (T_gnd^4 - T^4) + w_sky (T_sky^4 - T^4) + w_air (T_air^4 - T^4)``
    with the weights of ``exterior_lw_weights``: each envelope cell's
    surface temperature is its cell temperature, and cells off the
    envelope get zero. Element-wise, so it takes the full ``(3, rows,
    cols)`` weights with a field, or the ``(3, n)`` columns of ``n`` cells
    with their temperatures.
    """
    t4 = temperatures**4
    return (
        weights[0] * (t_gnd**4 - t4)
        + weights[1] * (t_sky**4 - t4)
        + weights[2] * (t_air**4 - t4)
    )


# =============================================================================
# INTERIOR EXCHANGE
# =============================================================================


class ExchangeBlock(NamedTuple):
    """Dense exchange factors of ``Z`` groups of surfaces, padded to ``M``.

    ``index[b]`` lists the surfaces of group ``b`` followed by padding slots
    that hold ``n_surfaces``, ``factors[b, p, q]`` is the factor from
    surface ``index[b, p]`` to ``index[b, q]`` (zero for a padding slot) and
    ``row_sums[b, p]`` the sum of row ``p``.
    """

    index: np.ndarray  # (Z, M)
    factors: np.ndarray  # (Z, M, M)
    row_sums: np.ndarray  # (Z, M)


@dataclass
class RadiationExchangeMatrix:
    """Interior exchange factors between cavity surfaces, stored as dense blocks.

    Surfaces are wall or window cell faces; ``surfaces[i] = (row, col,
    direction)`` names the face (direction points from the cell into the
    cavity), ``areas[i]`` is its face area [m^2], and ``surface_rows`` and
    ``surface_cols`` index each surface's cell. ``groups`` partitions the
    surfaces into groups ``(members, factors)`` that exchange only among
    themselves: ``factors[p, q]`` is the gray-body exchange factor from
    surface ``members[p]`` to ``members[q]``, and the net flux density on
    surface i is ``sigma * sum_j F_ij (T_j^4 - T_i^4)``. For a built plan a
    group is a zone, so S surfaces in zones of S_z hold ``sum_z S_z^2``
    factors, not S^2.

    Construction validates the groups and packs them into ``blocks``, size
    classes of one ``ExchangeBlock`` each, and keeps no other copy. A class
    takes the largest group left and every other of at least half its
    surface count, padded to the largest, so there are O(log(largest /
    smallest)) classes whatever the mix of sizes, and padding at most
    quadruples a class's factors.
    """

    surfaces: List[Tuple[int, int, int]]
    areas: np.ndarray
    groups: InitVar[Sequence[Tuple[np.ndarray, np.ndarray]]]
    surface_rows: np.ndarray = field(init=False, repr=False)
    surface_cols: np.ndarray = field(init=False, repr=False)
    blocks: List[ExchangeBlock] = field(init=False, repr=False)

    def __post_init__(self, groups: Sequence[Tuple[np.ndarray, np.ndarray]]) -> None:
        self.areas = np.asarray(self.areas, dtype=float)
        if self.areas.shape != (self.n_surfaces,):
            raise ValueError("surface list and area vector must match n_surfaces")
        groups = [(np.asarray(m, dtype=np.intp), np.asarray(f, dtype=float)) for m, f in groups]
        self.surface_rows = np.array([s[0] for s in self.surfaces], dtype=np.intp)
        self.surface_cols = np.array([s[1] for s in self.surfaces], dtype=np.intp)
        self.blocks = _pack_blocks(self.surfaces, groups)

    @classmethod
    def from_dense(
        cls,
        coefficients: np.ndarray,
        surfaces: List[Tuple[int, int, int]],
        areas: np.ndarray,
    ) -> "RadiationExchangeMatrix":
        """Groups from a dense ``n x n`` factor matrix.

        The groups are the connected components of the nonzero pattern, an
        entry linking its surfaces both ways, so cross-zone entries merge
        zones and a surface with no factors is a group of one. Each grows
        from its lowest surface a frontier at a time, reading each row of
        the pattern once: O(n^2), as parsing the dense text is.
        """
        coefficients = np.asarray(coefficients, dtype=float)
        n = len(surfaces)
        if coefficients.shape != (n, n):
            raise ValueError(
                f"coefficient matrix shape {coefficients.shape} != ({n}, {n})"
            )
        linked = coefficients != 0.0
        linked |= linked.T
        label = np.full(n, -1)
        for seed in range(n):
            if label[seed] >= 0:
                continue
            frontier = [seed]
            while len(frontier):
                label[frontier] = seed
                frontier = np.flatnonzero(linked[frontier].any(axis=0) & (label < 0))
        order = np.argsort(label, kind="stable")
        members = np.split(order, np.flatnonzero(np.diff(label[order])) + 1) if n else []
        return cls(surfaces, areas, [(m, coefficients[np.ix_(m, m)]) for m in members])

    @property
    def n_surfaces(self) -> int:
        return len(self.surfaces)

    @property
    def coefficients(self) -> np.ndarray:
        """Dense ``n x n`` factors, expanded from the blocks on each access.

        For the text format and for inspection; the solvers use the blocks.
        """
        n = self.n_surfaces
        dense = np.zeros((n + 1, n + 1))  # row and column n take the padding slots
        for index, factors, _ in self.blocks:
            dense[index[:, :, None], index[:, None, :]] = factors
        return dense[:n, :n]

    def surface_temperatures(self, temperatures: np.ndarray) -> np.ndarray:
        return temperatures[self.surface_rows, self.surface_cols]


def _pack_blocks(
    surfaces: List[Tuple[int, int, int]], groups: List[Tuple[np.ndarray, np.ndarray]]
) -> List[ExchangeBlock]:
    """Validate the groups and pad them into size classes with slot ``n``.

    Classes run largest first, and groups of one size in the order of
    their lowest surface.
    """
    n = len(surfaces)
    for g, (members, factors) in enumerate(groups):
        if members.ndim != 1 or not members.size or factors.shape != (members.size,) * 2:
            raise ValueError(
                f"exchange group {g} has members of shape {members.shape} and factors of "
                f"shape {factors.shape}; it needs a square block over at least one surface"
            )
    listed = np.concatenate([m for m, _ in groups] or [np.zeros(0, dtype=np.intp)])
    outside = (listed < 0) | (listed >= n)
    if np.any(outside):
        raise ValueError(f"exchange surface {listed[outside][0]} is outside surfaces [0, {n})")
    count = np.bincount(listed, minlength=n)
    if np.any(count != 1):
        i = int(np.argmax(count != 1))
        raise ValueError(
            f"surface {i} at cell {surfaces[i][:2]} lies in {count[i]} exchange groups, "
            "not exactly one"
        )
    groups = sorted(groups, key=lambda g: (-g[0].size, g[0].min()))
    blocks = []
    first = 0
    while first < len(groups):
        m = groups[first][0].size
        stop = first + sum(2 * g[0].size >= m for g in groups[first:])
        index = np.full((stop - first, m), n)
        factors = np.zeros((stop - first, m, m))
        for b, (members, f) in enumerate(groups[first:stop]):
            index[b, : members.size] = members
            factors[b, : members.size, : members.size] = f
        bad = ~np.isfinite(factors) | (factors < 0.0)
        if np.any(bad):
            b, p, q = np.argwhere(bad)[0]
            i, j = index[b, p], index[b, q]
            raise ValueError(
                f"exchange factor F[{i}, {j}] = {float(factors[b, p, q])!r} between surface {i} "
                f"at cell {surfaces[i][:2]} and surface {j} at cell "
                f"{surfaces[j][:2]} is not finite and >= 0"
            )
        row_sums = factors.sum(axis=2)
        if np.any(row_sums > 1.0 + 1e-9):
            b, p = np.unravel_index(np.argmax(row_sums), row_sums.shape)
            raise ValueError(f"row {index[b, p]} of exchange matrix sums to {row_sums[b, p]} > 1")
        blocks.append(ExchangeBlock(index, factors, row_sums))
        first = stop
    return blocks


def apply_interior_lw(
    matrix: RadiationExchangeMatrix, surface_temps: np.ndarray
) -> np.ndarray:
    """Net interior long-wave flux density [W/m^2] per surface.

    ``q_i = sigma sum_j F_ij (T_j^4 - T_i^4)``; with reciprocal exchange
    factors the area-weighted fluxes sum to zero over the enclosure. One
    batched matmul per block computes ``sum_j F_ij u_j - (sum_j F_ij) u_i``
    with ``u`` the fourth powers less those of the block's first surface,
    so an isothermal enclosure gives ``u = 0`` and an exactly zero vector.
    Padding slots read the last surface's temperature (their index is
    clipped) and write one spare entry past the surfaces; their factors are
    zero, so they change no surface's flux.
    The temperatures are not checked here: the solvers check every iterate.
    """
    surface_temps = np.asarray(surface_temps, dtype=float)
    if surface_temps.shape != (matrix.n_surfaces,):
        raise ValueError(
            f"got {surface_temps.shape[0] if surface_temps.ndim else 0} surface "
            f"temperatures for a {matrix.n_surfaces}-surface matrix"
        )
    q = np.empty(matrix.n_surfaces + 1)
    for index, factors, row_sums in matrix.blocks:
        t4 = surface_temps.take(index, mode="clip") ** 4
        u = t4 - t4[:, :1]
        q[index] = np.matmul(factors, u[:, :, None])[:, :, 0] - row_sums * u
    return STEFAN_BOLTZMANN * q[:-1]


def scatter_interior_lw(
    matrix: RadiationExchangeMatrix, flux_density: np.ndarray, grid: BuildingGrid
) -> np.ndarray:
    """Scatter per-surface flux densities into a per-cell tensor [W].

    Each surface contributes its flux density times its face area to the
    owning cell, mirroring the exposed-face scaling of the exterior tensor.
    """
    cells = np.ravel_multi_index(
        (matrix.surface_rows, matrix.surface_cols), (grid.rows, grid.cols)
    )
    q_lwx = np.bincount(
        cells, weights=flux_density * matrix.areas, minlength=grid.rows * grid.cols
    )
    return q_lwx.reshape(grid.rows, grid.cols)


def build_exchange_matrix_2d(
    grid: BuildingGrid, mats: MaterialField
) -> RadiationExchangeMatrix:
    """Exchange factors for every air zone by the 2D crossed-strings method.

    Each zone must be a closed rectangular cavity: every face of every air
    cell either meets another air cell of the same zone or a wall/window
    cell, and the zone's air cells fill their bounding box (on a grid, the
    same as being convex, which unobstructed crossed strings needs). Zones
    do not exchange with each other, so the work runs one zone at a time:
    view factors between the zone's wall segments come from crossed
    strings, rows are renormalized to close exactly, emissivities are
    folded in with the pairwise two-surface network approximation, and
    reciprocity is checked. The cost is O(sum_z S_z^2), and each zone's
    dense block becomes one exchange group.
    """
    if not (np.allclose(grid.u, grid.u.flat[0]) and np.allclose(grid.v, grid.v.flat[0])):
        raise ValueError("crossed-strings builder requires a uniform cell size")
    size_u = float(grid.u.flat[0])
    size_v = float(grid.v.flat[0])

    surfaces: List[Tuple[int, int, int]] = []
    segments: List[Tuple[Tuple[float, float], Tuple[float, float]]] = []
    eps_list: List[float] = []
    zone_of_surface: List[int] = []

    wall_types = (int(CvType.EXTERIOR_WALL), int(CvType.INTERIOR_WALL), int(CvType.WINDOW))
    air_cells = np.argwhere(grid.zone_id >= 0)
    for r, c in air_cells:
        r, c = int(r), int(c)
        zone = int(grid.zone_id[r, c])
        for d, (dr, dc) in enumerate(DIR_OFFSETS):
            nr, nc = r + dr, c + dc
            if 0 <= nr < grid.rows and 0 <= nc < grid.cols and grid.zone_id[nr, nc] == zone:
                continue  # internal to the cavity
            if not (
                0 <= nr < grid.rows
                and 0 <= nc < grid.cols
                and int(grid.cv_type[nr, nc]) in wall_types
            ):
                raise OpenCavityError(
                    f"zone {zone} is open at air cell ({r}, {c}) toward {_FACE_NAMES[d]}"
                )
            x0, y0 = c * size_u, r * size_v
            if d == 0:  # east face of the air cell
                seg = ((x0 + size_u, y0), (x0 + size_u, y0 + size_v))
            elif d == 1:  # north
                seg = ((x0, y0), (x0 + size_u, y0))
            elif d == 2:  # west
                seg = ((x0, y0), (x0, y0 + size_v))
            else:  # south
                seg = ((x0, y0 + size_v), (x0 + size_u, y0 + size_v))
            surfaces.append((nr, nc, (d + 2) % 4))  # wall face looks back into the cavity
            segments.append(seg)
            eps_list.append(float(mats.emissivity[nr, nc]))
            zone_of_surface.append(zone)

    if not surfaces:
        raise OpenCavityError("no air zones found; nothing to enclose")

    a1 = np.array([seg[0] for seg in segments])
    a2 = np.array([seg[1] for seg in segments])
    lengths = np.linalg.norm(a2 - a1, axis=1)
    areas = lengths * grid.z
    eps = np.array(eps_list)
    zone_of_surface = np.array(zone_of_surface)
    air_zone = grid.zone_id[air_cells[:, 0], air_cells[:, 1]]

    groups = []
    for zone in range(grid.n_zones):
        _check_rectangular(zone, air_cells[air_zone == zone])
        members = np.flatnonzero(zone_of_surface == zone)
        f = _crossed_strings(a1[members], a2[members], lengths[members])
        row_sums = f.sum(axis=1)
        if np.any(row_sums <= 0.0):
            k = int(np.argmin(row_sums))
            raise OpenCavityError(
                f"surface {surfaces[members[k]]} of zone {zone} sees no other surface"
            )
        f /= row_sums[:, None]
        folded = _fold_emissivity(f, eps[members], areas[members])
        _check_reciprocity(zone, folded, areas[members])
        groups.append((members, folded))

    return RadiationExchangeMatrix(surfaces, areas, groups)


def _check_rectangular(zone: int, cells: np.ndarray) -> None:
    """Reject a zone whose air cells do not fill their bounding box."""
    (r0, c0), (r1, c1) = cells.min(axis=0), cells.max(axis=0)
    if len(cells) != (r1 - r0 + 1) * (c1 - c0 + 1):
        raise OpenCavityError(
            f"zone {zone} is not rectangular: its {len(cells)} air cells do not fill "
            f"their bounding box rows {r0}-{r1}, cols {c0}-{c1}; crossed-strings "
            "exchange needs convex cavities"
        )


def _crossed_strings(a1: np.ndarray, a2: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """View factors between the segments ``a1[i]``-``a2[i]`` of one convex cavity."""

    def dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)

    # Crossed strings: the crossing pairing is always the longer one, so the
    # endpoint labeling never matters.
    straight = dist(a1, a1) + dist(a2, a2)
    crossed = dist(a1, a2) + dist(a2, a1)
    f = np.abs(crossed - straight) / (2.0 * lengths[:, None])
    np.fill_diagonal(f, 0.0)
    return f


def _fold_emissivity(f: np.ndarray, eps: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Pairwise two-surface-network gray factors from raw view factors.

    ``Fhat_ij = 1 / [(1 - e_i)/e_i + 1/F_ij + (A_i/A_j)(1 - e_j)/e_j]``;
    reduces to F for black surfaces and preserves reciprocity.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        r_self = np.where(eps > 0.0, (1.0 - eps) / np.where(eps > 0.0, eps, 1.0), np.inf)
        inv_f = np.where(f > 0.0, 1.0 / np.where(f > 0.0, f, 1.0), np.inf)
        area_ratio = areas[:, None] / areas[None, :]
        denom = r_self[:, None] + inv_f + area_ratio * r_self[None, :]
        folded = np.where(np.isfinite(denom), 1.0 / denom, 0.0)
    np.fill_diagonal(folded, 0.0)
    return folded


def _check_reciprocity(
    zone: int, factors: np.ndarray, areas: np.ndarray, tol: float = 1e-9
) -> None:
    weighted = areas[:, None] * factors
    asymmetry = np.abs(weighted - weighted.T).max()
    scale = max(np.abs(weighted).max(), 1e-30)
    if asymmetry > tol * scale:
        raise ValueError(
            f"exchange factors of zone {zone} violate reciprocity: "
            f"max asymmetry {asymmetry:.3e}"
        )


def save_exchange_matrix(matrix: RadiationExchangeMatrix) -> str:
    """Serialize to delimited text: a surface-index header, then the dense matrix."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n_surfaces", matrix.n_surfaces])
    writer.writerow(["surface", "row", "col", "face", "area"])
    for i, (r, c, d) in enumerate(matrix.surfaces):
        writer.writerow([i, r, c, _FACE_NAMES[d], repr(float(matrix.areas[i]))])
    writer.writerow(["matrix"])
    for row in matrix.coefficients:
        writer.writerow([repr(float(x)) for x in row])
    return out.getvalue()


def load_exchange_matrix(text: str) -> RadiationExchangeMatrix:
    """Parse ``save_exchange_matrix`` text; a malformed field raises naming its line."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or rows[0][1][0] != "n_surfaces":
        raise ValueError("exchange matrix text must start with an n_surfaces row")
    n = _field(rows[0], 1, "n_surfaces", int)
    if n < 0:
        raise ValueError(f"line {rows[0][0]}: n_surfaces {n} is negative")
    if len(rows) < 2 + n + 1 + n:
        raise ValueError(f"exchange matrix text truncated for n_surfaces={n}")
    listed = rows[2 : 2 + n]
    surfaces = []
    for e in listed:
        r, c = _field(e, 1, "row", int), _field(e, 2, "col", int)
        surfaces.append((r, c, _field(e, 3, "face", _FACE_NAMES.index)))
    areas = np.array([_field(e, 4, "area", float) for e in listed])
    if rows[2 + n][1][0] != "matrix":
        raise ValueError("missing matrix marker row")
    coefficients = np.zeros((n, n))
    for i, (line, row) in enumerate(rows[3 + n : 3 + 2 * n]):
        if len(row) != n:
            raise ValueError(f"line {line}: matrix row {i} has {len(row)} entries, expected {n}")
        try:
            coefficients[i] = [float(x) for x in row]
        except ValueError as exc:
            raise ValueError(f"line {line}: matrix row {i}: {exc}") from None
    return RadiationExchangeMatrix.from_dense(coefficients, surfaces, areas)


def _field(entry: Tuple[int, List[str]], k: int, name: str, parse):
    """Field ``k`` of a ``(line, row)`` text entry; a missing or bad one raises naming both."""
    line, row = entry
    if k >= len(row):
        raise ValueError(f"line {line}: no {name} (field {k + 1})")
    try:
        return parse(row[k])
    except ValueError:
        raise ValueError(f"line {line}: {row[k]!r} is not a valid {name}") from None


# =============================================================================
# SOLAR TENSORS
# =============================================================================


@dataclass(frozen=True)
class SolarBasis:
    """Step-invariant solar geometry of a plan; built by ``solar_basis``.

    Cells are flat indices into the ``shape`` grid. ``cells`` are the
    envelope cells with an exposed face, with their ``absorptivity`` and
    ``areas[d]``, the exposed face area [m^2] in direction ``d`` (zero where
    that face is unexposed). ``transmissivity``, ``window_areas`` and
    ``window_zone`` hold the same for the windows, in ``grid.window_zone``
    order. ``air`` are the air cells with their ``air_zone`` and
    ``plan_area`` [m^2], and ``zone_cells`` counts the air cells of each zone.
    """

    shape: Tuple[int, int]
    cells: np.ndarray
    absorptivity: np.ndarray
    areas: np.ndarray  # (4, len(cells))
    transmissivity: np.ndarray
    window_areas: np.ndarray  # (4, len(window_zone))
    window_zone: np.ndarray
    air: np.ndarray
    air_zone: np.ndarray
    plan_area: np.ndarray
    zone_cells: np.ndarray


def solar_basis(grid: BuildingGrid, mats: MaterialField) -> SolarBasis:
    """The solar geometry of a plan, which depends on no step's irradiance."""
    shape = (grid.rows, grid.cols)
    envelope = grid.delta_x > 0.0  # exactly the envelope cells with an exposed face
    area = np.stack([
        np.where(grid.exposed_mask[d] & envelope, face_length(grid.u, grid.v, d) * grid.z, 0.0)
        for d in range(4)
    ]).reshape(4, -1)
    cells = np.flatnonzero(envelope)
    windows = np.ravel_multi_index(
        np.array(list(grid.window_zone), dtype=np.intp).reshape(-1, 2).T, shape
    )
    air = np.flatnonzero(grid.zone_id >= 0)
    air_zone = grid.zone_id.reshape(-1)[air]
    return SolarBasis(
        shape=shape,
        cells=cells,
        absorptivity=mats.absorptivity.reshape(-1)[cells],
        areas=area[:, cells],
        transmissivity=mats.transmissivity.reshape(-1)[windows],
        window_areas=area[:, windows],
        window_zone=np.fromiter(grid.window_zone.values(), dtype=np.intp),
        air=air,
        air_zone=air_zone,
        plan_area=(grid.u * grid.v).reshape(-1)[air],
        zone_cells=np.bincount(air_zone, minlength=grid.n_zones),
    )


def assemble_solar_tensors(
    basis: SolarBasis, poa: PoaIrradiance, mass_enabled: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Absorbed and transmitted solar tensors for one step's irradiance.

    Returns ``(q_sol_alpha, q_sol_tau, q_tau_mass)``. The absorbed tensor
    [W] lands on envelope cells with the exposed-face area scaling. The
    power transmitted through each window is pooled per zone and spread
    uniformly over that zone's air cells: into ``q_sol_tau`` [W] when mass
    is disabled, or into ``q_tau_mass`` [W/m^2 of plan area] for the mass
    nodes when enabled (the air-balance tensor then stays zero).
    """
    alpha = np.zeros(basis.cells.size)
    tau_power = np.zeros(basis.window_zone.size)
    for d in range(4):
        g = poa[DIR_ORIENTATION[d]]
        alpha += basis.absorptivity * g * basis.areas[d]
        tau_power += basis.transmissivity * g * basis.window_areas[d]

    # Pool each zone's windows in window order (bincount adds in input
    # order), then give every air cell of the zone an equal share.
    zone_total = np.bincount(
        basis.window_zone, weights=tau_power, minlength=basis.zone_cells.size
    )
    share = (zone_total / basis.zone_cells)[basis.air_zone]

    q_alpha, q_tau, q_tau_mass = (np.zeros(basis.shape) for _ in range(3))
    q_alpha.reshape(-1)[basis.cells] = alpha
    if mass_enabled:
        q_tau_mass.reshape(-1)[basis.air] = share / basis.plan_area
    else:
        q_tau.reshape(-1)[basis.air] = share
    return q_alpha, q_tau, q_tau_mass
