"""
Radiative flux assembly: exterior long-wave, interior exchange, and solar.

Exterior surfaces exchange long-wave radiation with ground, sky, and air,
weighted by tilt-dependent view factors with a sky correction
(beta = sqrt(F_sky)) that shifts part of the sky exchange to air
temperature. Interior surfaces exchange through gray-body exchange
factors held in one form only: dense blocks, one per group of surfaces
that exchange with each other (for a built plan, one per zone), padded
into a few size classes. Zones never exchange with each other, so neither
the build nor the solve of a built plan forms an S x S array. A builder
derives the factors with the 2D crossed-strings method; it needs
rectangular zones and rejects any other with an ``OpenCavityError``
naming the zone and its bounding box. Solar fluxes are
split into an absorbed part on the envelope and a transmitted part
deposited in the zone behind each window (or routed to the interior mass
nodes when those are enabled).

Every returned flux tensor is expressed in watts per cell. Envelope cells
scale the surface flux density [W/m^2] by their exposed face area: one
face length times floor height on straight runs, the sum of both face
lengths at corners. Only envelope cells radiate to the exterior and only
wall and window cells own interior surfaces, so the per-pass work runs on
vectors over those cells: the solver evaluates exterior long-wave on the
columns of the weights it keeps, and interior exchange through
``interior_lw_operators``, one ``sigma A_i (F - diag R)`` block per
exchange block, applied to the fourth powers gathered into the blocks'
slots; ``solar_basis`` keeps, once per plan, the cells, windows and air
cells that a step's solar tensors touch, and ``assemble_solar_tensors``
returns the solar of those cells only.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import chain
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .building import (
    CvType,
    BuildingGrid,
    DIR_OFFSETS,
    DIR_ORIENTATION,
    MaterialField,
    face_length,
    shift_fields,
)

STEFAN_BOLTZMANN = 5.670374419e-8  # W/(m^2 K^4)

_CAVITY_WALL_TYPES = (int(CvType.EXTERIOR_WALL), int(CvType.INTERIOR_WALL), int(CvType.WINDOW))

#: Ends of the segment an air cell's face spans in each direction, in cell
#: sizes ``(size_u, size_v)`` from the cell's corner ``(col, row) * size``.
_SEGMENT_START = np.array([[1, 0], [0, 0], [0, 0], [0, 1]])
_SEGMENT_END = np.array([[1, 1], [1, 0], [0, 1], [1, 1]])


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


def exterior_lw_weights(grid: BuildingGrid, mats: MaterialField) -> np.ndarray:
    """Exterior long-wave weights [W/K^4 per cell], shape ``(3, rows, cols)``.

    ``eps sigma A (F_gnd, beta F_sky, F_air)``, with ``A`` the exposed area
    [m^2]: the cell's total exposed face length times floor height, so a
    corner of a square-cell grid gets twice an edge cell's. Every weight is
    zero on a cell with no exposed face. They depend on the plan alone;
    ``prepare`` computes them once per run.
    """
    scale = grid.delta_x * grid.z
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
        self.areas = np.array(self.areas, dtype=float)
        if self.areas.shape != (self.n_surfaces,):
            raise ValueError("surface list and area vector must match n_surfaces")
        bad = ~(np.isfinite(self.areas) & (self.areas > 0.0))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"surface {i} at cell {self.surfaces[i][:2]} has area "
                f"{float(self.areas[i])!r} m^2; it must be finite and > 0"
            )
        groups = [(np.asarray(m, dtype=np.intp), np.asarray(f, dtype=float)) for m, f in groups]
        self.surface_rows = np.array([s[0] for s in self.surfaces], dtype=np.intp)
        self.surface_cols = np.array([s[1] for s in self.surfaces], dtype=np.intp)
        self.blocks = _pack_blocks(self.surfaces, groups)
        for array in (self.areas, self.surface_rows, self.surface_cols, *chain(*self.blocks)):
            array.flags.writeable = False

    @property
    def n_surfaces(self) -> int:
        return len(self.surfaces)

    @property
    def coefficients(self) -> np.ndarray:
        """Dense ``n x n`` factors, expanded from the blocks on each access.

        For inspection and tests; the solvers use the blocks.
        """
        n = self.n_surfaces
        dense = np.zeros((n + 1, n + 1))  # row and column n take the padding slots
        for index, factors, _ in self.blocks:
            dense[index[:, :, None], index[:, None, :]] = factors
        return dense[:n, :n]

    def surface_temperatures(self, temperatures: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The entries of ``temperatures`` at ``cells``, one per surface or block slot.

        With a flattened field and each surface's flat cell index, each
        surface's cell temperature; the vectorized step gathers the fourth
        powers of its radiating cells into the slots of every exchange block
        this way. Indexing, not ``take``, which copies a read-only index
        array on every call.
        """
        return temperatures[cells]


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


def interior_lw_operators(matrix: RadiationExchangeMatrix) -> Tuple[np.ndarray, ...]:
    """One ``(Z, M, M)`` operator per exchange block: ``sigma A_p (F_pq - R_p delta_pq)``.

    Applied to the fourth powers of a block's slots, row ``p`` gives the
    net interior long-wave [W] on surface ``index[p]``: ``A_p`` times
    ``sigma sum_q F_pq (T_q^4 - T_p^4)``. Padding rows and columns are
    zero. Each operator is read-only.
    """
    areas = np.append(matrix.areas, 0.0)  # entry n takes the padding slots
    operators = []
    for index, factors, row_sums in matrix.blocks:
        operator = factors.copy()
        diagonal = np.arange(index.shape[1])
        operator[:, diagonal, diagonal] -= row_sums
        operator *= (STEFAN_BOLTZMANN * areas[index])[:, :, None]
        operator.flags.writeable = False
        operators.append(operator)
    return tuple(operators)


def apply_interior_lw(operators: Sequence[np.ndarray], fourth_powers: np.ndarray) -> np.ndarray:
    """Net interior long-wave [W] into every block slot, blocks in order.

    ``fourth_powers`` holds ``T^4`` of each slot's surface, the slots of
    every block of ``operators`` (from ``interior_lw_operators``) flattened
    one after the other. Each block subtracts the fourth power of its
    first slot from its row before one batched matmul, so an isothermal
    enclosure gives an exactly zero vector; the operator's rows sum to
    zero, so the shift changes nothing else. A padding slot may hold any
    finite value, since its operator row and column are zero, and gets 0.
    With reciprocal exchange factors the slots' watts sum to zero over
    the enclosure. The values are not checked here: the solvers check
    every iterate.
    """
    slots = sum(operator.shape[0] * operator.shape[1] for operator in operators)
    if fourth_powers.shape != (slots,):
        raise ValueError(
            f"got {fourth_powers.size} fourth powers for the {slots} surface slots "
            "of the exchange blocks"
        )
    watts = []
    start = 0
    for operator in operators:
        z, m, _ = operator.shape
        t4 = fourth_powers[start:start + z * m].reshape(z, m)
        watts.append(np.matmul(operator, (t4 - t4[:, :1])[:, :, None]).reshape(-1))
        start += z * m
    return watts[0] if len(watts) == 1 else np.concatenate(watts)


def scatter_interior_lw(watts: np.ndarray, positions: np.ndarray, n_cells: int) -> np.ndarray:
    """The watts of every slot summed into its cell, one sum per cell, ``n_cells`` of them.

    ``positions`` gives each slot's cell, as the index it was gathered from;
    the sums run in slot order.
    """
    return np.bincount(positions, weights=watts, minlength=n_cells)


def build_exchange_matrix_2d(
    grid: BuildingGrid, mats: MaterialField
) -> RadiationExchangeMatrix:
    """Exchange factors for every air zone by the 2D crossed-strings method.

    Each zone must be a closed rectangular cavity: every face of every air
    cell either meets another air cell of the same zone or a wall/window
    cell, and the zone's air cells fill their bounding box (on a grid, the
    same as being convex, which unobstructed crossed strings needs).

    Faces are found in one pass over the grid: ``shift_fields`` shifts the
    zone map and a wall mask, and a face is an air cell's side whose
    neighbour lies outside its zone. Surfaces are listed by air cell in
    raster order, then east, north, west, south; each is the wall cell
    beyond the face, its direction pointing back into the cavity. An
    ``OpenCavityError`` names the first open face in that order.

    Zones do not exchange with each other, so the rest runs one zone at a
    time: view factors between the zone's wall segments come from crossed
    strings, rows are renormalized to close exactly, emissivities are
    folded in with the pairwise two-surface network approximation, and
    reciprocity is checked. The cost is O(sum_z S_z^2), and each zone's
    dense block becomes one exchange group.
    """
    if not (np.allclose(grid.u, grid.u.flat[0]) and np.allclose(grid.v, grid.v.flat[0])):
        raise ValueError("crossed-strings builder requires a uniform cell size")
    size_u = float(grid.u.flat[0])
    size_v = float(grid.v.flat[0])

    # Faces, stacked on a last axis in direction order: np.nonzero lists them
    # by air cell in raster order, then east, north, west, south.
    rows, cols, zone_id = grid.rows, grid.cols, grid.zone_id
    wall = np.isin(grid.cv_type, _CAVITY_WALL_TYPES)
    neighbour_zone = shift_fields(np.full((rows + 2, cols + 2), -1, dtype=zone_id.dtype), zone_id)
    neighbour_wall = shift_fields(np.zeros((rows + 2, cols + 2), dtype=bool), wall)
    face = (zone_id >= 0)[:, :, None] & (np.stack(neighbour_zone, axis=-1) != zone_id[:, :, None])
    open_face = face & ~np.stack(neighbour_wall, axis=-1)
    if open_face.any():
        r, c, d = np.argwhere(open_face)[0].tolist()
        raise OpenCavityError(
            f"zone {zone_id[r, c]} is open at air cell ({r}, {c}) toward {DIR_ORIENTATION[d]}"
        )
    r, c, d = np.nonzero(face)
    if not d.size:
        raise OpenCavityError("no air zones found; nothing to enclose")

    # Each face belongs to the wall cell beyond it and looks back into the cavity.
    offsets = np.array(DIR_OFFSETS)[d]
    wall_r, wall_c = r + offsets[:, 0], c + offsets[:, 1]
    surfaces = list(zip(wall_r.tolist(), wall_c.tolist(), ((d + 2) % 4).tolist()))
    eps = mats.emissivity[wall_r, wall_c]
    zone_of_surface = zone_id[r, c]
    size = np.array([size_u, size_v])
    origin = np.stack((c * size_u, r * size_v), axis=1)
    a1 = origin + _SEGMENT_START[d] * size
    a2 = origin + _SEGMENT_END[d] * size
    lengths = np.linalg.norm(a2 - a1, axis=1)
    areas = lengths * grid.z
    air_cells = np.argwhere(zone_id >= 0)
    air_zone = zone_id[air_cells[:, 0], air_cells[:, 1]]

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
    basis = SolarBasis(
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
    for array in vars(basis).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return basis


def assemble_solar_tensors(
    basis: SolarBasis, poa: np.ndarray, mass_enabled: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Absorbed and transmitted solar for one step's irradiance, on the cells it reaches.

    ``poa`` is the step's ``(4,)`` POA irradiance [W/m^2] in shift order
    (``StepBoundary.poa``). Returns ``(q_sol_alpha, q_sol_tau,
    q_tau_mass)``. ``q_sol_alpha`` [W] holds the absorbed power of each
    cell of ``basis.cells``, with the exposed-face area scaling. The power
    transmitted through each window is pooled per zone and spread
    uniformly over that zone's air cells, the cells of ``basis.air``: into
    ``q_sol_tau`` [W] when mass is disabled, or into ``q_tau_mass`` [W/m^2
    of plan area] for the mass nodes when enabled; the other of the two is
    zero.
    """
    g = poa[:, None]
    alpha = (basis.absorptivity * g * basis.areas).sum(axis=0)
    tau_power = (basis.transmissivity * g * basis.window_areas).sum(axis=0)

    # Pool each zone's windows in window order (bincount adds in input
    # order), then give every air cell of the zone an equal share.
    zone_total = np.bincount(
        basis.window_zone, weights=tau_power, minlength=basis.zone_cells.size
    )
    share = (zone_total / basis.zone_cells)[basis.air_zone]
    if mass_enabled:
        return alpha, np.zeros_like(share), share / basis.plan_area
    return alpha, share, np.zeros_like(share)
