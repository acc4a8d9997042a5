import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import heatgrid as hg
from heatgrid import radiation, tensor_solver
from _factories import (
    dark_boundary,
    facade_poa,
    on_grid,
    remade,
    rooms_building_yaml,
    tiled_building_yaml,
)
from heatgrid.building import (
    DIR_OFFSETS,
    DIR_ORIENTATION,
    BuildingGrid,
    CvType,
    MaterialField,
    SimulationConfig,
)
from heatgrid.oracle_solver import _interior_lw_terms, _scalar_exterior_flux
from heatgrid.radiation import OpenCavityError, STEFAN_BOLTZMANN


# -----------------------------------------------------------------------------
# view factors
# -----------------------------------------------------------------------------

def test_vertical_wall_view_factors_exact():
    vf = hg.view_factors(90.0)
    assert vf.f_gnd == 0.5
    assert vf.f_sky == 0.5
    assert vf.beta == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert vf.f_air == pytest.approx(0.5 * (1.0 - math.sqrt(0.5)), rel=1e-15)


def test_horizontal_limits_exact():
    up = hg.view_factors(0.0)
    assert (up.f_gnd, up.f_sky, up.beta, up.f_air) == (0.0, 1.0, 1.0, 0.0)
    down = hg.view_factors(180.0)
    assert (down.f_gnd, down.f_sky, down.beta, down.f_air) == (1.0, 0.0, 0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(tilt=st.floats(0.0, 180.0))
def test_view_factor_identity(tilt):
    vf = hg.view_factors(tilt)
    assert vf.f_gnd + vf.beta * vf.f_sky + vf.f_air == pytest.approx(1.0, abs=1e-12)


def test_view_factor_range_check():
    for tilt in (-5.0, 181.0, math.nan, [90.0, math.nan]):
        with pytest.raises(ValueError, match=r"tilt \S+ outside \[0, 180\] degrees"):
            hg.view_factors(tilt)


# -----------------------------------------------------------------------------
# exterior long-wave: weights and tensor assembly
# -----------------------------------------------------------------------------

def stored(grid, **properties):
    """Materials of ``grid`` with ``properties`` and a heat capacity on every cell, which
    construction requires and the radiation never reads."""
    return MaterialField.for_grid(grid, heat_capacity=1000.0, density=1.0, **properties)


def ring_building(rows=5, cols=6, cell=0.5, **properties):
    cv = np.full((rows, cols), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, cell, cell, 3.0)
    return grid, MaterialField.for_grid(
        grid, **{"emissivity": 0.9, "heat_capacity": 900.0, "density": 2000.0, **properties}
    )


def single_wall_cell(eps, tilt=90.0):
    """3x4 plan whose one envelope cell, (0, 1), has one exposed face."""
    cv = np.full((3, 4), int(CvType.INTERIOR_AIR))
    cv[0, 1] = int(CvType.EXTERIOR_WALL)
    # air above the wall cell would touch the exterior; not validated here,
    # the assembly only needs the exposure classification
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    emissivity, tilts = np.zeros((3, 4)), np.full((3, 4), 90.0)
    emissivity[0, 1], tilts[0, 1] = eps, tilt
    return grid, stored(grid, emissivity=emissivity, tilt=tilts)


def wall_cell_flux(grid, mats, t_surf, t_gnd, t_sky, t_air):
    """Exterior long-wave power [W] on cell (0, 1) through the solver's kernel."""
    t = np.full((grid.rows, grid.cols), float(t_surf))
    weights = hg.exterior_lw_weights(grid, mats)
    return hg.assemble_exterior_lw_tensor(weights, t, t_gnd, t_sky, t_air)[0, 1]


def test_isothermal_flux_is_exactly_zero():
    for tilt in (0.0, 37.0, 90.0, 180.0):
        grid, mats = single_wall_cell(0.9, tilt)
        assert wall_cell_flux(grid, mats, 293.0, 293.0, 293.0, 293.0) == 0.0


def test_zero_emissivity_flux_is_zero():
    grid, mats = single_wall_cell(0.0, 37.0)
    weights = hg.exterior_lw_weights(grid, mats)
    assert (weights == 0.0).all()
    assert wall_cell_flux(grid, mats, 300.0, 290.0, 250.0, 280.0) == 0.0


def test_exterior_flux_frozen_value():
    # independently evaluated twice (float and 50-digit decimal) before
    # implementation: eps=0.9, vertical, 300/290/270/285 K, per m^2 exposed
    grid, mats = single_wall_cell(0.9)
    area = grid.delta_x[0, 1] * grid.z
    q = wall_cell_flux(grid, mats, 300.0, 290.0, 270.0, 285.0) / area
    assert q == pytest.approx(-87.70011762399055, rel=1e-12)


def test_exterior_flux_strictly_decreasing_in_surface_temp(rng):
    for _ in range(50):
        tilt = float(rng.uniform(0.0, 180.0))
        eps = float(rng.uniform(0.05, 1.0))
        grid, mats = single_wall_cell(eps, tilt)
        t_surf = float(rng.uniform(250.0, 330.0))
        t_gnd, t_sky, t_air = (float(rng.uniform(240.0, 320.0)) for _ in range(3))
        h = 0.01
        lo = wall_cell_flux(grid, mats, t_surf - h, t_gnd, t_sky, t_air)
        hi = wall_cell_flux(grid, mats, t_surf + h, t_gnd, t_sky, t_air)
        assert hi < lo


def test_exterior_flux_preconditions():
    # emissivity in [0, 1] is the material check's; a surface temperature
    # > 0 K is the step's
    grid, mats = ring_building()
    emissivity = mats.emissivity.copy()
    emissivity[0, 2] = 1.2
    with pytest.raises(
        hg.ValidationError, match=r"emissivity=1.2 outside \[0, 1\] at cell \(0, 2\)"
    ):
        remade(grid, mats, emissivity=emissivity)
    config = hg.SimulationConfig(enable_interior_lw=False, enable_solar=False,
                                 enable_interior_mass=False)
    t = np.full((grid.rows, grid.cols), 293.0)
    t[0, 2] = -1.0
    boundary = dark_boundary(285.0, t_gnd=290.0, t_sky=270.0)
    with pytest.raises(hg.SolverError, match=r"temperature -1.0 at cell \(0, 2\)"):
        hg.step(hg.ThermalState(t=t), hg.prepare(grid, mats, config), boundary)


def test_equilibrium_tensor_is_zero():
    grid, mats = ring_building()
    t = np.full((grid.rows, grid.cols), 293.0)
    q = hg.assemble_exterior_lw_tensor(hg.exterior_lw_weights(grid, mats), t, 293.0, 293.0, 293.0)
    assert (q == 0.0).all()


def test_corner_entry_is_twice_edge_entry():
    grid, mats = ring_building()
    t = np.full((grid.rows, grid.cols), 300.0)
    q = hg.assemble_exterior_lw_tensor(hg.exterior_lw_weights(grid, mats), t, 290.0, 270.0, 285.0)
    assert q[0, 0] == 2.0 * q[0, 2]
    air = grid.cv_type == int(CvType.INTERIOR_AIR)
    assert (q[air] == 0.0).all()


def test_single_envelope_cell_matches_scalar_path():
    grid, mats = single_wall_cell(0.85)
    t = np.full((3, 4), 305.0)
    q = hg.assemble_exterior_lw_tensor(hg.exterior_lw_weights(grid, mats), t, 288.0, 260.0, 283.0)
    scalar = _scalar_exterior_flux(0.85, 90.0, 305.0, 288.0, 260.0, 283.0)
    assert q[0, 1] == pytest.approx(grid.delta_x[0, 1] * grid.z * scalar, rel=1e-14)
    assert (np.delete(q.ravel(), 1) == 0.0).all()


# -----------------------------------------------------------------------------
# interior exchange
# -----------------------------------------------------------------------------

def square_cavity(cell=0.5, emissivity=1.0):
    """3x3 plan with one air cell: a square cavity of four equal walls."""
    cv = np.full((3, 3), int(CvType.EXTERIOR_WALL))
    cv[1, 1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, cell, cell, 3.0)
    mats = stored(grid, emissivity=emissivity)
    return grid, mats, hg.build_exchange_matrix_2d(grid, mats)


def surface_flux(matrix, temps):
    """Net interior flux density [W/m^2] per surface, through the vectorized step's kernels."""
    index = np.concatenate([b.index.reshape(-1) for b in matrix.blocks])
    fourth = np.append(temps, temps[0]) ** 4  # padding slots read surface 0
    slots = matrix.surface_temperatures(fourth, index)
    watts = hg.apply_interior_lw(radiation.interior_lw_operators(matrix), slots)
    return hg.scatter_interior_lw(watts, index, matrix.n_surfaces + 1)[:-1] / matrix.areas


def test_square_cavity_factors_match_analytic():
    _, _, matrix = square_cavity(emissivity=1.0)
    assert matrix.n_surfaces == 4
    f = matrix.coefficients
    f_opposite = math.sqrt(2.0) - 1.0  # parallel strips, width = gap
    f_adjacent = (1.0 - f_opposite) / 2.0
    for i in range(4):
        row = sorted(f[i][f[i] > 0.0])
        assert row[0] == pytest.approx(f_adjacent, rel=1e-12)
        assert row[1] == pytest.approx(f_adjacent, rel=1e-12)
        assert row[2] == pytest.approx(f_opposite, rel=1e-12)
    assert f.sum(axis=1) == pytest.approx(np.ones(4), rel=1e-12)


def test_strip_cavity_matches_parallel_plates():
    # 1xN air strip: aggregate factor between the long walls equals the
    # analytic crossed-strings value for two facing strips of width N*s
    n = 6
    cv = np.full((3, n + 2), int(CvType.EXTERIOR_WALL))
    cv[1, 1:-1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    mats = stored(grid, emissivity=1.0)
    matrix = hg.build_exchange_matrix_2d(grid, mats)

    north = [i for i, (r, c, d) in enumerate(matrix.surfaces) if r == 0]
    south = [i for i, (r, c, d) in enumerate(matrix.surfaces) if r == 2]
    assert len(north) == len(south) == n
    f = matrix.coefficients
    lengths = matrix.areas / grid.z
    f_aggregate = sum(
        lengths[i] * f[i, south].sum() for i in north
    ) / lengths[north].sum()
    w, h = n * 0.5, 0.5
    analytic = (math.sqrt(w * w + h * h) - h) / w
    assert f_aggregate == pytest.approx(analytic, rel=1e-12)


def test_reciprocity_holds(canonical):
    grid, mats, _ = canonical
    matrix = hg.build_exchange_matrix_2d(grid, mats)
    weighted = matrix.areas[:, None] * matrix.coefficients
    scale = np.abs(weighted).max()
    assert np.abs(weighted - weighted.T).max() <= 1e-9 * scale


def test_row_sums_closed(canonical):
    grid, mats, _ = canonical
    matrix = hg.build_exchange_matrix_2d(grid, mats)
    sums = matrix.coefficients.sum(axis=1)
    assert (sums <= 1.0 + 1e-9).all()
    _, _, black = square_cavity(emissivity=1.0)
    assert black.coefficients.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)


def test_open_cavity_rejected():
    cv = np.full((3, 3), int(CvType.EXTERIOR_WALL))
    cv[1, 1] = int(CvType.INTERIOR_AIR)
    cv[0, 1] = int(CvType.INTERIOR_AIR)  # zone reaches the grid edge: open
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    with pytest.raises(OpenCavityError):
        hg.build_exchange_matrix_2d(grid, stored(grid))


def test_isothermal_enclosure_flux_zero():
    _, _, matrix = square_cavity(emissivity=0.9)
    q = surface_flux(matrix, np.full(4, 299.0))
    assert (q == 0.0).all()


def test_two_surface_antisymmetry():
    # symmetric coefficients and equal areas: q1 = -q2 * (A2 / A1)
    matrix = hg.RadiationExchangeMatrix(
        surfaces=[(0, 0, 3), (2, 0, 1)],
        areas=np.array([1.5, 1.5]),
        groups=[([0, 1], np.array([[0.0, 0.8], [0.8, 0.0]]))],
    )
    q = surface_flux(matrix, np.array([310.0, 290.0]))
    assert q[0] == pytest.approx(-q[1] * matrix.areas[1] / matrix.areas[0], rel=1e-12)
    assert q[0] < 0.0 < q[1]  # the hot surface loses, the cold one gains
    assert q[0] == matrix.coefficients[0, 1] * STEFAN_BOLTZMANN * (290.0**4 - 310.0**4)


def test_four_surface_brute_force_oracle(rng):
    _, _, matrix = square_cavity(emissivity=0.85)
    temps = rng.uniform(285.0, 315.0, 4)
    q = surface_flux(matrix, temps)
    for i in range(4):
        expected = 0.0
        for j in range(4):
            expected += matrix.coefficients[i, j] * (temps[j] ** 4 - temps[i] ** 4)
        expected *= STEFAN_BOLTZMANN
        assert q[i] == pytest.approx(expected, rel=1e-12)


def test_enclosure_energy_conservation(canonical, rng):
    grid, mats, _ = canonical
    matrix = hg.build_exchange_matrix_2d(grid, mats)
    temps = rng.uniform(285.0, 310.0, matrix.n_surfaces)
    q = surface_flux(matrix, temps)
    weighted = matrix.areas * q
    assert abs(weighted.sum()) <= 1e-9 * np.abs(weighted).sum()


def test_dimension_mismatch_rejected():
    _, _, matrix = square_cavity()
    with pytest.raises(ValueError, match="surface"):
        hg.apply_interior_lw(radiation.interior_lw_operators(matrix), np.full(5, 300.0))


def interior_plan(grid, mats):
    """A plan with interior long-wave as its one radiation feature."""
    config = SimulationConfig(enable_exterior_lw=False, enable_solar=False,
                              enable_interior_mass=False)
    return hg.prepare(grid, mats, config)


def test_scatter_uses_face_areas():
    grid, mats, matrix = square_cavity(cell=0.5)
    plan = interior_plan(grid, mats)
    index = np.concatenate([b.index.reshape(-1) for b in matrix.blocks])
    t4 = np.array([310.0, 290.0, 300.0, 305.0]) ** 4
    # sigma A_i sum_j F_ij (T_j^4 - T_i^4), each face 0.5 m long and z high
    expected = STEFAN_BOLTZMANN * (0.5 * grid.z) * (
        matrix.coefficients * (t4[None, :] - t4[:, None])
    ).sum(axis=1)
    fourth = np.zeros(plan.newton_cells.size)
    fourth[plan.lw_positions] = t4[index]
    watts = hg.apply_interior_lw(plan.lw_operators, fourth[plan.lw_positions])
    sums = hg.scatter_interior_lw(watts, plan.lw_positions, plan.newton_cells.size)
    for slot, i in enumerate(index.tolist()):
        r, c, _d = matrix.surfaces[i]
        assert plan.newton_cells[plan.lw_positions[slot]] == r * grid.cols + c
        assert watts[slot] == pytest.approx(expected[i], rel=1e-12)
        assert sums[plan.lw_positions[slot]] == watts[slot]  # one surface a cell


@pytest.mark.parametrize("value", ["nan", "inf", "-0.05"])
def test_bad_loaded_factor_rejected_naming_pair(canonical, value):
    grid, mats, _ = canonical
    matrix = hg.build_exchange_matrix_2d(grid, mats)
    dense = matrix.coefficients
    i, j = (int(k[7]) for k in np.nonzero(dense))
    (ri, ci, _), (rj, cj, _) = matrix.surfaces[i], matrix.surfaces[j]
    dense[i, j] = float(value)
    with pytest.raises(ValueError) as err:
        hg.RadiationExchangeMatrix(
            matrix.surfaces, matrix.areas, [(np.arange(matrix.n_surfaces), dense)]
        )
    message = str(err.value)
    assert f"F[{i}, {j}]" in message
    assert f"({ri}, {ci})" in message and f"({rj}, {cj})" in message


def test_pair_indices_outside_surfaces_rejected():
    surfaces = [(0, 0, 3), (2, 0, 1)]
    block = np.array([[0.0, 0.5], [0.5, 0.0]])
    for members in ([0, 2], [-1, 1]):
        with pytest.raises(ValueError, match="outside surfaces"):
            hg.RadiationExchangeMatrix(surfaces, np.ones(2), [(members, block)])


@pytest.mark.parametrize("area", [math.nan, math.inf, -1.5, 0.0])
def test_bad_surface_area_rejected_naming_surface_and_cell(area):
    surfaces = [(0, 0, 3), (2, 0, 1)]
    factors = np.array([[0.0, 0.5], [0.5, 0.0]])
    message = rf"surface 1 at cell \(2, 0\) has area {area!r} m\^2; it must be finite and > 0"
    with pytest.raises(ValueError, match=message):
        hg.RadiationExchangeMatrix(surfaces, np.array([1.0, area]), [([0, 1], factors)])


@pytest.mark.parametrize(
    "members, count",
    [(([0, 1], [2], [2, 3]), 2), (([0, 1], [3]), 0)],
    ids=["in-two-groups", "in-no-group"],
)
def test_surface_not_in_exactly_one_group_rejected(members, count):
    _, _, matrix = square_cavity()
    groups = [(m, np.full((len(m), len(m)), 0.1)) for m in members]
    with pytest.raises(ValueError, match=rf"surface 2 at cell \(1, 0\) lies in {count} exchange"):
        hg.RadiationExchangeMatrix(matrix.surfaces, matrix.areas, groups)


def test_row_sum_above_one_rejected():
    with pytest.raises(ValueError, match="row 0 .* sums to"):
        hg.RadiationExchangeMatrix(
            [(0, 0, 3), (2, 0, 1)], np.ones(2), [([0, 1], np.array([[0.0, 1.2], [0.8, 0.0]]))]
        )


def test_notched_zone_rejected_by_name(canonical_paths):
    doc = yaml.safe_load(canonical_paths[0].read_text(encoding="utf-8"))
    doc["zones"].append({"name": "notch", "cv_type": "interior_wall", "rect": [1, 1, 4, 4]})
    grid, mats, _ = hg.load_building(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(OpenCavityError, match=r"zone 0 is not rectangular.*rows 1-10, cols 1-10"):
        hg.build_exchange_matrix_2d(grid, mats)


# -----------------------------------------------------------------------------
# the builder against a scalar reference walk
# -----------------------------------------------------------------------------

def reference_faces(grid, mats):
    """Cavity faces found by walking every air cell's four neighbours in turn.

    Returns ``(surface, segment, emissivity, zone)`` per face, in raster
    order of the air cell and then east, north, west, south, and raises on
    the first open face or when there is no air.
    """
    size_u, size_v = float(grid.u.flat[0]), float(grid.v.flat[0])
    wall_types = (int(CvType.EXTERIOR_WALL), int(CvType.INTERIOR_WALL), int(CvType.WINDOW))
    faces = []
    for r, c in np.argwhere(grid.zone_id >= 0).tolist():
        zone = int(grid.zone_id[r, c])
        for d, (dr, dc) in enumerate(DIR_OFFSETS):
            nr, nc = r + dr, c + dc
            inside = 0 <= nr < grid.rows and 0 <= nc < grid.cols
            if inside and grid.zone_id[nr, nc] == zone:
                continue
            if not (inside and int(grid.cv_type[nr, nc]) in wall_types):
                raise OpenCavityError(
                    f"zone {zone} is open at air cell ({r}, {c}) toward {DIR_ORIENTATION[d]}"
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
            faces.append(((nr, nc, (d + 2) % 4), seg, float(mats.emissivity[nr, nc]), zone))
    if not faces:
        raise OpenCavityError("no air zones found; nothing to enclose")
    return faces


def reference_exchange(grid, mats):
    """The exchange matrix from the reference faces and the module's per-zone helpers."""
    faces = reference_faces(grid, mats)
    surfaces = [face[0] for face in faces]
    a1 = np.array([face[1][0] for face in faces])
    a2 = np.array([face[1][1] for face in faces])
    eps = np.array([face[2] for face in faces])
    zone_of_surface = np.array([face[3] for face in faces])
    lengths = np.linalg.norm(a2 - a1, axis=1)
    areas = lengths * grid.z
    air_cells = np.argwhere(grid.zone_id >= 0)
    air_zone = grid.zone_id[air_cells[:, 0], air_cells[:, 1]]
    groups = []
    for zone in range(grid.n_zones):
        radiation._check_rectangular(zone, air_cells[air_zone == zone])
        members = np.flatnonzero(zone_of_surface == zone)
        f = radiation._crossed_strings(a1[members], a2[members], lengths[members])
        f /= f.sum(axis=1)[:, None]
        groups.append((members, radiation._fold_emissivity(f, eps[members], areas[members])))
    return hg.RadiationExchangeMatrix(surfaces, areas, groups)


def build_outcome(build, grid, mats):
    """The matrix ``build`` returns, or the type and text of the error it raises."""
    try:
        return build(grid, mats)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same_build(grid, mats):
    built = build_outcome(hg.build_exchange_matrix_2d, grid, mats)
    expected = build_outcome(reference_exchange, grid, mats)
    if isinstance(expected, str):
        assert built == expected
        return expected
    assert built.surfaces == expected.surfaces
    assert built.areas.tobytes() == expected.areas.tobytes()
    assert built.coefficients.tobytes() == expected.coefficients.tobytes()
    return None


@settings(max_examples=25, deadline=None)
@given(
    row_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    col_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_builder_matches_the_reference_walk_on_multi_room_plans(row_sizes, col_sizes, seed):
    grid, mats, _ = hg.load_building(rooms_building_yaml(row_sizes, col_sizes))
    mats = remade(grid, mats, emissivity=np.random.default_rng(seed).uniform(
        0.1, 1.0, mats.emissivity.shape))
    assert assert_same_build(grid, mats) is None


def random_cell_type_map(rng):
    """A random type map; every other one has a wall ring, so closed cavities occur too."""
    rows, cols = rng.integers(2, 9, size=2)
    types = [int(t) for t in CvType]
    cv = rng.choice(types, size=(rows, cols), p=rng.dirichlet(np.ones(len(types))))
    if rng.integers(2):
        cv[[0, -1], :] = rng.choice([int(CvType.EXTERIOR_WALL), int(CvType.WINDOW)], (2, cols))
        cv[:, [0, -1]] = rng.choice([int(CvType.EXTERIOR_WALL), int(CvType.INTERIOR_WALL)],
                                    (rows, 2))
    return cv


def test_builder_raises_the_reference_walk_error_on_random_cell_type_maps():
    rng = np.random.default_rng(15)
    errors = []
    while len(errors) < 300:
        try:
            grid = BuildingGrid.from_cv_types(random_cell_type_map(rng), 0.5, 0.4, 3.0)
        except hg.ValidationError:  # a window with no zone behind it
            continue
        mats = stored(grid, emissivity=rng.uniform(0.1, 1.0, (grid.rows, grid.cols)))
        error = assert_same_build(grid, mats)
        if error is not None:
            errors.append(error)
    assert sum(" is open at air cell " in e for e in errors) > 100
    assert sum("no air zones" in e for e in errors) > 10
    assert sum(" is not rectangular" in e for e in errors) > 10


def test_open_face_named_in_raster_then_direction_order():
    # a corridor across the grid: open west at (1, 0) and east at (1, 2)
    cv = np.full((3, 3), int(CvType.EXTERIOR_WALL))
    cv[1, :] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    with pytest.raises(OpenCavityError, match=r"^zone 0 is open at air cell \(1, 0\) toward west$"):
        hg.build_exchange_matrix_2d(grid, stored(grid))


def test_surfaces_listed_by_air_cell_then_direction():
    _, _, matrix = square_cavity()
    # one air cell at (1, 1): its east, north, west and south walls, each facing back
    assert matrix.surfaces == [(1, 2, 2), (0, 1, 3), (1, 0, 0), (2, 1, 1)]


# -----------------------------------------------------------------------------
# multi-zone plans: within-zone surface pairs
# -----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiled():
    """3x3 rooms of 4x4 air cells: (grid, mats, exchange matrix)."""
    grid, mats, _ = hg.load_building(tiled_building_yaml(3, 3, room=4))
    return grid, mats, hg.build_exchange_matrix_2d(grid, mats)


def test_tiled_pair_apply_matches_dense_sum(tiled, rng):
    _, _, matrix = tiled
    temps = rng.uniform(285.0, 315.0, matrix.n_surfaces)
    t4 = temps**4
    dense = matrix.coefficients
    expected = STEFAN_BOLTZMANN * (dense * (t4[None, :] - t4[:, None])).sum(axis=1)
    np.testing.assert_allclose(surface_flux(matrix, temps), expected, rtol=1e-12, atol=0.0)


def test_tiled_isothermal_flux_exactly_zero(tiled):
    _, _, matrix = tiled
    q = surface_flux(matrix, np.full(matrix.n_surfaces, 296.5))
    assert (q == 0.0).all()


def test_tiled_pairs_are_the_within_zone_pairs(tiled):
    grid, _, matrix = tiled
    assert grid.n_zones == 9
    zone = np.array([
        grid.zone_id[r + DIR_OFFSETS[d][0], c + DIR_OFFSETS[d][1]]  # the air cell faced
        for r, c, d in matrix.surfaces
    ])
    face = np.array([d for _r, _c, d in matrix.surfaces])
    pair_i, pair_j = np.nonzero(matrix.coefficients)
    assert (zone[pair_i] == zone[pair_j]).all()
    # sum_z S_z (S_z - 1), less the pairs of faces on one straight wall,
    # which see each other with a crossed-strings factor of exactly zero
    expected = 0
    for z in range(grid.n_zones):
        s_z = int((zone == z).sum())
        expected += s_z * (s_z - 1)
        for d in range(4):
            n_d = int(((zone == z) & (face == d)).sum())
            expected -= n_d * (n_d - 1)
    assert pair_i.size == expected


def test_tiled_matrix_holds_no_dense_array(tiled):
    _, _, matrix = tiled
    arrays = [v for v in vars(matrix).values() if isinstance(v, np.ndarray)]
    assert arrays
    assert all(a.size < matrix.n_surfaces**2 for a in arrays)
    assert sum(b.factors.size for b in matrix.blocks) < matrix.n_surfaces**2


def test_tiled_oracle_terms_match_vectorized(tiled, rng):
    grid, mats, matrix = tiled
    plan = interior_plan(grid, mats)
    t = rng.uniform(285.0, 315.0, (grid.rows, grid.cols))
    x = t.reshape(-1)[plan.newton_cells]
    tensor = np.zeros(grid.rows * grid.cols)
    tensor[plan.newton_cells], _ = tensor_solver._lagged_radiation(
        plan, plan.lw_positions.copy(), x
    )
    # the same slot watts summed over the full grid: partition cells own two
    # surfaces, and both sums run in slot order
    fourth = x * x * x * x  # the step's products, not pow
    watts = hg.apply_interior_lw(plan.lw_operators, fourth[plan.lw_positions])
    full = np.bincount(plan.newton_cells[plan.lw_positions], weights=watts, minlength=tensor.size)
    assert np.array_equal(tensor, full) and plan.newton_cells.size < matrix.n_surfaces
    tensor = tensor.reshape(grid.rows, grid.cols)
    scalar = np.array(_interior_lw_terms(matrix, t.tolist(), grid.rows, grid.cols))
    np.testing.assert_allclose(tensor, scalar, rtol=1e-12, atol=1e-12 * np.abs(tensor).max())


# -----------------------------------------------------------------------------
# dense exchange blocks, one per group of surfaces
# -----------------------------------------------------------------------------

def assert_blocks_apply_dense_sum(matrix, rng):
    """Every surface in one block; flux equals the dense difference sum."""
    n = matrix.n_surfaces
    covered = np.concatenate([b.index.ravel() for b in matrix.blocks])
    assert np.array_equal(np.sort(covered[covered < n]), np.arange(n))
    for index, factors, row_sums in matrix.blocks:
        padding = index == n
        assert not padding[:, 0].any()
        assert (factors[padding] == 0.0).all()
        assert (factors.transpose(0, 2, 1)[padding] == 0.0).all()
        assert (row_sums[padding] == 0.0).all()
    temps = rng.uniform(285.0, 315.0, n)
    t4 = temps**4
    expected = STEFAN_BOLTZMANN * (matrix.coefficients * (t4[None, :] - t4[:, None])).sum(axis=1)
    np.testing.assert_allclose(surface_flux(matrix, temps), expected, rtol=1e-12, atol=0.0)
    assert (surface_flux(matrix, np.full(n, 301.25)) == 0.0).all()


def test_blocks_group_zones_by_surface_count(rng):
    # rooms of 2x2 and 8x2 air cells: zones of 8 and 20 surfaces, two classes
    grid, mats, _ = hg.load_building(rooms_building_yaml([2, 8], [2, 2]))
    matrix = hg.build_exchange_matrix_2d(grid, mats)
    assert sorted(b.index.shape for b in matrix.blocks) == [(2, 8), (2, 20)]
    assert_blocks_apply_dense_sum(matrix, rng)


def test_zones_of_near_sizes_share_one_padded_block(rng):
    # rooms of 3x4 and 5x4 air cells: zones of 14 and 18 surfaces, one class
    grid, mats, _ = hg.load_building(rooms_building_yaml([3, 5], [4, 4]))
    matrix = hg.build_exchange_matrix_2d(grid, mats)
    [block] = matrix.blocks
    assert block.index.shape == (4, 18)
    assert (block.index == matrix.n_surfaces).sum() == 2 * 4
    assert_blocks_apply_dense_sum(matrix, rng)


def test_many_component_sizes_need_few_classes(rng):
    # one group of each size 2..40: 39 sizes in four classes, 20-40,
    # 10-19, 5-9 and 2-4
    sizes = range(2, 41)
    n = sum(sizes)
    groups = []
    offset = 0
    for m in sizes:
        block = rng.uniform(0.0, 0.5 / m, (m, m))
        np.fill_diagonal(block, 0.0)
        groups.append((np.arange(offset, offset + m), block + block.T))
        offset += m
    matrix = hg.RadiationExchangeMatrix([(k, 0, 0) for k in range(n)], np.ones(n), groups)
    assert [b.index.shape for b in matrix.blocks] == [(21, 40), (10, 19), (5, 9), (3, 4)]
    assert_blocks_apply_dense_sum(matrix, rng)


def test_surfaces_without_pairs_are_padded_into_the_smallest_class():
    _, _, matrix = square_cavity()
    pair = ([0, 1], np.array([[0.0, 0.5], [0.5, 0.0]]))
    groups = [pair, ([2], np.array([[0.0]])), ([3], np.array([[0.0]]))]
    lone = hg.RadiationExchangeMatrix(matrix.surfaces, matrix.areas, groups)
    assert [b.index.tolist() for b in lone.blocks] == [[[0, 1], [2, 4], [3, 4]]]
    q = surface_flux(lone, np.array([310.0, 290.0, 350.0, 250.0]))
    assert q[2] == 0.0 and q[3] == 0.0 and q[0] < 0.0 < q[1]


# -----------------------------------------------------------------------------
# solar tensors
# -----------------------------------------------------------------------------

def test_night_tensors_zero(canonical):
    grid, mats, _ = canonical
    qa, qt, qtm = hg.assemble_solar_tensors(
        hg.solar_basis(grid, mats), np.zeros(4), False
    )
    assert (qa == 0.0).all() and (qt == 0.0).all() and (qtm == 0.0).all()


def test_opaque_building_transmits_nothing():
    grid, mats = ring_building(absorptivity=0.6)
    poa = facade_poa(north=100.0, east=200.0, south=600.0, west=50.0)
    qa, qt, qtm = hg.assemble_solar_tensors(hg.solar_basis(grid, mats), poa, False)
    assert qa.sum() > 0.0
    assert (qt == 0.0).all() and (qtm == 0.0).all()


@pytest.mark.parametrize("case", ["canonical", "ring", "ring_oblong_cells"])
def test_absorbed_solar_is_the_scalar_sum_over_exposed_faces(canonical, case):
    # absorptivity x irradiance x face area summed per cell in direction
    # order, with a different irradiance on each facade: bitwise comparable
    if case == "canonical":
        grid, mats, _ = canonical
    else:
        grid, mats = ring_building(absorptivity=np.linspace(0.2, 0.8, 30).reshape(5, 6))
        if case == "ring_oblong_cells":
            grid = BuildingGrid.from_cv_types(grid.cv_type, 0.4, 0.7, grid.z)
    poa = facade_poa(north=120.0, east=310.5, south=640.25, west=75.125)
    basis = hg.solar_basis(grid, mats)
    qa, _, _ = hg.assemble_solar_tensors(basis, poa, False)

    reference = np.zeros((grid.rows, grid.cols))
    for r, c in np.argwhere(grid.is_envelope()):
        acc = 0.0
        for d in range(4):
            if grid.exposed_mask[d, r, c]:
                length = grid.v[r, c] if d in (0, 2) else grid.u[r, c]
                acc += mats.absorptivity[r, c] * poa[d] * (length * grid.z)
        reference[r, c] = acc
    assert np.count_nonzero(reference) == np.count_nonzero(grid.delta_x)
    assert np.array_equal(on_grid(basis, basis.cells, qa), reference)


def test_window_share_distributes_uniformly(canonical):
    grid, mats, _ = canonical
    poa = facade_poa(north=120.0, east=310.5, south=640.25, west=75.125)
    basis = hg.solar_basis(grid, mats)
    qa, qt, qtm = hg.assemble_solar_tensors(basis, poa, mass_enabled=False)
    for zone in range(grid.n_zones):
        members = grid.zone_id == zone
        values = np.unique(on_grid(basis, basis.air, qt)[members])
        assert values.size == 1  # uniform share, bit-identical per cell
    assert (qtm == 0.0).all()


def test_mass_routing_empties_air_tensor(canonical):
    grid, mats, _ = canonical
    poa = facade_poa(north=120.0, east=310.5, south=640.25, west=75.125)
    basis = hg.solar_basis(grid, mats)
    qa_off, qt_off, _ = hg.assemble_solar_tensors(basis, poa, mass_enabled=False)
    qa_on, qt_on, qtm_on = hg.assemble_solar_tensors(basis, poa, mass_enabled=True)
    assert np.array_equal(qa_on, qa_off)
    assert (qt_on == 0.0).all()
    # same power, expressed per plan area
    plan_area = grid.u * grid.v
    assert (on_grid(basis, basis.air, qtm_on) * plan_area).sum() == pytest.approx(
        qt_off.sum(), rel=1e-12
    )

