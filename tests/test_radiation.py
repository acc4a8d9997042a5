import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import heatgrid as hg
from _factories import rooms_building_yaml, tiled_building_yaml
from heatgrid.building import (
    DIR_OFFSETS,
    DIR_ORIENTATION,
    BuildingGrid,
    CvType,
    MaterialField,
)
from heatgrid.oracle_solver import _interior_lw_terms, _scalar_exterior_flux
from heatgrid.radiation import OpenCavityError, STEFAN_BOLTZMANN
from heatgrid.solar import PoaIrradiance


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

def ring_building(rows=5, cols=6, cell=0.5):
    cv = np.full((rows, cols), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, cell, cell, 3.0)
    mats = MaterialField.zeros(rows, cols)
    mats.emissivity[:] = 0.9
    mats.heat_capacity[:] = 900.0
    mats.density[:] = 2000.0
    return grid, mats


def single_wall_cell(eps, tilt=90.0):
    """3x4 plan whose one envelope cell, (0, 1), has one exposed face."""
    cv = np.full((3, 4), int(CvType.INTERIOR_AIR))
    cv[0, 1] = int(CvType.EXTERIOR_WALL)
    # air above the wall cell would touch the exterior; not validated here,
    # the assembly only needs the exposure classification
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    mats = MaterialField.zeros(3, 4)
    mats.emissivity[0, 1] = eps
    mats.tilt[0, 1] = tilt
    return grid, mats


def wall_cell_flux(grid, mats, t_surf, t_gnd, t_sky, t_air):
    """Exterior long-wave power [W] on cell (0, 1) through the solver's kernel."""
    t = np.full((grid.rows, grid.cols), float(t_surf))
    weights = hg.exterior_lw_weights(grid, mats, 1)
    return hg.assemble_exterior_lw_tensor(weights, t, t_gnd, t_sky, t_air)[0, 1]


def test_isothermal_flux_is_exactly_zero():
    for tilt in (0.0, 37.0, 90.0, 180.0):
        grid, mats = single_wall_cell(0.9, tilt)
        assert wall_cell_flux(grid, mats, 293.0, 293.0, 293.0, 293.0) == 0.0


def test_zero_emissivity_flux_is_zero():
    grid, mats = single_wall_cell(0.0, 37.0)
    weights = hg.exterior_lw_weights(grid, mats, 1)
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
    mats.emissivity[0, 2] = 1.2
    with pytest.raises(
        hg.ValidationError, match=r"emissivity=1.2 outside \[0, 1\] at cell \(0, 2\)"
    ):
        mats.validate(grid)
    mats.emissivity[0, 2] = 0.9
    config = hg.SimulationConfig(enable_interior_lw=False, enable_solar=False,
                                 enable_interior_mass=False)
    t = np.full((grid.rows, grid.cols), 293.0)
    t[0, 2] = -1.0
    boundary = hg.StepBoundary(t_inf=285.0, t_gnd=290.0, t_sky=270.0, poa=PoaIrradiance.dark())
    with pytest.raises(hg.SolverError, match=r"temperature -1.0 at cell \(0, 2\)"):
        hg.step(hg.ThermalState(t=t), hg.prepare(grid, mats, config), boundary)


def test_equilibrium_tensor_is_zero():
    grid, mats = ring_building()
    t = np.full((grid.rows, grid.cols), 293.0)
    q = hg.assemble_exterior_lw_tensor(hg.exterior_lw_weights(grid, mats, 1), t, 293.0, 293.0, 293.0)
    assert (q == 0.0).all()


def test_corner_entry_is_twice_edge_entry():
    grid, mats = ring_building()
    t = np.full((grid.rows, grid.cols), 300.0)
    q = hg.assemble_exterior_lw_tensor(hg.exterior_lw_weights(grid, mats, 1), t, 290.0, 270.0, 285.0)
    assert q[0, 0] == 2.0 * q[0, 2]
    air = grid.cv_type == int(CvType.INTERIOR_AIR)
    assert (q[air] == 0.0).all()


def test_single_envelope_cell_matches_scalar_path():
    grid, mats = single_wall_cell(0.85)
    t = np.full((3, 4), 305.0)
    q = hg.assemble_exterior_lw_tensor(hg.exterior_lw_weights(grid, mats, 1), t, 288.0, 260.0, 283.0)
    scalar = _scalar_exterior_flux(0.85, 90.0, 305.0, 288.0, 260.0, 283.0)
    assert q[0, 1] == pytest.approx(grid.delta_x[0, 1] * grid.z * scalar, rel=1e-14)
    assert (np.delete(q.ravel(), 1) == 0.0).all()


def test_layer_divisor_controls_inner_envelope():
    cv = np.full((5, 6), int(CvType.EXTERIOR_WALL))
    cv[2:-2, 2:-2] = int(CvType.INTERIOR_AIR)  # double-thickness shell
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    mats = MaterialField.zeros(5, 6)
    mats.emissivity[:] = 0.9
    inner = grid.is_envelope() & (grid.exposed_faces == 0)
    assert inner.any()
    # vertical walls: F_gnd = 0.5 exactly, so the ground weight is 0.5 eps sigma A
    single = hg.exterior_lw_weights(grid, mats, layer_divisor=1)
    assert (single[:, inner] == 0.0).all()
    double = hg.exterior_lw_weights(grid, mats, layer_divisor=2)
    expected = 0.5 * (0.5 + 0.5) / 2 * grid.z
    assert double[0][inner] == pytest.approx(0.5 * 0.9 * STEFAN_BOLTZMANN * expected)
    exposed = grid.exposed_faces > 0
    assert np.array_equal(single[:, exposed], double[:, exposed])


# -----------------------------------------------------------------------------
# interior exchange
# -----------------------------------------------------------------------------

def square_cavity(cell=0.5, emissivity=1.0):
    """3x3 plan with one air cell: a square cavity of four equal walls."""
    cv = np.full((3, 3), int(CvType.EXTERIOR_WALL))
    cv[1, 1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, cell, cell, 3.0)
    mats = MaterialField.zeros(3, 3)
    mats.emissivity[:] = emissivity
    return grid, mats, hg.build_exchange_matrix_2d(grid, mats)


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
    mats = MaterialField.zeros(3, n + 2)
    mats.emissivity[:] = 1.0
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
    mats = MaterialField.zeros(3, 3)
    with pytest.raises(OpenCavityError):
        hg.build_exchange_matrix_2d(grid, mats)


def test_isothermal_enclosure_flux_zero():
    _, _, matrix = square_cavity(emissivity=0.9)
    q = hg.apply_interior_lw(matrix, np.full(4, 299.0))
    assert (q == 0.0).all()


def test_two_surface_antisymmetry():
    # symmetric coefficients and equal areas: q1 = -q2 * (A2 / A1)
    matrix = hg.RadiationExchangeMatrix.from_dense(
        coefficients=np.array([[0.0, 0.8], [0.8, 0.0]]),
        surfaces=[(0, 0, 3), (2, 0, 1)],
        areas=np.array([1.5, 1.5]),
    )
    q = hg.apply_interior_lw(matrix, np.array([310.0, 290.0]))
    assert q[0] == pytest.approx(-q[1] * matrix.areas[1] / matrix.areas[0], rel=1e-12)
    assert q[0] < 0.0 < q[1]  # the hot surface loses, the cold one gains
    assert q[0] == matrix.coefficients[0, 1] * STEFAN_BOLTZMANN * (290.0**4 - 310.0**4)


def test_four_surface_brute_force_oracle(rng):
    _, _, matrix = square_cavity(emissivity=0.85)
    temps = rng.uniform(285.0, 315.0, 4)
    q = hg.apply_interior_lw(matrix, temps)
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
    q = hg.apply_interior_lw(matrix, temps)
    weighted = matrix.areas * q
    assert abs(weighted.sum()) <= 1e-9 * np.abs(weighted).sum()


def test_dimension_mismatch_rejected():
    _, _, matrix = square_cavity()
    with pytest.raises(ValueError, match="surface"):
        hg.apply_interior_lw(matrix, np.full(5, 300.0))


def test_scatter_uses_face_areas():
    grid, _, matrix = square_cavity(cell=0.5)
    q = np.array([10.0, -5.0, 2.5, 0.0])
    tensor = hg.scatter_interior_lw(matrix, q, grid)
    for i, (r, c, _d) in enumerate(matrix.surfaces):
        assert tensor[r, c] == pytest.approx(q[i] * matrix.areas[i], rel=1e-15)


def test_matrix_text_round_trip(canonical):
    grid, mats, _ = canonical
    matrix = hg.build_exchange_matrix_2d(grid, mats)
    text = hg.save_exchange_matrix(matrix)
    back = hg.load_exchange_matrix(text)
    assert back.n_surfaces == matrix.n_surfaces
    assert back.surfaces == matrix.surfaces
    assert np.array_equal(back.areas, matrix.areas)
    assert np.array_equal(back.coefficients, matrix.coefficients)


def test_truncated_matrix_text_rejected():
    _, _, matrix = square_cavity()
    text = hg.save_exchange_matrix(matrix)
    with pytest.raises(ValueError, match="truncated"):
        hg.load_exchange_matrix("\n".join(text.splitlines()[:4]))


def test_external_matrix_drops_into_a_run(canonical, canonical_weather):
    # a matrix that went through the text format drives the solver exactly
    # like the one built in memory
    grid, mats, config = canonical
    built = hg.build_exchange_matrix_2d(grid, mats)
    imported = hg.load_exchange_matrix(hg.save_exchange_matrix(built))
    snaps_a, _ = hg.run_episode(
        grid, mats, config, canonical_weather, 3, exchange=built
    )
    snaps_b, _ = hg.run_episode(
        grid, mats, config, canonical_weather, 3, exchange=imported
    )
    for a, b in zip(snaps_a, snaps_b):
        assert np.array_equal(a.t, b.t)


def edited_matrix_text(matrix, i, j, value):
    """Saved text of ``matrix`` with dense entry ``[i, j]`` replaced by ``value``."""
    lines = hg.save_exchange_matrix(matrix).splitlines()
    row = 3 + matrix.n_surfaces + i
    entries = lines[row].split(",")
    entries[j] = value
    lines[row] = ",".join(entries)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-0.05"])
def test_bad_loaded_factor_rejected_naming_pair(canonical, value):
    grid, mats, _ = canonical
    matrix = hg.build_exchange_matrix_2d(grid, mats)
    i, j = (int(k[7]) for k in np.nonzero(matrix.coefficients))
    (ri, ci, _), (rj, cj, _) = matrix.surfaces[i], matrix.surfaces[j]
    text = edited_matrix_text(matrix, i, j, value)
    with pytest.raises(ValueError) as err:
        hg.load_exchange_matrix(text)
    message = str(err.value)
    assert f"F[{i}, {j}]" in message
    assert f"({ri}, {ci})" in message and f"({rj}, {cj})" in message


def test_pair_indices_outside_surfaces_rejected():
    surfaces = [(0, 0, 3), (2, 0, 1)]
    block = np.array([[0.0, 0.5], [0.5, 0.0]])
    for members in ([0, 2], [-1, 1]):
        with pytest.raises(ValueError, match="outside surfaces"):
            hg.RadiationExchangeMatrix(surfaces, np.ones(2), [(members, block)])


@pytest.mark.parametrize(
    "edit, message",
    [
        (("0,0,0,south", "0,0,0,up"), r"line 3: 'up' is not a valid face"),
        (("0,0,0,south,1.0", "0,0,0,south"), r"line 3: no area \(field 5\)"),
        (("0.0,0.5\n", "0.0\n"), r"line 6: matrix row 0 has 1 entries, expected 2"),
        (("0.0,0.5\n", "0.0,half\n"), r"line 6: matrix row 0: .*'half'"),
        (("n_surfaces,2", "n_surfaces,two"), r"line 1: 'two' is not a valid n_surfaces"),
        (("n_surfaces,2", "n_surfaces,-1"), r"line 1: n_surfaces -1 is negative"),
        (("0,0,0,south", "0,top,0,south"), r"line 3: 'top' is not a valid row"),
    ],
    ids=["face", "no-area", "short-row", "bad-entry", "count-word", "count-negative", "row-word"],
)
def test_malformed_matrix_text_names_line_and_field(edit, message):
    matrix = hg.RadiationExchangeMatrix.from_dense(
        np.array([[0.0, 0.5], [0.5, 0.0]]), [(0, 0, 3), (2, 0, 1)], np.ones(2)
    )
    text = hg.save_exchange_matrix(matrix)
    assert edit[0] in text
    with pytest.raises(ValueError, match=message):
        hg.load_exchange_matrix(text.replace(edit[0], edit[1], 1))


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


def test_text_round_trip_keeps_apply_bit_identical(rng):
    # zones of 2, 3 and 5 surfaces plus one surface with no factors, numbered
    # in random order
    n = 11
    dense = np.zeros((n, n))
    order = rng.permutation(n)
    for group in (order[:2], order[2:5], order[5:10]):
        block = rng.uniform(0.0, 0.2, (group.size, group.size))
        np.fill_diagonal(block, 0.0)
        dense[np.ix_(group, group)] = block
    matrix = hg.RadiationExchangeMatrix.from_dense(
        dense, [(k, 1, k % 4) for k in range(n)], rng.uniform(0.5, 2.0, n)
    )
    back = hg.load_exchange_matrix(hg.save_exchange_matrix(matrix))
    assert np.array_equal(back.coefficients, dense)
    temps = rng.uniform(285.0, 315.0, n)
    assert np.array_equal(hg.apply_interior_lw(back, temps), hg.apply_interior_lw(matrix, temps))


def test_row_sum_above_one_rejected():
    with pytest.raises(ValueError, match="row 0 .* sums to"):
        hg.RadiationExchangeMatrix.from_dense(
            np.array([[0.0, 1.2], [0.8, 0.0]]), [(0, 0, 3), (2, 0, 1)], np.ones(2)
        )


def test_notched_zone_rejected_by_name(canonical_paths):
    doc = yaml.safe_load(canonical_paths[0].read_text(encoding="utf-8"))
    doc["zones"].append({"name": "notch", "cv_type": "interior_wall", "rect": [1, 1, 4, 4]})
    grid, mats, _ = hg.load_building(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(OpenCavityError, match=r"zone 0 is not rectangular.*rows 1-10, cols 1-10"):
        hg.build_exchange_matrix_2d(grid, mats)


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
    np.testing.assert_allclose(hg.apply_interior_lw(matrix, temps), expected, rtol=1e-12, atol=0.0)


def test_tiled_isothermal_flux_exactly_zero(tiled):
    _, _, matrix = tiled
    q = hg.apply_interior_lw(matrix, np.full(matrix.n_surfaces, 296.5))
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


def test_tiled_matrix_text_round_trip(tiled):
    _, _, matrix = tiled
    back = hg.load_exchange_matrix(hg.save_exchange_matrix(matrix))
    assert back.surfaces == matrix.surfaces
    assert np.array_equal(back.areas, matrix.areas)
    assert len(back.blocks) == len(matrix.blocks)
    for ours, theirs in zip(back.blocks, matrix.blocks):
        for a, b in zip(ours, theirs):
            assert np.array_equal(a, b)


def test_tiled_oracle_terms_match_vectorized(tiled, rng):
    grid, _, matrix = tiled
    t = rng.uniform(285.0, 315.0, (grid.rows, grid.cols))
    flux = hg.apply_interior_lw(matrix, matrix.surface_temperatures(t))
    tensor = hg.scatter_interior_lw(matrix, flux, grid)
    scalar = np.array(_interior_lw_terms(matrix, t.tolist(), grid.rows, grid.cols))
    np.testing.assert_allclose(tensor, scalar, rtol=1e-12, atol=1e-12 * np.abs(tensor).max())


# -----------------------------------------------------------------------------
# dense exchange blocks, one per connected group of surfaces
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
    np.testing.assert_allclose(hg.apply_interior_lw(matrix, temps), expected, rtol=1e-12, atol=0.0)
    assert (hg.apply_interior_lw(matrix, np.full(n, 301.25)) == 0.0).all()


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
    # one component of each size 2..40: 39 sizes in four classes, 20-40,
    # 10-19, 5-9 and 2-4
    sizes = range(2, 41)
    n = sum(sizes)
    dense = np.zeros((n, n))
    offset = 0
    for m in sizes:
        block = rng.uniform(0.0, 0.5 / m, (m, m))
        np.fill_diagonal(block, 0.0)
        dense[offset : offset + m, offset : offset + m] = block + block.T
        offset += m
    matrix = hg.RadiationExchangeMatrix.from_dense(
        dense, [(k, 0, 0) for k in range(n)], np.ones(n)
    )
    assert [b.index.shape for b in matrix.blocks] == [(21, 40), (10, 19), (5, 9), (3, 4)]
    assert_blocks_apply_dense_sum(matrix, rng)


def test_cross_zone_entry_merges_zones_into_one_block(canonical, rng):
    grid, mats, _ = canonical
    built = hg.build_exchange_matrix_2d(grid, mats)
    assert sorted(b.index.shape for b in built.blocks) == [(2, 40)]
    dense = built.coefficients
    zone = np.array([
        grid.zone_id[r + DIR_OFFSETS[d][0], c + DIR_OFFSETS[d][1]] for r, c, d in built.surfaces
    ])
    i = int(np.argmin(np.where(zone == 0, dense.sum(axis=1), np.inf)))
    j = int(np.flatnonzero(zone == 1)[0])
    dense[i, j] = 1e-3
    merged = hg.RadiationExchangeMatrix.from_dense(dense, built.surfaces, built.areas)
    assert [b.index.shape for b in merged.blocks] == [(1, 80)]
    assert_blocks_apply_dense_sum(merged, rng)


def test_path_graph_is_one_block(rng):
    # a chain of 200 surfaces numbered in random order is one group
    n = 200
    chain = rng.permutation(n)
    dense = np.zeros((n, n))
    dense[chain[:-1], chain[1:]] = 0.3
    dense[chain[1:], chain[:-1]] = 0.3
    matrix = hg.RadiationExchangeMatrix.from_dense(
        dense, [(k, 0, 0) for k in range(n)], np.ones(n)
    )
    assert [b.index.shape for b in matrix.blocks] == [(1, n)]
    assert_blocks_apply_dense_sum(matrix, rng)


def test_one_way_pairs_link_components():
    # entries listed in one direction only still join their surfaces
    n = 6
    dense = np.zeros((n, n))
    dense[[0, 1, 3], [5, 4, 2]] = 0.5
    matrix = hg.RadiationExchangeMatrix.from_dense(
        dense, [(k, 0, 0) for k in range(n)], np.ones(n)
    )
    [block] = matrix.blocks
    assert block.index.tolist() == [[0, 5], [1, 4], [2, 3]]
    assert np.array_equal(matrix.coefficients, dense)


def test_surfaces_without_pairs_are_padded_into_the_smallest_class():
    _, _, matrix = square_cavity()
    dense = np.zeros((4, 4))
    dense[[0, 1], [1, 0]] = 0.5
    lone = hg.RadiationExchangeMatrix.from_dense(dense, matrix.surfaces, matrix.areas)
    assert [b.index.tolist() for b in lone.blocks] == [[[0, 1], [2, 4], [3, 4]]]
    q = hg.apply_interior_lw(lone, np.array([310.0, 290.0, 350.0, 250.0]))
    assert q[2] == 0.0 and q[3] == 0.0 and q[0] < 0.0 < q[1]


# -----------------------------------------------------------------------------
# solar tensors
# -----------------------------------------------------------------------------

def test_night_tensors_zero(canonical):
    grid, mats, _ = canonical
    qa, qt, qtm = hg.assemble_solar_tensors(
        hg.solar_basis(grid, mats), PoaIrradiance.dark(), False
    )
    assert (qa == 0.0).all() and (qt == 0.0).all() and (qtm == 0.0).all()


def test_opaque_building_transmits_nothing():
    grid, mats = ring_building()
    mats.absorptivity[:] = 0.6
    poa = PoaIrradiance({"north": 100.0, "east": 200.0, "south": 600.0, "west": 50.0})
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
        grid, mats = ring_building()
        if case == "ring_oblong_cells":
            grid = BuildingGrid.from_cv_types(grid.cv_type, 0.4, 0.7, grid.z)
        mats.absorptivity[:] = np.linspace(0.2, 0.8, grid.rows * grid.cols).reshape(
            grid.rows, grid.cols
        )
    poa = PoaIrradiance({"north": 120.0, "east": 310.5, "south": 640.25, "west": 75.125})
    qa, _, _ = hg.assemble_solar_tensors(hg.solar_basis(grid, mats), poa, False)

    reference = np.zeros((grid.rows, grid.cols))
    for r, c in np.argwhere(grid.is_envelope()):
        acc = 0.0
        for d in range(4):
            if grid.exposed_mask[d, r, c]:
                length = grid.v[r, c] if d in (0, 2) else grid.u[r, c]
                acc += mats.absorptivity[r, c] * poa[DIR_ORIENTATION[d]] * (length * grid.z)
        reference[r, c] = acc
    assert np.count_nonzero(reference) == np.count_nonzero(grid.delta_x)
    assert np.array_equal(qa, reference)


def test_window_share_distributes_uniformly(canonical):
    grid, mats, _ = canonical
    poa = PoaIrradiance({"north": 120.0, "east": 310.5, "south": 640.25, "west": 75.125})
    qa, qt, qtm = hg.assemble_solar_tensors(hg.solar_basis(grid, mats), poa, mass_enabled=False)
    for zone in range(grid.n_zones):
        members = grid.zone_id == zone
        values = np.unique(qt[members])
        assert values.size == 1  # uniform share, bit-identical per cell
    assert (qtm == 0.0).all()


def test_mass_routing_empties_air_tensor(canonical):
    grid, mats, _ = canonical
    poa = PoaIrradiance({"north": 120.0, "east": 310.5, "south": 640.25, "west": 75.125})
    qa_off, qt_off, _ = hg.assemble_solar_tensors(
        hg.solar_basis(grid, mats), poa, mass_enabled=False
    )
    qa_on, qt_on, qtm_on = hg.assemble_solar_tensors(
        hg.solar_basis(grid, mats), poa, mass_enabled=True
    )
    assert np.array_equal(qa_on, qa_off)
    assert (qt_on == 0.0).all()
    # same power, expressed per plan area
    plan_area = grid.u * grid.v
    assert (qtm_on * plan_area).sum() == pytest.approx(qt_off.sum(), rel=1e-12)


def test_missing_orientation_rejected(canonical):
    grid, mats, _ = canonical
    with pytest.raises(KeyError, match="orientation"):
        hg.assemble_solar_tensors(
            hg.solar_basis(grid, mats), PoaIrradiance({"north": 10.0}), False
        )
