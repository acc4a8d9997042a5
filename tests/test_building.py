import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import heatgrid as hg
from heatgrid.building import (
    DIR_OFFSETS,
    BuildingGrid,
    ConfigError,
    CvType,
    MaterialField,
    ValidationError,
    _assign_face_coefficients,
)


def minimal_doc(rows=5, cols=6, extra_zones=(), **sim):
    doc = {
        "grid": {"rows": rows, "cols": cols, "z": 3.0, "cell_size": 0.5},
        "zones": [
            {"name": "shell", "cv_type": "exterior_wall", "rect": [0, 0, rows - 1, cols - 1]},
            {"name": "air", "cv_type": "interior_air", "rect": [1, 1, rows - 2, cols - 2]},
            *extra_zones,
        ],
        "materials": [
            {
                "name": "wall",
                "cv_type": "exterior_wall",
                "properties": {
                    "conductivity": 1.4, "h_exterior": 15.0, "specific_heat": 880.0,
                    "density": 2300.0, "emissivity": 0.9, "absorptivity": 0.6,
                    "transmissivity": 0.0,
                },
            },
            {
                "name": "air",
                "cv_type": "interior_air",
                "properties": {
                    "conductivity": 0.15, "specific_heat": 1005.0, "density": 1.2,
                },
            },
        ],
        "simulation": {"enable_interior_mass": False, **sim},
    }
    return doc


def load_doc(doc):
    return hg.load_building(yaml.safe_dump(doc))


# -----------------------------------------------------------------------------
# canonical plan
# -----------------------------------------------------------------------------

def test_canonical_plan_has_276_cvs_and_two_zones(canonical):
    grid, mats, config = canonical
    assert grid.rows * grid.cols == 276
    assert grid.rows == 12 and grid.cols == 23
    assert grid.n_zones == 2
    assert (grid.cv_type == int(CvType.WINDOW)).sum() == 8


def test_canonical_exposure_counts(canonical):
    grid, _, _ = canonical
    assert (grid.exposed_faces == 2).sum() == 4
    assert (grid.exposed_faces == 1).sum() == 62
    air = grid.cv_type == int(CvType.INTERIOR_AIR)
    assert (grid.exposed_faces[air] == 0).all()


def test_canonical_delta_x(canonical):
    grid, _, _ = canonical
    assert grid.delta_x[0, 0] == pytest.approx(1.0)  # corner: both faces
    assert grid.delta_x[0, 5] == pytest.approx(0.5)  # edge: one face
    assert grid.delta_x[5, 5] == 0.0  # interior air


def test_canonical_window_zones(canonical):
    grid, _, _ = canonical
    west_zone = grid.zone_id[5, 5]
    east_zone = grid.zone_id[5, 15]
    assert west_zone != east_zone
    assert grid.window_zone[(11, 4)] == west_zone
    assert grid.window_zone[(11, 16)] == east_zone
    assert grid.window_zone[(5, 22)] == east_zone


def test_window_alpha_plus_tau_accepted(canonical):
    _, mats, _ = canonical
    window_alpha_tau = 0.1 + 0.7
    assert window_alpha_tau <= 1.0
    assert (mats.absorptivity + mats.transmissivity <= 1.0 + 1e-12).all()


def test_face_conductivity_is_symmetric(canonical):
    grid, mats, _ = canonical
    k = mats.k_face
    # conductance symmetry between a cell's east face and the neighbor's west face
    assert np.array_equal(k[0][:, :-1], k[2][:, 1:])
    assert np.array_equal(k[3][:-1, :], k[1][1:, :])


def test_convection_only_on_exposed_faces(canonical):
    grid, mats, _ = canonical
    for d in range(4):
        assert (mats.h_face[d][~grid.exposed_mask[d]] == 0.0).all()
        assert (mats.k_face[d][grid.exposed_mask[d]] == 0.0).all()


# -----------------------------------------------------------------------------
# exposure classification
# -----------------------------------------------------------------------------

@pytest.mark.parametrize("rows,cols", [(3, 3), (3, 7), (5, 4), (8, 8)])
def test_rectangular_envelope_exposure_counts(rows, cols):
    cv = np.full((rows, cols), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    assert (grid.exposed_faces == 2).sum() == 4
    assert (grid.exposed_faces == 1).sum() == 2 * (rows - 2) + 2 * (cols - 2)


def test_boundary_ring_counts_as_exterior():
    cv = np.full((6, 6), int(CvType.BOUNDARY))
    cv[1:-1, 1:-1] = int(CvType.EXTERIOR_WALL)
    cv[2:-2, 2:-2] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    assert grid.exposed_faces[1, 1] == 2  # corner against the padding ring
    assert grid.exposed_faces[1, 2] == 1
    assert (grid.exposed_faces[cv == int(CvType.BOUNDARY)] == 0).all()
    grid.validate()


def test_three_exposed_faces_rejected():
    cv = np.full((1, 4), int(CvType.EXTERIOR_WALL))
    with pytest.raises(ValidationError, match="exterior faces"):
        BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_exposure_and_face_coefficients_match_a_per_cell_loop(data):
    # random type maps, boundary padding anywhere in the grid, random cell
    # sizes and conductivities (zero included), against a loop over DIR_OFFSETS
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    n = rows * cols

    def field(elements):
        return np.array(data.draw(st.lists(elements, min_size=n, max_size=n))).reshape(rows, cols)

    kinds = [int(CvType.INTERIOR_AIR), int(CvType.EXTERIOR_WALL),
             int(CvType.INTERIOR_WALL), int(CvType.BOUNDARY)]
    cv = field(st.sampled_from(kinds))
    u, v = field(st.floats(0.1, 2.0)), field(st.floats(0.1, 2.0))
    cell_k = field(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    cell_h = field(st.floats(0.0, 30.0))

    boundary = cv == int(CvType.BOUNDARY)
    envelope = cv == int(CvType.EXTERIOR_WALL)
    exposed = np.zeros((4, rows, cols), dtype=bool)
    delta_x = np.zeros((rows, cols))
    k_face, h_face = np.zeros((4, rows, cols)), np.zeros((4, rows, cols))
    for r in range(rows):
        for c in range(cols):
            if boundary[r, c]:
                continue
            for d, (dr, dc) in enumerate(DIR_OFFSETS):
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols) or boundary[nr, nc]:
                    exposed[d, r, c] = True
                    h_face[d, r, c] = cell_h[r, c]
                    if envelope[r, c]:
                        delta_x[r, c] += v[r, c] if d in (0, 2) else u[r, c]
                else:
                    a, b = cell_k[r, c], cell_k[nr, nc]
                    k_face[d, r, c] = 2.0 * a * b / (a + b) if a + b > 0.0 else 0.0
    counts = exposed.sum(axis=0)

    if (envelope & (counts > 2)).any():
        with pytest.raises(ValidationError, match="exterior faces"):
            BuildingGrid.from_cv_types(cv, u, v, 3.0)
        return
    grid = BuildingGrid.from_cv_types(cv, u, v, 3.0)
    assert np.array_equal(grid.exposed_mask, exposed)
    assert np.array_equal(grid.exposed_faces, counts)
    assert np.array_equal(grid.delta_x, delta_x)
    mats = MaterialField.zeros(rows, cols)
    _assign_face_coefficients(grid, mats, cell_k, cell_h)
    assert np.array_equal(mats.k_face, k_face)
    assert np.array_equal(mats.h_face, h_face)


# -----------------------------------------------------------------------------
# loader validation
# -----------------------------------------------------------------------------

def test_degenerate_single_air_cell_rejected():
    doc = {
        "grid": {"rows": 1, "cols": 1, "z": 3.0, "cell_size": 0.5},
        "zones": [{"cv_type": "interior_air", "rect": [0, 0, 0, 0]}],
        "materials": [{"cv_type": "interior_air",
                       "properties": {"conductivity": 0.1, "specific_heat": 1005.0,
                                      "density": 1.2}}],
    }
    with pytest.raises(ValidationError):
        load_doc(doc)


def test_air_touching_exterior_rejected():
    doc = minimal_doc()
    doc["zones"][1]["rect"] = [0, 1, 3, 4]  # air painted over the north wall
    with pytest.raises(ValidationError, match="envelope required"):
        load_doc(doc)


def test_transmissive_wall_rejected():
    doc = minimal_doc()
    doc["materials"][0]["properties"]["transmissivity"] = 0.3
    with pytest.raises(ValidationError, match="opaque"):
        load_doc(doc)


def test_window_alpha_plus_tau_over_one_rejected():
    doc = minimal_doc(rows=6, cols=6,
                      extra_zones=({"cv_type": "window", "rect": [0, 2, 0, 2]},))
    doc["materials"].append({
        "cv_type": "window",
        "properties": {"conductivity": 0.8, "h_exterior": 15.0, "specific_heat": 840.0,
                       "density": 2500.0, "emissivity": 0.88,
                       "absorptivity": 0.4, "transmissivity": 0.7},
    })
    with pytest.raises(ValidationError, match="transmissivity > 1"):
        load_doc(doc)


def test_unexposed_window_rejected():
    doc = minimal_doc(rows=6, cols=6,
                      extra_zones=({"cv_type": "window", "rect": [2, 2, 2, 2]},))
    doc["materials"].append({
        "cv_type": "window",
        "properties": {"conductivity": 0.8, "specific_heat": 840.0, "density": 2500.0,
                       "absorptivity": 0.1, "transmissivity": 0.7, "emissivity": 0.88},
    })
    with pytest.raises(ValidationError, match="exterior"):
        load_doc(doc)


def test_missing_material_binding_names_cell():
    doc = minimal_doc()
    doc["materials"] = doc["materials"][:1]  # drop the air material
    with pytest.raises(ConfigError, match="no material binding"):
        load_doc(doc)


def set_property(index, key, value):
    def edit(doc):
        doc["materials"][index]["properties"][key] = value
    return edit


def set_grid(key, value):
    def edit(doc):
        doc["grid"][key] = value
    return edit


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (set_property(0, "conductivity", math.nan), ConfigError,
         r"materials\[0\] \(wall\): conductivity=nan must be finite"),
        (set_property(0, "emissivity", math.nan), ConfigError,
         r"materials\[0\] \(wall\): emissivity=nan must be finite"),
        (set_property(0, "absorptivity", math.nan), ConfigError,
         r"materials\[0\] \(wall\): absorptivity=nan must be finite"),
        (set_property(1, "specific_heat", math.nan), ConfigError,
         r"materials\[1\] \(air\): specific_heat=nan must be finite"),
        (set_property(0, "h_exterior", math.nan), ConfigError,
         r"materials\[0\] \(wall\): h_exterior=nan must be finite"),
        (set_property(0, "h_exterior", math.inf), ConfigError,
         r"materials\[0\] \(wall\): h_exterior=inf must be finite"),
        (set_property(0, "tilt", math.nan), ConfigError,
         r"materials\[0\] \(wall\): tilt=nan must be finite"),
        (set_property(0, "tilt", 200.0), ValidationError,
         r"tilt=200.0 outside \[0, 180\] at cell \(0, 0\)"),
        (set_grid("z", math.nan), ConfigError, r"grid.z=nan must be finite"),
        (set_grid("cell_size", math.nan), ConfigError, r"grid.cell_size=nan must be finite"),
    ],
    ids=["conductivity-nan", "emissivity-nan", "absorptivity-nan", "specific_heat-nan",
         "h_exterior-nan", "h_exterior-inf", "tilt-nan", "tilt-200", "z-nan", "cell_size-nan"],
)
def test_bad_number_fails_at_load_naming_the_entry(edit, error, message):
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(error, match=message):
        load_doc(doc)


def test_uncovered_cell_rejected():
    doc = minimal_doc()
    doc["zones"][0]["rect"] = [0, 0, 4, 4]  # shell no longer spans all columns
    with pytest.raises(ConfigError, match="not covered"):
        load_doc(doc)


def test_bad_rect_reports_entry():
    doc = minimal_doc()
    doc["zones"][1]["rect"] = [1, 1, 99, 4]
    with pytest.raises(ConfigError, match="zones\\[1\\]"):
        load_doc(doc)


def test_unknown_cv_type_rejected():
    doc = minimal_doc()
    doc["zones"][0]["cv_type"] = "roof"
    with pytest.raises(ConfigError, match="unknown cv_type"):
        load_doc(doc)


def test_unknown_property_key_rejected():
    doc = minimal_doc()
    doc["materials"][0]["properties"]["reflectivity"] = 0.5
    with pytest.raises(ConfigError, match="reflectivity"):
        load_doc(doc)


def test_invalid_yaml_is_config_error():
    with pytest.raises(ConfigError, match="invalid YAML"):
        hg.load_building("grid: [unclosed")


def test_rect_material_override():
    doc = minimal_doc()
    doc["materials"].append({
        "name": "patch", "rect": [0, 0, 0, 2],
        "properties": {"conductivity": 0.7, "h_exterior": 5.0, "specific_heat": 900.0,
                       "density": 2000.0, "emissivity": 0.5, "absorptivity": 0.4,
                       "transmissivity": 0.0},
    })
    _, mats, _ = load_doc(doc)
    assert mats.emissivity[0, 1] == 0.5
    assert mats.emissivity[0, 4] == 0.9


# -----------------------------------------------------------------------------
# round trip
# -----------------------------------------------------------------------------

def test_save_and_reload_round_trips(canonical, canonical_paths):
    grid, mats, config = canonical
    text = hg.save_building(grid)
    grid2, mats2, config2 = hg.load_building(text)
    assert grid2.rows == grid.rows and grid2.cols == grid.cols
    assert np.array_equal(grid2.cv_type, grid.cv_type)
    assert np.array_equal(grid2.u, grid.u) and np.array_equal(grid2.v, grid.v)
    assert grid2.z == grid.z
    assert np.array_equal(grid2.delta_x, grid.delta_x)
    assert np.array_equal(grid2.exposed_faces, grid.exposed_faces)
    assert np.array_equal(grid2.zone_id, grid.zone_id)
    assert grid2.window_zone == grid.window_zone
    for name in ("k_face", "h_face", "heat_capacity", "density", "emissivity",
                 "absorptivity", "transmissivity", "tilt"):
        assert np.array_equal(getattr(mats2, name), getattr(mats, name)), name
    assert config2 == config


def test_save_requires_loaded_building():
    cv = np.full((4, 4), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    with pytest.raises(ValueError):
        hg.save_building(grid)


def test_zones_numbered_in_raster_order_of_first_cell():
    # A U-shaped air region wraps one room and sits beside another; its
    # arms are first met on row 1, before either room.
    plan = [
        "WWWWWWWWW",
        "WAWAWAWAW",
        "WAWAWAWAW",
        "WAWWWAWAW",
        "WAAAAAWWW",
        "WWWWWWWWW",
    ]
    kind = {"W": int(CvType.INTERIOR_WALL), "A": int(CvType.INTERIOR_AIR)}
    cv = np.array([[kind[ch] for ch in line] for line in plan])
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    expected = np.full(cv.shape, -1)
    for r, c in [(1, 1), (2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (4, 4), (4, 5),
                 (3, 5), (2, 5), (1, 5)]:
        expected[r, c] = 0
    expected[1:3, 3] = 1
    expected[1:4, 7] = 2
    assert grid.n_zones == 3
    assert np.array_equal(grid.zone_id, expected)


def test_import_leaves_scipy_unloaded():
    code = "import sys, heatgrid.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(hg.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
