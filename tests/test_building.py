import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import heatgrid as hg
from heatgrid import building
from heatgrid.building import (
    DIR_OFFSETS,
    BuildingGrid,
    ConfigError,
    CvType,
    MaterialField,
    ValidationError,
    _face_coefficients,
)

from _factories import remade, tiled_building_yaml


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


def nan_at(shape, cell):
    sizes = np.full(shape, 0.5)
    sizes[cell] = math.nan
    return sizes


@pytest.mark.parametrize(
    "u, v, z, message",
    [
        (0.5, 0.5, math.nan, r"^floor height z=nan must be finite and > 0$"),
        (0.5, 0.5, 0.0, r"^floor height z=0.0 must be finite and > 0$"),
        (nan_at((3, 4), (1, 2)), 0.5, 3.0, r"^U=nan at cell \(1, 2\) must be finite and > 0$"),
        (0.5, np.full((3, 4), np.inf), 3.0, r"^V=inf at cell \(0, 0\) must be finite and > 0$"),
        (0.5, -0.5, 3.0, r"^V=-0.5 at cell \(0, 0\) must be finite and > 0$"),
    ],
    ids=["z-nan", "z-zero", "u-nan", "v-inf", "v-negative"],
)
def test_grid_size_not_finite_and_positive_fails_where_the_grid_is_made(u, v, z, message):
    cv = np.full((3, 4), int(CvType.EXTERIOR_WALL))
    with pytest.raises(ValidationError, match=message):
        BuildingGrid.from_cv_types(cv, u, v, z)


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
    got_k, got_h = _face_coefficients(grid, cell_k, cell_h)
    assert np.array_equal(got_k, k_face)
    assert np.array_equal(got_h, h_face)


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


@pytest.mark.parametrize(
    "zones, message",
    [
        (({"cv_type": "interior_wall", "rect": [0, 3, 5, 3]},),
         r"^INTERIOR_WALL cell \(0, 3\) touches the exterior; envelope required$"),
        (({"cv_type": "exterior_wall", "rect": [1, 1, 4, 5]},
          {"cv_type": "interior_air", "rect": [2, 2, 3, 4]}),
         r"^EXTERIOR_WALL cell \(1, 1\) has no face adjacent to the exterior; "
         r"an inner layer of a thick wall is an interior_wall cell$"),
    ],
    ids=["partition-reaches-exterior", "double-exterior-shell"],
)
def test_envelope_rejection_names_the_cell(zones, message):
    doc = minimal_doc(rows=6, cols=7, extra_zones=zones)
    doc["materials"].append({"cv_type": "interior_wall",
                             "properties": {"conductivity": 0.7, "specific_heat": 900.0,
                                            "density": 1800.0, "emissivity": 0.9}})
    with pytest.raises(ValidationError, match=message):
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


def add_material(entry):
    def edit(doc):
        doc["materials"].append(entry)
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
        (set_property(0, "conductivity", -1.0), ConfigError,
         r"materials\[0\] \(wall\): conductivity=-1.0 must be >= 0"),
        (set_property(1, "specific_heat", -5.0), ConfigError,
         r"materials\[1\] \(air\): specific_heat=-5.0 must be >= 0"),
        (set_property(1, "density", -1.2), ConfigError,
         r"materials\[1\] \(air\): density=-1.2 must be >= 0"),
        (set_property(1, "h_exterior", -3.0), ConfigError,
         r"materials\[1\] \(air\): h_exterior=-3.0 must be >= 0"),
        (set_grid("z", math.nan), ConfigError, r"grid.z=nan must be finite"),
        (set_grid("cell_size", math.nan), ConfigError, r"grid.cell_size=nan must be finite"),
        (add_material({"name": "both", "cv_type": "exterior_wall", "rect": [0, 0, 0, 0],
                       "properties": {}}),
         ConfigError, r"^materials\[2\] \(both\): give cv_type or rect, not both$"),
    ],
    ids=["conductivity-nan", "emissivity-nan", "absorptivity-nan", "specific_heat-nan",
         "h_exterior-nan", "h_exterior-inf", "tilt-nan", "tilt-200", "conductivity-negative",
         "specific_heat-negative", "density-negative", "unexposed-h_exterior-negative",
         "z-nan", "cell_size-nan", "cv_type-and-rect"],
)
def test_bad_number_fails_at_load_naming_the_entry(edit, error, message):
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(error, match=message):
        load_doc(doc)


@pytest.mark.parametrize(
    "name, index, message",
    [
        ("k_face", (2, 1, 3), r"^k_face\[west\]=-0.5 must be >= 0 at cell \(1, 3\)$"),
        ("h_face", (1, 0, 2), r"^h_face\[north\]=-0.5 must be >= 0 at cell \(0, 2\)$"),
        ("heat_capacity", (2, 4), r"^heat_capacity=-0.5 must be >= 0 at cell \(2, 4\)$"),
        ("density", (3, 1), r"^density=-0.5 must be >= 0 at cell \(3, 1\)$"),
    ],
    ids=["k_face", "h_face", "heat_capacity", "density"],
)
def test_negative_material_field_named_by_array_direction_and_cell(name, index, message):
    grid, mats, _ = load_doc(minimal_doc())
    properties = dataclasses.asdict(mats)
    properties[name][index] = -0.5
    with pytest.raises(ValidationError, match=message):
        MaterialField.for_grid(grid, **properties)


@pytest.mark.parametrize(
    "name",
    ["k_face", "h_face", "heat_capacity", "density", "emissivity", "absorptivity",
     "transmissivity", "tilt"],
)
def test_mis_shaped_material_property_fails_naming_it(canonical, name):
    grid, mats, _ = canonical
    want = getattr(mats, name).shape
    with pytest.raises(ValidationError, match=rf"^{name} shape \(12, 24\) != grid "
                                              rf"{re.escape(str(want))}$"):
        remade(grid, mats, **{name: np.ones((12, 24))})


def test_inputs_are_frozen_and_their_arrays_read_only(canonical):
    grid, mats, config = canonical
    for made, name in ((mats, "density"), (config, "dt"), (config.mass_params, "k_mass"),
                       (config.site, "albedo")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, name, 1.0)
    for name in ("k_face", "h_face", "heat_capacity", "density", "emissivity", "absorptivity",
                 "transmissivity", "tilt"):
        assert not getattr(mats, name).flags.writeable


def test_every_construction_of_materials_checks_and_freezes(canonical):
    _, mats, _ = canonical
    properties = dataclasses.asdict(mats)
    negative = r"^density=-\S+ must be >= 0 at cell \(\d+, \d+\)$"
    with pytest.raises(ValidationError, match=negative):
        MaterialField(**{**properties, "density": -mats.density})
    outside = r"^emissivity=1.5 outside \[0, 1\] at cell \(0, 0\)$"
    with pytest.raises(ValidationError, match=outside):
        dataclasses.replace(mats, emissivity=1.5)
    mis_shaped = rf"^tilt shape \(3,\) != grid {re.escape(str(mats.tilt.shape))}$"
    with pytest.raises(ValidationError, match=mis_shaped):
        dataclasses.replace(mats, tilt=np.ones(3))
    for value in (1000.0, np.ones(3)):  # heat_capacity gives the others their shape
        shape = re.escape(str(np.shape(value)))
        with pytest.raises(ValidationError, match=rf"^heat_capacity shape {shape} != grid "):
            dataclasses.replace(mats, heat_capacity=value)
    given = np.full(mats.emissivity.shape, 0.5)
    made = dataclasses.replace(mats, emissivity=given)
    given[0, 0] = 2.0  # the caller's array is copied, not kept
    assert made.emissivity[0, 0] == 0.5
    assert not any(a.flags.writeable for a in vars(made).values())


@pytest.mark.parametrize("value", [2.5, True, 0])
def test_max_inner_iterations_must_be_an_integer_of_at_least_one(canonical, value):
    _, _, config = canonical
    message = rf"^max_inner_iterations={value!r} must be an integer >= 1$"
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(config, max_inner_iterations=value)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: hg.SimulationConfig(dt="300"), r"^dt='300' is not a number$"),
        (lambda: hg.SimulationConfig(convergence_epsilon=True),
         r"^convergence_epsilon=True is not a number$"),
        (lambda: hg.SimulationConfig(mass_params=hg.MassParams(k_mass="1")),
         r"^mass_params.k_mass='1' is not a number$"),
        (lambda: hg.SimulationConfig(enable_solar="no"),
         r"^enable_solar='no' is not true or false$"),
        (lambda: hg.SimulationConfig(enable_interior_lw=1),
         r"^enable_interior_lw=1 is not true or false$"),
        (lambda: hg.SitePosition(latitude="45", longitude=0.0),
         r"^site.latitude='45' is not a number$"),
        (lambda: hg.SitePosition(latitude=45.0, longitude=0.0, albedo=None),
         r"^site.albedo=None is not a number$"),
    ],
    ids=["dt-string", "epsilon-bool", "k_mass-string", "solar-string", "interior_lw-int",
         "latitude-string", "albedo-none"],
)
def test_settings_made_in_code_name_the_field_of_the_wrong_type(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def set_section(section, key, value):
    def edit(doc):
        doc.setdefault(section, {})[key] = value
    return edit


def set_rect_entry(value):
    def edit(doc):
        doc["zones"][1]["rect"][2] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_section("simulation", "enable_solar", "false"),
         r"simulation.enable_solar='false' is not true or false"),
        (set_section("simulation", "envelope_layer_divisor", 1.9),
         r"^simulation section: unknown keys \['envelope_layer_divisor'\]$"),
        (set_grid("rows", 12.7), r"grid.rows=12.7 is not an integer"),
        (set_grid("rows", math.nan), r"grid.rows=nan is not an integer"),
        (set_section("simulation", "max_inner_iterations", math.nan),
         r"simulation.max_inner_iterations=nan is not an integer"),
        (set_section("simulation", "dt", "abc"), r"simulation.dt='abc' is not a number"),
        (set_section("simulation", "dt", True), r"simulation.dt=True is not a number"),
        (set_section("site", "latitude", "abc"), r"site.latitude='abc' is not a number"),
        (set_rect_entry("x"), r"zones\[1\] \(air\): rect entry='x' is not an integer"),
        (set_grid("rows", 0), r"^grid.rows=0 must be >= 1$"),
        (set_grid("cols", -2), r"^grid.cols=-2 must be >= 1$"),
        (set_grid("z", -3.0), r"^grid.z=-3.0 must be > 0$"),
        (set_grid("cell_size", 0.0), r"^grid.cell_size=0.0 must be > 0$"),
        (set_grid("cell_size", [0.5, -0.5]), r"^grid.cell_size=-0.5 must be > 0$"),
    ],
    ids=["flag-string", "divisor-fraction", "rows-fraction", "rows-nan", "iterations-nan",
         "dt-string", "dt-flag", "latitude-string", "rect-string", "rows-zero",
         "cols-negative", "z-negative", "cell_size-zero", "cell_size-pair-negative"],
)
def test_bad_setting_fails_at_load_naming_the_key(edit, message):
    doc = minimal_doc()
    doc["site"] = {"latitude": 40.0, "longitude": -105.0}
    edit(doc)
    with pytest.raises(ConfigError, match=message):
        load_doc(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_section("simulation", "dt", "300"), r"^simulation.dt='300' is not a number$"),
        (set_section("site", "latitude", " 45 "), r"^site.latitude=' 45 ' is not a number$"),
        (set_property(0, "conductivity", "0.5"),
         r"^materials\[0\] \(\w+\): conductivity='0.5' is not a number$"),
    ],
    ids=["simulation", "site", "materials"],
)
def test_quoted_yaml_number_fails_at_load_naming_the_key(edit, message):
    # a quoted number loads as a string, which no reader takes for a number
    doc = minimal_doc()
    doc["site"] = {"latitude": 40.0, "longitude": -105.0}
    edit(doc)
    with pytest.raises(ConfigError, match=message):
        load_doc(doc)


@pytest.mark.parametrize("base", ["CSafeLoader", "SafeLoader"])
@pytest.mark.parametrize(
    "section, key, raw, value",
    [
        ("simulation", "convergence_epsilon", "1e-3", 1e-3),
        ("simulation", "dt", "1E3", 1000.0),
        ("site", "longitude", "-2e+1", -20.0),
        ("simulation", "convergence_epsilon", '"1e-3"', None),
    ],
    ids=["lower", "upper", "signed", "quoted"],
)
def test_yaml_1_2_exponents_load_as_numbers(monkeypatch, base, section, key, raw, value):
    # PyYAML's YAML 1.1 floats need a dot and a signed exponent; the plan
    # loader also takes 1.2's, with libyaml's parser and with PyYAML's own
    if not hasattr(yaml, base):
        pytest.skip(f"PyYAML was built without {base}")
    monkeypatch.setattr(building, "_PLAN_LOADER", building._plan_loader(getattr(yaml, base)))
    doc = minimal_doc()
    doc["site"] = {"latitude": 40.0, "longitude": -105.0}
    doc[section][key] = "EXPONENT"
    text = yaml.safe_dump(doc).replace("EXPONENT", raw)
    if value is None:
        with pytest.raises(ConfigError, match=rf"^{section}.{key}='1e-3' is not a number$"):
            hg.load_building(text)
    else:
        _, _, config = hg.load_building(text)
        read = getattr(config.site if section == "site" else config, key)
        assert type(read) is float and read == value
    # PyYAML's own safe loader is left as it was
    assert yaml.safe_load(f"a: {raw}") == {"a": "1e-3" if value is None else raw}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("latitude", 100.0, r"^latitude 100.0 outside \[-90, 90\]$"),
        ("longitude", 500.0, r"^longitude 500.0 outside \[-180, 180\]$"),
        ("albedo", 1.5, r"^albedo 1.5 outside \[0, 1\]$"),
    ],
)
def test_site_out_of_range_fails_at_load_naming_the_key(key, value, message):
    doc = minimal_doc()
    doc["site"] = {"latitude": 40.0, "longitude": -105.0, key: value}
    with pytest.raises(ValueError, match=message):
        load_doc(doc)


def set_top(section, value):
    def edit(doc):
        doc[section] = value
    return edit


def set_properties(value):
    def edit(doc):
        doc["materials"][0]["properties"] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_top("grid", 5), r"^grid section must be a mapping, got 5$"),
        (set_top("site", 5), r"^site section must be a mapping, got 5$"),
        (set_top("site", [1, 2]), r"^site section must be a mapping, got \[1, 2\]$"),
        (set_top("simulation", 5), r"^simulation section must be a mapping, got 5$"),
        (set_section("simulation", "mass_params", 5),
         r"^simulation.mass_params section must be a mapping, got 5$"),
        (set_properties(5), r"^materials\[0\] \(wall\): properties must be a mapping, got 5$"),
    ],
    ids=["grid", "site", "site-list", "simulation", "mass_params", "properties"],
)
def test_section_that_is_not_a_mapping_fails_naming_it(edit, message):
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(ConfigError, match=message):
        load_doc(doc)


def set_entry(section, i, key, value):
    def edit(doc):
        doc[section][i][key] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_top("simulaton", {"dt": 3600.0}), r"^building config: unknown keys \['simulaton'\]$"),
        (set_section("grid", "colums", 6), r"^grid section: unknown keys \['colums'\]$"),
        (set_section("simulation", "dtt", 3600), r"^simulation section: unknown keys \['dtt'\]$"),
        (set_section("simulation", "mass_params", {"k_mas": 2.0}),
         r"^simulation.mass_params section: unknown keys \['k_mas'\]$"),
        (set_section("site", "altitude", 1600.0), r"^site section: unknown keys \['altitude'\]$"),
        (set_entry("zones", 1, "colour", "blue"), r"^zones\[1\] \(air\): unknown keys \['colour'\]$"),
        (set_entry("materials", 0, "selector", "rect"),
         r"^materials\[0\] \(wall\): unknown keys \['selector'\]$"),
    ],
    ids=["top", "grid", "simulation", "mass_params", "site", "zone", "material"],
)
def test_unknown_key_fails_naming_it_and_its_section(edit, message):
    doc = minimal_doc()
    edit(doc)
    with pytest.raises(ConfigError, match=message):
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


def test_invalid_yaml_error_gives_its_line():
    text = "grid:\n  rows: 3\n  cols: [4\nzones: []\n"
    with pytest.raises(ConfigError, match=r"^invalid YAML: (?s:.*)line 3, column 9"):
        hg.load_building(text)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("plan", ["bundled", "tiled"])
def test_libyaml_and_python_loaders_read_equal_documents(canonical_paths, plan):
    if plan == "bundled":
        text = canonical_paths[0].read_text(encoding="utf-8")
    else:
        text = tiled_building_yaml(6, 8, room=10)
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


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


def test_grid_is_frozen_and_every_field_is_given():
    cv = np.full((4, 4), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.n_zones = 2
    for f in dataclasses.fields(grid):
        value = getattr(grid, f.name)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[(0,) * value.ndim] = 0
    cv[0, 0] = int(CvType.BOUNDARY)  # the caller's map stays its own
    assert grid.cv_type[0, 0] == int(CvType.EXTERIOR_WALL)
    assert all(
        f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        for f in dataclasses.fields(BuildingGrid)
    )


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
