from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import heatgrid as hg
from heatgrid.building import BuildingGrid, CvType, MassParams, MaterialField, SimulationConfig

from _factories import dark_boundary


def small_grid(z=3.0):
    cv = np.full((4, 4), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    return BuildingGrid.from_cv_types(cv, 0.5, 0.5, z)


def small_mats(grid):
    return MaterialField.for_grid(grid, k_face=0.8, heat_capacity=1000.0, density=1.2)


def mass_config(**overrides):
    """Mass coupling alone: no radiation, so a plan needs no exchange matrix."""
    settings = dict(enable_interior_lw=False, enable_exterior_lw=False, enable_solar=False)
    settings.update(overrides)
    return SimulationConfig(**settings)


def test_t0_definition_value():
    # rho=1000, c=1000, z=3, dt=300, k=1 -> 1000*1000*9/300 = 30000
    grid = small_grid(z=3.0)
    config = mass_config(
        dt=300.0, mass_params=MassParams(k_mass=1.0, rho_mass=1000.0, c_mass=1000.0)
    )
    plan = hg.prepare(grid, small_mats(grid), config)
    air = grid.cv_type == int(CvType.INTERIOR_AIR)
    assert plan.mass_t0 == 30000.0
    assert np.array_equal(plan.air, np.flatnonzero(air))
    assert (plan.coupling[~air] == 0.0).all()
    assert (plan.coupling[air] > 0.0).all()


def test_t0_halves_when_dt_doubles():
    grid = small_grid()
    base = hg.prepare(grid, small_mats(grid), mass_config(dt=300.0))
    doubled = hg.prepare(grid, small_mats(grid), mass_config(dt=600.0))
    assert doubled.mass_t0 == pytest.approx(base.mass_t0 / 2.0, rel=1e-15)


def test_init_rejects_nonpositive_k():
    with pytest.raises(ValueError, match="k_mass"):
        mass_config(mass_params=MassParams(k_mass=0.0))


def prepare_with_mass_param(canonical_paths, key, value):
    config = mass_config(mass_params=MassParams(**{key: value}))
    grid = small_grid()
    return hg.prepare(grid, small_mats(grid), config)


def load_with_mass_param(canonical_paths, key, value):
    doc = yaml.safe_load(Path(canonical_paths[0]).read_text(encoding="utf-8"))
    doc["simulation"]["mass_params"][key] = value
    return hg.load_building(yaml.safe_dump(doc))


@pytest.mark.parametrize("key", ["rho_mass", "c_mass"])
@pytest.mark.parametrize(
    "entry", [prepare_with_mass_param, load_with_mass_param], ids=["prepare", "load_building"]
)
def test_negative_mass_parameter_rejected_naming_it(canonical_paths, entry, key):
    with pytest.raises(hg.ValidationError, match=rf"^mass_params\.{key}=-1\.0 must be >= 0$"):
        entry(canonical_paths, key, -1.0)
    entry(canonical_paths, key, 0.0)  # the t0 -> 0 limit stays allowed


def test_mass_starts_at_air_temperature():
    grid = small_grid()
    state = hg.make_initial_state(grid, SimulationConfig(initial_temperature=296.5), [])
    assert np.array_equal(state.t_mass, np.full((4, 4), 296.5))
    assert state.t_mass is not state.t


def update(t_mass, t_air, q, t0, k=1.0, z=3.0):
    """One node through ``update_mass``."""
    return hg.update_mass(np.array([t_mass]), np.array([t_air]), np.array([q]), t0, z, k)[0]


def test_update_fixed_point_without_source():
    assert update(295.0, 295.0, 0.0, 30000.0) == 295.0


def test_update_frozen_value():
    # T=300, q=100, z=3, k=1, t0=30000, prev=290 -> 8700600/30001
    assert update(290.0, 300.0, 100.0, 30000.0, k=1.0) == pytest.approx(
        290.01033298890036, rel=1e-12
    )


def test_steady_state_limit():
    # t0 -> 0: the node tracks T + q z / k
    assert update(250.0, 300.0, 40.0, 1e-14, k=2.0) == pytest.approx(
        300.0 + 40.0 * 3.0 / 2.0, rel=1e-10
    )


def test_uncoupled_cells_never_change():
    # one step: the nodes of non-air cells keep their placeholder, air nodes move
    grid = small_grid()
    config = mass_config()
    air = grid.cv_type == int(CvType.INTERIOR_AIR)
    t_mass = np.where(air, 290.0, 280.0)
    state = hg.ThermalState(t=np.full((4, 4), 310.0), t_mass=t_mass.copy())
    new, _ = hg.step(state, hg.prepare(grid, small_mats(grid), config), dark_boundary(310.0))
    assert (new.t_mass[~air] == 280.0).all()
    assert (new.t_mass[air] != 290.0).all()


@settings(max_examples=200, deadline=None)
@given(
    t_air=st.floats(250.0, 330.0),
    t_prev=st.floats(250.0, 330.0),
    t0=st.floats(1e-6, 1e6),
)
def test_sourceless_update_is_convex_combination(t_air, t_prev, t0):
    new = update(t_prev, t_air, 0.0, t0)
    lo, hi = min(t_air, t_prev), max(t_air, t_prev)
    assert lo - 1e-9 <= new <= hi + 1e-9


@settings(max_examples=100, deadline=None)
@given(q=st.floats(0.0, 500.0), bump=st.floats(1e-6, 500.0))
def test_update_strictly_increasing_in_flux(q, bump):
    assert update(290.0, 300.0, q + bump, 50.0) > update(290.0, 300.0, q, 50.0)


def test_update_does_not_mutate_input():
    t_mass, t_air, q = np.array([290.0]), np.array([300.0]), np.array([10.0])
    hg.update_mass(t_mass, t_air, q, 50.0, 3.0, 1.0)
    assert t_mass[0] == 290.0 and t_air[0] == 300.0 and q[0] == 10.0
    # nor does a step mutate the state's nodes
    grid = small_grid()
    state = hg.make_initial_state(grid, mass_config(initial_temperature=300.0), [])
    before = state.t_mass.copy()
    plan = hg.prepare(grid, small_mats(grid), mass_config())
    new, _ = hg.step(state, plan, dark_boundary(280.0))
    assert np.array_equal(state.t_mass, before)
    assert not np.array_equal(new.t_mass, before)
