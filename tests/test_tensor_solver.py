import dataclasses
from datetime import timedelta

import numpy as np
import pytest
import yaml

import heatgrid as hg
from heatgrid import tensor_solver
from heatgrid.building import (
    DIR_EAST,
    DIR_NORTH,
    DIR_OFFSETS,
    DIR_SOUTH,
    DIR_WEST,
    BuildingGrid,
    CvType,
    MaterialField,
    SimulationConfig,
)
from heatgrid.tensor_solver import SolverError

from _factories import (
    boundary_at,
    dark_boundary,
    layered_sloped_building_yaml,
    on_grid,
    remade,
    tiled_building_yaml,
)
from conftest import constant_weather


def bare_config(**overrides):
    base = dict(
        dt=200.0,
        convergence_epsilon=1e-3,
        max_inner_iterations=500,
        enable_interior_lw=False,
        enable_exterior_lw=False,
        enable_solar=False,
        enable_interior_mass=False,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def random_raw_case(rng, rows, cols, cv=None):
    """Raw grid and materials on the type map ``cv``, all interior air if None
    (no structural validation)."""
    if cv is None:
        cv = np.full((rows, cols), int(CvType.INTERIOR_AIR))
    grid = BuildingGrid.from_cv_types(
        cv, float(rng.uniform(0.4, 1.0)), float(rng.uniform(0.4, 1.0)), 3.0
    )
    mats = MaterialField.for_grid(
        grid,
        k_face=rng.uniform(0.05, 2.0, (4, rows, cols)),
        h_face=rng.uniform(0.0, 12.0, (4, rows, cols)),
        heat_capacity=rng.uniform(700.0, 1100.0, (rows, cols)),
        density=rng.uniform(1.0, 2500.0, (rows, cols)),
    )
    return grid, mats


def baseline_update(t, t_prev, grid, mats, dt, t_inf, q_x):
    """Direct evaluation of the bare conduction-convection update."""
    u, v, z = grid.u, grid.v, grid.z
    pad = np.pad(t, 1, constant_values=t_inf)
    t1, t2 = pad[1:-1, 2:], pad[:-2, 1:-1]
    t3, t4 = pad[1:-1, :-2], pad[2:, 1:-1]
    k1, k2, k3, k4 = mats.k_face
    h1, h2, h3, h4 = mats.h_face
    capacity = mats.heat_capacity * mats.density * u * v * z / dt
    q_x = 0.0 if q_x is None else q_x
    numer = (
        q_x
        + v * z * (k1 / u * t1 + h1 * t_inf + k3 / u * t3 + h3 * t_inf)
        + u * z * (k2 / v * t2 + h2 * t_inf + k4 / v * t4 + h4 * t_inf)
        + capacity * t_prev
    )
    denom = (
        v * z * (k1 / u + h1 + k3 / u + h3)
        + u * z * (k2 / v + h2 + k4 / v + h4)
        + capacity
    )
    return numer / denom


# -----------------------------------------------------------------------------
# shifted fields
# -----------------------------------------------------------------------------

def test_shift_uniform_field():
    t = np.full((3, 4), 7.0)
    t1, t2, t3, t4 = hg.shift_fields(np.full((5, 6), 2.0), t)
    assert (t1[:, :-1] == 7.0).all() and (t1[:, -1] == 2.0).all()
    assert (t2[1:, :] == 7.0).all() and (t2[0, :] == 2.0).all()
    assert (t3[:, 1:] == 7.0).all() and (t3[:, 0] == 2.0).all()
    assert (t4[:-1, :] == 7.0).all() and (t4[-1, :] == 2.0).all()


def test_shift_two_by_two_manual():
    t = np.array([[1.0, 2.0], [3.0, 4.0]])
    t1, t2, t3, t4 = hg.shift_fields(np.full((4, 4), 9.0), t)
    assert np.array_equal(t1, [[2.0, 9.0], [4.0, 9.0]])  # east neighbor
    assert np.array_equal(t2, [[9.0, 9.0], [1.0, 2.0]])  # north neighbor
    assert np.array_equal(t3, [[9.0, 1.0], [9.0, 3.0]])  # west neighbor
    assert np.array_equal(t4, [[3.0, 4.0], [9.0, 9.0]])  # south neighbor


def test_shift_homogeneous_case():
    t = np.full((4, 4), 5.0)
    for f in hg.shift_fields(np.full((6, 6), 5.0), t):
        assert (f == 5.0).all()


# -----------------------------------------------------------------------------
# reduction to the bare update
# -----------------------------------------------------------------------------

def test_single_iteration_reduces_to_bare_update(rng):
    for _ in range(20):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 9))
        grid, mats = random_raw_case(rng, rows, cols)
        t = rng.uniform(260.0, 320.0, (rows, cols))
        q_x = rng.uniform(-100.0, 100.0, (rows, cols))
        t_inf = float(rng.uniform(260.0, 310.0))
        config = bare_config(max_inner_iterations=1)
        state = hg.ThermalState(t=t.copy())
        new, _ = hg.step(state, hg.prepare(grid, mats, config), dark_boundary(t_inf, q_x=q_x))
        direct = baseline_update(t, t, grid, mats, config.dt, t_inf, q_x)
        rel = np.abs(new.t - direct) / np.abs(direct)
        assert rel.max() <= 1e-12


# -----------------------------------------------------------------------------
# step behavior
# -----------------------------------------------------------------------------

def test_uniform_state_is_fixed_point_in_one_iteration(rng):
    grid, mats = random_raw_case(rng, 5, 5)
    config = bare_config()
    t = np.full((5, 5), 288.0)
    state = hg.ThermalState(t=t)
    new, report = hg.step(state, hg.prepare(grid, mats, config), dark_boundary(288.0))
    assert report.converged and report.inner_iterations == 1
    assert np.abs(new.t - 288.0).max() < 1e-10


def test_degenerate_denominator_names_cell(rng):
    # materials made for a grid whose cell (2, 1) is padding, which needs no
    # conductance or heat capacity, stepped on a grid where it is air
    grid, mats = random_raw_case(rng, 4, 4)
    cv = np.array(grid.cv_type)
    cv[2, 1] = int(CvType.BOUNDARY)
    padded = BuildingGrid.from_cv_types(cv, grid.u, grid.v, grid.z)
    k_face, h_face, density = mats.k_face.copy(), mats.h_face.copy(), mats.density.copy()
    k_face[:, 2, 1] = h_face[:, 2, 1] = density[2, 1] = 0.0
    mats = remade(padded, mats, k_face=k_face, h_face=h_face, density=density)
    config = bare_config()
    t = np.full((4, 4), 290.0)
    state = hg.ThermalState(t=t)
    with pytest.raises(SolverError, match=r"\(2, 1\)"):
        hg.step(state, hg.prepare(grid, mats, config), dark_boundary(290.0))


def test_nonconvergence_reported_not_raised(rng):
    grid, mats = random_raw_case(rng, 5, 5)
    config = bare_config(max_inner_iterations=2, convergence_epsilon=1e-12)
    t = rng.uniform(280.0, 300.0, (5, 5))
    state = hg.ThermalState(t=t)
    new, report = hg.step(state, hg.prepare(grid, mats, config), dark_boundary(250.0))
    assert not report.converged
    assert report.inner_iterations == 2
    assert report.max_delta >= config.convergence_epsilon


def test_prepare_builds_exchange_matrix_when_none_given(canonical):
    grid, mats, config = canonical
    built = hg.build_exchange_matrix_2d(grid, mats)
    plan = hg.prepare(grid, mats, config)
    assert plan.exchange.surfaces == built.surfaces
    assert np.array_equal(plan.exchange.coefficients, built.coefficients)


def test_state_shape_mismatch_rejected(canonical):
    grid, mats, config = canonical
    t = np.full((3, 3), 293.0)
    state = hg.ThermalState(t=t)
    with pytest.raises(SolverError, match="shape"):
        hg.step(state, hg.prepare(grid, mats, config), dark_boundary(293.0))


def test_boundary_cells_pinned_to_ambient():
    cv = np.full((5, 5), int(CvType.BOUNDARY))
    cv[1:-1, 1:-1] = int(CvType.EXTERIOR_WALL)
    cv[2, 2] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    live = cv != int(CvType.BOUNDARY)
    mats = MaterialField.for_grid(
        grid,
        k_face=np.broadcast_to(np.where(live, 0.8, 0.0), (4, 5, 5)),
        h_face=np.broadcast_to(np.where(grid.exposed_mask.any(axis=0), 10.0, 0.0), (4, 5, 5)),
        heat_capacity=900.0,
        density=np.where(live, 1500.0, 0.0),
    )
    t = np.full((5, 5), 300.0)
    state = hg.ThermalState(t=t)
    new, report = hg.step(state, hg.prepare(grid, mats, bare_config()), dark_boundary(270.0))
    boundary_cells = grid.cv_type == int(CvType.BOUNDARY)
    assert (new.t[boundary_cells] == 270.0).all()
    assert (new.t[~boundary_cells] < 300.0).all()  # cooling toward ambient


def test_hot_cell_decay_is_symmetric_and_matches_oracle(rng):
    rows = cols = 7
    cv = np.full((rows, cols), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    mats = MaterialField.for_grid(
        grid,
        k_face=np.where(grid.exposed_mask, 0.0, 0.6),
        h_face=np.where(grid.exposed_mask, 8.0, 0.0),
        heat_capacity=1000.0,
        density=100.0,
    )
    config = bare_config(convergence_epsilon=1e-9, max_inner_iterations=5000)
    t = np.full((rows, cols), 290.0)
    t[3, 3] = 320.0
    state = hg.ThermalState(t=t.copy())
    bc = dark_boundary(290.0)
    new_t, _ = hg.step(state, hg.prepare(grid, mats, config), bc)
    state_o = hg.ThermalState(t=t.copy())
    new_o, _ = hg.oracle_step(state_o, hg.prepare(grid, mats, config), bc)

    field = new_t.t
    assert np.allclose(field, field.T, atol=1e-9)
    assert np.allclose(field, field[::-1, :], atol=1e-9)
    assert field[3, 3] > field[3, 4] > field[3, 5]
    assert np.abs(field - new_o.t).max() < 1e-7


def test_trajectories_bit_identical(canonical, canonical_weather):
    grid, mats, config = canonical
    runs = []
    for _ in range(2):
        snaps, _ = hg.run_episode(grid, mats, config, canonical_weather, 5)
        runs.append(snaps)
    for a, b in zip(*runs):
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.t_mass, b.t_mass)


@pytest.mark.parametrize("layered", [False, True], ids=["canonical", "layered_sloped"])
def test_compact_exterior_term_equals_full_grid(canonical, rng, layered):
    # the plan keeps the weights of the radiating cells only; the ones with a
    # non-zero weight are the envelope cells with an exposed face, and scattered
    # back, their term is the full-grid one, bit for bit
    grid, mats, config = hg.load_building(layered_sloped_building_yaml()) if layered else canonical
    plan = hg.prepare(grid, mats, config)
    weights = hg.exterior_lw_weights(grid, mats)
    exterior = plan.newton_cells[plan.exterior_weights.any(axis=0)]
    assert np.array_equal(exterior, np.flatnonzero(weights.any(axis=0)))
    assert np.array_equal(exterior, np.flatnonzero(grid.delta_x))

    t = rng.uniform(270.0, 320.0, (grid.rows, grid.cols))
    full = hg.assemble_exterior_lw_tensor(weights, t, 288.0, 262.0, 295.0)
    scattered = np.zeros(grid.rows * grid.cols)
    scattered[plan.newton_cells] = hg.assemble_exterior_lw_tensor(
        plan.exterior_weights, t.reshape(-1)[plan.newton_cells], 288.0, 262.0, 295.0
    )
    assert np.array_equal(scattered.reshape(t.shape), full)


def test_prepared_plan_is_read_only_all_the_way_down(canonical):
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, config)
    arrays = {}

    def walk(value, path):
        if isinstance(value, np.ndarray):
            arrays[path] = value
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                walk(getattr(value, f.name), f"{path}.{f.name}")
        elif isinstance(value, (tuple, list)):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")

    walk(plan, "plan")
    assert {"plan.g[0]", "plan.denom", "plan.newton", "plan.mats.heat_capacity", "plan.grid.u",
            "plan.exchange.areas", "plan.exchange.blocks[0][1]", "plan.solar.areas"} <= set(arrays)
    assert [path for path, array in arrays.items() if array.flags.writeable] == []
    # the two solvers cannot be handed different buildings through one plan
    with pytest.raises(ValueError, match="read-only"):
        plan.mats.heat_capacity *= 0.5


def test_oracle_reads_no_array_the_plan_derives(canonical, canonical_weather):
    # NaN in every derived float array and scalar: the oracle must not
    # notice, the vectorized step must fail
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, config)
    poison = {}
    poisoned = set()
    for f in dataclasses.fields(plan):
        value = getattr(plan, f.name)
        if isinstance(value, tuple):
            poison[f.name] = tuple(np.full_like(a, np.nan) for a in value)
        elif isinstance(value, np.ndarray) and value.dtype.kind == "f":
            poison[f.name] = np.full_like(value, np.nan)
        elif isinstance(value, float):
            poison[f.name] = np.nan
        elif isinstance(value, hg.SolarBasis):
            floats = {k: np.full_like(a, np.nan) for k, a in vars(value).items()
                      if isinstance(a, np.ndarray) and a.dtype.kind == "f"}
            poison[f.name] = dataclasses.replace(value, **floats)
            poisoned |= {f"{f.name}.{k}" for k in floats}
            continue
        else:
            continue
        poisoned.add(f.name)
    assert poisoned == {
        "omega", "colour_gains", "g", "convection", "capacity", "coupling", "denom", "mass_t0",
        "exterior_weights", "weight_sums", "lw_operators", "newton", "solar.absorptivity",
        "solar.areas", "solar.transmissivity", "solar.window_areas", "solar.plan_area",
    }
    poisoned_plan = dataclasses.replace(plan, **poison)
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = boundary_at(canonical_weather, config.site, state.sim_clock)
    clean, _ = hg.oracle_step(state, plan, bc)
    dirty, _ = hg.oracle_step(state, poisoned_plan, bc)
    assert np.array_equal(clean.t, dirty.t)
    assert np.array_equal(clean.t_mass, dirty.t_mass)
    with pytest.raises(SolverError, match="iteration 1: temperature nan"):
        hg.step(state, poisoned_plan, bc)


# -----------------------------------------------------------------------------
# episodes
# -----------------------------------------------------------------------------

def test_episode_rejects_zero_steps(canonical, canonical_weather):
    grid, mats, config = canonical
    with pytest.raises(ValueError, match="n_steps"):
        hg.run_episode(grid, mats, config, canonical_weather, 0)


def test_solar_without_site_rejected_naming_both_entries(canonical, canonical_weather):
    grid, mats, config = canonical
    config = dataclasses.replace(config, site=None)
    with pytest.raises(ValueError, match="simulation.enable_solar is true but the plan has no site"):
        hg.run_episode(grid, mats, config, canonical_weather, 1)
    # a direct caller of the boundary assembly gets its own check
    with pytest.raises(ValueError, match="solar gains enabled but no site position given"):
        hg.boundary_series(canonical_weather, None, canonical_weather[0].timestamp, 300.0, 1)
    dark = dataclasses.replace(config, enable_solar=False)
    assert len(hg.run_episode(grid, mats, dark, canonical_weather, 1)[1]) == 1


def test_episode_snapshot_cadence(canonical, canonical_weather):
    grid, mats, config = canonical
    snaps, reports = hg.run_episode(
        grid, mats, config, canonical_weather, 5, snapshot_every=2
    )
    assert len(reports) == 5
    assert [s.step_index for s in snaps] == [2, 4, 5]


def test_episode_weather_horizon_error_carries_step_index(canonical):
    from datetime import timedelta

    grid, mats, config = canonical
    first = constant_weather(t_air=290.0)[0]
    # two records an hour apart cover two hours in total (one held interval)
    second = hg.WeatherRecord(
        timestamp=first.timestamp + timedelta(hours=1),
        t_air=291.0, t_gnd=290.0, t_sky=None, ghi=0.0, dni=0.0, dhi=0.0,
    )
    steps = []

    def stepper(*args):
        steps.append(args)
        return hg.step(*args)

    with pytest.raises(SolverError, match="step 25"):
        hg.run_episode(grid, mats, config, [first, second], 40, stepper)  # 40 * 300 s > 2 h
    assert steps == []  # the whole horizon is checked before the first step


def test_long_constant_weather_approaches_steady_state(canonical):
    grid, mats, config = canonical
    records = constant_weather(t_air=283.0, t_gnd=281.0, t_sky=265.0)
    snaps, reports = hg.run_episode(grid, mats, config, records, 60)
    moves = [r.max_delta for r in reports]
    # per-step change settles monotonically after the initial transient
    assert moves[-1] < moves[5] < moves[0] or moves[-1] < config.convergence_epsilon


# -----------------------------------------------------------------------------
# non-finite values
# -----------------------------------------------------------------------------

@pytest.mark.parametrize(
    "stepper, first_pass",
    [(hg.step, "iteration 1"), (hg.oracle_step, "sweep 1")],
    ids=["tensor", "oracle"],
)
def test_nan_heat_source_raises_naming_cell(canonical, canonical_weather, stepper, first_pass):
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, canonical_weather)
    q_x = np.zeros((grid.rows, grid.cols))
    q_x[5, 5] = np.nan
    bc = boundary_at(canonical_weather, config.site, state.sim_clock, q_x=q_x)
    with pytest.raises(SolverError, match=rf"{first_pass}: temperature nan at cell \(5, 5\)"):
        stepper(state, plan, bc)


def test_non_finite_state_rejected_naming_cell(rng):
    grid, mats = random_raw_case(rng, 4, 4)
    t = np.full((4, 4), 290.0)
    t[1, 3] = np.nan
    with pytest.raises(SolverError, match=r"state: temperature nan at cell \(1, 3\)"):
        hg.step(hg.ThermalState(t=t), hg.prepare(grid, mats, bare_config()), dark_boundary(290.0))


def one_by_two(*values):
    return np.array([values])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("t", one_by_two(290.0, np.nan),
         r"^state: temperature nan at cell \(0, 1\) is not finite and > 0 K$"),
        ("t", one_by_two(0.0, 290.0), r"^state: temperature 0.0 at cell \(0, 0\)"),
        ("t_mass", one_by_two(290.0, -1.0), r"^state t_mass: temperature -1.0 at cell \(0, 1\)"),
        ("t_before", one_by_two(np.inf, 290.0),
         r"^state t_before: temperature inf at cell \(0, 0\)"),
        ("t", np.full(2, 290.0), r"^state t has shape \(2,\) \(ndarray\); it must be a 2-D array$"),
        ("t", [[290.0, 290.0]], r"^state t has shape \(1, 2\) \(list\)"),
        ("t_mass", np.full((2, 1), 290.0),
         r"^state t_mass shape \(2, 1\) does not match t \(1, 2\)$"),
    ],
    ids=["t-nan", "t-zero", "t_mass-negative", "t_before-inf", "t-1d", "t-list", "t_mass-shape"],
)
def test_a_state_checks_itself_when_made(field, value, message):
    good = dict(t=one_by_two(290.0, 291.0), t_mass=one_by_two(280.0, 281.0),
                t_before=one_by_two(289.0, 290.0))
    with pytest.raises(SolverError, match=message):
        hg.ThermalState(**{**good, field: value})
    with pytest.raises(SolverError, match=message):
        dataclasses.replace(hg.ThermalState(**good), **{field: value})


def test_states_and_boundaries_compare_and_hash_by_identity():
    # a generated field-wise == would compare arrays and raise
    t = np.full((2, 2), 290.0)
    for make in (lambda: hg.ThermalState(t=t), lambda: dark_boundary(290.0)):
        a, b = make(), make()
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2


def test_a_step_checks_the_state_it_returns(canonical, canonical_weather, monkeypatch):
    # no later step reads the last step's mass nodes, so only the returned
    # state's own check stands between a NaN update and the caller
    grid, mats, config = canonical
    assert config.enable_interior_mass

    def nan_update(t_mass, *_):
        return np.full_like(t_mass, np.nan)

    monkeypatch.setattr(tensor_solver, "update_mass", nan_update)
    with pytest.raises(SolverError, match=r"^step 0: state t_mass: temperature nan at cell"):
        hg.run_episode(grid, mats, config, canonical_weather, 1)


@pytest.mark.parametrize("stepper", [hg.step, hg.oracle_step], ids=["tensor", "oracle"])
def test_a_step_advances_the_index_and_the_clock(canonical, canonical_weather, stepper):
    grid, mats, config = canonical
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = boundary_at(canonical_weather, config.site, state.sim_clock)
    new, _ = stepper(state, hg.prepare(grid, mats, config), bc)
    assert new.step_index == 1
    assert new.sim_clock == state.sim_clock + timedelta(seconds=config.dt)
    assert new.t_before is (state.t if stepper is hg.step else None)
    unclocked = dataclasses.replace(state, sim_clock=None)
    assert stepper(unclocked, hg.prepare(grid, mats, config), bc)[0].sim_clock is None


def nan_on_wall_node(t_mass):
    t_mass[0, 0] = np.nan  # a wall cell's node never couples, but NaN is still a bad state
    return t_mass


@pytest.mark.parametrize("stepper", [hg.step, hg.oracle_step], ids=["tensor", "oracle"])
@pytest.mark.parametrize(
    "defect, message",
    [
        (lambda t_mass: t_mass[1:], r"state t_mass shape \(11, 23\) does not match t \(12, 23\)"),
        (nan_on_wall_node, r"state t_mass: temperature nan at cell \(0, 0\)"),
        (lambda t_mass: None, "state t_mass is missing"),
    ],
    ids=["one_row_short", "nan_on_wall", "missing"],
)
def test_bad_mass_nodes_rejected_naming_them(
    canonical, canonical_weather, stepper, defect, message
):
    grid, mats, config = canonical
    # a mis-shaped or NaN field fails as the state is made, before either
    # stepper runs; a missing one fails in the stepper, through Plan.check
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = boundary_at(canonical_weather, config.site, state.sim_clock)
    with pytest.raises(SolverError, match=message):
        bad = dataclasses.replace(state, t_mass=defect(state.t_mass.copy()))
        stepper(bad, hg.prepare(grid, mats, config), bc)


def test_non_finite_boundary_temperature_rejected(rng):
    grid, mats = random_raw_case(rng, 4, 4)
    t = np.full((4, 4), 290.0)
    with pytest.raises(SolverError, match="t_sky=nan"):
        hg.step(
            hg.ThermalState(t=t),
            hg.prepare(grid, mats, bare_config()),
            dark_boundary(290.0, t_sky=np.nan),
        )


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "key",
    [
        "dt",
        "convergence_epsilon",
        "initial_temperature",
        "mass_params.k_mass",
        "mass_params.rho_mass",
        "mass_params.c_mass",
        "site.latitude",
        "site.longitude",
        "site.albedo",
    ],
)
def test_non_finite_config_value_fails_naming_key(canonical, canonical_paths, key, value):
    _, _, config = canonical
    section, _, name = key.rpartition(".")
    message = rf"{key}={value} must be finite"
    with pytest.raises(ValueError, match=message):
        if section:
            part = dataclasses.replace(getattr(config, section), **{name: value})
            dataclasses.replace(config, **{section: part})
        else:
            dataclasses.replace(config, **{name: value})
    doc = yaml.safe_load(canonical_paths[0].read_text(encoding="utf-8"))
    sections = {"": doc["simulation"], "mass_params": doc["simulation"]["mass_params"],
                "site": doc["site"]}
    sections[section][name] = value
    with pytest.raises(ValueError, match=message):
        hg.load_building(yaml.safe_dump(doc))


@pytest.mark.parametrize("stepper", [hg.step, hg.oracle_step], ids=["tensor", "oracle"])
def test_mis_shaped_heat_source_rejected_naming_shapes(canonical, canonical_weather, stepper):
    grid, mats, config = canonical
    q_x = np.full(grid.cols, 50.0)
    with pytest.raises(ValueError, match=r"q_x shape \(23,\) != grid shape \(12, 23\)"):
        hg.run_episode(grid, mats, config, canonical_weather, 1, stepper=stepper, q_x=q_x)


def with_q_x(shape, cell=None):
    def edit(bc):
        q_x = np.zeros(shape)
        if cell is not None:
            q_x[cell] = np.nan
        return dataclasses.replace(bc, q_x=q_x)
    return edit


def with_south_poa(value):
    def edit(bc):
        poa = bc.poa.copy()
        poa[DIR_SOUTH] = value
        return dataclasses.replace(bc, poa=poa)
    return edit


def with_boundary(**values):
    def edit(bc):
        return dataclasses.replace(bc, **values)
    return edit


@pytest.mark.parametrize("stepper", [hg.step, hg.oracle_step], ids=["tensor", "oracle"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (with_q_x((23,)), r"boundary q_x shape \(23,\) != grid shape \(12, 23\)"),
        (with_q_x((1, 23)), r"boundary q_x shape \(1, 23\) != grid shape \(12, 23\)"),
        (with_q_x((12, 23), (5, 5)), r"boundary q_x is nan W at cell \(5, 5\), not finite"),
        (with_south_poa(np.nan), r"boundary south POA irradiance nan W/m\^2 is not finite"),
        (with_south_poa(np.inf), r"boundary south POA irradiance inf W/m\^2 is not finite"),
        (with_south_poa(-5000.0), r"boundary south POA irradiance -5000.0 W/m\^2 .* >= 0"),
        (with_boundary(poa=np.zeros(3)), r"boundary POA irradiance has shape \(3,\)"),
        (with_boundary(t_inf=-5.0), r"boundary t_inf=-5.0 is not finite and > 0 K"),
        (with_boundary(t_sky=np.nan), r"boundary t_sky=nan is not finite and > 0 K"),
    ],
    ids=["q_x-row", "q_x-one-row", "q_x-nan", "poa-nan", "poa-inf", "poa-negative",
         "poa-shape", "t_inf-negative", "t_sky-nan"],
)
def test_bad_boundary_rejected_naming_the_field(canonical, canonical_weather, stepper, edit,
                                                message):
    grid, mats, config = canonical
    assert config.enable_solar
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = boundary_at(canonical_weather, config.site, state.sim_clock)
    with pytest.raises(SolverError, match=message):
        stepper(state, plan, edit(bc))


def bad_iterate(monkeypatch, swept, value, at_pass):
    """Make pass ``at_pass``'s image ``value`` at cell (0, 0), before the pass measures its change.

    A Jacobi pass divides its numerator, so that cell's numerator becomes
    ``value`` (0 / denom is 0, and an infinity or NaN stays one). A swept
    pass's second colour starts from the first colour's image and leaves
    (0, 0), a first-colour cell, as it finds it, so that image is set to
    ``value`` as the second colour reads it.
    """
    calls = [0]
    if swept:
        shift = tensor_solver.shift_fields

        def injected(pad, field):
            calls[0] += 1
            if calls[0] == 2 * at_pass:
                field[0, 0] = value
            return shift(pad, field)

        monkeypatch.setattr(tensor_solver, "shift_fields", injected)
    else:
        conduction = tensor_solver._add_conduction

        def injected(numer, *args):
            conduction(numer, *args)
            calls[0] += 1
            if calls[0] == at_pass:
                numer[0, 0] = value

        monkeypatch.setattr(tensor_solver, "_add_conduction", injected)


@pytest.mark.parametrize("swept", [False, True], ids=["jacobi", "swept"])
@pytest.mark.parametrize(
    "value, shown, diverged",
    [(-50.0, r"-\d\S*", True), (0.0, r"0\.0", True), (np.inf, "inf", True),
     (np.nan, "nan", False)],
    ids=["negative", "zero", "inf", "nan"],
)
@pytest.mark.parametrize("at_pass", [1, 2])
def test_bad_iterate_raises_naming_pass_and_cell(monkeypatch, rng, swept, value, shown, diverged,
                                                 at_pass):
    # the pass check is one least value and the finiteness of the largest
    # change; what it catches must still fail naming the pass and the cell
    grid, mats = random_raw_case(rng, 4, 5)
    if swept:
        monkeypatch.setattr(tensor_solver, "MIXING_GATE", -1.0)  # every plan sweeps
    plan = hg.prepare(grid, mats, bare_config(convergence_epsilon=1e-12))
    assert plan.sweep_from_start == swept
    bad_iterate(monkeypatch, swept, value, at_pass)
    t = rng.uniform(285.0, 305.0, (4, 5))
    named = rf"^iteration {at_pass}: temperature {shown} at cell \(0, 0\)"
    message = named + " is not finite and > 0 K"
    # a change that grew from the last pass's is reported as a divergence;
    # a NaN change is not, and the first pass has no last change
    message += r"; the iteration diverged .* at dt = 200 s$" if diverged and at_pass > 1 else "$"
    with pytest.raises(SolverError, match=message):
        hg.step(hg.ThermalState(t=t), plan, dark_boundary(290.0))


@pytest.mark.parametrize("swept", [False, True], ids=["jacobi", "swept"])
def test_padding_stays_at_ambient_through_every_pass(monkeypatch, rng, pass_images, swept):
    # the padding reads the old ambient in the state, and the prediction
    # would move it; every pass's image has it at this step's ambient
    cv = np.full((5, 6), int(CvType.INTERIOR_AIR))
    cv[0, :3] = cv[-1, -2:] = int(CvType.BOUNDARY)
    grid, mats = random_raw_case(rng, 5, 6, cv)
    if swept:
        monkeypatch.setattr(tensor_solver, "MIXING_GATE", -1.0)
    plan = hg.prepare(grid, mats, bare_config(convergence_epsilon=1e-9))
    assert plan.sweep_from_start == swept and plan.padding.size == 5
    t, t_before = rng.uniform(285.0, 305.0, (2, 5, 6))
    _, report = hg.step(hg.ThermalState(t=t, t_before=t_before), plan, dark_boundary(271.5))
    assert report.converged and report.inner_iterations >= 2 and report.mixed_from == int(swept)
    assert len(pass_images) == report.inner_iterations
    padding = cv == int(CvType.BOUNDARY)
    for image in pass_images:
        assert (image[padding] == 271.5).all() and (image[~padding] != 271.5).all()


# -----------------------------------------------------------------------------
# gated red-black sweeps
# -----------------------------------------------------------------------------

@pytest.fixture
def pass_images(monkeypatch):
    """The list to which every pass of the steps that follow appends its image."""
    images = []
    check = tensor_solver._check_pass

    def recording_check(image, *args):
        images.append(image.copy())
        check(image, *args)

    monkeypatch.setattr(tensor_solver, "_check_pass", recording_check)
    return images


def radiating_corners(**overrides):
    """Four uncoupled live cells that store heat and exchange long-wave with sky and ground.

    Each cell of a 2x2 exterior-wall grid is a corner with two exposed faces.
    No conduction or convection, so exterior long-wave is the only term that
    depends on the iterate, and from a uniform start the four cells run the
    same scalar iteration. ``density`` (default 100 kg/m^3) sets the stored
    heat; the other keywords are config values.
    """
    grid = BuildingGrid.from_cv_types(np.full((2, 2), int(CvType.EXTERIOR_WALL)), 0.5, 0.5, 3.0)
    mats = MaterialField.for_grid(
        grid, emissivity=0.9, heat_capacity=1000.0, density=overrides.pop("density", 100.0)
    )
    settings = dict(dt=3600.0, enable_exterior_lw=True, convergence_epsilon=1e-12)
    settings.update(overrides)
    return hg.prepare(grid, mats, bare_config(**settings))


def test_small_steps_never_mix(canonical, canonical_weather):
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, config)
    assert not plan.sweep_from_start and plan.omega == 1.0
    _, reports = hg.run_episode(grid, mats, config, canonical_weather, 250)
    assert all(r.converged and r.mixed_from == 0 for r in reports)
    # the plain Picard count of the canonical day from predicted starts
    # (1,172 from the last field as the start)
    assert sum(r.inner_iterations for r in reports) == 522


def test_steps_under_the_gate_make_jacobi_passes_only(canonical, canonical_weather):
    # at 1,200 s neither the bundled plan's conduction nor its radiation opens the gate
    grid, mats, config = canonical
    config = dataclasses.replace(config, dt=1200.0)
    tight = dataclasses.replace(config, convergence_epsilon=1e-11, max_inner_iterations=5000)
    snapshots, reports = hg.run_episode(grid, mats, config, canonical_weather, 62)
    reference, _ = hg.run_episode(grid, mats, tight, canonical_weather, 62)
    assert all(r.converged and r.mixed_from == 0 for r in reports)
    assert np.mean([r.inner_iterations for r in reports]) <= 5.0
    worst = max(float((np.abs(a.t - b.t) / b.t).max()) for a, b in zip(snapshots, reference))
    assert worst <= 1.5e-5


def test_hourly_steps_mix_to_fewer_iterations_and_a_closer_fixed_point(
    canonical_weather, monkeypatch
):
    grid, mats, config = hg.load_building(tiled_building_yaml(3, 4, room=10))
    config = dataclasses.replace(config, dt=3600.0)
    tight = dataclasses.replace(config, convergence_epsilon=1e-11, max_inner_iterations=5000)
    reference, _ = hg.run_episode(grid, mats, tight, canonical_weather, 24)

    def distance(snapshots):
        return max(float((np.abs(a.t - b.t) / b.t).max()) for a, b in zip(snapshots, reference))

    mixed, reports = hg.run_episode(grid, mats, config, canonical_weather, 24)
    # every pass is an over-relaxed sweep
    assert all(r.converged and r.mixed_from == 1 for r in reports)
    mixed_passes = np.mean([r.inner_iterations for r in reports])
    assert mixed_passes <= 8.0
    assert distance(mixed) <= 5e-6
    monkeypatch.setattr(tensor_solver, "MIXING_GATE", np.inf)
    _, reports = hg.run_episode(grid, mats, config, canonical_weather, 24)
    assert all(r.converged and r.mixed_from == 0 for r in reports)
    assert mixed_passes < np.mean([r.inner_iterations for r in reports])


def test_slowly_contracting_cell_converges_to_the_plain_fixed_point():
    plan = radiating_corners()
    bc = dark_boundary(290.0, t_sky=270.0)
    new, report = hg.step(hg.ThermalState(t=np.full((2, 2), 300.0)), plan, bc)
    contraction = 4.0 * plan.exterior_weights[:, 0].sum() * new.t[0, 0] ** 3 / plan.denom[0, 0]
    assert contraction > 0.5
    # no conduction, so the plan does not sweep, but the radiation's
    # contraction at the start does: the step sweeps from its first pass
    assert not plan.sweep_from_start
    assert report.converged and report.mixed_from == 1
    assert report.inner_iterations < plan.config.max_inner_iterations
    assert abs(new.t[0, 0] - newton_root(plan, 300.0, 290.0, 270.0)) < 1e-9


def newton_root(plan, t_start, t_air, t_sky):
    """The root of ``radiating_corners``'s balance (ground at air temperature), by Newton."""
    w_gnd, w_sky, w_air = plan.exterior_weights[:, 0]
    capacity = plan.capacity[0, 0]
    t = t_start
    for _ in range(50):
        balance = (capacity * (t_start - t) + w_gnd * (t_air**4 - t**4)
                   + w_sky * (t_sky**4 - t**4) + w_air * (t_air**4 - t**4))
        t += balance / (capacity + 4.0 * (w_gnd + w_sky + w_air) * t**3)
    return t


def test_radiation_dominated_cell_converges_on_the_newton_diagonal():
    # at density 50 a lagged-radiation pass expands: |G'| is about 1.44 at the root
    plan = radiating_corners(density=50.0)
    bc = dark_boundary(290.0, t_sky=270.0)
    new, report = hg.step(hg.ThermalState(t=np.full((2, 2), 300.0)), plan, bc)
    root = newton_root(plan, 300.0, 290.0, 270.0)
    contraction = 4.0 * plan.exterior_weights[:, 0].sum() * root**3 / plan.denom[0, 0]
    assert contraction > 1.4
    assert report.converged and report.inner_iterations <= 20
    assert abs(new.t[0, 0] - root) < 1e-9


def python_red_black_pass(plan, x, const, boundary, omega):
    """One swept pass in plain Python: radiation and its Newton diagonal
    lagged at ``x``, then the live cells with ``r + c`` even, then the odd
    ones, each cell moved ``omega`` of the way from its value to its
    Gauss-Seidel value, from its neighbours' freshest values."""
    rows, cols = x.shape
    t_inf = boundary.t_inf
    radiation, diagonal = {}, {}
    for k, cell in enumerate(plan.newton_cells.tolist()):
        t = float(x.flat[cell])
        w_gnd, w_sky, w_air = plan.exterior_weights[:, k].tolist()
        radiation[divmod(cell, cols)] = (
            w_gnd * (boundary.t_gnd**4 - t**4)
            + w_sky * (boundary.t_sky**4 - t**4)
            + w_air * (t_inf**4 - t**4)
        )
        diagonal[divmod(cell, cols)] = 4.0 * (w_gnd + w_sky + w_air) * t**3
    if plan.exchange is not None:
        factors = plan.exchange.coefficients.tolist()
        cells = list(zip(plan.exchange.surface_rows.tolist(), plan.exchange.surface_cols.tolist()))
        for i, (cell, area) in enumerate(zip(cells, plan.exchange.areas.tolist())):
            t = float(x[cell])
            flux = sum(f * (float(x[other]) ** 4 - t**4) for f, other in zip(factors[i], cells))
            radiation[cell] = radiation.get(cell, 0.0) + hg.STEFAN_BOLTZMANN * flux * area
            diagonal[cell] = (
                diagonal.get(cell, 0.0) + 4.0 * hg.STEFAN_BOLTZMANN * area * sum(factors[i]) * t**3
            )
    t = x.tolist()
    for parity in (0, 1):
        for r in range(rows):
            for c in range(cols):
                if (r + c) % 2 != parity or not plan.active[r, c]:
                    continue
                d = diagonal.get((r, c), 0.0)
                total = float(const[r, c]) + radiation.get((r, c), 0.0) + d * t[r][c]
                for k, (dr, dc) in enumerate(DIR_OFFSETS):
                    inside = 0 <= r + dr < rows and 0 <= c + dc < cols
                    total += float(plan.g[k][r, c]) * (t[r + dr][c + dc] if inside else t_inf)
                t[r][c] += omega * (total / (float(plan.denom[r, c]) + d) - t[r][c])
    return np.array(t)


def test_swept_pass_is_a_red_black_gauss_seidel_sweep(canonical, monkeypatch, rng, pass_images):
    # an hour on the bundled plan: over-relaxed sweeps from the first pass,
    # with the exterior and the interior long-wave on the diagonal
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, dataclasses.replace(
        config, dt=3600.0, enable_solar=False, enable_interior_mass=False,
        convergence_epsilon=1e-9,
    ))
    assert plan.sweep_from_start and plan.omega > 1.1
    t = rng.uniform(285.0, 305.0, (grid.rows, grid.cols))
    bc = dark_boundary(288.0, t_gnd=286.0, t_sky=265.0)
    _, report = hg.step(hg.ThermalState(t=t), plan, bc)
    assert report.converged and report.mixed_from == 1 and report.inner_iterations >= 5
    const = plan.convection * bc.t_inf + plan.capacity * t
    for before, after in zip([t] + pass_images[:-1], pass_images):
        expected = python_red_black_pass(plan, before, const, bc, plan.omega)
        assert np.abs(after - expected).max() <= 1e-12

    # a plan under the gate, with boundary padding, and the gate then
    # lowered to 0 for its radiation to open: sweeps at omega = 1 from the
    # first pass
    pass_images.clear()
    cv = np.full((5, 7), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    cv[0, :2] = int(CvType.BOUNDARY)
    grid, mats = random_raw_case(rng, 5, 7, cv)
    mats = remade(grid, mats, emissivity=rng.uniform(0.5, 1.0, (5, 7)))
    plan = hg.prepare(grid, mats, bare_config(
        dt=3600.0, enable_exterior_lw=True, convergence_epsilon=1e-9
    ))
    assert not plan.sweep_from_start and plan.omega == 1.0
    assert 0 < plan.newton_cells.size < grid.rows * grid.cols
    monkeypatch.setattr(tensor_solver, "MIXING_GATE", 0.0)
    t = rng.uniform(285.0, 305.0, (5, 7))
    bc = dark_boundary(288.0, t_gnd=286.0, t_sky=265.0, q_x=rng.uniform(-50.0, 50.0, (5, 7)))
    _, report = hg.step(hg.ThermalState(t=t), plan, bc)
    assert report.converged and report.mixed_from == 1 and report.inner_iterations >= 5
    const = plan.convection * bc.t_inf + plan.capacity * t + bc.q_x
    start = np.where(plan.active, t, bc.t_inf)
    for before, after in zip([start] + pass_images[:-1], pass_images):
        expected = python_red_black_pass(plan, before, const, bc, 1.0)
        assert np.abs(after - expected).max() <= 1e-12


def symmetric_raw_case(rng, rows, cols, cv=None):
    """``random_raw_case`` with each face's conductivity shared by both its cells."""
    grid, mats = random_raw_case(rng, rows, cols, cv)
    k_ew = rng.uniform(0.05, 2.0, (rows, cols + 1))  # column c: the face west of cell c
    k_ns = rng.uniform(0.05, 2.0, (rows + 1, cols))  # row r: the face north of cell r
    k_face = np.empty((4, rows, cols))
    k_face[DIR_EAST], k_face[DIR_WEST] = k_ew[:, 1:], k_ew[:, :-1]
    k_face[DIR_NORTH], k_face[DIR_SOUTH] = k_ns[:-1], k_ns[1:]
    return grid, remade(grid, mats, k_face=k_face)


def test_jacobi_radius_matches_the_dense_eigenvalue(rng):
    cv = np.full((6, 8), int(CvType.INTERIOR_AIR))
    cv[0, :3] = int(CvType.BOUNDARY)
    grid, mats = symmetric_raw_case(rng, 6, 8, cv)
    mats = remade(grid, mats, h_face=mats.h_face * 0.02)  # weak films: conduction dominates
    plan = hg.prepare(grid, mats, bare_config(dt=1e6))
    assert plan.sweep_from_start and 1.0 < plan.omega < 2.0
    # omega = 2 / (1 + sqrt(1 - rho^2)), solved for rho
    radius = np.sqrt(1.0 - (2.0 / plan.omega - 1.0) ** 2)
    n = grid.rows * grid.cols
    jacobi = np.zeros((n, n))
    for k, (dr, dc) in enumerate(DIR_OFFSETS):
        for r, c in zip(*np.nonzero(plan.active)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < grid.rows and 0 <= cc < grid.cols and plan.active[rr, cc]:
                jacobi[r * grid.cols + c, rr * grid.cols + cc] = plan.g[k][r, c] / plan.denom[r, c]
    assert abs(radius - np.abs(np.linalg.eigvals(jacobi)).max()) <= 1e-3


def test_swept_and_jacobi_passes_share_the_hourly_fixed_point(canonical_weather, monkeypatch):
    grid, mats, config = hg.load_building(tiled_building_yaml(3, 4, room=10))
    tight = dataclasses.replace(
        config, dt=3600.0, convergence_epsilon=1e-11, max_inner_iterations=5000
    )
    swept, reports = hg.run_episode(grid, mats, tight, canonical_weather, 4)
    assert all(r.converged and r.mixed_from == 1 for r in reports)
    monkeypatch.setattr(tensor_solver, "MIXING_GATE", np.inf)
    jacobi, reports = hg.run_episode(grid, mats, tight, canonical_weather, 4)
    assert all(r.converged and r.mixed_from == 0 for r in reports)
    for a, b in zip(swept, jacobi):
        assert np.abs(a.t - b.t).max() <= 1e-10
        assert np.abs(a.t_mass - b.t_mass).max() <= 1e-10


def test_budget_spent_while_mixing_is_reported_not_raised(pass_images):
    plan = radiating_corners(max_inner_iterations=4)
    new, report = hg.step(
        hg.ThermalState(t=np.full((2, 2), 300.0)), plan, dark_boundary(290.0, t_sky=270.0)
    )
    assert not report.converged
    assert report.inner_iterations == 4 and report.mixed_from == 1
    assert report.max_delta >= plan.config.convergence_epsilon
    # the step returns its last image, not an extrapolation from it
    assert len(pass_images) == 4 and np.array_equal(new.t, pass_images[-1])


# -----------------------------------------------------------------------------
# predicted start and extrapolated return
# -----------------------------------------------------------------------------

def test_canonical_day_stays_near_the_tight_trajectory_and_the_oracle(
    canonical, canonical_weather
):
    grid, mats, config = canonical
    tight = dataclasses.replace(config, convergence_epsilon=1e-11, max_inner_iterations=5000)
    snapshots, _ = hg.run_episode(grid, mats, config, canonical_weather, 250)
    for reference, bound in (
        (hg.run_episode(grid, mats, tight, canonical_weather, 250)[0], 5e-6),
        (hg.run_episode(grid, mats, config, canonical_weather, 250, stepper=hg.oracle_step)[0],
         1.185e-5),
    ):
        worst = max(float((np.abs(a.t - b.t) / b.t).max()) for a, b in zip(snapshots, reference))
        assert worst <= bound


def test_t_before_kept_after_every_step(canonical, canonical_weather):
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, canonical_weather)
    assert state.t_before is None
    bc = boundary_at(canonical_weather, config.site, state.sim_clock)
    first, report = hg.step(state, plan, bc)
    assert report.mixed_from == 0 and first.t_before is state.t
    second, report = hg.step(first, plan, bc)
    assert report.mixed_from == 0 and second.t_before is first.t
    assert hg.oracle_step(second, plan, bc)[0].t_before is None
    # a swept step keeps the field it was handed too
    plan = radiating_corners()
    t = np.full((2, 2), 300.0)
    new, report = hg.step(
        hg.ThermalState(t=t, t_before=t.copy()), plan, dark_boundary(290.0, t_sky=270.0)
    )
    assert report.mixed_from == 1 and new.t_before is t


def test_one_pass_budget_starts_from_t(canonical, canonical_weather):
    # a predicted start needs a second pass to be checked, so one pass cannot use it
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, dataclasses.replace(config, max_inner_iterations=1))
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = boundary_at(canonical_weather, config.site, state.sim_clock)
    first, _ = hg.step(state, plan, bc)
    assert first.t_before is state.t
    predicted, report = hg.step(first, plan, bc)
    unpredicted, _ = hg.step(dataclasses.replace(first, t_before=None), plan, bc)
    assert report.inner_iterations == 1 and np.array_equal(predicted.t, unpredicted.t)


@pytest.mark.parametrize("stepper", [hg.step, hg.oracle_step], ids=["tensor", "oracle"])
@pytest.mark.parametrize(
    "defect, message",
    [
        (lambda t: t[:, 1:], r"state t_before shape \(12, 22\) does not match t \(12, 23\)"),
        (lambda t: np.where(t > 0.0, np.nan, t), r"state t_before: temperature nan at cell"),
    ],
    ids=["one_column_short", "nan"],
)
def test_bad_t_before_rejected_naming_it(canonical, canonical_weather, stepper, defect, message):
    grid, mats, config = canonical
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = boundary_at(canonical_weather, config.site, state.sim_clock)
    with pytest.raises(SolverError, match=message):  # as the state is made
        bad = dataclasses.replace(state, t_before=defect(state.t.copy()))
        stepper(bad, hg.prepare(grid, mats, config), bc)


def two_coupled_cells(contraction):
    """Two equal cells joined by one conducting face, each losing heat by convection.

    Started uniform under uniform ambient, both cells keep one temperature,
    so the Picard map is the scalar ``x -> (g x + C t + h t_inf) / (g + C + h)``:
    linear, monotone, contracting by ``g / (g + C + h)`` a pass, with fixed
    point ``(C t + h t_inf) / (C + h)``. Returns the plan and ``(C, h)``.
    """
    grid = BuildingGrid.from_cv_types(np.full((1, 2), int(CvType.INTERIOR_AIR)), 0.5, 0.5, 3.0)
    k_face, h_face = np.zeros((4, 1, 2)), np.zeros((4, 1, 2))
    k_face[DIR_EAST, 0, 0] = k_face[DIR_WEST, 0, 1] = 1.0
    h_face[DIR_NORTH] = 0.05  # weak enough that a contraction of 0.95 needs C > 0
    mats = MaterialField.for_grid(
        grid, k_face=k_face, h_face=h_face, heat_capacity=1000.0, density=1.0
    )
    plan = hg.prepare(grid, mats, bare_config(convergence_epsilon=1e-9, max_inner_iterations=5000))
    g = plan.g[0][0, 0]
    capacity, h = plan.capacity[0, 0], plan.convection[0, 0]
    # rescale the stored heat so that g / (g + C + h) is the contraction asked for
    scale = (g / contraction - g - h) / capacity
    mats = remade(grid, mats, density=scale)
    plan = hg.prepare(grid, mats, plan.config)
    return plan, (plan.capacity[0, 0], h)


@pytest.mark.parametrize("contraction", [0.4, 0.95])
def test_extrapolated_return_below_the_ratio_limit_only(monkeypatch, pass_images, contraction):
    monkeypatch.setattr(tensor_solver, "MIXING_GATE", np.inf)
    plan, (capacity, h) = two_coupled_cells(contraction)
    t, t_inf = np.full((1, 2), 300.0), 290.0
    new, report = hg.step(hg.ThermalState(t=t), plan, dark_boundary(t_inf))
    assert report.converged and report.mixed_from == 0 and report.inner_iterations > 2
    last, before, older = pass_images[-1], pass_images[-2], pass_images[-3]
    ratio = np.abs(last - before).max() / np.abs(before - older).max()
    assert ratio == pytest.approx(contraction, rel=1e-3)
    fixed_point = (capacity * 300.0 + h * t_inf) / (capacity + h)
    if contraction < tensor_solver.EXTRAPOLATION_LIMIT:
        # Aitken's delta-squared is exact on a linear scalar map
        assert np.abs(new.t - fixed_point).max() < 1e-10 < np.abs(last - fixed_point).max()
        assert report.error_estimate == pytest.approx(np.abs(new.t - last).max(), rel=1e-9)
    else:
        assert np.array_equal(new.t, last) and np.isnan(report.error_estimate)


def test_over_relaxed_return_is_exact_on_two_cells(pass_images):
    # one cell of each colour: the swept error lives in a plane, so its
    # residuals follow a two-term recurrence exactly; over-relaxation turns
    # them from pass to pass, so one ratio would not do
    plan, (capacity, h) = two_coupled_cells(0.9)
    assert plan.sweep_from_start and plan.omega > 1.3
    t, t_inf = np.full((1, 2), 300.0), 290.0
    new, report = hg.step(hg.ThermalState(t=t), plan, dark_boundary(t_inf))
    assert report.converged and report.mixed_from == 1 and report.inner_iterations > 3
    fixed_point = (capacity * 300.0 + h * t_inf) / (capacity + h)
    assert np.abs(new.t - fixed_point).max() < 1e-11 < np.abs(pass_images[-1] - fixed_point).max()
    assert report.error_estimate == pytest.approx(np.abs(new.t - pass_images[-1]).max(), abs=1e-13)


def test_oscillating_iteration_is_not_extrapolated(monkeypatch):
    # lagged radiation alone overshoots, so each Picard change reverses the
    # last; an extrapolation along it would step away from the fixed point
    monkeypatch.setattr(tensor_solver, "MIXING_GATE", np.inf)
    plan = radiating_corners(convergence_epsilon=1e-3)
    bc = dark_boundary(290.0, t_sky=270.0)
    tight = radiating_corners(convergence_epsilon=1e-13, max_inner_iterations=5000)
    start = hg.ThermalState(t=np.full((2, 2), 300.0))
    new, report = hg.step(start, plan, bc)
    assert report.converged and report.mixed_from == 0 and report.inner_iterations > 2
    assert np.isnan(report.error_estimate)
    assert abs(new.t[0, 0] - hg.step(start, tight, bc)[0].t[0, 0]) < report.max_delta


def test_day_long_step_converges_near_the_tight_fixed_point(canonical, canonical_weather):
    grid, mats, config = canonical
    config = dataclasses.replace(config, dt=86400.0)
    tight = dataclasses.replace(config, convergence_epsilon=1e-11, max_inner_iterations=5000)
    (reference,), _ = hg.run_episode(grid, mats, tight, canonical_weather, 1)
    (state,), (report,) = hg.run_episode(grid, mats, config, canonical_weather, 1)
    assert report.converged and report.mixed_from == 1
    assert float((np.abs(state.t - reference.t) / reference.t).max()) <= 5e-6


def test_day_long_step_reports_a_diverged_iteration(canonical, canonical_weather, monkeypatch):
    # Jacobi passes lag the radiation with nothing on the diagonal, and at
    # this step length they expand
    monkeypatch.setattr(tensor_solver, "MIXING_GATE", np.inf)
    grid, mats, config = canonical
    config = dataclasses.replace(config, dt=86400.0)
    with pytest.raises(SolverError, match=r"(?s)iteration diverged.*at dt = 86400 s"):
        hg.run_episode(grid, mats, config, canonical_weather, 1)


# -----------------------------------------------------------------------------
# the per-step kernels and the fused radiation
# -----------------------------------------------------------------------------

#: The kernels a traced benchmark run wraps through ``heatgrid.tensor_solver``;
#: every step must call each of them.
STEP_KERNELS = ("shift_fields", "assemble_exterior_lw_tensor", "surface_temperatures",
                "apply_interior_lw", "scatter_interior_lw", "assemble_solar_tensors",
                "update_mass", "boundary_for_time")


@pytest.mark.parametrize("dt", [300.0, 3600.0])
def test_every_step_calls_every_traced_kernel(canonical, canonical_weather, monkeypatch, dt):
    grid, mats, config = canonical
    config = dataclasses.replace(config, dt=dt)
    steps = [0]
    seen = {name: set() for name in STEP_KERNELS}

    def counted(name, fn):
        def kernel(*args, **kwargs):
            seen[name].add(steps[0])
            return fn(*args, **kwargs)
        return kernel

    for name in STEP_KERNELS:
        owner = tensor_solver
        if name == "surface_temperatures":
            owner = tensor_solver.RadiationExchangeMatrix
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))

    def stepper(state, plan, boundary):
        steps[0] += 1
        return tensor_solver.step(state, plan, boundary)

    n = 6
    _, reports = hg.run_episode(grid, mats, config, canonical_weather, n, stepper=stepper)
    assert all(r.converged for r in reports)
    assert sum(r.inner_iterations for r in reports) > n
    # a step's boundary is assembled before its step starts; prepare may shift too
    assert seen.pop("boundary_for_time") == set(range(n))
    for name, called in seen.items():
        assert called - {0} == set(range(1, n + 1)), name


def step_radiation(plan, state, boundary, monkeypatch):
    """The long-wave ``step`` adds to the radiating cells in each pass [W], with
    the iterate of the pass: what it adds to its constant part once, plus what
    it lags at each pass's iterate."""
    environment = []
    passes = []
    exterior = tensor_solver.assemble_exterior_lw_tensor
    lagged = tensor_solver._lagged_radiation

    def recorded_exterior(*args):
        environment.append(exterior(*args))
        return environment[-1]

    def recorded_lagged(plan, positions, x):
        radiation, cubes = lagged(plan, positions, x)
        passes.append((x.copy(), radiation.copy()))
        return radiation, cubes

    monkeypatch.setattr(tensor_solver, "assemble_exterior_lw_tensor", recorded_exterior)
    monkeypatch.setattr(tensor_solver, "_lagged_radiation", recorded_lagged)
    hg.step(state, plan, boundary)
    monkeypatch.undo()
    assert len(environment) == 1 and len(passes) >= 2
    return [(x, radiation + environment[0]) for x, radiation in passes]


@pytest.mark.parametrize("case", ["canonical", "layered_sloped", "tiled"])
def test_fused_radiation_is_the_exterior_plus_the_interior_exchange(
    canonical, rng, monkeypatch, case
):
    if case == "canonical":
        grid, mats, config = canonical
    elif case == "layered_sloped":
        grid, mats, config = hg.load_building(layered_sloped_building_yaml())
    else:
        grid, mats, config = hg.load_building(tiled_building_yaml(3, 4))
    config = dataclasses.replace(config, enable_solar=False, enable_interior_mass=False)
    plan = hg.prepare(grid, mats, config)
    bc = dark_boundary(288.0, t_gnd=286.0, t_sky=265.0)
    state = hg.ThermalState(t=rng.uniform(270.0, 320.0, (grid.rows, grid.cols)))
    weights = hg.exterior_lw_weights(grid, mats)
    matrix = plan.exchange
    factors = matrix.coefficients
    surface_cells = matrix.surface_rows * grid.cols + matrix.surface_cols
    for x, radiation in step_radiation(plan, state, bc, monkeypatch):
        t = np.full(grid.rows * grid.cols, 300.0)
        t[plan.newton_cells] = x
        exterior = hg.assemble_exterior_lw_tensor(
            weights, t.reshape(grid.rows, grid.cols), bc.t_gnd, bc.t_sky, bc.t_inf
        ).reshape(-1)
        t4 = t[surface_cells] ** 4
        flux = hg.STEFAN_BOLTZMANN * (factors * (t4[None, :] - t4[:, None])).sum(axis=1)
        interior = np.bincount(surface_cells, weights=flux * matrix.areas, minlength=t.size)
        expected = exterior + interior
        assert np.count_nonzero(np.delete(expected, plan.newton_cells)) == 0
        np.testing.assert_allclose(radiation, expected[plan.newton_cells], rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    # with only the interior exchange, an isothermal field gives exactly 0
    plan = hg.prepare(grid, mats, dataclasses.replace(config, enable_exterior_lw=False))
    x = np.full(plan.newton_cells.size, 297.35)
    radiation, _ = tensor_solver._lagged_radiation(plan, plan.lw_positions.copy(), x)
    assert (radiation == 0.0).all()


@pytest.mark.parametrize("mass", [False, True], ids=["mass_off", "mass_on"])
def test_step_balance_carries_the_solar_tensors(canonical, canonical_weather, monkeypatch, mass):
    grid, mats, config = canonical
    config = dataclasses.replace(config, enable_interior_mass=mass)
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, canonical_weather)
    sunny = max(canonical_weather, key=lambda record: record.ghi).timestamp
    bc = boundary_at(canonical_weather, config.site, sunny)
    q_alpha, q_tau, q_tau_mass = hg.assemble_solar_tensors(plan.solar, bc.poa, mass)
    assert not plan.sweep_from_start  # so each step's first conduction starts from const

    starts = []
    conduction = tensor_solver._add_conduction

    def recorded(numer, start, *args):
        starts.append(start.copy())
        conduction(numer, start, *args)

    monkeypatch.setattr(tensor_solver, "_add_conduction", recorded)
    lit, _ = hg.step(state, plan, bc)
    const_lit = starts[0]
    starts.clear()
    hg.step(state, plan, dataclasses.replace(bc, poa=np.zeros(4)))
    added = const_lit - starts[0]
    expected = on_grid(plan.solar, plan.solar.cells, q_alpha) + on_grid(
        plan.solar, plan.solar.air, q_tau
    )
    assert np.count_nonzero(q_alpha) and (np.count_nonzero(q_tau) > 0) != mass
    np.testing.assert_allclose(added, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    if mass:
        assert np.count_nonzero(q_tau_mass)
        q_mass = on_grid(plan.solar, plan.solar.air, q_tau_mass)
        nodes = hg.update_mass(state.t_mass, lit.t, q_mass, plan.mass_t0, grid.z,
                               config.mass_params.k_mass)
        expected = state.t_mass.copy()
        expected.reshape(-1)[plan.air] = nodes.reshape(-1)[plan.air]
        np.testing.assert_allclose(lit.t_mass, expected, rtol=1e-12, atol=0.0)
