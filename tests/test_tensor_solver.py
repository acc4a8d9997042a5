import dataclasses

import numpy as np
import pytest
import yaml

import heatgrid as hg
from heatgrid import tensor_solver
from heatgrid.building import BuildingGrid, CvType, MaterialField, SimulationConfig
from heatgrid.conditions import StepBoundary
from heatgrid.solar import PoaIrradiance
from heatgrid.tensor_solver import SolverError

from _factories import layered_sloped_building_yaml, tiled_building_yaml
from conftest import constant_weather


def dark_boundary(t_inf, t_gnd=None, t_sky=None, q_x=None):
    return StepBoundary(
        t_inf=t_inf,
        t_gnd=t_inf if t_gnd is None else t_gnd,
        t_sky=t_inf if t_sky is None else t_sky,
        poa=PoaIrradiance.dark(),
        q_x=q_x,
    )


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


def random_raw_case(rng, rows, cols):
    """Raw grid and materials, every cell live (no structural validation)."""
    cv = np.full((rows, cols), int(CvType.INTERIOR_AIR))
    grid = BuildingGrid.from_cv_types(
        cv, float(rng.uniform(0.4, 1.0)), float(rng.uniform(0.4, 1.0)), 3.0
    )
    mats = MaterialField.zeros(rows, cols)
    mats.k_face = rng.uniform(0.05, 2.0, (4, rows, cols))
    mats.h_face = rng.uniform(0.0, 12.0, (4, rows, cols))
    mats.heat_capacity = rng.uniform(700.0, 1100.0, (rows, cols))
    mats.density = rng.uniform(1.0, 2500.0, (rows, cols))
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
    grid, mats = random_raw_case(rng, 4, 4)
    mats.k_face[:, 2, 1] = 0.0
    mats.h_face[:, 2, 1] = 0.0
    mats.density[2, 1] = 0.0
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
    assert hg.prepare(grid, mats, config, built).exchange is built


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
    mats = MaterialField.zeros(5, 5)
    mats.k_face[:, 1:-1, 1:-1] = 0.8
    mats.h_face[:, grid.exposed_mask.any(axis=0)] = 10.0
    mats.heat_capacity[:] = 900.0
    mats.density[:] = 1500.0
    mats.density[cv == int(CvType.BOUNDARY)] = 0.0
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
    mats = MaterialField.zeros(rows, cols)
    mats.k_face[:] = 0.6
    for d in range(4):
        mats.k_face[d][grid.exposed_mask[d]] = 0.0
        mats.h_face[d][grid.exposed_mask[d]] = 8.0
    mats.heat_capacity[:] = 1000.0
    mats.density[:] = 100.0
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
        assert np.array_equal(a.mass.t_mass, b.mass.t_mass)


@pytest.mark.parametrize("layered", [False, True], ids=["canonical", "layered_sloped"])
def test_compact_exterior_term_equals_full_grid(canonical, rng, layered):
    # the plan keeps only the cells with a non-zero weight, inner envelope
    # layers included; scattered back, their term is the full-grid one, bit for bit
    grid, mats, config = hg.load_building(layered_sloped_building_yaml()) if layered else canonical
    plan = hg.prepare(grid, mats, config)
    weights = hg.exterior_lw_weights(grid, mats, config.envelope_layer_divisor)
    assert np.array_equal(plan.exterior_cells, np.flatnonzero(weights.any(axis=0)))
    inner = np.flatnonzero(grid.is_envelope() & (grid.exposed_faces == 0))
    assert inner.size > 0 if layered else inner.size == 0
    assert np.isin(inner, plan.exterior_cells).all()

    t = rng.uniform(270.0, 320.0, (grid.rows, grid.cols))
    full = hg.assemble_exterior_lw_tensor(weights, t, 288.0, 262.0, 295.0)
    scattered = np.zeros(grid.rows * grid.cols)
    scattered[plan.exterior_cells] = hg.assemble_exterior_lw_tensor(
        plan.exterior_weights, t.reshape(-1)[plan.exterior_cells], 288.0, 262.0, 295.0
    )
    assert np.array_equal(scattered.reshape(t.shape), full)


def test_oracle_reads_no_array_the_plan_derives(canonical, canonical_weather):
    # NaN in every derived float array: the oracle must not notice, the
    # vectorized step must fail
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
        "g", "convection", "capacity", "coupling", "denom", "exterior_weights",
        "solar.absorptivity", "solar.areas", "solar.transmissivity", "solar.window_areas",
        "solar.plan_area",
    }
    poisoned_plan = dataclasses.replace(plan, **poison)
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = hg.boundary_for_time(canonical_weather, config.site, state.sim_clock)
    clean, _ = hg.oracle_step(state, plan, bc)
    dirty, _ = hg.oracle_step(state, poisoned_plan, bc)
    assert np.array_equal(clean.t, dirty.t)
    assert np.array_equal(clean.mass.t_mass, dirty.mass.t_mass)
    with pytest.raises(SolverError, match="iteration 1: temperature nan"):
        hg.step(state, poisoned_plan, bc)


# -----------------------------------------------------------------------------
# episodes
# -----------------------------------------------------------------------------

def test_episode_rejects_zero_steps(canonical, canonical_weather):
    grid, mats, config = canonical
    with pytest.raises(ValueError, match="n_steps"):
        hg.run_episode(grid, mats, config, canonical_weather, 0)


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
    with pytest.raises(SolverError, match="step 25"):
        hg.run_episode(grid, mats, config, [first, second], 40)  # 40 * 300 s > 2 h


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
    bc = hg.boundary_for_time(canonical_weather, config.site, state.sim_clock, q_x=q_x)
    with pytest.raises(SolverError, match=rf"{first_pass}: temperature nan at cell \(5, 5\)"):
        stepper(state, plan, bc)


@pytest.mark.parametrize("stepper", [hg.step, hg.oracle_step], ids=["tensor", "oracle"])
@pytest.mark.parametrize("row", [-1, 17])
def test_exchange_surface_off_grid_raises_naming_it(canonical, canonical_weather, stepper, row):
    # a loaded matrix may name any cell; one off the grid must not wrap or
    # escape as an IndexError
    grid, mats, config = canonical
    built = hg.build_exchange_matrix_2d(grid, mats)
    surfaces = list(built.surfaces)
    _r, c, d = surfaces[3]
    surfaces[3] = (row, c, d)
    exchange = hg.RadiationExchangeMatrix.from_dense(built.coefficients, surfaces, built.areas)
    with pytest.raises(
        SolverError, match=rf"exchange surface 3 at cell \({row}, {c}\) lies off the 12x23 grid"
    ):
        hg.run_episode(
            grid, mats, config, canonical_weather, 1, exchange=exchange, stepper=stepper
        )


def test_non_finite_state_rejected_naming_cell(rng):
    grid, mats = random_raw_case(rng, 4, 4)
    t = np.full((4, 4), 290.0)
    t[1, 3] = np.nan
    with pytest.raises(SolverError, match=r"state: temperature nan at cell \(1, 3\)"):
        hg.step(hg.ThermalState(t=t), hg.prepare(grid, mats, bare_config()), dark_boundary(290.0))


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
    grid, mats, config = canonical
    section, _, name = key.rpartition(".")
    if section:
        part = dataclasses.replace(getattr(config, section), **{name: value})
        config = dataclasses.replace(config, **{section: part})
    else:
        config = dataclasses.replace(config, **{name: value})
    message = rf"{key}={value} must be finite"
    with pytest.raises(ValueError, match=message):
        hg.prepare(grid, mats, config)
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


# -----------------------------------------------------------------------------
# gated Anderson mixing
# -----------------------------------------------------------------------------

def one_radiating_cell(**overrides):
    """One live cell that stores heat and exchanges long-wave with sky and ground.

    No conduction or convection, so exterior long-wave is the only term that
    depends on the iterate, and every residual is a multiple of one unit
    vector. The exchange area is set directly: the loader's envelope rules
    allow at most two exposed faces, and a one-cell grid exposes four.
    """
    grid = BuildingGrid.from_cv_types(np.array([[int(CvType.INTERIOR_WALL)]]), 0.5, 0.5, 3.0)
    grid.delta_x[:] = 2.0
    mats = MaterialField.zeros(1, 1)
    mats.emissivity[:] = 0.9
    mats.heat_capacity[:] = 1000.0
    mats.density[:] = 200.0
    settings = dict(dt=3600.0, enable_exterior_lw=True, convergence_epsilon=1e-12)
    settings.update(overrides)
    return hg.prepare(grid, mats, bare_config(**settings))


def test_small_steps_never_mix(canonical, canonical_weather):
    grid, mats, config = canonical
    _, reports = hg.run_episode(grid, mats, config, canonical_weather, 250)
    assert all(r.converged and r.mixed_from == 0 for r in reports)
    # the plain Picard count of the canonical day, unchanged by the gate
    assert sum(r.inner_iterations for r in reports) == 1172


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
    assert all(r.converged and r.mixed_from >= 2 for r in reports)
    assert np.mean([r.inner_iterations for r in reports]) <= 12.0
    assert distance(mixed) <= 2e-5
    monkeypatch.setattr(tensor_solver, "MIXING_GATE", np.inf)
    plain, reports = hg.run_episode(grid, mats, config, canonical_weather, 24)
    assert all(r.mixed_from == 0 for r in reports)
    assert np.mean([r.inner_iterations for r in reports]) > 18.0
    assert distance(plain) > 2e-5


def test_rank_one_histories_converge(monkeypatch):
    histories = []  # (differences held, mix written) per call
    mix = tensor_solver._AndersonHistory.mix

    def recording_mix(self, *args):
        written = mix(self, *args)
        histories.append((self.count, written))
        return written

    monkeypatch.setattr(tensor_solver._AndersonHistory, "mix", recording_mix)
    plan = one_radiating_cell()
    bc = dark_boundary(290.0, t_sky=270.0)
    new, report = hg.step(hg.ThermalState(t=np.array([[300.0]])), plan, bc)
    contraction = 4.0 * plan.exterior_weights.sum() * new.t[0, 0] ** 3 / plan.denom[0, 0]
    assert contraction > 0.5
    assert report.converged and report.mixed_from == 2
    # every history of two or more differences is rank one, and each still mixes
    assert any(count >= 2 for count, _ in histories)
    assert all(written for _, written in histories)
    monkeypatch.setattr(tensor_solver, "MIXING_GATE", np.inf)
    plain, plain_report = hg.step(hg.ThermalState(t=np.array([[300.0]])), plan, bc)
    assert plain_report.converged and plain_report.inner_iterations > 4 * report.inner_iterations
    assert abs(new.t[0, 0] - plain.t[0, 0]) < 1e-9


def test_budget_spent_while_mixing_is_reported_not_raised(monkeypatch):
    images = []  # every Picard image the step checks
    check = tensor_solver._check_temperatures

    def recording_check(t, context):
        if context.startswith("iteration"):
            images.append(t.copy())
        check(t, context)

    monkeypatch.setattr(tensor_solver, "_check_temperatures", recording_check)
    plan = one_radiating_cell(max_inner_iterations=4)
    new, report = hg.step(
        hg.ThermalState(t=np.array([[300.0]])), plan, dark_boundary(290.0, t_sky=270.0)
    )
    assert not report.converged
    assert report.inner_iterations == 4 and report.mixed_from == 2
    assert report.max_delta >= plan.config.convergence_epsilon
    # the step returns its last Picard image, not the mix made from it
    assert len(images) == 4 and np.array_equal(new.t, images[-1])
