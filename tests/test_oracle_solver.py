import ast
import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heatgrid as hg
from heatgrid.building import (
    BuildingGrid,
    CvType,
    DIR_OFFSETS,
    MaterialField,
    SimulationConfig,
)
from heatgrid import oracle_solver
from heatgrid.tensor_solver import SolverError

from _factories import (
    boundary_at,
    dark_boundary,
    layered_sloped_building_yaml,
    padded_l_building_yaml,
    random_case,
    rooms_building_yaml,
)


def conduction_case(rng, rows=5, cols=5):
    """Ring building with loader-style symmetric face conductances."""
    cv = np.full((rows, cols), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    cell_k = rng.uniform(0.2, 1.5, (rows, cols))
    h_ext = float(rng.uniform(5.0, 15.0))
    k_face = np.zeros((4, rows, cols))
    for d, (dr, dc) in enumerate(DIR_OFFSETS):
        k = np.zeros((rows, cols))
        for r in range(rows):
            for c in range(cols):
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    a, b = cell_k[r, c], cell_k[nr, nc]
                    k[r, c] = 2.0 * a * b / (a + b)
        k_face[d] = np.where(grid.exposed_mask[d], 0.0, k)
    mats = MaterialField.for_grid(
        grid,
        k_face=k_face,
        h_face=np.where(grid.exposed_mask, h_ext, 0.0),
        heat_capacity=rng.uniform(800.0, 1000.0, (rows, cols)),
        density=rng.uniform(500.0, 2500.0, (rows, cols)),
    )
    return grid, mats


def conduction_config(**overrides):
    base = dict(
        dt=300.0,
        convergence_epsilon=1e-12,
        max_inner_iterations=50000,
        enable_interior_lw=False,
        enable_exterior_lw=False,
        enable_solar=False,
        enable_interior_mass=False,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_uniform_equilibrium_converges_in_one_sweep(rng):
    grid, mats = conduction_case(rng)
    t = np.full((5, 5), 288.0)
    state = hg.ThermalState(t=t)
    new, report = hg.oracle_step(
        state, hg.prepare(grid, mats, conduction_config(convergence_epsilon=1e-3)),
        dark_boundary(288.0),
    )
    assert report.converged and report.inner_iterations == 1
    assert np.abs(new.t - 288.0).max() < 1e-10


def test_converged_sweep_matches_dense_linear_solve(rng):
    grid, mats = conduction_case(rng)
    rows, cols = grid.rows, grid.cols
    config = conduction_config()
    t0 = rng.uniform(280.0, 310.0, (rows, cols))
    t_inf = 275.0
    state = hg.ThermalState(t=t0.copy())
    new, report = hg.oracle_step(state, hg.prepare(grid, mats, config), dark_boundary(t_inf))
    assert report.converged

    n = rows * cols
    a = np.zeros((n, n))
    b = np.zeros(n)
    capacity = mats.volumetric_capacity() * grid.u * grid.v * grid.z / config.dt
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            uu, vv = grid.u[r, c], grid.v[r, c]
            diag = capacity[r, c]
            rhs = capacity[r, c] * t0[r, c]
            for d, (dr, dc) in enumerate(DIR_OFFSETS):
                length = vv if d in (0, 2) else uu
                distance = uu if d in (0, 2) else vv
                conduct = length * grid.z * mats.k_face[d, r, c] / distance
                convect = length * grid.z * mats.h_face[d, r, c]
                diag += conduct + convect
                rhs += convect * t_inf
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    a[i, nr * cols + nc] -= conduct
                else:
                    rhs += conduct * t_inf
            a[i, i] += diag
            b[i] = rhs
    direct = np.linalg.solve(a, b).reshape(rows, cols)
    assert np.abs(new.t - direct).max() <= 1e-8


def test_sweep_order_independence(rng):
    # The plan turned 180 degrees, swept in raster order, is the plan swept in reverse.
    grid, mats = conduction_case(rng, rows=6, cols=7)
    config = conduction_config(convergence_epsilon=1e-4, max_inner_iterations=5000)
    t0 = rng.uniform(280.0, 310.0, (6, 7))
    bc = dark_boundary(276.0)
    forward, _ = hg.oracle_step(
        hg.ThermalState(t=t0.copy()), hg.prepare(grid, mats, config), bc
    )
    turned = BuildingGrid.from_cv_types(np.rot90(grid.cv_type, 2), grid.u, grid.v, grid.z)
    turned_mats = MaterialField.for_grid(
        turned,
        # east <-> west, north <-> south
        k_face=np.rot90(mats.k_face[[2, 3, 0, 1]], 2, axes=(1, 2)),
        h_face=np.rot90(mats.h_face[[2, 3, 0, 1]], 2, axes=(1, 2)),
        heat_capacity=np.rot90(mats.heat_capacity, 2),
        density=np.rot90(mats.density, 2),
    )
    backward, _ = hg.oracle_step(
        hg.ThermalState(t=np.rot90(t0, 2).copy()), hg.prepare(turned, turned_mats, config), bc
    )
    assert np.abs(forward.t - np.rot90(backward.t, 2)).max() <= 10.0 * config.convergence_epsilon


def test_oracle_agrees_with_tensor_on_full_physics(rng):
    grid, mats, config, records, q_x = random_case(rng, n_steps=3)
    snaps_t, _ = hg.run_episode(grid, mats, config, records, 3, q_x=q_x)
    snaps_o, _ = hg.run_episode(
        grid, mats, config, records, 3, stepper=hg.oracle_step, q_x=q_x
    )
    for a, b in zip(snaps_t, snaps_o):
        rel = np.abs(a.t - b.t) / np.abs(b.t)
        assert rel.max() <= 1e-5


FEATURES = ("interior_lw", "exterior_lw", "solar", "mass")
FEATURE_SETS = list(itertools.product((False, True), repeat=len(FEATURES)))


@pytest.mark.parametrize(
    ", ".join(FEATURES),
    FEATURE_SETS,
    ids=["+".join(f for f, on in zip(FEATURES, flags) if on) or "bare" for flags in FEATURE_SETS],
)
def test_solvers_agree_on_every_feature_combination(
    canonical, canonical_weather, interior_lw, exterior_lw, solar, mass
):
    # every mix of the four feature switches, stepped through both solvers on
    # three daylight steps; a tight epsilon leaves only round-off between them
    grid, mats, config = canonical
    config = dataclasses.replace(
        config, convergence_epsilon=1e-9, enable_interior_lw=interior_lw,
        enable_exterior_lw=exterior_lw, enable_solar=solar, enable_interior_mass=mass,
    )
    bc = boundary_at(canonical_weather, config.site, canonical_weather[0].timestamp)
    assert bc.poa.min() > 0.0
    snaps_t, reports = hg.run_episode(grid, mats, config, canonical_weather, 3)
    snaps_o, _ = hg.run_episode(
        grid, mats, config, canonical_weather, 3, stepper=hg.oracle_step
    )
    assert all(r.converged for r in reports)
    for a, b in zip(snaps_t, snaps_o):
        rel = np.abs(a.t - b.t) / np.abs(b.t)
        assert rel.max() <= 1e-5
        assert (a.t_mass is None) == (b.t_mass is None) == (not mass)


def test_solvers_agree_on_multilayer_walls_and_tilted_envelope():
    # double-thickness shell whose inner layer is an interior wall, plus a
    # sloped wall section: exercises conduction through both layers and
    # non-vertical view factors through both implementations
    grid, mats, config = hg.load_building(layered_sloped_building_yaml())
    inner = grid.cv_type == int(CvType.INTERIOR_WALL)
    assert inner.any() and (grid.exposed_faces[inner] == 0).all()

    weather = ("timestamp,t_air,t_gnd,t_sky,ghi,dni,dhi\n-,K,K,K,W/m2,W/m2,W/m2\n"
               "2021-08-10T11:00:00Z,301.0,299.0,279.0,700.0,620.0,120.0\n")
    records = hg.load_weather(weather)
    snaps_t, _ = hg.run_episode(grid, mats, config, records, 5)
    snaps_o, _ = hg.run_episode(grid, mats, config, records, 5, stepper=hg.oracle_step)
    for a, b in zip(snaps_t, snaps_o):
        rel = np.abs(a.t - b.t) / np.abs(b.t)
        assert rel.max() <= 1e-5


def test_solvers_agree_on_a_padded_l_shaped_footprint(canonical_weather):
    # boundary padding around a non-rectangular footprint: both solvers pin
    # the padding to ambient and expose the envelope faces that touch it
    grid, mats, config = hg.load_building(padded_l_building_yaml())
    padding = grid.cv_type == int(CvType.BOUNDARY)
    inside = np.argwhere(~padding)
    (r0, c0), (r1, c1) = inside.min(axis=0), inside.max(axis=0)
    assert padding[r0 : r1 + 1, c0 : c1 + 1].any()  # the footprint is not its bounding box
    assert grid.n_zones == 2

    tensor, reports = hg.run_episode(grid, mats, config, canonical_weather, 4)
    oracle, _ = hg.run_episode(grid, mats, config, canonical_weather, 4, stepper=hg.oracle_step)
    assert all(r.converged for r in reports)
    t_air = canonical_weather[0].t_air
    for a, b in zip(tensor, oracle):
        assert (a.t[padding] == t_air).all() and (b.t[padding] == t_air).all()
        assert float((np.abs(a.t - b.t) / np.abs(b.t)).max()) <= 1e-5


def test_energy_audit_balances_on_tight_convergence(rng):
    grid, mats, config, records, q_x = random_case(rng, n_steps=1, epsilon=1e-10)
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, records)
    bc = boundary_at(records, config.site, state.sim_clock, q_x=q_x)
    new, report = hg.oracle_step(state, plan, bc)
    assert report.converged
    audit = hg.energy_audit(state, new, plan, bc)
    assert audit["rel_imbalance"] <= 1e-6


def test_audit_detects_tampered_field(rng):
    grid, mats, config, records, _ = random_case(rng, n_steps=1, epsilon=1e-10)
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, records)
    bc = boundary_at(records, config.site, state.sim_clock)
    new, _ = hg.oracle_step(state, plan, bc)
    broken = hg.ThermalState(t=new.t + 0.5, t_mass=new.t_mass)
    audit = hg.energy_audit(state, broken, plan, bc)
    assert audit["rel_imbalance"] > 1e-6


def test_audit_rejects_bad_states_by_name(canonical, canonical_weather):
    # the mass coupling must not drop out of the balance unnoticed, and a
    # mis-shaped field must not escape as an IndexError
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = boundary_at(canonical_weather, config.site, state.sim_clock)
    new, _ = hg.oracle_step(state, plan, bc)
    with pytest.raises(SolverError, match="state t_mass is missing"):
        hg.energy_audit(hg.ThermalState(t=state.t), new, plan, bc)
    with pytest.raises(SolverError, match=r"state shape \(11, 23\) does not match grid"):
        hg.energy_audit(state, hg.ThermalState(t=new.t[1:]), plan, bc)
    short = hg.ThermalState(t=state.t[:, 1:], t_mass=state.t_mass[:, 1:])
    with pytest.raises(SolverError, match=r"state shape \(12, 22\) does not match grid"):
        hg.energy_audit(short, new, plan, bc)
    with pytest.raises(SolverError, match=r"boundary q_x shape \(23,\) != grid shape \(12, 23\)"):
        hg.energy_audit(state, new, plan, dataclasses.replace(bc, q_x=np.zeros(23)))


def test_energy_audit_reads_capacity_once(canonical, canonical_weather, monkeypatch):
    # a full-grid product per cell made the audit quadratic in the CV count
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = boundary_at(canonical_weather, config.site, state.sim_clock)
    new, _ = hg.oracle_step(state, plan, bc)
    calls = []
    capacity = MaterialField.volumetric_capacity

    def counting(self):
        calls.append(1)
        return capacity(self)

    monkeypatch.setattr(MaterialField, "volumetric_capacity", counting)
    hg.energy_audit(state, new, plan, bc)
    assert len(calls) <= 1


def test_oracle_imports_no_kernel():
    # the oracle's independence, by its import list: the standard library,
    # numpy and data types only; no mass module and no vectorized kernel
    tree = ast.parse(Path(oracle_solver.__file__).read_text(encoding="utf-8"))
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imports.setdefault(module, set()).update(alias.name for alias in node.names)
    assert imports == {
        "__future__": {"annotations"},
        "math": None,
        "time": None,
        "datetime": {"timedelta"},
        "typing": {"List", "Tuple"},
        "numpy": None,
        ".building": {"CvType"},
        ".conditions": {"StepBoundary"},
        ".radiation": {"RadiationExchangeMatrix"},
        ".tensor_solver": {"Plan", "SolverError", "StepReport", "ThermalState"},
    }


@settings(max_examples=10, deadline=None)
@given(
    row_sizes=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    col_sizes=st.lists(st.integers(2, 5), min_size=2, max_size=3, unique=True),
    heat=st.floats(0.0, 500.0),
    t0=st.floats(285.0, 300.0),
)
def test_multi_room_plans_agree_with_oracle(canonical_weather, row_sizes, col_sizes, heat, t0):
    # rooms of unequal sizes give exchange blocks of several sizes
    grid, mats, config = hg.load_building(rooms_building_yaml(row_sizes, col_sizes))
    config = dataclasses.replace(
        config, convergence_epsilon=1e-5, max_inner_iterations=5000, initial_temperature=t0
    )
    q_x = np.zeros((grid.rows, grid.cols))
    q_x[1, 1] = heat
    tensor, _ = hg.run_episode(grid, mats, config, canonical_weather, 2, q_x=q_x)
    oracle, _ = hg.run_episode(
        grid, mats, config, canonical_weather, 2, stepper=hg.oracle_step, q_x=q_x
    )
    for a, b in zip(tensor, oracle):
        assert float((np.abs(a.t - b.t) / np.abs(b.t)).max()) <= 1e-5


@settings(max_examples=10, deadline=None)
@given(
    row_sizes=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    col_sizes=st.lists(st.integers(2, 5), min_size=2, max_size=3, unique=True),
    heat=st.floats(0.0, 500.0),
    t0=st.floats(285.0, 300.0),
)
def test_multi_room_plans_agree_with_oracle_over_predicted_steps(
    canonical_weather, row_sizes, col_sizes, heat, t0
):
    # at the bundled dt the steps run plain Picard, so every step after the
    # first starts from a prediction and returns an extrapolation, and any
    # stopping error is carried on in the stored heat
    grid, mats, config = hg.load_building(rooms_building_yaml(row_sizes, col_sizes))
    config = dataclasses.replace(config, initial_temperature=t0)
    q_x = np.zeros((grid.rows, grid.cols))
    q_x[1, 1] = heat
    tensor, reports = hg.run_episode(grid, mats, config, canonical_weather, 8, q_x=q_x)
    oracle, _ = hg.run_episode(
        grid, mats, config, canonical_weather, 8, stepper=hg.oracle_step, q_x=q_x
    )
    assert all(r.converged for r in reports)
    for a, b in zip(tensor, oracle):
        assert float((np.abs(a.t - b.t) / np.abs(b.t)).max()) <= 1e-5


@settings(max_examples=10, deadline=None)
@given(
    row_sizes=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    col_sizes=st.lists(st.integers(2, 5), min_size=2, max_size=3, unique=True),
    heat=st.floats(0.0, 500.0),
    t0=st.floats(285.0, 300.0),
    dt=st.sampled_from([1200.0, 3600.0]),
)
def test_multi_room_plans_agree_with_oracle_at_hourly_steps(
    canonical_weather, row_sizes, col_sizes, heat, t0, dt
):
    # long steps contract slowly, so the solvers agree only at a tight epsilon
    grid, mats, config = hg.load_building(rooms_building_yaml(row_sizes, col_sizes))
    config = dataclasses.replace(
        config, dt=dt, convergence_epsilon=1e-9, max_inner_iterations=5000,
        initial_temperature=t0,
    )
    q_x = np.zeros((grid.rows, grid.cols))
    q_x[1, 1] = heat
    tensor, _ = hg.run_episode(grid, mats, config, canonical_weather, 2, q_x=q_x)
    oracle, _ = hg.run_episode(
        grid, mats, config, canonical_weather, 2, stepper=hg.oracle_step, q_x=q_x
    )
    for a, b in zip(tensor, oracle):
        assert float((np.abs(a.t - b.t) / np.abs(b.t)).max()) <= 1e-5
