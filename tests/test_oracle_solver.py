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
from heatgrid.conditions import StepBoundary
from heatgrid.solar import PoaIrradiance
from heatgrid.tensor_solver import SolverError

from _factories import layered_sloped_building_yaml, random_case, rooms_building_yaml


def dark_boundary(t_inf):
    return StepBoundary(
        t_inf=t_inf, t_gnd=t_inf, t_sky=t_inf, poa=PoaIrradiance.dark(), q_x=None
    )


def conduction_case(rng, rows=5, cols=5):
    """Ring building with loader-style symmetric face conductances."""
    cv = np.full((rows, cols), int(CvType.EXTERIOR_WALL))
    cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
    grid = BuildingGrid.from_cv_types(cv, 0.5, 0.5, 3.0)
    mats = MaterialField.zeros(rows, cols)
    cell_k = rng.uniform(0.2, 1.5, (rows, cols))
    h_ext = float(rng.uniform(5.0, 15.0))
    for d, (dr, dc) in enumerate(DIR_OFFSETS):
        k = np.zeros((rows, cols))
        for r in range(rows):
            for c in range(cols):
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    a, b = cell_k[r, c], cell_k[nr, nc]
                    k[r, c] = 2.0 * a * b / (a + b)
        mats.k_face[d] = np.where(grid.exposed_mask[d], 0.0, k)
        mats.h_face[d] = np.where(grid.exposed_mask[d], h_ext, 0.0)
    mats.heat_capacity = rng.uniform(800.0, 1000.0, (rows, cols))
    mats.density = rng.uniform(500.0, 2500.0, (rows, cols))
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
    grid, mats = conduction_case(rng, rows=6, cols=7)
    config = conduction_config(convergence_epsilon=1e-4, max_inner_iterations=5000)
    t0 = rng.uniform(280.0, 310.0, (6, 7))
    bc = dark_boundary(276.0)
    forward, _ = hg.oracle_step(
        hg.ThermalState(t=t0.copy()), hg.prepare(grid, mats, config), bc
    )
    backward, _ = hg.oracle_step(
        hg.ThermalState(t=t0.copy()),
        hg.prepare(grid, mats, config), bc, reverse_sweep=True,
    )
    assert np.abs(forward.t - backward.t).max() <= 10.0 * config.convergence_epsilon


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
    bc = hg.boundary_for_time(canonical_weather, config.site, canonical_weather[0].timestamp)
    assert min(bc.poa.g_ts.values()) > 0.0
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
    # double-thickness shell with layer divisor 2 plus a sloped wall section:
    # exercises the inner-envelope flux rule and non-vertical view factors
    # through both implementations
    grid, mats, config = hg.load_building(layered_sloped_building_yaml())
    inner = grid.is_envelope() & (grid.exposed_faces == 0)
    assert inner.sum() > 0  # the second wall layer really is unexposed

    weather = ("timestamp,t_air,t_gnd,t_sky,ghi,dni,dhi\n-,K,K,K,W/m2,W/m2,W/m2\n"
               "2021-08-10T11:00:00Z,301.0,299.0,279.0,700.0,620.0,120.0\n")
    records = hg.load_weather(weather)
    snaps_t, _ = hg.run_episode(grid, mats, config, records, 5)
    snaps_o, _ = hg.run_episode(grid, mats, config, records, 5, stepper=hg.oracle_step)
    for a, b in zip(snaps_t, snaps_o):
        rel = np.abs(a.t - b.t) / np.abs(b.t)
        assert rel.max() <= 1e-5


def test_energy_audit_balances_on_tight_convergence(rng):
    grid, mats, config, records, q_x = random_case(rng, n_steps=1, epsilon=1e-10)
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, records)
    bc = hg.boundary_for_time(records, config.site, state.sim_clock, q_x=q_x)
    new, report = hg.oracle_step(state, plan, bc)
    assert report.converged
    audit = hg.energy_audit(state, new, plan, bc)
    assert audit["rel_imbalance"] <= 1e-6


def test_audit_detects_tampered_field(rng):
    grid, mats, config, records, _ = random_case(rng, n_steps=1, epsilon=1e-10)
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, records)
    bc = hg.boundary_for_time(records, config.site, state.sim_clock)
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
    bc = hg.boundary_for_time(canonical_weather, config.site, state.sim_clock)
    new, _ = hg.oracle_step(state, plan, bc)
    with pytest.raises(SolverError, match="state t_mass is missing"):
        hg.energy_audit(hg.ThermalState(t=state.t), new, plan, bc)
    with pytest.raises(SolverError, match=r"state shape \(11, 23\) does not match grid"):
        hg.energy_audit(state, hg.ThermalState(t=new.t[1:]), plan, bc)


def test_energy_audit_reads_capacity_once(canonical, canonical_weather, monkeypatch):
    # a full-grid product per cell made the audit quadratic in the CV count
    grid, mats, config = canonical
    plan = hg.prepare(grid, mats, config)
    state = hg.make_initial_state(grid, config, canonical_weather)
    bc = hg.boundary_for_time(canonical_weather, config.site, state.sim_clock)
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
def test_multi_room_plans_agree_with_oracle_at_hourly_steps(
    canonical_weather, row_sizes, col_sizes, heat, t0
):
    # hourly steps contract slowly enough that the tensor solver mixes
    grid, mats, config = hg.load_building(rooms_building_yaml(row_sizes, col_sizes))
    config = dataclasses.replace(
        config, dt=3600.0, convergence_epsilon=1e-9, max_inner_iterations=5000,
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
