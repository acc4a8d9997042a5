"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even when everything is green).
"""

import dataclasses

import numpy as np

import heatgrid as hg
from heatgrid.building import BuildingGrid, CvType, MaterialField
from heatgrid.cli import bench_solvers

from _factories import boundary_at, dark_boundary, facade_poa, on_grid, random_case
from conftest import constant_weather
from test_tensor_solver import bare_config, baseline_update, random_raw_case


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -----------------------------------------------------------------------------
# 1. oracle equivalence at validation scale
# -----------------------------------------------------------------------------

def test_oracle_equivalence_at_validation_scale(canonical, canonical_weather):
    grid, mats, config = canonical
    assert grid.rows * grid.cols == 276
    assert config.dt == 300.0 and config.convergence_epsilon == 0.001
    assert config.enable_interior_lw and config.enable_exterior_lw
    assert config.enable_solar and config.enable_interior_mass

    snaps_t, reps_t = hg.run_episode(grid, mats, config, canonical_weather, 10)
    snaps_o, reps_o = hg.run_episode(
        grid, mats, config, canonical_weather, 10, stepper=hg.oracle_step
    )
    assert all(r.converged for r in reps_t + reps_o)
    worst = 0.0
    for a, b in zip(snaps_t, snaps_o):
        rel = float((np.abs(a.t - b.t) / np.abs(b.t)).max())
        worst = max(worst, rel)
        assert rel <= 1e-5
    _report(
        "oracle equivalence, 276-CV two-zone plan, 10 steps, all features",
        worst <= 1e-5,
        f"max per-CV rel diff {worst:.3e} <= 1e-5",
    )


# -----------------------------------------------------------------------------
# 2. randomized oracle equivalence
# -----------------------------------------------------------------------------

def test_randomized_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(50):
        grid, mats, config, records, q_x = random_case(rng, n_steps=5, epsilon=1e-5)
        snaps_t, _ = hg.run_episode(grid, mats, config, records, 5, q_x=q_x)
        snaps_o, _ = hg.run_episode(
            grid, mats, config, records, 5, stepper=hg.oracle_step, q_x=q_x
        )
        for a, b in zip(snaps_t, snaps_o):
            rel = float((np.abs(a.t - b.t) / np.abs(b.t)).max())
            worst = max(worst, rel)
            assert rel <= 1e-5, f"case {case}: rel diff {rel:.3e}"
    _report(
        "randomized oracle equivalence, 50 buildings <= 8x8, 5 steps each",
        worst <= 1e-5,
        f"worst per-CV rel diff {worst:.3e} <= 1e-5",
    )


# -----------------------------------------------------------------------------
# 3. speedup direction
# -----------------------------------------------------------------------------

def test_tensorized_solver_is_faster(canonical, canonical_weather):
    grid, mats, config = canonical
    results, _ = bench_solvers(grid, mats, config, canonical_weather, 10, repeats=3)
    tensor = results["tensor"].total_time
    iterative = results["iterative"].total_time
    speedup = iterative / tensor
    _report(
        "speedup direction on the validation plan (10 steps, best of 3)",
        tensor < iterative and speedup >= 2.0,
        f"iterative {iterative:.3f}s / tensorized {tensor:.3f}s = {speedup:.2f}x >= 2x",
    )


# -----------------------------------------------------------------------------
# 4. reduction to the bare conduction-convection update
# -----------------------------------------------------------------------------

def test_reduction_to_bare_update():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
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
        rel = float((np.abs(new.t - direct) / np.abs(direct)).max())
        worst = max(worst, rel)
        assert rel <= 1e-12
    _report(
        "single disabled-features iteration equals the bare update, 100 fields",
        worst <= 1e-12,
        f"worst rel diff {worst:.3e} <= 1e-12",
    )


# -----------------------------------------------------------------------------
# 5. view-factor identity
# -----------------------------------------------------------------------------

def test_view_factor_identity_suite():
    rng = np.random.default_rng(13)
    tilts = rng.uniform(0.0, 180.0, 1000)
    vf = hg.view_factors(tilts)
    identity = vf.f_gnd + vf.beta * vf.f_sky + vf.f_air
    worst = float(np.abs(identity - 1.0).max())
    vertical = hg.view_factors(90.0)
    exact = vertical.f_gnd == 0.5 and vertical.f_sky == 0.5
    _report(
        "view-factor identity over 1000 tilts plus exact vertical split",
        worst <= 1e-12 and exact,
        f"max |F_gnd + beta F_sky + F_air - 1| = {worst:.3e}; F_gnd(90)=F_sky(90)=0.5",
    )


# -----------------------------------------------------------------------------
# 6. equilibrium fixed point
# -----------------------------------------------------------------------------

def test_equilibrium_fixed_point_both_solvers(canonical):
    grid, mats, config = canonical
    t0 = 295.0
    records = constant_weather(t_air=t0, t_gnd=t0, t_sky=t0)
    plan = hg.prepare(grid, mats, config)
    worst = 0.0
    for stepper in (hg.step, hg.oracle_step):
        state = hg.make_initial_state(
            grid, dataclasses.replace(config, initial_temperature=t0), records
        )
        for _ in range(100):
            bc = boundary_at(records, config.site, state.sim_clock)
            new, _ = stepper(state, plan, bc)
            worst = max(worst, float(np.abs(new.t - state.t).max()))
            state = new
    _report(
        "isothermal dark configuration is a fixed point for 100 steps, both solvers",
        worst <= 1e-9,
        f"worst per-step change {worst:.3e} K <= 1e-9 K",
    )


# -----------------------------------------------------------------------------
# 7. energy audit
# -----------------------------------------------------------------------------

def test_energy_audit_on_random_configurations():
    rng = np.random.default_rng(17)
    worst = 0.0
    for case in range(20):
        grid, mats, config, records, q_x = random_case(rng, n_steps=1, epsilon=1e-10)
        plan = hg.prepare(grid, mats, config)
        state = hg.make_initial_state(grid, config, records)
        bc = boundary_at(records, config.site, state.sim_clock, q_x=q_x)
        new, report = hg.oracle_step(state, plan, bc)
        assert report.converged
        audit = hg.energy_audit(state, new, plan, bc)
        worst = max(worst, audit["rel_imbalance"])
        assert audit["rel_imbalance"] <= 1e-6, f"case {case}"
    _report(
        "per-step energy audit on 20 random configurations",
        worst <= 1e-6,
        f"worst relative imbalance {worst:.3e} <= 1e-6",
    )


# -----------------------------------------------------------------------------
# 8. mass-node limits
# -----------------------------------------------------------------------------

def test_mass_node_limits():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(200):
        t = float(rng.uniform(260.0, 320.0))
        t0 = float(rng.uniform(1e-3, 1e5))
        k = float(rng.uniform(0.3, 5.0))
        z = float(rng.uniform(2.0, 4.0))
        q = float(rng.uniform(0.0, 400.0))

        # fixed point: no source and node already at air temperature
        fixed = hg.update_mass(np.array([t]), np.array([t]), np.array([0.0]), t0, z, k)
        worst = max(worst, abs(fixed[0] - t))

        # vanishing temporal parameter: node tracks T + q z / k
        steady = hg.update_mass(np.array([t - 30.0]), np.array([t]), np.array([q]), 0.0, z, k)
        expected = t + q * z / k
        worst = max(worst, abs(steady[0] - expected) / max(abs(expected), 1.0))
    _report(
        "mass update fixed point and vanishing-t0 steady limit, randomized scalars",
        worst <= 1e-10,
        f"worst deviation {worst:.3e} <= 1e-10",
    )


# -----------------------------------------------------------------------------
# 9. solar conservation
# -----------------------------------------------------------------------------

def test_solar_conservation_exact():
    rng = np.random.default_rng(23)
    worst = 0.0
    for case in range(20):
        rows = int(rng.integers(4, 9))
        cols = int(rng.integers(4, 9))
        cv = np.full((rows, cols), int(CvType.EXTERIOR_WALL))
        cv[1:-1, 1:-1] = int(CvType.INTERIOR_AIR)
        ring = [(0, c) for c in range(1, cols - 1)]
        ring += [(rows - 1, c) for c in range(1, cols - 1)]
        ring += [(r, 0) for r in range(1, rows - 1)]
        ring += [(r, cols - 1) for r in range(1, rows - 1)]
        picks = rng.choice(len(ring), size=int(rng.integers(1, len(ring) // 2 + 1)),
                           replace=False)
        for i in picks:
            cv[ring[i]] = int(CvType.WINDOW)
        cell = float(rng.uniform(0.4, 1.0))
        grid = BuildingGrid.from_cv_types(cv, cell, cell, float(rng.uniform(2.5, 3.5)))
        absorptivity = rng.uniform(0.2, 0.7)
        window = cv == int(CvType.WINDOW)
        transmissivity = rng.uniform(0.4, 0.75)
        mats = MaterialField.for_grid(
            grid,
            heat_capacity=1000.0,
            density=1.0,
            # a window absorbs at most what it does not transmit
            absorptivity=np.where(window, min(absorptivity, 1.0 - transmissivity), absorptivity),
            transmissivity=np.where(window, transmissivity, 0.0),
        )
        poa = facade_poa(**{o: float(rng.uniform(0.0, 900.0)) for o in
                            ("north", "east", "south", "west")})
        mass_enabled = bool(rng.integers(0, 2))
        basis = hg.solar_basis(grid, mats)
        _qa, q_tau, q_tau_mass = hg.assemble_solar_tensors(basis, poa, mass_enabled)
        q_tau, q_tau_mass = on_grid(basis, basis.air, q_tau), on_grid(basis, basis.air, q_tau_mass)

        # independent accounting, grouped per zone in window order with the
        # implementation's multiplication association: bitwise comparable
        zone_ref = np.zeros(grid.n_zones)
        for (r, c), zone in grid.window_zone.items():
            acc = 0.0
            for d in range(4):
                if grid.exposed_mask[d, r, c]:
                    length = grid.v[r, c] if d in (0, 2) else grid.u[r, c]
                    area = length * grid.z
                    acc += mats.transmissivity[r, c] * poa[d] * area
            zone_ref[zone] += acc
        reference_total = float(zone_ref.sum())

        deposited = q_tau_mass * (grid.u * grid.v) if mass_enabled else q_tau
        for zone in range(grid.n_zones):
            members = grid.zone_id == zone
            stored = np.unique(q_tau_mass[members] if mass_enabled else q_tau[members])
            assert stored.size == 1  # uniform split, bit-identical shares
            share = zone_ref[zone] / members.sum()
            if mass_enabled:  # stored as flux density over the cell plan area
                assert stored[0] == share / (grid.u[members][0] * grid.v[members][0])
            else:
                assert stored[0] == share

        total = float(deposited.sum())
        err = abs(total - reference_total) / max(reference_total, 1e-30)
        worst = max(worst, err)
        assert err <= 1e-14, f"case {case}"
    _report(
        "transmitted solar power conserved on 20 random window layouts",
        worst <= 1e-14,
        f"bitwise per-zone shares; total reassembly error {worst:.3e} <= 1e-14",
    )
