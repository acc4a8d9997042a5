"""
Node-by-node iterative reference solver.

This module re-derives every energy-balance term as scalar arithmetic and
sweeps the grid cell by cell, Gauss-Seidel style, reusing the freshest
neighbor values within a sweep. Radiative terms are recomputed once per
sweep from the temperatures at the start of that sweep, the same lagging
rule the vectorized solver applies per iteration, so both converge to the
same fixed point.

It deliberately shares no numerical kernels with the vectorized solver;
only data types, grid geometry, and configuration are common. From a
``Plan`` it reads the inputs alone (grid, materials, config and exchange
matrix), never an array the plan derives from them. That independence is
what makes agreement between the two solvers meaningful, so keep this
implementation plain: scalar loops, no vectorization, no shortcuts
borrowed from the other module.
"""

from __future__ import annotations

import math
import time
from datetime import timedelta
from typing import List, Tuple

import numpy as np

from .building import CvType
from .conditions import StepBoundary
from .radiation import RadiationExchangeMatrix
from .tensor_solver import Plan, SolverError, StepReport, ThermalState

_SIGMA = 5.670374419e-8  # W/(m^2 K^4)

# Direction order east, north, west, south; matches the grid's face fields.
_OFFSETS = ((0, 1), (-1, 0), (0, -1), (1, 0))


def _scalar_view_weights(tilt: float) -> Tuple[float, float, float]:
    """(F_gnd, beta * F_sky, F_air) for one surface tilt in degrees."""
    cos_t = math.cos(math.radians(tilt))
    f_gnd = 0.5 * (1.0 - cos_t)
    f_sky = 0.5 * (1.0 + cos_t)
    beta = math.sqrt(f_sky)
    return f_gnd, beta * f_sky, f_sky * (1.0 - beta)


def _scalar_exterior_flux(
    eps: float, tilt: float, t_surf: float, t_gnd: float, t_sky: float, t_air: float
) -> float:
    w_gnd, w_sky, w_air = _scalar_view_weights(tilt)
    surf4 = t_surf**4
    return eps * _SIGMA * (
        w_gnd * (t_gnd**4 - surf4)
        + w_sky * (t_sky**4 - surf4)
        + w_air * (t_air**4 - surf4)
    )


def _exposure_scale_cell(grid, r: int, c: int, layer_divisor: int) -> float:
    """Exposed-face area [m^2] a cell presents to the exterior."""
    if grid.exposed_faces[r, c] > 0:
        return float(grid.delta_x[r, c]) * grid.z
    if layer_divisor > 1 and int(grid.cv_type[r, c]) in (
        int(CvType.EXTERIOR_WALL),
        int(CvType.WINDOW),
    ):
        nominal = 0.5 * (float(grid.u[r, c]) + float(grid.v[r, c]))
        return nominal / layer_divisor * grid.z
    return 0.0


def _solar_terms(grid, mats, boundary, mass_enabled: bool):
    """Scalar re-derivation of the absorbed/transmitted solar assignment."""
    rows, cols = grid.rows, grid.cols
    q_alpha = [[0.0] * cols for _ in range(rows)]
    q_tau = [[0.0] * cols for _ in range(rows)]
    q_tau_mass = [[0.0] * cols for _ in range(rows)]

    orientation_of = ("east", "north", "west", "south")
    zone_total = [0.0] * max(grid.n_zones, 1)
    for r in range(rows):
        for c in range(cols):
            kind = int(grid.cv_type[r, c])
            if kind not in (int(CvType.EXTERIOR_WALL), int(CvType.WINDOW)):
                continue
            absorbed = 0.0
            transmitted = 0.0
            for d in range(4):
                if not grid.exposed_mask[d, r, c]:
                    continue
                g = boundary.poa[orientation_of[d]]
                length = float(grid.v[r, c]) if d in (0, 2) else float(grid.u[r, c])
                absorbed += float(mats.absorptivity[r, c]) * g * length * grid.z
                if kind == int(CvType.WINDOW):
                    transmitted += float(mats.transmissivity[r, c]) * g * length * grid.z
            q_alpha[r][c] = absorbed
            if transmitted:
                zone_total[grid.window_zone[(r, c)]] += transmitted

    zone_count = [0] * max(grid.n_zones, 1)
    for r in range(rows):
        for c in range(cols):
            zone = int(grid.zone_id[r, c])
            if zone >= 0:
                zone_count[zone] += 1
    for r in range(rows):
        for c in range(cols):
            zone = int(grid.zone_id[r, c])
            if zone < 0:
                continue
            share = zone_total[zone] / zone_count[zone]
            if mass_enabled:
                q_tau_mass[r][c] = share / (float(grid.u[r, c]) * float(grid.v[r, c]))
            else:
                q_tau[r][c] = share
    return q_alpha, q_tau, q_tau_mass


def _interior_lw_terms(
    exchange: RadiationExchangeMatrix, temps: List[List[float]], rows: int, cols: int
) -> List[List[float]]:
    """Per-cell interior exchange [W], summing each block's nonzero factors row by row."""
    lwx = [[0.0] * cols for _ in range(rows)]
    cells = exchange.surfaces
    t4 = [temps[r][c] ** 4 for (r, c, _d) in cells]
    net = [0.0] * len(cells)
    for index, factors, _row_sums in exchange.blocks:
        for members, block in zip(index.tolist(), factors.tolist()):
            for i, row in zip(members, block):
                for j, fij in zip(members, row):
                    if fij:
                        net[i] += fij * (t4[j] - t4[i])
    for i, area in enumerate(exchange.areas.tolist()):
        r, c, _d = cells[i]
        lwx[r][c] += _SIGMA * net[i] * area
    return lwx


def oracle_step(
    state: ThermalState, plan: Plan, boundary: StepBoundary, reverse_sweep: bool = False
) -> Tuple[ThermalState, StepReport]:
    """One timestep by sequential node-by-node sweeps.

    Same contract as the vectorized step: explicit non-converged reports,
    degeneracy errors naming the cell, identical mass update after
    convergence.
    """
    started = time.perf_counter()
    grid, mats, config, exchange = plan.grid, plan.mats, plan.config, plan.exchange
    mass_on = config.enable_interior_mass
    state.validate(grid, mass_on)
    rows, cols = grid.rows, grid.cols
    t_inf = boundary.t_inf
    dt = config.dt
    z = grid.z
    air = int(CvType.INTERIOR_AIR)

    kind = grid.cv_type.tolist()
    u = grid.u.tolist()
    v = grid.v.tolist()
    k_face = [mats.k_face[d].tolist() for d in range(4)]
    h_face = [mats.h_face[d].tolist() for d in range(4)]
    cap_rho = mats.volumetric_capacity().tolist()
    eps_cell = mats.emissivity.tolist()
    tilt_cell = mats.tilt.tolist()
    t_prev = state.t.tolist()
    q_x = boundary.q_x.tolist() if boundary.q_x is not None else None
    if mass_on:
        k_mass = config.mass_params.k_mass
        t0 = config.mass_params.rho_mass * config.mass_params.c_mass * z**2 / (k_mass * dt)
        t_mass_prev = state.t_mass.tolist()

    if config.enable_solar:
        q_alpha, q_tau, q_tau_mass = _solar_terms(
            grid, mats, boundary, config.enable_interior_mass
        )
    else:
        q_alpha = q_tau = q_tau_mass = [[0.0] * cols for _ in range(rows)]

    temps = state.t.tolist()
    for r in range(rows):
        for c in range(cols):
            if kind[r][c] == int(CvType.BOUNDARY):
                temps[r][c] = t_inf

    order = [
        (r, c)
        for r in range(rows)
        for c in range(cols)
        if kind[r][c] != int(CvType.BOUNDARY)
    ]
    if reverse_sweep:
        order = order[::-1]

    envelope_cells = [
        (r, c)
        for r in range(rows)
        for c in range(cols)
        if kind[r][c] in (int(CvType.EXTERIOR_WALL), int(CvType.WINDOW))
    ]

    converged = False
    max_delta = math.inf
    sweeps = 0
    for sweeps in range(1, config.max_inner_iterations + 1):
        # Radiation lags behind the sweep: everything radiative is computed
        # from the temperatures as they stood when the sweep began.
        snapshot = [row[:] for row in temps]
        lwr = [[0.0] * cols for _ in range(rows)]
        if config.enable_exterior_lw:
            for r, c in envelope_cells:
                scale = _exposure_scale_cell(grid, r, c, config.envelope_layer_divisor)
                if scale:
                    lwr[r][c] = scale * _scalar_exterior_flux(
                        eps_cell[r][c],
                        tilt_cell[r][c],
                        snapshot[r][c],
                        boundary.t_gnd,
                        boundary.t_sky,
                        t_inf,
                    )
        if config.enable_interior_lw:
            lwx = _interior_lw_terms(exchange, snapshot, rows, cols)
        else:
            lwx = None

        max_delta = 0.0
        for r, c in order:
            east = temps[r][c + 1] if c + 1 < cols else t_inf
            north = temps[r - 1][c] if r - 1 >= 0 else t_inf
            west = temps[r][c - 1] if c - 1 >= 0 else t_inf
            south = temps[r + 1][c] if r + 1 < rows else t_inf

            uu, vv = u[r][c], v[r][c]
            capacity = cap_rho[r][c] * uu * vv * z / dt
            numer = (
                vv * z * (
                    k_face[0][r][c] / uu * east
                    + h_face[0][r][c] * t_inf
                    + k_face[2][r][c] / uu * west
                    + h_face[2][r][c] * t_inf
                )
                + uu * z * (
                    k_face[1][r][c] / vv * north
                    + h_face[1][r][c] * t_inf
                    + k_face[3][r][c] / vv * south
                    + h_face[3][r][c] * t_inf
                )
                + capacity * t_prev[r][c]
            )
            denom = (
                vv * z * (
                    k_face[0][r][c] / uu
                    + h_face[0][r][c]
                    + k_face[2][r][c] / uu
                    + h_face[2][r][c]
                )
                + uu * z * (
                    k_face[1][r][c] / vv
                    + h_face[1][r][c]
                    + k_face[3][r][c] / vv
                    + h_face[3][r][c]
                )
                + capacity
            )
            if q_x is not None:
                numer += q_x[r][c]
            if mass_on and kind[r][c] == air:
                coupling = k_mass * uu * vv / z
                numer += coupling * t_mass_prev[r][c]
                denom += coupling
            if config.enable_exterior_lw:
                numer += lwr[r][c]
            if config.enable_interior_lw:
                numer += lwx[r][c]
            if config.enable_solar:
                numer += q_alpha[r][c] + q_tau[r][c]

            if denom <= 0.0:
                raise SolverError(
                    f"non-positive balance denominator {denom} at cell ({r}, {c})"
                )
            updated = numer / denom
            if not math.isfinite(updated):
                raise SolverError(
                    f"sweep {sweeps}: temperature {updated} at cell ({r}, {c}) is not finite"
                )
            change = abs(updated - temps[r][c])
            if change > max_delta:
                max_delta = change
            temps[r][c] = updated

        if max_delta < config.convergence_epsilon:
            converged = True
            break

    t_mass = None
    if mass_on:
        t_mass = [row[:] for row in t_mass_prev]
        for r in range(rows):
            for c in range(cols):
                if kind[r][c] == air:
                    t_mass[r][c] = (
                        temps[r][c]
                        + q_tau_mass[r][c] * z / k_mass
                        + t0 * t_mass_prev[r][c]
                    ) / (1.0 + t0)
        t_mass = np.array(t_mass)

    new_state = ThermalState(
        t=np.array(temps),
        t_mass=t_mass,
        step_index=state.step_index + 1,
        sim_clock=(state.sim_clock + timedelta(seconds=config.dt)) if state.sim_clock else None,
    )
    report = StepReport(
        inner_iterations=sweeps,
        max_delta=max_delta,
        converged=converged,
        wall_time=time.perf_counter() - started,
    )
    return new_state, report


def energy_audit(
    state_before: ThermalState, state_after: ThermalState, plan: Plan, boundary: StepBoundary
) -> dict:
    """Balance the step's stored-energy change against its source terms.

    Every term is evaluated at the converged field, so the imbalance
    measures bookkeeping consistency plus the convergence residual; run
    the step with a tight threshold for a meaningful audit. Returns the
    stored power, the summed source power, per-group totals, and the
    imbalance relative to the gross flux magnitude.
    """
    grid, mats, config, exchange = plan.grid, plan.mats, plan.config, plan.exchange
    state_before.validate(grid, config.enable_interior_mass)
    state_after.validate(grid, False)
    rows, cols = grid.rows, grid.cols
    t_inf = boundary.t_inf
    z = grid.z
    temps = state_after.t.tolist()
    t_prev = state_before.t.tolist()
    kind = grid.cv_type.tolist()
    cap_rho = mats.volumetric_capacity().tolist()

    if config.enable_solar:
        q_alpha, q_tau, _unused = _solar_terms(
            grid, mats, boundary, config.enable_interior_mass
        )
    else:
        q_alpha = q_tau = [[0.0] * cols for _ in range(rows)]
    if config.enable_interior_lw:
        lwx = _interior_lw_terms(exchange, temps, rows, cols)
    else:
        lwx = None

    stored = 0.0
    groups = {
        "conduction": 0.0,
        "convection": 0.0,
        "exterior_lw": 0.0,
        "interior_lw": 0.0,
        "solar": 0.0,
        "mass_coupling": 0.0,
        "heat_source": 0.0,
    }
    gross = 0.0
    for r in range(rows):
        for c in range(cols):
            if kind[r][c] == int(CvType.BOUNDARY):
                continue
            uu, vv = float(grid.u[r, c]), float(grid.v[r, c])
            east = temps[r][c + 1] if c + 1 < cols else t_inf
            north = temps[r - 1][c] if r - 1 >= 0 else t_inf
            west = temps[r][c - 1] if c - 1 >= 0 else t_inf
            south = temps[r + 1][c] if r + 1 < rows else t_inf
            here = temps[r][c]

            conduction = (
                vv * z * float(mats.k_face[0, r, c]) / uu * (east - here)
                + vv * z * float(mats.k_face[2, r, c]) / uu * (west - here)
                + uu * z * float(mats.k_face[1, r, c]) / vv * (north - here)
                + uu * z * float(mats.k_face[3, r, c]) / vv * (south - here)
            )
            convection = (
                vv * z * (float(mats.h_face[0, r, c]) + float(mats.h_face[2, r, c]))
                + uu * z * (float(mats.h_face[1, r, c]) + float(mats.h_face[3, r, c]))
            ) * (t_inf - here)
            exterior = 0.0
            if config.enable_exterior_lw:
                scale = _exposure_scale_cell(grid, r, c, config.envelope_layer_divisor)
                if scale and kind[r][c] in (int(CvType.EXTERIOR_WALL), int(CvType.WINDOW)):
                    exterior = scale * _scalar_exterior_flux(
                        float(mats.emissivity[r, c]),
                        float(mats.tilt[r, c]),
                        here,
                        boundary.t_gnd,
                        boundary.t_sky,
                        t_inf,
                    )
            interior = lwx[r][c] if lwx is not None else 0.0
            solar = q_alpha[r][c] + q_tau[r][c] if config.enable_solar else 0.0
            coupling = 0.0
            if config.enable_interior_mass and kind[r][c] == int(CvType.INTERIOR_AIR):
                coupling = config.mass_params.k_mass * uu * vv / z * (
                    float(state_before.t_mass[r, c]) - here
                )
            source = float(boundary.q_x[r, c]) if boundary.q_x is not None else 0.0

            capacity = cap_rho[r][c] * uu * vv * z / config.dt
            stored += capacity * (here - t_prev[r][c])

            groups["conduction"] += conduction
            groups["convection"] += convection
            groups["exterior_lw"] += exterior
            groups["interior_lw"] += interior
            groups["solar"] += solar
            groups["mass_coupling"] += coupling
            groups["heat_source"] += source
            gross += (
                abs(conduction)
                + abs(convection)
                + abs(exterior)
                + abs(interior)
                + abs(solar)
                + abs(coupling)
                + abs(source)
                + abs(capacity * (here - t_prev[r][c]))
            )

    flux_total = sum(groups.values())
    rel = abs(stored - flux_total) / max(gross, 1e-30)
    return {
        "stored": stored,
        "flux_total": flux_total,
        "groups": groups,
        "rel_imbalance": rel,
    }
