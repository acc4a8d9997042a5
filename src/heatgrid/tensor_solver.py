"""
Vectorized whole-grid temperature solver.

``prepare`` computes once per run everything no step changes: the face
conductances, the balance denominator, the mass coupling, the envelope
index with its exterior long-wave weights, and the solar basis. Each
``step(state, plan, boundary)`` then solves the nonlinear balance by
Picard fixed-point iteration. It forms the constant part of the numerator
(heat source, convection, stored heat, mass coupling, solar) once; each
inner pass adds only the iterate-dependent terms (shifted conduction, the
lagged exterior long-wave of the envelope cells scattered in by index, and
the lagged interior exchange), divides element-wise over the whole grid,
and repeats until the largest per-cell change drops below the convergence
threshold. With every radiation feature and the mass coupling disabled a
single pass reduces to the bare conduction-convection update.

Temperatures shifted in from outside the grid carry the ambient value;
boundary-padding cells are pinned to ambient, so they never change and
drop out of the convergence measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .building import (
    BuildingGrid,
    CvType,
    DIR_EAST,
    DIR_NORTH,
    DIR_SOUTH,
    DIR_WEST,
    MaterialField,
    SimulationConfig,
)
from .conditions import StepBoundary, boundary_for_time
from .mass import MassState, init_mass, mass_conductivity, update_mass
from .radiation import (
    RadiationExchangeMatrix,
    SolarBasis,
    apply_interior_lw,
    assemble_exterior_lw_tensor,
    assemble_solar_tensors,
    build_exchange_matrix_2d,
    exterior_lw_weights,
    scatter_interior_lw,
    solar_basis,
)
from .weather import WeatherRecord


class SolverError(RuntimeError):
    """Raised on numerical degeneracy or invalid solver inputs."""


def _check_temperatures(t: np.ndarray, context: str) -> None:
    """Raise ``SolverError`` naming the first cell of ``t`` not finite and > 0 K."""
    if not (t.min() > 0.0 and t.max() < np.inf):
        r, c = np.argwhere(~((t > 0.0) & (t < np.inf)))[0]
        raise SolverError(
            f"{context}: temperature {t[r, c]} at cell ({r}, {c}) is not finite and > 0 K"
        )


@dataclass
class ThermalState:
    """Temperature field state between steps.

    ``t`` is the current field (the converged field of the last step),
    ``mass`` the optional interior mass nodes.
    """

    t: np.ndarray
    mass: Optional[MassState] = None
    step_index: int = 0
    sim_clock: Optional[datetime] = None

    def validate(self, grid: BuildingGrid) -> None:
        shape = (grid.rows, grid.cols)
        if self.t.shape != shape:
            raise SolverError(f"state shape {self.t.shape} does not match grid {shape}")
        _check_temperatures(self.t, "state")


@dataclass(frozen=True)
class StepReport:
    """Outcome of one timestep's inner iteration."""

    inner_iterations: int
    max_delta: float
    converged: bool
    wall_time: float


@dataclass(frozen=True)
class Plan:
    """A run's inputs and the arrays every step reuses; built by ``prepare``.

    No solver writes to a plan, so one serves any number of states on the
    same building. Conductances [W/K]: ``g`` per face in shift order (east,
    north, west, south), ``convection`` to ambient, ``capacity`` C/dt and
    ``coupling`` to the mass nodes (None with mass off); ``denom`` is their
    sum. ``active`` marks the cells that are not boundary padding.
    ``exterior_cells`` are the flat indices of the cells with a non-zero
    exterior long-wave weight, inner envelope layers included, and
    ``exterior_weights`` their ``(3, n)`` weights; ``solar`` is the solar
    basis. Each is None with its feature off.
    """

    grid: BuildingGrid
    mats: MaterialField
    config: SimulationConfig
    exchange: Optional[RadiationExchangeMatrix]
    active: np.ndarray
    g: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    convection: np.ndarray
    capacity: np.ndarray
    coupling: Optional[np.ndarray]
    denom: np.ndarray
    exterior_cells: Optional[np.ndarray]
    exterior_weights: Optional[np.ndarray]
    solar: Optional[SolarBasis]


def prepare(
    grid: BuildingGrid,
    mats: MaterialField,
    config: SimulationConfig,
    exchange: Optional[RadiationExchangeMatrix] = None,
) -> Plan:
    """Check a run's inputs and compute everything its steps share, once.

    Builds the interior exchange matrix when interior long-wave is on and
    none is given. A config value out of range, an exchange surface whose
    cell lies off the grid, or a non-positive balance denominator on a
    live cell raises, naming the key, the surface or the cell.
    """
    config.validate()
    if config.enable_interior_lw:
        if exchange is None:
            exchange = build_exchange_matrix_2d(grid, mats)
        s_rows, s_cols = exchange.surface_rows, exchange.surface_cols
        off = (s_rows < 0) | (s_rows >= grid.rows) | (s_cols < 0) | (s_cols >= grid.cols)
        if off.any():
            i = int(np.argmax(off))
            raise SolverError(
                f"exchange surface {i} at cell ({s_rows[i]}, {s_cols[i]}) lies off "
                f"the {grid.rows}x{grid.cols} grid"
            )

    u, v, z = grid.u, grid.v, grid.z
    k, h = mats.k_face, mats.h_face
    g_ew, g_ns = v * z / u, u * z / v
    g = (g_ew * k[DIR_EAST], g_ns * k[DIR_NORTH], g_ew * k[DIR_WEST], g_ns * k[DIR_SOUTH])
    convection = v * z * (h[DIR_EAST] + h[DIR_WEST]) + u * z * (h[DIR_NORTH] + h[DIR_SOUTH])
    capacity = mats.volumetric_capacity() * u * v * z / config.dt
    denom = g[0] + g[1] + g[2] + g[3] + convection + capacity
    coupling = None
    if config.enable_interior_mass:
        coupling = mass_conductivity(grid, config) * u * v / z
        denom = denom + coupling
    active = grid.cv_type != int(CvType.BOUNDARY)
    bad = active & (denom <= 0.0)
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        raise SolverError(
            f"non-positive balance denominator {denom[r, c]} at cell ({r}, {c})"
        )
    cells = weights = None
    if config.enable_exterior_lw:
        weights = exterior_lw_weights(grid, mats, config.envelope_layer_divisor)
        cells = np.flatnonzero(weights.any(axis=0))
        weights = weights.reshape(3, -1)[:, cells]
    solar = solar_basis(grid, mats) if config.enable_solar else None
    return Plan(grid, mats, config, exchange, active, g, convection, capacity, coupling,
                denom, cells, weights, solar)


def shift_fields(pad: np.ndarray, temperatures: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Neighbor fields ``(east, north, west, south)`` of ``temperatures``.

    ``pad`` is a buffer one cell wider than the field on every side whose
    border holds the ambient temperature. The field is written into its
    interior and the four shifted views are returned, so ``east[i, j]`` is
    ``T[i, j+1]`` and a neighbor outside the grid reads ambient.
    """
    pad[1:-1, 1:-1] = temperatures
    return pad[1:-1, 2:], pad[:-2, 1:-1], pad[1:-1, :-2], pad[2:, 1:-1]


def step(
    state: ThermalState, plan: Plan, boundary: StepBoundary
) -> Tuple[ThermalState, StepReport]:
    """Advance the field one timestep; returns the new state and a report.

    Iterates until the maximum temperature change falls below
    ``config.convergence_epsilon`` or the budget runs out (reported, never
    silent). An iterate that is not finite and > 0 K aborts naming the cell.
    """
    started = time.perf_counter()
    grid, config, exchange, g = plan.grid, plan.config, plan.exchange, plan.g
    state.validate(grid)
    t_inf = boundary.t_inf
    for name in ("t_inf", "t_gnd", "t_sky"):
        value = getattr(boundary, name)
        if not 0.0 < value < np.inf:
            raise SolverError(f"boundary {name}={value} is not finite and > 0 K")

    # The constant part of the numerator: everything the iterate does not change.
    mass = state.mass
    if config.enable_interior_mass and mass is None:
        mass = init_mass(grid, config, state.t)
    const = plan.convection * t_inf + plan.capacity * state.t
    if boundary.q_x is not None:
        const = const + boundary.q_x
    if config.enable_interior_mass:
        const = const + plan.coupling * mass.t_mass
    q_tau_mass = np.zeros((grid.rows, grid.cols))
    if config.enable_solar:
        q_sol_alpha, q_sol_tau, q_tau_mass = assemble_solar_tensors(
            plan.solar, boundary.poa, config.enable_interior_mass
        )
        const = const + q_sol_alpha + q_sol_tau

    pad = np.full((grid.rows + 2, grid.cols + 2), t_inf)
    t_iter = np.where(plan.active, state.t, t_inf)
    converged = False
    max_delta = np.inf
    iterations = 0
    for iterations in range(1, config.max_inner_iterations + 1):
        east, north, west, south = shift_fields(pad, t_iter)
        numer = const + g[0] * east + g[1] * north + g[2] * west + g[3] * south
        if config.enable_exterior_lw:
            cells = plan.exterior_cells
            numer.reshape(-1)[cells] += assemble_exterior_lw_tensor(
                plan.exterior_weights, t_iter.reshape(-1)[cells],
                boundary.t_gnd, boundary.t_sky, t_inf,
            )
        if config.enable_interior_lw:
            flux = apply_interior_lw(exchange, exchange.surface_temperatures(t_iter))
            numer += scatter_interior_lw(exchange, flux, grid)

        t_new = np.full_like(t_iter, t_inf)
        np.divide(numer, plan.denom, out=t_new, where=plan.active)
        _check_temperatures(t_new, f"iteration {iterations}")
        max_delta = float(np.abs(t_new - t_iter).max())
        t_iter = t_new
        if max_delta < config.convergence_epsilon:
            converged = True
            break

    new_mass = None
    if config.enable_interior_mass:
        new_mass = update_mass(mass, t_iter, q_tau_mass, grid.z)

    new_state = ThermalState(
        t=t_iter,
        mass=new_mass,
        step_index=state.step_index + 1,
        sim_clock=(state.sim_clock + timedelta(seconds=config.dt)) if state.sim_clock else None,
    )
    report = StepReport(
        inner_iterations=iterations,
        max_delta=max_delta,
        converged=converged,
        wall_time=time.perf_counter() - started,
    )
    return new_state, report


def make_initial_state(
    grid: BuildingGrid,
    config: SimulationConfig,
    records: Sequence[WeatherRecord],
    temperature: Optional[float] = None,
) -> ThermalState:
    """Uniform starting state at the first weather timestamp."""
    t0 = temperature if temperature is not None else config.initial_temperature
    t = np.full((grid.rows, grid.cols), float(t0))
    mass = init_mass(grid, config, t) if config.enable_interior_mass else None
    return ThermalState(
        t=t,
        mass=mass,
        step_index=0,
        sim_clock=records[0].timestamp if records else None,
    )


def run_episode(
    grid: BuildingGrid,
    mats: MaterialField,
    config: SimulationConfig,
    records: Sequence[WeatherRecord],
    n_steps: int,
    stepper: Callable = step,
    exchange: Optional[RadiationExchangeMatrix] = None,
    q_x: Optional[np.ndarray] = None,
    snapshot_every: int = 1,
) -> Tuple[List[ThermalState], List[StepReport]]:
    """Run ``n_steps`` timesteps and collect state snapshots and reports.

    Prepares one plan and drives any solver exposing the common
    ``(state, plan, boundary)`` step signature (the vectorized one by
    default) from the uniform initial state. The weather series must cover
    the whole horizon; failures carry the step index.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps={n_steps} must be >= 1")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    if q_x is not None and np.shape(q_x) != (grid.rows, grid.cols):
        raise ValueError(f"q_x shape {np.shape(q_x)} != grid shape {(grid.rows, grid.cols)}")
    plan = prepare(grid, mats, config, exchange)
    state = make_initial_state(grid, config, records)

    snapshots: List[ThermalState] = []
    reports: List[StepReport] = []
    for index in range(n_steps):
        try:
            bc = boundary_for_time(
                records, config.site, state.sim_clock, want_solar=config.enable_solar, q_x=q_x
            )
            state, report = stepper(state, plan, bc)
        except (SolverError, ValueError) as exc:
            raise SolverError(f"step {index}: {exc}") from exc
        reports.append(report)
        if (index + 1) % snapshot_every == 0 or index == n_steps - 1:
            snapshots.append(state)
    return snapshots, reports
