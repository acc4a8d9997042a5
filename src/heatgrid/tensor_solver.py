"""
Vectorized whole-grid temperature solver.

Each timestep solves the nonlinear balance by Picard fixed-point
iteration. A setup block computes once per step everything the iterate
does not change: the face conductances, the balance denominator, the
constant part of the numerator (heat source, convection, stored heat,
mass coupling, solar) and the exterior long-wave weights. The inner loop
adds only the iterate-dependent terms (shifted conduction and the lagged
radiative tensors), divides element-wise over the whole grid, and repeats
until the largest per-cell change drops below the convergence threshold.
With every radiation feature and the mass coupling disabled a single pass
reduces to the bare conduction-convection update.

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
from .mass import MassState, init_mass, update_mass
from .radiation import (
    RadiationExchangeMatrix,
    apply_interior_lw,
    assemble_exterior_lw_tensor,
    assemble_solar_tensors,
    build_exchange_matrix_2d,
    exterior_lw_weights,
    scatter_interior_lw,
)
from .weather import SitePosition, WeatherRecord


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
class ShiftedFields:
    """Neighbor temperature fields in the four cardinal directions.

    ``t1`` east, ``t2`` north, ``t3`` west, ``t4`` south; entries shifted
    in from outside the grid hold the ambient temperature.
    """

    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray


@dataclass(frozen=True)
class StepReport:
    """Outcome of one timestep's inner iteration."""

    inner_iterations: int
    max_delta: float
    converged: bool
    wall_time: float


def shift_fields(temperatures: np.ndarray, t_inf: float) -> ShiftedFields:
    """One-cell shifts of the field in each cardinal direction.

    ``t1[i, j]`` is the east neighbor ``T[i, j+1]`` and so on; cells whose
    neighbor falls outside the grid read the ambient temperature. The four
    fields are views into one ambient-padded copy of the field.
    """
    t = np.asarray(temperatures, dtype=float)
    pad = np.full((t.shape[0] + 2, t.shape[1] + 2), t_inf)
    pad[1:-1, 1:-1] = t
    return ShiftedFields(
        t1=pad[1:-1, 2:], t2=pad[:-2, 1:-1], t3=pad[1:-1, :-2], t4=pad[2:, 1:-1]
    )


def step(
    state: ThermalState,
    grid: BuildingGrid,
    mats: MaterialField,
    config: SimulationConfig,
    boundary: StepBoundary,
    exchange: Optional[RadiationExchangeMatrix] = None,
) -> Tuple[ThermalState, StepReport]:
    """Advance the field one timestep; returns the new state and a report.

    Iterates until the maximum temperature change falls below
    ``config.convergence_epsilon`` or the budget runs out (reported, never
    silent). A non-positive balance denominator on a live cell, or an
    iterate that is not finite and > 0 K, aborts with the cell named.
    """
    started = time.perf_counter()
    state.validate(grid)
    if config.enable_interior_lw and exchange is None:
        raise SolverError("interior long-wave exchange enabled but no exchange matrix given")
    t_inf = boundary.t_inf
    for name in ("t_inf", "t_gnd", "t_sky"):
        value = getattr(boundary, name)
        if not 0.0 < value < np.inf:
            raise SolverError(f"boundary {name}={value} is not finite and > 0 K")

    # Setup: everything the iterate does not change.
    u, v, z = grid.u, grid.v, grid.z
    k, h = mats.k_face, mats.h_face
    active = grid.cv_type != int(CvType.BOUNDARY)
    mass = state.mass
    if config.enable_interior_mass and mass is None:
        mass = init_mass(grid, config, state.t)

    # Face conductances [W/K] in shifted-field order: east, north, west, south.
    g_ew, g_ns = v * z / u, u * z / v
    g = (g_ew * k[DIR_EAST], g_ns * k[DIR_NORTH], g_ew * k[DIR_WEST], g_ns * k[DIR_SOUTH])
    convection = v * z * (h[DIR_EAST] + h[DIR_WEST]) + u * z * (h[DIR_NORTH] + h[DIR_SOUTH])
    capacity = mats.volumetric_capacity() * u * v * z / config.dt
    denom = g[0] + g[1] + g[2] + g[3] + convection + capacity
    const = convection * t_inf + capacity * state.t
    if boundary.q_x is not None:
        const = const + boundary.q_x
    if config.enable_interior_mass:
        coupling = mass.k_mass_field * u * v / z
        denom = denom + coupling
        const = const + coupling * mass.t_mass
    bad = active & (denom <= 0.0)
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        raise SolverError(
            f"non-positive balance denominator {denom[r, c]} at cell ({r}, {c})"
        )
    q_tau_mass = np.zeros((grid.rows, grid.cols))
    if config.enable_solar:
        q_sol_alpha, q_sol_tau, q_tau_mass = assemble_solar_tensors(
            grid, mats, boundary.poa, config.enable_interior_mass
        )
        const = const + q_sol_alpha + q_sol_tau
    if config.enable_exterior_lw:
        weights = exterior_lw_weights(grid, mats, config.envelope_layer_divisor)
    if config.enable_interior_lw and exchange.n_surfaces:
        # Reductions, not boolean masks, on the normal path: four mask
        # temporaries slowed a 6k-cell step by 2-7 %, far more than their
        # own 10 us, apparently through glibc trimming and regrowing the heap.
        s_rows, s_cols = exchange.surface_rows, exchange.surface_cols
        if not (
            0 <= s_rows.min() and s_rows.max() < grid.rows
            and 0 <= s_cols.min() and s_cols.max() < grid.cols
        ):
            off = (s_rows < 0) | (s_rows >= grid.rows) | (s_cols < 0) | (s_cols >= grid.cols)
            i = int(np.argmax(off))
            raise SolverError(
                f"exchange surface {i} at cell ({s_rows[i]}, {s_cols[i]}) lies off "
                f"the {grid.rows}x{grid.cols} grid"
            )

    t_iter = np.where(active, state.t, t_inf)
    converged = False
    max_delta = np.inf
    iterations = 0
    for iterations in range(1, config.max_inner_iterations + 1):
        s = shift_fields(t_iter, t_inf)  # neighbor temperatures
        numer = const + g[0] * s.t1 + g[1] * s.t2 + g[2] * s.t3 + g[3] * s.t4
        if config.enable_exterior_lw:
            numer += assemble_exterior_lw_tensor(
                weights, t_iter, boundary.t_gnd, boundary.t_sky, t_inf
            )
        if config.enable_interior_lw:
            flux = apply_interior_lw(exchange, exchange.surface_temperatures(t_iter))
            numer += scatter_interior_lw(exchange, flux, grid)

        t_new = np.full_like(t_iter, t_inf)
        np.divide(numer, denom, out=t_new, where=active)
        _check_temperatures(t_new, f"iteration {iterations}")
        max_delta = float(np.abs(t_new - t_iter).max())
        t_iter = t_new
        if max_delta < config.convergence_epsilon:
            converged = True
            break

    new_mass = None
    if config.enable_interior_mass:
        new_mass = update_mass(mass, t_iter, q_tau_mass, z)

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
    site: Optional[SitePosition] = None,
    initial_state: Optional[ThermalState] = None,
    stepper: Callable = step,
    exchange: Optional[RadiationExchangeMatrix] = None,
    q_x: Optional[np.ndarray] = None,
    snapshot_every: int = 1,
) -> Tuple[List[ThermalState], List[StepReport]]:
    """Run ``n_steps`` timesteps and collect state snapshots and reports.

    Drives any solver exposing the common step signature (the vectorized
    one by default). The weather series must cover the whole horizon;
    failures carry the step index.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps={n_steps} must be >= 1")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    site = site if site is not None else config.site
    state = initial_state if initial_state is not None else make_initial_state(
        grid, config, records
    )
    if exchange is None and config.enable_interior_lw:
        exchange = build_exchange_matrix_2d(grid, mats)

    snapshots: List[ThermalState] = []
    reports: List[StepReport] = []
    for index in range(n_steps):
        try:
            bc = boundary_for_time(
                records, site, state.sim_clock, want_solar=config.enable_solar, q_x=q_x
            )
            state, report = stepper(state, grid, mats, config, bc, exchange)
        except (SolverError, ValueError) as exc:
            raise SolverError(f"step {index}: {exc}") from exc
        reports.append(report)
        if (index + 1) % snapshot_every == 0 or index == n_steps - 1:
            snapshots.append(state)
    return snapshots, reports
