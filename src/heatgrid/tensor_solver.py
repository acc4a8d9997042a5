"""
Vectorized whole-grid temperature solver.

``prepare`` computes once per run everything no step changes: the face
conductances, the balance denominator, the mass coupling, the envelope
index with its exterior long-wave weights, the flat cell indices of the
interior exchange surfaces, and the solar basis. Each
``step(state, plan, boundary)`` then solves the nonlinear balance by
Picard fixed-point iteration. It forms the constant part of the numerator
(heat source, convection, stored heat, mass coupling, solar) once; each
inner pass adds only the iterate-dependent terms (shifted conduction, the
lagged exterior long-wave of the envelope cells and the lagged interior
exchange of the surface cells, both gathered and scattered by flat index)
into buffers allocated once per step, divides element-wise over the whole
grid, and repeats until the largest per-cell change drops below the
convergence threshold. With every radiation feature and the mass coupling
disabled a single pass from the state's field reduces to the bare
conduction-convection update.

The sweep turns red-black on the measured contraction. A step's passes
start as Jacobi updates of every live cell from the iterate. From the
first pass whose largest change exceeds ``MIXING_GATE`` times the previous
one, every later pass of the step is a red-black Gauss-Seidel sweep: the
live cells with ``r + c`` even are updated from the iterate, then the odd
ones from the even values just written. A cell's four neighbours all have
the other colour, so each half is one whole-grid conduction and one
division over that colour's flat cell indices. For the
5-point stencil this ordering is consistently ordered, so a swept pass
contracts by the square of the Jacobi factor and keeps its fixed point
(Young, *Iterative Solution of Large Linear Systems*, 1971). Both kinds of
pass lag the exterior and interior long-wave at the pass's starting
iterate. The benchmark plans at dt=300 s contract fast enough that the
gate stays shut, so every pass there is a Jacobi update; at dt=3,600 s,
where a Jacobi pass contracts by about 0.7, sweeps take over after a few.

Predict, then extrapolate. A step whose state carries ``t_before`` starts
from the linear prediction ``2 t - t_before`` rather than from ``t``, and
does not stop on its first pass; every vectorized step hands its incoming
``t`` on as the next ``t_before``. A step that converges after ``k >= 2``
passes returns ``G(x_k) + r_k rho / (1 - rho)``, Aitken's delta-squared
with the one global ratio ``rho = delta_k / delta_{k-1}`` of its last two
largest changes, when ``rho < EXTRAPOLATION_LIMIT`` and the last two
residuals point the same way (an oscillating iteration would be pushed
away from its fixed point); otherwise it returns the last update
``G(x_k)``. The prediction halves the passes at dt=300 s, and the
extrapolation removes the one-sided stopping error that the iteration
would otherwise carry from step to step in the stored heat.

Each interior-air cell couples to a mass node (furnishings, slab) whose
temperature the state carries in ``t_mass``. Once the air field converges,
``update_mass`` advances those nodes explicitly; other nodes never change.

Temperatures shifted in from outside the grid carry the ambient value;
boundary-padding cells are pinned to ambient, so they never change and
drop out of the convergence measure.
"""

from __future__ import annotations

import math
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
    shift_fields,
)
from .conditions import SolverError, StepBoundary, boundary_for_time
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


#: Sweeps turn red-black after the first pass whose largest change is more
#: than this fraction of the previous one. At dt=300 s a Jacobi pass
#: contracts by at most 0.35 on the bundled plan and 0.31 on a 5,963-CV one,
#: so the gate stays shut and those steps keep their Jacobi passes. At
#: dt=3,600 s a Jacobi pass contracts by 0.46-0.83 from the fourth pass on.
MIXING_GATE = 0.5
#: A converged step returns its last update extrapolated by Aitken's
#: delta-squared only when its last two changes shrank by a ratio below
#: this. The correction is ratio / (1 - ratio) times the last change,
#: 9 times at this limit, and grows without bound as the ratio nears 1.
EXTRAPOLATION_LIMIT = 0.9


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

    ``t`` is the current field (the converged field of the last step) and
    ``t_mass`` the interior mass node temperatures, None with mass off.
    ``t_before`` is the field one step before ``t``, from which the
    vectorized step predicts its starting iterate; ``step`` sets it to the
    field it was handed, and the oracle never reads it.
    """

    t: np.ndarray
    t_mass: Optional[np.ndarray] = None
    step_index: int = 0
    sim_clock: Optional[datetime] = None
    t_before: Optional[np.ndarray] = None

    def validate(self, grid: BuildingGrid, mass: bool) -> None:
        """Check each field's shape and values; ``mass`` says whether ``t_mass`` is one."""
        shape = (grid.rows, grid.cols)
        fields = {"state": self.t, "state t_mass": self.t_mass} if mass else {"state": self.t}
        if self.t_before is not None:
            fields["state t_before"] = self.t_before
        for context, field in fields.items():
            if field is None:
                raise SolverError(f"{context} is missing")
            if field.shape != shape:
                raise SolverError(f"{context} shape {field.shape} does not match grid {shape}")
            _check_temperatures(field, context)


@dataclass(frozen=True)
class StepReport:
    """Outcome of one timestep's inner iteration.

    ``max_delta`` is the largest change of the last pass; ``mixed_from``
    the pass after which sweeps turned red-black, or 0 when every pass was
    a Jacobi update. ``error_estimate`` is the largest per-cell correction
    the extrapolated return added to the last update [K], ``nan`` when the
    step returned that update as it was.
    """

    inner_iterations: int
    max_delta: float
    converged: bool
    wall_time: float
    mixed_from: int = 0
    error_estimate: float = math.nan


@dataclass(frozen=True)
class Plan:
    """A run's inputs and the arrays every step reuses; built by ``prepare``.

    No solver writes to a plan, so one serves any number of states on the
    same building. Conductances [W/K]: ``g`` per face in shift order (east,
    north, west, south), ``convection`` to ambient, ``capacity`` C/dt and
    ``coupling`` to the mass nodes; ``denom`` is their sum. ``active`` marks
    the cells that are not boundary padding, and ``red_cells`` and
    ``black_cells`` are the flat indices of those with ``r + c`` even and
    odd. ``air`` marks the interior-air cells, whose mass nodes the step
    updates, and ``mass_t0`` is the update's ``rho c z^2 / (k dt)``; with
    mass off, they and ``coupling`` are None.
    ``exterior_cells`` are the flat indices of the cells with a non-zero
    exterior long-wave weight, inner envelope layers included, and
    ``exterior_weights`` their ``(3, n)`` weights; ``solar`` is the solar
    basis. ``surface_cells``, ``lw_cells`` and ``surface_slots`` are the
    exchange matrix's ``cell_index``: the flat cell of each interior
    surface, the distinct cells owning one, and each surface's position
    among them. Each is None with its feature off.
    """

    grid: BuildingGrid
    mats: MaterialField
    config: SimulationConfig
    exchange: Optional[RadiationExchangeMatrix]
    active: np.ndarray
    red_cells: np.ndarray
    black_cells: np.ndarray
    g: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    convection: np.ndarray
    capacity: np.ndarray
    coupling: Optional[np.ndarray]
    denom: np.ndarray
    air: Optional[np.ndarray]
    mass_t0: Optional[float]
    exterior_cells: Optional[np.ndarray]
    exterior_weights: Optional[np.ndarray]
    solar: Optional[SolarBasis]
    surface_cells: Optional[np.ndarray]
    lw_cells: Optional[np.ndarray]
    surface_slots: Optional[np.ndarray]


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
    lw_index = (None, None, None)
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
        lw_index = exchange.cell_index(grid)

    u, v, z = grid.u, grid.v, grid.z
    k, h = mats.k_face, mats.h_face
    g_ew, g_ns = v * z / u, u * z / v
    g = (g_ew * k[DIR_EAST], g_ns * k[DIR_NORTH], g_ew * k[DIR_WEST], g_ns * k[DIR_SOUTH])
    convection = v * z * (h[DIR_EAST] + h[DIR_WEST]) + u * z * (h[DIR_NORTH] + h[DIR_SOUTH])
    capacity = mats.volumetric_capacity() * u * v * z / config.dt
    denom = g[0] + g[1] + g[2] + g[3] + convection + capacity
    coupling = air = mass_t0 = None
    if config.enable_interior_mass:
        params = config.mass_params
        air = grid.cv_type == int(CvType.INTERIOR_AIR)
        coupling = np.where(air, params.k_mass, 0.0) * u * v / z
        denom = denom + coupling
        mass_t0 = params.rho_mass * params.c_mass * z**2 / (params.k_mass * config.dt)
    active = grid.cv_type != int(CvType.BOUNDARY)
    bad = active & (denom <= 0.0)
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        raise SolverError(
            f"non-positive balance denominator {denom[r, c]} at cell ({r}, {c})"
        )
    even = np.add.outer(np.arange(grid.rows), np.arange(grid.cols)) % 2 == 0
    red_cells, black_cells = np.flatnonzero(active & even), np.flatnonzero(active & ~even)
    cells = weights = None
    if config.enable_exterior_lw:
        weights = exterior_lw_weights(grid, mats, config.envelope_layer_divisor)
        cells = np.flatnonzero(weights.any(axis=0))
        weights = weights.reshape(3, -1)[:, cells]
    solar = solar_basis(grid, mats) if config.enable_solar else None
    return Plan(grid, mats, config, exchange, active, red_cells, black_cells, g, convection,
                capacity, coupling, denom, air, mass_t0, cells, weights, solar, *lw_index)


def update_mass(
    t_mass: np.ndarray, t_air: np.ndarray, q_mass: np.ndarray, t0: float, z: float, k_mass: float
) -> np.ndarray:
    """Mass node temperatures after a step whose air converged to ``t_air``.

    Explicit in the node: ``(T + q z / k_mass + t0 T_mass) / (1 + t0)``, with
    ``q`` the transmitted solar flux [W/m^2 of plan area] routed to the nodes
    and ``t0 = rho_mass c_mass z^2 / (k_mass dt)``. Large t0 (short steps or
    heavy mass) freezes the node; t0 -> 0 collapses it to ``T + q z / k_mass``.
    """
    return (t_air + q_mass * z / k_mass + t0 * t_mass) / (1.0 + t0)


def step(
    state: ThermalState, plan: Plan, boundary: StepBoundary
) -> Tuple[ThermalState, StepReport]:
    """Advance the field one timestep; returns the new state and a report.

    Iterates until the maximum temperature change falls below
    ``config.convergence_epsilon`` or the budget runs out (reported, never
    silent). An iterate that is not finite and > 0 K aborts naming the cell.
    With ``state.t_before`` set, the first iterate is predicted from it; a
    converged step returns its extrapolated fixed point, and its new state
    keeps ``state.t`` as ``t_before`` (see the module notes).
    """
    started = time.perf_counter()
    grid, config, exchange, g = plan.grid, plan.config, plan.exchange, plan.g
    state.validate(grid, config.enable_interior_mass)
    boundary.validate((grid.rows, grid.cols), config.enable_solar)
    t_inf = boundary.t_inf

    # The constant part of the numerator: everything the iterate does not change.
    const = plan.convection * t_inf + plan.capacity * state.t
    if boundary.q_x is not None:
        const = const + boundary.q_x
    if config.enable_interior_mass:
        const = const + plan.coupling * state.t_mass
    q_tau_mass = np.zeros((grid.rows, grid.cols))
    if config.enable_solar:
        q_sol_alpha, q_sol_tau, q_tau_mass = assemble_solar_tensors(
            plan.solar, boundary.poa, config.enable_interior_mass
        )
        const = const + q_sol_alpha + q_sol_tau

    shape = (grid.rows, grid.cols)
    pad = np.full((grid.rows + 2, grid.cols + 2), t_inf)
    # Start from the linear prediction in time. Its first pass cannot end
    # the step, so a budget of one pass starts from t.
    predicted = state.t_before is not None and config.max_inner_iterations > 1
    x = np.where(plan.active, 2.0 * state.t - state.t_before if predicted else state.t, t_inf)
    image = np.full(shape, t_inf)
    numer, term = np.empty(shape), np.empty(shape)
    numer_flat, denom_flat = numer.reshape(-1), plan.denom.reshape(-1)
    residual, last_residual = np.empty(shape), np.empty(shape)
    sweeps = (None,)  # one Jacobi update of plan.active until the gate opens
    converged = False
    max_delta = last_delta = np.inf
    iterations = mixed_from = 0
    for iterations in range(1, config.max_inner_iterations + 1):
        # image = G(x): radiation lagged at x, then each sweep updates its
        # cells from the freshest field, x for the first and image after.
        if config.enable_exterior_lw:
            exterior = assemble_exterior_lw_tensor(
                plan.exterior_weights, x.reshape(-1)[plan.exterior_cells],
                boundary.t_gnd, boundary.t_sky, t_inf,
            )
        if config.enable_interior_lw:
            surface_t = exchange.surface_temperatures(x.reshape(-1), plan.surface_cells)
            flux = apply_interior_lw(exchange, surface_t)
            interior = scatter_interior_lw(exchange, flux, plan.surface_slots, plan.lw_cells.size)
        field = x
        for cells in sweeps:
            east, north, west, south = shift_fields(pad, field)
            np.multiply(g[0], east, out=term)
            np.add(const, term, out=numer)
            np.multiply(g[1], north, out=term)
            numer += term
            np.multiply(g[2], west, out=term)
            numer += term
            np.multiply(g[3], south, out=term)
            numer += term
            if config.enable_exterior_lw:
                numer_flat[plan.exterior_cells] += exterior
            if config.enable_interior_lw:
                numer_flat[plan.lw_cells] += interior
            if cells is None:
                np.divide(numer, plan.denom, out=image, where=plan.active)
            else:  # an alternating mask would defeat the ufunc's contiguous loop
                image.reshape(-1)[cells] = numer_flat[cells] / denom_flat[cells]
            field = image
        try:
            _check_temperatures(image, f"iteration {iterations}")
        except SolverError as exc:
            change = float(np.abs(image - x).max())
            note = boundary.heat_source_note()
            if change > last_delta:  # False for a NaN change and on the first pass
                note += (
                    f"; the iteration diverged (pass-to-pass change grew from "
                    f"{last_delta:.4g} K to {change:.4g} K) at dt = {config.dt:g} s"
                )
            raise SolverError(f"{exc}{note}") from None

        np.subtract(image, x, out=residual)
        max_delta = float(np.abs(residual, out=term).max())
        if max_delta < config.convergence_epsilon and (iterations > 1 or not predicted):
            converged = True
            break
        if iterations == config.max_inner_iterations:
            break
        if not mixed_from and max_delta > MIXING_GATE * last_delta:
            sweeps, mixed_from = (plan.red_cells, plan.black_cells), iterations
        x, image = image, x
        residual, last_residual = last_residual, residual
        last_delta = max_delta

    error_estimate = math.nan
    if converged and iterations > 1 and max_delta > 0.0 and last_delta > 0.0:
        # Aitken's delta-squared with one global ratio: the remaining
        # changes, each ratio times the last, sum to ratio / (1 - ratio) of it.
        ratio = max_delta / last_delta
        if ratio < EXTRAPOLATION_LIMIT and np.vdot(residual, last_residual) > 0.0:
            gain = ratio / (1.0 - ratio)
            residual *= gain
            image += residual
            error_estimate = max_delta * gain

    t_mass = None
    if config.enable_interior_mass:
        updated = update_mass(
            state.t_mass, image, q_tau_mass, plan.mass_t0, grid.z, config.mass_params.k_mass
        )
        t_mass = np.where(plan.air, updated, state.t_mass)

    new_state = ThermalState(
        t=image,
        t_mass=t_mass,
        step_index=state.step_index + 1,
        sim_clock=(state.sim_clock + timedelta(seconds=config.dt)) if state.sim_clock else None,
        t_before=state.t,
    )
    report = StepReport(
        inner_iterations=iterations,
        max_delta=max_delta,
        converged=converged,
        wall_time=time.perf_counter() - started,
        mixed_from=mixed_from,
        error_estimate=error_estimate,
    )
    return new_state, report


def make_initial_state(
    grid: BuildingGrid,
    config: SimulationConfig,
    records: Sequence[WeatherRecord],
    temperature: Optional[float] = None,
) -> ThermalState:
    """Uniform starting state at the first weather timestamp, mass nodes at air temperature."""
    t0 = temperature if temperature is not None else config.initial_temperature
    t = np.full((grid.rows, grid.cols), float(t0))
    return ThermalState(
        t=t,
        t_mass=t.copy() if config.enable_interior_mass else None,
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
    the whole horizon; failures carry the step index. Solar gains without
    a site fail before the plan is prepared.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps={n_steps} must be >= 1")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    if q_x is not None and np.shape(q_x) != (grid.rows, grid.cols):
        raise ValueError(f"q_x shape {np.shape(q_x)} != grid shape {(grid.rows, grid.cols)}")
    if config.enable_solar and config.site is None:
        raise ValueError("simulation.enable_solar is true but the plan has no site section")
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
