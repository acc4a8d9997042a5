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
the lagged interior exchange) into buffers allocated once per step,
divides element-wise over the whole grid, and repeats until the largest
per-cell change drops below the convergence threshold; the step returns
that last Picard update. With every radiation feature and the mass
coupling disabled a single pass reduces to the bare conduction-convection
update.

Mixing is gated on the measured contraction. The first pass is always a
plain Picard update. From the first pass whose largest change exceeds
``MIXING_GATE`` times the previous one, every later iterate of the step
is a type-II Anderson mix of the last ``ANDERSON_WINDOW`` Picard updates.
The mix history restarts when the change grows or the mix cannot be
solved. The benchmark plans at dt=300 s contract fast enough that the
gate stays shut, so they iterate exactly as plain Picard does; at
dt=3,600 s, where plain Picard contracts by about 0.7 a pass, a 1,530-CV
plan takes 40 % fewer passes.

Each interior-air cell couples to a mass node (furnishings, slab) whose
temperature the state carries in ``t_mass``. Once the air field converges,
``update_mass`` advances those nodes explicitly; other nodes never change.

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
    shift_fields,
)
from .conditions import StepBoundary, boundary_for_time
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


#: Differences the Anderson mix keeps. On the 3x4-room 1,530-CV benchmark
#: plan at dt=3,600 s, the largest relative difference from the reference
#: solver over 24 steps is 1.3e-5 with 5 or 4, 2.0e-5 with 3 and 2.7e-5 with
#: 2, against 2.2e-5 for plain Picard; 5 takes 10.9 iterations a step, 3
#: takes 11.2 and plain Picard 18.2.
ANDERSON_WINDOW = 5
#: Mixing starts at the first iteration whose largest change is more than
#: this fraction of the previous one. At dt=300 s plain Picard contracts by
#: at most 0.35 a pass on the bundled plan and 0.31 on a 5,963-CV one.
#: Mixing every step would save 0.7 of 4.7 iterations a step on the first
#: and none on the second, at the cost of a mix per pass. At dt=3,600 s
#: plain Picard contracts by 0.46-0.83 from the fourth pass on.
MIXING_GATE = 0.5
#: Ridge added to the diagonal of the Anderson normal equations, relative to
#: their trace, so that collinear differences (a single live cell makes them
#: all parallel) still give a finite, small-norm mix. On the 1,530-CV hourly
#: plan any ridge from 1e-14 to 1e-6 gives the same iteration counts and
#: the same difference from the reference solver to four figures.
ANDERSON_RIDGE = 1e-10


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

    ``t`` is the current field (the converged field of the last step) and
    ``t_mass`` the interior mass node temperatures, None with mass off.
    """

    t: np.ndarray
    t_mass: Optional[np.ndarray] = None
    step_index: int = 0
    sim_clock: Optional[datetime] = None

    def validate(self, grid: BuildingGrid, mass: bool) -> None:
        """Check each field's shape and values; ``mass`` says whether ``t_mass`` is one."""
        shape = (grid.rows, grid.cols)
        fields = {"state": self.t, "state t_mass": self.t_mass} if mass else {"state": self.t}
        for context, field in fields.items():
            if field is None:
                raise SolverError(f"{context} is missing")
            if field.shape != shape:
                raise SolverError(f"{context} shape {field.shape} does not match grid {shape}")
            _check_temperatures(field, context)


@dataclass(frozen=True)
class StepReport:
    """Outcome of one timestep's inner iteration.

    ``max_delta`` is the largest change of the last Picard update;
    ``mixed_from`` the iteration at which Anderson mixing switched on (the
    iterate after it is the first mixed one), or 0 when the step ran plain
    Picard.
    """

    inner_iterations: int
    max_delta: float
    converged: bool
    wall_time: float
    mixed_from: int = 0


@dataclass(frozen=True)
class Plan:
    """A run's inputs and the arrays every step reuses; built by ``prepare``.

    No solver writes to a plan, so one serves any number of states on the
    same building. Conductances [W/K]: ``g`` per face in shift order (east,
    north, west, south), ``convection`` to ambient, ``capacity`` C/dt and
    ``coupling`` to the mass nodes; ``denom`` is their sum. ``active`` marks
    the cells that are not boundary padding. ``air`` marks the interior-air
    cells, whose mass nodes the step updates, and ``mass_t0`` is the update's
    ``rho c z^2 / (k dt)``; with mass off, they and ``coupling`` are None.
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
    air: Optional[np.ndarray]
    mass_t0: Optional[float]
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
    cells = weights = None
    if config.enable_exterior_lw:
        weights = exterior_lw_weights(grid, mats, config.envelope_layer_divisor)
        cells = np.flatnonzero(weights.any(axis=0))
        weights = weights.reshape(3, -1)[:, cells]
    solar = solar_basis(grid, mats) if config.enable_solar else None
    return Plan(grid, mats, config, exchange, active, g, convection, capacity, coupling,
                denom, air, mass_t0, cells, weights, solar)


class _AndersonHistory:
    """The last ``ANDERSON_WINDOW`` differences of residuals and Picard images.

    Type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011):
    with ``dF`` and ``dG`` the stored differences of residuals ``f = G(x) - x``
    and of images ``G(x)``, the next iterate is ``G(x_k) - dG gamma``, where
    ``gamma`` minimizes ``|f_k - dF gamma|`` through the ridge-regularized
    normal equations. The differences sit in a ring of ``ANDERSON_WINDOW``
    slots; their Gram matrix gains one row and column per iteration.
    """

    def __init__(self, shape: Tuple[int, int]):
        m = ANDERSON_WINDOW
        self.d_residual = np.empty((m,) + shape)
        self.d_image = np.empty((m,) + shape)
        self.flat_residual = self.d_residual.reshape(m, -1)
        self.flat_image = self.d_image.reshape(m, -1)
        self.gram = np.empty((m, m))
        self.eye = np.eye(m)
        self.count = self.slot = 0

    def restart(self) -> None:
        """Drop every difference."""
        self.count = self.slot = 0

    def mix(
        self,
        x: np.ndarray,
        image: np.ndarray,
        last_image: np.ndarray,
        residual: np.ndarray,
        last_residual: np.ndarray,
    ) -> bool:
        """Add the newest differences and write the mixed iterate into ``x``.

        Returns False, with ``x`` not written, when the normal equations
        are singular or give a non-finite ``gamma``.
        """
        s = self.slot
        np.subtract(residual, last_residual, out=self.d_residual[s])
        np.subtract(image, last_image, out=self.d_image[s])
        self.count = c = min(self.count + 1, ANDERSON_WINDOW)
        self.slot = (s + 1) % ANDERSON_WINDOW
        d_residual = self.flat_residual[:c]
        self.gram[s, :c] = self.gram[:c, s] = d_residual @ d_residual[s]
        gram = self.gram[:c, :c]
        normal = gram + (ANDERSON_RIDGE * gram.trace()) * self.eye[:c, :c]
        try:
            gamma = np.linalg.solve(normal, d_residual @ residual.reshape(-1))
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(gamma).all():
            return False
        np.matmul(gamma, self.flat_image[:c], out=x.reshape(-1))
        np.subtract(image, x, out=x)
        return True


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
    """
    started = time.perf_counter()
    grid, config, exchange, g = plan.grid, plan.config, plan.exchange, plan.g
    state.validate(grid, config.enable_interior_mass)
    t_inf = boundary.t_inf
    for name in ("t_inf", "t_gnd", "t_sky"):
        value = getattr(boundary, name)
        if not 0.0 < value < np.inf:
            raise SolverError(f"boundary {name}={value} is not finite and > 0 K")

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
    x = np.where(plan.active, state.t, t_inf)
    image = np.full(shape, t_inf)
    numer, term = np.empty(shape), np.empty(shape)
    residual, last_residual = np.empty(shape), np.empty(shape)
    last_image = history = None
    converged = False
    max_delta = last_delta = np.inf
    iterations = mixed_from = 0
    for iterations in range(1, config.max_inner_iterations + 1):
        # image = G(x), the Picard update of the iterate x
        east, north, west, south = shift_fields(pad, x)
        np.multiply(g[0], east, out=term)
        np.add(const, term, out=numer)
        np.multiply(g[1], north, out=term)
        numer += term
        np.multiply(g[2], west, out=term)
        numer += term
        np.multiply(g[3], south, out=term)
        numer += term
        if config.enable_exterior_lw:
            cells = plan.exterior_cells
            numer.reshape(-1)[cells] += assemble_exterior_lw_tensor(
                plan.exterior_weights, x.reshape(-1)[cells],
                boundary.t_gnd, boundary.t_sky, t_inf,
            )
        if config.enable_interior_lw:
            flux = apply_interior_lw(exchange, exchange.surface_temperatures(x))
            numer += scatter_interior_lw(exchange, flux, grid)
        np.divide(numer, plan.denom, out=image, where=plan.active)
        _check_temperatures(image, f"iteration {iterations}")

        np.subtract(image, x, out=residual)
        max_delta = float(np.abs(residual, out=term).max())
        if max_delta < config.convergence_epsilon:
            converged = True
            break
        if iterations == config.max_inner_iterations:
            break
        if history is None and max_delta > MIXING_GATE * last_delta:
            # Plain Picard so far, so the iterate is the last image.
            history = _AndersonHistory(shape)
            last_image, x = x, np.empty(shape)
            mixed_from = iterations
        if history is None:
            x, image = image, x
        else:
            if max_delta > last_delta or not history.mix(
                x, image, last_image, residual, last_residual
            ):
                history.restart()
                np.copyto(x, image)
            image, last_image = last_image, image
        residual, last_residual = last_residual, residual
        last_delta = max_delta

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
    )
    report = StepReport(
        inner_iterations=iterations,
        max_delta=max_delta,
        converged=converged,
        wall_time=time.perf_counter() - started,
        mixed_from=mixed_from,
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
