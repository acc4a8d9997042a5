"""
Vectorized whole-grid temperature solver.

``prepare`` computes once per run everything no step changes: the face
conductances, the balance denominator, the mass coupling, the radiating
cells (the envelope cells with an exposed face and the cells that own an
interior exchange surface) with their exterior long-wave weights and
weight sums, each exchange block's operator and the radiating cell of
each of its slots, the radiation's Newton coefficients, the sweep
settings, and the solar basis. Each ``step(state, plan, boundary)`` then
solves the nonlinear balance by Picard fixed-point iteration. It forms
the constant part of the numerator once: heat source, convection, stored
heat, mass coupling, solar (added by index on the exposed and air cells
it reaches), and the long-wave the environment sends the envelope, ``sum_k
w_k T_k^4`` over ground, sky and air. Each inner pass
adds only the iterate-dependent terms into buffers allocated once per
step: the shifted conduction, and on the radiating cells one vector of
long-wave lagged at the pass's iterate. That vector comes from one gather
``x`` of the radiating cells, whose ``x^3`` and ``x^4`` are products: the
interior exchange, which gathers ``x^4`` into the block slots, applies
each block's ``sigma A_i (F - diag R)`` rows and sums the slots into their
cells with one ``bincount``, less the exterior emission ``sum(w) x^4``.
The pass then divides element-wise over the whole grid, and the step
repeats until the largest per-cell change drops below the convergence
threshold. Each pass checks its iterate with one least value and the
finiteness of that largest change, and only on a failure looks for the
cell to name. With every radiation feature and the mass coupling
disabled a single pass from the state's field reduces to the bare
conduction-convection update.

A step's passes are Jacobi updates or red-black sweeps. A Jacobi pass
updates every live cell from the iterate. A swept pass updates the live
cells with ``r + c`` even from the iterate, then the odd ones from the
even values just written; a cell's four neighbours all have the other
colour, so each half is one whole-grid conduction and one whole-grid
update, weighted by a per-colour gain that is zero off the colour. For
the 5-point stencil this ordering is consistently ordered (Young,
*Iterative Solution of Large Linear Systems*, 1971): a Gauss-Seidel sweep
contracts by the square of the Jacobi radius ``rho_J``, and
over-relaxing each colour, ``x + omega (GS - x)``, by ``omega = 2 / (1 +
sqrt(1 - rho_J^2))`` contracts by about ``omega - 1``. ``prepare``
estimates ``rho_J`` of the conduction balance by power iteration. A step
picks one pass kind before its first update. It sweeps every pass,
over-relaxed, when ``rho_J^2 > MIXING_GATE``, or at ``omega = 1`` when
radiation would dominate a Jacobi pass: when the Jacobi contraction of
some cell's lagged radiation at the starting iterate, ``plan.newton
x^3``, exceeds ``MIXING_GATE``. Every other step makes Jacobi passes only.

Every pass lags the exterior and interior long-wave at its starting
iterate ``x``. A swept pass also puts each radiating cell's Newton
diagonal ``d = 4 sum(w) x^3 + 4 sigma sum_s A_s R_s x^3`` on its
balance: ``d x`` joins the numerator and ``d`` the denominator, which
cancel at the fixed point. So a colour's correction is ``omega (numer -
denom x) / (denom + d)``. Without ``d`` over-relaxed sweeps diverge at
long steps, where radiation dominates the contraction; with it a
radiation-dominated cell converges like Newton's method. Jacobi passes
keep the plain lagged radiation, so steps under the gate, the benchmark
plans at dt=300 s among them, run the same arithmetic as plain Picard
passes. On the bundled plan, steps of 1,800 s and more sweep.

Predict, then extrapolate. A step whose state carries ``t_before`` starts
from the linear prediction ``2 t - t_before`` rather than from ``t``, and
does not stop on its first pass; every vectorized step hands its incoming
``t`` on as the next ``t_before``. A step that converges after ``k >= 2``
passes returns ``G(x_k) + r_k rho / (1 - rho)``, Aitken's delta-squared
with the one global ratio ``rho = delta_k / delta_{k-1}`` of its last two
largest changes, when ``rho < EXTRAPOLATION_LIMIT`` and the last two
residuals point the same way (an oscillating iteration would be pushed
away from its fixed point); otherwise it returns the last update
``G(x_k)``. Over-relaxed residuals turn from pass to pass, so a swept
step that converges after three or more passes first tries two global
ratios, fitted to its last three residuals (see
``_two_ratio_correction``), and falls back to Aitken's rule when the fit
is not determined. The prediction halves the passes at dt=300 s, and the
extrapolation removes the one-sided stopping error that the iteration
would otherwise carry from step to step in the stored heat.

Each interior-air cell couples to a mass node (furnishings, slab) whose
temperature the state carries in ``t_mass``. Once the air field converges,
``update_mass`` advances those nodes explicitly; other nodes never change.

Temperatures shifted in from outside the grid carry the ambient value;
boundary-padding cells are pinned to ambient, so they never change and
drop out of the convergence measure.

``run_episode`` works out the boundary of every step before the first
one, as arrays over the step instants (``conditions.boundary_series``),
and hands each step its row through ``boundary_for_time``.
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
from .conditions import SolverError, StepBoundary, boundary_for_time, boundary_series
from .radiation import (
    STEFAN_BOLTZMANN,
    RadiationExchangeMatrix,
    SolarBasis,
    apply_interior_lw,
    assemble_exterior_lw_tensor,
    assemble_solar_tensors,
    build_exchange_matrix_2d,
    exterior_lw_weights,
    interior_lw_operators,
    scatter_interior_lw,
    solar_basis,
)
from .weather import WeatherRecord


#: A step sweeps when its plan's squared Jacobi radius, or the largest
#: ``newton x^3`` at its starting iterate, exceeds this. At dt=300 s the
#: row-sum bound on the squared radius is 0.20 on the bundled plan and on
#: a 5,963-CV one, and ``newton x^3`` is at most 0.008 (0.09 at 3,600 s),
#: so those steps make Jacobi passes. At 3,600 s the squared radius is
#: about 0.65.
MIXING_GATE = 0.5
#: Power iterations of the Jacobi radius estimate in ``prepare``.
RADIUS_ITERATIONS = 20
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


def _check_pass(
    image: np.ndarray, change: float, last_change: float, iterations: int,
    boundary: StepBoundary, dt: float,
) -> None:
    """Raise ``SolverError`` if pass ``iterations`` left a cell not finite and > 0 K.

    ``change`` is the pass's largest change from a finite iterate, so the
    image is finite and > 0 K when its least value is > 0 and ``change`` is
    finite (a NaN fails both). The error names the cell, as
    ``_check_temperatures`` does, then any non-finite heat source and, when
    the change grew from the last pass's ``last_change``, the divergence.
    """
    if image.min() > 0.0 and change < math.inf:
        return
    note = boundary.heat_source_note()
    if change > last_change:  # False for a NaN change and on the first pass
        note += (
            f"; the iteration diverged (pass-to-pass change grew from "
            f"{last_change:.4g} K to {change:.4g} K) at dt = {dt:g} s"
        )
    try:
        _check_temperatures(image, f"iteration {iterations}")
    except SolverError as exc:
        raise SolverError(f"{exc}{note}") from None


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
    is 1 when the step's passes were red-black sweeps and 0 when they were
    Jacobi updates. ``error_estimate`` is the largest per-cell correction
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

    Every array a plan reaches is read-only, so one serves any number of
    states on the same building. Conductances [W/K]: ``g`` per face in
    shift order (east, north, west, south), ``convection`` to ambient,
    ``capacity`` C/dt and ``coupling`` to the mass nodes; ``denom`` is
    their sum on live cells and 1 on boundary padding. ``active`` marks
    the live cells, those that are not boundary padding, and ``padding``
    holds the flat indices of the others. ``omega`` is the
    over-relaxation factor of a swept pass, 1 unless ``sweep_from_start``,
    and ``colour_gains`` are ``omega / denom`` on the live cells with ``r +
    c`` even and odd, 0 elsewhere.
    ``air`` holds the ascending flat indices of the interior-air cells,
    whose mass nodes the step updates, and ``mass_t0`` is the update's
    ``rho c z^2 / (k dt)``; with mass off, they and ``coupling`` are None.
    ``solar`` is the solar basis, None with solar off.
    ``newton_cells`` are the flat indices, ascending, of the radiating
    cells: those with a non-zero exterior long-wave weight (the envelope
    cells with an exposed face) and those that own an interior exchange
    surface. Per radiating cell, ``exterior_weights`` are the ``(3, n)``
    exterior weights (None with exterior long-wave off) and
    ``weight_sums`` their sum ``sum(w)`` (zero with it off), and
    ``newton`` turns the cube of the cell's temperature into the
    radiation's Newton diagonal relative to ``denom`` [1/K^3]: ``4
    sum(w)`` plus ``4 sigma sum_s A_s R_s`` over the interior surfaces it
    owns, ``R_s`` each one's row sum. ``lw_operators`` holds one
    ``interior_lw_operators`` block per exchange block, and
    ``lw_positions`` the position in ``newton_cells`` of the cell of
    every block slot, the blocks' slots one after the other, a padding
    slot taking its block's first; both are empty with interior
    long-wave off.
    """

    grid: BuildingGrid
    mats: MaterialField
    config: SimulationConfig
    exchange: Optional[RadiationExchangeMatrix]
    active: np.ndarray
    padding: np.ndarray
    omega: float
    sweep_from_start: bool
    colour_gains: Tuple[np.ndarray, np.ndarray]
    g: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    convection: np.ndarray
    capacity: np.ndarray
    coupling: Optional[np.ndarray]
    denom: np.ndarray
    air: Optional[np.ndarray]
    mass_t0: Optional[float]
    solar: Optional[SolarBasis]
    newton_cells: np.ndarray
    newton: np.ndarray
    exterior_weights: Optional[np.ndarray]
    weight_sums: np.ndarray
    lw_positions: np.ndarray
    lw_operators: Tuple[np.ndarray, ...]


def prepare(grid: BuildingGrid, mats: MaterialField, config: SimulationConfig) -> Plan:
    """Compute everything a run's steps share, once, into read-only arrays.

    Builds the interior exchange matrix when interior long-wave is on. A
    non-positive balance denominator on a live cell, as ``mats`` made for
    another grid can give, raises naming the cell.
    """
    exchange = build_exchange_matrix_2d(grid, mats) if config.enable_interior_lw else None

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
        air_mask = grid.cv_type == int(CvType.INTERIOR_AIR)
        air = np.flatnonzero(air_mask)
        coupling = np.where(air_mask, params.k_mass, 0.0) * u * v / z
        denom = denom + coupling
        mass_t0 = params.rho_mass * params.c_mass * z**2 / (params.k_mass * config.dt)
    active = grid.cv_type != int(CvType.BOUNDARY)
    bad = active & (denom <= 0.0)
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        raise SolverError(
            f"non-positive balance denominator {denom[r, c]} at cell ({r}, {c})"
        )
    denom = np.where(active, denom, 1.0)
    radius_squared = _jacobi_radius_squared(g, denom, active)
    sweep_from_start = radius_squared > MIXING_GATE
    omega = 2.0 / (1.0 + math.sqrt(1.0 - min(radius_squared, 1.0))) if sweep_from_start else 1.0
    even = np.add.outer(np.arange(grid.rows), np.arange(grid.cols)) % 2 == 0
    gain = np.where(active, omega / denom, 0.0)
    colour_gains = (np.where(even, gain, 0.0), np.where(even, 0.0, gain))
    radiating = np.zeros(grid.rows * grid.cols, dtype=bool)
    if config.enable_exterior_lw:
        weights = exterior_lw_weights(grid, mats).reshape(3, -1)
        radiating |= weights.any(axis=0)
    if config.enable_interior_lw:
        surface_cells = np.ravel_multi_index(
            (exchange.surface_rows, exchange.surface_cols), (grid.rows, grid.cols)
        )
        radiating[surface_cells] = True
    newton_cells = np.flatnonzero(radiating)
    exterior_weights, weight_sums = None, np.zeros(newton_cells.size)
    if config.enable_exterior_lw:
        exterior_weights = weights[:, newton_cells]
        weight_sums = exterior_weights.sum(axis=0)
    newton = 4.0 * weight_sums
    lw_positions, lw_operators = np.zeros(0, dtype=np.intp), ()
    if config.enable_interior_lw:
        # each block slot's radiating cell; a padding slot takes its block's
        # first surface's, so that its fourth power offsets to zero
        surface_positions = np.searchsorted(newton_cells, surface_cells)
        lw_positions = np.concatenate([
            surface_positions[np.where(index < exchange.n_surfaces, index, index[:, :1])].ravel()
            for index, _, _ in exchange.blocks
        ])
        lw_operators = interior_lw_operators(exchange)
        row_sums = np.zeros(exchange.n_surfaces + 1)  # entry n takes the padding slots
        for index, _, sums in exchange.blocks:
            row_sums[index] = sums
        newton += 4.0 * STEFAN_BOLTZMANN * np.bincount(
            surface_positions, weights=exchange.areas * row_sums[:-1], minlength=newton_cells.size
        )
    solar = solar_basis(grid, mats) if config.enable_solar else None
    plan = Plan(grid, mats, config, exchange, active, np.flatnonzero(~active), omega,
                sweep_from_start, colour_gains, g, convection, capacity, coupling, denom, air,
                mass_t0, solar, newton_cells,
                newton / denom.reshape(-1)[newton_cells], exterior_weights, weight_sums,
                lw_positions, lw_operators)
    for value in vars(plan).values():
        for array in value if isinstance(value, tuple) else (value,):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
    return plan


def _jacobi_radius_squared(
    g: Tuple[np.ndarray, ...], denom: np.ndarray, active: np.ndarray
) -> float:
    """The squared spectral radius of a Jacobi pass over the conduction balance.

    That pass multiplies the error by ``D^-1 N``, with ``D`` the balance
    denominator and ``N`` the conductances between live neighbours. Face
    conductances are symmetric, so its eigenvalues are those of the
    symmetric ``S = D^-1/2 N D^-1/2``, and on the two-coloured grid they
    come in pairs ``+-rho``. ``RADIUS_ITERATIONS`` power iterations of ``S``
    from ``D^1/2`` estimate ``rho^2`` from below by the Rayleigh quotient
    ``|S v|^2 / |v|^2`` of ``S^2``. When the row-sum bound
    ``max(sum g / D)`` squared is at most ``MIXING_GATE``, it is returned
    without iterating.
    """
    scale = np.where(active, 1.0 / np.sqrt(denom), 0.0)
    bound_squared = float(((g[0] + g[1] + g[2] + g[3]) * scale**2).max()) ** 2
    if bound_squared <= MIXING_GATE:
        return bound_squared
    pad = np.zeros((denom.shape[0] + 2, denom.shape[1] + 2))
    v = np.where(active, np.sqrt(denom), 0.0)
    v /= math.sqrt(np.vdot(v, v))
    radius_squared = 0.0
    for _ in range(RADIUS_ITERATIONS):
        east, north, west, south = shift_fields(pad, scale * v)
        v = scale * (g[0] * east + g[1] * north + g[2] * west + g[3] * south)
        radius_squared = float(np.vdot(v, v))
        if radius_squared == 0.0:
            break
        v /= math.sqrt(radius_squared)
    return radius_squared


def _add_conduction(
    numer: np.ndarray, start: np.ndarray, g: Tuple[np.ndarray, ...],
    neighbours: Tuple[np.ndarray, ...], term: np.ndarray,
) -> None:
    """``numer = start + sum_d g_d neighbour_d``, through the buffer ``term``."""
    np.multiply(g[0], neighbours[0], out=term)
    np.add(start, term, out=numer)
    np.multiply(g[1], neighbours[1], out=term)
    numer += term
    np.multiply(g[2], neighbours[2], out=term)
    numer += term
    np.multiply(g[3], neighbours[3], out=term)
    numer += term


def _two_ratio_correction(
    residual: np.ndarray, last: np.ndarray, older: np.ndarray
) -> Optional[np.ndarray]:
    """The remaining changes of an over-relaxed step, summed, or None.

    Over-relaxed residuals turn from pass to pass, so one ratio cannot
    follow them. Fit ``r_k = a r_{k-1} + b r_{k-2}`` over the grid by least
    squares to the last three residuals; if the later ones follow the same
    recurrence, they sum to ``((a + b) r_k + b r_{k-1}) / (1 - a - b)``
    (Shanks' second-order transform; ``b = 0`` gives Aitken's). None when
    the two older residuals are nearly parallel (the squared sine of their
    angle below 1e-6), so that the fit is not determined, or when
    ``1 - a - b`` is at most ``1 - EXTRAPOLATION_LIMIT``, the bound on
    Aitken's ``1 - ratio``.
    """
    a11, a12, a22 = np.vdot(last, last), np.vdot(last, older), np.vdot(older, older)
    det = a11 * a22 - a12 * a12
    if not det > 1e-6 * a11 * a22:
        return None
    c1, c2 = np.vdot(last, residual), np.vdot(older, residual)
    a, b = (c1 * a22 - c2 * a12) / det, (c2 * a11 - c1 * a12) / det
    remaining = 1.0 - a - b
    if not remaining > 1.0 - EXTRAPOLATION_LIMIT:
        return None
    correction = np.multiply(residual, (a + b) / remaining)
    correction += last * (b / remaining)
    return correction


def _lagged_radiation(
    plan: Plan, positions: np.ndarray, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The long-wave into the radiating cells at temperatures ``x`` [W], and ``x^3``.

    Interior exchange less each cell's exterior emission ``sum(w) x^4``;
    the step adds what the environment sends once, to its constant part.
    ``positions`` is a writable copy of ``plan.lw_positions``.
    """
    cubes = x * x
    cubes *= x
    fourth = cubes * x
    emitted = plan.weight_sums * fourth
    if plan.exchange is None:
        return np.negative(emitted, out=emitted), cubes
    slots = plan.exchange.surface_temperatures(fourth, positions)
    radiation = scatter_interior_lw(apply_interior_lw(plan.lw_operators, slots), positions, x.size)
    radiation -= emitted
    return radiation, cubes


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
    shape = (grid.rows, grid.cols)
    state.validate(grid, config.enable_interior_mass)
    boundary.validate(shape)
    t_inf = boundary.t_inf

    # The constant part of the numerator: everything the iterate does not change.
    const = plan.convection * t_inf
    const += plan.capacity * state.t
    const_flat = const.reshape(-1)
    if boundary.q_x is not None:
        const += boundary.q_x
    if config.enable_interior_mass:
        const += plan.coupling * state.t_mass
    q_air_mass = 0.0  # the transmitted solar into each air cell's mass node [W/m^2]
    if config.enable_solar:  # added on the cells it reaches
        basis = plan.solar
        q_sol_alpha, q_sol_tau, q_air_mass = assemble_solar_tensors(
            basis, boundary.poa, config.enable_interior_mass
        )
        const_flat[basis.cells] += q_sol_alpha
        if not config.enable_interior_mass:
            const_flat[basis.air] += q_sol_tau
    if config.enable_exterior_lw:
        # what the environment sends, the exterior term of a surface at 0 K;
        # each pass subtracts what the surface emits
        const_flat[plan.newton_cells] += assemble_exterior_lw_tensor(
            plan.exterior_weights, 0.0, boundary.t_gnd, boundary.t_sky, t_inf
        )

    pad = np.full((grid.rows + 2, grid.cols + 2), t_inf)
    # Start from the linear prediction in time. Its first pass cannot end
    # the step, so a budget of one pass starts from t. Boundary padding
    # stays at ambient: each Jacobi pass puts it back, and a swept pass
    # leaves it where it is.
    predicted = state.t_before is not None and config.max_inner_iterations > 1
    if predicted:
        x = np.multiply(state.t, 2.0)
        x -= state.t_before
    else:
        x = state.t.copy()
    padded = plan.padding.size > 0  # an empty fancy index still costs a microsecond
    if padded:
        x.reshape(-1)[plan.padding] = t_inf
    image = np.empty(shape)
    numer, term = np.empty(shape), np.empty(shape)
    numer_flat = numer.reshape(-1)
    radiating = plan.newton_cells.size > 0
    positions = plan.lw_positions.copy()  # np.bincount copies a read-only index on every call
    if radiating:
        radiation, cubes = _lagged_radiation(plan, positions, x.reshape(-1)[plan.newton_cells])
    # one pass kind a step; radiation that would dominate a Jacobi pass sweeps
    swept = plan.sweep_from_start or (radiating and (plan.newton * cubes).max() > MIXING_GATE)
    if swept:  # flat copies of the colour gains, whose Newton entries each pass rewrites
        gains = [gain.reshape(-1).copy() for gain in plan.colour_gains]
        newton_gains = [gain[plan.newton_cells] for gain in gains]
        base = np.empty(shape)
        base_flat = base.reshape(-1)
    # the residuals of the last passes, pass k's at k modulo their count
    residuals = [np.empty(shape) for _ in range(3 if swept else 2)]
    converged = False
    max_delta = last_delta = np.inf
    for iterations in range(1, config.max_inner_iterations + 1):
        # image = G(x), with radiation lagged at x
        if not swept:  # one Jacobi update of every live cell from x
            _add_conduction(numer, const, g, shift_fields(pad, x), term)
            if radiating:
                numer_flat[plan.newton_cells] += radiation
            np.divide(numer, plan.denom, out=image)
            if padded:
                image.reshape(-1)[plan.padding] = t_inf
        else:
            # Each colour moves its cells omega of the way to their
            # Gauss-Seidel value: by gain (numer - denom x), with gain
            # omega / (denom + d) on the colour and d the Newton diagonal of
            # the cell's radiation at x. Red cells read x, black ones the red
            # values just written.
            np.multiply(plan.denom, x, out=base)
            np.subtract(const, base, out=base)
            if radiating:
                base_flat[plan.newton_cells] += radiation
                growth = plan.newton * cubes  # (denom + d) / denom, once 1 is added
                growth += 1.0
                for gain, newton_gain in zip(gains, newton_gains):
                    gain[plan.newton_cells] = newton_gain / growth
            field = x
            for gain in gains:
                _add_conduction(numer, base, g, shift_fields(pad, field), term)
                numer_flat *= gain
                np.add(field, numer, out=image)
                field = image
        residual = residuals[iterations % len(residuals)]
        np.subtract(image, x, out=residual)
        max_delta = float(np.abs(residual, out=term).max())
        _check_pass(image, max_delta, last_delta, iterations, boundary, config.dt)
        if max_delta < config.convergence_epsilon and (iterations > 1 or not predicted):
            converged = True
            break
        if iterations == config.max_inner_iterations:
            break
        x, image = image, x
        last_delta = max_delta
        if radiating:
            radiation, cubes = _lagged_radiation(plan, positions, x.reshape(-1)[plan.newton_cells])

    error_estimate = math.nan
    if converged and iterations > 1 and max_delta > 0.0 and last_delta > 0.0:
        last_residual = residuals[(iterations - 1) % len(residuals)]
        correction = None
        if swept and iterations > 2:
            older = residuals[(iterations - 2) % len(residuals)]
            correction = _two_ratio_correction(residual, last_residual, older)
        ratio = max_delta / last_delta
        if correction is not None:
            error_estimate = float(np.abs(correction).max())
        elif ratio < EXTRAPOLATION_LIMIT and np.vdot(residual, last_residual) > 0.0:
            # Aitken's delta-squared with one global ratio: the remaining
            # changes, each ratio times the last, sum to ratio / (1 - ratio) of it.
            gain = ratio / (1.0 - ratio)
            correction = residual
            correction *= gain
            error_estimate = max_delta * gain
        if correction is not None:
            image += correction

    t_mass = None
    if config.enable_interior_mass:  # only the air cells' nodes move
        t_mass = state.t_mass.copy()
        t_mass.reshape(-1)[plan.air] = update_mass(
            t_mass.reshape(-1)[plan.air], image.reshape(-1)[plan.air], q_air_mass,
            plan.mass_t0, grid.z, config.mass_params.k_mass,
        )

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
        mixed_from=int(swept),
        error_estimate=error_estimate,
    )
    return new_state, report


def make_initial_state(
    grid: BuildingGrid,
    config: SimulationConfig,
    records: Sequence[WeatherRecord],
) -> ThermalState:
    """Uniform starting state at ``config.initial_temperature`` and the first weather
    timestamp, mass nodes at air temperature."""
    t = np.full((grid.rows, grid.cols), float(config.initial_temperature))
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
    q_x: Optional[np.ndarray] = None,
    snapshot_every: int = 1,
) -> Tuple[List[ThermalState], List[StepReport]]:
    """Run ``n_steps`` timesteps and collect state snapshots and reports.

    Works out every step's boundary in one ``boundary_series``, prepares
    one plan and drives any solver exposing the common ``(state, plan,
    boundary)`` step signature (the vectorized one by default) from the
    uniform initial state, handing each step its row through
    ``boundary_for_time``. The weather series must cover the whole horizon,
    and a step outside it fails, naming the step, before the first step
    runs; a step's own failure carries its index too. Solar gains without
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
    state = make_initial_state(grid, config, records)
    series = boundary_series(
        records, config.site, state.sim_clock, config.dt, n_steps, config.enable_solar
    )
    plan = prepare(grid, mats, config)

    snapshots: List[ThermalState] = []
    reports: List[StepReport] = []
    for index in range(n_steps):
        try:
            state, report = stepper(state, plan, boundary_for_time(series, index, q_x))
        except (SolverError, ValueError) as exc:
            raise SolverError(f"step {index}: {exc}") from exc
        reports.append(report)
        if (index + 1) % snapshot_every == 0 or index == n_steps - 1:
            snapshots.append(state)
    return snapshots, reports
