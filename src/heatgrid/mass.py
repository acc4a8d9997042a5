"""
Interior thermal mass nodes.

Each interior-air cell couples to a sub-grid mass node (furnishings, slab)
through a conductance built from the mass conductivity and the floor
height. Transmitted solar radiation is deposited on the mass nodes when
they are enabled. After the air field converges at each timestep the mass
temperature updates explicitly:

    T_mass = (T + q z / k_mass + t0 * T_mass_prev) / (1 + t0)

with the temporal parameter t0 = rho_mass c_mass z^2 / (k_mass dt). Large
t0 (short steps or heavy mass) freezes the node; t0 -> 0 collapses it to
the steady value T + q z / k_mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .building import BuildingGrid, CvType, SimulationConfig


@dataclass
class MassState:
    """Mass temperature field plus its fixed coupling parameters.

    ``t_mass`` holds node temperatures [K] on interior-air cells (other
    cells keep a placeholder equal to their initial value and never
    change). ``t0_mass`` is the dimensionless temporal parameter and
    ``k_mass_field`` the coupling conductivity [W/(m K)]; both are zero off
    air cells, which removes the coupling from every non-air balance.
    """

    t_mass: np.ndarray
    t0_mass: np.ndarray
    k_mass_field: np.ndarray


def mass_conductivity(grid: BuildingGrid, config: SimulationConfig) -> np.ndarray:
    """Coupling conductivity [W/(m K)]: ``k_mass`` on interior-air cells, zero elsewhere."""
    k_mass = config.mass_params.k_mass
    if k_mass <= 0.0:
        raise ValueError(f"k_mass={k_mass} must be > 0 when mass is enabled")
    return np.where(grid.cv_type == int(CvType.INTERIOR_AIR), k_mass, 0.0)


def init_mass(
    grid: BuildingGrid, config: SimulationConfig, initial_temperature: np.ndarray
) -> MassState:
    """Create mass nodes on interior-air cells, starting at air temperature.

    Starting the nodes at the initial air field makes the initial mass-air
    flux exactly zero, so enabling mass introduces no startup transient.
    """
    params = config.mass_params
    k_mass_field = mass_conductivity(grid, config)
    t0_value = params.rho_mass * params.c_mass * grid.z**2 / (params.k_mass * config.dt)
    return MassState(
        t_mass=np.array(initial_temperature, dtype=float, copy=True),
        t0_mass=np.where(k_mass_field > 0.0, t0_value, 0.0),
        k_mass_field=k_mass_field,
    )


def update_mass(
    state: MassState, t_converged: np.ndarray, q_sol_tau: np.ndarray, z: float
) -> MassState:
    """Explicit post-convergence mass update; returns a new state.

    Applies the update element-wise on coupled (interior-air) cells and
    leaves every other node untouched. ``q_sol_tau`` is the transmitted
    solar flux density per plan area [W/m^2] routed to the nodes (zero
    when solar is off or when the flux goes to the air balance instead);
    ``z`` is the floor height the coupling was built with.
    """
    coupled = state.k_mass_field > 0.0
    k_safe = np.where(coupled, state.k_mass_field, 1.0)
    updated = (t_converged + q_sol_tau * z / k_safe + state.t0_mass * state.t_mass) / (
        1.0 + state.t0_mass
    )
    return MassState(
        t_mass=np.where(coupled, updated, state.t_mass),
        t0_mass=state.t0_mass,
        k_mass_field=state.k_mass_field,
    )
