"""
heatgrid: 2D finite-difference building thermal simulation.

A floor plan is discretized into a grid of control volumes and the
temperature field advances through an element-wise energy balance that
covers conduction, convection, exterior and interior long-wave radiation,
solar gains through opaque and transparent surfaces, and lumped interior
thermal mass. Two solvers share the physics: a vectorized whole-grid
fixed-point solver and a deliberately independent node-by-node iterative
reference used to validate it.
"""

__version__ = "0.1.0"

from .building import (
    BuildingGrid,
    ConfigError,
    CvType,
    MaterialField,
    MassParams,
    SimulationConfig,
    ValidationError,
    assign_zones,
    classify_exposure,
    load_building,
    load_building_file,
    save_building,
    shift_fields,
)
from .conditions import StepBoundary, boundary_for_time
from .oracle_solver import energy_audit, oracle_step
from .radiation import (
    OpenCavityError,
    RadiationExchangeMatrix,
    STEFAN_BOLTZMANN,
    SolarBasis,
    ViewFactorSet,
    apply_interior_lw,
    assemble_exterior_lw_tensor,
    assemble_solar_tensors,
    build_exchange_matrix_2d,
    exterior_lw_weights,
    load_exchange_matrix,
    save_exchange_matrix,
    scatter_interior_lw,
    solar_basis,
    view_factors,
)
from .solar import (
    PoaIrradiance,
    SolarGeometry,
    angle_of_incidence,
    poa_for_orientations,
    poa_irradiance,
    solar_position,
)
from .tensor_solver import (
    Plan,
    SolverError,
    StepReport,
    ThermalState,
    make_initial_state,
    prepare,
    run_episode,
    step,
    update_mass,
)
from .weather import (
    SitePosition,
    WeatherFormatError,
    WeatherRecord,
    load_weather,
    load_weather_file,
    record_at,
    sky_temperature,
)

__all__ = [
    "BuildingGrid",
    "ConfigError",
    "CvType",
    "MassParams",
    "MaterialField",
    "OpenCavityError",
    "Plan",
    "PoaIrradiance",
    "RadiationExchangeMatrix",
    "STEFAN_BOLTZMANN",
    "SimulationConfig",
    "SitePosition",
    "SolarBasis",
    "SolarGeometry",
    "SolverError",
    "StepBoundary",
    "StepReport",
    "ThermalState",
    "ValidationError",
    "ViewFactorSet",
    "WeatherFormatError",
    "WeatherRecord",
    "angle_of_incidence",
    "apply_interior_lw",
    "assemble_exterior_lw_tensor",
    "assemble_solar_tensors",
    "assign_zones",
    "boundary_for_time",
    "build_exchange_matrix_2d",
    "classify_exposure",
    "energy_audit",
    "exterior_lw_weights",
    "load_building",
    "load_building_file",
    "load_exchange_matrix",
    "load_weather",
    "load_weather_file",
    "make_initial_state",
    "oracle_step",
    "poa_for_orientations",
    "poa_irradiance",
    "prepare",
    "record_at",
    "run_episode",
    "save_building",
    "save_exchange_matrix",
    "scatter_interior_lw",
    "shift_fields",
    "sky_temperature",
    "solar_basis",
    "solar_position",
    "step",
    "update_mass",
    "view_factors",
]
