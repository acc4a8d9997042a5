"""
Per-step boundary conditions derived from the weather series.

Both solvers consume the same StepBoundary: ambient, ground, and sky
temperatures plus plane-of-array irradiance per facade. Weather records
are held constant between timestamps. Each solver checks its boundary with
``StepBoundary.validate`` before a step starts, so a bad value fails naming
the field rather than surfacing as a bad iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Sequence, Tuple

import numpy as np

from .solar import ORIENTATIONS, PoaIrradiance, poa_for_orientations, solar_position
from .weather import SitePosition, WeatherRecord, record_at, sky_temperature


class SolverError(RuntimeError):
    """Raised on numerical degeneracy or invalid solver inputs."""


@dataclass(frozen=True)
class StepBoundary:
    """Boundary conditions for one simulation step."""

    t_inf: float  # ambient air [K]
    t_gnd: float  # ground [K]
    t_sky: float  # effective sky [K]
    poa: PoaIrradiance
    q_x: Optional[np.ndarray] = None  # external heat source [W per cell]

    def validate(self, shape: Tuple[int, int], solar: bool) -> None:
        """Raise ``SolverError`` naming the first field a step on a ``shape`` grid cannot use.

        Temperatures must be finite and > 0 K. With ``solar`` on, every
        facade's POA irradiance must be present, finite and >= 0 W/m^2.
        ``q_x``, when given, must have the grid's shape. Its entries are
        not scanned here: a non-finite one makes its cell's first update
        non-finite, and the solver's error for that update names it through
        ``heat_source_note``.
        """
        for name in ("t_inf", "t_gnd", "t_sky"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise SolverError(f"boundary {name}={value} is not finite and > 0 K")
        if solar:
            for orientation in ORIENTATIONS:
                g = self.poa.g_ts.get(orientation)
                if g is None:
                    raise SolverError(f"boundary has no {orientation} POA irradiance")
                if not 0.0 <= g < math.inf:
                    raise SolverError(
                        f"boundary {orientation} POA irradiance {g} W/m^2 is not finite and >= 0"
                    )
        if self.q_x is not None and np.shape(self.q_x) != shape:
            raise SolverError(f"boundary q_x shape {np.shape(self.q_x)} != grid shape {shape}")

    def heat_source_note(self) -> str:
        """For a solver error: a clause naming the first non-finite ``q_x`` entry, if any."""
        if self.q_x is None or np.isfinite(self.q_x).all():
            return ""
        r, c = np.argwhere(~np.isfinite(self.q_x))[0]
        return f"; boundary q_x is {self.q_x[r, c]} W at cell ({r}, {c}), not finite"


def boundary_for_time(
    records: Sequence[WeatherRecord],
    site: Optional[SitePosition],
    when: datetime,
    want_solar: bool = True,
    q_x: Optional[np.ndarray] = None,
) -> StepBoundary:
    """Assemble the boundary for the record active at ``when``.

    POA irradiance needs a site; with solar disabled the facades are
    simply dark and no site is required.
    """
    record = record_at(records, when)
    if want_solar:
        if site is None:
            raise ValueError("solar gains enabled but no site position given")
        geometry = solar_position(site, when)
        poa = poa_for_orientations(record, geometry, site.albedo)
    else:
        poa = PoaIrradiance.dark()
    return StepBoundary(
        t_inf=record.t_air,
        t_gnd=record.t_gnd,
        t_sky=sky_temperature(record),
        poa=poa,
        q_x=q_x,
    )
