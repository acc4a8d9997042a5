"""
Boundary conditions for every step of a run, derived from the weather series.

Both solvers consume the same StepBoundary: ambient, ground, and sky
temperatures plus plane-of-array irradiance per facade. A run works them
all out before its first step, as arrays over its step instants, with
``boundary_series``: the weather record each instant holds (records are
held constant between timestamps), the sky temperature, the sun position
and the POA irradiance on the four facades. Each step then takes its row
with ``boundary_for_time``. A StepBoundary checks its values when it is
made, so a bad value fails naming the field rather than surfacing as a
bad iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Optional, Sequence, Tuple

import numpy as np

from .building import DIR_ORIENTATION
from .solar import J2000, SolarGeometry, poa_for_orientations, solar_position
from .weather import SitePosition, WeatherFormatError, WeatherRecord, record_at, sky_temperature


class SolverError(RuntimeError):
    """Raised on numerical degeneracy or invalid solver inputs."""


@dataclass(frozen=True)
class StepBoundary:
    """Boundary conditions for one simulation step; made, it checks its values.

    ``poa`` is the ``(4,)`` POA irradiance [W/m^2] of the facades in shift
    order (``building.DIR_ORIENTATION``), zeros with solar off. A
    temperature not finite and > 0 K or an irradiance not finite and >= 0
    raises ``SolverError`` naming its field or facade.
    """

    t_inf: float  # ambient air [K]
    t_gnd: float  # ground [K]
    t_sky: float  # effective sky [K]
    poa: np.ndarray
    q_x: Optional[np.ndarray] = None  # external heat source [W per cell]

    def __post_init__(self) -> None:
        for name in ("t_inf", "t_gnd", "t_sky"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise SolverError(f"boundary {name}={value} is not finite and > 0 K")
        if not (isinstance(self.poa, np.ndarray) and self.poa.shape == (4,)):
            raise SolverError(
                f"boundary POA irradiance has shape {np.shape(self.poa)} "
                f"({type(self.poa).__name__}); it must be a (4,) array, one entry per facade"
            )
        for orientation, g in zip(DIR_ORIENTATION, self.poa.tolist()):
            if not 0.0 <= g < math.inf:
                raise SolverError(
                    f"boundary {orientation} POA irradiance {g} W/m^2 is not finite and >= 0"
                )

    def validate(self, shape: Tuple[int, int]) -> None:
        """Raise ``SolverError`` unless ``q_x``, when given, has the ``shape`` of the grid.

        Its entries are not scanned here: a non-finite one makes its cell's
        first update non-finite, and the solver's error for that update
        names it through ``heat_source_note``.
        """
        if self.q_x is not None and np.shape(self.q_x) != shape:
            raise SolverError(f"boundary q_x shape {np.shape(self.q_x)} != grid shape {shape}")

    def heat_source_note(self) -> str:
        """For a solver error: a clause naming the first non-finite ``q_x`` entry, if any."""
        if self.q_x is None or np.isfinite(self.q_x).all():
            return ""
        r, c = np.argwhere(~np.isfinite(self.q_x))[0]
        return f"; boundary q_x is {self.q_x[r, c]} W at cell ({r}, {c}), not finite"


@dataclass(frozen=True)
class BoundarySeries:
    """The boundary at every step instant of a run; built by ``boundary_series``.

    Row ``i`` is step ``i``, at the UTC instant ``when[i]`` (``datetime64``).
    ``record_index[i]`` is the weather record held then; ``t_inf``,
    ``t_gnd`` and ``t_sky`` are its ambient, ground and sky temperatures
    [K]. ``sun`` is the sun position, None with solar off, and ``poa`` the
    ``(n, 4)`` POA irradiance [W/m^2] on the facades in shift order (east,
    north, west, south), zero with solar off. Every array is read-only.
    """

    when: np.ndarray
    record_index: np.ndarray
    t_inf: np.ndarray
    t_gnd: np.ndarray
    t_sky: np.ndarray
    sun: Optional[SolarGeometry]
    poa: np.ndarray


_J2000 = J2000.item().replace(tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _since_j2000(when: datetime) -> int:
    """Microseconds from J2000.0 to ``when``, exactly."""
    return (when - _J2000) // _MICROSECOND


def boundary_series(
    records: Sequence[WeatherRecord],
    site: Optional[SitePosition],
    start: datetime,
    dt: float,
    n_steps: int,
    want_solar: bool = True,
) -> BoundarySeries:
    """The boundary of ``n_steps`` steps of ``dt`` seconds from ``start``, in one pass.

    Step ``i`` holds the record ``record_at`` gives for ``start + i dt``
    (``dt`` rounded to the microsecond, as ``timedelta`` rounds it). A step
    outside the weather's span fails as a ``SolverError`` that names the
    first such step and carries ``record_at``'s reason; no records at all
    is a ``WeatherFormatError``. POA irradiance needs a site; with solar
    disabled the facades are simply dark and no site is required.
    """
    if want_solar and site is None:
        raise ValueError("solar gains enabled but no site position given")
    if not records:
        raise WeatherFormatError("empty weather series")
    step = timedelta(seconds=dt)
    stamps = np.array([_since_j2000(record.timestamp) for record in records], dtype=np.int64)
    elapsed = _since_j2000(start) + np.arange(n_steps, dtype=np.int64) * (step // _MICROSECOND)
    # record_at's zero-order hold: the last record at or before each instant,
    # the final one held for one more interval
    held = np.searchsorted(stamps, elapsed, side="right") - 1
    outside = held < 0
    if len(records) > 1:
        outside |= elapsed > 2 * stamps[-1] - stamps[-2]
    if outside.any():
        index = int(np.argmax(outside))
        try:
            record_at(records, start + index * step)
        except WeatherFormatError as exc:
            raise SolverError(f"step {index}: {exc}") from exc

    # each held record read once, then spread over the steps that hold it
    indices, row = np.unique(held, return_inverse=True)
    used = [records[i] for i in indices]

    def column(values) -> np.ndarray:
        return np.array(values, dtype=float)[row]

    when = J2000 + elapsed.astype("timedelta64[us]")
    sun, poa = None, np.zeros((n_steps, 4))
    if want_solar:
        sun = solar_position(site, when)
        poa = poa_for_orientations(
            column([r.ghi for r in used]), column([r.dni for r in used]),
            column([r.dhi for r in used]), sun, site.albedo,
        )
    series = BoundarySeries(
        when=when,
        record_index=held,
        t_inf=column([r.t_air for r in used]),
        t_gnd=column([r.t_gnd for r in used]),
        t_sky=column([sky_temperature(r) for r in used]),
        sun=sun,
        poa=poa,
    )
    for array in (*vars(series).values(), *(vars(sun).values() if sun else ())):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return series


def boundary_for_time(
    series: BoundarySeries, index: int, q_x: Optional[np.ndarray] = None
) -> StepBoundary:
    """Step ``index``'s boundary: row ``index`` of ``series``, no copy, with heat source ``q_x``."""
    return StepBoundary(
        t_inf=float(series.t_inf[index]),
        t_gnd=float(series.t_gnd[index]),
        t_sky=float(series.t_sky[index]),
        poa=series.poa[index],
        q_x=q_x,
    )
