"""
Solar position and plane-of-array (POA) irradiance, as arrays over instants.

Solar position follows the NOAA solar-calculator formulation (declination,
equation of time, hour angle). Transposition to tilted surfaces uses the
isotropic-sky model: beam via the angle of incidence, diffuse weighted by
(1 + cos tilt)/2, and ground reflection by albedo * (1 - cos tilt)/2.
Facades are the four cardinal orientations of the floor plan, all vertical.

Every function works element-wise on arrays: ``solar_position`` on an
array of UTC instants, the transposition on arrays of irradiance and sun
position. A single instant is the length-1 case, and each element's result
does not depend on the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .building import DIR_ORIENTATION
from .weather import SitePosition

DEG = math.pi / 180.0

#: Plan-compass azimuth of each facade normal [deg, clockwise from north].
ORIENTATION_AZIMUTH: Dict[str, float] = {
    "north": 0.0,
    "east": 90.0,
    "south": 180.0,
    "west": 270.0,
}

#: The J2000.0 epoch, 2000-01-01 12:00 UTC, from which ``solar_position`` counts time.
J2000 = np.datetime64("2000-01-01T12:00", "us")
_DAY_US = 86_400_000_000  # microseconds in a day


@dataclass(frozen=True)
class SolarGeometry:
    """Sun position at each instant: zenith and azimuth [deg] arrays."""

    zenith: np.ndarray
    azimuth: np.ndarray


def _declination_and_eqtime(t: np.ndarray):
    """Sun declination [deg] and equation of time [minutes] at Julian centuries ``t``."""
    l0 = (280.46646 + t * (36000.76983 + 0.0003032 * t)) % 360.0
    m = 357.52911 + t * (35999.05029 - 0.0001537 * t)
    ecc = 0.016708634 - t * (0.000042037 + 0.0000001267 * t)
    m_rad = m * DEG
    center = (
        np.sin(m_rad) * (1.914602 - t * (0.004817 + 0.000014 * t))
        + np.sin(2 * m_rad) * (0.019993 - 0.000101 * t)
        + np.sin(3 * m_rad) * 0.000289
    )
    true_long = l0 + center
    omega = 125.04 - 1934.136 * t
    apparent_long = true_long - 0.00569 - 0.00478 * np.sin(omega * DEG)

    seconds = 21.448 - t * (46.8150 + t * (0.00059 - t * 0.001813))
    mean_obliq = 23.0 + (26.0 + seconds / 60.0) / 60.0
    obliq = mean_obliq + 0.00256 * np.cos(omega * DEG)

    declination = np.degrees(np.arcsin(np.sin(obliq * DEG) * np.sin(apparent_long * DEG)))

    # tan^2(obliq / 2), by the half-angle identity (no tangent loop to page in)
    cos_obliq = np.cos(obliq * DEG)
    y = (1.0 - cos_obliq) / (1.0 + cos_obliq)
    eqtime = 4.0 * np.degrees(
        y * np.sin(2 * l0 * DEG)
        - 2 * ecc * np.sin(m_rad)
        + 4 * ecc * y * np.sin(m_rad) * np.cos(2 * l0 * DEG)
        - 0.5 * y * y * np.sin(4 * l0 * DEG)
        - 1.25 * ecc * ecc * np.sin(2 * m_rad)
    )
    return declination, eqtime


def solar_position(site: SitePosition, when: np.ndarray) -> SolarGeometry:
    """Sun zenith/azimuth [deg] at a site for each UTC instant of ``when``.

    ``when`` is a ``datetime64`` array of UTC instants, read to the
    microsecond. Azimuth is measured clockwise from north in [0, 360).
    """
    elapsed = (np.asarray(when, dtype="datetime64[us]") - J2000).astype(np.int64)
    declination, eqtime = _declination_and_eqtime(elapsed / (36525.0 * _DAY_US))

    # J2000.0 is noon, so the UTC clock reads half a day more than the elapsed time
    minutes_utc = (elapsed + _DAY_US // 2) % _DAY_US / 60e6
    true_solar_minutes = (minutes_utc + eqtime + 4.0 * site.longitude) % 1440.0
    hour_angle = true_solar_minutes / 4.0 - 180.0

    lat = site.latitude * DEG
    dec = declination * DEG
    ha = hour_angle * DEG

    cos_zenith = np.clip(
        math.sin(lat) * np.sin(dec) + math.cos(lat) * np.cos(dec) * np.cos(ha), -1.0, 1.0
    )
    zenith = np.degrees(np.arccos(cos_zenith))

    # With the sun overhead the azimuth is undefined: it is taken due south
    # of a site north of the sun, due north otherwise.
    sin_zenith = np.sin(zenith * DEG)
    overhead = sin_zenith < 1e-9
    cos_azimuth = (np.sin(dec) - math.sin(lat) * cos_zenith) / (
        math.cos(lat) * np.where(overhead, 1.0, sin_zenith)
    )
    azimuth = np.degrees(np.arccos(np.clip(cos_azimuth, -1.0, 1.0)))
    # afternoon: sun west of the meridian
    azimuth = np.where(hour_angle > 0.0, 360.0 - azimuth, azimuth) % 360.0
    azimuth = np.where(overhead, np.where(site.latitude > declination, 180.0, 0.0), azimuth)
    return SolarGeometry(zenith=zenith, azimuth=azimuth)


def angle_of_incidence(zenith, azimuth, tilt, surface_azimuth):
    """Angle [deg] between the sun vector and a surface normal, element-wise.

    Spherical cosine law: cos(aoi) = cos(z) cos(tilt)
    + sin(z) sin(tilt) cos(azimuth - surface_azimuth).
    """
    cos_aoi = np.cos(zenith * DEG) * np.cos(tilt * DEG) + np.sin(zenith * DEG) * np.sin(
        tilt * DEG
    ) * np.cos((azimuth - surface_azimuth) * DEG)
    return np.degrees(np.arccos(np.clip(cos_aoi, -1.0, 1.0)))


def poa_irradiance(
    ghi, dni, dhi, geometry: SolarGeometry, tilt: float, albedo: float,
    surface_azimuth: float = 180.0,
) -> np.ndarray:
    """Isotropic-sky POA irradiance [W/m^2] on one tilted surface at each instant.

    ``G = DNI max(cos aoi, 0) + DHI (1 + cos tilt)/2
    + GHI albedo (1 - cos tilt)/2``, clamped at zero, from the global, direct
    normal and diffuse horizontal irradiance arrays ``ghi``, ``dni`` and
    ``dhi``. The beam term uses the angle of incidence for (tilt,
    surface_azimuth) at the sun position of the instant; the sun below the
    surface plane contributes no beam.
    """
    if not 0.0 <= tilt <= 180.0:
        raise ValueError(f"tilt {tilt} outside [0, 180] degrees")
    aoi = angle_of_incidence(geometry.zenith, geometry.azimuth, tilt, surface_azimuth)
    cos_tilt = math.cos(tilt * DEG)
    beam = dni * np.maximum(np.cos(aoi * DEG), 0.0)
    diffuse = dhi * (1.0 + cos_tilt) / 2.0
    reflected = ghi * albedo * (1.0 - cos_tilt) / 2.0
    return np.maximum(beam + diffuse + reflected, 0.0)


def poa_for_orientations(ghi, dni, dhi, geometry: SolarGeometry, albedo: float) -> np.ndarray:
    """POA irradiance [W/m^2] on the four vertical cardinal facades at each instant.

    Shape ``(n, 4)`` for ``n`` instants, the facades in shift order (east,
    north, west, south; ``building.DIR_ORIENTATION``).
    """
    return np.stack([
        poa_irradiance(ghi, dni, dhi, geometry, 90.0, albedo, ORIENTATION_AZIMUTH[orientation])
        for orientation in DIR_ORIENTATION
    ], axis=-1)
