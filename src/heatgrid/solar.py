"""
Solar position and plane-of-array (POA) irradiance.

Solar position follows the NOAA solar-calculator formulation (declination,
equation of time, hour angle). Transposition to tilted surfaces uses the
isotropic-sky model: beam via the angle of incidence, diffuse weighted by
(1 + cos tilt)/2, and ground reflection by albedo * (1 - cos tilt)/2.
Facades are the four cardinal orientations of the floor plan, all vertical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict

from .weather import SitePosition, WeatherRecord

DEG = math.pi / 180.0

#: Plan-compass azimuth of each facade normal [deg, clockwise from north].
ORIENTATION_AZIMUTH: Dict[str, float] = {
    "north": 0.0,
    "east": 90.0,
    "south": 180.0,
    "west": 270.0,
}

ORIENTATIONS = tuple(ORIENTATION_AZIMUTH)


@dataclass(frozen=True)
class SolarGeometry:
    """Sun position: zenith and azimuth [deg]."""

    zenith: float
    azimuth: float


@dataclass(frozen=True)
class PoaIrradiance:
    """Plane-of-array irradiance per facade orientation [W/m^2]."""

    g_ts: Dict[str, float]

    def __getitem__(self, orientation: str) -> float:
        try:
            return self.g_ts[orientation]
        except KeyError:
            raise KeyError(f"no POA irradiance for orientation {orientation!r}") from None

    @classmethod
    def dark(cls) -> "PoaIrradiance":
        return cls({orientation: 0.0 for orientation in ORIENTATIONS})


def _julian_day(when: datetime) -> float:
    when = when.astimezone(timezone.utc)
    year, month = when.year, when.month
    day = (
        when.day
        + when.hour / 24.0
        + when.minute / 1440.0
        + (when.second + when.microsecond * 1e-6) / 86400.0
    )
    if month <= 2:
        year -= 1
        month += 12
    a = year // 100
    b = 2 - a + a // 4
    return int(365.25 * (year + 4716)) + int(30.6001 * (month + 1)) + day + b - 1524.5


def _declination_and_eqtime(julian_century: float):
    """Sun declination [deg] and equation of time [minutes]."""
    t = julian_century
    l0 = (280.46646 + t * (36000.76983 + 0.0003032 * t)) % 360.0
    m = 357.52911 + t * (35999.05029 - 0.0001537 * t)
    ecc = 0.016708634 - t * (0.000042037 + 0.0000001267 * t)
    m_rad = m * DEG
    center = (
        math.sin(m_rad) * (1.914602 - t * (0.004817 + 0.000014 * t))
        + math.sin(2 * m_rad) * (0.019993 - 0.000101 * t)
        + math.sin(3 * m_rad) * 0.000289
    )
    true_long = l0 + center
    omega = 125.04 - 1934.136 * t
    apparent_long = true_long - 0.00569 - 0.00478 * math.sin(omega * DEG)

    seconds = 21.448 - t * (46.8150 + t * (0.00059 - t * 0.001813))
    mean_obliq = 23.0 + (26.0 + seconds / 60.0) / 60.0
    obliq = mean_obliq + 0.00256 * math.cos(omega * DEG)

    declination = math.degrees(math.asin(math.sin(obliq * DEG) * math.sin(apparent_long * DEG)))

    y = math.tan(obliq * DEG / 2.0) ** 2
    eqtime = 4.0 * math.degrees(
        y * math.sin(2 * l0 * DEG)
        - 2 * ecc * math.sin(m_rad)
        + 4 * ecc * y * math.sin(m_rad) * math.cos(2 * l0 * DEG)
        - 0.5 * y * y * math.sin(4 * l0 * DEG)
        - 1.25 * ecc * ecc * math.sin(2 * m_rad)
    )
    return declination, eqtime


def solar_position(site: SitePosition, when: datetime) -> SolarGeometry:
    """Sun zenith/azimuth [deg] at a site and UTC instant.

    Azimuth is measured clockwise from north in [0, 360).
    """
    site.validate()
    jd = _julian_day(when)
    t = (jd - 2451545.0) / 36525.0
    declination, eqtime = _declination_and_eqtime(t)

    when_utc = when.astimezone(timezone.utc)
    minutes_utc = (
        when_utc.hour * 60.0
        + when_utc.minute
        + (when_utc.second + when_utc.microsecond * 1e-6) / 60.0
    )
    true_solar_minutes = (minutes_utc + eqtime + 4.0 * site.longitude) % 1440.0
    hour_angle = true_solar_minutes / 4.0 - 180.0

    lat = site.latitude * DEG
    dec = declination * DEG
    ha = hour_angle * DEG

    cos_zenith = math.sin(lat) * math.sin(dec) + math.cos(lat) * math.cos(dec) * math.cos(ha)
    cos_zenith = min(1.0, max(-1.0, cos_zenith))
    zenith = math.degrees(math.acos(cos_zenith))

    sin_zenith = math.sin(zenith * DEG)
    if sin_zenith < 1e-9:
        azimuth = 180.0 if site.latitude > declination else 0.0
    else:
        cos_azimuth = (math.sin(dec) - math.sin(lat) * cos_zenith) / (math.cos(lat) * sin_zenith)
        cos_azimuth = min(1.0, max(-1.0, cos_azimuth))
        azimuth = math.degrees(math.acos(cos_azimuth))
        if hour_angle > 0.0:  # afternoon: sun west of the meridian
            azimuth = 360.0 - azimuth
        azimuth %= 360.0

    return SolarGeometry(zenith=zenith, azimuth=azimuth)


def angle_of_incidence(
    zenith: float, azimuth: float, tilt: float, surface_azimuth: float
) -> float:
    """Angle [deg] between the sun vector and a surface normal.

    Spherical cosine law: cos(aoi) = cos(z) cos(tilt)
    + sin(z) sin(tilt) cos(azimuth - surface_azimuth).
    """
    cos_aoi = math.cos(zenith * DEG) * math.cos(tilt * DEG) + math.sin(zenith * DEG) * math.sin(
        tilt * DEG
    ) * math.cos((azimuth - surface_azimuth) * DEG)
    cos_aoi = min(1.0, max(-1.0, cos_aoi))
    return math.degrees(math.acos(cos_aoi))


def poa_irradiance(
    record: WeatherRecord,
    geometry: SolarGeometry,
    tilt: float,
    albedo: float,
    surface_azimuth: float = 180.0,
) -> float:
    """Isotropic-sky POA irradiance [W/m^2] on a tilted surface.

    ``G = DNI max(cos aoi, 0) + DHI (1 + cos tilt)/2
    + GHI albedo (1 - cos tilt)/2``, clamped at zero. The beam term uses
    the angle of incidence for (tilt, surface_azimuth) at the given sun
    position; the sun below the surface plane contributes no beam.
    """
    if not 0.0 <= tilt <= 180.0:
        raise ValueError(f"tilt {tilt} outside [0, 180] degrees")
    aoi = angle_of_incidence(geometry.zenith, geometry.azimuth, tilt, surface_azimuth)
    cos_tilt = math.cos(tilt * DEG)
    beam = record.dni * max(math.cos(aoi * DEG), 0.0)
    diffuse = record.dhi * (1.0 + cos_tilt) / 2.0
    reflected = record.ghi * albedo * (1.0 - cos_tilt) / 2.0
    return max(beam + diffuse + reflected, 0.0)


def poa_for_orientations(
    record: WeatherRecord, geometry: SolarGeometry, albedo: float
) -> PoaIrradiance:
    """POA irradiance for the four vertical cardinal facades."""
    g_ts = {
        orientation: poa_irradiance(record, geometry, 90.0, albedo, facade_azimuth)
        for orientation, facade_azimuth in ORIENTATION_AZIMUTH.items()
    }
    return PoaIrradiance(g_ts)
