import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heatgrid as hg
from heatgrid.building import DIR_ORIENTATION

from _factories import instants


def crude_zenith(lat, lon, when):
    """Independent low-precision ephemeris: Cooper declination, clock hour angle."""
    n = when.timetuple().tm_yday
    decl = 23.45 * math.sin(math.radians(360.0 * (284 + n) / 365.0))
    hour_angle = (when.hour + when.minute / 60.0 - 12.0) * 15.0 + lon
    lat_r, d_r, h_r = map(math.radians, (lat, decl, hour_angle))
    cos_z = math.sin(lat_r) * math.sin(d_r) + math.cos(lat_r) * math.cos(d_r) * math.cos(h_r)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos_z))))


def irradiance(ghi=0.0, dni=0.0, dhi=0.0):
    """One instant's ``(ghi, dni, dhi)`` [W/m^2], as length-1 arrays."""
    return np.array([ghi]), np.array([dni]), np.array([dhi])


# -----------------------------------------------------------------------------
# solar position
# -----------------------------------------------------------------------------

def test_equator_equinox_noon_zenith_near_zero():
    site = hg.SitePosition(latitude=0.0, longitude=0.0)
    best = 999.0
    for minute in range(10 * 60, 14 * 60):
        when = datetime(2021, 3, 20, minute // 60, minute % 60, tzinfo=timezone.utc)
        best = min(best, hg.solar_position(site, instants(when)).zenith[0])
    assert best < 1.0


@pytest.mark.parametrize(
    "lat,lon,when",
    [
        (40.7, -74.0, datetime(2021, 6, 21, 17, tzinfo=timezone.utc)),
        (52.5, 13.4, datetime(2021, 12, 21, 11, tzinfo=timezone.utc)),
        (-33.9, 151.2, datetime(2021, 9, 1, 2, tzinfo=timezone.utc)),
        (10.0, 30.0, datetime(2021, 4, 10, 10, tzinfo=timezone.utc)),
    ],
)
def test_zenith_matches_independent_ephemeris(lat, lon, when):
    geometry = hg.solar_position(hg.SitePosition(lat, lon), instants(when))
    assert geometry.zenith[0] == pytest.approx(crude_zenith(lat, lon, when), abs=2.0)


def test_midnight_sun_below_horizon():
    site = hg.SitePosition(latitude=45.0, longitude=0.0)
    when = datetime(2021, 6, 21, 0, tzinfo=timezone.utc)
    assert hg.solar_position(site, instants(when)).zenith[0] > 90.0


def test_aoi_zero_for_aligned_surface():
    site = hg.SitePosition(latitude=0.0, longitude=0.0)
    geometry = hg.solar_position(site, instants(datetime(2021, 3, 20, 15, tzinfo=timezone.utc)))
    aoi = hg.angle_of_incidence(
        geometry.zenith, geometry.azimuth, geometry.zenith, geometry.azimuth
    )
    assert aoi[0] == pytest.approx(0.0, abs=1e-9)


# -----------------------------------------------------------------------------
# POA transposition
# -----------------------------------------------------------------------------

def noon_geometry(zenith=40.0, azimuth=180.0):
    return hg.SolarGeometry(zenith=np.array([zenith]), azimuth=np.array([azimuth]))


def test_poa_dark_sky_is_zero():
    g = hg.poa_irradiance(*irradiance(), noon_geometry(), 90.0, 0.2, 180.0)
    assert g[0] == 0.0


def test_poa_horizontal_surface():
    geometry = noon_geometry(zenith=35.0)
    g = hg.poa_irradiance(*irradiance(ghi=800.0, dni=700.0, dhi=150.0), geometry, 0.0, 0.9, 0.0)
    assert g[0] == pytest.approx(700.0 * math.cos(math.radians(35.0)) + 150.0, rel=1e-12)


def test_poa_vertical_surface_value():
    # DNI=0, DHI=200, GHI=300, albedo 0.2: 200*0.5 + 300*0.2*0.5 = 130
    g = hg.poa_irradiance(*irradiance(ghi=300.0, dni=0.0, dhi=200.0), noon_geometry(), 90.0, 0.2,
                          0.0)
    assert g[0] == pytest.approx(130.0, rel=1e-13)


def test_poa_tilt_out_of_range():
    with pytest.raises(ValueError, match="tilt"):
        hg.poa_irradiance(*irradiance(), noon_geometry(), 190.0, 0.2)


@settings(max_examples=200, deadline=None)
@given(
    dni=st.floats(0.0, 1000.0),
    dhi=st.floats(0.0, 400.0),
    ghi=st.floats(0.0, 1200.0),
    bump=st.floats(0.0, 200.0),
    tilt=st.floats(0.0, 180.0),
    albedo=st.floats(0.0, 1.0),
)
def test_poa_monotone_in_each_component(dni, dhi, ghi, bump, tilt, albedo):
    geometry = noon_geometry(zenith=50.0, azimuth=170.0)

    def poa(g, b, d):
        g = hg.poa_irradiance(*irradiance(ghi=g, dni=b, dhi=d), geometry, tilt, albedo, 180.0)
        return g[0]

    base = poa(ghi, dni, dhi)
    assert base >= 0.0
    assert poa(ghi + bump, dni, dhi) >= base
    assert poa(ghi, dni + bump, dhi) >= base
    assert poa(ghi, dni, dhi + bump) >= base


@settings(max_examples=200, deadline=None)
@given(tilt=st.floats(0.0, 180.0))
def test_diffuse_and_ground_factors_sum_to_one(tilt):
    cos_tilt = math.cos(math.radians(tilt))
    assert (1.0 + cos_tilt) / 2.0 + (1.0 - cos_tilt) / 2.0 == pytest.approx(1.0, abs=1e-15)


def test_poa_for_orientations_covers_facades():
    site = hg.SitePosition(latitude=40.0, longitude=0.0)
    geometry = hg.solar_position(site, instants(datetime(2021, 6, 21, 12, tzinfo=timezone.utc)))
    poa = hg.poa_for_orientations(*irradiance(ghi=500.0, dni=600.0, dhi=100.0), geometry, 0.2)
    # one row of the four facades, in shift order
    assert poa.shape == (1, 4)
    poa = dict(zip(DIR_ORIENTATION, poa[0]))
    assert set(poa) == {"north", "east", "south", "west"}
    assert all(v >= 0.0 for v in poa.values())
    assert poa["south"] > poa["north"]
