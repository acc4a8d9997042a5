import dataclasses
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import heatgrid as hg
from heatgrid.conditions import SolverError

from _factories import instants


def series_fields(series, index):
    """Every value a boundary series holds for one step, as arrays."""
    sun = () if series.sun is None else (series.sun.zenith[index], series.sun.azimuth[index])
    return (series.when[index], series.record_index[index], series.t_inf[index],
            series.t_gnd[index], series.t_sky[index], series.poa[index], *sun)


@pytest.mark.parametrize("dt", [300.0, 1234.567891])
def test_every_row_equals_a_one_step_series_at_its_instant(canonical, canonical_weather, dt):
    _, _, config = canonical
    start = canonical_weather[0].timestamp
    n = int((canonical_weather[-1].timestamp - start) / timedelta(seconds=dt))
    series = hg.boundary_series(canonical_weather, config.site, start, dt, n)
    assert series.poa.shape == (n, 4) and series.poa.max() > 0.0
    step = timedelta(seconds=dt)
    for i in range(n):
        one = hg.boundary_series(canonical_weather, config.site, start + i * step, dt, 1)
        assert one.when[0] == series.when[i] == instants(start + i * step)[0]
        for a, b in zip(series_fields(series, i), series_fields(one, 0)):
            assert np.array_equal(a, b)  # bitwise, the sun and the POA included
        a, b = hg.boundary_for_time(series, i), hg.boundary_for_time(one, 0)
        assert (a.t_inf, a.t_gnd, a.t_sky) == (b.t_inf, b.t_gnd, b.t_sky)
        assert np.array_equal(a.poa, b.poa)


def test_a_row_is_the_step_boundary(canonical, canonical_weather):
    _, _, config = canonical
    start = canonical_weather[0].timestamp
    series = hg.boundary_series(canonical_weather, config.site, start, 300.0, 48)
    q_x = np.ones((3, 4))
    bc = hg.boundary_for_time(series, 30, q_x)
    record = canonical_weather[series.record_index[30]]
    assert record is hg.record_at(canonical_weather, start + 30 * timedelta(seconds=300.0))
    assert (bc.t_inf, bc.t_gnd, bc.t_sky) == (record.t_air, record.t_gnd,
                                               hg.sky_temperature(record))
    assert np.array_equal(bc.poa, series.poa[30])
    # the row itself: read-only, and no copy
    assert not bc.poa.flags.writeable and np.shares_memory(bc.poa, series.poa)
    assert bc.q_x is q_x
    geometry = hg.solar_position(config.site, series.when[30:31])
    assert geometry.zenith[0] == series.sun.zenith[30]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("t_gnd", 0.0, r"^boundary t_gnd=0.0 is not finite and > 0 K$"),
        ("t_inf", np.inf, r"^boundary t_inf=inf is not finite and > 0 K$"),
        ("poa", np.array([0.0, np.nan, 0.0, 0.0]),
         r"^boundary north POA irradiance nan W/m\^2 is not finite and >= 0$"),
        ("poa", np.array([0.0, 0.0, -1.0, 0.0]),
         r"^boundary west POA irradiance -1.0 W/m\^2 is not finite and >= 0$"),
        ("poa", np.zeros(3), r"^boundary POA irradiance has shape \(3,\) \(ndarray\)"),
        ("poa", [0.0] * 4, r"^boundary POA irradiance has shape \(4,\) \(list\)"),
    ],
    ids=["t_gnd-zero", "t_inf-inf", "poa-nan", "poa-negative", "poa-shape", "poa-list"],
)
def test_a_boundary_checks_itself_when_made(field, value, message):
    good = dict(t_inf=290.0, t_gnd=288.0, t_sky=270.0, poa=np.zeros(4))
    with pytest.raises(SolverError, match=message):
        hg.StepBoundary(**{**good, field: value})
    with pytest.raises(SolverError, match=message):
        dataclasses.replace(hg.StepBoundary(**good), **{field: value})


def test_series_hold_matches_record_at_on_a_year_of_hourly_records():
    start = datetime(2021, 1, 1, tzinfo=timezone.utc)
    records = [
        hg.WeatherRecord(start + timedelta(hours=h), 280.0 + h % 30, 285.0,
                         None if h % 2 else 270.0, 0.0, 0.0, 0.0)
        for h in range(8760)
    ]
    horizon = start + timedelta(hours=8760)
    site = hg.SitePosition(40.0, -105.0)
    for dt in (1800.0, 3600.0, 5417.25):
        step = timedelta(seconds=dt)
        n = (horizon - start) // step + 1  # the last step is at or before the horizon
        series = hg.boundary_series(records, None, start, dt, n, want_solar=False)
        assert series.sun is None and not series.poa.any()
        for i in range(n):
            record = hg.record_at(records, start + i * step)
            assert records[series.record_index[i]] is record
            assert series.t_inf[i] == record.t_air
            assert series.t_sky[i] == hg.sky_temperature(record)
        with pytest.raises(SolverError, match=rf"^step {n}: .* is beyond the weather horizon"):
            hg.boundary_series(records, site, start, dt, n + 1)
    # the final record holds up to the horizon itself
    at_horizon = hg.boundary_series(records, None, horizon, 3600.0, 1, want_solar=False)
    assert at_horizon.record_index.tolist() == [8759]


def test_series_names_the_first_step_outside_the_weather(canonical_weather):
    start = canonical_weather[0].timestamp
    with pytest.raises(SolverError, match=r"^step 0: .* precedes the first weather record"):
        hg.boundary_series(canonical_weather, None, start - timedelta(seconds=1), 300.0, 5,
                           want_solar=False)
    with pytest.raises(hg.WeatherFormatError, match="^empty weather series$"):
        hg.boundary_series([], None, start, 300.0, 5, want_solar=False)


def test_series_arrays_are_read_only(canonical, canonical_weather):
    _, _, config = canonical
    series = hg.boundary_series(canonical_weather, config.site, canonical_weather[0].timestamp,
                                300.0, 10)
    arrays = [*vars(series).values(), *vars(series.sun).values()]
    assert all(not a.flags.writeable for a in arrays if isinstance(a, np.ndarray))
