import math
from datetime import datetime, timedelta, timezone

import pytest

import heatgrid as hg
from heatgrid.weather import WeatherFormatError

HEADER = "timestamp,t_air,t_gnd,t_sky,ghi,dni,dhi\n"
UNITS_K = "-,K,K,K,W/m2,W/m2,W/m2\n"
UNITS_C = "-,C,C,C,W/m2,W/m2,W/m2\n"


def test_blank_sky_parses_as_absent():
    text = HEADER + UNITS_K + "2021-06-21T12:00Z,303.15,298.15,,800,700,150\n"
    records = hg.load_weather(text)
    assert len(records) == 1
    rec = records[0]
    assert rec.t_sky is None
    assert rec.t_air == 303.15 and rec.ghi == 800.0


def test_celsius_columns_convert_on_load():
    text = HEADER + UNITS_C + "2021-06-21T12:00Z,30.0,25.0,-3.15,800,700,150\n"
    rec = hg.load_weather(text)[0]
    assert rec.t_air == pytest.approx(303.15)
    assert rec.t_gnd == pytest.approx(298.15)
    assert rec.t_sky == pytest.approx(270.0)


def test_out_of_order_timestamps_rejected():
    text = (HEADER + UNITS_K
            + "2021-06-21T12:00Z,300,298,,0,0,0\n"
            + "2021-06-21T11:00Z,300,298,,0,0,0\n")
    with pytest.raises(WeatherFormatError, match="strictly increasing"):
        hg.load_weather(text)


def test_negative_dni_rejected():
    text = HEADER + UNITS_K + "2021-06-21T12:00Z,300,298,,800,-5,150\n"
    with pytest.raises(WeatherFormatError, match="dni"):
        hg.load_weather(text)


def test_missing_column_named_in_error():
    text = ("timestamp,t_air,t_gnd,ghi,dni,dhi\n-,K,K,W/m2,W/m2,W/m2\n"
            "2021-06-21T12:00Z,300,298,800,700,150\n")
    with pytest.raises(WeatherFormatError, match="t_sky"):
        hg.load_weather(text)


def test_non_kelvin_units_tag_rejected():
    text = HEADER + "-,F,K,K,W/m2,W/m2,W/m2\n" + "2021-06-21T12:00Z,80,298,,0,0,0\n"
    with pytest.raises(WeatherFormatError, match="K or C"):
        hg.load_weather(text)


def test_zero_kelvin_rejected():
    text = HEADER + UNITS_K + "2021-06-21T12:00Z,0,298,,0,0,0\n"
    with pytest.raises(WeatherFormatError, match="t_air"):
        hg.load_weather(text)


@pytest.mark.parametrize(
    "column, message",
    [
        ("t_air", r"non-physical temperature at .*: t_air=nan, t_gnd=295.0"),
        ("t_gnd", r"non-physical temperature at .*: t_air=300.0, t_gnd=nan"),
        ("t_sky", r"non-physical t_sky=nan"),
        ("ghi", r"irradiance ghi=nan"),
        ("dni", r"irradiance dni=nan"),
        ("dhi", r"irradiance dhi=nan"),
    ],
    ids=["t_air", "t_gnd", "t_sky", "ghi", "dni", "dhi"],
)
def test_nan_record_rejected_when_made(column, message):
    values = dict(t_air=300.0, t_gnd=295.0, t_sky=270.0, ghi=0.0, dni=0.0, dhi=0.0)
    values[column] = math.nan
    with pytest.raises(WeatherFormatError, match=message):
        hg.WeatherRecord(timestamp=datetime(2021, 6, 21, tzinfo=timezone.utc), **values)


# -----------------------------------------------------------------------------
# sky temperature
# -----------------------------------------------------------------------------

def make_record(t_air=300.0, t_sky=None):
    return hg.WeatherRecord(
        timestamp=datetime(2021, 6, 21, tzinfo=timezone.utc),
        t_air=t_air, t_gnd=295.0, t_sky=t_sky, ghi=0.0, dni=0.0, dhi=0.0,
    )


def test_sky_temperature_passthrough_ignores_air():
    assert hg.sky_temperature(make_record(t_air=300.0, t_sky=270.0)) == 270.0
    assert hg.sky_temperature(make_record(t_air=250.0, t_sky=270.0)) == 270.0


def test_sky_temperature_swinbank_fallback():
    # 0.0552 * 300**1.5, evaluated independently ahead of time
    assert hg.sky_temperature(make_record(t_air=300.0)) == pytest.approx(
        286.8276137334061, rel=1e-12
    )


# -----------------------------------------------------------------------------
# zero-order hold
# -----------------------------------------------------------------------------

def hourly_records(n):
    lines = [HEADER.strip(), UNITS_K.strip()]
    for h in range(n):
        lines.append(f"2021-06-21T{h:02d}:00:00Z,{290 + h},289,,0,0,0")
    return hg.load_weather("\n".join(lines) + "\n")


def test_record_at_holds_between_stamps():
    records = hourly_records(3)
    base = records[0].timestamp
    assert hg.record_at(records, base) is records[0]
    assert hg.record_at(records, base + timedelta(minutes=59)) is records[0]
    assert hg.record_at(records, base + timedelta(hours=1)) is records[1]
    # last record holds for one further interval
    assert hg.record_at(records, base + timedelta(hours=2, minutes=59)) is records[2]


def test_record_at_out_of_range():
    records = hourly_records(3)
    base = records[0].timestamp
    with pytest.raises(WeatherFormatError, match="precedes"):
        hg.record_at(records, base - timedelta(minutes=1))
    with pytest.raises(WeatherFormatError, match="horizon"):
        hg.record_at(records, base + timedelta(hours=5))


def test_record_at_on_a_year_of_hourly_records():
    start = datetime(2021, 1, 1, tzinfo=timezone.utc)
    lines = [HEADER.strip(), UNITS_K.strip()]
    for h in range(8760):
        stamp = (start + timedelta(hours=h)).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"{stamp},{280 + h % 30},285,,0,0,0")
    records = hg.load_weather("\n".join(lines) + "\n")
    assert hg.record_at(records, start) is records[0]
    assert hg.record_at(records, records[-1].timestamp) is records[-1]
    for h in (0, 1, 4379, 8758):
        middle = start + timedelta(hours=h, minutes=30)
        assert hg.record_at(records, middle) is records[h]
        assert hg.record_at(records, middle + timedelta(minutes=30)) is records[h + 1]
    horizon = start + timedelta(hours=8760)
    assert hg.record_at(records, horizon) is records[-1]
    with pytest.raises(WeatherFormatError, match="beyond the weather horizon"):
        hg.record_at(records, horizon + timedelta(seconds=1))


def test_single_record_holds_forever():
    records = hourly_records(1)
    base = records[0].timestamp
    assert hg.record_at(records, base + timedelta(days=365)) is records[0]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["t_air", "dni"])
def test_non_finite_value_rejected_naming_line_and_column(column, value):
    fields = {"t_air": "303.15", "dni": "700"}
    fields[column] = value
    text = (
        HEADER + UNITS_K + "2021-06-21T11:00Z,303.15,298.15,,800,700,150\n"
        f"2021-06-21T12:00Z,{fields['t_air']},298.15,,800,{fields['dni']},150\n"
    )
    with pytest.raises(WeatherFormatError, match=rf"line 4: non-finite '{column}'"):
        hg.load_weather(text)


def test_error_names_the_file_line_past_blank_rows():
    # rows are numbered as the file has them, blank ones counted
    text = (
        HEADER + UNITS_K + "2021-06-21T11:00Z,303.15,298.15,,800,700,150\n"
        "\n,,\n2021-06-21T12:00Z,abc,298.15,,800,700,150\n"
    )
    with pytest.raises(WeatherFormatError, match=r"line 6: non-numeric 't_air' value 'abc'"):
        hg.load_weather(text)
