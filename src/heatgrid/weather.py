"""
Weather time series: records, CSV parsing, and sky temperature.

Weather files are plain CSV with a column-name header followed by a units
row. Temperatures may be given in K or C (per the units row); irradiance
columns are W/m^2. Records are held constant between timestamps
(zero-order hold), which matches the discrete stepping of the simulator.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from numbers import Real
from typing import List, Optional, Sequence

REQUIRED_COLUMNS = ("timestamp", "t_air", "t_gnd", "t_sky", "ghi", "dni", "dhi")

KELVIN_OFFSET = 273.15


class WeatherFormatError(ValueError):
    """Raised when a weather file is malformed or violates record invariants."""


class ValidationError(ValueError):
    """Raised when a building, its settings or its site break an invariant; names the field."""


def check_finite(value, where: str) -> None:
    """Raise ``ValidationError`` naming ``where`` unless ``value`` is a finite real number
    and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{where}={value!r} is not a number")
    if not math.isfinite(value):
        raise ValidationError(f"{where}={value} must be finite")


@dataclass(frozen=True)
class WeatherRecord:
    """One timestamped set of boundary conditions, checked when made.

    Attributes
    ----------
    timestamp : datetime
        UTC instant the record becomes valid.
    t_air, t_gnd : float
        Ambient air and ground temperatures [K].
    t_sky : float or None
        Effective sky temperature [K]; None when the source file left it blank.
    ghi, dni, dhi : float
        Global horizontal, direct normal, and diffuse horizontal
        irradiance [W/m^2].
    """

    timestamp: datetime
    t_air: float
    t_gnd: float
    t_sky: Optional[float]
    ghi: float
    dni: float
    dhi: float

    def __post_init__(self) -> None:
        if not (self.t_air > 0.0 and self.t_gnd > 0.0):  # NaN too
            raise WeatherFormatError(
                f"non-physical temperature at {self.timestamp.isoformat()}: "
                f"t_air={self.t_air}, t_gnd={self.t_gnd} (must be > 0 K)"
            )
        if self.t_sky is not None and not self.t_sky > 0.0:
            raise WeatherFormatError(
                f"non-physical t_sky={self.t_sky} at {self.timestamp.isoformat()}"
            )
        for name in ("ghi", "dni", "dhi"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise WeatherFormatError(
                    f"negative irradiance {name}={value} at {self.timestamp.isoformat()}"
                )


@dataclass(frozen=True)
class SitePosition:
    """Geographic site, checked when made: latitude/longitude [deg], albedo in [0, 1]."""

    latitude: float
    longitude: float
    albedo: float = 0.2

    def __post_init__(self) -> None:
        for key in ("latitude", "longitude", "albedo"):
            check_finite(getattr(self, key), f"site.{key}")
        if abs(self.latitude) > 90.0:
            raise ValidationError(f"latitude {self.latitude} outside [-90, 90]")
        if abs(self.longitude) > 180.0:
            raise ValidationError(f"longitude {self.longitude} outside [-180, 180]")
        if not 0.0 <= self.albedo <= 1.0:
            raise ValidationError(f"albedo {self.albedo} outside [0, 1]")


def _parse_timestamp(text: str, line_no: int) -> datetime:
    text = text.strip()
    # Accept a trailing 'Z' (Python < 3.11 fromisoformat rejects it).
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise WeatherFormatError(f"line {line_no}: bad timestamp {text!r}: {exc}") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def _temperature_unit(tag: str, column: str) -> str:
    unit = tag.strip().upper()
    if unit not in ("K", "C"):
        raise WeatherFormatError(
            f"units row must declare K or C for column {column!r}, got {tag!r}"
        )
    return unit


def _parse_number(raw: str, column: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise WeatherFormatError(
            f"line {line_no}: non-numeric {column!r} value {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise WeatherFormatError(f"line {line_no}: non-finite {column!r} value {raw!r}")
    return value


def load_weather(csv_text: str) -> List[WeatherRecord]:
    """Parse weather CSV text into validated, time-ordered records.

    The first row names the columns (must include all of
    ``timestamp, t_air, t_gnd, t_sky, ghi, dni, dhi``), the second row gives
    units (K or C for the temperature columns), and the rest are data rows.
    An empty ``t_sky`` field is preserved as None. Blank rows are skipped;
    an error names the row's line in the file.
    """
    reader = csv.reader(io.StringIO(csv_text))
    rows = [
        (reader.line_num, row) for row in reader if row and any(cell.strip() for cell in row)
    ]
    if len(rows) < 3:
        raise WeatherFormatError("weather file needs a header, a units row, and data")

    header = [cell.strip().lower() for cell in rows[0][1]]
    for column in REQUIRED_COLUMNS:
        if column not in header:
            raise WeatherFormatError(f"missing mandatory column {column!r}")
    index = {column: header.index(column) for column in REQUIRED_COLUMNS}

    units_row = rows[1][1]
    if len(units_row) < len(header):
        units_row = units_row + [""] * (len(header) - len(units_row))
    temp_units = {
        column: _temperature_unit(units_row[index[column]], column)
        for column in ("t_air", "t_gnd", "t_sky")
    }

    def to_kelvin(raw: str, column: str, line_no: int) -> Optional[float]:
        raw = raw.strip()
        if raw == "":
            if column == "t_sky":
                return None
            raise WeatherFormatError(f"line {line_no}: empty value for {column!r}")
        value = _parse_number(raw, column, line_no)
        if temp_units[column] == "C":
            value += KELVIN_OFFSET
        return value

    records: List[WeatherRecord] = []
    for line_no, row in rows[2:]:
        if len(row) < len(header):
            row = row + [""] * (len(header) - len(row))
        stamp = _parse_timestamp(row[index["timestamp"]], line_no)

        def number(column: str) -> float:
            return _parse_number(row[index[column]].strip(), column, line_no)

        record = WeatherRecord(
            timestamp=stamp,
            t_air=to_kelvin(row[index["t_air"]], "t_air", line_no),
            t_gnd=to_kelvin(row[index["t_gnd"]], "t_gnd", line_no),
            t_sky=to_kelvin(row[index["t_sky"]], "t_sky", line_no),
            ghi=number("ghi"),
            dni=number("dni"),
            dhi=number("dhi"),
        )
        if records and record.timestamp <= records[-1].timestamp:
            raise WeatherFormatError(
                f"line {line_no}: timestamps must be strictly increasing "
                f"({record.timestamp.isoformat()} follows {records[-1].timestamp.isoformat()})"
            )
        records.append(record)
    return records


def load_weather_file(path) -> List[WeatherRecord]:
    with open(path, "r", encoding="utf-8") as handle:
        return load_weather(handle.read())


def sky_temperature(record: WeatherRecord) -> float:
    """Effective sky temperature [K] for exterior long-wave exchange.

    Uses the record's own value when present; otherwise falls back to the
    Swinbank clear-sky correlation ``0.0552 * T_air**1.5`` (T in K).
    """
    if record.t_sky is not None:
        return record.t_sky
    return 0.0552 * record.t_air**1.5


def record_at(records: Sequence[WeatherRecord], when: datetime) -> WeatherRecord:
    """Record active at instant ``when`` under zero-order hold.

    Each record holds until the next one starts. The final record holds for
    one more inter-record interval (a single-record series holds forever);
    asking for a time outside the covered span is an error.
    """
    if not records:
        raise WeatherFormatError("empty weather series")
    first = records[0].timestamp
    if when < first:
        raise WeatherFormatError(
            f"{when.isoformat()} precedes the first weather record {first.isoformat()}"
        )
    if len(records) > 1:
        last = records[-1].timestamp
        horizon = last + (last - records[-2].timestamp)
        if when > horizon:
            raise WeatherFormatError(
                f"{when.isoformat()} is beyond the weather horizon {horizon.isoformat()}"
            )
    position = bisect_right(records, when, key=lambda record: record.timestamp) - 1
    return records[position]
