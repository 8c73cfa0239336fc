"""Site solar geometry and hourly climate ingestion.

Solar position follows the classic Cooper declination / equation-of-time
chain (degrees throughout, North = 0 azimuth). The solar functions take
days and clock hours (or altitudes) as arrays, a scalar broadcasting, so a
year of hours is one call. Climate data is a plain delimited text file
with one row per hour covering a full non-leap year.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .declared import check_ranges, ranged

HOURS_PER_YEAR = 8760
CLIMATE_COLUMNS = ("time", "temperature", "dni", "dhi")   # the logical names of a climate file
# each cell's valid range: degC beyond the air's recorded extremes; W m-2 above
# the ~1412 W m-2 that reaches the top of the atmosphere at perihelion
CLIMATE_RANGES = {"temperature": (-90.0, 60.0), "dni": (0.0, 1500.0), "dhi": (0.0, 1500.0)}

__all__ = [
    "SiteConfig",
    "SolarPosition",
    "ClimateError",
    "ClimateSeries",
    "declination",
    "equation_of_time",
    "solar_position",
    "incidence_cosine",
    "load_climate",
    "synthetic_dubai_year",
    "sunpath_table",
]


class ClimateError(ValueError):
    """Raised for malformed climate input files."""


@dataclass(frozen=True)
class SiteConfig:
    """Geographic site; longitudes positive east, ref = 15 deg * UTC offset."""

    latitude: float = ranged(ge=-90.0, le=90.0)      # deg
    longitude: float = ranged(ge=-180.0, le=180.0)   # deg east
    utc_offset: float = ranged(ge=-12.0, le=12.0)    # hours: a reference meridian within ±180

    __post_init__ = check_ranges

    @property
    def reference_longitude(self) -> float:
        return 15.0 * self.utc_offset


@dataclass(frozen=True)
class SolarPosition:
    """Sun position per hour: each field has the broadcast shape of the
    call's days and clock hours (0-d for a scalar call)."""

    day: np.ndarray            # day of year, 1..365
    declination: np.ndarray    # deg
    eot_minutes: np.ndarray    # equation of time, min
    aux_angle: np.ndarray      # deg, drives the equation of time
    solar_time: np.ndarray     # h
    hour_angle: np.ndarray     # deg, 0 at solar noon, positive afternoon
    altitude: np.ndarray       # deg above horizon (negative at night)
    azimuth: np.ndarray        # deg clockwise from North in [0, 360)


def _check_range(name: str, values: np.ndarray, ok: np.ndarray) -> None:
    """ValueError naming the first of `values` where `ok` is false."""
    if not np.all(ok):
        raise ValueError(f"{name} out of range: {values[~ok][0]}")


def declination(day):
    """Solar declination in degrees for day-of-year 1..365 (Cooper)."""
    return 23.45 * np.sin(np.radians(360.0 * (284 + day) / 365.0))


def _aux_angle(day):
    return (day - 81) * 360.0 / 364.0


def equation_of_time(day):
    """Equation of time in minutes for day-of-year 1..365."""
    b = np.radians(_aux_angle(day))
    return 9.87 * np.sin(2.0 * b) - 7.53 * np.cos(b) - 1.5 * np.sin(b)


def solar_position(site: SiteConfig, day, clock_hour) -> SolarPosition:
    """Sun position for local clock times on given days of year (arrays or
    scalars, broadcast together).

    Solar time carries the equation-of-time correction plus 4 minutes per
    degree of longitude east of the zone reference meridian, so solar noon
    (hour angle 0 = local meridian transit) lands where the sky says it
    should rather than at 12:00 on the clock.

    Day 366 is folded onto 365; the declination formula is periodic over
    365 days and the residual error is negligible.
    """
    day = np.asarray(day)
    clock_hour = np.asarray(clock_hour, dtype=float)
    _check_range("day of year", day, (day >= 1) & (day <= 366))
    _check_range("clock hour", clock_hour, (clock_hour >= 0.0) & (clock_hour < 24.0))
    n = np.minimum(day, 365)

    delta = declination(n)
    eot = equation_of_time(n)
    h_sol = clock_hour + (eot + 4.0 * (site.longitude - site.reference_longitude)) / 60.0
    omega = 15.0 * (h_sol - 12.0)

    phi_r = np.radians(site.latitude)
    delta_r = np.radians(delta)
    omega_r = np.radians(omega)

    sin_alt = np.clip(np.sin(delta_r) * np.sin(phi_r)
                      + np.cos(delta_r) * np.cos(phi_r) * np.cos(omega_r), -1.0, 1.0)
    alt = np.degrees(np.arcsin(sin_alt))

    azimuth = _resolve_azimuth(phi_r, delta_r, omega_r, np.radians(alt))
    return SolarPosition(
        day=n,
        declination=delta,
        eot_minutes=eot,
        aux_angle=_aux_angle(n),
        solar_time=h_sol,
        hour_angle=omega,
        altitude=alt,
        azimuth=azimuth,
    )


def _resolve_azimuth(phi_r, delta_r, omega_r, alt_r):
    """Compass azimuth in [0, 360), North = 0, East = 90 (radian arrays or
    scalars in, broadcast together).

    The arcsin form of the azimuth is quadrant-ambiguous; the sign of
    sin(alt)*sin(phi) - sin(delta) (equivalently cos(omega) vs
    tan(delta)/tan(phi)) tells whether the sun sits on the equator side of
    the east-west vertical circle, which fixes the quadrant. At the zenith
    (cos(alt) < 1e-12) the azimuth is the equator side's.
    """
    cos_alt = np.cos(alt_r)
    s = np.clip(np.cos(delta_r) * np.sin(omega_r) / cos_alt, -1.0, 1.0)
    gamma_s = np.degrees(np.arcsin(s))  # from South, positive toward West
    south_side = (np.sin(alt_r) * np.sin(phi_r) - np.sin(delta_r)) >= 0.0
    gamma_s = np.where(south_side, gamma_s, np.copysign(180.0, gamma_s) - gamma_s)
    return np.where(cos_alt < 1e-12, np.where(phi_r >= delta_r, 180.0, 0.0),
                    (180.0 + gamma_s) % 360.0)


def incidence_cosine(altitude):
    """cos(theta) on a horizontal aperture: sin(altitude), clamped at 0
    (an array or a scalar)."""
    altitude = np.asarray(altitude, dtype=float)
    _check_range("altitude", altitude, (altitude >= -90.0) & (altitude <= 90.0))
    return np.maximum(0.0, np.sin(np.radians(altitude)))


class ClimateSeries:
    """One year of validated hourly records (8760 rows).

    Values are treated as piecewise-constant over each hour; the record at
    index i covers [i, i+1) hours from Jan 1 00:00 local clock time.
    """

    def __init__(self, temperature: np.ndarray, dni: np.ndarray, dhi: np.ndarray,
                 source: str = "<memory>"):
        arrays = [np.asarray(a, dtype=float) for a in (temperature, dni, dhi)]
        for name, arr in zip(CLIMATE_COLUMNS[1:], arrays):
            if arr.shape != (HOURS_PER_YEAR,):
                raise ClimateError(
                    f"{name}: expected {HOURS_PER_YEAR} hourly values, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise ClimateError(f"{name}: non-finite value at row {bad}")
        for name, arr in zip(("DNI", "DHI"), arrays[1:]):
            if np.any(arr < 0.0):
                raise ClimateError(f"negative {name} at row {int(np.argmax(arr < 0.0))}")
        self.temperature, self.dni, self.dhi = arrays
        self.source = source
        for arr in arrays:
            arr.flags.writeable = False

    def __len__(self) -> int:
        return HOURS_PER_YEAR

    def content_hash(self) -> str:
        import hashlib
        h = hashlib.sha256()
        for arr in (self.temperature, self.dni, self.dhi):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


_STEP_TOLERANCE = 1e-6      # hours an hourly step may be off, absolute
_TIME_FORMATS = ("%Y-%m-%d %H:%M", "%Y-%m-%dT%H:%M", "%Y%m%d:%H%M", "%d/%m/%Y %H:%M")


def _parse_time_cell(cell: str) -> float:
    """Hours since the first record; accepts an index or a datetime string."""
    cell = cell.strip()
    try:
        return float(cell)
    except ValueError:
        pass
    for fmt in _TIME_FORMATS:
        try:
            dt = datetime.strptime(cell, fmt)
            ref = datetime(dt.year, 1, 1)
            return (dt - ref).total_seconds() / 3600.0
        except ValueError:
            continue
    raise ClimateError(f"unparseable timestamp {cell!r}")


def load_climate(path: str | Path, columns: Optional[dict] = None) -> ClimateSeries:
    """Read an hourly climate file, comma or semicolon separated (detected).

    `columns` maps the logical names time/temperature/dni/dhi onto the
    file's header names. Units are fixed: degC and W m-2. The file must
    contain exactly one full year of strictly increasing hourly records;
    gaps, duplicates and a cell outside its `CLIMATE_RANGES` entry are
    rejected with the file's name and the offending row: its index among
    the rows after the header, blank rows included.

    A body of plain numbers that passes every check is read in one
    `np.loadtxt` call; any other body (timestamps, quoted cells, a cell
    that call will not parse, a refusal) goes through the row reader,
    which makes every refusal. Both give the same bits where both parse.
    """
    path = Path(path)
    if not path.exists():
        raise ClimateError(f"climate file not found: {path}")
    names = {name: name for name in CLIMATE_COLUMNS}
    if columns:
        names.update(columns)

    with open(path, newline="") as fh:
        head = fh.readline()
        body = fh.read()
    delimiter = ";" if head.count(";") > head.count(",") else ","
    header = [c.strip() for c in head.strip().split(delimiter)]
    missing = {k: v for k, v in names.items() if v not in header}
    if missing:
        keys = [f"climate_columns.{k}" if k in (columns or {}) else k for k in missing]
        raise ClimateError(f"missing column(s) {list(missing.values())} for {keys} "
                           f"in {path.name}; header={header}")
    usecols = [header.index(names[k]) for k in CLIMATE_COLUMNS]
    try:
        year = _parse_plain(body, delimiter, usecols)
        if year is None:
            year = _read_rows(body, delimiter, usecols)
        return ClimateSeries(*year[1:], source=str(path))
    except ClimateError as exc:
        raise ClimateError(f"climate file {path.name}: {exc}") from None


def _parse_plain(body: str, delimiter: str, usecols: list) -> Optional[np.ndarray]:
    """The body's time, temperature, DNI and DHI columns as the rows of one
    (4, n) array, or None unless one `np.loadtxt` call reads every one of
    their cells and the year passes every check `_read_rows` makes."""
    if '"' in body:             # the csv reader unquotes a cell; loadtxt would not
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # a body with no data
            year = np.loadtxt(io.StringIO(body), delimiter=delimiter, comments=None,
                              usecols=usecols, ndmin=2).T.copy()
    except ValueError:
        return None
    ranges = (CLIMATE_RANGES[name] for name in CLIMATE_COLUMNS[1:])
    if (year.shape[1] == HOURS_PER_YEAR
            and all(((low <= x) & (x <= high)).all() for x, (low, high) in zip(year[1:], ranges))
            and np.allclose(np.diff(year[0]), 1.0, rtol=0.0, atol=_STEP_TOLERANCE)):
        return year
    return None


def _read_rows(body: str, delimiter: str, usecols: list) -> tuple:
    """The body's time, temperature, DNI and DHI columns as four arrays,
    read row by row; a refusal names its row."""
    t_col, temp_col, dni_col, dhi_col = usecols
    rows, hours, temps, dnis, dhis = [], [], [], [], []
    reader = csv.reader(io.StringIO(body, newline=""), delimiter=delimiter)
    for row_no, row in enumerate(reader):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            t = _parse_time_cell(row[t_col])
            temp = float(row[temp_col])
            dni = float(row[dni_col])
            dhi = float(row[dhi_col])
        except (ValueError, IndexError) as exc:
            raise ClimateError(f"bad record at row {row_no}: {exc}") from None
        for name, value in zip(CLIMATE_COLUMNS[1:], (temp, dni, dhi)):
            low, high = CLIMATE_RANGES[name]
            if not low <= value <= high:
                what = (f"negative {name.upper()}" if low == 0.0 and value < 0.0
                        else f"{name}: non-finite value" if not math.isfinite(value)
                        else f"{name}: {value!r} outside [{low:g}, {high:g}]")
                raise ClimateError(f"{what} at row {row_no}")
        rows.append(row_no)
        hours.append(t)
        temps.append(temp)
        dnis.append(dni)
        dhis.append(dhi)

    # the first step off the hour names its row (a NaN step too), so a
    # repeated, missing or blank row is found before the count is checked
    steps = np.diff(np.asarray(hours))
    off = np.flatnonzero(~np.isclose(steps, 1.0, rtol=0.0, atol=_STEP_TOLERANCE))
    if off.size:
        what = ("timestamps not strictly increasing" if steps[off[0]] <= 0.0
                else "non-hourly timestamp step")
        raise ClimateError(f"{what} at row {rows[off[0] + 1]}")
    if len(hours) != HOURS_PER_YEAR:
        raise ClimateError(
            f"incomplete year: {len(hours)} records, expected {HOURS_PER_YEAR}")
    return np.asarray(hours), np.asarray(temps), np.asarray(dnis), np.asarray(dhis)


# ---------------------------------------------------------------------------
# Synthetic reference year
# ---------------------------------------------------------------------------

def synthetic_dubai_year(site: SiteConfig) -> ClimateSeries:
    """Deterministic Dubai-like hourly year (clear-sky beam + haze/cloud dips).

    Purely analytic stand-in for a PVGIS-style TMY: Hottel-type beam
    attenuation, isotropic-ish diffuse, a sinusoidal annual temperature
    wave with a diurnal swing, and a smooth pseudo-random cloudiness
    pattern (no RNG, so the series is bit-reproducible). Annual totals land
    near the emirate's typical DNI/DHI/GHI magnitudes.
    """
    solar_constant = 1361.0  # W m-2
    i = np.arange(HOURS_PER_YEAR)
    day = i // 24 + 1
    hour = i % 24 + 0.5
    sin_alt = np.sin(np.radians(solar_position(site, day, hour).altitude))

    # smooth deterministic "weather": winter passing clouds, summer dust haze
    season = np.cos(2.0 * np.pi * (day - 15) / 365.0)            # 1 mid-January
    wobble = np.sin(0.71 * day) * np.sin(0.23 * day + 1.3) + 0.4 * np.sin(2.9 * day)
    cloud = np.maximum(0.0, 0.55 * np.maximum(0.0, season) * wobble)  # winter episodes
    haze = 0.10 + 0.10 * np.maximum(0.0, -season)                # summer dust
    clear_frac = np.maximum(0.20, 1.0 - cloud - haze)

    # Hottel clear-sky beam (23 km visibility, sea level), scaled by the
    # haze/cloud state; scattered share grows as the beam drops; none at night
    up = sin_alt > 0.0
    tau_b = 0.124 + 0.749 * np.exp(-0.395 / np.maximum(sin_alt, 0.02))
    dni = np.where(up, solar_constant * tau_b * clear_frac, 0.0)
    tau_d = np.maximum(0.06, 0.271 - 0.294 * tau_b)
    dhi = np.where(up, solar_constant * sin_alt * (tau_d + 0.24 * (1.0 - clear_frac)), 0.0)

    t_mean = 27.5 - 8.5 * np.cos(2.0 * np.pi * (day - 28) / 365.0)
    diurnal = 5.5 * np.cos(2.0 * np.pi * (hour - 14.5) / 24.0)
    return ClimateSeries(np.round(t_mean + diurnal - 1.5 * cloud, 2), np.round(dni, 1),
                         np.round(dhi, 1), source="<synthetic-dubai>")


def sunpath_table(site: SiteConfig, days: Sequence[int] = (),
                  step_hours: float = 0.5) -> list[dict]:
    """Altitude/azimuth/incidence rows for selected days (sun-path chart
    data), one row per clock hour 0, step_hours, ... below 24."""
    if not days:
        days = (21, 52, 80, 111, 141, 172, 202, 233, 264, 294, 325, 355)
    hours = np.arange(0.0, 24.0, step_hours)
    day = np.repeat(np.asarray(days), hours.size)
    hour = np.tile(hours, len(days))
    pos = solar_position(site, day, hour)
    cosine = incidence_cosine(np.clip(pos.altitude, -90.0, 90.0))
    return [{"day": d, "clock_hour": round(h, 4), "declination": dec, "eot_minutes": eot,
             "altitude": alt, "azimuth": azi, "incidence_cosine": c}
            for d, h, dec, eot, alt, azi, c in zip(
                day.tolist(), hour.tolist(), pos.declination.tolist(),
                pos.eot_minutes.tolist(), pos.altitude.tolist(), pos.azimuth.tolist(),
                cosine.tolist())]
