"""Site solar geometry and hourly climate ingestion.

Solar position follows the classic Cooper declination / equation-of-time
chain (degrees throughout, North = 0 azimuth). Climate data is a plain
delimited text file with one row per hour covering a full non-leap year.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

HOURS_PER_YEAR = 8760

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

    latitude: float            # deg
    longitude: float           # deg east
    utc_offset: float          # hours

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")
        if not -180.0 <= self.reference_longitude <= 180.0:
            raise ValueError(f"reference longitude out of range: {self.reference_longitude}")

    @property
    def reference_longitude(self) -> float:
        return 15.0 * self.utc_offset


@dataclass(frozen=True)
class SolarPosition:
    day: int                   # day of year, 1..365
    declination: float         # deg
    eot_minutes: float         # equation of time, min
    aux_angle: float           # deg, drives the equation of time
    solar_time: float          # h
    hour_angle: float          # deg, 0 at solar noon, positive afternoon
    altitude: float            # deg above horizon (negative at night)
    azimuth: float             # deg clockwise from North in [0, 360)


def declination(day: int) -> float:
    """Solar declination in degrees for day-of-year 1..365 (Cooper)."""
    return 23.45 * math.sin(math.radians(360.0 * (284 + day) / 365.0))


def _aux_angle(day: int) -> float:
    return (day - 81) * 360.0 / 364.0


def equation_of_time(day: int) -> float:
    """Equation of time in minutes for day-of-year 1..365."""
    b = math.radians(_aux_angle(day))
    return 9.87 * math.sin(2.0 * b) - 7.53 * math.cos(b) - 1.5 * math.sin(b)


def solar_position(site: SiteConfig, day: int, clock_hour: float) -> SolarPosition:
    """Sun position for local clock time on a given day of year.

    Solar time carries the equation-of-time correction plus 4 minutes per
    degree of longitude east of the zone reference meridian, so solar noon
    (hour angle 0 = local meridian transit) lands where the sky says it
    should rather than at 12:00 on the clock.

    Day 366 is folded onto 365; the declination formula is periodic over
    365 days and the residual error is negligible.
    """
    if not 1 <= day <= 366:
        raise ValueError(f"day of year out of range: {day}")
    if not 0.0 <= clock_hour < 24.0:
        raise ValueError(f"clock hour out of range: {clock_hour}")
    n = min(day, 365)

    delta = declination(n)
    eot = equation_of_time(n)
    h_sol = clock_hour + (eot + 4.0 * (site.longitude - site.reference_longitude)) / 60.0
    omega = 15.0 * (h_sol - 12.0)

    phi_r = math.radians(site.latitude)
    delta_r = math.radians(delta)
    omega_r = math.radians(omega)

    sin_alt = (math.sin(delta_r) * math.sin(phi_r)
               + math.cos(delta_r) * math.cos(phi_r) * math.cos(omega_r))
    sin_alt = max(-1.0, min(1.0, sin_alt))
    alt = math.degrees(math.asin(sin_alt))

    azimuth = _resolve_azimuth(phi_r, delta_r, omega_r, math.radians(alt))
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


def _resolve_azimuth(phi_r: float, delta_r: float, omega_r: float, alt_r: float) -> float:
    """Compass azimuth in [0, 360), North = 0, East = 90.

    The arcsin form of the azimuth is quadrant-ambiguous; the sign of
    sin(alt)*sin(phi) - sin(delta) (equivalently cos(omega) vs
    tan(delta)/tan(phi)) tells whether the sun sits on the equator side of
    the east-west vertical circle, which fixes the quadrant.
    """
    cos_alt = math.cos(alt_r)
    if cos_alt < 1e-12:
        return 180.0 if phi_r >= delta_r else 0.0
    s = math.cos(delta_r) * math.sin(omega_r) / cos_alt
    s = max(-1.0, min(1.0, s))
    gamma_s = math.degrees(math.asin(s))  # from South, positive toward West
    south_side = (math.sin(alt_r) * math.sin(phi_r) - math.sin(delta_r)) >= 0.0
    if not south_side:
        gamma_s = 180.0 - gamma_s if gamma_s >= 0.0 else -180.0 - gamma_s
    return (180.0 + gamma_s) % 360.0


def incidence_cosine(altitude: float) -> float:
    """cos(theta) on a horizontal aperture: sin(altitude), clamped at 0."""
    if not -90.0 <= altitude <= 90.0:
        raise ValueError(f"altitude out of range: {altitude}")
    return max(0.0, math.sin(math.radians(altitude)))


class ClimateSeries:
    """One year of validated hourly records (8760 rows).

    Values are treated as piecewise-constant over each hour; the record at
    index i covers [i, i+1) hours from Jan 1 00:00 local clock time.
    """

    def __init__(self, temperature: np.ndarray, dni: np.ndarray, dhi: np.ndarray,
                 source: str = "<memory>"):
        temperature = np.asarray(temperature, dtype=float)
        dni = np.asarray(dni, dtype=float)
        dhi = np.asarray(dhi, dtype=float)
        for name, arr in (("temperature", temperature), ("dni", dni), ("dhi", dhi)):
            if arr.shape != (HOURS_PER_YEAR,):
                raise ClimateError(
                    f"{name}: expected {HOURS_PER_YEAR} hourly values, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise ClimateError(f"{name}: non-finite value at row {bad}")
        if np.any(dni < 0.0):
            bad = int(np.flatnonzero(dni < 0.0)[0])
            raise ClimateError(f"negative DNI at row {bad}")
        if np.any(dhi < 0.0):
            bad = int(np.flatnonzero(dhi < 0.0)[0])
            raise ClimateError(f"negative DHI at row {bad}")
        self.temperature = temperature
        self.dni = dni
        self.dhi = dhi
        self.source = source
        self.temperature.flags.writeable = False
        self.dni.flags.writeable = False
        self.dhi.flags.writeable = False

    def __len__(self) -> int:
        return HOURS_PER_YEAR

    def content_hash(self) -> str:
        import hashlib
        h = hashlib.sha256()
        for arr in (self.temperature, self.dni, self.dhi):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


_TIME_FORMATS = ("%Y-%m-%d %H:%M", "%Y-%m-%dT%H:%M", "%Y%m%d:%H%M", "%d/%m/%Y %H:%M")


def _parse_time_cell(cell: str, row: int) -> float:
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
    raise ClimateError(f"unparseable timestamp {cell!r} at row {row}")


def load_climate(path: str | Path,
                 columns: Optional[dict] = None,
                 delimiter: Optional[str] = None) -> ClimateSeries:
    """Read an hourly climate file (csv or semicolon separated).

    `columns` maps the logical names time/temperature/dni/dhi onto the
    file's header names. Units are fixed: degC and W m-2. The file must
    contain exactly one full year of strictly increasing hourly records;
    gaps, duplicates and negative irradiance are rejected with the
    offending row index.
    """
    path = Path(path)
    if not path.exists():
        raise ClimateError(f"climate file not found: {path}")
    names = {"time": "time", "temperature": "temperature", "dni": "dni", "dhi": "dhi"}
    if columns:
        names.update(columns)

    with open(path, newline="") as fh:
        head = fh.readline()
        if delimiter is None:
            delimiter = ";" if head.count(";") > head.count(",") else ","
        header = [c.strip() for c in head.strip().split(delimiter)]
        missing = [v for v in names.values() if v not in header]
        if missing:
            raise ClimateError(f"missing column(s) {missing} in {path.name}; header={header}")
        idx = {k: header.index(v) for k, v in names.items()}

        hours, temps, dnis, dhis = [], [], [], []
        reader = csv.reader(fh, delimiter=delimiter)
        for row_no, row in enumerate(reader):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                t = _parse_time_cell(row[idx["time"]], row_no)
                temp = float(row[idx["temperature"]])
                dni = float(row[idx["dni"]])
                dhi = float(row[idx["dhi"]])
            except (ValueError, IndexError) as exc:
                raise ClimateError(f"bad record at row {row_no}: {exc}") from None
            if dni < 0.0:
                raise ClimateError(f"negative DNI at row {row_no}")
            if dhi < 0.0:
                raise ClimateError(f"negative DHI at row {row_no}")
            hours.append(t)
            temps.append(temp)
            dnis.append(dni)
            dhis.append(dhi)

    if len(hours) != HOURS_PER_YEAR:
        raise ClimateError(
            f"incomplete year: {len(hours)} records, expected {HOURS_PER_YEAR}")
    steps = np.diff(np.asarray(hours))
    if np.any(steps <= 0.0):
        bad = int(np.flatnonzero(steps <= 0.0)[0]) + 1
        raise ClimateError(f"timestamps not strictly increasing at row {bad}")
    if not np.allclose(steps, 1.0, atol=1e-6):
        bad = int(np.flatnonzero(np.abs(steps - 1.0) > 1e-6)[0]) + 1
        raise ClimateError(f"non-hourly timestamp step at row {bad}")
    return ClimateSeries(np.asarray(temps), np.asarray(dnis), np.asarray(dhis),
                         source=str(path))


# ---------------------------------------------------------------------------
# Synthetic reference year
# ---------------------------------------------------------------------------

def synthetic_dubai_year(site: Optional[SiteConfig] = None) -> ClimateSeries:
    """Deterministic Dubai-like hourly year (clear-sky beam + haze/cloud dips).

    Purely analytic stand-in for a PVGIS-style TMY: Hottel-type beam
    attenuation, isotropic-ish diffuse, a sinusoidal annual temperature
    wave with a diurnal swing, and a smooth pseudo-random cloudiness
    pattern (no RNG, so the series is bit-reproducible). Annual totals land
    near the emirate's typical DNI/DHI/GHI magnitudes.
    """
    site = site or SiteConfig(latitude=25.0, longitude=55.0, utc_offset=4.0)
    solar_constant = 1361.0  # W m-2
    temps = np.empty(HOURS_PER_YEAR)
    dni = np.empty(HOURS_PER_YEAR)
    dhi = np.empty(HOURS_PER_YEAR)

    for i in range(HOURS_PER_YEAR):
        day = i // 24 + 1
        hour = i % 24 + 0.5
        pos = solar_position(site, day, hour)
        sin_alt = math.sin(math.radians(pos.altitude))

        # smooth deterministic "weather": winter passing clouds, summer dust haze
        season = math.cos(2.0 * math.pi * (day - 15) / 365.0)      # 1 mid-January
        wobble = (math.sin(0.71 * day) * math.sin(0.23 * day + 1.3)
                  + 0.4 * math.sin(2.9 * day))
        cloud = max(0.0, 0.55 * max(0.0, season) * wobble)         # winter episodes
        haze = 0.10 + 0.10 * max(0.0, -season)                     # summer dust
        clear_frac = max(0.20, 1.0 - cloud - haze)

        if sin_alt <= 0.0:
            dni[i] = 0.0
            dhi[i] = 0.0
        else:
            # Hottel clear-sky beam (23 km visibility, sea level), scaled by
            # the haze/cloud state; scattered share grows as the beam drops
            tau_b = 0.124 + 0.749 * math.exp(-0.395 / max(sin_alt, 0.02))
            dni[i] = solar_constant * tau_b * clear_frac
            tau_d = max(0.06, 0.271 - 0.294 * tau_b)
            dhi[i] = solar_constant * sin_alt * (tau_d + 0.24 * (1.0 - clear_frac))

        t_mean = 27.5 - 8.5 * math.cos(2.0 * math.pi * (day - 28) / 365.0)
        diurnal = 5.5 * math.cos(2.0 * math.pi * (hour - 14.5) / 24.0)
        temps[i] = round(t_mean + diurnal - 1.5 * cloud, 2)
        dni[i] = round(dni[i], 1)
        dhi[i] = round(dhi[i], 1)

    return ClimateSeries(temps, dni, dhi, source="<synthetic-dubai>")


def sunpath_table(site: SiteConfig, days: Sequence[int] = (),
                  step_hours: float = 0.5) -> list[dict]:
    """Altitude/azimuth/incidence rows for selected days (sun-path chart data)."""
    if not days:
        days = (21, 52, 80, 111, 141, 172, 202, 233, 264, 294, 325, 355)
    rows = []
    for day in days:
        h = 0.0
        while h < 24.0:
            pos = solar_position(site, day, h)
            rows.append({
                "day": day,
                "clock_hour": round(h, 4),
                "declination": pos.declination,
                "eot_minutes": pos.eot_minutes,
                "altitude": pos.altitude,
                "azimuth": pos.azimuth,
                "incidence_cosine": incidence_cosine(max(-90.0, min(90.0, pos.altitude))),
            })
            h += step_hours
    return rows
