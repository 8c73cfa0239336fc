"""Light-pipe optical chain: geometry, efficiency tables and solar gains.

The chain is dome -> tilting mirror -> reflective duct -> pyramidal
prismatic diffuser. Altitude-resolved efficiencies come either from the
built-in Monte Carlo tracer (see tracer.py) or from an imported table;
both feed the same gain formulas here. The gain functions take arrays of
hours (a scalar hour broadcasts), so a scenario-year is one call each.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

SOLAR_UMOL_PER_J = 2.247   # full solar spectrum -> photons
PAR_UMOL_PER_J = 4.56      # 400-700 nm band -> photons
PAR_FRACTION = SOLAR_UMOL_PER_J / PAR_UMOL_PER_J  # PAR share of solar power

DIFFUSE_BANDS = tuple(range(10, 91, 10))  # upper edges of ten-degree sky bands
ALTITUDE_STEP_DEG = 5.0   # traced table: direct-beam altitudes 5, 10, ..., 90 deg
TILT_STEP_DEG = 5.0       # and mirror tilts 45, 50, ..., 90 deg

__all__ = [
    "LpGeometry",
    "LpGains",
    "FluxMap",
    "OpticalEfficiencyTable",
    "mirror_tilt",
    "dome_band_fraction",
    "band_mean_sin",
    "lp_solar_gains",
    "lp_crop_ppfd",
    "filtered_efficiency",
    "gh_gains",
    "SOLAR_UMOL_PER_J",
    "PAR_UMOL_PER_J",
    "PAR_FRACTION",
    "DIFFUSE_BANDS",
    "ALTITUDE_STEP_DEG",
    "TILT_STEP_DEG",
]


@dataclass(frozen=True)
class LpGeometry:
    """One roof light pipe: collector dome, tracking mirror, duct, diffuser.

    The prismatic diffuser is a regular array of shallow four-sided
    pyramids, modelled by its facet slope alone: the slope follows from
    the apex angle between opposite facets, and the pyramids are far
    smaller than the duct, so the tracer treats the sheet as a thin
    deterministic deviator. The tracking mirror is a disc with the duct's
    radius, hinged through its centre on the aperture plane.
    """

    diameter_mm: float = 150.0
    length_mm: float = 1000.0
    dome_transmittance: float = 0.91
    wall_reflectance: float = 0.90
    mirror_reflectance: float = 0.90
    diffuser_apex_angle_deg: float = 152.0
    diffuser_refractive_index: float = 1.49
    diffuser_throughput: float = 0.89            # bulk Fresnel/absorption factor
    canopy_distance_m: float = 0.5
    target_zone_m: float = 0.20

    def __post_init__(self):
        for name in ("diameter_mm", "length_mm", "canopy_distance_m", "target_zone_m"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("dome_transmittance", "wall_reflectance", "mirror_reflectance",
                     "diffuser_throughput"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if not 0.0 < self.diffuser_apex_angle_deg < 180.0:
            raise ValueError("diffuser_apex_angle_deg must be in (0, 180) deg")
        if self.diffuser_refractive_index <= 1.0:
            raise ValueError("diffuser_refractive_index must exceed 1")

    @property
    def radius_m(self) -> float:
        return self.diameter_mm / 2000.0

    @property
    def length_m(self) -> float:
        return self.length_mm / 1000.0

    @property
    def aperture_area_m2(self) -> float:
        return math.pi * self.radius_m ** 2

    @property
    def lateral_area_m2(self) -> float:
        return math.pi * (self.diameter_mm / 1000.0) * self.length_m

    @property
    def diffuser_facet_slope_deg(self) -> float:
        """Facet tilt from the sheet plane: half the 180-deg complement of the apex."""
        return (180.0 - self.diffuser_apex_angle_deg) / 2.0

    def content_hash(self) -> str:
        blob = "|".join(f"{k}={getattr(self, k)!r}" for k in sorted(self.__dataclass_fields__))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def mirror_tilt(altitude):
    """Tracking mirror tilt from horizontal so the beam reflects straight down.

    The mirror normal bisects the incoming beam and the duct axis, which
    puts the plane at (90 + altitude)/2: 45 deg for a horizon sun, 70 deg
    at 50 deg altitude, near-vertical as the sun approaches the zenith.
    """
    if not np.all((0.0 <= altitude) & (altitude <= 90.0)):
        raise ValueError(f"altitude out of range: {altitude}")
    return (90.0 + altitude) / 2.0


def dome_band_fraction(band_upper_deg: float) -> float:
    """Isotropic-sky weight of the ten-degree altitude band below band_upper_deg."""
    if band_upper_deg not in DIFFUSE_BANDS:
        raise ValueError(f"band upper edge must be one of {DIFFUSE_BANDS}")
    hi = math.radians(band_upper_deg)
    lo = hi - math.pi / 18.0
    return math.sin(hi) ** 2 - math.sin(lo) ** 2


def band_mean_sin(band_upper_deg: float) -> float:
    """Mean sin(altitude) over the ten-degree band below band_upper_deg,
    weighted by the band's horizontal irradiance (pdf ~ sin * cos in
    altitude): the mean projection onto the aperture of a traced sky ray.

    A diffuse efficiency is normalized to the band's power on the
    horizontal aperture, which a launch disc of the aperture's area
    exceeds by 1 / band_mean_sin; that ratio is the estimate's ceiling.
    """
    if band_upper_deg not in DIFFUSE_BANDS:
        raise ValueError(f"band upper edge must be one of {DIFFUSE_BANDS}")
    lo = math.radians(band_upper_deg - 10.0)
    hi = math.radians(band_upper_deg)
    s2lo, s2hi = math.sin(lo) ** 2, math.sin(hi) ** 2
    return 2.0 * (math.sin(hi) ** 3 - math.sin(lo) ** 3) / (3.0 * (s2hi - s2lo))


@dataclass(frozen=True)
class FluxMap:
    """Normalized irradiance on the crop plane under one pipe.

    Cell values are per-unit incident aperture power per square metre, so
    scaling by the aperture-incident watts of a given hour yields W m-2.
    """

    cells: np.ndarray          # (ny, nx), fraction of incident power per m2
    pitch_m: float
    extent_m: float            # full side length, grid centred on the duct axis

    def __post_init__(self):
        if np.any(self.cells < -1e-12):
            raise ValueError("flux map cells must be non-negative")

    def centers(self) -> np.ndarray:
        """Cell-centre coordinates (m) along either axis of the square grid."""
        n = self.cells.shape[0]
        return (np.arange(n) + 0.5) * self.pitch_m - self.extent_m / 2.0

    def zone_integral(self, half_width_m: float) -> float:
        """Fraction of incident power landing within the centred square zone."""
        inside = np.abs(self.centers()) <= half_width_m + 1e-12
        area = self.pitch_m ** 2
        return float(self.cells[np.ix_(inside, inside)].sum() * area)

    def csv_columns(self) -> tuple[list, list]:
        """Header and columns of the delimited grid (write with
        `engine.write_csv`): the header holds each column's centre x (m),
        and each row is one row of cells."""
        return self.centers().tolist(), list(self.cells.T)


@dataclass(frozen=True)
class OpticalEfficiencyTable:
    """Altitude-resolved direct and per-band diffuse efficiencies.

    Direct entries are sampled on an altitude grid; diffuse entries are
    per ten-degree sky band as a function of mirror tilt. The rear
    half-dome occlusion is not baked in here; lp_solar_gains halves the
    diffuse irradiance instead.
    """

    alt_grid: np.ndarray       # deg, ascending
    eta_dir: np.ndarray        # (n_alt,)
    se_dir: np.ndarray         # MC standard error per entry
    tilt_grid: np.ndarray      # deg, ascending
    bands: tuple               # upper edges, deg
    eta_diff_th: np.ndarray    # (n_tilt, n_band) power entering the chamber
    eta_diff_crop: np.ndarray  # (n_tilt, n_band) power reaching the target zone
    se_diff_th: np.ndarray
    se_diff_crop: np.ndarray
    provenance: str = "traced"            # traced | imported
    geometry_hash: Optional[str] = None   # of the traced geometry; None if imported

    ETA_DIR_CEILING = 0.73     # stated single-pipe ceiling for the direct beam

    def __post_init__(self):
        if self.provenance not in ("traced", "imported"):
            raise ValueError("provenance must be 'traced' or 'imported'")
        if np.any(self.eta_dir < -1e-12) or np.any(self.eta_dir > 1.0 + 1e-9):
            raise ValueError("eta_dir entries must lie in [0, 1]")
        # a diffuse entry can pass 1: see band_mean_sin
        ceiling = np.array([1.0 / band_mean_sin(b) for b in self.bands])
        for name in ("eta_diff_th", "eta_diff_crop"):
            arr = getattr(self, name)
            if np.any(arr < -1e-12) or np.any(arr > ceiling + 1e-9):
                raise ValueError(f"{name} entries must lie in [0, 1 / band_mean_sin] "
                                 "of their band")
        if np.any(self.eta_diff_crop > self.eta_diff_th + 3.0 * (self.se_diff_th + self.se_diff_crop) + 1e-9):
            raise ValueError("crop-side diffuse efficiency exceeds chamber-side")
        # isotropic-sky weighted sums per tilt (the per-band series with
        # unit irradiance), precomputed because the annual loop hits them
        # every daylight hour
        f = np.array([dome_band_fraction(b) for b in self.bands])
        object.__setattr__(self, "_band_sum_th", self.eta_diff_th @ f)
        object.__setattr__(self, "_band_sum_crop", self.eta_diff_crop @ f)

    def weighted_diffuse_at(self, tilt):
        """Band-fraction-weighted diffuse efficiencies (chamber, crop) at
        mirror tilts, and whether each tilt lies outside the table's support
        (clamped to the nearest sample)."""
        return (np.interp(tilt, self.tilt_grid, self._band_sum_th),
                np.interp(tilt, self.tilt_grid, self._band_sum_crop),
                _outside(tilt, self.tilt_grid))

    def bound_violations(self) -> list[str]:
        """Entries above the documented direct-beam ceiling (flag, not fatal)."""
        out = []
        for a, e, s in zip(self.alt_grid, self.eta_dir, self.se_dir):
            if e > self.ETA_DIR_CEILING + 3.0 * s:
                out.append(f"eta_dir({a:g}) = {e:.4f} above {self.ETA_DIR_CEILING} + 3*stderr")
        return out

    def eta_dir_at(self, altitude):
        """Linear interpolation; clamped to the nearest sample outside support."""
        return (np.interp(altitude, self.alt_grid, self.eta_dir),
                _outside(altitude, self.alt_grid))

    # -- delimited text round-trip ------------------------------------------

    def csv_columns(self) -> tuple[list, list]:
        """Header and columns of the delimited form (write with
        `engine.write_csv`): one `direct` row per altitude, then one
        `diffuse` row per tilt and band, with the angle column holding the
        band's upper edge."""
        n_dir, n_diff = self.alt_grid.size, self.eta_diff_th.size
        tilts, bands = np.meshgrid(self.tilt_grid, np.asarray(self.bands, dtype=float),
                                   indexing="ij")
        blank = [None] * n_dir
        return (["kind", "angle", "tilt", "eta", "eta_crop", "stderr", "stderr_crop"],
                [["direct"] * n_dir + ["diffuse"] * n_diff,
                 np.concatenate([self.alt_grid, bands.ravel()]),
                 blank + tilts.ravel().tolist(),
                 np.concatenate([self.eta_dir, self.eta_diff_th.ravel()]),
                 blank + self.eta_diff_crop.ravel().tolist(),
                 np.concatenate([self.se_dir, self.se_diff_th.ravel()]),
                 blank + self.se_diff_crop.ravel().tolist()])

    @classmethod
    def import_csv(cls, path: str | Path, provenance: str = "imported",
                   geometry_hash: Optional[str] = None) -> "OpticalEfficiencyTable":
        """The table a file in `csv_columns`' form holds. A blank `eta_crop`
        or stderr cell reads 0; every other cell must be a finite number."""
        name = f"efficiency table {Path(path).name}"
        direct, diff = {}, {}          # altitude: cells, and tilt: {band: cells}
        with open(path, newline="") as fh:
            rows = csv.DictReader(fh)
            for row in rows:
                where = f"{name} line {rows.line_num}"
                kind = (row.get("kind") or "").strip()
                if kind not in _ROW_CELLS:
                    raise ValueError(f"{where}: unknown row kind {kind!r}")
                try:
                    v = [float(row[n]) if row[n] or n in ("angle", "tilt", "eta") else 0.0
                         for n in _ROW_CELLS[kind]]
                    if not all(map(math.isfinite, v)):
                        raise ValueError
                except (KeyError, TypeError, ValueError):
                    raise ValueError(f"{where}: {', '.join(_ROW_CELLS[kind])} "
                                     "must be finite numbers") from None
                if kind == "direct":
                    if not 0.0 < v[0] <= 90.0:      # a sun above the horizon
                        raise ValueError(f"{where}: direct angle {v[0]:g} is outside (0, 90]")
                    if v[0] in direct:
                        raise ValueError(f"{name} repeats the direct altitude {v[0]:g}")
                    direct[v[0]] = tuple(v[1:])
                else:
                    t, b = v[:2]
                    if not 45.0 <= t <= 90.0:       # the tilts `mirror_tilt` returns
                        raise ValueError(f"{where}: diffuse tilt {t:g} is outside [45, 90]")
                    if b in diff.setdefault(t, {}):
                        raise ValueError(f"{name} repeats the diffuse cell at tilt {t:g}, band {b:g}")
                    diff[t][b] = tuple(v[2:])
        if not direct or not diff:
            raise ValueError(f"{name} is missing direct or diffuse rows")
        alt, tilts = sorted(direct), sorted(diff)
        bands = tuple(sorted(set().union(*diff.values())))
        for t, b in itertools.product(tilts, bands):
            if b not in diff[t]:
                raise ValueError(f"{name} has no diffuse cell at tilt {t:g}, band {b:g}")
        eta_dir, se_dir = (np.array([direct[a][i] for a in alt]) for i in range(2))
        th, crop, se_th, se_crop = (np.array([[diff[t][b][i] for b in bands] for t in tilts])
                                    for i in range(4))
        try:
            return cls(alt_grid=np.asarray(alt), eta_dir=eta_dir, se_dir=se_dir,
                       tilt_grid=np.asarray(tilts, dtype=float), bands=bands, eta_diff_th=th,
                       eta_diff_crop=crop, se_diff_th=se_th, se_diff_crop=se_crop,
                       provenance=provenance, geometry_hash=geometry_hash)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None


# the cells `import_csv` reads from each kind of row, in order
_ROW_CELLS = {"direct": ("angle", "eta", "stderr"),
              "diffuse": ("tilt", "angle", "eta", "eta_crop", "stderr", "stderr_crop")}


def _outside(x, grid: np.ndarray):
    """Whether x lies beyond the ends of an ascending grid (by over 1e-9)."""
    return (x < grid[0] - 1e-9) | (x > grid[-1] + 1e-9)


@dataclass(frozen=True)
class LpGains:
    """Light-pipe fleet gains in watts, one entry per hour (or scalars).

    The q_* fields share one spectral basis: full solar for plain pipes,
    PAR-only once a UV-IR filter is in the path. ppfd_conversion is the
    matching photons-per-joule factor, so crop PPFD is always
    (q_dir + q_diff_crop) * ppfd_conversion / area. `clamped` marks the
    hours whose sun lay outside the efficiency table's support.
    """

    q_dir: np.ndarray | float = 0.0
    q_diff_th: np.ndarray | float = 0.0
    q_diff_crop: np.ndarray | float = 0.0
    ppfd_conversion: float = SOLAR_UMOL_PER_J
    clamped: np.ndarray | bool = False

    def __post_init__(self):
        if any(np.any(q < 0.0) for q in (self.q_dir, self.q_diff_th, self.q_diff_crop)):
            raise ValueError("gains must be non-negative")

    @property
    def flags(self) -> tuple:
        return ("table-support-clamped",) if np.any(self.clamped) else ()

    @property
    def q_sol(self):
        """Total solar gain entering the chamber (direct + chamber diffuse)."""
        return self.q_dir + self.q_diff_th

    @property
    def q_crop(self):
        return self.q_dir + self.q_diff_crop

    def scaled(self, factor, conversion: Optional[float] = None) -> "LpGains":
        return LpGains(self.q_dir * factor, self.q_diff_th * factor,
                       self.q_diff_crop * factor,
                       conversion if conversion is not None else self.ppfd_conversion,
                       self.clamped)


def lp_solar_gains(table: OpticalEfficiencyTable, dni, dhi, altitude,
                   geometry: LpGeometry, n_pipes: int = 1) -> LpGains:
    """Fleet solar gains for hours of direct + diffuse irradiance (arrays
    or scalars, broadcast together).

    Direct: I_dir * sin(alt) * eta_dir * A. Diffuse: isotropic sky split
    into ten-degree bands, halved because the mirror occludes the rear
    half-dome, each band weighted by its dome fraction and traced
    efficiency at the current mirror tilt. Everything is zero when the
    sun is below the horizon (the tracking mirror is parked at night).
    """
    if np.any(dni < 0.0) or np.any(dhi < 0.0):
        raise ValueError("irradiance must be non-negative")
    up = (altitude > 0.0) & ((dni != 0.0) | (dhi != 0.0))
    area = geometry.aperture_area_m2 * n_pipes
    eta_d, clamped_dir = table.eta_dir_at(altitude)
    q_dir = dni * np.sin(np.radians(altitude)) * eta_d * area

    sum_th, sum_crop, clamped_diff = table.weighted_diffuse_at(
        mirror_tilt(np.clip(altitude, 0.0, 90.0)))
    q_th = dhi / 2.0 * area * sum_th
    q_crop = dhi / 2.0 * area * sum_crop
    return LpGains(np.where(up, q_dir, 0.0), np.where(up, q_th, 0.0),
                   np.where(up, q_crop, 0.0), SOLAR_UMOL_PER_J,
                   up & (clamped_dir | clamped_diff))


def lp_crop_ppfd(gains: LpGains, crop_area_m2: float):
    """Crop-level PPFD from the delivered direct + crop-side diffuse power."""
    if crop_area_m2 <= 0.0:
        raise ValueError("crop area must be positive")
    return gains.q_crop * gains.ppfd_conversion / crop_area_m2


def filtered_efficiency(eta_base: float, tau_vis: float) -> float:
    """Optical chain efficiency with a UV-IR filter of visible transmittance tau."""
    if not 0.0 < eta_base <= 1.0 or not 0.0 < tau_vis <= 1.0:
        raise ValueError("efficiency and transmittance must be in (0, 1]")
    return eta_base * tau_vis


def apply_uv_ir_filter(gains: LpGains, tau_vis: float) -> LpGains:
    """Keep only the PAR band (times tau_vis); photons convert at 4.56 umol/J.

    The transmitted power drops to the PAR fraction of the solar spectrum,
    roughly halving the thermal load, while the photon flux only picks up
    the tau_vis penalty.
    """
    return gains.scaled(PAR_FRACTION * tau_vis, conversion=PAR_UMOL_PER_J)


def apply_neutral_attenuation(gains: LpGains, tau) -> LpGains:
    """Spectrally neutral attenuation (electrochromic film state), per hour
    when tau is an array."""
    return gains.scaled(tau)


def gh_gains(dni, dhi, altitude, azimuth, tau_glass: float, roof_area_m2: float,
             wall_area_m2: float, tier_occupancy: float, crop_area_m2: float) -> tuple:
    """Transmitted solar power for the greenhouse-like glazing scenario, for
    hours given as arrays or scalars: (q_sol W into the chamber, q_crop W on
    the cultivation plan area, ppfd on the daylit tier).

    Roof: beam on the horizontal plus full-sky diffuse. Walls: four equal
    orientations, each seeing the beam at its own incidence and half the
    sky. The crop plane occupies tier_occupancy of the floor, so only that
    share of the transmitted power is usable light at the canopy.
    """
    if not 0.0 < tau_glass <= 1.0:
        raise ValueError("glazing transmittance must be in (0, 1]")
    if np.any(dni < 0.0) or np.any(dhi < 0.0):
        raise ValueError("irradiance must be non-negative")
    up = altitude > 0.0
    sin_alt = np.where(up, np.sin(np.radians(altitude)), 0.0)
    cos_alt = np.where(up, np.cos(np.radians(altitude)), 0.0)
    beam_roof = dni * sin_alt * roof_area_m2
    beam_walls = sum(dni * np.maximum(0.0, cos_alt * np.cos(np.radians(azimuth - wall_az)))
                     * wall_area_m2 / 4.0 for wall_az in (0.0, 90.0, 180.0, 270.0))
    sky = np.where(up, dhi * roof_area_m2 + dhi / 2.0 * wall_area_m2, 0.0)

    q_sol = tau_glass * (beam_roof + beam_walls + sky)
    q_crop = q_sol * tier_occupancy
    ppfd = q_crop * SOLAR_UMOL_PER_J / crop_area_m2 if crop_area_m2 > 0.0 else 0.0 * q_crop
    return q_sol, q_crop, ppfd
