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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

SOLAR_UMOL_PER_J = 2.247   # full solar spectrum -> photons
PAR_UMOL_PER_J = 4.56      # 400-700 nm band -> photons
PAR_FRACTION = SOLAR_UMOL_PER_J / PAR_UMOL_PER_J  # PAR share of solar power

DIFFUSE_BANDS = tuple(range(10, 91, 10))  # upper edges of ten-degree sky bands

__all__ = [
    "LpGeometry",
    "LpGains",
    "FluxMap",
    "OpticalEfficiencyTable",
    "mirror_tilt",
    "dome_band_fraction",
    "lp_solar_gains",
    "lp_crop_ppfd",
    "filtered_efficiency",
    "gh_gains",
    "SOLAR_UMOL_PER_J",
    "PAR_UMOL_PER_J",
    "PAR_FRACTION",
    "DIFFUSE_BANDS",
]


@dataclass(frozen=True)
class LpGeometry:
    """One roof light pipe: collector dome, tracking mirror, duct, diffuser.

    The prismatic diffuser is a regular array of shallow four-sided
    pyramids; its optically relevant parameter is the facet slope, which
    follows from the apex angle between opposite facets. Pitch and pyramid
    height only set the microstructure scale, far below the duct diameter,
    so the tracer treats the sheet as a thin deterministic deviator.
    """

    diameter_mm: float = 150.0
    length_mm: float = 1000.0
    dome_transmittance: float = 0.91
    wall_reflectance: float = 0.90
    mirror_reflectance: float = 0.90
    mirror_diameter_mm: Optional[float] = None   # defaults to pipe diameter
    mirror_hinge_height_m: float = 0.0           # disc centre on the dome base plane
    diffuser_pitch_mm: float = 2.0
    diffuser_pyramid_height_mm: float = 4.0
    diffuser_apex_angle_deg: float = 152.0
    diffuser_refractive_index: float = 1.49
    diffuser_throughput: float = 0.89            # bulk Fresnel/absorption factor
    canopy_distance_m: float = 0.5
    target_zone_m: float = 0.20

    def __post_init__(self):
        for name in ("diameter_mm", "length_mm", "diffuser_pitch_mm",
                     "diffuser_pyramid_height_mm", "canopy_distance_m", "target_zone_m"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("dome_transmittance", "wall_reflectance", "mirror_reflectance",
                     "diffuser_throughput"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if not 0.0 < self.diffuser_apex_angle_deg < 180.0:
            raise ValueError("diffuser apex angle must be in (0, 180) deg")
        if self.diffuser_refractive_index <= 1.0:
            raise ValueError("diffuser refractive index must exceed 1")

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
    def mirror_radius_m(self) -> float:
        d = self.mirror_diameter_mm if self.mirror_diameter_mm is not None else self.diameter_mm
        return d / 2000.0

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

    def zone_integral(self, half_width_m: float) -> float:
        """Fraction of incident power landing within the centred square zone."""
        n = self.cells.shape[0]
        centers = (np.arange(n) + 0.5) * self.pitch_m - self.extent_m / 2.0
        inside = np.abs(centers) <= half_width_m + 1e-12
        area = self.pitch_m ** 2
        return float(self.cells[np.ix_(inside, inside)].sum() * area)

    def scaled(self, incident_w: float) -> np.ndarray:
        return self.cells * incident_w

    def export(self, path: str | Path, meta: Optional[dict] = None) -> None:
        """Delimited grid plus a JSON sidecar with extent/pitch metadata."""
        import json
        path = Path(path)
        np.savetxt(path, self.cells, delimiter=",", fmt="%.8e")
        sidecar = {"pitch_m": self.pitch_m, "extent_m": self.extent_m,
                   "shape": list(self.cells.shape)}
        if meta:
            sidecar.update(meta)
        Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


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
    geometry_hash: str = ""

    ETA_DIR_CEILING = 0.73     # stated single-pipe ceiling for the direct beam

    def __post_init__(self):
        if self.provenance not in ("traced", "imported"):
            raise ValueError("provenance must be 'traced' or 'imported'")
        for name in ("eta_dir", "eta_diff_th", "eta_diff_crop"):
            arr = getattr(self, name)
            if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-9):
                raise ValueError(f"{name} entries must lie in [0, 1]")
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

    def eta_diff_at(self, tilt: float) -> tuple[np.ndarray, np.ndarray, bool]:
        th = np.array([np.interp(tilt, self.tilt_grid, col) for col in self.eta_diff_th.T])
        crop = np.array([np.interp(tilt, self.tilt_grid, col) for col in self.eta_diff_crop.T])
        return th, crop, _outside(tilt, self.tilt_grid)

    # -- delimited text round-trip ------------------------------------------

    def export_csv(self, path: str | Path) -> None:
        path = Path(path)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["kind", "angle", "tilt", "eta", "eta_crop", "stderr", "stderr_crop"])
            for a, e, s in zip(self.alt_grid, self.eta_dir, self.se_dir):
                w.writerow(["direct", repr(float(a)), "", repr(float(e)), "",
                            repr(float(s)), ""])
            for i, t in enumerate(self.tilt_grid):
                for j, b in enumerate(self.bands):
                    w.writerow(["diffuse", repr(float(b)), repr(float(t)),
                                repr(float(self.eta_diff_th[i, j])),
                                repr(float(self.eta_diff_crop[i, j])),
                                repr(float(self.se_diff_th[i, j])),
                                repr(float(self.se_diff_crop[i, j]))])

    @classmethod
    def import_csv(cls, path: str | Path, geometry_hash: str = "") -> "OpticalEfficiencyTable":
        path = Path(path)
        alt, ed, sd = [], [], []
        diff: dict[float, dict[float, tuple]] = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                kind = row["kind"].strip()
                if kind == "direct":
                    alt.append(float(row["angle"]))
                    ed.append(float(row["eta"]))
                    sd.append(float(row["stderr"] or 0.0))
                elif kind == "diffuse":
                    t = float(row["tilt"])
                    b = float(row["angle"])
                    diff.setdefault(t, {})[b] = (
                        float(row["eta"]), float(row["eta_crop"] or 0.0),
                        float(row["stderr"] or 0.0), float(row["stderr_crop"] or 0.0))
                else:
                    raise ValueError(f"unknown efficiency row kind {kind!r} in {path.name}")
        if not alt or not diff:
            raise ValueError(f"efficiency table {path.name} is missing direct or diffuse rows")
        order = np.argsort(alt)
        tilts = sorted(diff)
        bands = tuple(sorted(next(iter(diff.values()))))
        th = np.array([[diff[t][b][0] for b in bands] for t in tilts])
        crop = np.array([[diff[t][b][1] for b in bands] for t in tilts])
        se_th = np.array([[diff[t][b][2] for b in bands] for t in tilts])
        se_crop = np.array([[diff[t][b][3] for b in bands] for t in tilts])
        return cls(alt_grid=np.asarray(alt)[order], eta_dir=np.asarray(ed)[order],
                   se_dir=np.asarray(sd)[order], tilt_grid=np.asarray(tilts, dtype=float),
                   bands=bands, eta_diff_th=th, eta_diff_crop=crop,
                   se_diff_th=se_th, se_diff_crop=se_crop,
                   provenance="imported", geometry_hash=geometry_hash)


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
