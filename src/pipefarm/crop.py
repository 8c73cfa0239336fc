"""Lettuce growth per tier: light interception, LUE-driven biomass, harvests.

Dry and fresh matter integrate PPFD * (1 - exp(-k * LAI)) * LUE each step;
LAI follows dry matter through a specific-leaf-area surrogate with a cap.
Plants are harvested at a target fresh mass and the tier resets to the
transplant state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
import numpy as np

__all__ = [
    "CropParams",
    "LueTable",
    "CropState",
    "interception",
    "growth_step",
    "harvest_if_due",
]


@dataclass(frozen=True)
class CropParams:
    extinction_k: float = 0.9            # canopy light extinction (config, not published)
    plant_density: float = 25.0          # plants m-2
    target_fresh_g: float = 250.0        # g per plant at harvest
    tier_area_m2: float = 30.0
    sla_m2_per_g_dm: float = 0.02        # leaf area per g dry matter
    lai_cap: float = 6.0
    dm_fraction: float = 0.05            # dry share of fresh growth
    transplant_dm_g_m2: float = 2.0
    stagger_days: float = 0.0            # tier-to-tier harvest offset

    def __post_init__(self):
        for name in ("extinction_k", "plant_density", "target_fresh_g", "tier_area_m2",
                     "sla_m2_per_g_dm", "lai_cap", "dm_fraction", "transplant_dm_g_m2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def plants(self) -> float:
        return self.plant_density * self.tier_area_m2

    @property
    def target_fresh_g_m2(self) -> float:
        return self.target_fresh_g * self.plant_density

    def transplant_state(self, offset_fm_g_m2: float = 0.0) -> "CropState":
        dm = self.transplant_dm_g_m2
        fm = dm / self.dm_fraction + offset_fm_g_m2
        return CropState(dm_g_m2=dm, fm_g_m2=fm,
                         lai=min(self.sla_m2_per_g_dm * dm, self.lai_cap))


class LueTable:
    """Light-use-efficiency grid over (temperature, CO2, PPFD).

    Values are g per umol of intercepted photons, trilinearly interpolated
    and scaled by a single calibration factor. Queries outside the grid
    clamp to the nearest face and report it.
    """

    def __init__(self, temps: np.ndarray, co2s: np.ndarray, ppfds: np.ndarray,
                 lue_dm: np.ndarray, lue_fm: np.ndarray, scale: float = 1.0):
        self.temps = np.asarray(temps, dtype=float)
        self.co2s = np.asarray(co2s, dtype=float)
        self.ppfds = np.asarray(ppfds, dtype=float)
        self.lue_dm = np.asarray(lue_dm, dtype=float)
        self.lue_fm = np.asarray(lue_fm, dtype=float)
        self.scale = float(scale)
        shape = (self.temps.size, self.co2s.size, self.ppfds.size)
        if self.temps.size == 0 or self.co2s.size == 0 or self.ppfds.size == 0:
            raise ValueError("LUE table axes must be non-empty")
        if self.lue_dm.shape != shape or self.lue_fm.shape != shape:
            raise ValueError(f"LUE table shape {self.lue_dm.shape} != axes {shape}")
        for name, axis in (("temps", self.temps), ("co2s", self.co2s), ("ppfds", self.ppfds)):
            if axis.size > 1 and np.any(np.diff(axis) <= 0.0):
                raise ValueError(f"{name} axis must be strictly increasing")
        if np.any(self.lue_dm <= 0.0) or np.any(self.lue_fm <= 0.0):
            raise ValueError("LUE values must be positive")
        if self.scale <= 0.0:
            raise ValueError("calibration scale must be positive")

    def with_scale(self, scale: float) -> "LueTable":
        return LueTable(self.temps, self.co2s, self.ppfds, self.lue_dm, self.lue_fm, scale)

    def _axis_weights(self, axis: np.ndarray, x: float) -> tuple[int, int, float, bool]:
        if axis.size == 1:
            return 0, 0, 0.0, False
        clamped = x < axis[0] or x > axis[-1]
        x = min(max(x, axis[0]), axis[-1])
        j = int(np.searchsorted(axis, x, side="right") - 1)
        j = min(j, axis.size - 2)
        f = (x - axis[j]) / (axis[j + 1] - axis[j])
        return j, j + 1, f, clamped

    def lookup(self, temperature: float, co2: float, ppfd: float
               ) -> tuple[float, float, bool]:
        """(lue_dm, lue_fm, clamped) at the query point, calibration applied."""
        it0, it1, ft, ct = self._axis_weights(self.temps, temperature)
        ic0, ic1, fc, cc = self._axis_weights(self.co2s, co2)
        ip0, ip1, fp, cp = self._axis_weights(self.ppfds, ppfd)
        out = []
        for grid in (self.lue_dm, self.lue_fm):
            v = 0.0
            for it, wt in ((it0, 1.0 - ft), (it1, ft)):
                for ic, wc in ((ic0, 1.0 - fc), (ic1, fc)):
                    for ip, wp in ((ip0, 1.0 - fp), (ip1, fp)):
                        w = wt * wc * wp
                        if w > 0.0:
                            v += w * grid[it, ic, ip]
            out.append(v * self.scale)
        return out[0], out[1], (ct or cc or cp)

    @classmethod
    def from_csv(cls, path: str | Path, scale: float = 1.0) -> "LueTable":
        """Columns: temperature, co2, ppfd, lue_dm, lue_fm (full grid required)."""
        path = Path(path)
        rows = []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rows.append((float(row["temperature"]), float(row["co2"]),
                             float(row["ppfd"]), float(row["lue_dm"]),
                             float(row["lue_fm"])))
        if not rows:
            raise ValueError(f"empty LUE table: {path}")
        temps = np.unique([r[0] for r in rows])
        co2s = np.unique([r[1] for r in rows])
        ppfds = np.unique([r[2] for r in rows])
        dm = np.full((temps.size, co2s.size, ppfds.size), np.nan)
        fm = np.full_like(dm, np.nan)
        for t, c, p, vdm, vfm in rows:
            dm[np.searchsorted(temps, t), np.searchsorted(co2s, c),
               np.searchsorted(ppfds, p)] = vdm
            fm[np.searchsorted(temps, t), np.searchsorted(co2s, c),
               np.searchsorted(ppfds, p)] = vfm
        if np.any(np.isnan(dm)) or np.any(np.isnan(fm)):
            raise ValueError(f"LUE table {path.name} does not cover the full grid")
        return cls(temps, co2s, ppfds, dm, fm, scale)


@dataclass(frozen=True)
class CropState:
    dm_g_m2: float = 0.0
    fm_g_m2: float = 0.0
    lai: float = 0.0
    harvested_kg: float = 0.0
    cycles: int = 0

    def __post_init__(self):
        if self.dm_g_m2 < 0.0 or self.fm_g_m2 < 0.0 or self.lai < 0.0:
            raise ValueError("crop state must be non-negative")
        if self.fm_g_m2 + 1e-9 < self.dm_g_m2:
            raise ValueError("fresh matter cannot be below dry matter")


def interception(lai: float, k: float) -> float:
    """Fraction of canopy-level PPFD intercepted by the crop."""
    return 1.0 - np.exp(-k * lai) if lai > 0.0 else 0.0


def growth_step(state: CropState, ppfd: float, dt_s: float, params: CropParams,
                table: LueTable, temperature: float, co2: float) -> CropState:
    """Advance one tier by dt seconds of constant canopy PPFD."""
    if dt_s <= 0.0:
        raise ValueError("dt must be positive")
    if ppfd < 0.0:
        raise ValueError("PPFD must be non-negative")
    f_int = interception(state.lai, params.extinction_k)
    if ppfd > 0.0 and f_int > 0.0:
        lue_dm, lue_fm, _ = table.lookup(temperature, co2, ppfd)
        absorbed = ppfd * f_int * dt_s          # umol m-2
        dm = state.dm_g_m2 + absorbed * lue_dm
        fm = state.fm_g_m2 + absorbed * lue_fm
    else:
        dm, fm = state.dm_g_m2, state.fm_g_m2
    return replace(state, dm_g_m2=dm, fm_g_m2=fm,
                   lai=min(params.sla_m2_per_g_dm * dm, params.lai_cap))


def harvest_if_due(state: CropState, params: CropParams) -> tuple[CropState, float]:
    """Harvest the tier when per-plant fresh mass reaches the target.

    Yield is booked at exactly the target mass per plant (trim losses
    absorb any overshoot) and the tier resets to the transplant state.
    """
    per_plant_g = state.fm_g_m2 / params.plant_density
    if per_plant_g < params.target_fresh_g:
        return state, 0.0
    harvested_kg = params.target_fresh_g * params.plants / 1000.0
    fresh = params.transplant_state()
    return replace(fresh, harvested_kg=state.harvested_kg + harvested_kg,
                   cycles=state.cycles + 1), harvested_kg


def standing_credit_kg(state: CropState, params: CropParams) -> float:
    """Fresh mass standing on the tier, capped at the harvest target.

    Used for the cycle-normalized annual yield so calibration sees a
    smooth objective instead of one quantized by whole harvests.
    """
    per_plant_g = min(state.fm_g_m2 / params.plant_density, params.target_fresh_g)
    return per_plant_g * params.plants / 1000.0
