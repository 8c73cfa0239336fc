"""Lettuce growth per tier: light interception, LUE-driven biomass, harvests.

Dry and fresh matter integrate PPFD * (1 - exp(-k * LAI)) * LUE each step;
LAI follows dry matter through a specific-leaf-area surrogate with a cap.
Plants are harvested at a target fresh mass and the tier resets to the
transplant state. `grow`, `harvest_due` and `interception` are the
one-step reference forms of that law; the engine's lit-hour stepper
carries the same operations inline, in the same order.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "CropParams",
    "LueTable",
    "LueCurve",
    "CropState",
    "interception",
    "grow",
    "harvest_due",
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
        if not 0.0 <= self.stagger_days <= 365.0:
            raise ValueError(f"stagger_days must be in [0, 365] days, not {self.stagger_days!r}")
        # a transplant already at the target would be harvested every hour
        transplant_g = self.transplant_dm_g_m2 / self.dm_fraction / self.plant_density
        if transplant_g >= self.target_fresh_g:
            raise ValueError(f"target_fresh_g must exceed the transplant's "
                             f"{transplant_g:g} g per plant")

    @property
    def plants(self) -> float:
        return self.plant_density * self.tier_area_m2

    @property
    def harvest_kg(self) -> float:
        """Yield booked per harvest of one tier: the target mass per plant."""
        return self.target_fresh_g * self.plants / 1000.0

    def leaf_area(self, dm_g_m2: float) -> float:
        """LAI of a canopy with this much dry matter."""
        return min(self.sla_m2_per_g_dm * dm_g_m2, self.lai_cap)

    def transplant_state(self) -> "CropState":
        dm = self.transplant_dm_g_m2
        return CropState(dm_g_m2=dm, fm_g_m2=dm / self.dm_fraction, lai=self.leaf_area(dm))


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
            if not np.all(np.isfinite(axis)) or np.any(np.diff(axis) <= 0.0):
                raise ValueError(f"{name} axis must be finite and strictly increasing")
        if not (np.all(self.lue_dm > 0.0) and np.all(self.lue_fm > 0.0)):
            raise ValueError("LUE values must be positive")
        if self.scale <= 0.0:
            raise ValueError("calibration scale must be positive")

    def with_scale(self, scale: float) -> "LueTable":
        return LueTable(self.temps, self.co2s, self.ppfds, self.lue_dm, self.lue_fm, scale)

    def curve(self, temperature: float, co2: float) -> "LueCurve":
        """The table along its PPFD axis at one temperature and CO2."""
        it0, it1, ft, ct = _axis_weights(self.temps, temperature)
        ic0, ic1, fc, cc = _axis_weights(self.co2s, co2)
        rows = [(wt * wc, self.lue_dm[it, ic], self.lue_fm[it, ic])
                for it, wt in ((it0, 1.0 - ft), (it1, ft))
                for ic, wc in ((ic0, 1.0 - fc), (ic1, fc))
                if wt * wc > 0.0]
        return LueCurve(self.ppfds, rows, self.scale, ct or cc)

    def lookup(self, temperature: float, co2: float, ppfd: float
               ) -> tuple[float, float, bool]:
        """(lue_dm, lue_fm, clamped) at the query point, calibration applied."""
        return self.curve(temperature, co2)(ppfd)

    @classmethod
    def from_csv(cls, path: str | Path, scale: float = 1.0) -> "LueTable":
        """Columns: temperature, co2, ppfd, lue_dm, lue_fm (full grid required)."""
        path = Path(path)
        named = "point (temperature {:g}, co2 {:g}, ppfd {:g})".format
        points: dict = {}
        with open(path, newline="") as fh:
            rows = csv.DictReader(fh)
            for row in rows:
                point = (float(row["temperature"]), float(row["co2"]), float(row["ppfd"]))
                if not all(map(math.isfinite, point)):
                    raise ValueError(f"LUE table {path.name} line {rows.line_num}: "
                                     f"the {named(*point)} is not finite")
                if point in points:
                    raise ValueError(f"LUE table {path.name} repeats the {named(*point)}")
                points[point] = (float(row["lue_dm"]), float(row["lue_fm"]))
        if not points:
            raise ValueError(f"empty LUE table: {path}")
        axes = [sorted({point[i] for point in points}) for i in range(3)]
        grid = list(itertools.product(*axes))
        for point in grid:
            if point not in points:
                raise ValueError(f"LUE table {path.name} does not cover the full grid: it "
                                 f"has no {named(*point)}")
        dm, fm = (np.array([points[point][i] for point in grid]).reshape(*map(len, axes))
                  for i in range(2))
        return cls(*axes, dm, fm, scale)


def _axis_weights(axis: np.ndarray, x):
    """Lower and upper bracketing indices, the upper weight and the clamp
    flag of each x on an axis."""
    x = np.asarray(x, dtype=float)
    if axis.size == 1:
        j = k = np.zeros(x.shape, dtype=int)
        return j, k, np.zeros(x.shape), np.zeros(x.shape, dtype=bool)
    clamp = x.clip(axis[0], axis[-1])
    j = np.searchsorted(axis[1:-1], clamp, side="right")   # in [0, size - 2]
    return j, j + 1, (clamp - axis[j]) / (axis[j + 1] - axis[j]), clamp != x


@dataclass(frozen=True)
class LueCurve:
    """LUE along the PPFD axis at a fixed temperature and CO2.

    Holds the (temperature, CO2) corner rows of the table whose weight is
    non-zero, at most four. Evaluating it adds the terms in the table's
    (temperature, CO2, PPFD) corner order and then applies the scale, so
    it is the trilinear interpolation of the table, bit for bit.
    """

    ppfds: np.ndarray
    rows: list                # (corner weight, dm row, fm row)
    scale: float
    clamped: bool             # temperature or CO2 outside the grid

    def __call__(self, ppfd):
        """(lue_dm, lue_fm, clamped) at each PPFD, calibration applied;
        floats and a bool for a scalar PPFD."""
        ip0, ip1, fp, cp = _axis_weights(self.ppfds, ppfd)
        v_dm = v_fm = 0.0          # a zero weight adds +0.0, which changes no sum
        for w_tc, row_dm, row_fm in self.rows:
            for ip, wp in ((ip0, 1.0 - fp), (ip1, fp)):
                w = w_tc * wp
                v_dm += w * row_dm[ip]
                v_fm += w * row_fm[ip]
        v_dm, v_fm = v_dm * self.scale, v_fm * self.scale
        if np.ndim(ppfd):
            return v_dm, v_fm, self.clamped | cp
        return float(v_dm), float(v_fm), bool(self.clamped or cp)


@dataclass(frozen=True)
class CropState:
    dm_g_m2: float = 0.0
    fm_g_m2: float = 0.0
    lai: float = 0.0
    cycles: int = 0

    def __post_init__(self):
        if self.dm_g_m2 < 0.0 or self.fm_g_m2 < 0.0 or self.lai < 0.0:
            raise ValueError("crop state must be non-negative")
        if self.fm_g_m2 + 1e-9 < self.dm_g_m2:
            raise ValueError("fresh matter cannot be below dry matter")


def interception(lai: float, k: float) -> float:
    """Fraction of canopy-level PPFD intercepted by the crop."""
    return 1.0 - np.exp(-k * lai) if lai > 0.0 else 0.0


def grow(dm_g_m2: float, fm_g_m2: float, absorbed: float, lue_dm: float, lue_fm: float,
         params: CropParams) -> tuple[float, float, float]:
    """One growth step on plain floats: dry matter, fresh matter and LAI
    after `absorbed` umol m-2 of intercepted light at the given LUEs."""
    dm = dm_g_m2 + absorbed * lue_dm
    return dm, fm_g_m2 + absorbed * lue_fm, params.leaf_area(dm)


def harvest_due(fm_g_m2: float, params: CropParams) -> bool:
    """Whether per-plant fresh mass has reached the harvest target."""
    return fm_g_m2 / params.plant_density >= params.target_fresh_g


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
        dm, fm, lai = grow(state.dm_g_m2, state.fm_g_m2, ppfd * f_int * dt_s,  # umol m-2
                           lue_dm, lue_fm, params)
    else:
        dm, fm, lai = state.dm_g_m2, state.fm_g_m2, params.leaf_area(state.dm_g_m2)
    return replace(state, dm_g_m2=dm, fm_g_m2=fm, lai=lai)


def harvest_if_due(state: CropState, params: CropParams) -> tuple[CropState, float]:
    """Harvest the tier when per-plant fresh mass reaches the target.

    Yield is booked at exactly the target mass per plant (trim losses
    absorb any overshoot) and the tier resets to the transplant state.
    """
    if not harvest_due(state.fm_g_m2, params):
        return state, 0.0
    return replace(params.transplant_state(), cycles=state.cycles + 1), params.harvest_kg


def standing_credit_kg(state: CropState, params: CropParams) -> float:
    """Fresh mass standing on the tier, capped at the harvest target.

    Used for the cycle-normalized annual yield so calibration sees a
    smooth objective instead of one quantized by whole harvests.
    """
    per_plant_g = min(state.fm_g_m2 / params.plant_density, params.target_fresh_g)
    return per_plant_g * params.plants / 1000.0
