"""Annual simulation engine: one scenario-year as four array stages, plus
studies, calibration and multi-scenario comparison.

`run_scenario` chains the stages, each returning 8760-long hourly arrays:
daylight (optics and filter as one array call over the sun-up hours),
lighting (LED commands and power as one array call over the year), crop
(the one sequential stage: growth and harvests per tier) and thermal
(canopy sink, latent terms, air-node balance and HVAC electricity, with
the transient air node in `thermal.transient_loads`); the annual
aggregates are reductions of those arrays. Two pieces stay scalar calls,
because the benchmark's traced run reads their per-call results, but
only in the hours they act: the film state (`ec_control`) in the sun-up
hours its passive state would pass more than the cap, and the
quasi-steady pipe convection in the hours the chamber is warmer than
outside. Every other hour takes the answer the call would give: the
passive transmittance, or no loss at Ra 0. The crop stage steps only the
lit hours of each tier's year (and of the stagger pre-roll), on plain
floats with the growth law inline, with their LUE from one array call of
the run's LUE curve (temperature and CO2 are fixed setpoints),
bit-identical to stepping `CropState`s hour by hour with `crop`'s
one-step forms; a tier lit at one PPFD steps one cycle and tiles its
read columns over the year. Bench has no daylight, so calibration
iterates the crop stage alone on its LED light.

A `Study` is a scenario set under one climate year and one LUE scale,
which it fits itself: it builds their shared inputs once and refuses mixed
ones before any run.
Runs never trace: they interpolate an optical table that `trace-optics`
(or another tracer) wrote, and they draw no random numbers.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .climate import HOURS_PER_YEAR, ClimateSeries, SiteConfig, load_climate, \
    solar_position
from .config import ConfigError, ScenarioConfig
# growth_step and harvest_if_due: no caller, but traced by the benchmark (ROADMAP item 12)
from .crop import CropParams, CropState, LueCurve, LueTable, growth_step, harvest_due, \
    harvest_if_due, interception, standing_credit_kg
from .economics import REFERENCE_PIPE_PPF, KpiReport, compute_kpis, led_cost_per_watt, \
    payback_time, pipe_hardware, pipe_light_cost, sensitivity_sweep
from .lighting import EC_FILM, control_tier3, ec_control, led_electric_power
from .optics import OpticalEfficiencyTable, PAR_UMOL_PER_J, \
    apply_neutral_attenuation, apply_uv_ir_filter, gh_gains, lp_crop_ppfd, lp_solar_gains
from .thermal import LATENT_HEAT_J_PER_KG, POWER_COLUMNS, RA_VALID_RANGE, latent_balance, \
    envelope_load, hvac_electricity, lp_convection, relative_residual, solve_hvac_load, \
    transient_loads
from .tracer import MODEL_REVISION

__all__ = ["SimulationError", "SimulationResult", "Study", "prepare_efficiency_table",
           "solar_angles", "run_scenario", "calibrate_lue_scale",
           "compare_scenarios", "light_cost_inputs", "load_lue_table",
           "provenance", "scenario_capex_delta", "scenario_delta", "scenario_light_cost",
           "scenario_sweep", "write_csv", "write_json", "CalibrationError"]

W_TO_MWH = 1e-6  # 1 W over one hour = 1e-6 MWh


class SimulationError(RuntimeError):
    def __init__(self, message: str, hour: Optional[int] = None):
        self.hour = hour
        super().__init__(message if hour is None else f"hour {hour}: {message}")


class CalibrationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# shared preparation
# ---------------------------------------------------------------------------

def prepare_efficiency_table(cfg: ScenarioConfig) -> OpticalEfficiencyTable:
    """The table `optics.table` names; runs never trace. With a sidecar
    (`<table>.json`, from trace-optics) it reads as `traced`, and only under
    the traced `lp.*` geometry and this tracer's model revision."""
    if cfg.table_path is None:
        raise ConfigError("'optics.table' is not set; trace-optics can write a table for it")
    sidecar = Path(f"{cfg.table_path}.json")
    if not sidecar.exists():
        return OpticalEfficiencyTable.import_csv(cfg.table_path)
    try:
        meta = json.loads(sidecar.read_text())
        differ = [f"'lp.{k}' (traced {meta['lp'].get(k)!r}, run {v!r})"
                  for k, v in asdict(cfg.lp_geometry).items() if meta["lp"].get(k) != v]
        revision, geometry_hash = meta["model_revision"], meta["geometry_hash"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{sidecar}: not a trace-optics sidecar ({exc!r})") from None
    if differ:
        raise ConfigError(f"{sidecar}: the table was traced for another {', '.join(differ)}")
    if revision != MODEL_REVISION:
        raise ConfigError(f"{sidecar}: the table was traced by tracer model revision "
                          f"{revision!r}; this tracer is revision {MODEL_REVISION}")
    return OpticalEfficiencyTable.import_csv(cfg.table_path, "traced", geometry_hash)


def load_lue_table(cfg: ScenarioConfig) -> LueTable:
    """The configured LUE table at scale 1."""
    if cfg.lue_table_path is None:
        raise SimulationError("no LUE table configured (crop.lue_table)")
    return LueTable.from_csv(cfg.lue_table_path)


def solar_angles(site: SiteConfig, hour_center_offset: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(altitude, azimuth) for all 8760 hourly records of a non-leap year."""
    hours = np.arange(HOURS_PER_YEAR)
    pos = solar_position(site, hours // 24 + 1, hours % 24 + hour_center_offset)
    return pos.altitude, pos.azimuth


# the LUE fit reads the crop, setpoints and photoperiod, so they are shared too
_SHARED_INPUTS = ("climate_path", "climate_columns", "site", "hour_center_offset",
                  "lue_table_path", "ppe", "crop", "setpoint_t", "setpoint_co2",
                  "setpoint_ppfd", "photoperiod")


class Study:
    """Scenario configs whose `_SHARED_INPUTS` agree; it refuses any other.

    Builds the climate, one optical table per distinct optics input of the
    piped scenarios, the LUE table and, lazily, the solar angles. Without
    `lue` (a table the caller scaled) it fits the LUE scale on the first
    config run as Bench and keeps `calibrate_lue_scale`'s record in
    `calibration`; with `lue`, `calibration` is None."""

    def __init__(self, configs: Sequence[ScenarioConfig], lue: Optional[LueTable] = None):
        self.configs = tuple(configs)
        for i, cfg in enumerate(self.configs[1:], 2):
            self._check(cfg, f"config {i} ({cfg.scenario})")
        first = self.configs[0]
        if first.climate_path is None:
            raise ConfigError("no climate file configured")
        self.climate = load_climate(first.climate_path, first.climate_columns)
        self._tables: dict = {}
        for cfg in self.configs:
            self.table(cfg)
        self.calibration: Optional[dict] = None
        if lue is None:
            base = load_lue_table(first)
            self.calibration = calibrate_lue_scale(replace(first, scenario="Bench"),
                                                   self.climate, None, base)
            lue = base.with_scale(self.calibration["lue_scale"])
        self.lue = lue

    def _check(self, cfg: ScenarioConfig, name: str) -> None:
        first = self.configs[0]
        for attr in _SHARED_INPUTS:
            ours, theirs = getattr(first, attr), getattr(cfg, attr)
            if theirs != ours:
                raise SimulationError(f"mixed {attr} in one study: {name} has {theirs}, "
                                      f"config 1 ({first.scenario}) has {ours}")

    @functools.cached_property
    def solar(self) -> tuple[np.ndarray, np.ndarray]:
        return solar_angles(self.configs[0].site, self.configs[0].hour_center_offset)

    def table(self, cfg: ScenarioConfig) -> Optional[OpticalEfficiencyTable]:
        """The optical table of a piped scenario; None without pipes."""
        if not cfg.uses_light_pipes:
            return None
        key = (cfg.table_path, cfg.lp_geometry)     # what prepare_efficiency_table reads
        if key not in self._tables:
            self._tables[key] = prepare_efficiency_table(cfg)
        return self._tables[key]

    def run(self, cfg: ScenarioConfig) -> SimulationResult:
        """One scenario-year of `cfg`, a config that shares the study's inputs."""
        self._check(cfg, cfg.scenario)
        solar = self.solar if cfg.strategy.daylight != "none" else None
        return run_scenario(cfg, self.climate, self.table(cfg), self.lue, solar=solar)

    def results(self) -> list[SimulationResult]:
        """Every config's scenario-year, in order."""
        return [self.run(cfg) for cfg in self.configs]


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------

@dataclass
class SimulationResult:
    config: ScenarioConfig
    kpis: KpiReport
    aggregates: dict                      # annual sums, MWh / kg / L
    hourly: dict                          # column name -> np.ndarray(8760)
    dli: np.ndarray                       # (365, n_tiers) mol m-2 day-1
    harvests: list                        # (hour, tier, kg)
    metadata: dict
    warnings: list = field(default_factory=list)

    def save(self, outdir: str | Path) -> list[Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = [write_json(outdir / "kpis.json", {
            "kpis": asdict(self.kpis), "aggregates": self.aggregates,
            "metadata": self.metadata, "warnings": self.warnings})]

        lighting = [c for c in self.hourly if c not in POWER_COLUMNS]
        for name, cols in (("hourly_power.csv", POWER_COLUMNS),
                           ("hourly_lighting.csv", lighting)):
            p = outdir / name
            write_csv(p, ["hour", *cols],
                      [range(HOURS_PER_YEAR)] + [self.hourly[c] for c in cols])
            written.append(p)

        p = outdir / "dli.csv"
        days, tiers = self.dli.shape
        write_csv(p, ["day"] + [f"tier{t + 1}" for t in range(tiers)],
                  [range(1, days + 1)] + [self.dli[:, t] for t in range(tiers)])
        written.append(p)

        p = outdir / "harvests.csv"
        write_csv(p, ["hour", "tier", "kg"],
                  [[h[k] for h in self.harvests] for k in range(3)])
        written.append(p)
        return written


def provenance(cfg: Optional[ScenarioConfig] = None, **extra) -> dict:
    """The header every JSON output carries: the tool version and, with
    `cfg`, its config hash and scenario, plus `extra`."""
    meta = {"version": __version__, **extra}
    if cfg is not None:
        meta.update(config_hash=cfg.content_hash(), scenario=cfg.scenario)
    return meta


def _finite(v):
    """`v` with every non-finite float, at any depth, as None."""
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def write_json(path: str | Path, doc) -> Path:
    """`doc` as strict JSON (sorted keys, indent 2, non-finite numbers as
    null) at `path`, which it returns."""
    path = Path(path)
    path.write_text(json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False))
    return path


# Rows rendered and written at a time: an hourly file rendered whole holds
# the strings of all 8760 rows at once, about 9 MB more peak memory.
_BLOCK_ROWS = 512
_NEEDS_QUOTING = frozenset(',"\r\n')


def write_csv(path: Path, header: list, columns: Sequence) -> None:
    """Comma-separated text with a header line, written column-major.

    `columns` holds one equal-length sequence per header name. Rows are
    rendered and written `_BLOCK_ROWS` at a time. The float64 arrays of a
    block are rendered together: each distinct value, keyed by its bit
    pattern so that -0.0, 0.0 and every NaN keep their own text, goes
    through `repr` once and its text is scattered back to its cells. A
    `range` is rendered with one `str` map; any other sequence goes cell
    by cell. A float cell keeps its shortest round-trip repr, None becomes
    an empty cell and anything else is `str`.
    A cell that csv would have to quote (a comma, a double quote, CR or LF)
    is refused.
    """
    if len(columns) != len(header):
        raise ValueError(f"{path}: {len(header)} header names for {len(columns)} columns")
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"{path}: columns differ in length")
    is_float = [isinstance(col, np.ndarray) and col.dtype == np.float64 for col in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_cell, header)) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = [col[start:start + _BLOCK_ROWS] for col in columns]
            floats = iter(_render_floats([col for col, f in zip(block, is_float) if f]))
            block = [next(floats) if f else _render(col) for col, f in zip(block, is_float)]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _render_floats(cols: list) -> list:
    """Equal-length float64 columns as text, one `repr` per distinct bit pattern."""
    if not cols:
        return []
    m = len(cols[0])
    distinct, inverse = np.unique(np.concatenate(cols).view(np.int64), return_inverse=True)
    text = list(map(repr, distinct.view(np.float64).tolist()))
    cells = [text[i] for i in inverse.tolist()]
    return [cells[k:k + m] for k in range(0, len(cells), m)]


def _render(col) -> list:
    if isinstance(col, range):             # an int never needs quoting
        return list(map(str, col))
    return [_cell(c) for c in col]


def _cell(c) -> str:
    if c is None:
        return ""
    if isinstance(c, float):
        return repr(float(c))
    text = str(c)
    if not _NEEDS_QUOTING.isdisjoint(text):
        raise ValueError(f"csv cell {text!r} would need quoting")
    return text


# ---------------------------------------------------------------------------
# the annual run: four array stages
# ---------------------------------------------------------------------------

def run_scenario(cfg: ScenarioConfig, climate: ClimateSeries,
                 table: Optional[OpticalEfficiencyTable],
                 lue: LueTable,
                 solar: Optional[tuple[np.ndarray, np.ndarray]] = None
                 ) -> SimulationResult:
    """One scenario over one climate year.

    `table` may be None for scenarios without light pipes. `lue` carries
    the fitted scale. `solar` lets callers share the precomputed sun
    positions across runs.
    """
    if cfg.uses_light_pipes and table is None:
        raise SimulationError("light-pipe scenario needs an efficiency table")
    warnings: list[tuple[int, str]] = []
    q_sol, q_crop, daylight_ppfd, ec_tau = _daylight_stage(cfg, climate, table, solar,
                                                           warnings)
    ppfd, led_ppfd, dim, p12, p3 = _lighting_stage(cfg, daylight_ppfd)
    crop = _crop_stage(cfg, lue, ppfd)
    heat = _thermal_stage(cfg, climate.temperature, ppfd, led_ppfd, crop.interception,
                          q_sol, q_crop, p12 + p3, warnings)
    hourly = {**heat.hourly, "led_ppfd_t3": led_ppfd, "daylight_ppfd_t3": daylight_ppfd,
              "total_ppfd_t3": ppfd[:, 2].copy(), "dim_t3": dim, "ec_tau": ec_tau}

    cool_el_mwh = heat.cool_el * W_TO_MWH
    days_in_month = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    month = np.repeat(np.arange(12), 24 * np.array(days_in_month))   # 0 = January
    led12_mwh = float(p12.sum() * W_TO_MWH)
    led3_mwh = float(p3.sum() * W_TO_MWH)
    led_mwh = led12_mwh + led3_mwh
    electricity_mwh = float(hourly["p_total_el"].sum() * W_TO_MWH)
    harvested_daylight = float(q_sol.sum() * W_TO_MWH)
    embodied_l = crop.fm_growth_kg * cfg.surrogates.fm_water_l_per_kg
    net_water_l = embodied_l + max(0.0, heat.transpired_kg - heat.recovered_l)

    kpis = compute_kpis(yield_kg=crop.yield_kg, yield_raw_kg=crop.harvested_kg,
                        electricity_mwh=electricity_mwh,
                        harvested_daylight_mwh=harvested_daylight,
                        led_electricity_mwh=led_mwh, net_water_l=net_water_l,
                        mean_dli_per_tier=tuple(float(m) for m in crop.dli.mean(axis=0)))

    aggregates = {
        "electricity_mwh": electricity_mwh,
        "led_electricity_mwh": led_mwh,
        "led_tier12_mwh": led12_mwh,
        "led_tier3_mwh": led3_mwh,
        "hvac_electricity_mwh": float(hourly["p_hvac_el"].sum() * W_TO_MWH),
        "cooling_thermal_mwh": float(heat.q_cool.sum() * W_TO_MWH),
        "heating_thermal_mwh": float(heat.q_heat.sum() * W_TO_MWH),
        "coil_latent_mwh": float(hourly["q_eva"].sum() * W_TO_MWH),
        "harvested_daylight_mwh": harvested_daylight,
        "yield_kg": crop.yield_kg,
        "yield_harvested_kg": crop.harvested_kg,
        "cycles": crop.cycles,
        "transpired_kg": heat.transpired_kg,
        "condensate_recovered_l": heat.recovered_l,
        "net_water_l": net_water_l,
        "max_relative_residual": heat.max_residual,
        "peak_coil_w": float((heat.q_cool + hourly["q_eva"]).max()),
        "peak_heat_w": float(heat.q_heat.max()),
        "summer_cooling_el_mwh": float(cool_el_mwh[np.isin(month, (5, 6, 7))].sum()),
        "winter_cooling_el_mwh": float(cool_el_mwh[np.isin(month, (0, 1, 11))].sum()),
    }
    metadata = provenance(
        cfg, ppe=cfg.ppe, climate_hash=climate.content_hash(), climate_source=climate.source,
        lue_scale=lue.scale, table_provenance=table.provenance if table is not None else None,
        table_geometry_hash=table.geometry_hash if table is not None else None,
        timestep_mode=cfg.timestep_mode)
    warnings.sort(key=lambda hw: hw[0])    # stable: stage order within an hour
    return SimulationResult(config=cfg, kpis=kpis, aggregates=aggregates,
                            hourly=hourly, dli=crop.dli, harvests=crop.harvests,
                            metadata=metadata, warnings=[w for _, w in warnings])


def _daylight_stage(cfg: ScenarioConfig, climate: ClimateSeries,
                    table: Optional[OpticalEfficiencyTable],
                    solar: Optional[tuple[np.ndarray, np.ndarray]],
                    warnings: list) -> tuple[np.ndarray, ...]:
    """Tier-3 daylight of every sun-up hour, as one array call per layer.

    Returns the chamber solar gain q_sol (W), the power reaching the crop
    plane q_crop (W), the delivered crop PPFD after any filter or film, and
    the film transmittance (NaN where no film acts). The film stays at its
    passive `EC_FILM.tau_max` in every sun-up hour but those where that
    would pass more than the cap, and `ec_control` is called for those
    only. The first table-clamp and unreachable-cap hours go to `warnings`
    as (hour, text).
    """
    q_sol = np.zeros(HOURS_PER_YEAR)
    q_crop = np.zeros(HOURS_PER_YEAR)
    ppfd = np.zeros(HOURS_PER_YEAR)
    ec_tau = np.full(HOURS_PER_YEAR, math.nan)
    strategy = cfg.strategy
    if strategy.daylight == "none":
        return q_sol, q_crop, ppfd, ec_tau
    alts, azis = solar if solar is not None else solar_angles(cfg.site,
                                                              cfg.hour_center_offset)
    sun = np.flatnonzero(alts > 0.0)
    dni, dhi, alt = climate.dni[sun], climate.dhi[sun], alts[sun]
    tier_area = cfg.crop.tier_area_m2
    with np.errstate(over="ignore"):       # inf is reported below, with its hour
        if strategy.daylight == "glazing":
            q_sol[sun], q_crop[sun], ppfd[sun] = gh_gains(
                dni, dhi, alt, azis[sun], cfg.glazing.tau,
                cfg.chamber.floor_area_m2, cfg.glazing.wall_glazed_m2,
                cfg.tier_occupancy, tier_area)
        else:
            gains = lp_solar_gains(table, dni, dhi, alt, cfg.lp_geometry, cfg.n_pipes)
            if gains.flags:
                i = int(sun[np.argmax(gains.clamped)])
                warnings.append((i, f"hour {i}: {gains.flags[0]}"))
            if strategy.filter_tau is not None:
                gains = apply_uv_ir_filter(gains, strategy.filter_tau)
            elif strategy.ec_film:
                raw = lp_crop_ppfd(gains, tier_area)
                tau = np.full(sun.size, EC_FILM.tau_max)
                unreachable = np.zeros(sun.size, dtype=bool)
                # passive (tau_max) unless it would pass more than the cap:
                # ec_control's own test, negated so that a NaN, like a
                # negative PPFD it refuses, still takes the call
                passive = (raw * EC_FILM.tau_max <= cfg.ec_cap_ppfd) & (raw >= 0.0)
                act = np.flatnonzero(~passive)
                for k, x in zip(act.tolist(), raw[act].tolist()):
                    _, tau[k], _, unreachable[k] = ec_control(x, cfg.ec_cap_ppfd)
                if unreachable.any():
                    i = int(sun[np.argmax(unreachable)])
                    warnings.append((i, f"hour {i}: EC cap unreachable at max attenuation"))
                gains = apply_neutral_attenuation(gains, tau)
                ec_tau[sun] = tau
            q_sol[sun], q_crop[sun] = gains.q_sol, gains.q_crop
            ppfd[sun] = lp_crop_ppfd(gains, tier_area)
    bad = ~(np.isfinite(q_sol) & np.isfinite(ppfd))
    if bad.any():
        raise SimulationError("non-finite daylight gain", hour=int(np.argmax(bad)))
    return q_sol, q_crop, ppfd, ec_tau


def _lighting_stage(cfg: ScenarioConfig, daylight_ppfd: np.ndarray
                    ) -> tuple[np.ndarray, ...]:
    """LED commands and electric power for every hour.

    Tiers 1 and 2 hold the setpoint through the photoperiod; tier 3 follows
    its strategy against the delivered daylight, in one array call.
    Returns the (hours, 3) canopy PPFD, the tier-3 LED PPFD and dim
    fraction, and the tier-1/2 and tier-3 electric power (W).
    """
    tier_area = cfg.crop.tier_area_m2
    setpoint = cfg.setpoint_ppfd
    clock = np.arange(HOURS_PER_YEAR) % 24
    lit = (cfg.photoperiod[0] <= clock) & (clock < cfg.photoperiod[1])
    p12 = np.where(lit, led_electric_power(max(setpoint, 0.0), tier_area * 2, cfg.ppe),
                   0.0)
    cmd = control_tier3(cfg.scenario, daylight_ppfd, clock, setpoint,
                        cfg.min_threshold_ppfd, cfg.min_dim, cfg.photoperiod)
    ppfd = np.zeros((HOURS_PER_YEAR, 3))
    ppfd[lit, :2] = setpoint
    ppfd[:, 2] = cmd.total_ppfd
    p3 = led_electric_power(cmd.led_ppfd, tier_area, cfg.ppe)
    return ppfd, cmd.led_ppfd, cmd.dim_fraction, p12, p3


class _CropYear(NamedTuple):
    interception: np.ndarray   # (hours, tiers), at the start of each hour
    dli: np.ndarray            # (365, tiers) mol m-2 day-1
    harvests: list             # (hour, tier, kg)
    fm_growth_kg: float
    cycles: int
    harvested_kg: float
    yield_kg: float            # harvested plus standing growth (cycle-normalized)


def _crop_stage(cfg: ScenarioConfig, lue: LueTable, ppfd: np.ndarray) -> _CropYear:
    """Growth and harvests of every tier under an (hours, tiers) PPFD array.

    The one sequential stage: interception follows the LAI grown so far,
    and a harvest resets its tier to the transplant state. Tiers grow
    independently, so each steps its lit hours as one recurrence; the
    sums over tiers keep the hour-major order of an hourly loop.
    """
    crop_p = cfg.crop
    n_tiers = ppfd.shape[1]
    states = [crop_p.transplant_state() for _ in range(n_tiers)]
    if crop_p.stagger_days > 0.0:
        states = _staggered_states(cfg, lue, states)
    curve = lue.curve(cfg.setpoint_t, cfg.setpoint_co2)
    f_int = np.empty_like(ppfd)
    harvests: list = []
    grown_at, grown = [], []               # lit tier-hours and their fresh growth, g m-2
    for t in range(n_tiers):
        states[t], lit, fm_step = _tier_year(states[t], ppfd[:, t], curve, crop_p, t + 1,
                                             f_int[:, t], harvests)
        grown_at.append(lit * n_tiers + t)
        grown.append(fm_step)
    harvests.sort()                        # hour-major, then tier

    days = ppfd.reshape(-1, 24, n_tiers)
    dli = np.zeros((days.shape[0], n_tiers))
    for h in range(24):                    # hour by hour, as an hourly loop adds
        dli += days[:, h] * 3600.0         # umol m-2
    dli /= 1e6  # umol m-2 day-1 -> mol m-2 day-1, one correctly rounded step
    # from zero, left to right over hours, then tiers, as an hourly loop adds
    # (np.sum would add pairwise); dark tier-hours add nothing
    growth_kg = np.concatenate(grown) * crop_p.tier_area_m2 / 1000.0
    growth_kg = growth_kg[np.argsort(np.concatenate(grown_at), kind="stable")]  # merges runs
    fm_growth_kg = float(np.add.accumulate(np.append(0.0, growth_kg))[-1])

    harvested = float(sum(h[2] for h in harvests))
    standing = float(sum(standing_credit_kg(s, crop_p) for s in states))
    transplant_credit = standing_credit_kg(crop_p.transplant_state(), crop_p) * n_tiers
    return _CropYear(f_int, dli, harvests, fm_growth_kg, sum(s.cycles for s in states),
                     harvested, harvested + max(0.0, standing - transplant_credit))


def _tier_year(state: CropState, ppfd: np.ndarray, curve: LueCurve, p: CropParams,
               tier: int, f_int: np.ndarray, harvests: list
               ) -> tuple[CropState, np.ndarray, np.ndarray]:
    """One tier's year from `state` under its hourly PPFD column.

    Fills the tier's interception column (at the start of each hour),
    appends its (hour, tier, kg) harvests and returns the final state, the
    lit hours and the fresh growth (g m-2) of each. Dark hours change
    nothing, so only lit hours are stepped. A column lit at one PPFD is
    stepped to its first harvest and through one cycle from the transplant
    state (the first one, when `state` is that state), and that cycle is
    tiled over the rest.
    """
    if harvest_due(state.fm_g_m2, p):
        raise ValueError("a tier cannot start at its harvest target")
    transplant = p.transplant_state()
    lit = np.flatnonzero(ppfd > 0.0)
    light = ppfd[lit]
    tiled = not (light != light[:1]).any()          # one PPFD, or none
    light = light[:1] if tiled else light
    hours = list(zip(light.tolist(), *(v.tolist() for v in curve(light)[:2])))
    hours *= lit.size if tiled else 1
    steps = _step_lit(state, hours, p, once=tiled)
    last = steps[-1] if len(steps) else None        # the row of the last lit hour
    if tiled and len(steps) < lit.size:
        if replace(state, cycles=0) == transplant:  # the first cycle is the one tiled
            steps, cycle = steps[:0], steps
        else:
            cycle = _step_lit(transplant, hours[len(steps):], p, once=True)
        n = lit.size - len(steps)
        last = cycle[(n - 1) % len(cycle)]
        # only the growth, harvest and interception columns are read per
        # hour, so only they are tiled
        fm_step, cut, f_after = (
            np.concatenate((steps[:, j],) + (cycle[:, j],) * -(-n // len(cycle)))[:lit.size]
            for j in range(3))
    else:                                           # the copy frees the stepped rows
        fm_step, cut, f_after = steps[:, 0].copy(), steps[:, 1], steps[:, 2]
    cut = cut > 0.0
    harvests.extend((h, tier, p.harvest_kg) for h in lit[cut].tolist())
    # each hour reads the interception after the last lit hour before it
    f_int[:] = np.repeat(np.append(interception(state.lai, p.extinction_k), f_after),
                         np.diff(np.concatenate(([-1], lit, [ppfd.size - 1]))))
    if not lit.size:
        return state, lit, fm_step
    cycles = state.cycles + int(np.count_nonzero(cut))
    if cut[-1]:
        return replace(transplant, cycles=cycles), lit, fm_step
    dm, fm = last[3:].tolist()
    return CropState(dm, fm, p.leaf_area(dm), cycles), lit, fm_step


def _step_lit(state: CropState, hours: list, p: CropParams, once: bool) -> np.ndarray:
    """Step a tier from `state` over lit hours given as (PPFD, lue_dm,
    lue_fm), to their end or, when `once`, through the first harvest.

    One row per hour: the fresh growth, 1.0 where the hour ends in a
    harvest (which resets the tier to the transplant state) else 0.0, the
    interception after the hour, and the dry and fresh matter after growth.
    The growth law is `crop.grow`, `CropParams.leaf_area`, `harvest_due`
    and `interception` on plain floats, each operation in their order.
    """
    k, sla, lai_cap = p.extinction_k, p.sla_m2_per_g_dm, p.lai_cap
    density, target = p.plant_density, p.target_fresh_g
    start = p.transplant_state()
    f_start = float(interception(start.lai, k))
    exp = np.exp                                    # math.exp differs in the last bit
    dm, fm = state.dm_g_m2, state.fm_g_m2
    f = float(interception(state.lai, k))
    rows: list = []
    for x, lue_dm, lue_fm in hours:
        fm0 = fm
        absorbed = x * f * 3600.0                   # umol m-2
        dm = dm + absorbed * lue_dm
        fm = fm + absorbed * lue_fm
        if fm / density >= target:                  # harvested: back to the transplant
            rows += (fm - fm0, 1.0, f_start, dm, fm)
            if once:
                break
            dm, fm, f = start.dm_g_m2, start.fm_g_m2, f_start
            continue
        lai = sla * dm
        if lai > lai_cap:                           # min(), without the call
            lai = lai_cap
        f = 1.0 - float(exp(-k * lai)) if lai > 0.0 else 0.0
        rows += (fm - fm0, 0.0, f, dm, fm)
    return np.array(rows, dtype=float).reshape(-1, 5)


def _staggered_states(cfg: ScenarioConfig, lue: LueTable,
                      states: list[CropState]) -> list[CropState]:
    """Pre-roll each tier by its stagger offset: `_tier_year` at setpoint light."""
    photo_h = cfg.photoperiod[1] - cfg.photoperiod[0]
    curve = lue.curve(cfg.setpoint_t, cfg.setpoint_co2)
    out = []
    for t, s in enumerate(states):
        hours = int(round(cfg.crop.stagger_days * t * photo_h))
        light = np.full(hours, float(cfg.setpoint_ppfd))
        out.append(_tier_year(s, light, curve, cfg.crop, t + 1, np.empty(hours), [])[0])
    return out


class _ThermalYear(NamedTuple):
    hourly: dict               # thermal.POWER_COLUMNS, in order
    q_cool: np.ndarray         # delivered cooling and heating magnitudes (W)
    q_heat: np.ndarray
    cool_el: np.ndarray        # the cooling share of p_hvac_el (W)
    transpired_kg: float
    recovered_l: float
    max_residual: float


def _thermal_stage(cfg: ScenarioConfig, t_ext: np.ndarray, ppfd: np.ndarray,
                   led_ppfd: np.ndarray, f_int: np.ndarray, q_sol: np.ndarray,
                   q_crop: np.ndarray, p_led: np.ndarray, warnings: list) -> _ThermalYear:
    """Canopy sink, latent terms, the air-node balance and HVAC electricity.

    The canopy sink adds tier 1, tier 2, tier-3 LED and tier-3 daylight
    light in that order, as an hourly sum would. Quasi-steady mode delivers
    the balance's closure term; transient mode delivers what
    `transient_loads` integrates. The pipe convection is one scalar
    `lp_convection` call per hour the chamber is warmer than outside; the
    other hours lose nothing. The first hour with the pipe Rayleigh number
    out of range goes to `warnings` as (hour, text).
    """
    chamber = cfg.effective_chamber()
    tier_area = cfg.crop.tier_area_m2
    par_factor = 1.0 / PAR_UMOL_PER_J     # W per (umol s-1) of LED light
    lit = ppfd > 0.0
    gross = np.zeros(HOURS_PER_YEAR)
    sources = [ppfd[:, t] for t in range(ppfd.shape[1] - 1)] + [led_ppfd]
    for t, source in enumerate(sources):
        gross += np.where(lit[:, t], source * f_int[:, t] * tier_area * par_factor, 0.0)
    gross += np.where(lit[:, -1], f_int[:, -1] * q_crop, 0.0)

    transp = cfg.surrogates.crop_latent_fraction * gross / LATENT_HEAT_J_PER_KG
    q_eva, recovered = latent_balance(transp, cfg.latent)
    q_conv = np.zeros(HOURS_PER_YEAR)
    pipe = None
    if cfg.uses_light_pipes:
        length, heat_area = cfg.lp_geometry.length_m, cfg.lp_heat_area_m2()
        pipe = dict(length_m=length, heat_area_m2=heat_area, n_pipes=cfg.n_pipes)
        ra_lo, ra_hi = RA_VALID_RANGE
        flagged = False
        # no buoyant loss unless the chamber is warmer: lp_convection's own
        # test, negated so that a NaN still takes the call; the others
        # would return (0.0, 0.0)
        warm = np.flatnonzero(~(cfg.setpoint_t - t_ext <= 0.0))
        for i, t in zip(warm.tolist(), t_ext[warm].tolist()):
            q_conv[i], ra = lp_convection(cfg.setpoint_t, t, length, heat_area,
                                          n_pipes=cfg.n_pipes)
            if ra > 0.0 and not flagged and not ra_lo <= ra <= ra_hi:
                warnings.append((i, f"hour {i}: pipe Rayleigh number {ra:.3g} outside "
                                    f"correlation range {RA_VALID_RANGE}"))
                flagged = True
    balance = solve_hvac_load(q_env=envelope_load(chamber, cfg.setpoint_t, t_ext), q_led=p_led,
                              q_lp_sol=q_sol, q_lp_conv=q_conv, q_eva=q_eva,
                              q_plant=cfg.surrogates.crop_storage_fraction * gross)
    if cfg.timestep_mode == "transient":
        q_cool, q_heat = transient_loads(balance, t_ext, chamber, cfg.setpoint_t,
                                         cfg.transient_capacity_w, pipe)
    else:
        q_cool = np.maximum(0.0, -balance["q_hc"])
        q_heat = np.maximum(0.0, balance["q_hc"])
    cool_el, heat_el = hvac_electricity(q_cool, q_heat, t_ext, cfg.cop, q_eva)
    p_hvac = cool_el + heat_el
    p_total = p_led + p_hvac
    bad = ~(np.isfinite(p_total) & np.isfinite(balance["q_hc"]))
    if bad.any():
        raise SimulationError("non-finite power term", hour=int(np.argmax(bad)))

    hourly = {**balance, "p_hvac_el": p_hvac, "p_total_el": p_total}
    return _ThermalYear(hourly, q_cool, q_heat, cool_el, float(transp.sum() * 3600.0),
                        float(recovered.sum()), float(relative_residual(balance).max()))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# the Bench yield the LUE factor is fitted to, and when its search stops or fails
CALIBRATION_TARGET_KG = 9221.0
CALIBRATION_TOL_KG = 40.0
CALIBRATION_MAX_ITER = 30
CALIBRATION_FAIL_REL = 0.01


def calibrate_lue_scale(cfg: ScenarioConfig, climate: ClimateSeries,
                        table: Optional[OpticalEfficiencyTable], lue_base: LueTable,
                        solar: Optional[tuple] = None) -> dict:
    """Fit the single multiplicative LUE factor to the benchmark yield.

    Bench has no daylight, so its yield depends only on the crop stage fed
    with its LED light: each trial runs that stage alone, and `climate`,
    `table` and `solar` are unused (kept so callers can pass a run's arguments).

    The normalized annual yield is monotone in the factor but carries
    small steps from hour-quantized harvest times, so the bracketing
    search accepts the nearest achievable yield once the bracket
    collapses; it fails only if that misses the target by more than
    CALIBRATION_FAIL_REL.
    """
    if cfg.scenario != "Bench":
        raise CalibrationError("calibration anchors on the Bench scenario")
    ppfd = _lighting_stage(cfg, np.zeros(HOURS_PER_YEAR))[0]
    target_kg, tol_kg = CALIBRATION_TARGET_KG, CALIBRATION_TOL_KG

    def yield_at(scale: float) -> float:
        return _crop_stage(cfg, lue_base.with_scale(scale), ppfd).yield_kg

    # bracket the target, then regula falsi with bisection fallback; the
    # objective is continuous and monotone but only piecewise smooth
    lo, hi = 0.5, 2.0
    y_lo, y_hi = yield_at(lo), yield_at(hi)
    for _ in range(8):
        if y_lo <= target_kg:
            break
        lo /= 2.0
        y_lo = yield_at(lo)
    for _ in range(8):
        if y_hi >= target_kg:
            break
        hi *= 2.0
        y_hi = yield_at(hi)
    if not y_lo <= target_kg <= y_hi:
        raise CalibrationError(
            f"cannot bracket target yield {target_kg} kg within factor "
            f"[{lo:g}, {hi:g}] (got {y_lo:.0f}..{y_hi:.0f} kg)")

    s1, y1 = hi, y_hi
    for it in range(CALIBRATION_MAX_ITER):
        if abs(y1 - target_kg) <= tol_kg or hi - lo < 1e-7:
            break
        if y_hi > y_lo:
            s1 = lo + (target_kg - y_lo) * (hi - lo) / (y_hi - y_lo)
        if not lo < s1 < hi or it % 3 == 2:
            s1 = (lo + hi) / 2.0
        y1 = yield_at(s1)
        if y1 < target_kg:
            lo, y_lo = s1, y1
        else:
            hi, y_hi = s1, y1
    if abs(y1 - target_kg) > tol_kg:
        # bracket collapsed onto a harvest-quantization step: take the
        # nearer edge
        s1, y1 = min(((lo, y_lo), (hi, y_hi)),
                     key=lambda p: abs(p[1] - target_kg))
    if abs(y1 - target_kg) > CALIBRATION_FAIL_REL * target_kg:
        raise CalibrationError(
            f"calibration did not converge: yield {y1:.1f} kg vs {target_kg}")
    return {"lue_scale": s1, "achieved_yield_kg": y1, "target_yield_kg": target_kg}


# ---------------------------------------------------------------------------
# comparison and economics assembly
# ---------------------------------------------------------------------------

def scenario_capex_delta(cfg: ScenarioConfig, bench: ScenarioConfig,
                         peak_coil_w: float, bench_peak_coil_w: float) -> dict:
    """Incremental investment of a scenario against the LED-only benchmark:
    `pipe_hardware` times the pipe count, glazing for glazed daylight."""
    costs = cfg.costs
    hardware = {k: cfg.n_pipes * usd for k, usd in pipe_hardware(cfg.strategy, costs).items()}
    glazing = 0.0
    if cfg.strategy.daylight == "glazing":
        glazed = cfg.chamber.floor_area_m2 + cfg.glazing.wall_glazed_m2
        glazing = glazed * cfg.glazing.glazing_usd_per_m2
    usd_per_w = led_cost_per_watt(costs, cfg.ppe)
    led_delta = (led_electric_power(cfg.tier3_nominal_ppfd, cfg.crop.tier_area_m2, cfg.ppe)
                 - led_electric_power(bench.tier3_nominal_ppfd, bench.crop.tier_area_m2,
                                      bench.ppe)) * usd_per_w
    hvac_delta = (peak_coil_w - bench_peak_coil_w) * costs.hvac_usd_per_w
    total = sum(hardware.values()) + glazing + led_delta + hvac_delta
    return {**hardware, "glazing": glazing, "led_delta": led_delta,
            "hvac_delta": hvac_delta, "total": total}


def light_cost_inputs(cfg: ScenarioConfig) -> tuple:
    """`pipe_light_cost`'s arguments after the strategy, which are also
    `light_cost_comparison`'s, from the config."""
    return cfg.costs, REFERENCE_PIPE_PPF, cfg.ec_cap_ppfd, cfg.lp_geometry.target_zone_m ** 2


def scenario_light_cost(cfg: ScenarioConfig) -> Optional[float]:
    """Per-pipe light cost for the scenario's hardware; None without pipes."""
    if not cfg.uses_light_pipes:
        return None
    return pipe_light_cost(cfg.strategy, *light_cost_inputs(cfg))["light_cost"]


def scenario_delta(result: SimulationResult, bench: SimulationResult) -> dict:
    """A run against the benchmark run: the capex breakdown, the annual
    electricity saved (MWh) and the extra yield (kg)."""
    return {
        "delta_capex_usd": scenario_capex_delta(result.config, bench.config,
                                                result.aggregates["peak_coil_w"],
                                                bench.aggregates["peak_coil_w"]),
        "delta_electricity_mwh": (bench.aggregates["electricity_mwh"]
                                  - result.aggregates["electricity_mwh"]),
        "delta_yield_kg": result.kpis.yield_kg - bench.kpis.yield_kg,
    }


def _bench_run(results: Sequence[SimulationResult]) -> SimulationResult:
    """The study's Bench run, which every delta is taken against."""
    bench = next((r for r in results if r.config.scenario == "Bench"), None)
    if bench is None:
        raise SimulationError("comparison requires a Bench scenario run")
    return bench


def scenario_sweep(results: Sequence[SimulationResult], electricity_prices: Sequence[float],
                   carbon_prices: Sequence[float], target_pbt_years: float
                   ) -> tuple[list[dict], list[dict]]:
    """Each non-Bench run's break-even record (`scenario_delta` against the
    Bench run, the per-pipe hardware cost, 0.0 without pipes, and each price
    point's break-even, taken out of `sensitivity_sweep`'s rows), and the
    payback grid: those rows, each led by its scenario, in run order."""
    bench = _bench_run(results)
    records, rows = [], []
    for r in results:
        cfg = r.config
        if cfg.scenario == bench.config.scenario:
            continue
        delta = scenario_delta(r, bench)
        per_pipe = sum(pipe_hardware(cfg.strategy, cfg.costs).values()) if cfg.n_pipes else 0.0
        grid = sensitivity_sweep(delta["delta_capex_usd"]["total"],
                                 delta["delta_electricity_mwh"], delta["delta_yield_kg"],
                                 cfg.costs, electricity_prices, carbon_prices, per_pipe,
                                 cfg.n_pipes, target_pbt_years)
        breakeven = {f"el{row['electricity_usd_per_mwh']:g}_co2{row['carbon_usd_per_t']:g}":
                     row.pop("break_even") for row in grid}
        records.append({"scenario": cfg.scenario, **delta, "target_pbt_years": target_pbt_years,
                        "per_pipe_hardware_usd": per_pipe, "break_even_per_pipe_usd": breakeven})
        rows += [{"scenario": cfg.scenario, **row} for row in grid]
    return records, rows


def compare_scenarios(results: Sequence[SimulationResult]) -> list[dict]:
    """Side-by-side comparison rows; needs a Bench run in the set. The runs
    should come from one `Study`, which refuses mixed inputs."""
    bench = _bench_run(results)
    rows = []
    for r in results:
        cfg = r.config
        delta = scenario_delta(r, bench)
        capex = delta["delta_capex_usd"]["total"]       # 0.0 for the bench run
        pbt = payback_time(capex, delta["delta_electricity_mwh"], delta["delta_yield_kg"],
                           cfg.costs)
        rows.append({
            "scenario": cfg.scenario,
            "yield_kg": r.kpis.yield_kg,
            "yield_harvested_kg": r.kpis.yield_raw_kg,
            "wue_g_per_l": r.kpis.wue_g_per_l,
            "total_lighting_kwh_per_kg": r.kpis.total_lighting_kwh_per_kg,
            "harvested_daylight_mwh": r.kpis.harvested_daylight_mwh,
            "electricity_mwh": r.kpis.electricity_mwh,
            "led_tier12_mwh": r.aggregates["led_tier12_mwh"],
            "led_tier3_mwh": r.aggregates["led_tier3_mwh"],
            "hvac_electricity_mwh": r.aggregates["hvac_electricity_mwh"],
            "sec_kwh_per_kg": r.kpis.sec_kwh_per_kg,
            "seec_kwh_per_kg": r.kpis.seec_kwh_per_kg,
            "light_cost_usd_per_umol_s": scenario_light_cost(cfg),
            "delta_capex_usd": capex,
            "pbt_years": pbt.years,
            "pbt_viable": pbt.viable,
        })
    return rows
