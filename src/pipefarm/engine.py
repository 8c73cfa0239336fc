"""Annual simulation engine: climate -> solar -> optics -> control -> balance
-> crop, hour by hour, plus calibration and multi-scenario comparison.

Expensive Monte Carlo tracing happens once per geometry and is cached on
disk; annual runs only interpolate the resulting table. A single run is
strictly sequential in simulated time and deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .climate import HOURS_PER_YEAR, ClimateSeries, SiteConfig, solar_position
from .config import ScenarioConfig
from .crop import CropState, LueTable, growth_step, harvest_if_due, \
    interception, standing_credit_kg
from .economics import REFERENCE_PIPE_PPF, KpiReport, PaybackResult, compute_kpis, \
    led_cost_per_watt, payback_time, pipe_light_cost
from .lighting import control_tier3, ec_control, led_electric_power
from .optics import OpticalEfficiencyTable, PAR_UMOL_PER_J, \
    apply_neutral_attenuation, apply_uv_ir_filter, gh_gains, lp_crop_ppfd, lp_solar_gains
from .thermal import RA_VALID_RANGE, latent_balance, envelope_load, hvac_electricity, \
    lp_convection, solve_hvac_load
from .tracer import build_efficiency_table

__all__ = ["SimulationError", "SimulationResult", "prepare_efficiency_table",
           "solar_angles", "run_scenario", "calibrate_lue_scale",
           "compare_scenarios", "load_lue_table", "scenario_capex_delta",
           "scenario_light_cost", "write_csv", "CalibrationError"]

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

def prepare_efficiency_table(cfg: ScenarioConfig,
                             cache_dir: Optional[Path] = None
                             ) -> OpticalEfficiencyTable:
    """Load or trace the optical table for this geometry (cached on disk).

    Annual runs never trace inline; this is the explicit expensive stage.
    """
    if cfg.table_path is not None:
        return OpticalEfficiencyTable.import_csv(cfg.table_path,
                                                 geometry_hash=cfg.lp_geometry.content_hash())
    cache = cache_dir or cfg.table_cache_dir
    key = (f"{cfg.lp_geometry.content_hash()}_r{cfg.rays}_s{cfg.seed}"
           f"_a{cfg.altitude_step:g}_t{cfg.tilt_step:g}_b{cfg.bounce_cap}")
    if cache is not None:
        cache = Path(cache)
        cache.mkdir(parents=True, exist_ok=True)
        path = cache / f"optics_{key}.csv"
        if path.exists():
            table = OpticalEfficiencyTable.import_csv(
                path, geometry_hash=cfg.lp_geometry.content_hash())
            return table
    table, _ = build_efficiency_table(cfg.lp_geometry, rays=cfg.rays, seed=cfg.seed,
                                      altitude_step=cfg.altitude_step,
                                      tilt_step=cfg.tilt_step, bounce_cap=cfg.bounce_cap)
    if cache is not None:
        table.export_csv(cache / f"optics_{key}.csv")
    return table


def load_lue_table(cfg: ScenarioConfig, scale: float = 1.0) -> LueTable:
    if cfg.lue_table_path is None:
        raise SimulationError("no LUE table configured (crop.lue_table)")
    return LueTable.from_csv(cfg.lue_table_path, scale=scale)


def solar_angles(site: SiteConfig, hour_center_offset: float = 0.5
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(altitude, azimuth) for all 8760 hourly records of a non-leap year."""
    alts = np.empty(HOURS_PER_YEAR)
    azis = np.empty(HOURS_PER_YEAR)
    for i in range(HOURS_PER_YEAR):
        pos = solar_position(site, i // 24 + 1, i % 24 + hour_center_offset)
        alts[i] = pos.altitude
        azis[i] = pos.azimuth
    return alts, azis


def load_calibration(path: Path) -> dict:
    data = json.loads(Path(path).read_text())
    if "lue_scale" not in data:
        raise SimulationError(f"calibration file {path} lacks lue_scale")
    return data


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
        written = []

        kpis_doc = {
            "kpis": {k: _json_num(getattr(self.kpis, k))
                     for k in self.kpis.__dataclass_fields__},
            "aggregates": {k: _json_num(v) for k, v in sorted(self.aggregates.items())},
            "metadata": self.metadata,
            "warnings": self.warnings,
        }
        p = outdir / "kpis.json"
        p.write_text(json.dumps(kpis_doc, indent=2, sort_keys=True))
        written.append(p)

        p = outdir / "hourly_power.csv"
        cols = [c for c in self.hourly if c.startswith(("q_", "p_", "coil"))]
        write_csv(p, ["hour"] + cols,
                  [[i] + [self.hourly[c][i] for c in cols] for i in range(HOURS_PER_YEAR)])
        written.append(p)

        p = outdir / "hourly_lighting.csv"
        cols = [c for c in self.hourly if c.startswith(("led_", "daylight", "total_ppfd",
                                                        "ec_", "dim"))]
        write_csv(p, ["hour"] + cols,
                  [[i] + [self.hourly[c][i] for c in cols] for i in range(HOURS_PER_YEAR)])
        written.append(p)

        p = outdir / "dli.csv"
        tiers = self.dli.shape[1]
        write_csv(p, ["day"] + [f"tier{t + 1}" for t in range(tiers)],
                  [[d + 1] + list(self.dli[d]) for d in range(self.dli.shape[0])])
        written.append(p)

        p = outdir / "harvests.csv"
        write_csv(p, ["hour", "tier", "kg"], self.harvests)
        written.append(p)
        return written


def _json_num(v):
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return None
    if isinstance(v, tuple):
        return list(v)
    return v


def write_csv(path: Path, header: list, rows) -> None:
    """Comma-separated text with a header line; floats keep their repr and
    None becomes an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_cell(c) for c in row] for row in rows)


def _cell(c):
    if c is None:
        return ""
    if isinstance(c, float):
        return repr(float(c))
    return c


# ---------------------------------------------------------------------------
# the annual loop
# ---------------------------------------------------------------------------

def run_scenario(cfg: ScenarioConfig, climate: ClimateSeries,
                 table: Optional[OpticalEfficiencyTable],
                 lue: LueTable,
                 solar: Optional[tuple[np.ndarray, np.ndarray]] = None
                 ) -> SimulationResult:
    """One scenario over one climate year.

    `table` may be None for scenarios without light pipes. `lue` carries
    the calibration scale. `solar` lets callers share the precomputed sun
    positions across runs.
    """
    strategy = cfg.strategy
    pipes = cfg.uses_light_pipes
    glazed = strategy.daylight == "glazing"
    if pipes and table is None:
        raise SimulationError("light-pipe scenario needs an efficiency table")
    if solar is None:
        solar = solar_angles(cfg.site, cfg.hour_center_offset)
    alts, azis = solar

    chamber = cfg.effective_chamber()
    crop_p = cfg.crop
    n_tiers = 3
    tier_area = crop_p.tier_area_m2
    led12_area = tier_area * 2
    film = cfg.ec_film() if strategy.ec_film else None
    heat_area = cfg.lp_heat_area_m2()
    par_factor = 1.0 / PAR_UMOL_PER_J     # W per (umol s-1) of LED light
    setpoint = cfg.setpoint_ppfd

    states = [crop_p.transplant_state() for _ in range(n_tiers)]
    if crop_p.stagger_days > 0.0:
        states = _staggered_states(cfg, lue, states)

    cols = ("q_env q_led q_lp_sol q_lp_conv q_plant q_eva q_hc q_ahu q_hum "
            "coil_latent p_led_el p_hvac_el p_total_el led_ppfd_t3 daylight_ppfd_t3 "
            "total_ppfd_t3 dim_t3 ec_tau").split()
    hourly = {c: np.zeros(HOURS_PER_YEAR) for c in cols}
    dli = np.zeros((365, n_tiers))
    harvests: list = []
    warnings: list[str] = []
    ra_flagged = False
    ec_flagged = False
    clamp_flagged = False

    transpired_kg = 0.0
    recovered_l = 0.0
    fm_growth_kg = 0.0
    max_resid = 0.0
    peak_coil_w = 0.0
    peak_heat_w = 0.0
    led12_mwh = 0.0
    led3_mwh = 0.0
    cool_mwh_th = 0.0
    heat_mwh_th = 0.0
    summer_cool_el = 0.0
    winter_cool_el = 0.0

    for i in range(HOURS_PER_YEAR):
        day = i // 24
        hour = i % 24
        t_ext = float(climate.temperature[i])
        dni = float(climate.dni[i])
        dhi = float(climate.dhi[i])
        alt = float(alts[i])

        # --- daylight through the collection system -----------------------
        q_sol = 0.0
        daylight_ppfd = 0.0
        daylight_q_crop = 0.0
        ec_tau = math.nan
        if pipes and alt > 0.0:
            gains = lp_solar_gains(table, dni, dhi, alt, cfg.lp_geometry, cfg.n_pipes)
            if gains.flags and not clamp_flagged:
                warnings.append(f"hour {i}: {gains.flags[0]}")
                clamp_flagged = True
            if strategy.filter_tau is not None:
                gains = apply_uv_ir_filter(gains, strategy.filter_tau)
            elif film is not None:
                raw_ppfd = lp_crop_ppfd(gains, tier_area)
                _, tau, _, unreachable = ec_control(raw_ppfd, film, cfg.ec_cap_ppfd)
                gains = apply_neutral_attenuation(gains, tau, "ec-film")
                ec_tau = tau
                if unreachable and not ec_flagged:
                    warnings.append(f"hour {i}: EC cap unreachable at max attenuation")
                    ec_flagged = True
            q_sol = gains.q_sol
            daylight_q_crop = gains.q_crop
            daylight_ppfd = lp_crop_ppfd(gains, tier_area)
        elif glazed and alt > 0.0:
            gz = gh_gains(dni, dhi, alt, float(azis[i]), cfg.glazing.tau,
                          chamber.floor_area_m2, cfg.glazing.wall_glazed_m2,
                          cfg.tier_occupancy, tier_area)
            q_sol = gz.q_sol
            daylight_q_crop = gz.q_crop
            daylight_ppfd = gz.ppfd

        if not (math.isfinite(q_sol) and math.isfinite(daylight_ppfd)):
            raise SimulationError("non-finite daylight gain", hour=i)

        # --- lighting control ---------------------------------------------
        cmd = control_tier3(cfg.scenario, daylight_ppfd, float(hour), setpoint,
                            cfg.min_threshold_ppfd, cfg.driver, cfg.photoperiod)
        in_photo = cfg.photoperiod[0] <= hour < cfg.photoperiod[1]
        ppfd_12 = setpoint if in_photo else 0.0

        p12 = led_electric_power(ppfd_12, led12_area, cfg.ppe) if ppfd_12 > 0.0 else 0.0
        if cmd.led_ppfd > 0.0:
            p3 = led_electric_power(cmd.led_ppfd, tier_area, cfg.ppe, cmd.driver_eff)
        else:
            p3 = 0.0
        p_led = p12 + p3

        # --- crop: growth, interception, heat sink -------------------------
        q_plant_gross = 0.0
        tier_ppfd = (ppfd_12, ppfd_12, cmd.total_ppfd)
        for t in range(n_tiers):
            ppfd_t = tier_ppfd[t]
            f_int = interception(states[t].lai, crop_p.extinction_k)
            if ppfd_t > 0.0:
                if t < 2:
                    q_plant_gross += ppfd_t * f_int * tier_area * par_factor
                else:
                    q_plant_gross += cmd.led_ppfd * f_int * tier_area * par_factor
                    q_plant_gross += f_int * daylight_q_crop
                fm_before = states[t].fm_g_m2
                states[t] = growth_step(states[t], ppfd_t, 3600.0, crop_p, lue,
                                        cfg.setpoint_t, cfg.setpoint_co2)
                fm_growth_kg += (states[t].fm_g_m2 - fm_before) * tier_area / 1000.0
                dli[day, t] += ppfd_t * 3600.0   # umol m-2; scaled to mol at the end
            states[t], got = harvest_if_due(states[t], crop_p)
            if got > 0.0:
                harvests.append((i, t + 1, got))

        # --- thermal closure -----------------------------------------------
        q_env = envelope_load(chamber, cfg.setpoint_t, t_ext)
        q_conv = 0.0
        if pipes:
            q_conv, ra = lp_convection(cfg.setpoint_t, t_ext, cfg.lp_geometry.length_m,
                                       heat_area, n_pipes=cfg.n_pipes)
            if ra > 0.0 and not ra_flagged and not (RA_VALID_RANGE[0] <= ra <= RA_VALID_RANGE[1]):
                warnings.append(f"hour {i}: pipe Rayleigh number {ra:.3g} outside "
                                f"correlation range {RA_VALID_RANGE}")
                ra_flagged = True

        q_plant = cfg.surrogates.crop_storage_fraction * q_plant_gross
        q_eva_target = cfg.surrogates.crop_latent_fraction * q_plant_gross
        transp_rate = q_eva_target / cfg.latent.latent_heat
        q_eva, q_ahu, q_hum, coil_latent, rec_l = latent_balance(transp_rate, cfg.latent)
        transpired_kg += transp_rate * 3600.0
        recovered_l += rec_l

        bd = solve_hvac_load(q_env=q_env, q_led=p_led, q_lp_sol=q_sol,
                             q_lp_conv=q_conv, q_plant=q_plant, q_eva=q_eva,
                             q_ahu=q_ahu, q_hum=q_hum, coil_latent=coil_latent)
        resid = bd.relative_residual()
        if resid > max_resid:
            max_resid = resid

        q_cool = max(0.0, -bd.q_hc)
        q_heat = max(0.0, bd.q_hc)
        if cfg.timestep_mode == "transient":
            q_cool, q_heat = _transient_hour(cfg, chamber, bd, t_ext)
        p_hvac = hvac_electricity(q_cool, q_heat, t_ext, cfg.cop, coil_latent)
        p_total = p_led + p_hvac + q_hum

        if not math.isfinite(p_total) or not math.isfinite(bd.q_hc):
            raise SimulationError("non-finite power term", hour=i)

        # --- bookkeeping ----------------------------------------------------
        hourly["q_env"][i] = q_env
        hourly["q_led"][i] = p_led
        hourly["q_lp_sol"][i] = q_sol
        hourly["q_lp_conv"][i] = q_conv
        hourly["q_plant"][i] = q_plant
        hourly["q_eva"][i] = q_eva
        hourly["q_hc"][i] = bd.q_hc
        hourly["q_ahu"][i] = q_ahu
        hourly["q_hum"][i] = q_hum
        hourly["coil_latent"][i] = coil_latent
        hourly["p_led_el"][i] = p_led
        hourly["p_hvac_el"][i] = p_hvac
        hourly["p_total_el"][i] = p_total
        hourly["led_ppfd_t3"][i] = cmd.led_ppfd
        hourly["daylight_ppfd_t3"][i] = daylight_ppfd
        hourly["total_ppfd_t3"][i] = cmd.total_ppfd
        hourly["dim_t3"][i] = cmd.dim_fraction
        hourly["ec_tau"][i] = ec_tau

        led12_mwh += p12 * W_TO_MWH
        led3_mwh += p3 * W_TO_MWH
        cool_mwh_th += q_cool * W_TO_MWH
        heat_mwh_th += q_heat * W_TO_MWH
        coil_total = q_cool + coil_latent
        if coil_total > peak_coil_w:
            peak_coil_w = coil_total
        if q_heat > peak_heat_w:
            peak_heat_w = q_heat
        month = day // 30
        cool_el = coil_total / cfg.cop.cop_cooling(t_ext) if coil_total > 0 else 0.0
        if month in (5, 6, 7):
            summer_cool_el += cool_el * W_TO_MWH
        elif month in (0, 1, 11):
            winter_cool_el += cool_el * W_TO_MWH

    dli /= 1e6  # umol m-2 day-1 -> mol m-2 day-1, one correctly rounded step

    harvested_raw = float(sum(h[2] for h in harvests))
    standing = float(sum(standing_credit_kg(s, crop_p) for s in states))
    transplant_credit = standing_credit_kg(crop_p.transplant_state(), crop_p) * n_tiers
    yield_norm = harvested_raw + max(0.0, standing - transplant_credit)

    electricity_mwh = float(hourly["p_total_el"].sum() * W_TO_MWH)
    led_mwh = led12_mwh + led3_mwh
    hvac_mwh = float(hourly["p_hvac_el"].sum() * W_TO_MWH)
    harvested_daylight = float(hourly["q_lp_sol"].sum() * W_TO_MWH)
    embodied_l = fm_growth_kg * cfg.surrogates.fm_water_l_per_kg
    net_water_l = embodied_l + max(0.0, transpired_kg - recovered_l)

    kpis = compute_kpis(yield_kg=yield_norm, yield_raw_kg=harvested_raw,
                        electricity_mwh=electricity_mwh,
                        harvested_daylight_mwh=harvested_daylight,
                        led_electricity_mwh=led_mwh, net_water_l=net_water_l,
                        mean_dli_per_tier=tuple(float(dli[:, t].mean())
                                                for t in range(n_tiers)))

    aggregates = {
        "electricity_mwh": electricity_mwh,
        "led_electricity_mwh": led_mwh,
        "led_tier12_mwh": led12_mwh,
        "led_tier3_mwh": led3_mwh,
        "hvac_electricity_mwh": hvac_mwh,
        "cooling_thermal_mwh": cool_mwh_th,
        "heating_thermal_mwh": heat_mwh_th,
        "coil_latent_mwh": float(hourly["coil_latent"].sum() * W_TO_MWH),
        "harvested_daylight_mwh": harvested_daylight,
        "yield_kg": yield_norm,
        "yield_harvested_kg": harvested_raw,
        "cycles": sum(s.cycles for s in states),
        "transpired_kg": transpired_kg,
        "condensate_recovered_l": recovered_l,
        "net_water_l": net_water_l,
        "max_relative_residual": max_resid,
        "peak_coil_w": peak_coil_w,
        "peak_heat_w": peak_heat_w,
        "summer_cooling_el_mwh": summer_cool_el,
        "winter_cooling_el_mwh": winter_cool_el,
    }
    metadata = {
        "scenario": cfg.scenario,
        "ppe": cfg.ppe,
        "seed": cfg.seed,
        "version": __version__,
        "config_hash": cfg.content_hash(),
        "climate_hash": climate.content_hash(),
        "climate_source": climate.source,
        "lue_scale": lue.scale,
        "table_provenance": table.provenance if table is not None else None,
        "table_geometry_hash": table.geometry_hash if table is not None else None,
        "timestep_mode": cfg.timestep_mode,
    }
    return SimulationResult(config=cfg, kpis=kpis, aggregates=aggregates,
                            hourly=hourly, dli=dli, harvests=harvests,
                            metadata=metadata, warnings=warnings)


def _staggered_states(cfg: ScenarioConfig, lue: LueTable,
                      states: list[CropState]) -> list[CropState]:
    """Pre-roll each tier by its stagger offset at setpoint light."""
    photo_h = cfg.photoperiod[1] - cfg.photoperiod[0]
    out = []
    for t, s in enumerate(states):
        hours = int(round(cfg.crop.stagger_days * t * photo_h))
        for _ in range(hours):
            s = growth_step(s, cfg.setpoint_ppfd, 3600.0, cfg.crop, lue,
                            cfg.setpoint_t, cfg.setpoint_co2)
            s, _ = harvest_if_due(s, cfg.crop)
        out.append(s)
    return out


def _transient_hour(cfg: ScenarioConfig, chamber, bd, t_ext: float
                    ) -> tuple[float, float]:
    """Sub-stepped air-node integration with a thermostat deadband.

    Returns the mean cooling/heating magnitudes actually delivered. The
    free-floating terms reuse the hour's gains except envelope and pipe
    convection, which follow the drifting air temperature.
    """
    cap = chamber.thermal_capacity_j_per_k
    dt = 3600.0 / cfg.transient_substeps
    t_air = cfg.setpoint_t
    cool = heat = 0.0
    gains_fixed = (bd.q_led + bd.q_lp_sol - bd.q_plant - bd.q_eva
                   - bd.q_ahu - bd.q_hum)
    # proportional drive sized to close the error within one substep; a
    # stiffer gain would hunt around the deadband at this step length
    gain = cap / dt
    pipes = cfg.uses_light_pipes
    heat_area = cfg.lp_heat_area_m2()
    for _ in range(cfg.transient_substeps):
        q_env = envelope_load(chamber, t_air, t_ext)
        q_conv = 0.0
        if pipes:
            q_conv, _ = lp_convection(t_air, t_ext, cfg.lp_geometry.length_m,
                                      heat_area, n_pipes=cfg.n_pipes)
        err = cfg.setpoint_t - t_air
        q_hc = 0.0
        if abs(err) > cfg.transient_deadband_k:
            q_hc = max(-cfg.transient_capacity_w,
                       min(cfg.transient_capacity_w, gain * err))
            if q_hc < 0.0:
                cool -= q_hc
            else:
                heat += q_hc
        t_air += (gains_fixed + q_env - q_conv + q_hc) * dt / cap
    n = cfg.transient_substeps
    return cool / n, heat / n


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def calibrate_lue_scale(cfg: ScenarioConfig, climate: ClimateSeries,
                        table: Optional[OpticalEfficiencyTable],
                        lue_base: LueTable, target_kg: float = 9221.0,
                        tol_kg: float = 40.0, max_iter: int = 30,
                        fail_rel: float = 0.01,
                        solar: Optional[tuple] = None) -> dict:
    """Fit the single multiplicative LUE factor to the benchmark yield.

    The normalized annual yield is monotone in the factor but carries
    small steps from hour-quantized harvest times, so the bracketing
    search accepts the nearest achievable yield once the bracket
    collapses; it fails only if that misses the target by more than
    fail_rel.
    """
    bench = cfg
    if bench.scenario != "Bench":
        raise CalibrationError("calibration anchors on the Bench scenario")
    if solar is None:
        solar = solar_angles(cfg.site, cfg.hour_center_offset)

    def yield_at(scale: float) -> float:
        res = run_scenario(bench, climate, table, lue_base.with_scale(scale),
                           solar=solar)
        return res.kpis.yield_kg

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
    for it in range(max_iter):
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
    if abs(y1 - target_kg) > fail_rel * target_kg:
        raise CalibrationError(
            f"calibration did not converge: yield {y1:.1f} kg vs {target_kg}")
    return {
        "lue_scale": s1,
        "achieved_yield_kg": y1,
        "target_yield_kg": target_kg,
        "climate_hash": climate.content_hash(),
        "lue_table": str(cfg.lue_table_path),
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# comparison and economics assembly
# ---------------------------------------------------------------------------

def scenario_capex_delta(cfg: ScenarioConfig, bench: ScenarioConfig,
                         peak_coil_w: float, bench_peak_coil_w: float) -> dict:
    """Incremental investment of a scenario against the LED-only benchmark.

    The hardware follows from the strategy row: pipes for piped daylight,
    plus a filter or film in each pipe; glazing for glazed daylight.
    """
    costs = cfg.costs
    strategy = cfg.strategy
    lp = filt = film = glazing = 0.0
    if strategy.daylight == "pipe":
        lp = cfg.n_pipes * costs.lp_total_usd
        if strategy.filter_tau is not None:
            filt = cfg.n_pipes * costs.ir_filter_usd
        if strategy.ec_film:
            film = cfg.n_pipes * costs.ec_film_usd
    elif strategy.daylight == "glazing":
        glazed = cfg.chamber.floor_area_m2 + cfg.glazing.wall_glazed_m2
        glazing = glazed * cfg.glazing.glazing_usd_per_m2
    usd_per_w = led_cost_per_watt(costs, cfg.ppe)
    tier3_w = cfg.tier3_nominal_ppfd * cfg.crop.tier_area_m2 / cfg.ppe
    bench_tier3_w = bench.tier3_nominal_ppfd * bench.crop.tier_area_m2 / bench.ppe
    led_delta = (tier3_w - bench_tier3_w) * usd_per_w
    hvac_delta = (peak_coil_w - bench_peak_coil_w) * costs.hvac_usd_per_w
    total = lp + filt + film + glazing + led_delta + hvac_delta
    return {"lp": lp, "ir_filter": filt, "ec_film": film, "glazing": glazing,
            "led_delta": led_delta, "hvac_delta": hvac_delta, "total": total}


def scenario_light_cost(cfg: ScenarioConfig,
                        ppf_ref: float = REFERENCE_PIPE_PPF) -> Optional[float]:
    """Per-pipe light cost for the scenario's hardware; None without pipes."""
    if not cfg.uses_light_pipes:
        return None
    return pipe_light_cost(cfg.strategy, cfg.costs, ppf_ref, cfg.ec_film().tau_max,
                           cfg.ec_cap_ppfd,
                           cfg.lp_geometry.target_zone_m ** 2)["light_cost"]


def compare_scenarios(results: Sequence[SimulationResult]) -> list[dict]:
    """Side-by-side comparison rows; needs a Bench run in the set.

    Rejects mixed calibration or climate so the comparison is apples to
    apples.
    """
    if not results:
        raise SimulationError("no results to compare")
    scales = {r.metadata["lue_scale"] for r in results}
    climates = {r.metadata["climate_hash"] for r in results}
    ppes = {r.metadata["ppe"] for r in results}
    if len(scales) > 1:
        raise SimulationError(f"mixed calibration states across runs: {sorted(scales)}")
    if len(climates) > 1:
        raise SimulationError("runs use different climate years")
    if len(ppes) > 1:
        raise SimulationError(f"mixed LED efficacies across runs: {sorted(ppes)}")
    bench = next((r for r in results if r.config.scenario == "Bench"), None)
    if bench is None:
        raise SimulationError("comparison requires a Bench scenario run")

    rows = []
    for r in results:
        cfg = r.config
        capex = scenario_capex_delta(cfg, bench.config,
                                     r.aggregates["peak_coil_w"],
                                     bench.aggregates["peak_coil_w"])
        d_el = bench.aggregates["electricity_mwh"] - r.aggregates["electricity_mwh"]
        d_yield = r.kpis.yield_kg - bench.kpis.yield_kg
        if r is bench:
            pbt = PaybackResult(0.0, 0.0, 0.0, True)
        else:
            pbt = payback_time(capex["total"], d_el, d_yield, cfg.costs)
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
            "delta_capex_usd": 0.0 if r is bench else capex["total"],
            "pbt_years": pbt.years,
            "pbt_viable": pbt.viable,
        })
    return rows
