"""Annual record and cost model: every annual number of a run (`KpiReport`),
capital items, light cost, simple payback, price sweeps.

Light cost is capital cost per unit of delivered photon flux; payback
compares the incremental investment of a daylighting scenario against the
operating savings (electricity, optional carbon price) plus the revenue
delta from yield changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .declared import annual, check_ranges, ranged
from .lighting import EC_FILM, STRATEGIES, Strategy
from .optics import PAR_UMOL_PER_J

__all__ = ["CostTable", "KpiReport", "compute_kpis", "led_cost_per_watt", "light_cost",
           "lumens_to_photon_flux", "fiber_reference_light_cost", "pipe_hardware",
           "pipe_light_cost", "light_cost_comparison", "payback_time", "PaybackResult",
           "sensitivity_sweep", "break_even_unit_cost"]

FT2_PER_M2 = 10.763910416709722
LUMENS_PER_W_PAR = 251.0      # luminous efficacy used for the fiber reference
FIBER_USD, FIBER_LUMENS = 3264.0, 9200.0   # the optical-fiber reference system


@dataclass(frozen=True)
class CostTable:
    led_usd_per_ft2: float = ranged(35.0, ge=0.0)           # installed cost for low-light crops
    reference_ppfd: float = ranged(250.0, gt=0.0)           # design PPFD behind the $/W conversion
    lp_unit_usd: float = ranged(210.0, ge=0.0)              # bare light pipe
    lp_aux_usd: float = ranged(90.0, ge=0.0)                # mirror, gears, motors
    ir_filter_usd: float = ranged(104.0, ge=0.0)            # per pipe
    ec_film_usd: float = ranged(100.0, ge=0.0)              # per pipe
    hvac_usd_per_w: float = ranged(0.65, ge=0.0)            # per watt of installed capacity
    lettuce_usd_per_kg: float = ranged(7.82, ge=0.0)
    electricity_usd_per_mwh: float = ranged(150.0, ge=0.0)
    carbon_usd_per_t: float = ranged(0.0, ge=0.0)
    grid_t_co2_per_mwh: float = ranged(0.40, ge=0.0)

    __post_init__ = check_ranges

    @property
    def lp_total_usd(self) -> float:
        return self.lp_unit_usd + self.lp_aux_usd


@dataclass(frozen=True)
class KpiReport:
    """Every annual number of one scenario run, each declared once with its
    unit and meaning.

    SEEC is electricity per kg; SEC adds the harvested daylight so free
    solar input is not invisible in the total (for the benchmark the two
    coincide). Total lighting energy consumption counts LED electricity
    plus harvested daylight per kg. A ratio whose denominator is not
    positive is None rather than faked: all four at zero yield.
    """

    yield_kg: float = annual("kg", "fresh yield: harvests plus the standing crop's growth")
    yield_harvested_kg: float = annual("kg", "fresh mass harvested")
    cycles: int = annual("count", "harvests over all tiers")
    mean_dli_per_tier: tuple = annual("mol m-2 d-1", "mean daily light integral of each tier")
    electricity_mwh: float = annual("MWh", "electricity: LEDs plus HVAC")
    led_electricity_mwh: float = annual("MWh", "LED electricity of all tiers")
    led_tier12_mwh: float = annual("MWh", "LED electricity of tiers 1 and 2")
    led_tier3_mwh: float = annual("MWh", "LED electricity of tier 3")
    hvac_electricity_mwh: float = annual("MWh", "HVAC electricity, latent duty included")
    harvested_daylight_mwh: float = annual("MWh", "solar energy entering the chamber")
    cooling_thermal_mwh: float = annual("MWh", "sensible cooling delivered")
    heating_thermal_mwh: float = annual("MWh", "heating delivered")
    coil_latent_mwh: float = annual("MWh", "latent load the cooling coil condenses")
    summer_cooling_el_mwh: float = annual("MWh", "cooling electricity, June to August")
    winter_cooling_el_mwh: float = annual("MWh", "cooling electricity, December to February")
    peak_coil_w: float = annual("W", "largest hourly coil load, sensible plus latent")
    peak_heat_w: float = annual("W", "largest hourly heating load")
    max_relative_residual: float = annual("1", "largest hourly air-node balance residual")
    transpired_kg: float = annual("kg", "water the crop transpires")
    condensate_recovered_l: float = annual("L", "condensate the coil recovers")
    net_water_l: float = annual("L", "water in fresh growth plus unrecovered transpiration")
    seec_kwh_per_kg: Optional[float] = annual("kWh kg-1", "electricity per kg of yield")
    sec_kwh_per_kg: Optional[float] = annual("kWh kg-1", "electricity plus daylight per kg")
    total_lighting_kwh_per_kg: Optional[float] = annual("kWh kg-1", "LEDs plus daylight per kg")
    wue_g_per_l: Optional[float] = annual("g L-1", "yield per litre of net water")


def compute_kpis(**annual) -> KpiReport:
    """The record from every non-ratio field, by keyword, plus its ratios."""
    y, el, sol = annual["yield_kg"], annual["electricity_mwh"], annual["harvested_daylight_mwh"]
    led, water, per_kg = annual["led_electricity_mwh"], annual["net_water_l"], y > 0.0
    return KpiReport(**annual, seec_kwh_per_kg=el * 1000.0 / y if per_kg else None,
                     sec_kwh_per_kg=(el + sol) * 1000.0 / y if per_kg else None,
                     total_lighting_kwh_per_kg=(led + sol) * 1000.0 / y if per_kg else None,
                     wue_g_per_l=y * 1000.0 / water if per_kg and water > 0.0 else None)


def led_cost_per_watt(costs: CostTable, ppe: float) -> float:
    """Installed LED cost in $ per electrical watt for a given efficacy.

    Area cost converts to $ per (umol/s) at the design PPFD, and each
    umol/s costs 1/PPE electrical watts, so $/W scales with PPE.
    """
    if ppe <= 0.0:
        raise ValueError("PPE must be positive")
    usd_per_m2 = costs.led_usd_per_ft2 * FT2_PER_M2
    usd_per_umol_s = usd_per_m2 / costs.reference_ppfd
    return usd_per_umol_s * ppe


def light_cost(capex_usd: float, flux_umol_s: float) -> float:
    """Capital cost per unit of delivered photon flux, $ per (umol/s)."""
    if flux_umol_s <= 0.0:
        raise ValueError("delivered flux must be positive")
    if capex_usd < 0.0:
        raise ValueError("capex must be non-negative")
    return capex_usd / flux_umol_s


def lumens_to_photon_flux(lumens: float) -> float:
    """Luminous flux to photon flux assuming a PAR-band spectrum."""
    if lumens < 0.0:
        raise ValueError("luminous flux must be non-negative")
    return lumens / LUMENS_PER_W_PAR * PAR_UMOL_PER_J


def fiber_reference_light_cost() -> tuple[float, float]:
    """(light cost, photon flux) of the optical-fiber reference system."""
    flux = lumens_to_photon_flux(FIBER_LUMENS)
    return light_cost(FIBER_USD, flux), flux


REFERENCE_PIPE_PPF = 24.9  # umol/s per pipe under the 100 klx reference sky


def pipe_hardware(strategy: Strategy, costs: CostTable) -> dict:
    """Hardware each pipe of a strategy carries, $ per pipe: the pipe with
    its auxiliaries ("lp"), a UV-IR filter ("ir_filter") and an EC film
    ("ec_film"), 0.0 where it has none; all 0.0 without piped daylight."""
    if strategy.daylight != "pipe":
        return {"lp": 0.0, "ir_filter": 0.0, "ec_film": 0.0}
    return {"lp": costs.lp_total_usd,
            "ir_filter": costs.ir_filter_usd if strategy.filter_tau is not None else 0.0,
            "ec_film": costs.ec_film_usd if strategy.ec_film else 0.0}


def pipe_light_cost(strategy: Strategy, costs: CostTable, ppf_ref: float,
                    ec_cap_ppfd: float, zone_area_m2: float) -> dict:
    """Per-pipe hardware cost, delivered flux and light cost of a pipe strategy.

    ppf_ref is the delivered flux of a bare pipe under the shared reference
    daylight. A UV-IR filter passes its visible transmittance of it; the
    film passes `EC_FILM`'s maximum transmittance, capped at the control
    bound over the growing zone.
    """
    usd, flux = sum(pipe_hardware(strategy, costs).values()), ppf_ref
    if strategy.filter_tau is not None:
        flux = ppf_ref * strategy.filter_tau
    if strategy.ec_film:
        flux = min(ppf_ref * EC_FILM.tau_max, ec_cap_ppfd * zone_area_m2)
    return {"cost_usd": usd, "ppf_umol_s": flux, "light_cost": light_cost(usd, flux)}


def light_cost_comparison(costs: CostTable, ppf_ref: float, ec_cap_ppfd: float,
                          zone_area_m2: float, own: Optional[dict] = None) -> list[dict]:
    """Per-pipe light cost of each hardware variant against the fiber
    system; the arguments after `costs` are `pipe_light_cost`'s. `own` maps
    a strategy id onto that variant's own such arguments, which price its
    row instead. The LP_Min row stands for both on/off strategies and
    LP_Dim_IR for the 98% filter."""
    fiber_lc, fiber_flux = fiber_reference_light_cost()
    shared = (costs, ppf_ref, ec_cap_ppfd, zone_area_m2)
    variants = {"LP_NL": "LP_NL", "LP_Min": "LP_Min_250", "LP_Dim": "LP_Dim",
                "LP_Dim_IR": "LP_Dim_IR_98", "LP_Dim_EC": "LP_Dim_EC"}
    return [{"system": "Optical Fiber", "cost_usd": FIBER_USD, "ppf_umol_s": fiber_flux,
             "light_cost": fiber_lc}] + [
        {"system": name, **pipe_light_cost(STRATEGIES[sid], *(own or {}).get(sid, shared))}
        for name, sid in variants.items()]


@dataclass(frozen=True)
class PaybackResult:
    years: float                         # inf when non-viable
    delta_capex_usd: float
    annual_savings_usd: float            # electricity + carbon + revenue delta
    viable: bool


def _payback(delta_capex_usd: float, delta_electricity_mwh: float, delta_yield_kg: float,
             costs: CostTable, electricity_usd_per_mwh: float,
             carbon_usd_per_t: float) -> PaybackResult:
    savings = (electricity_usd_per_mwh * delta_electricity_mwh
               + carbon_usd_per_t * costs.grid_t_co2_per_mwh * delta_electricity_mwh
               + costs.lettuce_usd_per_kg * delta_yield_kg)
    if delta_capex_usd <= 0.0:
        return PaybackResult(0.0, delta_capex_usd, savings, True)
    if savings <= 0.0:
        return PaybackResult(math.inf, delta_capex_usd, savings, False)
    return PaybackResult(delta_capex_usd / savings, delta_capex_usd, savings, True)


def payback_time(delta_capex_usd: float, delta_electricity_mwh: float,
                 delta_yield_kg: float, costs: CostTable) -> PaybackResult:
    """Simple payback of the incremental investment.

    delta_electricity_mwh is the annual saving (benchmark minus scenario);
    delta_yield_kg is scenario minus benchmark. Carbon pricing applies to
    the avoided grid energy. A non-positive denominator means the
    investment never pays back.
    """
    return _payback(delta_capex_usd, delta_electricity_mwh, delta_yield_kg, costs,
                    costs.electricity_usd_per_mwh, costs.carbon_usd_per_t)


def sensitivity_sweep(delta_capex_usd: float, delta_electricity_mwh: float,
                      delta_yield_kg: float, costs: CostTable,
                      electricity_prices: Sequence[float], carbon_prices: Sequence[float],
                      per_pipe_usd: float, n_pipes: int,
                      target_pbt_years: float) -> list[dict]:
    """`payback_time` over a price grid, re-pricing a finished run.

    Each row also holds the break-even per-pipe cost for the target
    payback, the rest of the capex held fixed, and the cut from
    per_pipe_usd it needs; both None without pipe hardware.
    """
    fixed = delta_capex_usd - n_pipes * per_pipe_usd
    rows = []
    for c_el in electricity_prices:
        for c_co2 in carbon_prices:
            pbt = _payback(delta_capex_usd, delta_electricity_mwh, delta_yield_kg, costs,
                           c_el, c_co2)
            unit = None
            if n_pipes and per_pipe_usd > 0.0:
                unit = break_even_unit_cost(pbt.annual_savings_usd, fixed, n_pipes,
                                            target_pbt_years)
            rows.append({
                "electricity_usd_per_mwh": c_el,
                "carbon_usd_per_t": c_co2,
                "pbt_years": pbt.years,
                "annual_savings_usd": pbt.annual_savings_usd,
                "viable": pbt.viable,
                "break_even": {"unit_usd": unit, "reduction_needed": None if unit is None
                               else max(0.0, 1.0 - unit / per_pipe_usd)},
            })
    return rows


def break_even_unit_cost(annual_savings_usd: float, fixed_capex_usd: float,
                         n_units: int, target_pbt_years: float) -> Optional[float]:
    """Largest per-unit cost keeping payback at or under the target.

    The incremental CAPEX is fixed_capex_usd + n_units * unit cost, and
    `payback_time` accepts a CAPEX of at most max(0, target * savings): a
    non-positive one always, a positive one when the savings repay it
    within the target. The break-even cost is therefore
    (max(0, target * savings) - fixed) / n, exactly; None when that is
    negative, i.e. even free units miss the target.
    """
    if target_pbt_years <= 0.0:
        raise ValueError("target payback must be positive")
    if n_units <= 0:
        raise ValueError("break-even needs at least one unit")
    unit = (max(0.0, target_pbt_years * annual_savings_usd) - fixed_capex_usd) / n_units
    return None if unit < 0.0 else unit
