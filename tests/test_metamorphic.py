"""Metamorphic relations: what must hold between runs, whatever the numbers.

Under a dark sky (DNI = DHI = 0, shipped temperatures) no daylight reaches
any tier, so every strategy that keeps tier 3 at the setpoint with LEDs
grows exactly Bench's crop, and the strategies that leave tier 3 dark grow
two thirds of it. Measured: 9205.19669184947 kg and 6136.797794566313 kg.
The first run Bench's tier-3 fixtures at full output for Bench's hours,
and every fixture, dimmable or not, draws its rating, so they also draw
Bench's 17.52 MWh of tier-3 LED energy.

Under a sky 1.3 times brighter (DNI and DHI scaled, temperatures kept) the
EC film attenuates in some hours, which the shipped year never makes it do,
and holds tier-3 daylight at its cap in every hour.

With the outside air at the chamber setpoint every hour (shipped sky) there
is no temperature difference to drive heat through the envelope or into the
light pipes, so both of those loads are exactly zero in every hour.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pipefarm.climate import ClimateSeries
from pipefarm.engine import run_scenario
from pipefarm.lighting import EC_FILM
from pipefarm.thermal import BALANCE

LED_SETPOINT_TIER3 = ("LP_Min_250", "LP_Dim", "LP_Dim_IR_98", "LP_Dim_IR_90", "LP_Dim_EC")
DARK_TIER3 = ("LP_NL", "GH")


@pytest.fixture(scope="module")
def dark_runs(scenario_configs, climate, reference_table, lue_calibrated, solar):
    dark = ClimateSeries(climate.temperature, np.zeros_like(climate.dni),
                         np.zeros_like(climate.dhi), source="<dark sky>")
    names = ("Bench",) + LED_SETPOINT_TIER3 + DARK_TIER3
    return {name: run_scenario(scenario_configs[name], dark,
                               reference_table if scenario_configs[name].uses_light_pipes
                               else None, lue_calibrated, solar=solar)
            for name in names}


class TestDarkSky:
    @pytest.mark.parametrize("name", LED_SETPOINT_TIER3)
    def test_led_setpoint_tier3_grows_bench_yield(self, dark_runs, name):
        assert dark_runs[name].kpis.yield_kg == dark_runs["Bench"].kpis.yield_kg

    @pytest.mark.parametrize("name", DARK_TIER3)
    def test_dark_tier3_grows_two_thirds(self, dark_runs, name):
        assert math.isclose(dark_runs[name].kpis.yield_kg,
                            2.0 / 3.0 * dark_runs["Bench"].kpis.yield_kg,
                            rel_tol=1e-15, abs_tol=0.0)

    @pytest.mark.parametrize("name", LED_SETPOINT_TIER3)
    def test_full_output_tier3_draws_bench_led_energy(self, dark_runs, name):
        assert (dark_runs[name].aggregates["led_tier3_mwh"]
                == dark_runs["Bench"].aggregates["led_tier3_mwh"])


@pytest.fixture(scope="module")
def bright_ec(scenario_configs, climate, reference_table, lue_calibrated, solar):
    bright = ClimateSeries(climate.temperature, climate.dni * 1.3, climate.dhi * 1.3,
                           source="<bright sky>")
    return run_scenario(scenario_configs["LP_Dim_EC"], bright, reference_table,
                        lue_calibrated, solar=solar)


class TestBrightSkyFilm:
    def test_film_attenuates_some_hours(self, bright_ec):
        assert np.count_nonzero(bright_ec.hourly["ec_tau"] < EC_FILM.tau_max) > 0

    def test_daylight_held_at_the_cap(self, bright_ec):
        cap = bright_ec.config.ec_cap_ppfd
        assert bright_ec.hourly["daylight_ppfd_t3"].max() <= cap * (1.0 + 1e-12)
        assert not any("unreachable" in w for w in bright_ec.warnings)


NO_DRIVE = ("Bench", "LP_Dim", "LP_Dim_EC", "GH")


@pytest.fixture(scope="module")
def setpoint_runs(scenario_configs, climate, reference_table, lue_calibrated, solar):
    out = {}
    for name in NO_DRIVE:
        cfg = scenario_configs[name]
        still = ClimateSeries(np.full_like(climate.temperature, cfg.setpoint_t), climate.dni,
                              climate.dhi, source="<setpoint air>")
        out[name] = run_scenario(cfg, still, reference_table if cfg.uses_light_pipes
                                 else None, lue_calibrated, solar=solar)
    return out


class TestNoDrive:
    @pytest.mark.parametrize("name", NO_DRIVE)
    @pytest.mark.parametrize("column", [n for n, term in BALANCE.items() if term.follows_air])
    def test_no_envelope_or_pipe_convection_load(self, setpoint_runs, name, column):
        assert np.all(setpoint_runs[name].hourly[column] == 0.0)
