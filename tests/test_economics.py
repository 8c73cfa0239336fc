import dataclasses
import math
import re

import pytest

from pipefarm.economics import (REFERENCE_PIPE_PPF, CostTable, KpiReport,
                                break_even_unit_cost, compute_kpis, fiber_reference_light_cost,
                                led_cost_per_watt, light_cost, light_cost_comparison,
                                lumens_to_photon_flux, payback_time, pipe_hardware,
                                pipe_light_cost, sensitivity_sweep)
from pipefarm.lighting import STRATEGIES

COSTS = CostTable()


class TestLedCapexChain:
    @pytest.mark.parametrize("ppe,usd_w", [(3.0, 4.5), (2.5, 3.75), (2.0, 3.0)])
    def test_area_to_watt_chain(self, ppe, usd_w):
        assert led_cost_per_watt(COSTS, ppe) == pytest.approx(usd_w, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            led_cost_per_watt(COSTS, 0.0)


class TestLightCost:
    def test_bare_pipe(self):
        assert light_cost(300.0, 24.9) == pytest.approx(12.05, abs=0.005)

    def test_fiber_reference(self):
        lc, flux = fiber_reference_light_cost()
        assert flux == pytest.approx(167.0, rel=0.01)
        assert lc == pytest.approx(19.53, abs=0.01)

    def test_filter_variant(self):
        assert light_cost(404.0, 24.9 * 0.98) == pytest.approx(16.56, abs=0.01)

    def test_film_variant(self):
        assert light_cost(400.0, 16.0) == pytest.approx(25.00, abs=1e-12)

    def test_homogeneous(self):
        assert light_cost(300.0, 24.9) == pytest.approx(light_cost(600.0, 49.8),
                                                        rel=1e-12)

    def test_zero_flux_rejected(self):
        with pytest.raises(ValueError):
            light_cost(300.0, 0.0)

    def test_capex_bound_is_zero(self):
        assert light_cost(0.0, 24.9) == 0.0
        with pytest.raises(ValueError, match="capex"):
            light_cost(-1e-9, 24.9)

    def test_lumens_conversion(self):
        assert lumens_to_photon_flux(9200.0) == pytest.approx(167.1, abs=0.2)

    def test_comparison_rows(self):
        rows = {r["system"]: r for r in light_cost_comparison(COSTS, REFERENCE_PIPE_PPF,
                                                                      400.0, 0.04)}
        assert rows["LP_NL"]["light_cost"] == pytest.approx(12.05, abs=0.02)
        assert rows["LP_Dim_IR"]["light_cost"] == pytest.approx(16.56, abs=0.02)
        assert rows["LP_Dim_EC"]["light_cost"] == pytest.approx(25.00, abs=0.02)
        assert rows["Optical Fiber"]["light_cost"] == pytest.approx(19.53, abs=0.02)

    @pytest.mark.parametrize("sid, items", [
        ("Bench", (0.0, 0.0, 0.0)), ("GH", (0.0, 0.0, 0.0)), ("LP_NL", (300.0, 0.0, 0.0)),
        ("LP_Dim_IR_90", (300.0, 104.0, 0.0)), ("LP_Dim_EC", (300.0, 0.0, 100.0)),
    ])
    def test_pipe_hardware_follows_the_strategy_row(self, sid, items):
        hardware = pipe_hardware(STRATEGIES[sid], COSTS)
        assert tuple(hardware.values()) == items
        if STRATEGIES[sid].daylight == "pipe":
            cost = pipe_light_cost(STRATEGIES[sid], COSTS, 24.9, 400.0, 0.04)
            assert cost["cost_usd"] == sum(items)

    def test_break_even_unit_cost_beats_fiber(self):
        # a pipe at 480 $ still undercuts the fiber photon cost
        fiber, _ = fiber_reference_light_cost()
        assert light_cost(480.0, 24.9) <= fiber


class TestPayback:
    def test_direct_quotient(self):
        costs = CostTable(electricity_usd_per_mwh=1.0, lettuce_usd_per_kg=7.82)
        res = payback_time(100.0, 10.0, 0.0, costs)
        assert res.years == pytest.approx(10.0, rel=1e-12)
        assert res.viable

    def test_yield_loss_can_sink_it(self):
        res = payback_time(100.0, 10.0, -1000.0, COSTS)
        assert not res.viable
        assert math.isinf(res.years)

    def test_free_upgrade(self):
        assert payback_time(0.0, 1.0, 0.0, COSTS).years == 0.0

    def test_monotone_in_prices(self):
        prev = math.inf
        for price in (50.0, 100.0, 200.0, 400.0):
            costs = CostTable(electricity_usd_per_mwh=price)
            y = payback_time(1000.0, 5.0, 0.0, costs).years
            assert y < prev
            prev = y

    def test_carbon_price_monotone(self):
        lo = payback_time(1000.0, 5.0, 0.0, CostTable(carbon_usd_per_t=0.0)).years
        hi = payback_time(1000.0, 5.0, 0.0, CostTable(carbon_usd_per_t=100.0)).years
        assert hi < lo

    def test_doubling_price_halves_payback(self):
        c1 = CostTable(electricity_usd_per_mwh=100.0, carbon_usd_per_t=0.0)
        c2 = CostTable(electricity_usd_per_mwh=200.0, carbon_usd_per_t=0.0)
        y1 = payback_time(1000.0, 5.0, 0.0, c1).years
        y2 = payback_time(1000.0, 5.0, 0.0, c2).years
        assert y1 == pytest.approx(2.0 * y2, rel=1e-12)


class TestSweep:
    def test_zero_prices_nonviable_everywhere(self):
        rows = sensitivity_sweep(1000.0, 5.0, 0.0, COSTS, [0.0], [0.0], 0.0, 0, 10.0)
        assert all(not r["viable"] for r in rows)

    def test_grid_shape(self):
        rows = sensitivity_sweep(1000.0, 5.0, 0.0, COSTS, [100, 200], [0, 50, 100],
                                 0.0, 0, 10.0)
        assert len(rows) == 6

    def test_rows_are_payback_time_and_break_even_at_each_price(self):
        costs = CostTable(lettuce_usd_per_kg=5.0, grid_t_co2_per_mwh=0.3)
        rows = sensitivity_sweep(5000.0, 7.0, 40.0, costs, [100, 350], [0, 80],
                                 10.0, 300, 10.0)
        for row in rows:
            priced = CostTable(lettuce_usd_per_kg=5.0, grid_t_co2_per_mwh=0.3,
                               electricity_usd_per_mwh=row["electricity_usd_per_mwh"],
                               carbon_usd_per_t=row["carbon_usd_per_t"])
            pbt = payback_time(5000.0, 7.0, 40.0, priced)
            assert (row["pbt_years"], row["annual_savings_usd"], row["viable"]) == (
                pbt.years, pbt.annual_savings_usd, pbt.viable)
            unit = break_even_unit_cost(pbt.annual_savings_usd, 5000.0 - 3000.0, 300, 10.0)
            assert row["break_even"] == {
                "unit_usd": unit,
                "reduction_needed": None if unit is None else max(0.0, 1.0 - unit / 10.0)}

    @pytest.mark.parametrize("per_pipe, n", [(0.0, 750), (300.0, 0)], ids=["no_hardware",
                                                                           "no_pipes"])
    def test_no_pipe_hardware_has_no_break_even(self, per_pipe, n):
        rows = sensitivity_sweep(1000.0, 5.0, 0.0, COSTS, [100, 200], [0], per_pipe, n, 10.0)
        assert all(r["break_even"] == {"unit_usd": None, "reduction_needed": None}
                   for r in rows)

    def test_break_even_monotone_bracket(self):
        costs = CostTable(electricity_usd_per_mwh=200.0)
        savings = payback_time(1.0, 10.0, 0.0, costs).annual_savings_usd
        be = break_even_unit_cost(savings, 0.0, 100, target_pbt_years=10.0)
        # at the break-even cost the payback sits on the target
        assert payback_time(100.0 * be, 10.0, 0.0, costs).years == pytest.approx(10.0, abs=1e-9)

    def test_break_even_none_when_unreachable(self):
        savings = payback_time(1.0, 0.001, 0.0, COSTS).annual_savings_usd
        assert break_even_unit_cost(savings, 1e9, 1, 10.0) is None

    def test_break_even_beyond_any_bracket_is_exact(self):
        # 10 years of $1M savings over 1000 units: $10 000 each, returned as is
        assert break_even_unit_cost(1e6, 0.0, 1000, 10.0) == 10_000.0

    @pytest.mark.parametrize("savings,fixed,n,target", [
        (1044.188, 230.888, 750, 10.0),      # a priced hybrid: pipes carry the cost
        (-50.0, -400.0, 4, 5.0),             # no savings, but a negative fixed delta
        (300.0, 0.0, 1, 2.5),
    ])
    def test_break_even_is_the_largest_accepted_unit_cost(self, savings, fixed, n, target):
        costs = CostTable(electricity_usd_per_mwh=1.0, carbon_usd_per_t=0.0)

        def pbt(unit):
            return payback_time(fixed + n * unit, savings, 0.0, costs)

        be = break_even_unit_cost(savings, fixed, n, target)
        assert be == (max(0.0, target * savings) - fixed) / n
        assert pbt(be).viable and pbt(be).years <= target * (1.0 + 1e-12)
        assert pbt(be * (1.0 + 1e-9) + 1e-9).years > target

    def test_break_even_validation(self):
        with pytest.raises(ValueError):
            break_even_unit_cost(100.0, 0.0, 10, 0.0)
        with pytest.raises(ValueError):
            break_even_unit_cost(100.0, 0.0, 0, 10.0)


RATIOS = ("seec_kwh_per_kg", "sec_kwh_per_kg", "total_lighting_kwh_per_kg", "wue_g_per_l")


def kpis(**given):
    """`compute_kpis` over every non-ratio field, 0 where not given."""
    fields = {f.name: 0.0 for f in dataclasses.fields(KpiReport) if f.name not in RATIOS}
    return compute_kpis(**{**fields, "cycles": 0, "mean_dli_per_tier": (), **given})


class TestKpis:
    def test_identity_between_seec_and_electricity(self):
        k = kpis(yield_kg=9221.0, yield_harvested_kg=9000.0, electricity_mwh=56.7,
                 led_electricity_mwh=43.8, net_water_l=10000.0,
                 mean_dli_per_tier=(14.4, 14.4, 14.4))
        assert k.seec_kwh_per_kg * k.yield_kg == pytest.approx(56.7 * 1000.0, rel=1e-12)
        assert k.seec_kwh_per_kg == pytest.approx(6.15, abs=0.01)

    def test_sec_includes_daylight(self):
        k = kpis(yield_kg=9000.0, electricity_mwh=50.0, harvested_daylight_mwh=10.0,
                 led_electricity_mwh=40.0, net_water_l=10000.0)
        assert k.sec_kwh_per_kg > k.seec_kwh_per_kg
        assert k.sec_kwh_per_kg == pytest.approx(60.0 * 1000.0 / 9000.0, rel=1e-12)

    def test_total_lighting_definition(self):
        k = kpis(yield_kg=9000.0, electricity_mwh=50.0, harvested_daylight_mwh=11.1,
                 led_electricity_mwh=40.0, net_water_l=10000.0)
        assert k.total_lighting_kwh_per_kg == pytest.approx((40.0 + 11.1) * 1000 / 9000,
                                                            rel=1e-12)

    def test_zero_yield_leaves_every_ratio_undefined(self):
        k = kpis(yield_kg=0.0, electricity_mwh=56.7, led_electricity_mwh=43.8,
                 net_water_l=10000.0)
        assert all(getattr(k, name) is None for name in RATIOS)

    def test_zero_net_water_leaves_only_wue_undefined(self):
        k = kpis(yield_kg=9000.0, electricity_mwh=50.0, led_electricity_mwh=40.0,
                 net_water_l=0.0)
        assert k.wue_g_per_l is None
        assert all(getattr(k, name) is not None for name in RATIOS[:3])

    def test_readme_table_matches_the_declared_fields(self, repo_paths):
        """Each field declares a unit and a meaning, and README's annual-numbers
        table lists exactly the fields, once each, with those units and meanings."""
        declared = {f.name: (f.metadata["unit"], f.metadata["meaning"])
                    for f in dataclasses.fields(KpiReport)}
        assert all(unit and meaning for unit, meaning in declared.values())
        text = (repo_paths["repo"] / "README.md").read_text()
        section = text.split("\n### Annual numbers\n", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|$", section, re.M)
        assert len(rows) == len(declared)
        assert {name: (unit, meaning) for name, unit, meaning in rows} == declared

    def test_constant_photoperiod_dli(self):
        # 250 umol for 16 h is the design daily light integral
        dli = 250.0 * 16 * 3600 / 1e6
        assert dli == pytest.approx(14.4, rel=1e-12)


class TestCostTable:
    def test_lp_total(self):
        assert COSTS.lp_total_usd == 300.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostTable(lp_unit_usd=-1.0)
