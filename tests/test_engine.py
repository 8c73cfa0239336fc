import csv
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import pipefarm
from pipefarm import engine
from pipefarm.cli import main
from pipefarm.climate import ClimateSeries, HOURS_PER_YEAR, SiteConfig
from pipefarm.config import CompareSet, ConfigError, load_scenario_config, load_set
from pipefarm.crop import CropParams, CropState, growth_step, harvest_if_due, interception, \
    standing_credit_kg
from pipefarm.economics import break_even_unit_cost, led_cost_per_watt, light_cost_comparison, \
    payback_time
from pipefarm.engine import (SimulationError, Study, calibrate_lue_scale, compare_scenarios,
                             light_cost_inputs, prepare_efficiency_table, run_scenario,
                             scenario_capex_delta, scenario_light_cost, scenario_sweep)
from pipefarm.lighting import EC_FILM, STRATEGIES, control_tier3, ec_control, led_electric_power
from pipefarm.optics import (DIFFUSE_BANDS, OpticalEfficiencyTable, apply_neutral_attenuation,
                             apply_uv_ir_filter, gh_gains, lp_crop_ppfd, lp_solar_gains)
from pipefarm.thermal import POWER_COLUMNS, RA_VALID_RANGE, lp_convection
from pipefarm.tracer import DEFAULT_SEED, MODEL_REVISION


def flat_climate(temperature=24.0, dni=0.0, dhi=0.0) -> ClimateSeries:
    n = HOURS_PER_YEAR
    return ClimateSeries(np.full(n, temperature), np.full(n, dni), np.full(n, dhi),
                         source="<flat>")


class TestBalanceDegeneracy:
    def test_bench_dark_box_cooling_equals_gains(self, scenario_configs, lue_calibrated):
        """No sun, outside pinned at the setpoint: cooling exactly mirrors
        the internal gains and the heater never runs."""
        cfg = scenario_configs["Bench"]
        res = run_scenario(cfg, flat_climate(), None, lue_calibrated)
        h = res.hourly
        assert res.aggregates["heating_thermal_mwh"] == 0.0
        expected = -(h["q_led"] - h["q_plant"] - h["q_eva"])
        assert np.allclose(h["q_hc"], expected, rtol=1e-12, atol=1e-9)
        assert np.all(h["q_hc"] <= 1e-12)
        assert np.all(h["q_env"] == 0.0)
        assert np.all(h["q_lp_conv"] == 0.0)

    def test_lp_scenario_reduces_to_bench_without_sun(self, scenario_configs,
                                                      reference_table, lue_calibrated):
        """Zero irradiance at the setpoint temperature: a dimming scenario runs
        the benchmark's fixtures at full output, so it draws exactly the
        benchmark's LED power and needs exactly its cooling."""
        bench = run_scenario(scenario_configs["Bench"], flat_climate(), None,
                             lue_calibrated)
        dim = run_scenario(scenario_configs["LP_Dim"], flat_climate(),
                           reference_table, lue_calibrated)
        assert dim.kpis.yield_kg == bench.kpis.yield_kg
        assert dim.kpis.harvested_daylight_mwh == 0.0
        d_led = (dim.aggregates["led_electricity_mwh"]
                 - bench.aggregates["led_electricity_mwh"])
        d_cool = (dim.aggregates["cooling_thermal_mwh"]
                  - bench.aggregates["cooling_thermal_mwh"])
        assert d_led == 0.0
        assert d_cool == 0.0


class TestTraceConsistency:
    def test_aggregates_equal_trace_sums(self, scenario_results):
        for name, res in scenario_results.items():
            el = float(res.hourly["p_total_el"].sum() * 1e-6)
            assert res.aggregates["electricity_mwh"] == pytest.approx(el, rel=1e-9)
            led = float(res.hourly["q_led"].sum() * 1e-6)
            assert res.aggregates["led_electricity_mwh"] == pytest.approx(led, rel=1e-9)
            sol = float(res.hourly["q_lp_sol"].sum() * 1e-6)
            assert res.aggregates["harvested_daylight_mwh"] == pytest.approx(sol, rel=1e-9)

    def test_seec_identity(self, scenario_results):
        for res in scenario_results.values():
            k = res.kpis
            assert k.seec_kwh_per_kg * k.yield_kg == pytest.approx(
                k.electricity_mwh * 1000.0, rel=1e-9)
            assert k.sec_kwh_per_kg >= k.seec_kwh_per_kg

    def test_tier12_energy_identical_across_scenarios(self, scenario_results):
        vals = {round(r.aggregates["led_tier12_mwh"], 12)
                for r in scenario_results.values()}
        assert len(vals) == 1

    def test_hourly_arrays_complete(self, scenario_results):
        for res in scenario_results.values():
            for col, arr in res.hourly.items():
                assert arr.shape == (HOURS_PER_YEAR,)


class TestDeterminism:
    def test_run_order_independence(self, scenario_configs, climate, reference_table,
                                    lue_calibrated, solar, scenario_results):
        # a fresh standalone run matches the one executed inside the batch
        fresh = run_scenario(scenario_configs["LP_Min_200"], climate, reference_table,
                             lue_calibrated, solar=solar)
        assert fresh.aggregates == scenario_results["LP_Min_200"].aggregates

    def test_rerun_bit_identical(self, scenario_configs, climate, reference_table,
                                 lue_calibrated, solar):
        cfg = scenario_configs["LP_Dim"]
        a = run_scenario(cfg, climate, reference_table, lue_calibrated, solar=solar)
        b = run_scenario(cfg, climate, reference_table, lue_calibrated, solar=solar)
        assert a.aggregates == b.aggregates
        for col in a.hourly:
            assert np.array_equal(a.hourly[col], b.hourly[col], equal_nan=True)
        assert a.harvests == b.harvests

    def test_saved_outputs_identical(self, scenario_configs, climate, reference_table,
                                     lue_calibrated, solar, tmp_path):
        cfg = scenario_configs["LP_Min_250"]
        res = run_scenario(cfg, climate, reference_table, lue_calibrated, solar=solar)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        files1 = res.save(d1)
        files2 = run_scenario(cfg, climate, reference_table, lue_calibrated,
                              solar=solar).save(d2)
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()


class TestTableSwap:
    def test_traced_and_imported_tables_run_identically(self, scenario_configs,
                                                        climate, lue_calibrated,
                                                        solar, tmp_path):
        """Round-tripping a table through the delimited format must not
        change a single bit of the annual results."""
        cfg = scenario_configs["LP_Dim"]
        table = prepare_efficiency_table(cfg)
        path = tmp_path / "table.csv"
        engine.write_csv(path, *table.csv_columns())
        reload = OpticalEfficiencyTable.import_csv(path)
        a = run_scenario(cfg, climate, table, lue_calibrated, solar=solar)
        b = run_scenario(cfg, climate, reload, lue_calibrated, solar=solar)
        assert a.aggregates == b.aggregates
        assert a.kpis == b.kpis


def random_traced_table(seed: int) -> OpticalEfficiencyTable:
    rng = np.random.default_rng(seed)
    tilts = np.arange(45.0, 91.0, 5.0)
    th = rng.uniform(0.1, 0.6, (tilts.size, 9))
    return OpticalEfficiencyTable(
        alt_grid=np.arange(5.0, 91.0, 5.0), eta_dir=rng.uniform(0.2, 0.7, 18),
        se_dir=rng.uniform(0.0, 0.01, 18), tilt_grid=tilts, bands=DIFFUSE_BANDS,
        eta_diff_th=th, eta_diff_crop=th * 0.3, se_diff_th=np.zeros_like(th),
        se_diff_crop=np.zeros_like(th), provenance="traced")


class TestTableSidecar:
    """A table with a sidecar reads as traced, and only under the sidecar's
    geometry and this tracer's model revision; no test here traces."""

    def write(self, tmp_path, cfg, **edits):
        path = tmp_path / "efficiency_table.csv"
        engine.write_csv(path, *random_traced_table(0).csv_columns())
        meta = {"provenance": "traced", "lp": dataclasses.asdict(cfg.lp_geometry),
                "geometry_hash": cfg.lp_geometry.content_hash(), "rays": 10_000,
                "seed": DEFAULT_SEED, "model_revision": MODEL_REVISION}
        meta["lp"].update(edits.pop("lp", {}))
        Path(f"{path}.json").write_text(json.dumps({**meta, **edits}))
        return dataclasses.replace(cfg, table_path=path)

    def test_sidecar_makes_the_table_traced(self, scenario_configs, tmp_path):
        cfg = self.write(tmp_path, scenario_configs["LP_Dim"])
        table = prepare_efficiency_table(cfg)
        assert table.provenance == "traced"
        assert table.geometry_hash == cfg.lp_geometry.content_hash()
        assert np.array_equal(table.eta_dir, random_traced_table(0).eta_dir)

    @pytest.mark.parametrize("edits, points", [
        ({"lp": {"diameter_mm": 200.0}}, ["'lp.diameter_mm'"]),
        ({"model_revision": MODEL_REVISION - 1},
         [f"revision {MODEL_REVISION - 1}", f"revision {MODEL_REVISION}"]),
    ], ids=["geometry", "revision"])
    def test_another_geometry_or_revision_exits_3(self, scenario_configs, tmp_path, capsys,
                                                  repo_paths, edits, points):
        self.write(tmp_path, scenario_configs["LP_Dim"], **edits)
        path = tmp_path / "lp_dim_traced.yaml"
        path.write_text(f"include: {repo_paths['configs'] / 'lp_dim.yaml'}\n"
                        "optics: {table: efficiency_table.csv}\n")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert "efficiency_table.csv.json" in detail and all(p in detail for p in points)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "{}", "not json"])
    def test_malformed_sidecar_is_named(self, scenario_configs, tmp_path, text):
        cfg = self.write(tmp_path, scenario_configs["LP_Dim"])
        Path(f"{cfg.table_path}.json").write_text(text)
        with pytest.raises(ConfigError, match="not a trace-optics sidecar"):
            prepare_efficiency_table(cfg)

    def test_shipped_runs_read_an_imported_table(self, scenario_results):
        for name, result in scenario_results.items():
            piped = result.config.uses_light_pipes
            assert result.metadata["table_provenance"] == ("imported" if piped else None), name
            assert result.metadata["table_geometry_hash"] is None, name


class TestCalibration:
    def test_session_anchor_hits_target(self, calibration):
        assert calibration["achieved_yield_kg"] == pytest.approx(9221.0, rel=0.02)

    def test_yield_is_ppe_invariant(self, scenario_configs, climate, lue_calibrated,
                                    solar):
        base = scenario_configs["Bench"]
        yields = set()
        for ppe in (2.0, 2.5, 3.0):
            cfg = dataclasses.replace(base, ppe=ppe)
            res = run_scenario(cfg, climate, None, lue_calibrated, solar=solar)
            yields.add(res.kpis.yield_kg)
        assert len(yields) == 1

    def test_non_bench_rejected(self, scenario_configs, climate, lue_base):
        from pipefarm.engine import CalibrationError
        with pytest.raises(CalibrationError):
            calibrate_lue_scale(scenario_configs["LP_NL"], climate, None, lue_base)


    def test_the_record_is_only_the_fit(self, calibration):
        assert set(calibration) == {"lue_scale", "achieved_yield_kg", "target_yield_kg"}

    def test_achieved_yield_is_the_bench_run_yield(self, bench_config, climate,
                                                   calibration, lue_calibrated, solar):
        res = run_scenario(bench_config, climate, None, lue_calibrated, solar=solar)
        assert calibration["achieved_yield_kg"] == res.kpis.yield_kg

    def test_iterates_the_crop_stage_alone(self, bench_config, climate, lue_base,
                                           calibration, monkeypatch):
        def full_year(*args, **kwargs):
            raise AssertionError("calibration ran a full scenario-year")
        monkeypatch.setattr(engine, "run_scenario", full_year)
        assert calibrate_lue_scale(bench_config, climate, None, lue_base) == calibration


class TestSeasonal:
    def test_summer_cooling_exceeds_winter(self, scenario_results):
        a = scenario_results["Bench"].aggregates
        assert a["summer_cooling_el_mwh"] > a["winter_cooling_el_mwh"]

    def test_heating_is_minor_for_bench(self, scenario_results):
        a = scenario_results["Bench"].aggregates
        assert a["heating_thermal_mwh"] < 0.1 * a["cooling_thermal_mwh"]

    def test_seasons_follow_calendar_months(self, bench_config, lue_calibrated):
        """Warming only Dec 27-31 moves winter cooling and leaves summer's."""
        temps = np.full(HOURS_PER_YEAR, 24.0)
        temps[-5 * 24:] = 40.0
        warm_tail = ClimateSeries(temps, np.zeros(HOURS_PER_YEAR), np.zeros(HOURS_PER_YEAR))
        base = run_scenario(bench_config, flat_climate(), None, lue_calibrated).aggregates
        warm = run_scenario(bench_config, warm_tail, None, lue_calibrated).aggregates
        assert warm["winter_cooling_el_mwh"] > base["winter_cooling_el_mwh"]
        assert warm["summer_cooling_el_mwh"] == base["summer_cooling_el_mwh"]


class TestCompare:
    def test_rows_and_light_costs(self, scenario_results):
        rows = compare_scenarios(list(scenario_results.values()))
        by = {r["scenario"]: r for r in rows}
        assert by["Bench"]["light_cost_usd_per_umol_s"] is None
        assert by["LP_Dim"]["light_cost_usd_per_umol_s"] == pytest.approx(12.05, abs=0.02)
        assert by["LP_Dim_IR_98"]["light_cost_usd_per_umol_s"] == pytest.approx(16.56, abs=0.02)
        assert by["LP_Dim_EC"]["light_cost_usd_per_umol_s"] == pytest.approx(25.00, abs=0.02)
        assert by["Bench"]["pbt_years"] == 0.0

    def test_pwm_with_uv_ir_filter_has_the_lowest_seec(self, scenario_results):
        """The paper's hybrid claim over all nine shipped runs, the
        daylight-only LP_NL (6.224 kWh/kg) included."""
        seec = {n: r.kpis.seec_kwh_per_kg for n, r in scenario_results.items()}
        assert min(seec, key=seec.get) == "LP_Dim_IR_98"
        assert seec["LP_Dim_IR_98"] == pytest.approx(6.180, abs=5e-4)

    def test_requires_bench(self, scenario_results):
        with pytest.raises(SimulationError, match="Bench"):
            compare_scenarios([scenario_results["LP_Dim"]])
        with pytest.raises(SimulationError, match="Bench"):
            scenario_sweep([scenario_results["LP_NL"], scenario_results["LP_Dim"]],
                           [100.0], [0.0], 10.0)

    def test_capex_components(self, scenario_results):
        bench = scenario_results["Bench"]
        ir = scenario_results["LP_Dim_IR_98"]
        capex = scenario_capex_delta(ir.config, bench.config,
                                     ir.aggregates["peak_coil_w"],
                                     bench.aggregates["peak_coil_w"])
        assert capex["lp"] == 750 * 300.0
        assert capex["ir_filter"] == 750 * 104.0
        assert capex["ec_film"] == 0.0
        nl = scenario_results["LP_NL"]
        capex_nl = scenario_capex_delta(nl.config, bench.config,
                                        nl.aggregates["peak_coil_w"],
                                        bench.aggregates["peak_coil_w"])
        assert capex_nl["led_delta"] < 0.0    # tier-3 fixtures removed

    def test_light_cost_table_reads_the_config(self, scenario_configs):
        def film_row(cfg):
            rows = light_cost_comparison(*light_cost_inputs(cfg))
            return next(r["light_cost"] for r in rows if r["system"] == "LP_Dim_EC")
        ec = scenario_configs["LP_Dim_EC"]
        assert film_row(ec) == scenario_light_cost(ec)
        capped = film_row(dataclasses.replace(ec, ec_cap_ppfd=600.0))
        assert capped == 400.0 / (24.9 * EC_FILM.tau_max)
        assert capped == pytest.approx(21.61, abs=0.005)

    def test_shipped_sweep_matches_payback_and_break_even(self, scenario_results,
                                                           repo_paths):
        """Every row of the shipped grid is `payback_time` at its prices and
        `break_even_unit_cost` on the capex breakdown's pipe stack, bit for bit."""
        study = load_set(repo_paths["configs"] / "sweep_lp_dim_ir.yaml", CompareSet)
        grid = study.grid
        scen, bench = scenario_results["LP_Dim_IR_98"], scenario_results["Bench"]
        (breakeven,), rows = scenario_sweep([bench, scen], grid.electricity_usd_per_mwh,
                                            grid.carbon_usd_per_t, study.target_pbt_years)
        capex, n = breakeven["delta_capex_usd"], scen.config.n_pipes
        stack = capex["lp"] + capex["ir_filter"] + capex["ec_film"]
        assert breakeven["per_pipe_hardware_usd"] == stack / n == 404.0
        assert len(rows) == len(breakeven["break_even_per_pipe_usd"]) == 12
        for row in rows:
            costs = dataclasses.replace(scen.config.costs,
                                        electricity_usd_per_mwh=row["electricity_usd_per_mwh"],
                                        carbon_usd_per_t=row["carbon_usd_per_t"])
            pbt = payback_time(capex["total"], breakeven["delta_electricity_mwh"],
                               breakeven["delta_yield_kg"], costs)
            assert row == {"scenario": "LP_Dim_IR_98",
                           "electricity_usd_per_mwh": row["electricity_usd_per_mwh"],
                           "carbon_usd_per_t": row["carbon_usd_per_t"],
                           "pbt_years": pbt.years, "annual_savings_usd": pbt.annual_savings_usd,
                           "viable": pbt.viable}
            unit = break_even_unit_cost(pbt.annual_savings_usd, capex["total"] - stack, n, 10.0)
            key = f"el{row['electricity_usd_per_mwh']:g}_co2{row['carbon_usd_per_t']:g}"
            assert breakeven["break_even_per_pipe_usd"][key] == {
                "unit_usd": unit,
                "reduction_needed": None if unit is None else max(0.0, 1.0 - unit / (stack / n))}

    def test_daylight_only_is_non_viable(self, scenario_results):
        rows = compare_scenarios([scenario_results["Bench"], scenario_results["LP_NL"]])
        nl = next(r for r in rows if r["scenario"] == "LP_NL")
        assert not nl["pbt_viable"]


class TestStudy:
    @pytest.mark.parametrize("field, value", [
        ("crop", dataclasses.replace(CropParams(), stagger_days=7.0)),
        ("setpoint_ppfd", 200.0),
        ("climate_path", Path("other_year.csv")),
        ("ppe", 3.0),
        ("site", SiteConfig(24.0, 55.0, 4.0)),
    ], ids=["crop", "setpoint_ppfd", "climate", "ppe", "site"])
    def test_mixed_inputs_refused_at_build(self, scenario_configs, monkeypatch, field, value):
        runs = []
        monkeypatch.setattr(engine, "run_scenario", lambda *a, **k: runs.append(a))
        other = dataclasses.replace(scenario_configs["LP_Dim"], **{field: value})
        with pytest.raises(SimulationError, match=rf"mixed {field} .*config 2 \(LP_Dim\) "
                                                  rf"has {re.escape(str(value))}"):
            Study([scenario_configs["Bench"], other])
        assert runs == []

    @pytest.mark.parametrize("first", [None, "LP_Dim_IR_98"], ids=["compare", "sweep"])
    def test_fits_its_own_lue_scale(self, scenario_configs, calibration, first):
        """Fitted on the first config run as Bench: the Bench config's fit, bit for bit."""
        configs = list(scenario_configs.values())
        if first is not None:
            configs = [scenario_configs[first], scenario_configs["Bench"]]
        study = Study(configs)
        assert study.calibration == calibration
        assert study.lue.scale == calibration["lue_scale"] == 1.2105210394249837

    def test_given_lue_is_not_refitted(self, scenario_configs, lue_calibrated, monkeypatch):
        def fit(*args, **kwargs):
            raise AssertionError("a study given its LUE table fitted one")
        monkeypatch.setattr(engine, "calibrate_lue_scale", fit)
        study = Study([scenario_configs["Bench"]], lue=lue_calibrated)
        assert study.lue is lue_calibrated and study.calibration is None

    def test_run_refuses_a_config_with_other_inputs(self, study, scenario_configs):
        with pytest.raises(SimulationError, match="mixed ppe"):
            study.run(dataclasses.replace(scenario_configs["LP_Dim"], ppe=3.0))

    def test_piped_scenarios_share_one_table(self, study, scenario_configs):
        tables = {name: study.table(cfg) for name, cfg in scenario_configs.items()}
        assert tables["Bench"] is None and tables["GH"] is None
        piped = {id(t) for t in tables.values() if t is not None}
        assert len(piped) == 1


class TestScenarioOverride:
    """Everything a scenario id implies follows the id, including after a
    `replace(scenario=...)` such as the CLI's --scenario flag."""

    def test_ir_override_filters_at_the_new_transmittance(self, scenario_configs, climate,
                                                          reference_table, lue_calibrated,
                                                          solar, scenario_results):
        cfg = dataclasses.replace(scenario_configs["LP_Dim_IR_98"], scenario="LP_Dim_IR_90")
        res = run_scenario(cfg, climate, reference_table, lue_calibrated, solar=solar)
        assert res.aggregates == scenario_results["LP_Dim_IR_90"].aggregates
        assert cfg.strategy.filter_tau == 0.90

    def test_override_to_plain_dimming_drops_the_filter(self, scenario_configs):
        bench = scenario_configs["Bench"]
        cfg = dataclasses.replace(scenario_configs["LP_Dim_IR_98"], scenario="LP_Dim")
        assert scenario_capex_delta(cfg, bench, 0.0, 0.0)["ir_filter"] == 0.0
        assert scenario_light_cost(cfg) == pytest.approx(12.05, abs=0.02)

    def test_on_off_command_and_fixture_sizing_agree(self, repo_paths, tmp_path):
        """At a 220 setpoint LP_Min_250's LEDs and its tier-3 capex use one
        nominal PPFD."""
        configs = repo_paths["configs"]
        for name in ("lp_min_250", "bench"):
            (tmp_path / f"{name}.yaml").write_text(
                f"include: {configs / (name + '.yaml')}\nsetpoints: {{ppfd: 220.0}}\n")
        cfg = load_scenario_config(tmp_path / "lp_min_250.yaml")
        bench = load_scenario_config(tmp_path / "bench.yaml")
        cmd = control_tier3(cfg.scenario, 0.0, 12.0, cfg.setpoint_ppfd,
                            cfg.min_threshold_ppfd, cfg.min_dim, cfg.photoperiod)
        led_delta = scenario_capex_delta(cfg, bench, 0.0, 0.0)["led_delta"]
        expected = ((cmd.led_ppfd - bench.setpoint_ppfd) * cfg.crop.tier_area_m2 / cfg.ppe
                    * led_cost_per_watt(cfg.costs, cfg.ppe))
        assert led_delta == pytest.approx(expected, rel=1e-12)
        assert cfg.tier3_nominal_ppfd == cmd.led_ppfd


class TestRuntimeGuards:
    def test_non_finite_aborts_with_hour(self, scenario_configs, lue_calibrated,
                                         reference_table):
        hot = flat_climate(dni=1e308, dhi=1e308)
        with pytest.raises(SimulationError, match="hour"):
            run_scenario(scenario_configs["LP_Dim"], hot, reference_table,
                         lue_calibrated)

    def test_lp_scenario_requires_table(self, scenario_configs, lue_calibrated):
        with pytest.raises(SimulationError, match="efficiency table"):
            run_scenario(scenario_configs["LP_Dim"], flat_climate(), None,
                         lue_calibrated)


class TestOptionalModes:
    def test_transient_mode_runs_close_to_quasi_steady(self, scenario_configs,
                                                       climate, lue_calibrated, solar):
        cfg = dataclasses.replace(scenario_configs["Bench"],
                                  timestep_mode="transient")
        res = run_scenario(cfg, climate, None, lue_calibrated, solar=solar)
        qs = run_scenario(scenario_configs["Bench"], climate, None, lue_calibrated,
                          solar=solar)
        assert res.kpis.electricity_mwh == pytest.approx(qs.kpis.electricity_mwh,
                                                         rel=0.25)

    def test_stagger_offsets_harvest_times(self, scenario_configs, climate,
                                           lue_calibrated, solar):
        crop = dataclasses.replace(scenario_configs["Bench"].crop, stagger_days=7.0)
        cfg = dataclasses.replace(scenario_configs["Bench"], crop=crop)
        res = run_scenario(cfg, climate, None, lue_calibrated, solar=solar)
        tiers_first = {}
        for hour, tier, _ in res.harvests:
            tiers_first.setdefault(tier, hour)
        assert len(set(tiers_first.values())) == 3

    def test_warnings_surface_ra_range(self, scenario_configs, reference_table,
                                       lue_calibrated):
        # a hairline indoor-outdoor gradient puts the pipe Rayleigh number
        # below the correlation's range; the run flags it instead of failing
        tepid = flat_climate(temperature=23.95)
        res = run_scenario(scenario_configs["LP_NL"], tepid, reference_table,
                           lue_calibrated)
        assert any("Rayleigh" in w for w in res.warnings)


class TestKpiPlumbing:
    def test_metadata_fields(self, scenario_results):
        for res in scenario_results.values():
            md = res.metadata
            assert md["version"]
            assert md["config_hash"]
            assert md["climate_hash"]
            assert md["lue_scale"] > 0.0

    def test_water_ledger_positive(self, scenario_results):
        for res in scenario_results.values():
            assert res.aggregates["net_water_l"] > 0.0
            assert res.aggregates["condensate_recovered_l"] >= 0.0
            assert res.kpis.wue_g_per_l > 500.0

    def test_dli_series_shape(self, scenario_results):
        res = scenario_results["Bench"]
        assert res.dli.shape == (365, 3)


def _hourly_pre_roll(cfg, lue, states):
    """Each tier pre-rolled by its stagger offset, one CropState step per hour
    at setpoint light: the reference `engine._staggered_states` must match."""
    photo_h = cfg.photoperiod[1] - cfg.photoperiod[0]
    out = []
    for t, s in enumerate(states):
        for _ in range(int(round(cfg.crop.stagger_days * t * photo_h))):
            s = growth_step(s, cfg.setpoint_ppfd, 3600.0, cfg.crop, lue,
                            cfg.setpoint_t, cfg.setpoint_co2)
            s, _ = harvest_if_due(s, cfg.crop)
        out.append(s)
    return out


def _hourly_crop_loop(cfg, lue, ppfd):
    """The crop stage as one hourly loop over CropState steps: the
    reference the lit-hour recurrence must reproduce bit for bit."""
    crop_p = cfg.crop
    n_tiers = ppfd.shape[1]
    states = [crop_p.transplant_state() for _ in range(n_tiers)]
    if crop_p.stagger_days > 0.0:
        states = _hourly_pre_roll(cfg, lue, states)
    f_int = np.empty_like(ppfd)
    dli = np.zeros((-(-ppfd.shape[0] // 24), n_tiers))     # a partial last day too
    harvests = []
    fm_growth_kg = 0.0
    for i in range(ppfd.shape[0]):
        for t in range(n_tiers):
            ppfd_t = ppfd.item(i, t)
            state = states[t]
            f_int[i, t] = interception(state.lai, crop_p.extinction_k)
            if ppfd_t > 0.0:
                grown = growth_step(state, ppfd_t, 3600.0, crop_p, lue,
                                    cfg.setpoint_t, cfg.setpoint_co2)
                fm_growth_kg += ((grown.fm_g_m2 - state.fm_g_m2) * crop_p.tier_area_m2
                                 / 1000.0)
                dli[i // 24, t] += ppfd_t * 3600.0
                state = grown
            states[t], got = harvest_if_due(state, crop_p)
            if got > 0.0:
                harvests.append((i, t + 1, got))
    dli /= 1e6
    harvested = float(sum(h[2] for h in harvests))
    standing = float(sum(standing_credit_kg(s, crop_p) for s in states))
    transplant_credit = standing_credit_kg(crop_p.transplant_state(), crop_p) * n_tiers
    return (f_int, dli, harvests, fm_growth_kg, sum(s.cycles for s in states),
            harvested + max(0.0, standing - transplant_credit))


class TestCropStageOracle:
    """`_crop_stage` against the hourly CropState loop over 90 summer days."""

    DAYS = slice(150 * 24, 240 * 24)

    # at 22 days tier 2's offset (352 lit hours) ends exactly on a harvest
    @pytest.mark.parametrize("name,stagger", [("Bench", 0.0), ("LP_Dim", 0.0),
                                              ("GH", 0.0), ("Bench", 7.0),
                                              ("Bench", 22.0)])
    def test_matches_hourly_loop_exactly(self, name, stagger, scenario_configs, climate,
                                         reference_table, lue_calibrated, solar):
        cfg = scenario_configs[name]
        cfg = dataclasses.replace(cfg, crop=dataclasses.replace(cfg.crop,
                                                                stagger_days=stagger))
        table = reference_table if cfg.uses_light_pipes else None
        daylight = engine._daylight_stage(cfg, climate, table, solar, [])[2]
        ppfd = engine._lighting_stage(cfg, daylight)[0][self.DAYS]
        f_int, dli, harvests, fm_growth_kg, cycles, yield_kg = _hourly_crop_loop(
            cfg, lue_calibrated, ppfd)
        got = engine._crop_stage(cfg, lue_calibrated, ppfd)
        assert all(sum(1 for h in harvests if h[1] == t) >= 2 for t in (1, 2, 3))
        assert np.array_equal(got.interception, f_int)
        assert np.array_equal(got.dli, dli)
        assert got.harvests == harvests
        assert got.fm_growth_kg == fm_growth_kg
        assert got.cycles == cycles
        assert got.yield_kg == yield_kg

    def test_stagger_offset_on_a_harvest(self, scenario_configs, lue_calibrated):
        bench = scenario_configs["Bench"]
        cfg = dataclasses.replace(bench, crop=dataclasses.replace(bench.crop,
                                                                  stagger_days=22.0))
        start = [cfg.crop.transplant_state() for _ in range(3)]
        got = engine._staggered_states(cfg, lue_calibrated, start)
        assert got == _hourly_pre_roll(cfg, lue_calibrated, start)
        assert got[1] == dataclasses.replace(cfg.crop.transplant_state(), cycles=1)


def _bench_light(cfg, case):
    """Bench's (hours, 3) canopy PPFD, reshaped as a test case names it."""
    year = engine._lighting_stage(cfg, np.zeros(HOURS_PER_YEAR))[0]
    lit = year > 0.0
    return {"year": year,
            "setpoint": year[:90 * 24],
            "short": year[:30 * 24],                  # the second cycle does not fit
            "s700": year[:700],
            "low": 0.3 * year[:30 * 24],              # never reaches a harvest
            "x180": np.where(lit, 180.0, 0.0)[:90 * 24],
            "zero": np.zeros((30 * 24, 3)),
            "two": np.where(np.arange(HOURS_PER_YEAR)[:, None] % 24 < 12, year,
                            0.5 * year)[:90 * 24]}[case]


def _with_stagger(cfg, stagger):
    return dataclasses.replace(cfg, crop=dataclasses.replace(cfg.crop, stagger_days=stagger))


class TestTiledTierYear:
    """A tier lit at one PPFD steps one cycle and tiles it: `_crop_stage`
    and `_tier_year` against the hourly CropState loops, bit for bit."""

    @pytest.mark.parametrize("case,stagger,harvests_per_tier", [
        ("setpoint", 3.3, [4, 4, 4]), ("short", 7.0, [1, 1, 2]), ("low", 0.0, [0, 0, 0]),
        ("x180", 0.0, [3, 3, 3]), ("zero", 7.0, [0, 0, 0]), ("two", 0.0, [3, 3, 3]),
        ("lp_nl", 3.3, [16, 16, 8])])
    def test_crop_stage_matches_hourly_loop(self, case, stagger, harvests_per_tier,
                                            bench_config, lue_calibrated, request):
        cfg = _with_stagger(bench_config, stagger)
        if case == "lp_nl":     # tier 3 under LP_NL's daylight: a PPFD nearly every lit hour
            ppfd = _bench_light(cfg, "year").copy()
            ppfd[:, 2] = request.getfixturevalue("scenario_results")["LP_NL"].hourly[
                "total_ppfd_t3"]
        else:
            ppfd = _bench_light(cfg, case)
        f_int, dli, harvests, fm_growth_kg, cycles, yield_kg = _hourly_crop_loop(
            cfg, lue_calibrated, ppfd)
        got = engine._crop_stage(cfg, lue_calibrated, ppfd)
        assert [sum(1 for h in harvests if h[1] == t) for t in (1, 2, 3)] == harvests_per_tier
        assert np.array_equal(got.interception, f_int)
        assert np.array_equal(got.dli, dli)
        assert got.harvests == harvests
        assert got.fm_growth_kg == fm_growth_kg
        assert got.cycles == cycles
        assert got.yield_kg == yield_kg

    @pytest.mark.parametrize("stagger", [0.0, 3.3])
    def test_a_700_hour_column(self, stagger, bench_config, lue_calibrated):
        cfg = _with_stagger(bench_config, stagger)
        ppfd = _bench_light(cfg, "s700")
        f_int, _, harvests, _, cycles, _ = _hourly_crop_loop(cfg, lue_calibrated, ppfd)
        states = [cfg.crop.transplant_state() for _ in range(3)]
        if stagger:
            states = engine._staggered_states(cfg, lue_calibrated, states)
        curve = lue_calibrated.curve(cfg.setpoint_t, cfg.setpoint_co2)
        got_f, got_harvests = np.empty_like(ppfd), []
        ends = [engine._tier_year(s, ppfd[:, t], curve, cfg.crop, t + 1, got_f[:, t],
                                  got_harvests)[0]
                for t, s in enumerate(states)]
        assert np.array_equal(got_f, f_int)
        assert sorted(got_harvests) == harvests and len(harvests) == 3
        assert sum(s.cycles for s in ends) == cycles

    # 30 days pre-roll tier 3 by 960 lit hours: two cycles and a partial one
    @pytest.mark.parametrize("stagger", [3.3, 30.0])
    def test_pre_roll_matches_hourly_steps(self, stagger, bench_config, lue_calibrated):
        cfg = _with_stagger(bench_config, stagger)
        start = [cfg.crop.transplant_state() for _ in range(3)]
        got = engine._staggered_states(cfg, lue_calibrated, start)
        assert got == _hourly_pre_roll(cfg, lue_calibrated, start)

    # from the transplant state the first cycle is the one tiled; from any
    # other state the second is
    @pytest.mark.parametrize("case,grown_before", [("setpoint", 0), ("setpoint", 100),
                                                   ("x180", 0), ("x180", 100),
                                                   ("two", 100)])
    def test_one_ppfd_is_stepped_only_through_one_cycle(self, case, grown_before,
                                                        bench_config, lue_calibrated,
                                                        monkeypatch):
        cfg = bench_config
        curve = lue_calibrated.curve(cfg.setpoint_t, cfg.setpoint_co2)
        start = engine._tier_year(cfg.crop.transplant_state(), np.full(grown_before, 250.0),
                                  curve, cfg.crop, 1, np.empty(grown_before), [])[0]
        column = _bench_light(cfg, case)[:, 0].copy()
        harvests = []
        stepped = []                            # rows of each _step_lit call: one per hour
        step_lit = engine._step_lit

        def counted(*args, **kwargs):
            rows = step_lit(*args, **kwargs)
            stepped.append(len(rows))
            return rows

        monkeypatch.setattr(engine, "_step_lit", counted)
        engine._tier_year(start, column, curve, cfg.crop, 1, np.empty(column.size), harvests)
        lit = np.flatnonzero(column > 0.0)
        if case == "two":                       # two PPFDs: stepped hour by hour
            assert sum(stepped) == lit.size
        else:
            assert len(harvests) >= 3
            last = harvests[1 if grown_before else 0][0]
            assert sum(stepped) == np.count_nonzero(lit <= last)

    def test_a_start_at_the_harvest_target_is_refused(self, bench_config, lue_calibrated):
        p = bench_config.crop
        ripe = CropState(dm_g_m2=400.0, fm_g_m2=p.target_fresh_g * p.plant_density, lai=6.0)
        curve = lue_calibrated.curve(bench_config.setpoint_t, bench_config.setpoint_co2)
        column = np.zeros(48)
        with pytest.raises(ValueError, match="harvest target"):
            engine._tier_year(ripe, column, curve, p, 1, np.empty(48), [])


def _hourly_daylight_and_control(cfg, climate, table, solar):
    """The daylight and lighting stages as per-hour loops of scalar calls:
    the reference the array stages must reproduce bit for bit."""
    alts, azis = solar
    strategy = cfg.strategy
    tier_area = cfg.crop.tier_area_m2
    q_sol, q_crop, daylight = (np.zeros(HOURS_PER_YEAR) for _ in range(3))
    ec_tau = np.full(HOURS_PER_YEAR, np.nan)
    warnings = []
    clamp_flagged = ec_flagged = False
    sun = np.flatnonzero(alts > 0.0).tolist() if strategy.daylight != "none" else []
    for i in sun:
        dni, dhi, alt = climate.dni.item(i), climate.dhi.item(i), alts.item(i)
        if strategy.daylight == "glazing":
            q_sol[i], q_crop[i], daylight[i] = gh_gains(
                dni, dhi, alt, azis.item(i), cfg.glazing.tau,
                cfg.effective_chamber().floor_area_m2, cfg.glazing.wall_glazed_m2,
                cfg.tier_occupancy, tier_area)
            continue
        gains = lp_solar_gains(table, dni, dhi, alt, cfg.lp_geometry, cfg.n_pipes)
        if gains.flags and not clamp_flagged:
            warnings.append((i, f"hour {i}: {gains.flags[0]}"))
            clamp_flagged = True
        if strategy.filter_tau is not None:
            gains = apply_uv_ir_filter(gains, strategy.filter_tau)
        elif strategy.ec_film:
            _, tau, _, unreachable = ec_control(float(lp_crop_ppfd(gains, tier_area)),
                                                cfg.ec_cap_ppfd)
            gains = apply_neutral_attenuation(gains, tau)
            ec_tau[i] = tau
            if unreachable and not ec_flagged:
                warnings.append((i, f"hour {i}: EC cap unreachable at max attenuation"))
                ec_flagged = True
        q_sol[i], q_crop[i] = gains.q_sol, gains.q_crop
        daylight[i] = lp_crop_ppfd(gains, tier_area)
    total, led, dim, p3 = (np.zeros(HOURS_PER_YEAR) for _ in range(4))
    for i in range(HOURS_PER_YEAR):
        cmd = control_tier3(cfg.scenario, daylight.item(i), float(i % 24), cfg.setpoint_ppfd,
                            cfg.min_threshold_ppfd, cfg.min_dim, cfg.photoperiod)
        total[i], led[i], dim[i] = cmd.total_ppfd, cmd.led_ppfd, cmd.dim_fraction
        if cmd.led_ppfd > 0.0:
            p3[i] = led_electric_power(cmd.led_ppfd, tier_area, cfg.ppe)
    return q_sol, q_crop, daylight, ec_tau, total, led, dim, p3, warnings


class TestDaylightAndControlOracle:
    """The array daylight and lighting stages against per-hour scalar loops
    over the whole year; the brighter sky makes the film attenuate."""

    @pytest.mark.parametrize("name,sky", [(n, 1.0) for n in STRATEGIES]
                             + [("LP_Dim_EC", 1.3)])
    def test_matches_hourly_loops_exactly(self, name, sky, scenario_configs, climate,
                                          reference_table, solar):
        cfg = scenario_configs[name]
        climate = ClimateSeries(climate.temperature, climate.dni * sky, climate.dhi * sky,
                                source="<scaled>")
        table = reference_table if cfg.uses_light_pipes else None
        (q_sol, q_crop, daylight, ec_tau, total, led, dim, p3,
         warnings) = _hourly_daylight_and_control(cfg, climate, table, solar)
        got_warnings = []
        got = engine._daylight_stage(cfg, climate, table, solar, got_warnings)
        ppfd, got_led, got_dim, _, got_p3 = engine._lighting_stage(cfg, got[2])
        assert np.array_equal(got[0], q_sol)
        assert np.array_equal(got[1], q_crop)
        assert np.array_equal(got[2], daylight)
        assert np.array_equal(got[3], ec_tau, equal_nan=True)
        assert np.array_equal(ppfd[:, 2], total)
        assert np.array_equal(got_led, led)
        assert np.array_equal(got_dim, dim)
        assert np.array_equal(got_p3, p3)
        assert got_warnings == warnings


def _hourly_convection(cfg, t_ext):
    """The quasi-steady pipe convection as a loop of scalar calls over every
    hour, and its first out-of-range Rayleigh warning: the reference the
    thermal stage must reproduce bit for bit."""
    q = np.zeros(HOURS_PER_YEAR)
    warnings = []
    lo, hi = RA_VALID_RANGE
    for i in range(HOURS_PER_YEAR):
        q[i], ra = lp_convection(cfg.setpoint_t, t_ext.item(i), cfg.lp_geometry.length_m,
                                 cfg.lp_heat_area_m2(), n_pipes=cfg.n_pipes)
        if ra > 0.0 and not warnings and not lo <= ra <= hi:
            warnings.append((i, f"hour {i}: pipe Rayleigh number {ra:.3g} outside "
                                f"correlation range {RA_VALID_RANGE}"))
    return q, warnings


class TestPipeConvectionOracle:
    """The thermal stage calls `lp_convection` only in the hours the chamber
    is warmer than outside; every other hour must read as the scalar call."""

    # outside equal to the setpoint, 1e-9 K either side of it, and well away
    STRADDLE = np.array([0.0, 1e-9, 3.0, 0.0, -1e-9, -5.0, 1e-9, -0.01, -1e-9, 12.0, 0.0])

    @pytest.mark.parametrize("name", [n for n, row in STRATEGIES.items()
                                      if row.daylight == "pipe"])
    @pytest.mark.parametrize("year", ["shipped", "straddle"])
    def test_matches_scalar_calls_every_hour(self, name, year, scenario_configs, climate):
        cfg = scenario_configs[name]
        t_ext = climate.temperature
        if year == "straddle":
            t_ext = cfg.setpoint_t + np.resize(self.STRADDLE, HOURS_PER_YEAR)
            assert (t_ext == cfg.setpoint_t).any()
        q, warnings = _hourly_convection(cfg, t_ext)
        dark, zeros = np.zeros((HOURS_PER_YEAR, 3)), np.zeros(HOURS_PER_YEAR)
        got_warnings = []
        got = engine._thermal_stage(cfg, t_ext, dark, zeros, dark, zeros, zeros, zeros,
                                    got_warnings)
        q_conv = got.hourly["q_lp_conv"]
        assert np.array_equal(q_conv, q)
        assert not np.signbit(q_conv).any()
        assert 0 < np.count_nonzero(q) < HOURS_PER_YEAR
        assert got_warnings == warnings and len(warnings) == 1


def _row_writer(path, header, rows):
    """The row-major csv.writer path that `write_csv` replaced: the
    reference its bytes must match."""
    def cell(c):
        if c is None:
            return ""
        if isinstance(c, float):
            return repr(float(c))
        return c
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([cell(c) for c in row] for row in rows)


def _row_save(res, outdir):
    """`SimulationResult.save`'s CSV files as the row writer wrote them."""
    n = HOURS_PER_YEAR
    for name, prefixes in (("hourly_power.csv", ("q_", "p_")),
                           ("hourly_lighting.csv", ("led_", "daylight", "total_ppfd",
                                                    "ec_", "dim"))):
        cols = [c for c in res.hourly if c.startswith(prefixes)]
        _row_writer(outdir / name, ["hour"] + cols,
                    ([i] + [res.hourly[c][i] for c in cols] for i in range(n)))
    _row_writer(outdir / "dli.csv", ["day"] + [f"tier{t + 1}" for t in range(res.dli.shape[1])],
                [[d + 1] + list(res.dli[d]) for d in range(res.dli.shape[0])])
    _row_writer(outdir / "harvests.csv", ["hour", "tier", "kg"], res.harvests)


SAVED = ["kpis.json", "hourly_power.csv", "hourly_lighting.csv", "dli.csv", "harvests.csv"]


class TestWriteCsvOracle:
    """The column writer against the csv.writer row path, byte for byte."""

    SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-05, 1e16, 5e-324,
               0.1, 0.1, -0.0, 2.0 / 3.0, 0.0, 1e16]

    @pytest.mark.parametrize("n", [2 * engine._BLOCK_ROWS, 2 * engine._BLOCK_ROWS + 37, 17],
                             ids=["whole_blocks", "partial_last_block", "under_one_block"])
    def test_constructed_columns(self, n, tmp_path):
        floats = np.resize(np.array(self.SPECIAL), n)
        ints = list(range(-3, n - 3))
        mixed = [None if i % 3 == 0 else (i if i % 3 == 1 else i / 7.0) for i in range(n)]
        labels = [f"s{i % 5}" for i in range(n)]
        header = ["x", "i", "m", "s", "j", "r"]
        columns = [floats, ints, mixed, labels, np.arange(n), range(1, n + 1)]
        engine.write_csv(tmp_path / "new.csv", header, columns)
        _row_writer(tmp_path / "old.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    # Blocks that pin the writer's distinct-value key: the bit pattern.
    @staticmethod
    def _shared(n):
        a = np.resize(np.array([0.1, 0.0, 2.0 / 3.0, -0.0, 1e16]), n)
        return [a, a[::-1].copy()]

    @staticmethod
    def _ulp(n):
        x = np.array([0.1, 1.0, 1e16, 5e-324])
        near = np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])
        return [np.resize(near, n), np.resize(near[::-1], n)]

    @staticmethod
    def _nans(n):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,   # quiet, then sign bit set
                         0x7FF0000000000001, 0x7FF80000DEADBEEF],  # other payloads
                        dtype=np.uint64).view(np.float64)
        assert np.isnan(nans).all() and np.signbit(nans[1])
        return [np.resize(np.concatenate([nans, [0.0, -0.0]]), n)]

    @staticmethod
    def _strided(n):
        table = np.arange(3.0 * n).reshape(n, 3) / 7.0     # save passes dli[:, t]
        table[::4, 1] = -0.0
        return [table[:, 1], table[:, 2]]

    @staticmethod
    def _one_value(n):
        return [np.full(n, 0.1), np.full(n, 0.1)]

    @pytest.mark.parametrize("make, n", [(m, engine._BLOCK_ROWS + 37) for m in
                                         ("_shared", "_ulp", "_nans", "_strided", "_one_value")]
                             + [("_shared", 0)])
    def test_distinct_value_blocks(self, make, n, tmp_path):
        floats = getattr(self, make)(n)
        header = ["hour", *(f"x{k}" for k in range(len(floats))), "label"]
        columns = [range(n), *floats, [f"s{i % 3}" for i in range(n)]]
        engine.write_csv(tmp_path / "new.csv", header, columns)
        _row_writer(tmp_path / "old.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_lp_dim_ec_files(self, scenario_results, tmp_path):
        res = scenario_results["LP_Dim_EC"]
        paths = res.save(tmp_path / "new")
        assert [p.name for p in paths] == SAVED
        (tmp_path / "old").mkdir()
        _row_save(res, tmp_path / "old")
        for p in paths[1:]:
            assert p.read_bytes() == (tmp_path / "old" / p.name).read_bytes(), p.name

    @pytest.mark.parametrize("text", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
    def test_cell_that_needs_quoting_raises(self, text, tmp_path):
        with pytest.raises(ValueError, match="quoting"):
            engine.write_csv(tmp_path / "t.csv", ["name", "v"], [["ok", text], [1.0, 2.0]])
        with pytest.raises(ValueError, match="quoting"):
            engine.write_csv(tmp_path / "t.csv", ["name", text], [["ok"], [1.0]])


class TestWriteJson:
    def test_non_finite_numbers_are_null_at_any_depth(self, tmp_path):
        doc = {"b": [1.5, math.inf, (math.nan, {"c": -math.inf})], "a": None, "d": True}
        path = engine.write_json(tmp_path / "doc.json", doc)
        assert path == tmp_path / "doc.json"
        assert path.read_text() == json.dumps(
            {"a": None, "b": [1.5, None, [None, {"c": None}]], "d": True},
            indent=2, sort_keys=True)

    def test_the_header_restates_no_field(self, scenario_configs):
        cfg = scenario_configs["LP_Dim"]
        assert engine.provenance(cfg, rays=5) == {
            "version": pipefarm.__version__, "config_hash": cfg.content_hash(),
            "scenario": "LP_Dim", "rays": 5}
        assert engine.provenance() == {"version": pipefarm.__version__}


class TestSavedRoundTrip:
    """The hourly CSVs read back with float() give the arrays bit for bit."""

    @staticmethod
    def _columns(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return {h: np.array([float(r[j]) for r in rows[1:]]) for j, h in enumerate(rows[0])}

    def test_power_header_is_the_declared_columns(self, scenario_results, tmp_path):
        scenario_results["LP_Dim"].save(tmp_path)
        with open(tmp_path / "hourly_power.csv") as fh:
            assert fh.readline() == ",".join(["hour", *POWER_COLUMNS]) + "\n"

    @pytest.mark.parametrize("name", list(STRATEGIES))
    def test_hourly_and_dli_read_back_exactly(self, name, scenario_results, tmp_path):
        res = scenario_results[name]
        res.save(tmp_path)
        power = self._columns(tmp_path / "hourly_power.csv")
        lighting = self._columns(tmp_path / "hourly_lighting.csv")
        for cols in (power, lighting):
            assert np.array_equal(cols.pop("hour"), np.arange(HOURS_PER_YEAR))
        assert sorted(power.keys() | lighting.keys()) == sorted(res.hourly)
        assert not power.keys() & lighting.keys()
        for key, col in (power | lighting).items():
            assert np.array_equal(col.view(np.int64), res.hourly[key].view(np.int64)), key
        dli = self._columns(tmp_path / "dli.csv")
        assert np.array_equal(dli.pop("day"), np.arange(1, res.dli.shape[0] + 1))
        got = np.column_stack([dli[f"tier{t + 1}"] for t in range(res.dli.shape[1])])
        assert np.array_equal(got.view(np.int64), res.dli.view(np.int64))
