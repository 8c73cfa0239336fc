import dataclasses

import pytest
import yaml

from pipefarm import config
from pipefarm.config import ConfigError, load_scenario_config
from pipefarm.lighting import STRATEGIES


class TestShippedConfigs:
    def test_bench_defaults(self, repo_paths):
        cfg = load_scenario_config(repo_paths["configs"] / "bench.yaml")
        assert cfg.scenario == "Bench"
        assert cfg.ppe == 2.5
        assert cfg.n_pipes == 750
        assert cfg.site.latitude == 25.0
        assert cfg.site.reference_longitude == 60.0
        assert cfg.setpoint_ppfd == 250.0
        assert cfg.photoperiod == (4.0, 20.0)
        assert cfg.climate_path.exists()
        assert cfg.lue_table_path.exists()
        assert cfg.table_path.exists()

    def test_every_scenario_file_loads(self, repo_paths):
        for name in ("bench", "lp_nl", "lp_min_200", "lp_min_250", "lp_dim",
                     "lp_dim_ir_98", "lp_dim_ir_90", "lp_dim_ec", "gh",
                     "bench_ppe20", "bench_ppe30"):
            cfg = load_scenario_config(repo_paths["configs"] / f"{name}.yaml")
            assert cfg.chamber.floor_area_m2 == 49.0

    def test_strategy_table_matches_configs(self, repo_paths):
        """Each table row ships as configs/<id lowercased>.yaml, and the
        comparison set lists exactly the table's rows."""
        configs = repo_paths["configs"]
        for sid in STRATEGIES:
            assert load_scenario_config(configs / f"{sid.lower()}.yaml").scenario == sid
        listed = yaml.safe_load((configs / "compare_all.yaml").read_text())["scenarios"]
        ids = [load_scenario_config(configs / p).scenario for p in listed]
        assert sorted(ids) == sorted(STRATEGIES)
        assert len(STRATEGIES) == 9

    def test_ir_scenarios_carry_their_transmittance(self, repo_paths):
        cfg98 = load_scenario_config(repo_paths["configs"] / "lp_dim_ir_98.yaml")
        cfg90 = load_scenario_config(repo_paths["configs"] / "lp_dim_ir_90.yaml")
        assert cfg98.strategy.filter_tau == 0.98
        assert cfg90.strategy.filter_tau == 0.90

    def test_gh_envelope_swaps_glazing(self, repo_paths):
        cfg = load_scenario_config(repo_paths["configs"] / "gh.yaml")
        chamber = cfg.effective_chamber()
        names = {s.name: s for s in chamber.surfaces}
        assert names["roof_glazing"].u_value == 3.75
        assert names["wall_glazing"].area_m2 == 18.0
        assert names["walls"].area_m2 == pytest.approx(66.0)

    def test_bench_envelope_untouched(self, repo_paths):
        cfg = load_scenario_config(repo_paths["configs"] / "bench.yaml")
        assert cfg.effective_chamber() == cfg.chamber

    def test_content_hash_stable_and_distinct(self, repo_paths):
        a = load_scenario_config(repo_paths["configs"] / "bench.yaml")
        b = load_scenario_config(repo_paths["configs"] / "bench.yaml")
        c = load_scenario_config(repo_paths["configs"] / "lp_dim.yaml")
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_content_hash_covers_overrides(self, repo_paths):
        a = load_scenario_config(repo_paths["configs"] / "bench.yaml")
        assert dataclasses.replace(a, seed=7).content_hash() != a.content_hash()
        assert dataclasses.replace(a, scenario="LP_NL").content_hash() != a.content_hash()


class TestIncludeMechanism:
    def test_override_wins(self, tmp_path):
        (tmp_path / "base.yaml").write_text("ppe: 2.5\nscenario: Bench\n")
        (tmp_path / "top.yaml").write_text("include: base.yaml\nppe: 3.0\n")
        cfg = load_scenario_config(tmp_path / "top.yaml")
        assert cfg.ppe == 3.0
        assert cfg.scenario == "Bench"

    def test_nested_sections_merge(self, tmp_path):
        (tmp_path / "base.yaml").write_text(
            "site: {latitude: 25.0, longitude: 55.0, utc_offset: 4.0}\n")
        (tmp_path / "top.yaml").write_text(
            "include: base.yaml\nsite: {latitude: 30.0}\n")
        cfg = load_scenario_config(tmp_path / "top.yaml")
        assert cfg.site.latitude == 30.0
        assert cfg.site.longitude == 55.0

    def test_circular_include_rejected(self, tmp_path):
        (tmp_path / "a.yaml").write_text("include: b.yaml\n")
        (tmp_path / "b.yaml").write_text("include: a.yaml\n")
        with pytest.raises(ConfigError, match="circular"):
            load_scenario_config(tmp_path / "a.yaml")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario_config(tmp_path / "nope.yaml")


class TestValidation:
    def test_unknown_scenario(self, tmp_path):
        (tmp_path / "bad.yaml").write_text("scenario: LP_Warp\n")
        with pytest.raises(ConfigError, match="unknown scenario"):
            load_scenario_config(tmp_path / "bad.yaml")

    def test_bad_photoperiod(self, tmp_path):
        (tmp_path / "bad.yaml").write_text("scenario: Bench\nphotoperiod: [20, 4]\n")
        with pytest.raises(ConfigError, match="photoperiod"):
            load_scenario_config(tmp_path / "bad.yaml")

    def test_invalid_yaml(self, tmp_path):
        (tmp_path / "bad.yaml").write_text("scenario: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_scenario_config(tmp_path / "bad.yaml")

    def test_non_mapping_top_level(self, tmp_path):
        (tmp_path / "bad.yaml").write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_scenario_config(tmp_path / "bad.yaml")

    def test_ir_auto_tau_from_name(self, tmp_path):
        (tmp_path / "ir.yaml").write_text("scenario: LP_Dim_IR_90\n")
        cfg = load_scenario_config(tmp_path / "ir.yaml")
        assert cfg.strategy.filter_tau == 0.90

    def test_surrogate_fraction_bounds(self, tmp_path):
        (tmp_path / "bad.yaml").write_text(
            "scenario: Bench\nsurrogates: {crop_storage_fraction: 0.9, "
            "crop_latent_fraction: 0.5}\n")
        with pytest.raises(ConfigError, match="exceed"):
            load_scenario_config(tmp_path / "bad.yaml")

    @pytest.mark.parametrize("body, key", [
        ("bogus: 1", "bogus"),                            # top level
        ("lp: {diamter_mm: 100}", "lp.diamter_mm"),       # object section
        ("setpoints: {rh_light: 0.6}", "setpoints.rh_light"),   # renamed-only section
        ("n_pipes: 5", "n_pipes"),                        # field name, not YAML key
        ("lp: {diffuser_pitch_mm: 2.0}", "lp.diffuser_pitch_mm"),         # removed keys
        ("lp: {mirror_hinge_height_m: 0.0}", "lp.mirror_hinge_height_m"),
        ("optics: {bounce_cap: 50}", "optics.bounce_cap"),
        ("crop: {calibration: x.json}", "crop.calibration"),
        ("ec: {v_max: 100.0}", "ec.v_max"),               # now module constants
        ("hvac: {cop_min: 1.5}", "hvac.cop_min"),
        ("chamber: {air_density: 1.204}", "chamber.air_density"),
        ("chamber: {air_cp: 1006.0}", "chamber.air_cp"),
        ("latent: {latent_heat: 2.45e+6}", "latent.latent_heat"),
        ("transient_substeps: 60", "transient_substeps"),
        ("transient_deadband_k: 0.5", "transient_deadband_k"),
        ("driver: {nominal: 0.95}", "driver.nominal"),    # every fixture draws its rating
        ("driver: {points: [[0.3, 0.9], [1.0, 0.95]]}", "driver.points"),
    ])
    def test_unknown_key_rejected(self, tmp_path, body, key):
        path = tmp_path / "typo.yaml"
        path.write_text(f"scenario: Bench\n{body}\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario_config(path)
        assert f"unknown key {key!r}" in str(exc.value)
        assert str(path) in str(exc.value)

    def test_heat_area_switch(self, tmp_path):
        (tmp_path / "ok.yaml").write_text("scenario: Bench\nlp: {heat_area: lateral}\n")
        cfg = load_scenario_config(tmp_path / "ok.yaml")
        assert cfg.lp_heat_area_m2() == pytest.approx(cfg.lp_geometry.lateral_area_m2)
        (tmp_path / "bad.yaml").write_text("scenario: Bench\nlp: {heat_area: top}\n")
        with pytest.raises(ConfigError, match="heat_area"):
            load_scenario_config(tmp_path / "bad.yaml")

    @pytest.mark.parametrize("key, value", [
        ("transient_capacity_w", -5.0),
        ("transient_capacity_w", 0.0),
    ])
    def test_transient_keys_checked(self, tmp_path, key, value):
        path = tmp_path / "bad.yaml"
        path.write_text(f"scenario: Bench\ntimestep_mode: transient\n{key}: {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_scenario_config(path)

    @pytest.mark.parametrize("body, key", [
        ("lp: {count: 750.9}", "lp.count"),               # fractional int
        ("seed: 1.9", "seed"),
        ("optics: {rays: .inf}", "optics.rays"),
        ("ppe: true", "ppe"),                             # boolean number
        ("lp: {count: false}", "lp.count"),
        ("setpoints: {temperature: [24]}", "setpoints.temperature"),
    ])
    def test_numbers_are_not_coerced(self, tmp_path, body, key):
        path = tmp_path / "bad.yaml"
        path.write_text(f"scenario: Bench\n{body}\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario_config(path)
        assert repr(key) in str(exc.value) and str(path) in str(exc.value)

    @pytest.mark.parametrize("body, key", [
        ("ec: {cap_ppfd: 0}", "ec.cap_ppfd"),
        ("ec: {cap_ppfd: -5}", "ec.cap_ppfd"),
        ("ec: {cap_ppfd: .inf}", "ec.cap_ppfd"),
        ("driver: {min_dim: 0}", "driver.min_dim"),
        ("driver: {min_dim: 1.0}", "driver.min_dim"),
        ("photoperiod: [4, x]", "photoperiod[1]"),
        ("photoperiod: [true, 20]", "photoperiod[0]"),
        ("photoperiod: 4", "photoperiod"),
        ("chamber: {surfaces: [{name: roof, area_m2: 49.0}]}", "chamber.surfaces[0]"),
        ("chamber: {surfaces: [{name: roof, area_m2: 49.0, u_value: 0.2, u: 1}]}",
         "chamber.surfaces[0]"),
        ("chamber: {surfaces: [{name: a, area_m2: 9, u_value: 1}, roof]}",
         "chamber.surfaces[1]"),
        ("chamber: {surfaces: [{name: roof, area_m2: big, u_value: 0.2}]}",
         "chamber.surfaces[0].area_m2"),
    ])
    def test_invalid_value_names_the_key(self, tmp_path, body, key):
        path = tmp_path / "bad.yaml"
        path.write_text(f"scenario: LP_Dim_EC\n{body}\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario_config(path)
        assert repr(key) in str(exc.value) and str(path) in str(exc.value)

    def test_min_dim_reaches_the_config(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text("scenario: LP_Dim\ndriver: {min_dim: 0.25}\n")
        assert load_scenario_config(path).min_dim == 0.25

    def test_integral_and_int_values_still_load(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text("scenario: Bench\nlp: {count: 700.0}\nseed: 7\nppe: 3\n")
        cfg = load_scenario_config(path)
        assert (cfg.n_pipes, cfg.seed, cfg.ppe) == (700, 7, 3.0)
        assert type(cfg.n_pipes) is int and type(cfg.ppe) is float


# every key a scenario file may set, as the loader resolves it: a key added
# or removed shows up in this list's diff
SETTABLE_KEYS = [
    "chamber.floor_area_m2", "chamber.height_m", "chamber.surfaces", "climate",
    "climate_columns", "costs.carbon_usd_per_t", "costs.ec_film_usd",
    "costs.electricity_usd_per_mwh", "costs.grid_t_co2_per_mwh", "costs.hvac_usd_per_w",
    "costs.ir_filter_usd", "costs.led_usd_per_ft2", "costs.lettuce_usd_per_kg",
    "costs.lp_aux_usd", "costs.lp_unit_usd", "costs.reference_ppfd", "crop.dm_fraction",
    "crop.extinction_k", "crop.lai_cap", "crop.lue_table", "crop.plant_density",
    "crop.sla_m2_per_g_dm", "crop.stagger_days", "crop.target_fresh_g", "crop.tier_area_m2",
    "crop.transplant_dm_g_m2", "driver.min_dim", "ec.cap_ppfd", "gh.glazing_usd_per_m2",
    "gh.tau", "gh.u_value", "gh.wall_glazed_m2",
    "hour_center_offset", "hvac.approach_k", "hvac.cop_max", "hvac.eta_second_law",
    "hvac.heat_approach_k", "hvac.heat_supply_c", "hvac.t_evap_c",
    "latent.condensate_recovery", "lp.canopy_distance_m", "lp.count", "lp.diameter_mm",
    "lp.diffuser_apex_angle_deg", "lp.diffuser_refractive_index", "lp.diffuser_throughput",
    "lp.dome_transmittance", "lp.heat_area", "lp.length_mm", "lp.mirror_reflectance",
    "lp.target_zone_m", "lp.wall_reflectance", "min_threshold_ppfd", "optics.cache_dir",
    "optics.rays", "optics.table", "photoperiod", "ppe", "scenario", "seed",
    "setpoints.co2", "setpoints.ppfd", "setpoints.temperature", "site.latitude",
    "site.longitude", "site.utc_offset", "surrogates.crop_latent_fraction",
    "surrogates.crop_storage_fraction", "surrogates.fm_water_l_per_kg", "timestep_mode",
    "transient_capacity_w",
]


def test_settable_keys_are_frozen():
    default = config.ScenarioConfig()
    keys = set(config._RENAMED) | config._TOP_LEVEL
    for section, name in config._SECTIONS.items():
        keys |= {f"{section}.{f.name}" for f in dataclasses.fields(getattr(default, name))}
    assert sorted(keys) == SETTABLE_KEYS
    assert len(SETTABLE_KEYS) == 71
