import dataclasses
from pathlib import Path

import pytest
import yaml

from pipefarm import config
from pipefarm.config import CompareSet, ConfigError, PriceGrid, load_scenario_config, \
    load_set
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

    def test_shipped_files_restate_no_default(self, repo_paths):
        """Every design value lives on its dataclass field: a shipped file
        that sets a key to its default holds a second copy that nothing keeps
        in step. The input files, their column map and the scenario id are
        exempt."""
        default = config.ScenarioConfig()
        exempt = config._PATHS | {"climate_columns", "scenario"}
        restated = []
        for path in sorted(repo_paths["configs"].glob("*.yaml")):
            doc = yaml.safe_load(path.read_text()) or {}
            if "scenarios" in doc or "scenario_config" in doc:     # study files
                continue
            doc.pop("include", None)
            for key, value in doc.items():
                leaves = ({f"{key}.{k}": {key: {k: v}} for k, v in value.items()}
                          if isinstance(value, dict) else {key: {key: value}})
                restated += [f"{path.name}: {k}" for k, leaf in leaves.items()
                             if key not in exempt and k not in exempt
                             and config.resolve_config_dict(leaf) == default]
        assert restated == []

    def test_content_hash_covers_overrides(self, repo_paths):
        a = load_scenario_config(repo_paths["configs"] / "bench.yaml")
        assert dataclasses.replace(a, n_pipes=7).content_hash() != a.content_hash()
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
        with pytest.raises(ConfigError, match=r"circular include at .*/a\.yaml$"):
            load_scenario_config(tmp_path / "a.yaml")

    # in the diamond b's copy of c comes after a, so c's ppe overrides a's
    @pytest.mark.parametrize("includes,count", [("[a.yaml, b.yaml]", 9),
                                                ("[c.yaml, c.yaml]", 4)])
    def test_a_file_included_twice_is_not_circular(self, tmp_path, includes, count):
        (tmp_path / "c.yaml").write_text("scenario: Bench\nppe: 2.5\nlp: {count: 4}\n")
        (tmp_path / "a.yaml").write_text("include: c.yaml\nppe: 2.8\n")
        (tmp_path / "b.yaml").write_text("include: c.yaml\nlp: {count: 9}\n")
        (tmp_path / "top.yaml").write_text(f"include: {includes}\n")
        cfg = load_scenario_config(tmp_path / "top.yaml")
        assert (cfg.scenario, cfg.ppe, cfg.n_pipes) == ("Bench", 2.5, count)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario_config(tmp_path / "nope.yaml")

    @pytest.mark.parametrize("include, detail", [
        ("[base.yaml, nope.yaml]", "include 'nope.yaml' names no config file"),
        ("5", "'include' must be a file or list of files, not 5"),
        ("[base.yaml, 5]", "'include' must be a file or list of files"),
    ])
    def test_a_bad_include_names_the_including_file(self, tmp_path, include, detail):
        (tmp_path / "base.yaml").write_text("scenario: Bench\n")
        (tmp_path / "mid.yaml").write_text(f"include: {include}\n")
        (tmp_path / "top.yaml").write_text("include: mid.yaml\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario_config(tmp_path / "top.yaml")
        assert str(exc.value).startswith(f"{tmp_path / 'mid.yaml'}: {detail}")

    def test_included_paths_resolve_against_their_own_file(self, tmp_path):
        (tmp_path / "shared").mkdir()
        (tmp_path / "sub" / "scen").mkdir(parents=True)
        (tmp_path / "shared" / "base.yaml").write_text(
            "climate: ../data/x.csv\noptics: {table: t.csv}\n"
            "crop: {lue_table: /abs/lue.csv}\n")
        (tmp_path / "sub" / "scen" / "a.yaml").write_text(
            "include: ../../shared/base.yaml\nscenario: Bench\n")
        cfg = load_scenario_config(tmp_path / "sub" / "scen" / "a.yaml")
        assert cfg.climate_path == tmp_path.resolve() / "shared" / "../data/x.csv"
        assert cfg.lue_table_path == Path("/abs/lue.csv")
        assert cfg.table_path == tmp_path.resolve() / "shared" / "t.csv"

    def test_own_paths_resolve_against_the_file(self, tmp_path):
        (tmp_path / "base.yaml").write_text("climate: ../data/x.csv\n")
        (tmp_path / "top.yaml").write_text("include: base.yaml\noptics: {table: t.csv}\n")
        cfg = load_scenario_config(tmp_path / "top.yaml")
        assert cfg.climate_path == tmp_path.resolve() / "../data/x.csv"
        assert cfg.table_path == tmp_path.resolve() / "t.csv"


class TestStudyFiles:
    """Compare files, read by the scenario file's rules."""

    def test_grid_defaults_live_on_the_dataclasses(self, tmp_path):
        (tmp_path / "s.yaml").write_text("scenarios: [a.yaml, /b.yaml]\n")
        study = load_set(tmp_path / "s.yaml", CompareSet)
        assert study == CompareSet((tmp_path.resolve() / "a.yaml", Path("/b.yaml")))
        assert study.target_pbt_years == 10.0 and study.grid == PriceGrid()
        assert PriceGrid() == PriceGrid((100.0, 200.0, 350.0), (0.0, 50.0, 100.0))

    def test_numbers_and_partial_grid(self, tmp_path):
        (tmp_path / "s.yaml").write_text("scenarios: [a.yaml]\n"
                                         "target_pbt_years: 8\ngrid: {carbon_usd_per_t: [5]}\n")
        study = load_set(tmp_path / "s.yaml", CompareSet)
        assert study.target_pbt_years == 8.0
        assert study.grid == PriceGrid(carbon_usd_per_t=(5.0,))

    def test_each_scenario_resolves_against_the_file_that_lists_it(self, tmp_path):
        (tmp_path / "sets").mkdir()
        (tmp_path / "sets" / "all.yaml").write_text("scenarios: [x.yaml, ../y.yaml, /z.yaml]\n")
        (tmp_path / "top.yaml").write_text("include: sets/all.yaml\n")
        here = tmp_path.resolve()
        assert load_set(tmp_path / "top.yaml", CompareSet).scenarios == (
            here / "sets" / "x.yaml", here / "sets" / "../y.yaml", Path("/z.yaml"))

    @pytest.mark.parametrize("kind, body, key", [
        (CompareSet, "scenarios: [a.yaml]\nppe: 2.5\n", "ppe"),
        (CompareSet, "scenarios: [a.yaml]\nbench_config: b.yaml\n", "bench_config"),
        (CompareSet, "scenarios: [a.yaml]\ngrid: {co2: [1]}\n", "grid.co2"),
    ])
    def test_unknown_key_names_key_and_file(self, tmp_path, kind, body, key):
        path = tmp_path / "set.yaml"
        path.write_text(body)
        with pytest.raises(ConfigError) as exc:
            load_set(path, kind)
        assert str(exc.value) == f"{path}: unknown key {key!r}"


def test_config_loader_reads_the_shipped_files_as_pyyaml_does(repo_paths):
    """The loader config.py parses with (libyaml's where PyYAML has it)
    against PyYAML's pure-Python safe loader."""
    files = sorted(repo_paths["configs"].glob("*.yaml"))
    assert len(files) >= 14
    for path in files:
        text = path.read_text()
        assert yaml.load(text, Loader=config._YAML_LOADER) == yaml.safe_load(text), path.name


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
        ("optics: {cache_dir: ../.cache/optics}", "optics.cache_dir"),   # runs only read
        ("optics: {rays: 100000}", "optics.rays"),
        ("seed: 42", "seed"),                             # trace-optics --seed
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
        ("climate_columns: {temprature: temperature}", "climate_columns.temprature"),
        ("scenarios: [bench.yaml]", "scenarios"),      # compare and sweep keys
        ("scenario_config: lp_dim.yaml", "scenario_config"),
        ("bench_config: bench.yaml", "bench_config"),
        ("target_pbt_years: 8", "target_pbt_years"),
        ("grid: {carbon_usd_per_t: [0]}", "grid"),
    ])
    def test_unknown_key_rejected(self, tmp_path, body, key):
        path = tmp_path / "typo.yaml"
        path.write_text(f"scenario: Bench\n{body}\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario_config(path)
        assert f"unknown key {key!r}" in str(exc.value)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("value, key", [
        ("5", "climate_columns"), ("[time, dni]", "climate_columns"),
        ("{dni: 5}", "climate_columns.dni"), ("{dhi: ''}", "climate_columns.dhi"),
    ])
    def test_malformed_climate_columns(self, tmp_path, value, key):
        path = tmp_path / "bad.yaml"
        path.write_text(f"scenario: Bench\nclimate_columns: {value}\n")
        with pytest.raises(ConfigError) as exc:
            load_scenario_config(path)
        assert repr(key) in str(exc.value) and str(path) in str(exc.value)

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
        ("lp: {count: 0.5}", "lp.count"),
        ("lp: {count: .inf}", "lp.count"),                # an integer key's infinity
        ("crop: {lai_cap: .nan}", "crop.lai_cap"),         # non-finite numbers
        ("hvac: {t_evap_c: .inf}", "hvac.t_evap_c"),
        ("hvac: {cop_max: .inf}", "hvac.cop_max"),
        ("costs: {electricity_usd_per_mwh: .nan}", "costs.electricity_usd_per_mwh"),
        ("lp: {length_mm: .inf}", "lp.length_mm"),
        ("ppe: -.inf", "ppe"),
        ("chamber: {surfaces: [{name: roof, area_m2: 49.0, u_value: .inf}]}",
         "chamber.surfaces[0].u_value"),
        ("ppe: true", "ppe"),                             # boolean number
        ("lp: {count: false}", "lp.count"),
        ("setpoints: {temperature: [24]}", "setpoints.temperature"),
        ("lp: {count: '700'}", "lp.count"),               # a quoted number
        ("ppe: '3.0'", "ppe"),
        ("photoperiod: ['4', 20]", "photoperiod[0]"),
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
        ("photoperiod: [4]", "photoperiod"),
        ("photoperiod: [-1, 20]", "photoperiod[0]"),      # an hour out of range
        ("photoperiod: [24, 24]", "photoperiod[0]"),
        ("photoperiod: [4, -1]", "photoperiod[1]"),
        ("photoperiod: [20, 4]", "photoperiod[1]"),
        ("photoperiod: [4, 25]", "photoperiod[1]"),
        ("chamber: {surfaces: [{name: roof, area_m2: 49.0}]}", "chamber.surfaces[0]"),
        ("chamber: {surfaces: [{name: roof, area_m2: 49.0, u_value: 0.2, u: 1}]}",
         "chamber.surfaces[0]"),
        ("chamber: {surfaces: [{name: walls, area_m2: 9, u_value: 1}, roof]}",
         "chamber.surfaces[1]"),
        ("chamber: {surfaces: [{name: roof, area_m2: big, u_value: 0.2}]}",
         "chamber.surfaces[0].area_m2"),
        ("chamber: {surfaces: [{name: .nan, area_m2: 49.0, u_value: 0.2}]}",
         "chamber.surfaces[0].name"),                 # a name is a non-empty string
        ("chamber: {surfaces: [{name: '', area_m2: 49.0, u_value: 0.2}]}",
         "chamber.surfaces[0].name"),
        ("chamber: {surfaces: [{name: Roof, area_m2: 49.0, u_value: 0.2}]}",
         "chamber.surfaces[0].name"),                 # a surface the model knows
        ("chamber: {surfaces: [{name: roof, area_m2: 49.0, u_value: 0.2}, "
         "{name: ceiling, area_m2: 49.0, u_value: 0.2}]}", "chamber.surfaces[1].name"),
        ("climate: 1.0", "climate"),                      # a path is a string
        ("optics: {table: true}", "optics.table"),
        ("crop: {lue_table: {a: 1}}", "crop.lue_table"),
        ("lp: {heat_area: 5}", "lp.heat_area"),
        ("lp: {heat_area: top}", "lp.heat_area"),
        # a section object's own check, under the key that set the field
        ("chamber: {surfaces: [{name: roof, area_m2: 49.0, u_value: -1}]}",
         "chamber.surfaces[0].u_value"),
        ("chamber: {surfaces: [{name: roof, area_m2: 0, u_value: 0.2}]}",
         "chamber.surfaces[0].area_m2"),
        ("crop: {lai_cap: -1}", "crop.lai_cap"),
        ("crop: {target_fresh_g: 1.0}", "crop.target_fresh_g"),
        ("crop: {transplant_dm_g_m2: 1000}", "crop.target_fresh_g"),
        ("crop: {stagger_days: 1.0e+30}", "crop.stagger_days"),   # more than a year
        ("crop: {stagger_days: 365.5}", "crop.stagger_days"),
        ("crop: {stagger_days: -1}", "crop.stagger_days"),
        # a tier larger than the floor: the LUE fit failed at exit 5, naming no key
        ("crop: {tier_area_m2: 1.0e+30}", "crop.tier_area_m2"),
        ("chamber: {floor_area_m2: 29.5}", "crop.tier_area_m2"),
        ("site: {latitude: 95}", "site.latitude"),
        ("surrogates: {crop_latent_fraction: 2}", "surrogates.crop_latent_fraction"),
        ("chamber: {height_m: 0}", "chamber.height_m"),
        ("chamber: {floor_area_m2: -1}", "chamber.floor_area_m2"),
        ("latent: {condensate_recovery: 2}", "latent.condensate_recovery"),
        ("lp: {diffuser_apex_angle_deg: 180}", "lp.diffuser_apex_angle_deg"),
        ("lp: {diffuser_refractive_index: 1.0}", "lp.diffuser_refractive_index"),
        ("site: {utc_offset: 13}", "site.utc_offset"),
        ("hvac: {eta_second_law: 0}", "hvac.eta_second_law"),
        ("hvac: {approach_k: 0}", "hvac.approach_k"),
        ("hvac: {heat_approach_k: -1}", "hvac.heat_approach_k"),
        ("hvac: {heat_supply_c: -300}", "hvac.heat_supply_c"),
        ("hvac: {cop_max: 0.5}", "hvac.cop_max"),
        ("gh: {tau: 0}", "gh.tau"),
        ("gh: {u_value: 0}", "gh.u_value"),
        ("gh: {wall_glazed_m2: -1}", "gh.wall_glazed_m2"),
        ("setpoints: {ppfd: -1}", "setpoints.ppfd"),
        ("setpoints: {ppfd: 0}", "setpoints.ppfd"),
        ("setpoints: {co2: -5}", "setpoints.co2"),
        ("min_threshold_ppfd: -1", "min_threshold_ppfd"),
        ("lp: {count: -1}", "lp.count"),
        # one entry per surface: GH's walls given as two would glaze them twice
        ("chamber: {surfaces: [{name: walls, area_m2: 42, u_value: 0.175}, "
         "{name: walls, area_m2: 42, u_value: 0.175}]}", "chamber.surfaces[1]"),
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
        path.write_text("scenario: Bench\nlp: {count: 700.0}\nppe: 3\n")
        cfg = load_scenario_config(path)
        assert (cfg.n_pipes, cfg.ppe) == (700, 3.0)
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
    "lp.target_zone_m", "lp.wall_reflectance", "min_threshold_ppfd", "optics.table",
    "photoperiod", "ppe", "scenario",
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
    assert len(SETTABLE_KEYS) == 68
