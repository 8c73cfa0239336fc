import csv
import dataclasses
import json
import shutil
import sys

import pytest

import pipefarm.climate
import pipefarm.engine
from pipefarm.cli import main
from pipefarm.config import CompareSet, load_scenario_config, load_set
from pipefarm.economics import KpiReport
from pipefarm.engine import calibrate_lue_scale, load_lue_table
from pipefarm.tracer import DEFAULT_SEED, MODEL_REVISION

# CLI runs get their own config tree so every output stays inside tmp
pytestmark = pytest.mark.usefixtures("repo_paths")


@pytest.fixture()
def work_tree(tmp_path, repo_paths):
    """Copy configs and data into a scratch tree."""
    (tmp_path / "configs").mkdir()
    (tmp_path / "data").mkdir()
    for f in (repo_paths["configs"]).glob("*.yaml"):
        shutil.copy(f, tmp_path / "configs" / f.name)
    for name in ("dubai_hourly_synthetic.csv", "lue_lettuce_default.csv",
                 "lp_efficiency_reference.csv"):
        shutil.copy(repo_paths["data"] / name, tmp_path / "data" / name)
    return tmp_path


def _count_calls(monkeypatch, module, name) -> list:
    """Count calls of `module.name` through every pipefarm module that binds it."""
    fn, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("pipefarm") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _fitted_scale(work_tree) -> float:
    """The LUE scale fitted in process on the tree's Bench config."""
    bench = load_scenario_config(work_tree / "configs" / "bench.yaml")
    return calibrate_lue_scale(bench, pipefarm.climate.load_climate(
        bench.climate_path, bench.climate_columns), None, load_lue_table(bench))["lue_scale"]


class TestDispatch:
    def test_no_arguments_usage(self, capsys):
        rc = main([])
        assert rc == 2
        err = capsys.readouterr().err
        assert "usage" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: LP_Warp\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"

    def test_stagger_beyond_a_year_exits_3_naming_the_key(self, tmp_path, capsys):
        # numpy's "Maximum allowed dimension exceeded" named no key
        bad = tmp_path / "bad.yaml"
        bad.write_text("scenario: Bench\ncrop: {stagger_days: 1.0e+30}\n")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "'crop.stagger_days'" in json.loads(capsys.readouterr().err)["detail"]

    @pytest.mark.parametrize("body, code, key", [
        ("crop: {tier_area_m2: 1.0e+30}", 3, "'crop.tier_area_m2'"),   # exit 5 from the LUE fit
        ("climate_columns: {dni: fuzz}", 4, "'climate_columns.dni'"),  # named only the header
    ], ids=["tier_area", "climate_column"])
    def test_refusal_names_the_key(self, work_tree, capsys, body, code, key):
        path = work_tree / "configs" / "bad.yaml"
        path.write_text(f"include: lp_dim.yaml\n{body}\n")
        rc = main(["simulate", "--config", str(path), "--out", str(work_tree / "o")])
        assert rc == code
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert detail.startswith(f"{path}: ") and key in detail

    def test_missing_config_exit_code(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "none.yaml"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "not found" in json.loads(capsys.readouterr().err)["detail"]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("cap", [0, -5])
    def test_bad_film_cap_is_refused_before_any_output(self, work_tree, capsys, command,
                                                       cap):
        configs = work_tree / "configs"
        bad = configs / "lp_dim_ec_cap.yaml"
        bad.write_text(f"include: lp_dim_ec.yaml\nec: {{cap_ppfd: {cap}}}\n")
        path = bad
        if command == "compare":
            path = configs / "cap_compare.yaml"
            path.write_text(f"scenarios:\n  - bench.yaml\n  - {bad.name}\n")
        out = work_tree / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert "'ec.cap_ppfd'" in detail and str(bad) in detail
        assert not out.exists()

    @pytest.mark.parametrize("name, drop, config, point", [
        ("lp_efficiency_reference.csv", "diffuse,20.0,60.0,", "lp_dim.yaml",
         "no diffuse cell at tilt 60, band 20"),
        ("lue_lettuce_default.csv", "24.0,1400.0,250.0,", "bench.yaml",
         "no point (temperature 24, co2 1400, ppfd 250)"),
    ], ids=["optics", "lue"])
    def test_incomplete_table_exit_code(self, work_tree, capsys, name, drop, config, point):
        path = work_tree / "data" / name
        rows = path.read_text().splitlines(keepends=True)
        path.write_text("".join(r for r in rows if not r.startswith(drop)))
        rc = main(["simulate", "--config", str(work_tree / "configs" / config),
                   "--out", str(work_tree / "o")])
        assert rc == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert point in detail and name in detail

    @pytest.mark.parametrize("body, points", [
        ("optics: {cache_dir: ../.cache/optics}", ("untabled.yaml", "'optics.cache_dir'")),
        ("optics: {rays: 100000}", ("untabled.yaml", "'optics.rays'")),
        ("optics: {table: ''}", ("'optics.table' is not set", "trace-optics")),
    ])
    def test_the_run_only_reads_tables(self, work_tree, capsys, body, points):
        """No key makes a run trace: a piped run without a table is refused."""
        path = work_tree / "configs" / "untabled.yaml"
        path.write_text(f"include: lp_dim.yaml\n{body}\n")
        rc = main(["simulate", "--config", str(path), "--out", str(work_tree / "o")])
        assert rc == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert all(p in detail for p in points)
        assert not (work_tree / "o").exists()

    def test_missing_climate_exit_code(self, work_tree, capsys):
        (work_tree / "data" / "dubai_hourly_synthetic.csv").unlink()
        rc = main(["simulate", "--config", str(work_tree / "configs" / "bench.yaml"),
                   "--out", str(work_tree / "o")])
        assert rc == 4


class TestSunpath:
    def test_table_contains_declination_extremes(self, work_tree, capsys):
        out = work_tree / "sp"
        rc = main(["sunpath", "--config", str(work_tree / "configs" / "bench.yaml"),
                   "--out", str(out)])
        assert rc == 0
        with open(out / "sunpath.csv") as fh:
            decls = [float(r["declination"]) for r in csv.DictReader(fh)]
        assert max(decls) == pytest.approx(23.45, abs=0.5)
        assert min(decls) == pytest.approx(-23.45, abs=0.5)
        meta = json.loads((out / "sunpath_meta.json").read_text())
        assert meta["latitude"] == 25.0


class TestSimulate:
    def test_simulate_bench(self, work_tree, capsys):
        out = work_tree / "sim"
        rc = main(["simulate", "--config", str(work_tree / "configs" / "bench.yaml"),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "kpis.json").read_text())
        # each annual number once, under its `KpiReport` name
        assert sorted(doc) == ["kpis", "metadata", "warnings"]
        assert sorted(doc["kpis"]) == sorted(f.name for f in dataclasses.fields(KpiReport))
        assert "calibrated" not in doc["metadata"]
        assert doc["metadata"]["lue_scale"] == _fitted_scale(work_tree)
        assert doc["metadata"]["config_hash"]
        assert doc["metadata"]["version"]
        # design-range sanity for the LED-only benchmark at PPE 2.5
        assert 5.0 < doc["kpis"]["seec_kwh_per_kg"] < 10.0
        assert (out / "hourly_power.csv").exists()
        assert (out / "dli.csv").exists()

    def test_simulate_rerun_is_byte_identical(self, work_tree):
        cfg = str(work_tree / "configs" / "lp_dim.yaml")
        out1, out2 = work_tree / "r1", work_tree / "r2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("kpis.json", "hourly_power.csv", "hourly_lighting.csv",
                     "dli.csv", "harvests.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_scenario_override_flag(self, work_tree):
        out = work_tree / "ovr"
        rc = main(["simulate", "--config", str(work_tree / "configs" / "bench.yaml"),
                   "--scenario", "LP_NL", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "kpis.json").read_text())
        assert doc["metadata"]["scenario"] == "LP_NL"
        assert doc["kpis"]["harvested_daylight_mwh"] > 0.0


CAP600 = "ec: {cap_ppfd: 600}\n"


class TestCompareCli:
    def test_two_scenario_comparison(self, work_tree):
        cmp_cfg = work_tree / "configs" / "mini_compare.yaml"
        cmp_cfg.write_text("scenarios:\n  - bench.yaml\n  - lp_dim.yaml\n")
        out = work_tree / "cmp"
        rc = main(["compare", "--config", str(cmp_cfg), "--out", str(out)])
        assert rc == 0
        with open(out / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scenario"] for r in rows] == ["Bench", "LP_Dim"]
        assert float(rows[1]["harvested_daylight_mwh"]) > 0.0
        lc = {r["system"]: r for r in csv.DictReader(open(out / "light_cost.csv"))}
        assert float(lc["Optical Fiber"]["light_cost"]) == pytest.approx(19.53, abs=0.02)
        meta = json.loads((out / "comparison.json").read_text())["metadata"]
        assert len(meta["config_hashes"]) == 2 and meta["climate_hash"]
        assert meta["lue_scale"] == _fitted_scale(work_tree)

    @pytest.mark.parametrize("bench_ec,ec", [("", ""), (CAP600, CAP600), ("", CAP600)],
                             ids=["shipped", "cap600", "cap600_in_lp_dim_ec_only"])
    def test_light_cost_csv_follows_the_config(self, work_tree, bench_ec, ec):
        configs = work_tree / "configs"
        for name, extra in (("bench", bench_ec), ("lp_dim_ec", ec)):
            (configs / f"{name}_x.yaml").write_text(f"include: {name}.yaml\n{extra}")
        cmp_cfg = configs / "ec_compare.yaml"
        cmp_cfg.write_text("scenarios:\n  - bench_x.yaml\n  - lp_dim_ec_x.yaml\n")
        out = work_tree / "cmp"
        assert main(["compare", "--config", str(cmp_cfg), "--out", str(out)]) == 0
        with open(out / "comparison.csv") as fh:
            cmp_row = list(csv.DictReader(fh))[1]
        with open(out / "light_cost.csv") as fh:
            lc_row = next(r for r in csv.DictReader(fh) if r["system"] == "LP_Dim_EC")
        assert lc_row["light_cost"] == cmp_row["light_cost_usd_per_umol_s"]
        expected = 24.999999999999993 if not ec else 21.61
        assert float(lc_row["light_cost"]) == pytest.approx(expected, abs=0.005)

    def test_comparison_json_holds_the_fit(self, work_tree, monkeypatch):
        """The study's own fit, once: what calibration.json held. A study of
        Bench alone sweeps nothing."""
        fits = _count_calls(monkeypatch, pipefarm.engine, "calibrate_lue_scale")
        cmp_cfg = work_tree / "configs" / "bench_only.yaml"
        cmp_cfg.write_text("scenarios: [bench.yaml]\n")
        out = work_tree / "cmp"
        assert main(["compare", "--config", str(cmp_cfg), "--out", str(out)]) == 0
        assert len(fits) == 1
        meta = json.loads((out / "comparison.json").read_text())["metadata"]
        assert meta["achieved_yield_kg"] == pytest.approx(9221.0, rel=0.02)
        assert meta["target_yield_kg"] == 9221.0
        assert meta["lue_scale"] == _fitted_scale(work_tree)
        bench = load_scenario_config(work_tree / "configs" / "bench.yaml")
        assert meta["lue_table"] == str(bench.lue_table_path) and meta["climate_hash"]
        doc = json.loads((out / "breakeven.json").read_text())
        assert doc == {"breakeven": [], "metadata": meta}
        assert (out / "pbt_grid.csv").read_text() == "\n"

    def test_nine_scenarios_load_the_climate_and_sun_once(self, work_tree, monkeypatch):
        loads = _count_calls(monkeypatch, pipefarm.climate, "load_climate")
        suns = _count_calls(monkeypatch, pipefarm.engine, "solar_angles")
        rc = main(["compare", "--config", str(work_tree / "configs" / "compare_all.yaml"),
                   "--out", str(work_tree / "cmp")])
        assert rc == 0
        assert (len(loads), len(suns)) == (1, 1)


class TestCompareSweep:
    """Compare's payback grid and break-even record of each non-Bench scenario."""

    def test_grid_and_breakeven(self, work_tree):
        cfg = work_tree / "configs" / "sweep_lp_dim_ir.yaml"
        out = work_tree / "sweep"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        grid = load_set(cfg, CompareSet).grid
        with open(out / "pbt_grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(grid.electricity_usd_per_mwh) * len(grid.carbon_usd_per_t)
        assert {r["scenario"] for r in rows} == {"LP_Dim_IR_98"}
        doc = json.loads((out / "breakeven.json").read_text())
        assert set(doc) == {"breakeven", "metadata"}
        (record,) = doc["breakeven"]
        assert set(record) == {"scenario", "delta_capex_usd", "delta_electricity_mwh",
                               "delta_yield_kg", "target_pbt_years", "per_pipe_hardware_usd",
                               "break_even_per_pipe_usd"}
        assert len(record["break_even_per_pipe_usd"]) == len(rows)
        assert record["delta_capex_usd"]["total"] > 0.0
        meta = doc["metadata"]
        assert meta == json.loads((out / "comparison.json").read_text())["metadata"]
        bench = load_scenario_config(work_tree / "configs" / "bench.yaml")
        assert meta["config_hashes"] == [bench.content_hash(), load_scenario_config(
            work_tree / "configs" / "lp_dim_ir_98.yaml").content_hash()]
        assert meta["climate_hash"] == pipefarm.climate.load_climate(
            bench.climate_path, bench.climate_columns).content_hash()
        assert meta["lue_scale"] == _fitted_scale(work_tree)

    def test_one_block_and_record_per_non_bench_scenario(self, work_tree):
        cfg = work_tree / "configs" / "trio.yaml"
        cfg.write_text("scenarios: [lp_nl.yaml, bench.yaml, lp_dim_ir_98.yaml]\n"
                       "grid: {electricity_usd_per_mwh: [100, 350], carbon_usd_per_t: [0]}\n")
        out = work_tree / "cmp"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "pbt_grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["scenario"], r["electricity_usd_per_mwh"]) for r in rows] == [
            ("LP_NL", "100.0"), ("LP_NL", "350.0"),
            ("LP_Dim_IR_98", "100.0"), ("LP_Dim_IR_98", "350.0")]
        records = json.loads((out / "breakeven.json").read_text())["breakeven"]
        assert [r["scenario"] for r in records] == ["LP_NL", "LP_Dim_IR_98"]
        assert [list(r["break_even_per_pipe_usd"]) for r in records] == [
            ["el100_co20", "el350_co20"]] * 2

    def test_a_set_without_bench_writes_no_sweep(self, work_tree, capsys):
        """A former sweep file's `bench_config: lp_nl.yaml` priced LP_Dim_IR_98
        against LP_NL; compare takes the Bench run or none."""
        cfg = work_tree / "configs" / "no_bench.yaml"
        cfg.write_text("scenarios: [lp_nl.yaml, lp_dim_ir_98.yaml]\n")
        out = work_tree / "cmp"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 5
        assert "Bench" in json.loads(capsys.readouterr().err)["detail"]
        assert not out.exists()

    def test_mixed_ppe_is_refused_before_any_run(self, work_tree, capsys):
        configs = work_tree / "configs"
        (configs / "lp_dim_ir_98_ppe30.yaml").write_text("include: lp_dim_ir_98.yaml\n"
                                                         "ppe: 3.0\n")
        cfg = configs / "sweep_mixed.yaml"
        cfg.write_text("scenarios: [bench.yaml, lp_dim_ir_98_ppe30.yaml]\n")
        out = work_tree / "sweep"
        rc = main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 5
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert "mixed ppe" in detail and "LP_Dim_IR_98" in detail
        assert not out.exists()

    def test_no_per_pipe_hardware_has_no_break_even(self, work_tree):
        """Pipes in the strategy, but none fitted."""
        configs = work_tree / "configs"
        (configs / "lp_dim_zero.yaml").write_text("include: lp_dim.yaml\nlp:\n  count: 0\n")
        cfg = configs / "sweep_flat.yaml"
        cfg.write_text("scenarios: [bench.yaml, lp_dim_zero.yaml]\n")
        out = work_tree / "sweep"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        (record,) = json.loads((out / "breakeven.json").read_text())["breakeven"]
        assert record["per_pipe_hardware_usd"] == 0.0
        assert len(record["break_even_per_pipe_usd"]) == 9
        assert all(be == {"unit_usd": None, "reduction_needed": None}
                   for be in record["break_even_per_pipe_usd"].values())


PAIR = "scenarios: [bench.yaml, lp_dim_ir_98.yaml]\n"


class TestStrictCompareFiles:
    def test_misspelled_grid_key_is_a_config_error(self, work_tree, capsys):
        cfg = work_tree / "configs" / "sweep_typo.yaml"
        text = (work_tree / "configs" / "sweep_lp_dim_ir.yaml").read_text()
        cfg.write_text(text.replace("electricity_usd_per_mwh", "electricity_usd_per_mw"))
        rc = main(["compare", "--config", str(cfg), "--out", str(work_tree / "sweep")])
        assert rc == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert "sweep_typo.yaml" in detail and "'grid.electricity_usd_per_mw'" in detail
        assert not (work_tree / "sweep").exists()

    @pytest.mark.parametrize("key", ["electricity_usd_per_mwh", "carbon_usd_per_t"])
    def test_empty_price_list_is_a_config_error(self, work_tree, capsys, key):
        capsys.readouterr()
        cfg = work_tree / "configs" / "sweep_empty.yaml"
        cfg.write_text(PAIR + f"grid:\n  {key}: []\n")
        rc = main(["compare", "--config", str(cfg), "--out", str(work_tree / "sweep")])
        assert rc == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert "sweep_empty.yaml" in detail and repr(f"grid.{key}") in detail
        assert not (work_tree / "sweep").exists()

    @pytest.mark.parametrize("key, prices, leaf", [
        ("electricity_usd_per_mwh", "[0, -50]", "[1]"), ("carbon_usd_per_t", "[0, -50]", "[1]"),
        ("carbon_usd_per_t", "[.nan]", "[0]"), ("carbon_usd_per_t", "[.inf]", "[0]"),
        ("carbon_usd_per_t", "[[1]]", "[0]"), ("electricity_usd_per_mwh", "[true]", "[0]"),
    ])
    def test_bad_price_is_refused_before_any_run(self, work_tree, capsys, monkeypatch,
                                                 key, prices, leaf):
        runs = _count_calls(monkeypatch, pipefarm.engine, "run_scenario")
        cfg = work_tree / "configs" / "sweep_negative.yaml"
        cfg.write_text(PAIR + f"grid:\n  {key}: {prices}\n")
        rc = main(["compare", "--config", str(cfg), "--out", str(work_tree / "sweep")])
        assert rc == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert "sweep_negative.yaml" in detail and repr(f"grid.{key}{leaf}") in detail
        assert runs == [] and not (work_tree / "sweep").exists()

    def test_unknown_top_level_keys_are_config_errors(self, work_tree, capsys):
        sweep = work_tree / "configs" / "sweep_typo.yaml"
        sweep.write_text((work_tree / "configs" / "sweep_lp_dim_ir.yaml").read_text()
                         + "target_pbt_year: 8.0\n")
        compare = work_tree / "configs" / "compare_typo.yaml"
        compare.write_text("scenarios:\n  - bench.yaml\nscenario: [lp_dim.yaml]\n")
        for path, key in ((sweep, "target_pbt_year"), (compare, "scenario")):
            rc = main(["compare", "--config", str(path), "--out", str(work_tree / "o")])
            assert rc == 3
            detail = json.loads(capsys.readouterr().err)["detail"]
            assert path.name in detail and repr(key) in detail

    @pytest.mark.parametrize("body, key", [
        ("scenarios: [1, 2]\n", "scenarios[0]"),
        ("scenarios: [bench.yaml, '']\n", "scenarios[1]"),
        ("scenarios: []\n", "scenarios"),
        ("include: []\n", "scenarios"),
        ("scenarios: bench.yaml\n", "scenarios"),
        (PAIR + "scenario_config: lp_dim_ir_98.yaml\n", "scenario_config"),  # old sweep keys
        (PAIR + "bench_config: bench.yaml\n", "bench_config"),
        (PAIR + "grid: [100]\n", "grid"),
        (PAIR + "target_pbt_years: [1]\n", "target_pbt_years"),
        (PAIR + "target_pbt_years: -5\n", "target_pbt_years"),
        (PAIR + "target_pbt_years: 0\n", "target_pbt_years"),
        (PAIR + "target_pbt_years: .nan\n", "target_pbt_years"),
        (PAIR + "target_pbt_years: true\n", "target_pbt_years"),
    ])
    def test_malformed_file_is_refused_before_any_run(self, work_tree, capsys, monkeypatch,
                                                      body, key):
        runs = _count_calls(monkeypatch, pipefarm.engine, "run_scenario")
        path = work_tree / "configs" / "malformed.yaml"
        path.write_text(body)
        capsys.readouterr()
        rc = main(["compare", "--config", str(path), "--out", str(work_tree / "o")])
        assert rc == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert path.name in detail and repr(key) in detail
        assert runs == [] and not (work_tree / "o").exists()

    def test_an_entry_naming_no_file_names_the_entry(self, work_tree, capsys, monkeypatch):
        runs = _count_calls(monkeypatch, pipefarm.engine, "run_scenario")
        path = work_tree / "configs" / "listing.yaml"
        path.write_text("scenarios: [bench.yaml, nope.yaml]\n")
        rc = main(["compare", "--config", str(path), "--out", str(work_tree / "o")])
        assert rc == 3
        detail = json.loads(capsys.readouterr().err)["detail"]
        assert detail.startswith(f"{path}: 'scenarios[1]' names no config file")
        assert str(work_tree / "configs" / "nope.yaml") in detail
        assert runs == [] and not (work_tree / "o").exists()


class TestIncludedStudyFiles:
    """A compare file may include one in another directory; the included
    file's config paths resolve against its own directory."""

    def test_compare_file_includes_one_elsewhere(self, work_tree):
        configs = (work_tree / "configs").resolve()
        (configs / "pair.yaml").write_text("scenarios: [bench.yaml, lp_dim.yaml]\n")
        (work_tree / "a").mkdir()
        (work_tree / "a" / "compare.yaml").write_text("include: ../configs/pair.yaml\n")
        out = work_tree / "cmp"
        assert main(["compare", "--config", str(work_tree / "a" / "compare.yaml"),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "comparison.json").read_text())["metadata"]
        names = ("bench.yaml", "lp_dim.yaml")
        assert meta["configs"] == [str(configs / n) for n in names]
        assert meta["config_hashes"] == [load_scenario_config(configs / n).content_hash()
                                         for n in names]

    def test_grid_file_includes_one_elsewhere(self, work_tree):
        configs = work_tree / "configs"
        (work_tree / "a").mkdir()
        (work_tree / "a" / "sweep.yaml").write_text(
            "include: ../configs/sweep_lp_dim_ir.yaml\ntarget_pbt_years: 8\n")
        out = work_tree / "sweep"
        assert main(["compare", "--config", str(work_tree / "a" / "sweep.yaml"),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "breakeven.json").read_text())
        (record,) = doc["breakeven"]
        assert record["scenario"] == "LP_Dim_IR_98" and record["target_pbt_years"] == 8.0
        assert doc["metadata"]["config_hashes"] == [
            load_scenario_config(configs / n).content_hash()
            for n in ("bench.yaml", "lp_dim_ir_98.yaml")]
        assert len(record["break_even_per_pipe_usd"]) == 12


class TestTraceOptics:
    def test_small_trace_writes_table(self, work_tree):
        out = work_tree / "trace"
        rc = main(["trace-optics", "--config",
                   str(work_tree / "configs" / "bench.yaml"),
                   "--out", str(out), "--rays", "10000"])
        assert rc == 0
        assert (out / "efficiency_table.csv").exists()
        meta = json.loads((out / "efficiency_table.csv.json").read_text())
        geometry = load_scenario_config(work_tree / "configs" / "bench.yaml").lp_geometry
        assert meta["rays"] == 10000 and meta["provenance"] == "traced"
        assert meta["seed"] == DEFAULT_SEED
        assert meta["model_revision"] == MODEL_REVISION
        assert meta["lp"] == dataclasses.asdict(geometry)
        assert meta["geometry_hash"] == geometry.content_hash()
        assert not (out / "trace_meta.json").exists()
        maps = list(out.glob("fluxmap_alt*.csv"))
        assert maps and all(p.with_suffix(".csv.json").exists() for p in maps)
        side = json.loads(maps[0].with_suffix(".csv.json").read_text())
        assert {"pitch_m", "extent_m", "shape", "altitude", "rays"} <= set(side)
        with open(maps[0]) as fh:
            rows = list(csv.reader(fh))
        assert [len(rows) - 1, len(rows[0])] == side["shape"]

        # the annual run reads the traced table back under its geometry
        cfg = work_tree / "configs" / "lp_dim_traced.yaml"
        cfg.write_text("include: lp_dim.yaml\noptics: {table: ../trace/efficiency_table.csv}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(work_tree / "sim")]) == 0
        run = json.loads((work_tree / "sim" / "kpis.json").read_text())["metadata"]
        assert run["table_provenance"] == "traced"
        assert run["table_geometry_hash"] == geometry.content_hash()


class TestOutputs:
    @pytest.mark.parametrize("command", ["simulate", "compare", "sunpath"])
    def test_only_trace_optics_takes_a_seed(self, work_tree, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(work_tree / "configs" / "bench.yaml"),
                  "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "calibrate"])
    def test_sweep_and_calibrate_are_gone(self, work_tree, capsys, command):
        """Compare writes the payback grid and the LUE fit."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(work_tree / "configs" / "bench.yaml")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unwritable_out_is_one_json_line(self, work_tree, capsys):
        (work_tree / "configs" / "bench_only.yaml").write_text("scenarios: [bench.yaml]\n")
        out = work_tree / "taken"
        out.write_text("")
        rc = main(["compare", "--config", str(work_tree / "configs" / "bench_only.yaml"),
                   "--out", str(out)])
        assert rc != 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert str(out) in json.loads(lines[0])["detail"]

    def test_every_json_output_is_strict_json(self, work_tree):
        """Non-finite numbers (LP_NL's payback, for one) are written as null."""
        configs, out = work_tree / "configs", work_tree / "out"
        (configs / "pair.yaml").write_text("scenarios: [bench.yaml, lp_nl.yaml]\n")
        for argv in (["simulate", "--config", configs / "lp_nl.yaml", "--out", out / "sim"],
                     ["compare", "--config", configs / "pair.yaml", "--out", out / "cmp"],
                     ["sunpath", "--config", configs / "bench.yaml", "--out", out / "sun"],
                     ["trace-optics", "--config", configs / "bench.yaml", "--rays", "10000",
                      "--out", out / "trace"]):
            assert main([str(a) for a in argv]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")
        docs = {p.relative_to(out).as_posix(): json.loads(p.read_text(), parse_constant=refuse)
                for p in out.rglob("*.json")}
        assert {"sim/kpis.json", "cmp/comparison.json", "cmp/breakeven.json",
                "sun/sunpath_meta.json",
                "trace/efficiency_table.csv.json"} <= set(docs)
        assert [r["pbt_years"] for r in docs["cmp/comparison.json"]["rows"]] == [0.0, None]
        for name, doc in docs.items():
            meta = doc.get("metadata", doc)
            assert meta["version"] and ("seed" in meta) == name.startswith("trace/")

