import csv
import json
import shutil
from pathlib import Path

import pytest

from pipefarm.cli import main
from pipefarm.config import load_config_mapping

# CLI runs get their own config tree so out/ and cache paths stay inside tmp
pytestmark = pytest.mark.usefixtures("repo_paths")


@pytest.fixture()
def work_tree(tmp_path, repo_paths):
    """Copy configs and data into a scratch tree with a local calibration."""
    (tmp_path / "configs").mkdir()
    (tmp_path / "data").mkdir()
    for f in (repo_paths["configs"]).glob("*.yaml"):
        shutil.copy(f, tmp_path / "configs" / f.name)
    for name in ("dubai_hourly_synthetic.csv", "lue_lettuce_default.csv",
                 "lp_efficiency_reference.csv"):
        shutil.copy(repo_paths["data"] / name, tmp_path / "data" / name)
    return tmp_path


def _calibrate(work_tree) -> Path:
    out = work_tree / "out" / "calibration.json"
    rc = main(["calibrate", "--config", str(work_tree / "configs" / "bench.yaml"),
               "--out", str(out)])
    assert rc == 0
    return out


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

    def test_missing_config_exit_code(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "none.yaml"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "not found" in json.loads(capsys.readouterr().err)["detail"]

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


class TestCalibrateAndSimulate:
    def test_calibrate_writes_artifact(self, work_tree):
        out = _calibrate(work_tree)
        doc = json.loads(out.read_text())
        assert doc["achieved_yield_kg"] == pytest.approx(9221.0, rel=0.02)
        assert doc["lue_scale"] > 0.0
        assert doc["climate_hash"]

    def test_simulate_bench(self, work_tree, capsys):
        _calibrate(work_tree)
        out = work_tree / "sim"
        rc = main(["simulate", "--config", str(work_tree / "configs" / "bench.yaml"),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "kpis.json").read_text())
        assert doc["metadata"]["calibrated"] is True
        assert doc["metadata"]["config_hash"]
        assert doc["metadata"]["version"]
        # design-range sanity for the LED-only benchmark at PPE 2.5
        assert 5.0 < doc["kpis"]["seec_kwh_per_kg"] < 10.0
        assert (out / "hourly_power.csv").exists()
        assert (out / "dli.csv").exists()

    def test_simulate_rerun_is_byte_identical(self, work_tree):
        _calibrate(work_tree)
        cfg = str(work_tree / "configs" / "lp_dim.yaml")
        out1, out2 = work_tree / "r1", work_tree / "r2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("kpis.json", "hourly_power.csv", "hourly_lighting.csv",
                     "dli.csv", "harvests.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_scenario_override_flag(self, work_tree):
        _calibrate(work_tree)
        out = work_tree / "ovr"
        rc = main(["simulate", "--config", str(work_tree / "configs" / "bench.yaml"),
                   "--scenario", "LP_NL", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "kpis.json").read_text())
        assert doc["metadata"]["scenario"] == "LP_NL"
        assert doc["kpis"]["harvested_daylight_mwh"] > 0.0

    def test_stale_calibration_rejected(self, work_tree, capsys):
        _calibrate(work_tree)
        calib_path = work_tree / "out" / "calibration.json"
        doc = json.loads(calib_path.read_text())
        doc["climate_hash"] = "deadbeef"
        calib_path.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", str(work_tree / "configs" / "bench.yaml"),
                   "--out", str(work_tree / "o")])
        assert rc == 5
        assert "different climate" in json.loads(capsys.readouterr().err)["detail"]


class TestCompareCli:
    def test_two_scenario_comparison(self, work_tree):
        _calibrate(work_tree)
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


class TestSweepCli:
    def test_grid_and_breakeven(self, work_tree):
        _calibrate(work_tree)
        cfg = work_tree / "configs" / "sweep_lp_dim_ir.yaml"
        out = work_tree / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        grid = load_config_mapping(cfg)["grid"]
        with open(out / "pbt_grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == (len(grid["electricity_usd_per_mwh"])
                             * len(grid["carbon_usd_per_t"]))
        doc = json.loads((out / "breakeven.json").read_text())
        assert set(doc) == {"scenario", "delta_capex_usd", "delta_electricity_mwh",
                            "delta_yield_kg", "target_pbt_years", "per_pipe_hardware_usd",
                            "break_even_per_pipe_usd", "metadata"}
        assert len(doc["break_even_per_pipe_usd"]) == len(rows)
        assert doc["delta_capex_usd"]["total"] > 0.0


class TestTraceOptics:
    def test_small_trace_writes_table(self, work_tree):
        out = work_tree / "trace"
        rc = main(["trace-optics", "--config",
                   str(work_tree / "configs" / "bench.yaml"),
                   "--out", str(out), "--rays", "10000"])
        assert rc == 0
        assert (out / "efficiency_table.csv").exists()
        meta = json.loads((out / "trace_meta.json").read_text())
        assert meta["rays"] == 10000
        maps = list(out.glob("fluxmap_alt*.csv"))
        assert maps and all(p.with_suffix(".csv.json").exists() for p in maps)
