"""Shared fixtures: the shipped climate year, the traced and reference
optical tables, the calibrated LUE factor, and the nine scenario runs."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from pipefarm.climate import load_climate
from pipefarm.config import CompareSet, load_scenario_config, load_set
from pipefarm.crop import LueTable
from pipefarm.engine import Study, calibrate_lue_scale, load_lue_table
from pipefarm.optics import OpticalEfficiencyTable
from pipefarm.tracer import DEFAULT_SEED, build_efficiency_table

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"
DATA_DIR = REPO / "data"


def shipped_configs() -> dict:
    """The nine scenarios of configs/compare_all.yaml, by scenario id."""
    files = load_set(CONFIG_DIR / "compare_all.yaml", CompareSet).scenarios
    return {c.scenario: c for c in map(load_scenario_config, files)}


@pytest.fixture(scope="session")
def repo_paths():
    return {"repo": REPO, "configs": CONFIG_DIR, "data": DATA_DIR}


@pytest.fixture(scope="session")
def bench_config():
    return load_scenario_config(CONFIG_DIR / "bench.yaml")


@pytest.fixture(scope="session")
def scenario_configs():
    return shipped_configs()


@pytest.fixture(scope="session")
def traced_table(bench_config):
    """Full-budget Monte Carlo sweep of the shipped geometry (timed)."""
    t0 = time.time()
    table, _ = build_efficiency_table(bench_config.lp_geometry, rays=100_000,
                                      seed=DEFAULT_SEED)
    return table, time.time() - t0


@pytest.fixture(scope="session")
def lue_base(bench_config) -> LueTable:
    return load_lue_table(bench_config)


@pytest.fixture(scope="session")
def calibration(bench_config, lue_base):
    year = load_climate(bench_config.climate_path, bench_config.climate_columns)
    return calibrate_lue_scale(bench_config, year, None, lue_base)


@pytest.fixture(scope="session")
def lue_calibrated(lue_base, calibration) -> LueTable:
    return lue_base.with_scale(calibration["lue_scale"])


@pytest.fixture(scope="session")
def study(scenario_configs, lue_calibrated) -> Study:
    return Study(scenario_configs.values(), lue=lue_calibrated)


@pytest.fixture(scope="session")
def climate(study):
    return study.climate


@pytest.fixture(scope="session")
def solar(study):
    return study.solar


@pytest.fixture(scope="session")
def reference_table(study, scenario_configs) -> OpticalEfficiencyTable:
    return study.table(scenario_configs["LP_Dim"])


@pytest.fixture(scope="session")
def scenario_results(scenario_configs, study):
    return dict(zip(scenario_configs, study.results()))
