"""Golden guard: the nine quasi-steady scenario-years, transient Bench,
LP_Dim and GH years, and a Bench year with 7-day tier staggering must
reproduce the KPIs and annual aggregates frozen in
`tests/data/golden_kpis.json` to 1e-12 relative.

The nine quasi-steady runs and transient LP_Dim were frozen before the
tier-3 strategy table replaced the scenario-id dispatch; the other three
before the annual loop was split into array stages. A refactor that keeps
behaviour fixed reproduces them to summation order. Regenerate it (`PYTHONPATH=src python tests/test_golden.py`) only
for a change that is meant to move the numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_kpis.json"
RTOL = 1e-12


def snapshot(res) -> dict:
    """KPIs and aggregates of one run, flattened; floats keep their repr."""
    out = {}
    for key, value in dataclasses.asdict(res.kpis).items():
        if isinstance(value, tuple):
            out.update({f"kpis.{key}.{i}": v for i, v in enumerate(value)})
        else:
            out[f"kpis.{key}"] = value
    out.update({f"aggregates.{k}": v for k, v in sorted(res.aggregates.items())})
    return out


def variant_runs(configs, climate, table, lue, solar) -> dict:
    """Snapshots of the runs derived from the shipped configs."""
    from pipefarm.engine import run_scenario
    bench = configs["Bench"]
    variants = {
        "Bench/transient": dataclasses.replace(bench, timestep_mode="transient"),
        "GH/transient": dataclasses.replace(configs["GH"], timestep_mode="transient"),
        "LP_Dim/transient": dataclasses.replace(configs["LP_Dim"],
                                                timestep_mode="transient"),
        "Bench/stagger7": dataclasses.replace(
            bench, crop=dataclasses.replace(bench.crop, stagger_days=7.0)),
    }
    return {name: snapshot(run_scenario(cfg, climate,
                                        table if cfg.uses_light_pipes else None,
                                        lue, solar=solar))
            for name, cfg in variants.items()}


def _mismatches(expected: dict, actual: dict) -> list[str]:
    bad = []
    for key in sorted(set(expected) | set(actual)):
        a, b = expected.get(key, "<missing>"), actual.get(key, "<missing>")
        same = (a == b if not (isinstance(a, float) and isinstance(b, float))
                else math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0))
        if not same:
            bad.append(f"{key}: frozen {a!r}, now {b!r}")
    return bad


def test_runs_reproduce_frozen_outputs(scenario_results, scenario_configs, climate,
                                       reference_table, lue_calibrated, solar):
    frozen = json.loads(GOLDEN.read_text())
    runs = {name: snapshot(res) for name, res in scenario_results.items()}
    runs.update(variant_runs(scenario_configs, climate, reference_table, lue_calibrated,
                             solar))
    assert sorted(runs) == sorted(frozen)
    bad = [f"{name} {m}" for name in sorted(runs)
           for m in _mismatches(frozen[name], runs[name])]
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    import conftest
    from pipefarm.climate import load_climate
    from pipefarm.config import load_scenario_config
    from pipefarm.engine import (calibrate_lue_scale, load_lue_table,
                                 prepare_efficiency_table, run_scenario, solar_angles)

    configs = {name: load_scenario_config(conftest.CONFIG_DIR / fn)
               for name, fn in conftest.SCENARIO_FILES.items()}
    bench = configs["Bench"]
    year = load_climate(bench.climate_path, bench.climate_columns)
    sun = solar_angles(bench.site, bench.hour_center_offset)
    table = prepare_efficiency_table(bench)
    base = load_lue_table(bench)
    lue = base.with_scale(calibrate_lue_scale(bench, year, None, base,
                                              solar=sun)["lue_scale"])
    doc = {name: snapshot(run_scenario(cfg, year, table if cfg.uses_light_pipes else None,
                                       lue, solar=sun))
           for name, cfg in configs.items()}
    doc.update(variant_runs(configs, year, table, lue, sun))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
