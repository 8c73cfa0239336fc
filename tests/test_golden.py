"""Golden guard: the nine quasi-steady scenario-years, transient Bench,
LP_Dim and GH years, a Bench year with 7-day tier staggering and LP_Dim_EC
years with the film capped at 250 and 300 umol m-2 s-1 (the only runs whose
film attenuates, the 250 cap past reach) must reproduce the annual numbers
(`KpiReport`) frozen in `tests/data/golden_kpis.json` to 1e-12 relative.

The nine quasi-steady runs and transient LP_Dim were frozen before the
tier-3 strategy table replaced the scenario-id dispatch; the other three
before the annual loop was split into array stages. The seasonal cooling
numbers of every run were re-frozen when the summer/winter split moved
to calendar months, and the 22 LP_Dim_EC entries that depend on the film's
peak transmittance when that peak became exact instead of sampled. The
five PWM entries (LP_Dim, LP_Dim_IR_98, LP_Dim_IR_90, LP_Dim_EC and
LP_Dim/transient) were re-frozen when PWM fixtures stopped paying a flat
0.95 driver efficiency that fixed fixtures did not. When the `aggregates`
dict folded into `KpiReport`, every entry was re-keyed `kpis.<field>`
without a value moving, and the duplicates and `kpis.undefined` went. A refactor that keeps
behaviour fixed reproduces them to summation order. Regenerate it
(`PYTHONPATH=src python tests/test_golden.py`) only for a change that is
meant to move the numbers, and say so in CHANGES.md; the script prints
every entry that moved and rewrites only those.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from pipefarm.engine import Study

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_kpis.json"
RTOL = 1e-12


def snapshot(res) -> dict:
    """The annual numbers of one run, flattened; floats keep their repr."""
    out = {}
    for key, value in dataclasses.asdict(res.kpis).items():
        if isinstance(value, tuple):
            out.update({f"kpis.{key}.{i}": v for i, v in enumerate(value)})
        else:
            out[f"kpis.{key}"] = value
    return out


def variant_runs(configs, study) -> dict:
    """Snapshots of the runs derived from the shipped configs. The staggered
    crop is not the study's, so that run gets a study of its own at the
    study's (unstaggered Bench) LUE scale."""
    bench = configs["Bench"]
    variants = {
        "Bench/transient": dataclasses.replace(bench, timestep_mode="transient"),
        "GH/transient": dataclasses.replace(configs["GH"], timestep_mode="transient"),
        "LP_Dim/transient": dataclasses.replace(configs["LP_Dim"],
                                                timestep_mode="transient"),
        "LP_Dim_EC/cap250": dataclasses.replace(configs["LP_Dim_EC"], ec_cap_ppfd=250.0),
        "LP_Dim_EC/cap300": dataclasses.replace(configs["LP_Dim_EC"], ec_cap_ppfd=300.0),
    }
    runs = {name: snapshot(study.run(cfg)) for name, cfg in variants.items()}
    stagger = dataclasses.replace(bench, crop=dataclasses.replace(bench.crop, stagger_days=7.0))
    runs["Bench/stagger7"] = snapshot(Study([stagger], lue=study.lue).run(stagger))
    return runs


def _mismatches(expected: dict, actual: dict) -> list[str]:
    bad = []
    for key in sorted(set(expected) | set(actual)):
        a, b = expected.get(key, "<missing>"), actual.get(key, "<missing>")
        same = (a == b if not (isinstance(a, float) and isinstance(b, float))
                else math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0))
        if not same:
            bad.append(f"{key}: frozen {a!r}, now {b!r}")
    return bad


def test_runs_reproduce_frozen_outputs(scenario_results, scenario_configs, study):
    frozen = json.loads(GOLDEN.read_text())
    runs = {name: snapshot(res) for name, res in scenario_results.items()}
    runs.update(variant_runs(scenario_configs, study))
    assert sorted(runs) == sorted(frozen)
    bad = [f"{name} {m}" for name in sorted(runs)
           for m in _mismatches(frozen[name], runs[name])]
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    import conftest

    configs = conftest.shipped_configs()
    study = Study(configs.values())
    doc = {name: snapshot(res) for name, res in zip(configs, study.results())}
    doc.update(variant_runs(configs, study))
    frozen = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in sorted(set(frozen) | set(doc)):
        for m in _mismatches(frozen.get(name, {}), doc.get(name, {})):
            print(f"moved: {name} {m}")
    # an entry that did not move keeps its frozen value, so the file's diff
    # shows exactly what moved
    for name, run in doc.items():
        kept = frozen.get(name, {})
        doc[name] = {k: kept[k] if k in kept and not _mismatches({k: kept[k]}, {k: v})
                     else v for k, v in run.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
