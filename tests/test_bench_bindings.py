"""The benchmark's traced run wraps pipefarm functions by name and reads a
few of their return values; a renamed, removed or reshaped binding turns its
per-layer metrics into nulls. These tests read the binding list from
`perfbench/tracing.py` itself, so they follow it when it changes.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math

import pytest

import pipefarm.engine
import pipefarm.thermal
from pipefarm.config import ScenarioConfig


@pytest.fixture(scope="module")
def tracing(repo_paths):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", repo_paths["repo"] / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(tracing):
    gone = []
    for name, module, path in tracing.SPANS:
        try:
            tracing._resolve(module, path)
        except (ImportError, AttributeError):
            gone.append(f"{name}: {module}.{path}")
    assert not gone, "\n".join(gone)


def test_rayleigh_range_is_published():
    lo, hi = pipefarm.thermal.RA_VALID_RANGE
    assert 0.0 < lo < hi


def test_hooks_read_the_returned_shapes(tracing, scenario_results, tmp_path):
    rec = tracing.SpanRecorder()
    with tracing.installed(rec) as missing:
        assert missing == {}
        cap = ScenarioConfig().ec_cap_ppfd
        pipefarm.engine.ec_control(1e4, cap)       # cap out of the film's reach
        pipefarm.engine.ec_control(100.0, cap)
        written = scenario_results["LP_Dim_EC"].save(tmp_path)
    assert rec.counts[("", "ec_unreachable_hours", "")] == 1
    assert rec.counts[("", "save_bytes", "")] == sum(p.stat().st_size for p in written) > 0


def test_traced_runs_report_finite_metrics(tracing, scenario_configs, climate,
                                           reference_table, lue_calibrated, solar,
                                           tmp_path):
    """Every hook survives a filter, a film, glazing and a transient run, and
    every per-layer metric comes out a finite number."""
    runs = [scenario_configs[name] for name in ("Bench", "LP_Dim_IR_98", "LP_Dim_EC", "GH")]
    runs.append(dataclasses.replace(scenario_configs["LP_Dim"], timestep_mode="transient"))
    rec = tracing.SpanRecorder()
    with tracing.installed(rec) as missing:
        rec.begin_phase("setup")
        rec.begin_phase("passes")
        for i, cfg in enumerate(runs):
            table = reference_table if cfg.uses_light_pipes else None
            pipefarm.engine.run_scenario(cfg, climate, table, lue_calibrated,
                                         solar=solar).save(tmp_path / str(i))
    values, reasons = tracing.layer_metrics(
        rec, missing, 1, {"ray_state_bytes": 0, "overhead_s": 0.0, "overhead_share": 0.0})
    assert missing == {} and reasons == {}
    bad = {k: v for k, v in values.items()
           if not (isinstance(v, (int, float)) and math.isfinite(v))}
    assert not bad
    # the Rayleigh hook reads the quasi-steady stage's scalar calls, one per
    # hour the chamber is warmer than outside
    assert values["thermal.lp_convection_calls"] > 0
    assert values["thermal.ra_out_of_range_hours"] > 0
