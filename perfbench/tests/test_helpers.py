"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import pipefarm.crop
import pipefarm.engine
from pipefarm.climate import load_climate
from pipefarm.tracer import TraceResult

import run
import stats
import tracing
import workloads


@pytest.fixture(scope="module")
def shipped():
    return load_climate(workloads.ROOT / "data" / "dubai_hourly_synthetic.csv")


def test_generator_is_deterministic_full_year_and_physical(shipped, tmp_path):
    base = (shipped.temperature, shipped.dni, shipped.dhi)
    a = workloads.perturbed_year(*base, seed=3)
    b = workloads.perturbed_year(*base, seed=3)
    c = workloads.perturbed_year(*base, seed=4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[1], c[1])
    assert all(x.shape == (workloads.HOURS,) for x in a)
    temperature, dni, dhi = a
    assert np.array_equal(temperature, shipped.temperature)
    dark = (shipped.dni == 0.0) & (shipped.dhi == 0.0)
    assert np.all(dni[dark] == 0.0) and np.all(dhi[dark] == 0.0)
    assert 0.0 <= dni.min() and dni.max() <= workloads.DNI_MAX
    assert 0.0 <= dhi.min() and dhi.max() <= workloads.DHI_MAX

    path = tmp_path / "year.csv"
    workloads.write_year(path, *a)
    year = load_climate(path)
    assert len(year) == workloads.HOURS
    assert np.array_equal(year.dni, dni) and np.array_equal(year.dhi, dhi)
    assert np.array_equal(year.temperature, temperature)


def test_self_times_on_hand_built_tree():
    #   0 [0, 10]
    #   |- 1 [1, 4]
    #   `- 2 [5, 9]
    #      `- 3 [6, 7]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    assert tracing.self_times(parent, end - start).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_recorder_links_children_to_their_caller():
    rec = tracing.SpanRecorder()
    rec.begin_phase("passes")
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    a = rec.arrays()
    names = [rec.names[i] for i in a["name_id"]]
    assert names == ["outer", "inner", "inner"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert np.all(a["end"] >= a["start"])


def test_tail_needs_ten_samples_beyond():
    pct, value = stats.tail([float(x) for x in range(30, 0, -1)])
    assert value == 20.0 and pct == pytest.approx(100.0 * 2 / 3)
    assert stats.tail([float(x) for x in range(1, 12)]) == (pytest.approx(100 / 11), 1.0)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_op_statistics_read_the_same_ops_at_any_speed():
    slow = {"a": 1.0, "b": 2.0, "c": 9.0}
    fast = {k: v / 10 for k, v in slow.items()}
    # a faster program fits more passes; the median and the slowest op stay put
    few = run.summarize([{"pass_s": 12.0, "op_s": slow}] * 3, fixed=3)
    many = run.summarize([{"pass_s": 1.2, "op_s": fast}] * 30, fixed=3)
    assert few["op_s_p50"] == 2.0 and few["op_s_max"] == 9.0 and few["slowest_op"] == "c"
    assert many["op_s_p50"] == pytest.approx(0.2) and many["op_s_max"] == pytest.approx(0.9)
    assert len(few["pooled"]) == len(many["pooled"]) == 9
    assert few["tail_s"] is None and few["tail_pct"] is None    # 9 samples, the rule needs 11
    assert stats.op_medians([{"a": 3.0}, {"a": 1.0, "b": 5.0}, {"a": 2.0}]) == {"a": 2.0, "b": 5.0}


def test_paced_time_scales_by_the_reference_loop():
    ref = stats.PACE_REF_S
    assert stats.paced(3.0, [ref, ref]) == pytest.approx(3.0)
    # the host ran at half speed: the loop took twice as long over the work
    assert stats.paced(3.0, [2 * ref, 2 * ref]) == pytest.approx(1.5)
    # half the time at full speed, half at a third: the speeds average
    assert stats.paced(3.0, [ref, 3 * ref]) == pytest.approx(2.0)


def test_pacer_takes_out_its_own_loops():
    pacer = stats.Pacer()
    pacer.at, pacer.took = [1.0, 2.0, 3.0], [0.1, 2 * stats.PACE_REF_S, 4 * stats.PACE_REF_S]
    # loops at 2.0 and 3.0 ran inside [1.5, 3.5]: their time is taken out, their pace used
    assert pacer.paced(1.5, 3.5) == pytest.approx((2.0 - 6 * stats.PACE_REF_S) * 3 / 8)
    # no loop inside [3.2, 3.3]: the last loop before it sets the pace
    assert pacer.paced(3.2, 3.3) == pytest.approx(0.1 / 4)
    with pacer.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * stats.PACE_EVERY_S:
            pass
    assert len(pacer.took) >= 3 and all(t > 0.0 for t in pacer.took)


def test_time_at_se_uses_the_worst_table_entry():
    def result(se_zone, se_chamber):
        return TraceResult(eta_zone=0.5, eta_chamber=0.6, se_zone=se_zone,
                           se_chamber=se_chamber, tallies={}, rays=10_000)
    # a direct trace fills only its zone entry, so its chamber stderr is ignored
    traces = [("direct", result(0.003, 0.010)), ("diffuse", result(0.002, 0.004))]
    worst = stats.worst_se(traces)
    assert worst == 0.004
    assert stats.time_at_se(2.0, worst) == pytest.approx(32.0)
    assert stats.time_at_se(2.0, 1e-3) == pytest.approx(2.0)


def test_missing_function_reports_null_and_restores(monkeypatch):
    original = pipefarm.engine.run_scenario
    spans = tracing.SPANS + (("crop.growth_step", "pipefarm.engine", "no_such_function"),
                             ("crop.interception", "pipefarm.engine", "no_such_binding"))
    spans = tuple(s for s in spans if s[2] != "growth_step")
    monkeypatch.setattr(tracing, "SPANS", spans)
    rec = tracing.SpanRecorder()
    with tracing.installed(rec) as missing:
        assert pipefarm.engine.run_scenario is not original
        # one of interception's bindings is gone, the others are still wrapped
        assert "crop.interception" not in missing
        assert pipefarm.crop.interception.__wrapped__ is not None
        rec.begin_phase("setup")
        rec.begin_phase("passes")
    assert pipefarm.engine.run_scenario is original
    values, reasons = tracing.layer_metrics(
        rec, missing, 1, {"overhead_s": 0.0, "overhead_share": 0.0, "ray_state_bytes": 0})
    assert values["crop.growth_step_s"] is None
    assert "no_such_function" in reasons["crop.growth_step_calls"]
    assert values["engine.run_scenario_s"] == 0.0


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in tracing.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
