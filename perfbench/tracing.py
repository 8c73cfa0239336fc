"""Outside-in spans for the traced run.

The traced run replaces pipefarm's public functions at runtime with
wrappers that record one span (name, start, end, parent) per call plus a
few counters read off the return values. The names the engine and the
tracer bound at import are the ones replaced, so the hourly loop's calls
into each layer are seen without touching the program. A span listed under
several bindings (a function the engine calls through its own import and
another module through its own) records the calls through each. A span
none of whose bindings exists any more is skipped, and the metrics that
need it are reported as null with the reason.

Spans stay in memory as flat arrays and are written out once, when the
run ends. A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (span name, module, attribute path inside the module); a span may be listed
# once per binding its callers go through
SPANS = (
    ("config.load", "pipefarm.config", "load_scenario_config"),
    ("climate.load", "pipefarm.climate", "load_climate"),
    ("climate.solar_angles", "pipefarm.engine", "solar_angles"),
    ("climate.solar_position", "pipefarm.engine", "solar_position"),
    ("optics.table_import", "pipefarm.engine", "prepare_efficiency_table"),
    ("optics.lp_solar_gains", "pipefarm.engine", "lp_solar_gains"),
    ("optics.gh_gains", "pipefarm.engine", "gh_gains"),
    ("optics.uv_ir_filter", "pipefarm.engine", "apply_uv_ir_filter"),
    ("optics.neutral_attenuation", "pipefarm.engine", "apply_neutral_attenuation"),
    ("lighting.control_tier3", "pipefarm.engine", "control_tier3"),
    ("lighting.led_electric_power", "pipefarm.engine", "led_electric_power"),
    ("lighting.ec_control", "pipefarm.engine", "ec_control"),
    ("crop.growth_step", "pipefarm.engine", "growth_step"),
    ("crop.lue_lookup", "pipefarm.crop", "LueTable.lookup"),
    ("crop.interception", "pipefarm.engine", "interception"),
    ("crop.interception", "pipefarm.crop", "interception"),       # growth_step's calls
    ("crop.harvest_if_due", "pipefarm.engine", "harvest_if_due"),
    ("thermal.envelope_load", "pipefarm.engine", "envelope_load"),
    ("thermal.lp_convection", "pipefarm.engine", "lp_convection"),
    ("thermal.solve_hvac_load", "pipefarm.engine", "solve_hvac_load"),
    ("thermal.hvac_electricity", "pipefarm.engine", "hvac_electricity"),
    ("thermal.latent_balance", "pipefarm.engine", "latent_balance"),
    ("thermal.cop_cooling", "pipefarm.thermal", "CopModel.cop_cooling"),
    ("thermal.cop_heating", "pipefarm.thermal", "CopModel.cop_heating"),
    ("tracer.direct", "pipefarm.tracer", "trace_direct"),
    ("tracer.diffuse", "pipefarm.tracer", "trace_diffuse_band"),
    ("economics.compute_kpis", "pipefarm.engine", "compute_kpis"),
    ("economics.compare_scenarios", "pipefarm.engine", "compare_scenarios"),
    ("engine.run_scenario", "pipefarm.engine", "run_scenario"),
    ("engine.calibrate", "pipefarm.engine", "calibrate_lue_scale"),
    ("engine.save", "pipefarm.engine", "SimulationResult.save"),
)


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.phases: list[tuple[str, int]] = []   # (phase, first span index)
        self.phase = ""
        self.tag = ""          # scenario of the enclosing run_scenario call
        self.hour = 0          # hourly control decisions seen so far
        self.counts: Counter = Counter()          # (phase, counter, tag) -> n
        self._ra_hours: set = set()
        self.ra_range = None

    def begin_phase(self, phase: str) -> None:
        self.phases.append((phase, len(self.start)))
        self.phase = phase

    def count(self, counter: str, n: float = 1) -> None:
        self.counts[(self.phase, counter, self.tag)] += n

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.span_id(name)
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(self, args, out)
            return out
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        """Zero-copy views of the spans; record no more spans while they live."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float)}

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 phases=np.array([p for p, _ in self.phases], dtype=str),
                 phase_starts=np.array([i for _, i in self.phases], dtype=np.int64),
                 **self.arrays())


# -- counters read off return values --------------------------------------------

def _set_tag(rec: SpanRecorder, args) -> None:
    rec.tag = args[0].scenario


def _clear_tag(rec: SpanRecorder, args, out) -> None:
    rec.tag = ""


def _next_hour(rec: SpanRecorder, args, out) -> None:
    rec.hour += 1          # tier-3 control runs once per simulated hour


def _ra_check(rec: SpanRecorder, args, out) -> None:
    ra = out[1]
    lo, hi = rec.ra_range
    key = (rec.phase, rec.hour)
    if ra > 0.0 and not lo <= ra <= hi and key not in rec._ra_hours:
        rec._ra_hours.add(key)
        rec.count("ra_out_of_range_hours")


def _tally(kind: str):
    def after(rec: SpanRecorder, args, out) -> None:
        rec.count(f"{kind}_rays", out.rays)
        rec.count("rays", out.rays)
        rec.count("delivered_zone", out.tallies["delivered_zone"])
        rec.count("missed_roof", out.tallies["missed_roof"])
    return after


BEFORE = {"engine.run_scenario": _set_tag}
AFTER = {
    "optics.lp_solar_gains": lambda rec, a, out: rec.count("table_clamp_hours", bool(out.flags)),
    "lighting.control_tier3": _next_hour,
    "lighting.ec_control": lambda rec, a, out: rec.count("ec_unreachable_hours", bool(out[3])),
    "crop.lue_lookup": lambda rec, a, out: rec.count("lue_clamped_lookups", bool(out[2])),
    "crop.harvest_if_due": lambda rec, a, out: rec.count("harvests", out[1] > 0.0),
    "thermal.lp_convection": _ra_check,
    "tracer.direct": _tally("direct"),
    "tracer.diffuse": _tally("diffuse"),
    "engine.run_scenario": _clear_tag,
    "engine.save": lambda rec, a, out: rec.count("save_bytes",
                                                 sum(p.stat().st_size for p in out)),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    original = vars(owner).get(attr)
    if not callable(original):
        raise AttributeError(attr)
    return owner, attr, original


@contextlib.contextmanager
def installed(rec: SpanRecorder):
    """Wrap every span target that exists; yields {span: reason} for the spans
    none of whose targets exists."""
    missing: dict[str, str] = {}
    gone: dict[str, list[str]] = {}
    patched = []
    try:
        thermal = importlib.import_module("pipefarm.thermal")
        rec.ra_range = getattr(thermal, "RA_VALID_RANGE", None)
        if rec.ra_range is None:
            missing["thermal.ra_range"] = "pipefarm.thermal.RA_VALID_RANGE not found"
        for name, module, path in SPANS:
            try:
                owner, attr, original = _resolve(module, path)
            except (ImportError, AttributeError):
                gone.setdefault(name, []).append(f"{module}.{path} not found")
                continue
            after = AFTER.get(name)
            if name == "thermal.lp_convection" and rec.ra_range is None:
                after = None
            setattr(owner, attr, rec.wrap(name, original, BEFORE.get(name), after))
            patched.append((owner, attr, original))
        missing.update({name: "; ".join(why) for name, why in gone.items()
                        if name not in rec._ids})
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=duration[has], minlength=duration.size)
    return duration - child


class _Phase:
    """Totals of one phase, divided by the number of passes it covers."""

    def __init__(self, rec: SpanRecorder, ids, dur, self_t, lo: int, hi: int,
                 phase: str, per: int):
        k = len(rec.names)
        self._ids = rec._ids
        self._total = np.bincount(ids[lo:hi], weights=dur[lo:hi], minlength=k) / per
        self._self = np.bincount(ids[lo:hi], weights=self_t[lo:hi], minlength=k) / per
        self._calls = np.bincount(ids[lo:hi], minlength=k) / per
        self._counts = Counter()
        for (p, counter, _), n in rec.counts.items():
            if p == phase:
                self._counts[counter] += n / per

    def s(self, *spans: str) -> float:
        return float(sum(self._total[self._ids[s]] for s in spans if s in self._ids))

    def self_s(self, span: str) -> float:
        return float(self._self[self._ids[span]]) if span in self._ids else 0.0

    def calls(self, span: str) -> float:
        return float(self._calls[self._ids[span]]) if span in self._ids else 0.0

    def count(self, counter: str) -> float:
        return float(self._counts[counter])


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _time(*spans):
    return lambda v, x: v.s(*spans)


def _calls(span):
    return lambda v, x: v.calls(span)


def _counter(counter):
    return lambda v, x: v.count(counter)


def _extra(key):
    return lambda v, x: x[key]


# (metric, unit, better, phase, spans it needs, value). Setup metrics come
# from one traced set-up; pass metrics are per measured pass.
METRICS = (
    ("config.load_s", "s", "lower", "setup", ("config.load",), _time("config.load")),
    ("climate.load_s", "s", "lower", "setup", ("climate.load",), _time("climate.load")),
    ("climate.solar_angles_s", "s", "lower", "setup", ("climate.solar_angles",),
     _time("climate.solar_angles")),
    ("climate.solar_position_calls", "count", "lower", "setup", ("climate.solar_position",),
     _calls("climate.solar_position")),
    ("optics.table_import_s", "s", "lower", "setup", ("optics.table_import",),
     _time("optics.table_import")),
    ("optics.lp_solar_gains_s", "s", "lower", "pass", ("optics.lp_solar_gains",),
     _time("optics.lp_solar_gains")),
    ("optics.lp_solar_gains_calls", "count", "lower", "pass", ("optics.lp_solar_gains",),
     _calls("optics.lp_solar_gains")),
    ("optics.gh_gains_s", "s", "lower", "pass", ("optics.gh_gains",), _time("optics.gh_gains")),
    ("optics.filter_s", "s", "lower", "pass",
     ("optics.uv_ir_filter", "optics.neutral_attenuation"),
     _time("optics.uv_ir_filter", "optics.neutral_attenuation")),
    ("optics.table_clamp_hours", "count", "lower", "pass", ("optics.lp_solar_gains",),
     _counter("table_clamp_hours")),
    ("optics.table_clamp_ratio", "ratio", "lower", "pass", ("optics.lp_solar_gains",),
     lambda v, x: _ratio(v.count("table_clamp_hours"), v.calls("optics.lp_solar_gains"))),
    ("lighting.control_tier3_s", "s", "lower", "pass", ("lighting.control_tier3",),
     _time("lighting.control_tier3")),
    ("lighting.control_tier3_calls", "count", "lower", "pass", ("lighting.control_tier3",),
     _calls("lighting.control_tier3")),
    ("lighting.led_electric_power_s", "s", "lower", "pass", ("lighting.led_electric_power",),
     _time("lighting.led_electric_power")),
    ("lighting.led_electric_power_calls", "count", "lower", "pass",
     ("lighting.led_electric_power",), _calls("lighting.led_electric_power")),
    ("lighting.ec_control_s", "s", "lower", "pass", ("lighting.ec_control",),
     _time("lighting.ec_control")),
    ("lighting.ec_control_calls", "count", "lower", "pass", ("lighting.ec_control",),
     _calls("lighting.ec_control")),
    ("lighting.ec_unreachable_hours", "count", "lower", "pass", ("lighting.ec_control",),
     _counter("ec_unreachable_hours")),
    ("crop.growth_step_s", "s", "lower", "pass", ("crop.growth_step",),
     _time("crop.growth_step")),
    ("crop.growth_step_calls", "count", "lower", "pass", ("crop.growth_step",),
     _calls("crop.growth_step")),
    ("crop.lue_lookup_s", "s", "lower", "pass", ("crop.lue_lookup",), _time("crop.lue_lookup")),
    ("crop.lue_lookup_calls", "count", "lower", "pass", ("crop.lue_lookup",),
     _calls("crop.lue_lookup")),
    ("crop.interception_s", "s", "lower", "pass", ("crop.interception",),
     _time("crop.interception")),
    ("crop.harvest_if_due_s", "s", "lower", "pass", ("crop.harvest_if_due",),
     _time("crop.harvest_if_due")),
    ("crop.lue_clamped_lookups", "count", "lower", "pass", ("crop.lue_lookup",),
     _counter("lue_clamped_lookups")),
    ("crop.harvests", "count", "higher", "pass", ("crop.harvest_if_due",),
     _counter("harvests")),
    ("thermal.envelope_load_s", "s", "lower", "pass", ("thermal.envelope_load",),
     _time("thermal.envelope_load")),
    ("thermal.envelope_load_calls", "count", "lower", "pass", ("thermal.envelope_load",),
     _calls("thermal.envelope_load")),
    ("thermal.lp_convection_s", "s", "lower", "pass", ("thermal.lp_convection",),
     _time("thermal.lp_convection")),
    ("thermal.lp_convection_calls", "count", "lower", "pass", ("thermal.lp_convection",),
     _calls("thermal.lp_convection")),
    ("thermal.solve_hvac_load_s", "s", "lower", "pass", ("thermal.solve_hvac_load",),
     _time("thermal.solve_hvac_load")),
    ("thermal.hvac_electricity_s", "s", "lower", "pass", ("thermal.hvac_electricity",),
     _time("thermal.hvac_electricity")),
    ("thermal.latent_balance_s", "s", "lower", "pass", ("thermal.latent_balance",),
     _time("thermal.latent_balance")),
    ("thermal.cop_s", "s", "lower", "pass", ("thermal.cop_cooling", "thermal.cop_heating"),
     _time("thermal.cop_cooling", "thermal.cop_heating")),
    ("thermal.ra_out_of_range_hours", "count", "lower", "pass",
     ("thermal.lp_convection", "lighting.control_tier3", "thermal.ra_range"),
     _counter("ra_out_of_range_hours")),
    ("tracer.direct_s", "s", "lower", "pass", ("tracer.direct",), _time("tracer.direct")),
    ("tracer.diffuse_s", "s", "lower", "pass", ("tracer.diffuse",), _time("tracer.diffuse")),
    ("tracer.direct_rays_per_s", "1/s", "higher", "pass", ("tracer.direct",),
     lambda v, x: _ratio(v.count("direct_rays"), v.s("tracer.direct"))),
    ("tracer.diffuse_rays_per_s", "1/s", "higher", "pass", ("tracer.diffuse",),
     lambda v, x: _ratio(v.count("diffuse_rays"), v.s("tracer.diffuse"))),
    ("tracer.delivered_zone_ratio", "ratio", "higher", "pass",
     ("tracer.direct", "tracer.diffuse"),
     lambda v, x: _ratio(v.count("delivered_zone"), v.count("rays"))),
    ("tracer.missed_roof_ratio", "ratio", "lower", "pass", ("tracer.direct", "tracer.diffuse"),
     lambda v, x: _ratio(v.count("missed_roof"), v.count("rays"))),
    ("tracer.ray_state_bytes", "B", "lower", "pass", (), _extra("ray_state_bytes")),
    ("economics.compute_kpis_s", "s", "lower", "pass", ("economics.compute_kpis",),
     _time("economics.compute_kpis")),
    ("economics.compare_scenarios_s", "s", "lower", "pass", ("economics.compare_scenarios",),
     _time("economics.compare_scenarios")),
    ("engine.run_scenario_s", "s", "lower", "pass", ("engine.run_scenario",),
     _time("engine.run_scenario")),
    ("engine.self_s", "s", "lower", "pass", ("engine.run_scenario",),
     lambda v, x: v.self_s("engine.run_scenario")),
    ("engine.calibrate_s", "s", "lower", "pass", ("engine.calibrate",),
     _time("engine.calibrate")),
    ("engine.calibrate_runs", "count", "lower", "pass",
     ("engine.calibrate", "engine.run_scenario"), _extra("calibrate_runs")),
    ("engine.save_s", "s", "lower", "pass", ("engine.save",), _time("engine.save")),
    ("engine.save_bytes", "B", "lower", "pass", ("engine.save",), _counter("save_bytes")),
    ("tracing.overhead_s", "s", "lower", "pass", (), _extra("overhead_s")),
    ("tracing.overhead_share", "ratio", "lower", "pass", (), _extra("overhead_share")),
)


def _calibrate_runs(rec: SpanRecorder, ids: np.ndarray, parent: np.ndarray) -> float:
    """run_scenario calls made inside calibrate_lue_scale, per calibration."""
    if "engine.calibrate" not in rec._ids or "engine.run_scenario" not in rec._ids:
        return 0.0
    cal = rec._ids["engine.calibrate"]
    runs = ids == rec._ids["engine.run_scenario"]
    n_cal = int(np.count_nonzero(ids == cal))
    has = runs & (parent >= 0)
    inside = int(np.count_nonzero(ids[parent[has]] == cal))
    return inside / n_cal if n_cal else 0.0


def layer_metrics(rec: SpanRecorder, missing: dict[str, str], passes: int,
                  extra: dict) -> tuple[dict, dict]:
    """(metric -> value or None, metric -> reason for None)."""
    a = rec.arrays()
    ids, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    self_t = self_times(parent, dur)
    bounds = dict(rec.phases)
    n = ids.size
    views = {
        "setup": _Phase(rec, ids, dur, self_t, bounds["setup"], bounds["passes"],
                        "setup", 1),
        "pass": _Phase(rec, ids, dur, self_t, bounds["passes"], n, "passes",
                       max(passes, 1)),
    }
    extra = dict(extra, calibrate_runs=_calibrate_runs(rec, ids, parent))
    values, reasons = {}, {}
    for name, _, _, phase, needs, value in METRICS:
        gone = [missing[s] for s in needs if s in missing]
        if gone:
            values[name] = None
            reasons[name] = "; ".join(gone)
        else:
            values[name] = value(views[phase], extra)
    return values, reasons


def counts_by_scenario(rec: SpanRecorder, phase: str, passes: int) -> dict:
    """Counter -> scenario -> value per pass, for the results file."""
    out: dict = {}
    for (p, counter, tag), n in sorted(rec.counts.items()):
        if p == phase:
            out.setdefault(counter, {})[tag or "-"] = n / max(passes, 1)
    return out
