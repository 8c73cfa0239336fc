"""Seeded inputs and the three workloads, driven through pipefarm's public API.

Every workload is a closed loop with one caller: each call returns before
the next is made, with no threads and no process pool. The workload seed
only shapes the inputs (the climate year, the tracer seed); the program
sees nothing but those inputs.

An op is one scenario-year, one calibration or one trace call. It fails if
it raises or if a check on its output fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import statistics
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from pipefarm import climate, config, engine, tracer

import stats

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

COMPARE_FILES = ("bench.yaml", "lp_nl.yaml", "lp_min_200.yaml", "lp_min_250.yaml",
                 "lp_dim.yaml", "lp_dim_ir_98.yaml", "lp_dim_ir_90.yaml",
                 "lp_dim_ec.yaml", "gh.yaml")
TRANSIENT_FILES = ("bench.yaml", "lp_dim.yaml", "gh.yaml")

HOURS = 8760
BENCH_TARGET_KG = 9221.0
YIELD_TOL = 0.02
RESIDUAL_MAX = 1e-6
CONSERVATION_MAX = 1e-9
TRACE_RAYS = 10_000        # reduced budget, at the tracer's MIN_RAYS floor

# seeded climate perturbation
CLOUD_DIPS = 40
DNI_MAX = 1100.0
DHI_MAX = 700.0


# -- inputs ----------------------------------------------------------------------

def perturbed_year(temperature, dni, dhi, seed: int):
    """The shipped year with seeded cloud dips and day-to-day DNI/DHI amplitude.

    Each day's beam and sky are scaled by their own factor, and a few
    dozen daytime spells of two to six hours lose part of the beam while
    the sky brightens. Night hours stay dark and temperatures are kept.
    Values are rounded as the CSV stores them, so what the program ingests
    equals what this returns.
    """
    rng = np.random.default_rng([seed, HOURS])
    days = HOURS // 24
    f_dni = np.repeat(rng.uniform(0.92, 1.05, days), 24)
    f_dhi = np.repeat(rng.uniform(0.92, 1.08, days), 24)
    first = rng.integers(0, days, CLOUD_DIPS) * 24 + rng.integers(6, 16, CLOUD_DIPS)
    length = rng.integers(2, 7, CLOUD_DIPS)
    depth = rng.uniform(0.3, 0.9, CLOUD_DIPS)
    for h0, k, d in zip(first, length, depth):
        f_dni[h0:h0 + k] *= 1.0 - d
        f_dhi[h0:h0 + k] *= 1.0 + 0.5 * d
    return (np.round(np.asarray(temperature, dtype=float), 2),
            np.clip(np.round(np.asarray(dni) * f_dni, 1), 0.0, DNI_MAX),
            np.clip(np.round(np.asarray(dhi) * f_dhi, 1), 0.0, DHI_MAX))


def write_year(path: Path, temperature, dni, dhi) -> None:
    with open(path, "w") as fh:
        fh.write("time,temperature,dni,dhi\n")
        for i in range(HOURS):
            fh.write(f"{i},{temperature[i]:.2f},{dni[i]:.1f},{dhi[i]:.1f}\n")


@dataclasses.dataclass
class State:
    configs: list
    year: object            # ClimateSeries
    lue_base: object        # LueTable at scale 1
    table: object           # imported OpticalEfficiencyTable
    solar: tuple
    lue: object = None      # calibrated LueTable, fitted in set-up (transient)


def prepare(files, seed: int, workdir: Path) -> State:
    """Config load, climate generation and ingest, LUE and optical table import,
    solar angles: the set-up every workload shares."""
    cfgs = [config.load_scenario_config(CONFIGS / f) for f in files]
    bench = cfgs[0]
    shipped = climate.load_climate(bench.climate_path, bench.climate_columns)
    path = workdir / f"climate-{seed}.csv"
    write_year(path, *perturbed_year(shipped.temperature, shipped.dni, shipped.dhi, seed))
    year = climate.load_climate(path)
    return State(configs=cfgs, year=year, lue_base=engine.load_lue_table(bench),
                 table=engine.prepare_efficiency_table(bench),
                 solar=engine.solar_angles(bench.site, bench.hour_center_offset))


# -- op bookkeeping and output checks --------------------------------------------

class PassLog:
    """Ops of one pass: [name, seconds at the reference pace, problems]."""

    def __init__(self):
        self.ops: list[list] = []

    def op(self, name: str, fn, *args, check=None, **kwargs):
        entry = [name, math.nan, []]
        self.ops.append(entry)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        entry[1] = stats.PACER.paced(t0, time.perf_counter())
        if check is not None:
            entry[2].extend(check(out))
        return out

    def fail(self, names, problem: str) -> None:
        for entry in self.ops:
            if names is None or entry[0] in names:
                entry[2].append(problem)


class Ledger:
    """Ops attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def close(self, log: PassLog, aborted: str = "") -> None:
        for name, _, problems in log.ops:
            self.attempted += 1
            if aborted:
                problems = problems + [aborted]
            if problems:
                self.failed += 1
                self.failures.append(f"{name}: {'; '.join(problems)}")


def kpi_vector(res) -> dict[str, float]:
    """KPIs and annual aggregates of one run, flattened to floats."""
    vec = {}
    for key, value in dataclasses.asdict(res.kpis).items():
        if isinstance(value, tuple):
            vec.update({f"kpis.{key}.{i}": _num(x) for i, x in enumerate(value)})
        else:
            vec[f"kpis.{key}"] = _num(value)
    vec.update({f"aggregates.{k}": _num(v) for k, v in sorted(res.aggregates.items())})
    return vec


def _num(v) -> float:
    return math.nan if v is None else float(v)


def _yield_problem(kg: float) -> list[str]:
    if abs(kg - BENCH_TARGET_KG) <= YIELD_TOL * BENCH_TARGET_KG:
        return []
    return [f"Bench yield {kg:.1f} kg not within {YIELD_TOL:.0%} of {BENCH_TARGET_KG}"]


def check_result(res) -> list[str]:
    problems = []
    bad = [k for k, v in kpi_vector(res).items() if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite {bad}")
    resid = res.aggregates["max_relative_residual"]
    if not resid <= RESIDUAL_MAX:
        problems.append(f"max_relative_residual {resid:.3g} > {RESIDUAL_MAX}")
    if res.config.scenario == "Bench":
        problems += _yield_problem(res.kpis.yield_kg)
    return problems


def check_calibration(cal: dict) -> list[str]:
    return _yield_problem(cal["achieved_yield_kg"])


def check_trace(res) -> list[str]:
    problems = []
    resid = res.conservation_residual()
    if not resid < CONSERVATION_MAX:
        problems.append(f"conservation residual {resid:.3g}")
    if not all(map(math.isfinite, (res.eta_zone, res.eta_chamber, res.se_zone, res.se_chamber))):
        problems.append("non-finite efficiency")
    return problems


@contextlib.contextmanager
def patched(owner, attr: str, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


# -- workloads --------------------------------------------------------------------
#
# A workload's run_pass returns a record with the pass time, {op: seconds}
# for its timed ops, a fingerprint per op (compared bit for bit against the first
# pass, and in the traced run against the untraced one) and the outputs to
# write.

def run_pass(wl, st: State, seed: int, workdir: Path, ledger: Ledger,
             first: dict | None) -> dict:
    """One checked pass; its ops are compared with `first` when given."""
    log = PassLog()
    t0 = time.perf_counter()
    try:
        rec = wl.run_pass(st, seed, workdir, log)
    except Exception as exc:
        traceback.print_exc()
        ledger.close(log, aborted=f"pass aborted: {exc!r}")
        return {**pass_times(t0), "op_s": {}, "fingerprint": {}}
    if first is not None:
        for name, value in rec["fingerprint"].items():
            if first["fingerprint"].get(name) != value:
                log.fail({name}, "output differs from the reference pass")
    ledger.close(log)
    return rec


def pass_times(t0: float) -> dict:
    """A pass that started at perf_counter t0 and ends now: paced and wall."""
    t1 = time.perf_counter()
    return {"pass_s": stats.PACER.paced(t0, t1), "wall_pass_s": t1 - t0}


class Workload:
    name = ""
    files: tuple = ()
    min_passes = 1          # always run; the reported tail reads these
    rays = 0                # rays per trace call, for the ray-state bytes

    def setup(self, seed: int, workdir: Path, ledger: Ledger) -> State:
        return prepare(self.files, seed, workdir)


def _scenario_years(st: State, lue, log: PassLog) -> tuple[list, dict]:
    # run_scenario ignores the table for scenarios without pipes
    results = [log.op(cfg.scenario, engine.run_scenario, cfg, st.year, st.table, lue,
                      solar=st.solar, check=check_result) for cfg in st.configs]
    return results, {r.config.scenario: kpi_vector(r) for r in results}


def _pooled_report(summary: dict, prefix: str) -> list[tuple]:
    n, passes = len(summary["pooled"]), summary["pooled_passes"]
    if summary["tail_s"] is None:
        note = f"n={n}, first {passes} passes: fewer than the {stats.TAIL_BEYOND + 1} samples a tail needs"
    else:
        note = f"p{summary['tail_pct']:.1f}, n={n}, first {passes} passes"
    return [(f"{prefix}_p50", summary["op_s_p50"], "s", f"= op_s_p50, n={summary['op_count']}"),
            (f"{prefix}_tail", summary["tail_s"], "s", note)]


def _years_report(summary: dict) -> list[tuple]:
    return _pooled_report(summary, "scenario_year_s") + [
        ("sim_hours_per_s", HOURS * summary["op_count"] / summary["op_seconds"], "h/s",
         "in run_scenario")]


class AnnualCompare(Workload):
    """Calibrate Bench, run the nine quasi-steady scenario-years, compare, save."""

    name = "annual_compare"
    files = COMPARE_FILES
    min_passes = 3          # 27 scenario-years: the tail is p63

    def run_pass(self, st: State, seed: int, workdir: Path, log: PassLog) -> dict:
        t0 = time.perf_counter()
        cal = log.op("calibrate", engine.calibrate_lue_scale, st.configs[0], st.year, None,
                     st.lue_base, solar=st.solar, check=check_calibration)
        calibrate_s = log.ops[-1][1]
        results, vectors = _scenario_years(st, st.lue_base.with_scale(cal["lue_scale"]), log)
        rows = engine.compare_scenarios(results)
        if len(rows) != len(self.files):
            log.fail(None, f"{len(rows)} comparison rows, expected {len(self.files)}")
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            for r in results:
                r.save(Path(tmp) / r.config.scenario)
        times = pass_times(t0)
        fingerprint = {"calibrate": cal["lue_scale"]}
        fingerprint.update({k: tuple(v.values()) for k, v in vectors.items()})
        return {**times, "calibrate_s": calibrate_s,
                "op_s": {e[0]: e[1] for e in log.ops[1:]}, "fingerprint": fingerprint,
                "outputs": {"lue_scale": cal["lue_scale"], "kpis": vectors}}

    def report(self, records: list, summary: dict) -> list[tuple]:
        return [
            ("compare_s", summary["pass_s"], "s", "calibrate + nine scenarios + compare + save"),
            ("calibrate_s", statistics.median(r["calibrate_s"] for r in records), "s", ""),
        ] + _years_report(summary)


class TransientThermal(Workload):
    """Bench, LP_Dim and GH as sub-stepped transient scenario-years."""

    name = "transient_thermal"
    files = TRANSIENT_FILES
    # 9 scenario-years, too few for a tail; one above the median would take
    # 7 passes (21 samples), four more per run
    min_passes = 3

    def setup(self, seed: int, workdir: Path, ledger: Ledger) -> State:
        st = prepare(self.files, seed, workdir)
        st.configs = [dataclasses.replace(c, timestep_mode="transient") for c in st.configs]
        log = PassLog()
        cal = log.op("calibrate", engine.calibrate_lue_scale, st.configs[0], st.year, None,
                     st.lue_base, solar=st.solar, check=check_calibration)
        ledger.close(log)
        st.lue = st.lue_base.with_scale(cal["lue_scale"])
        return st

    def run_pass(self, st: State, seed: int, workdir: Path, log: PassLog) -> dict:
        t0 = time.perf_counter()
        _, vectors = _scenario_years(st, st.lue, log)
        return {**pass_times(t0), "op_s": {e[0]: e[1] for e in log.ops},
                "fingerprint": {k: tuple(v.values()) for k, v in vectors.items()},
                "outputs": {"lue_scale": st.lue.scale, "kpis": vectors}}

    def report(self, records: list, summary: dict) -> list[tuple]:
        return _years_report(summary)


class TraceTable(Workload):
    """Full-grid efficiency table of the shipped geometry, tracer seeded per run."""

    name = "trace_table"
    files = ("bench.yaml",)
    min_passes = 3          # each call's median over 3 passes; 324 trace calls, tail p97
    rays = TRACE_RAYS

    def run_pass(self, st: State, seed: int, workdir: Path, log: PassLog) -> dict:
        traces = []

        def timed(kind: str):
            def make(fn):
                def call(*args, **kwargs):
                    label = "/".join(f"{a:g}" for a in args[1:3] if isinstance(a, (int, float)))
                    res = log.op(f"{kind}@{label}", fn, *args, check=check_trace, **kwargs)
                    traces.append((kind, res))
                    return res
                return call
            return make

        with patched(tracer, "trace_direct", timed("direct")), \
                patched(tracer, "trace_diffuse_band", timed("diffuse")):
            t0 = time.perf_counter()
            table, _ = tracer.build_efficiency_table(st.configs[0].lp_geometry,
                                                     rays=self.rays, seed=seed)
            times = pass_times(t0)
        arrays = {k: getattr(table, k) for k in ("alt_grid", "eta_dir", "se_dir", "tilt_grid",
                                                 "eta_diff_th", "eta_diff_crop",
                                                 "se_diff_th", "se_diff_crop")}
        violations = table.bound_violations()
        if violations:
            log.fail(None, f"bound violations: {violations}")
        if not all(np.all(np.isfinite(a)) for a in arrays.values()):
            log.fail(None, "non-finite table entry")
        fingerprint = {e[0]: (r.eta_zone, r.eta_chamber, r.se_zone, r.se_chamber)
                       for e, (_, r) in zip(log.ops, traces)}
        return {**times, "op_s": {e[0]: e[1] for e in log.ops},
                "max_se": stats.worst_se(traces), "rays": self.rays * len(traces),
                "fingerprint": fingerprint,
                "outputs": {"table": {k: np.asarray(v).tolist() for k, v in arrays.items()}}}

    def report(self, records: list, summary: dict) -> list[tuple]:
        return [
            ("table_s", summary["pass_s"], "s", f"{self.rays} rays per trace call"),
            ("rays_per_s", statistics.median(r["rays"] / r["pass_s"] for r in records), "1/s", ""),
            ("table_s_at_se_1e-3", summary["time_to_se"], "s",
             f"worst-entry stderr {records[0]['max_se']:.3g}"),
        ] + _pooled_report(summary, "trace_call_s")


WORKLOADS = {w.name: w for w in (AnnualCompare(), TransientThermal(), TraceTable())}
