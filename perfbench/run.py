"""pipefarm benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload annual_compare --seed 1 --seconds 15 --trace 0

Runs one seeded workload in this process against the pipefarm sources of
the checkout it sits in (`src/`), checks every output, prints a report
with each metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 runs untraced reference passes, then wraps pipefarm's public
functions (see tracing.py), repeats the set-up and the passes, and reports
the per-layer metrics plus the tracing overhead; the traced KPIs must
equal the untraced ones bit for bit.

Results, with the KPI vectors and table arrays a later commit can be
compared against (compare.py), go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 3             # set-ups at least, and until SETUP_MIN_S has passed
SETUP_MIN_S = 2.0
IMPORT_REPS = 5            # imports timed, each in a fresh interpreter
PACE_AROUND_IMPORT = 30    # reference loops timed before and after each import
PROGRAM_MODULES = ("pipefarm.climate", "pipefarm.config", "pipefarm.engine", "pipefarm.tracer")
TRACED_PASSES = 3          # traced passes (at least), and untraced reference passes
WORKLOAD_NAMES = ("annual_compare", "transient_thermal", "trace_table")

# gated end-to-end metrics; every workload reports all of them
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_s_p50", "s"), ("op_s_max", "s"),
              ("time_to_se_1e-3_s", "s"), ("peak_rss_mb", "MB"))


def import_program() -> None:
    """Import pipefarm from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "pipefarm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pipefarm sources under {src}")
    sys.path.insert(0, str(src))
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    pipefarm = sys.modules["pipefarm"]
    if Path(pipefarm.__file__).resolve().parent != (src / "pipefarm").resolve():
        sys.exit(f"perfbench: imported pipefarm from {pipefarm.__file__}, not {src}")


def import_seconds() -> list[float]:
    """Import times of pipefarm at the reference pace, each in a fresh
    interpreter, without its start-up, paced by loops run in that interpreter."""
    code = "\n".join([
        "import math, sys, time",
        f"PACE_LOOPS = {stats.PACE_LOOPS}",
        inspect.getsource(stats.pace_s),
        "sys.path.insert(0, sys.argv[1])",
        f"before = [pace_s() for _ in range({PACE_AROUND_IMPORT})]",
        "t0 = time.perf_counter()",
        f"import {', '.join(PROGRAM_MODULES)}",
        "seconds = time.perf_counter() - t0",
        f"after = [pace_s() for _ in range({PACE_AROUND_IMPORT})]",
        "print(seconds, *before, *after)",
    ])
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=60)
        seconds, *paces = map(float, out.stdout.split())
        times.append(stats.paced(seconds, paces))
    return times


def _size_bytes(text: str) -> int | None:
    """Per-instance bytes of an lscpu cache line such as '4 MiB (2 instances)'."""
    m = re.match(r"\s*([\d.]+)\s*([KMG])i?B?", text)
    if not m:
        return None
    size = float(m.group(1)) * 1024 ** "KMG".index(m.group(2).upper()) * 1024
    n = re.search(r"\((\d+) instances?\)", text)
    return int(size / int(n.group(1))) if n else int(size)


def machine() -> dict:
    import numpy
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None,
            "l2_per_instance_bytes": None, "l3_per_instance_bytes": None,
            "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, LC_ALL="C")).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "Model name":
            info["cpu_model"] = value.strip()
        elif key.strip() == "L2 cache":
            info["l2_per_instance_bytes"] = _size_bytes(value)
        elif key.strip() == "L3 cache":
            info["l3_per_instance_bytes"] = _size_bytes(value)
    return info


def summarize(records: list, fixed: int) -> dict:
    """Pass and op statistics over the passes of a run.

    op_s_p50 is the median of every op time of the run. op_s_max takes each
    op's median over the passes and then the slowest op, so it reads the same
    op however many passes fit in the run. The tail of the report reads the
    first `fixed` passes only, so its sample count and percentile are fixed
    as well.
    """
    passes = [r["pass_s"] for r in records]
    pass_s = statistics.median(passes)
    medians = stats.op_medians(r["op_s"] for r in records) or {"pass": pass_s}
    slowest = max(medians, key=medians.get)
    pooled = [t for r in records[:fixed] for t in r["op_s"].values()] or [pass_s]
    if len(pooled) > stats.TAIL_BEYOND:
        tail_pct, tail_s = stats.tail(pooled)
    else:                                   # too few samples for the ten-beyond rule
        tail_pct, tail_s = None, None
    if "max_se" in records[0]:
        time_to_se = statistics.median(stats.time_at_se(r["pass_s"], r["max_se"])
                                       for r in records if "max_se" in r)
    else:                                   # deterministic: one pass is exact
        time_to_se = pass_s
    op_times = [t for r in records for t in r["op_s"].values()]
    walls = [r.get("wall_pass_s", r["pass_s"]) for r in records]
    return {"pass_s": pass_s, "pass_samples": passes, "op_medians": medians,
            "wall_pass_samples": walls, "wall_pass_s": statistics.median(walls),
            "op_s_p50": statistics.median(op_times or [pass_s]), "op_s_max": medians[slowest],
            "slowest_op": slowest, "pooled": pooled, "pooled_passes": min(fixed, len(records)),
            "tail_pct": tail_pct, "tail_s": tail_s, "op_count": len(op_times),
            "op_seconds": sum(op_times), "time_to_se": time_to_se}


def measure(wl, args, workdir: Path, ledger) -> dict:
    """Untraced run: set-up several times, then passes until the time is up."""
    import workloads
    import_times = import_seconds()
    setup_times = []
    records, elapsed = [], []
    with stats.PACER.running():
        started = time.perf_counter()
        while len(setup_times) < SETUP_REPS or time.perf_counter() - started < SETUP_MIN_S:
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir, ledger)
            setup_times.append(stats.PACER.paced(t0, time.perf_counter()))
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            records.append(workloads.run_pass(wl, state, args.seed, workdir, ledger,
                                              records[0] if records else None))
            elapsed.append(time.perf_counter() - t0)
            if (len(records) >= wl.min_passes
                    and time.perf_counter() + statistics.median(elapsed) > deadline):
                break
    done = [r for r in records if "outputs" in r]     # passes that did not abort
    summary = summarize(done or records, wl.min_passes)
    import_s = statistics.median(import_times)
    setup_s = import_s + statistics.median(setup_times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, "pass_s": summary["pass_s"], "op_s_p50": summary["op_s_p50"],
              "op_s_max": summary["op_s_max"], "time_to_se_1e-3_s": summary["time_to_se"],
              "peak_rss_mb": peak_mb}
    n_ops, n_passes = len(summary["op_medians"]), len(summary["pass_samples"])
    report = [("setup_s", setup_s, "s",
               f"median of {IMPORT_REPS} imports ({import_s:.3f} s) "
               f"+ median of {len(setup_times)} set-ups"),
              ("pass_s", summary["pass_s"], "s", f"median of {n_passes} passes"),
              ("wall_pass_s", summary["wall_pass_s"], "s",
               f"not paced; the reference loop took {statistics.median(stats.PACER.took) * 1e3:.3f}"
               f" ms (median of {len(stats.PACER.took)}), {stats.PACE_REF_S * 1e3:g} ms at the"
               " reference pace"),
              ("op_s_p50", summary["op_s_p50"], "s",
               f"median of {summary['op_count']} op times, {n_ops} ops"),
              ("op_s_max", summary["op_s_max"], "s",
               f"slowest op: {summary['slowest_op']}, median of {n_passes} passes")]
    report += wl.report(done, summary) if done else []
    report += [("peak_rss_mb", peak_mb, "MB", "ru_maxrss")]
    return {"metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END},
            "report": report, "import_samples": import_times, "setup_samples": setup_times,
            "summary": summary,
            "outputs": done[0]["outputs"] if done else None, "identical": True}


def measure_traced(wl, args, workdir: Path, ledger) -> dict:
    """Untraced reference passes, then a traced set-up and traced passes.

    The time budget starts after the traced set-up; the overhead is the
    median traced pass minus the median untraced one.
    """
    import tracing
    import workloads
    rec = tracing.SpanRecorder()
    traced = []
    with stats.PACER.running():
        state = wl.setup(args.seed, workdir, ledger)
        ref = workloads.run_pass(wl, state, args.seed, workdir, ledger, None)
        refs = [ref] + [workloads.run_pass(wl, state, args.seed, workdir, ledger, ref)
                        for _ in range(TRACED_PASSES - 1)]
        with tracing.installed(rec) as missing:
            rec.begin_phase("setup")
            state = wl.setup(args.seed, workdir, ledger)
            rec.begin_phase("passes")
            deadline = time.perf_counter() + args.seconds
            while (len(traced) < TRACED_PASSES
                   or time.perf_counter() + traced[-1]["wall_pass_s"] <= deadline):
                traced.append(workloads.run_pass(wl, state, args.seed, workdir, ledger, ref))
    identical = all(r["fingerprint"] == ref["fingerprint"] for r in refs + traced)
    untraced_s = statistics.median(r["pass_s"] for r in refs)
    overhead = statistics.median(r["pass_s"] for r in traced) - untraced_s
    values, reasons = tracing.layer_metrics(
        rec, missing, len(traced),
        {"overhead_s": overhead, "overhead_share": overhead / untraced_s,
         "ray_state_bytes": wl.rays * 3 * 8})
    rec.save(OUT / f"{wl.name}.spans.npz")
    units = {m[0]: m[1] for m in tracing.METRICS}
    report = [(k, v, units[k], reasons.get(k, "")) for k, v in values.items()]
    report.append(("tracing.traced_equals_untraced", identical, "",
                   f"{len(traced)} traced, {len(refs)} untraced passes"))
    return {"metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            "report": report, "null_reasons": reasons, "missing_spans": missing,
            "counts_by_scenario": tracing.counts_by_scenario(rec, "passes", len(traced)),
            "untraced_pass_s": [r["pass_s"] for r in refs],
            "traced_pass_s": [r["pass_s"] for r in traced],
            "outputs": ref.get("outputs"), "identical": identical}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ledger = workloads.Ledger()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        if args.trace:
            res = measure_traced(wl, args, Path(tmp), ledger)
        else:
            res = measure(wl, args, Path(tmp), ledger)

    info = machine()
    rays = wl.rays
    if rays:
        info["ray_state_bytes"] = rays * 3 * 8   # computed: one (rays, 3) float64 array
    correct = ledger.failed == 0 and res["identical"]
    doc = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "machine": info, "correct": correct,
           "attempted": ledger.attempted, "failed": ledger.failed,
           "failures": ledger.failures, **{k: v for k, v in res.items() if k != "report"},
           "report": [list(r) for r in res["report"]]}
    (OUT / f"{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(doc, indent=1, default=float))

    for line in ledger.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"# {wl.name} seed={args.seed} trace={args.trace} on {info['cpu_model']}, "
          f"nproc={info['nproc']}, python {info['python']}, numpy {info['numpy']}")
    if rays:
        l2 = info["l2_per_instance_bytes"]
        print(f"# ray state: {rays} rays x 3 x 8 B = {rays * 24} B per array (computed)"
              f"{f' = {rays * 24 / l2:.2f} of the {l2} B L2 per core' if l2 else ''}")
    for name, value, unit, note in res["report"]:
        shown = "null" if value is None else (f"{value:.6g}" if isinstance(value, float)
                                              else str(value))
        print(f"{name:<34} {shown:>14} {unit:<6} {note}")
    print(f"{'ops_failed':<34} {ledger.failed:>14} {'':<6} of {ledger.attempted} attempted")
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
