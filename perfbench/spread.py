"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --workload annual_compare --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median and the interquartile distance as a share of the median,
next to the metric's bound in BENCHMARK.json. Per-run results land in
perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        (BENCH / "out" / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            spread = stats.relative_spread(values)
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER")
            print(f"  {name:<20} median {statistics.median(values):<12.6g} "
                  f"spread {spread:.4f}  bound {bound}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
