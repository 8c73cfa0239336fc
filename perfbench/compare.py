"""Compare the outputs recorded in two benchmark results files.

    python3 perfbench/compare.py perfbench/out/annual_compare-s1-t0.json other.json

Prints the largest relative difference over every KPI, aggregate and
optical-table entry, and whether all of them stay within a relative
1e-12. Run the same workload and seed on two commits to check that a
change kept the outputs. The verdict is reported only; the exit code is 0
whenever both files could be compared.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

RTOL = 1e-12


def flatten(node, prefix: str = "") -> dict[str, float]:
    if isinstance(node, dict):
        out = {}
        for k, v in node.items():
            out.update(flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(node, list):
        out = {}
        for i, v in enumerate(node):
            out.update(flatten(v, f"{prefix}{i}."))
        return out
    return {prefix.rstrip("."): float(node)}


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) and scale > 0 else math.inf


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a")
    p.add_argument("b")
    args = p.parse_args(argv)
    docs = [json.loads(open(path).read()) for path in (args.a, args.b)]
    if docs[0]["workload"] != docs[1]["workload"] or docs[0]["seed"] != docs[1]["seed"]:
        print("warning: different workload or seed; outputs are not expected to match")
    a, b = (flatten(d["outputs"]) for d in docs)
    only = sorted(set(a) ^ set(b))
    diffs = sorted(((rel_diff(a[k], b[k]), k) for k in set(a) & set(b)), reverse=True)
    worst = diffs[0][0] if diffs else 0.0
    over = [d for d in diffs if d[0] > RTOL]
    print(f"{len(diffs)} values compared, largest relative difference {worst:.3g}")
    for d, k in over[:10]:
        print(f"  {k}: {a[k]!r} vs {b[k]!r} ({d:.3g})")
    for k in only[:10]:
        print(f"  only in one file: {k}")
    verdict = "within" if not over and not only else "EXCEEDS"
    print(f"{verdict} rtol {RTOL:g}: {len(over)} over, {len(only)} unmatched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
