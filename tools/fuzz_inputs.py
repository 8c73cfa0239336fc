"""Seeded input fuzzer: one-leaf mutants of the shipped inputs, run through
`pipefarm simulate` or `compare` in process.

Each mutant changes one thing in a scratch copy of `configs/` and `data/`:
either one key that a scenario file may set (the loader's key tables, a list
or the climate column map by entry), written as an override into
`configs/base.yaml` and set to NaN, +inf, -inf, -1, 0, 1e30, a string, a
boolean, null, a list or a mapping, or one cell that a table reader reads
in `data/lp_efficiency_reference.csv` (the optical table) or
`data/lue_lettuce_default.csv` (the LUE table), set to the text of those
numbers, a word or a blank. It then runs `pipefarm.cli.main(["simulate",
...])` on a shipped scenario file drawn from those that leave the mutated
key to `base.yaml` (a piped one for an optical-table cell). After those
`--count` mutants come a fifth as many of the two shipped compare files:
one key of `CompareSet` (a list by entry, `grid` by its `PriceGrid` fields)
set in the file itself to one of the same values, and the file run by
`compare`. A mutant passes when:

- nothing raises out of `main` (a traceback);
- a refusal exits 3 or 4, and its message names the file (the scenario
  file run, or the mutated file) and the mutated key or table line;
- a non-finite value never exits 0.

The outcomes, sorted, go to one JSON file with the seed, the count, the
exit codes and every failed check.

Usage:
    PYTHONPATH=src python tools/fuzz_inputs.py --seed 11 --count 260 \\
        --out out/fuzz_inputs.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import random
import re
import shutil
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import yaml

from pipefarm import config
from pipefarm.cli import main
from pipefarm.climate import CLIMATE_COLUMNS
from pipefarm.crop import LUE_COLUMNS
from pipefarm.engine import write_json
from pipefarm.optics import _ROW_CELLS as READ_CELLS    # the cells the table reader reads

ROOT = Path(__file__).resolve().parent.parent
TABLE, LUE = "lp_efficiency_reference.csv", "lue_lettuce_default.csv"
DATA = ("dubai_hourly_synthetic.csv", LUE, TABLE)
SCENARIOS = ("bench.yaml", "bench_ppe20.yaml", "bench_ppe30.yaml", "gh.yaml", "lp_nl.yaml",
             "lp_min_200.yaml", "lp_min_250.yaml", "lp_dim.yaml", "lp_dim_ir_98.yaml",
             "lp_dim_ir_90.yaml", "lp_dim_ec.yaml")
PIPED = tuple(s for s in SCENARIOS if s.startswith("lp_"))
YAML_VALUES = (math.nan, math.inf, -math.inf, -1, 0, 1e30, "fuzz", True, None, [1.0],
               {"fuzz": 1.0})
CELL_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e30", "fuzz", "")
TABLE_SHARE = 0.2           # share of the mutants that change an optical-table cell
LUE_SHARE = 0.1             # and that change a LUE-table cell
STUDY_SHARE = 0.2           # compare-file mutants, per --count mutant
# the compare files mutated in place
STUDIES = ("compare_all.yaml", "sweep_lp_dim_ir.yaml")
DEFAULT = config.ScenarioConfig()
# keys mutated entry by entry, with the value each mutant starts from
COMPOSITE = {("chamber", "surfaces"): [dataclasses.asdict(s) for s in DEFAULT.chamber.surfaces],
             ("photoperiod",): list(DEFAULT.photoperiod),
             ("climate_columns",): {name: name for name in CLIMATE_COLUMNS}}
# the tables mutated cell by cell: the file, the cells its reader reads from
# a row, and the scenario files that read it
TABLES = {"table": (TABLE, lambda row: READ_CELLS[row["kind"]], PIPED),
          "lue": (LUE, lambda row: LUE_COLUMNS, SCENARIOS)}


def leaves(node, key: str = ""):
    """(dotted key, path of indices) of every scalar leaf, lists by index."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        yield key, ()
        return
    for k, v in items:
        sub = f"{key}[{k}]" if isinstance(node, list) else f"{key}.{k}" if key else str(k)
        for name, path in leaves(v, sub):
            yield name, (k, *path)


def settable() -> list[tuple[str, tuple]]:
    """(dotted key, path) of every key a scenario file may set, a composite
    key by each leaf of its starting value."""
    keys = set(config._RENAMED) | config._TOP_LEVEL
    for section, name in config._SECTIONS.items():
        keys |= {f"{section}.{f.name}" for f in dataclasses.fields(getattr(DEFAULT, name))}
    out = []
    for key in sorted(keys):
        path = tuple(key.split("."))
        out += ([(name, path + sub) for name, sub in leaves(COMPOSITE[path], key)]
                if path in COMPOSITE else [(key, path)])
    return out


def study_keys(name: str) -> list[tuple[str, tuple]]:
    """(dotted key, path) of every `CompareSet` field, a section by its own
    fields and a list by the entries the shipped file gives it."""
    doc = yaml.safe_load((ROOT / "configs" / name).read_text())
    out = []
    for f in dataclasses.fields(config.CompareSet):
        for path in ([(f.name, g.name) for g in dataclasses.fields(f.default)]
                     if dataclasses.is_dataclass(f.default) else [(f.name,)]):
            node = doc
            for k in path:
                node = node.get(k) if isinstance(node, dict) else None
            out += [(key, path + sub) for key, sub in leaves(node, ".".join(path))]
    return out


def override(path: tuple, value) -> dict:
    """The mapping that sets the leaf at `path` to `value`; a composite key's
    leaf sets its whole starting value with that leaf replaced."""
    head = next((h for h in COMPOSITE if path[:len(h)] == h), None)
    if head is not None:
        whole = json.loads(json.dumps(COMPOSITE[head]))    # a deep copy
        node = whole
        *inner, last = path[len(head):]
        for k in inner:
            node = node[k]
        node[last] = value
        path, value = head, whole
    for k in reversed(path):
        value = {k: value}
    return value


def sets(doc: dict, path: tuple) -> bool:
    """Whether a scenario file's own mapping sets the leaf at `path` or above it."""
    node = doc
    for k in path:
        if not isinstance(node, dict):
            return True                 # a list or value above the leaf
        if k not in node:
            return False
        node = node[k]
    return True


def is_non_finite(value) -> bool:
    try:
        return not isinstance(value, bool) and not math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def draw(rng: random.Random, count: int, tables: dict) -> list[dict]:
    """`count` distinct mutants, each with its scenario file."""
    own = {s: yaml.safe_load((ROOT / "configs" / s).read_text()) or {} for s in SCENARIOS}
    keys = [(k, p) for k, p in settable() if not all(sets(own[s], p) for s in SCENARIOS)]
    seen, out = set(), []
    while len(out) < count:
        share = rng.random()
        if share < TABLE_SHARE + LUE_SHARE:
            target = "table" if share < TABLE_SHARE else "lue"
            _, cells, configs = TABLES[target]
            rows = tables[target][0]
            line = rng.randrange(len(rows))
            column = rng.choice(cells(rows[line]))
            value = rng.choice(CELL_VALUES)
            mutant = {"target": target, "key": f"line {line + 2}", "column": column,
                      "value": value, "config": rng.choice(configs)}
        else:
            key, path = rng.choice(keys)
            value = rng.choice(YAML_VALUES)
            free = [s for s in SCENARIOS if not sets(own[s], path)]
            mutant = {"target": "yaml", "key": key, "path": list(path), "value": value,
                      "config": rng.choice(free)}
        ident = (mutant["target"], mutant["key"], mutant.get("column"), repr(value))
        if ident not in seen:
            seen.add(ident)
            out.append(mutant)
    studies = [(name, key, path) for name in STUDIES for key, path in study_keys(name)]
    while len(out) < count + round(count * STUDY_SHARE):
        name, key, path = rng.choice(studies)
        value = rng.choice(YAML_VALUES)
        if (name, key, repr(value)) not in seen:
            seen.add((name, key, repr(value)))
            out.append({"target": "study", "key": key, "path": list(path), "value": value,
                        "config": name})
    return out


def apply(mutant: dict, tree: Path, base: dict, tables: dict) -> None:
    """Write the mutated file into the scratch tree."""
    if mutant["target"] == "study":
        path = tree / "configs" / mutant["config"]
        doc = yaml.safe_load(path.read_text())
        node = doc
        *inner, last = mutant["path"]
        for k in inner:
            node = node.setdefault(k, {}) if isinstance(node, dict) else node[k]
        node[last] = mutant["value"]
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        return
    if mutant["target"] == "yaml":
        doc = config._deep_merge(base, override(tuple(mutant["path"]), mutant["value"]))
        (tree / "configs" / "base.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))
        return
    table_rows, header = tables[mutant["target"]]
    rows = [dict(r) for r in table_rows]
    rows[int(mutant["key"].split()[1]) - 2][mutant["column"]] = mutant["value"]
    with open(tree / "data" / TABLES[mutant["target"]][0], "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def run(mutant: dict, tree: Path) -> dict:
    """One run of the mutant and the checks it fails."""
    err, out = io.StringIO(), io.StringIO()
    outdir = tree / "out"
    config = tree / "configs" / mutant["config"]
    record = {k: v for k, v in mutant.items() if k != "path"}
    record["value"] = repr(mutant["value"])
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        try:
            command = "compare" if mutant["target"] == "study" else "simulate"
            code = main([command, "--config", str(config), "--out", str(outdir)])
        except (Exception, SystemExit) as exc:      # a traceback, whatever it is
            code = None
            record["traceback"] = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(outdir, ignore_errors=True)
    record["exit"] = code
    record["warnings"] = sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    lines = err.getvalue().strip().splitlines()
    detail = json.loads(lines[-1])["detail"] if code and lines else ""
    record["detail"] = detail
    problems = []
    if code is None:
        problems.append("raised out of main")
    elif code not in (0, 3, 4):
        problems.append(f"refused with exit {code}, not 3 or 4")
    if code:
        files = {"yaml": (mutant["config"], "base.yaml"), "table": (TABLE,), "lue": (LUE,),
                 "study": (mutant["config"],)}[mutant["target"]]
        if not any(f in detail for f in files):
            problems.append("the refusal names no mutated or run file")
        if not re.search(rf"{re.escape(mutant['key'])}(?!\w)", detail):
            problems.append(f"the refusal does not name {mutant['key']}")
    if code == 0 and is_non_finite(mutant["value"]):
        problems.append("a non-finite value ran to exit 0")
    record["problems"] = problems
    return record


def fuzz(seed: int, count: int) -> dict:
    base = yaml.safe_load((ROOT / "configs" / "base.yaml").read_text())
    tables = {}
    for target, (name, _, _) in TABLES.items():
        with open(ROOT / "data" / name, newline="") as fh:
            reader = csv.DictReader(fh)
            tables[target] = list(reader), reader.fieldnames
    mutants = draw(random.Random(seed), count, tables)
    records = []
    with tempfile.TemporaryDirectory(prefix="fuzz_inputs_") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "configs", tree / "configs")
        (tree / "data").mkdir()
        for name in DATA:
            shutil.copy(ROOT / "data" / name, tree / "data" / name)
        originals = {p: p.read_bytes() for p in (tree / "configs" / "base.yaml",
                                                  tree / "data" / TABLE, tree / "data" / LUE,
                                                  *(tree / "configs" / n for n in STUDIES))}
        for mutant in mutants:
            apply(mutant, tree, base, tables)
            records.append(run(mutant, tree))
            for path, blob in originals.items():
                path.write_bytes(blob)
    records.sort(key=lambda r: (r["target"], r["key"], r.get("column") or "", r["value"],
                                r["config"]))
    return {"seed": seed, "count": len(records),
            "exits": {str(k): v for k, v in sorted(Counter(
                "traceback" if r["exit"] is None else r["exit"] for r in records).items(),
                key=lambda kv: str(kv[0]))},
            "failed": [r for r in records if r["problems"]], "outcomes": records}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--count", type=int, default=260,
                        help="number of scenario and table mutants")
    parser.add_argument("--out", default="out/fuzz_inputs.json", help="JSON report")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    report = fuzz(args.seed, args.count)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, report)
    print(f"{report['count']} mutants (seed {report['seed']}): exits {report['exits']}, "
          f"{len(report['failed'])} failed a check -> {out}")
