"""Command-line entry point. It reads files, builds one `engine.Study` for
any runs and writes what the engine returns; `economics` decides every cost.
`config` reads every YAML file (scenario and compare) under one set of key,
number, path and include rules. Each study fits its own LUE factor to the
benchmark yield, so no command reads a calibration file.

Subcommands: trace-optics (geometry -> efficiency table, its sidecar and
flux maps, under --rays and --seed; runs read the table through
`optics.table`), simulate (one scenario -> result files), compare (a
`CompareSet`'s scenarios -> comparison tables; light_cost.csv, each variant
under its scenario's config when the set has one, else the first config;
and each non-Bench scenario's price/carbon payback grid and break-even pipe
cost), sunpath (solar position tables). Outputs are delimited text plus
JSON, which `engine.write_json` writes with non-finite numbers as null.
Every JSON file carries `engine.provenance`'s tool version and config hash
(comparison.json and breakeven.json one hash per config, the resolved
config paths and the study's LUE fit: its scale, yields and table); kpis.json,
comparison.json and breakeven.json also carry the climate hash and LUE
scale, and only the trace-optics sidecars the tracer's rays and seed. CSV
files carry none of these. Errors, unwritable outputs included, exit nonzero
with a one-line JSON record on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .climate import ClimateError, sunpath_table
from .config import CompareSet, ConfigError, load_scenario_config, load_set
from .economics import light_cost_comparison
from .engine import CalibrationError, SimulationError, Study, compare_scenarios, \
    light_cost_inputs, provenance, scenario_sweep, write_csv, write_json
from .tracer import DEFAULT_RAYS, DEFAULT_SEED, MODEL_REVISION, build_efficiency_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_RUNTIME = 5


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "code": code, "detail": message},
                                sort_keys=True) + "\n")
    return code


# -- subcommands ---------------------------------------------------------------

def _cmd_trace_optics(args) -> int:
    cfg = load_scenario_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    table, fluxmaps = build_efficiency_table(cfg.lp_geometry, rays=args.rays, seed=args.seed,
                                             collect_fluxmaps=not args.no_fluxmaps)
    # each file with its `.csv.json` sidecar; the table's makes runs read it as traced
    files = {f"fluxmap_alt{int(alt):02d}.csv": (fm, dict(
        pitch_m=fm.pitch_m, extent_m=fm.extent_m, shape=list(fm.cells.shape), altitude=alt))
        for alt, fm in fluxmaps.items() if int(alt) % 15 == 0}
    files["efficiency_table.csv"] = (table, dict(
        provenance="traced", lp=dataclasses.asdict(cfg.lp_geometry),
        geometry_hash=table.geometry_hash, model_revision=MODEL_REVISION,
        bound_flags=table.bound_violations()))
    for name, (data, meta) in files.items():
        write_csv(outdir / name, *data.csv_columns())
        write_json(outdir / f"{name}.json",
                   provenance(cfg, rays=args.rays, seed=args.seed, **meta))
    print(f"traced {len(table.alt_grid)} altitudes and "
          f"{table.eta_diff_th.size} diffuse entries -> {outdir}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = load_scenario_config(args.config)
    if args.scenario:
        cfg = dataclasses.replace(cfg, scenario=args.scenario)
    result = Study([cfg]).run(cfg)
    files = result.save(args.out)
    k = result.kpis
    print(f"{cfg.scenario} (PPE {cfg.ppe:g}): yield {k.yield_kg:.0f} kg, "
          f"electricity {k.electricity_mwh:.2f} MWh, "
          f"SEEC {k.seec_kwh_per_kg if k.seec_kwh_per_kg is None else round(k.seec_kwh_per_kg, 3)} kWh/kg")
    for f in files:
        print(f"  wrote {f}")
    return EXIT_OK


def _write_rows(path: Path, rows: list[dict]) -> None:
    """One CSV from a list of same-keyed dicts, keys as the header (an empty
    line for no rows: a study of Bench alone sweeps no scenario)."""
    header = list(rows[0]) if rows else []
    write_csv(path, header, [[r[h] for r in rows] for h in header])


def _cmd_compare(args) -> int:
    study_set = load_set(args.config, CompareSet)
    configs = []
    for i, path in enumerate(study_set.scenarios):
        if not path.is_file():
            raise ConfigError(f"{args.config}: 'scenarios[{i}]' names no config file: {path}")
        configs.append(load_scenario_config(path))
    study = Study(configs)
    results = study.results()
    rows = compare_scenarios(results)
    grid = study_set.grid
    breakeven, pbt_rows = scenario_sweep(results, grid.electricity_usd_per_mwh,
                                         grid.carbon_usd_per_t, study_set.target_pbt_years)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_rows(outdir / "comparison.csv", rows)
    meta = provenance(configs=[str(p) for p in study_set.scenarios],
                      config_hashes=[cfg.content_hash() for cfg in configs],
                      climate_hash=study.climate.content_hash(),
                      lue_table=str(configs[0].lue_table_path), **study.calibration)
    write_json(outdir / "comparison.json", {"rows": rows, "metadata": meta})
    # each variant under its own scenario's config (the first, if repeated)
    own = {cfg.scenario: light_cost_inputs(cfg) for cfg in reversed(configs)}
    _write_rows(outdir / "light_cost.csv",
                light_cost_comparison(*light_cost_inputs(configs[0]), own))
    _write_rows(outdir / "pbt_grid.csv", pbt_rows)
    write_json(outdir / "breakeven.json", {"breakeven": breakeven, "metadata": meta})
    print(f"compared {len(rows)} scenarios, swept {len(pbt_rows)} price points -> {outdir}")
    return EXIT_OK


def _cmd_sunpath(args) -> int:
    cfg = load_scenario_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_rows(outdir / "sunpath.csv", sunpath_table(cfg.site))
    write_json(outdir / "sunpath_meta.json",
               provenance(cfg, latitude=cfg.site.latitude, longitude=cfg.site.longitude))
    print(f"sun-path table for lat {cfg.site.latitude:g} -> {outdir / 'sunpath.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipefarm",
        description="Techno-economic simulator for a light-pipe daylit "
                    "container vertical farm")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", required=True, help="scenario YAML")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("trace-optics", help="ray-trace the efficiency table")
    common(p)
    p.add_argument("--rays", type=int, default=DEFAULT_RAYS, help="rays per trace call")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="tracer RNG seed")
    p.add_argument("--no-fluxmaps", action="store_true")
    p.set_defaults(func=_cmd_trace_optics)

    p = sub.add_parser("simulate", help="run one scenario for a year")
    common(p)
    p.add_argument("--scenario", default=None, help="override the scenario id")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="run and tabulate a scenario set, with its "
                                       "payback grid and break-even pipe costs")
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sunpath", help="emit solar position tables for the site")
    common(p)
    p.set_defaults(func=_cmd_sunpath)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return _fail(EXIT_USAGE, "usage", "no subcommand given")
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except (FileNotFoundError, ClimateError) as exc:      # an input the config names
        return _fail(EXIT_MISSING, "missing-input", f"{args.config}: {exc}")
    except (SimulationError, CalibrationError) as exc:
        return _fail(EXIT_RUNTIME, "runtime", str(exc))
    except OSError as exc:
        return _fail(EXIT_RUNTIME, "io", str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))


if __name__ == "__main__":
    sys.exit(main())
