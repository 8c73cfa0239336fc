"""Command-line entry point.

Subcommands: trace-optics (geometry -> efficiency table + flux maps),
calibrate (fit the LUE factor to the benchmark yield), simulate (one
scenario -> result files), compare (scenario set -> comparison tables),
sweep (price/carbon grids and a break-even unit cost), sunpath (solar
position tables). Outputs are delimited text plus JSON. Every JSON file
carries the tool version and config hash (comparison.json one hash per
config, breakeven.json the bench config's too); kpis.json,
calibration.json, comparison.json and breakeven.json also carry the
climate hash and LUE scale. CSV files carry neither. Errors exit nonzero
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
from .climate import ClimateError, load_climate, sunpath_table
from .config import ConfigError, ScenarioConfig, load_config_mapping, load_scenario_config
from .economics import break_even_unit_cost, light_cost_comparison, \
    sensitivity_sweep
from .engine import CalibrationError, SimulationError, Study, calibrate_lue_scale, \
    compare_scenarios, load_lue_table, scenario_delta, write_csv
from .tracer import build_efficiency_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_MISSING = 4
EXIT_RUNTIME = 5


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "code": code, "detail": message},
                                sort_keys=True) + "\n")
    return code


def _meta(cfg: Optional[ScenarioConfig] = None, **extra) -> dict:
    meta = {"version": __version__, **extra}
    if cfg is not None:
        meta.update(config_hash=cfg.content_hash(), scenario=cfg.scenario, seed=cfg.seed)
    return meta


def _load_cfg(args, path=None) -> ScenarioConfig:
    """The config at `path` (default --config) with the command's overrides."""
    cfg = load_scenario_config(path or args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "scenario", None):
        cfg = dataclasses.replace(cfg, scenario=args.scenario)
    return cfg


# -- subcommands ---------------------------------------------------------------

def _cmd_trace_optics(args) -> int:
    cfg = _load_cfg(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rays = args.rays or cfg.rays
    table, fluxmaps = build_efficiency_table(
        cfg.lp_geometry, rays=rays, seed=cfg.seed, altitude_step=cfg.altitude_step,
        tilt_step=cfg.tilt_step, bounce_cap=cfg.bounce_cap,
        collect_fluxmaps=not args.no_fluxmaps)
    table.export_csv(outdir / "efficiency_table.csv")
    for alt, fm in fluxmaps.items():
        if int(alt) % 15 == 0:
            fm.export(outdir / f"fluxmap_alt{int(alt):02d}.csv",
                      meta=_meta(cfg, altitude=alt, rays=rays))
    (outdir / "trace_meta.json").write_text(json.dumps(
        _meta(cfg, rays=rays, geometry_hash=cfg.lp_geometry.content_hash(),
              bound_flags=table.bound_violations()), indent=2, sort_keys=True))
    print(f"traced {len(table.alt_grid)} altitudes and "
          f"{table.eta_diff_th.size} diffuse entries -> {outdir}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    # runs before a calibration exists, so it loads its climate itself
    cfg = dataclasses.replace(_load_cfg(args), scenario="Bench")
    if cfg.climate_path is None:
        raise ConfigError("no climate file configured")
    climate = load_climate(cfg.climate_path, cfg.climate_columns)
    calib = calibrate_lue_scale(cfg, climate, None, load_lue_table(cfg),
                                target_kg=args.target)
    calib.update(_meta(cfg))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(calib, indent=2, sort_keys=True))
    print(f"lue_scale = {calib['lue_scale']:.6f} "
          f"(yield {calib['achieved_yield_kg']:.1f} kg) -> {out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    result = Study([cfg]).run(cfg)
    result.metadata["calibrated"] = cfg.calibration_path is not None
    files = result.save(args.out)
    k = result.kpis
    print(f"{cfg.scenario} (PPE {cfg.ppe:g}): yield {k.yield_kg:.0f} kg, "
          f"electricity {k.electricity_mwh:.2f} MWh, "
          f"SEEC {k.seec_kwh_per_kg if k.seec_kwh_per_kg is None else round(k.seec_kwh_per_kg, 3)} kWh/kg")
    for f in files:
        print(f"  wrote {f}")
    return EXIT_OK


# keys a compare or sweep file may set: None for a value, else the keys of
# that section; a key left out keeps its default
_COMPARE_KEYS = {"scenarios": None}
_SWEEP_KEYS = {"scenario_config": None, "bench_config": None, "target_pbt_years": None,
               "grid": {"electricity_usd_per_mwh", "carbon_usd_per_t"}}


def _load_strict(path, keys: dict) -> dict:
    """The file's merged mapping; a key that `keys` does not list is an error
    naming the file."""
    doc = load_config_mapping(path)
    for key, value in doc.items():
        if key not in keys:
            raise ConfigError(f"{path}: unknown key {key!r}")
        if keys[key] is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: section {key!r} must be a mapping")
        for sub in value:
            if sub not in keys[key]:
                raise ConfigError(f"{path}: unknown key {f'{key}.{sub}'!r}")
    return doc


def _price_list(path, grid: dict, key: str, default) -> list[float]:
    values = grid.get(key, default)
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{path}: {f'grid.{key}'!r} must be a non-empty list of prices")
    return [float(x) for x in values]


def _write_rows(path: Path, rows: list[dict]) -> None:
    """One CSV from a list of same-keyed dicts, keys as the header."""
    header = list(rows[0])
    write_csv(path, header, [[r[h] for r in rows] for h in header])


def _cmd_compare(args) -> int:
    doc = _load_strict(args.config, _COMPARE_KEYS)
    base_dir = Path(args.config).parent
    paths = doc.get("scenarios")
    if not paths or not isinstance(paths, list):
        raise ConfigError("compare config needs a 'scenarios' list of config paths")
    study = Study([_load_cfg(args, base_dir / p) for p in paths])
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = compare_scenarios(study.results())
    _write_rows(outdir / "comparison.csv", rows)
    meta = _meta(None, configs=[str(p) for p in paths],
                 config_hashes=[cfg.content_hash() for cfg in study.configs],
                 climate_hash=study.climate.content_hash(), lue_scale=study.lue.scale)
    (outdir / "comparison.json").write_text(json.dumps({"rows": rows, "metadata": meta},
                                                       indent=2, sort_keys=True, default=str))
    _write_rows(outdir / "light_cost.csv", light_cost_comparison(study.configs[0].costs))
    print(f"compared {len(rows)} scenarios -> {outdir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = _load_strict(args.config, _SWEEP_KEYS)
    base_dir = Path(args.config).parent
    paths = (doc.get("scenario_config"), doc.get("bench_config"))
    if not all(paths):
        raise ConfigError("sweep config needs scenario_config and bench_config paths")
    grid = doc.get("grid", {})
    el_prices = _price_list(args.config, grid, "electricity_usd_per_mwh", (100, 200, 350))
    co2_prices = _price_list(args.config, grid, "carbon_usd_per_t", (0, 50, 100))
    target_pbt = float(doc.get("target_pbt_years", 10.0))
    study = Study([_load_cfg(args, base_dir / p) for p in paths])
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    scen, bench = study.results()
    delta = scenario_delta(scen, bench)
    capex, d_el, d_yield = (delta["delta_capex_usd"], delta["delta_electricity_mwh"],
                            delta["delta_yield_kg"])

    rows = sensitivity_sweep(capex["total"], d_el, d_yield, scen.config.costs,
                             el_prices, co2_prices)
    _write_rows(outdir / "pbt_grid.csv", rows)

    # break-even on the per-pipe hardware stack (pipe + auxiliaries + any
    # filter/film), holding the LED and HVAC sizing deltas fixed; a scenario
    # with no per-pipe hardware has no break-even
    n = scen.config.n_pipes
    pipe_stack = capex["lp"] + capex["ir_filter"] + capex["ec_film"]
    unit_now = pipe_stack / n if n else 0.0
    breakeven = {}
    for row in rows:
        be = None
        if unit_now > 0.0:
            be = break_even_unit_cost(row["annual_savings_usd"], capex["total"] - pipe_stack,
                                      n, target_pbt)
        breakeven[f"el{row['electricity_usd_per_mwh']:g}_co2{row['carbon_usd_per_t']:g}"] = {
            "unit_usd": be,
            "reduction_needed": None if be is None else max(0.0, 1.0 - be / unit_now),
        }
    doc_out = {
        "scenario": scen.config.scenario,
        **delta,
        "target_pbt_years": target_pbt,
        "per_pipe_hardware_usd": unit_now,
        "break_even_per_pipe_usd": breakeven,
        "metadata": _meta(scen.config, bench_config_hash=bench.config.content_hash(),
                          climate_hash=study.climate.content_hash(),
                          lue_scale=study.lue.scale),
    }
    (outdir / "breakeven.json").write_text(json.dumps(doc_out, indent=2,
                                                      sort_keys=True))
    print(f"swept {len(rows)} price points -> {outdir}")
    return EXIT_OK


def _cmd_sunpath(args) -> int:
    cfg = _load_cfg(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_rows(outdir / "sunpath.csv", sunpath_table(cfg.site))
    (outdir / "sunpath_meta.json").write_text(json.dumps(
        _meta(cfg, latitude=cfg.site.latitude, longitude=cfg.site.longitude),
        indent=2, sort_keys=True))
    print(f"sun-path table for lat {cfg.site.latitude:g} -> {outdir / 'sunpath.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipefarm",
        description="Techno-economic simulator for a light-pipe daylit "
                    "container vertical farm")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="scenario YAML")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")

    p = sub.add_parser("trace-optics", help="ray-trace the efficiency table")
    common(p)
    p.add_argument("--rays", type=int, default=None)
    p.add_argument("--no-fluxmaps", action="store_true")
    p.set_defaults(func=_cmd_trace_optics)

    p = sub.add_parser("calibrate", help="fit the LUE factor to the benchmark yield")
    common(p)
    p.add_argument("--target", type=float, default=9221.0)
    p.set_defaults(func=_cmd_calibrate)
    p.set_defaults(out="out/calibration.json")

    p = sub.add_parser("simulate", help="run one scenario for a year")
    common(p)
    p.add_argument("--scenario", default=None, help="override the scenario id")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="run and tabulate a scenario set")
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="price/carbon payback grid and break-even cost")
    common(p)
    p.set_defaults(func=_cmd_sweep)

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
    except (FileNotFoundError, ClimateError) as exc:
        return _fail(EXIT_MISSING, "missing-input", str(exc))
    except (SimulationError, CalibrationError) as exc:
        return _fail(EXIT_RUNTIME, "runtime", str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))


if __name__ == "__main__":
    sys.exit(main())
