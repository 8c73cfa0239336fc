"""Command-line entry point.

Subcommands: trace-optics (geometry -> efficiency table + flux maps),
calibrate (fit the LUE factor to the benchmark yield), simulate (one
scenario -> result files), compare (scenario set -> comparison tables),
sweep (price/carbon grids and a break-even unit cost), sunpath (solar
position tables). Outputs are delimited text plus JSON; every file embeds
the config hash and tool version. Errors exit nonzero with a one-line
JSON record on stderr.
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
from .engine import CalibrationError, SimulationError, calibrate_lue_scale, \
    compare_scenarios, load_calibration, load_lue_table, prepare_efficiency_table, \
    run_scenario, scenario_delta, solar_angles, write_csv
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
    meta = {"version": __version__}
    if cfg is not None:
        meta["config_hash"] = cfg.content_hash()
        meta["scenario"] = cfg.scenario
        meta["seed"] = cfg.seed
    meta.update(extra)
    return meta


def _load_cfg(args) -> ScenarioConfig:
    cfg = load_scenario_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "scenario", None):
        cfg = dataclasses.replace(cfg, scenario=args.scenario)
    return cfg


def _climate_for(cfg: ScenarioConfig):
    if cfg.climate_path is None:
        raise ConfigError("no climate file configured")
    return load_climate(cfg.climate_path, cfg.climate_columns)


def _runnable(cfg: ScenarioConfig):
    """Shared simulate/compare preparation: climate, table, calibrated LUE."""
    climate = _climate_for(cfg)
    table = None
    if cfg.uses_light_pipes:
        table = prepare_efficiency_table(cfg)
    scale = 1.0
    calibrated = False
    if cfg.calibration_path is not None and Path(cfg.calibration_path).exists():
        calib = load_calibration(cfg.calibration_path)
        if calib.get("climate_hash") not in (None, climate.content_hash()):
            raise SimulationError("calibration was fitted against a different "
                                  "climate year; re-run calibrate")
        scale = float(calib["lue_scale"])
        calibrated = True
    lue = load_lue_table(cfg, scale=scale)
    return climate, table, lue, calibrated


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
    cfg = _load_cfg(args)
    cfg = dataclasses.replace(cfg, scenario="Bench")
    climate = _climate_for(cfg)
    table = prepare_efficiency_table(cfg) if cfg.uses_light_pipes else None
    lue = load_lue_table(cfg)
    calib = calibrate_lue_scale(cfg, climate, table, lue, target_kg=args.target)
    calib.update(_meta(cfg))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(calib, indent=2, sort_keys=True))
    print(f"lue_scale = {calib['lue_scale']:.6f} "
          f"(yield {calib['achieved_yield_kg']:.1f} kg) -> {out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    outdir = Path(args.out)
    climate, table, lue, calibrated = _runnable(cfg)
    result = run_scenario(cfg, climate, table, lue)
    result.metadata["calibrated"] = calibrated
    files = result.save(outdir)
    k = result.kpis
    print(f"{cfg.scenario} (PPE {cfg.ppe:g}): yield {k.yield_kg:.0f} kg, "
          f"electricity {k.electricity_mwh:.2f} MWh, "
          f"SEEC {k.seec_kwh_per_kg if k.seec_kwh_per_kg is None else round(k.seec_kwh_per_kg, 3)} kWh/kg")
    for f in files:
        print(f"  wrote {f}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    doc = load_config_mapping(args.config)
    base_dir = Path(args.config).parent
    paths = doc.get("scenarios")
    if not paths or not isinstance(paths, list):
        raise ConfigError("compare config needs a 'scenarios' list of config paths")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    results = []
    shared = {}
    for p in paths:
        cfg = load_scenario_config(base_dir / p)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        climate, table, lue, calibrated = _runnable(cfg)
        key = (cfg.site, cfg.hour_center_offset)
        if key not in shared:
            shared[key] = solar_angles(cfg.site, cfg.hour_center_offset)
        results.append(run_scenario(cfg, climate, table, lue, solar=shared[key]))

    rows = compare_scenarios(results)
    header = list(rows[0].keys())
    write_csv(outdir / "comparison.csv", header,
              [[r[h] for h in header] for r in rows])
    doc_out = {"rows": rows, "metadata": _meta(None, configs=[str(p) for p in paths])}
    (outdir / "comparison.json").write_text(json.dumps(doc_out, indent=2,
                                                       sort_keys=True, default=str))
    lc_rows = light_cost_comparison(results[0].config.costs)
    write_csv(outdir / "light_cost.csv", list(lc_rows[0].keys()),
              [[r[k] for k in r] for r in lc_rows])
    print(f"compared {len(rows)} scenarios -> {outdir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = load_config_mapping(args.config)
    base_dir = Path(args.config).parent
    scen_path = doc.get("scenario_config")
    bench_path = doc.get("bench_config")
    if not scen_path or not bench_path:
        raise ConfigError("sweep config needs scenario_config and bench_config paths")
    grid = doc.get("grid", {})
    el_prices = [float(x) for x in grid.get("electricity_usd_per_mwh", (100, 200, 350))]
    co2_prices = [float(x) for x in grid.get("carbon_usd_per_t", (0, 50, 100))]
    target_pbt = float(doc.get("target_pbt_years", 10.0))

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    res = {}
    for tag, p in (("scenario", scen_path), ("bench", bench_path)):
        cfg = load_scenario_config(base_dir / p)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        climate, table, lue, _ = _runnable(cfg)
        res[tag] = run_scenario(cfg, climate, table, lue)
    scen = res["scenario"]
    delta = scenario_delta(scen, res["bench"])
    capex, d_el, d_yield = (delta["delta_capex_usd"], delta["delta_electricity_mwh"],
                            delta["delta_yield_kg"])

    rows = sensitivity_sweep(capex["total"], d_el, d_yield, scen.config.costs,
                             el_prices, co2_prices)
    write_csv(outdir / "pbt_grid.csv", list(rows[0].keys()),
              [[r[k] for k in r] for r in rows])

    # break-even on the per-pipe hardware stack (pipe + auxiliaries + any
    # filter/film), holding the LED and HVAC sizing deltas fixed
    n = scen.config.n_pipes
    pipe_stack = capex["lp"] + capex["ir_filter"] + capex["ec_film"]
    fixed = capex["total"] - pipe_stack
    unit_now = pipe_stack / n if n else 0.0

    def capex_at(unit_cost: float) -> float:
        return fixed + n * unit_cost

    breakeven = {}
    for row in rows:
        costs = dataclasses.replace(scen.config.costs,
                                    electricity_usd_per_mwh=row["electricity_usd_per_mwh"],
                                    carbon_usd_per_t=row["carbon_usd_per_t"])
        be = break_even_unit_cost(capex_at, d_el, d_yield, costs, target_pbt)
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
        "metadata": _meta(scen.config),
    }
    (outdir / "breakeven.json").write_text(json.dumps(doc_out, indent=2,
                                                      sort_keys=True))
    print(f"swept {len(rows)} price points -> {outdir}")
    return EXIT_OK


def _cmd_sunpath(args) -> int:
    cfg = _load_cfg(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = sunpath_table(cfg.site)
    header = list(rows[0].keys())
    write_csv(outdir / "sunpath.csv", header, [[r[h] for h in header] for r in rows])
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
