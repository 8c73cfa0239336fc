"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The heavy fixtures (full-budget tracer sweep, calibration, the
nine scenario runs) are session-scoped and shared with the rest of the
suite.
"""

import dataclasses
import math

import numpy as np

from pipefarm.climate import SiteConfig, equation_of_time, incidence_cosine, \
    solar_position
from pipefarm.economics import light_cost_comparison, lumens_to_photon_flux
from pipefarm.engine import light_cost_inputs, run_scenario
from pipefarm.lighting import ec_transmittance, led_electric_power
from pipefarm.optics import DIFFUSE_BANDS, LpGeometry, OpticalEfficiencyTable, \
    dome_band_fraction, filtered_efficiency, lp_crop_ppfd, lp_solar_gains, mirror_tilt
from pipefarm.thermal import lp_convection
from pipefarm.tracer import trace_diffuse_band, trace_direct

DUBAI = SiteConfig(25.0, 55.0, 4.0)


def _report(num: int, text: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status}  {text}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class TestCriterion01LedPower:
    def test_nominal_powers(self):
        targets = {2.0: 11.25e3, 2.5: 9.0e3, 3.0: 7.5e3}
        ok = True
        detail = []
        for ppe, watts in targets.items():
            got = led_electric_power(250.0, 90.0, ppe)
            ok &= abs(got - watts) / watts <= 0.005
            detail.append(f"PPE{ppe:g}={got / 1000:.2f}kW")
        _report(1, "nominal LED power 11.25/9.0/7.5 kW within 0.5%", ok,
                ", ".join(detail))


class TestCriterion02BenchLighting:
    def test_annual_lighting_energy(self, repo_paths, climate, lue_calibrated, solar):
        from pipefarm.config import load_scenario_config
        cfg = load_scenario_config(repo_paths["configs"] / "bench_ppe30.yaml")
        res = run_scenario(cfg, climate, None, lue_calibrated, solar=solar)
        e = res.aggregates["led_electricity_mwh"]
        ok = 43.8 * 0.99 <= e <= 44.0 * 1.01
        _report(2, "benchmark PPE-3 lighting energy in 43.8-44.0 MWh band (1%)",
                ok, f"{e:.2f} MWh")


class TestCriterion03BenchDli:
    def test_dli_exact(self, scenario_results):
        dli = scenario_results["Bench"].dli
        ok = bool(np.all(dli[:, 0] == 14.4) and np.all(dli[:, 1] == 14.4))
        _report(3, "benchmark DLI equals 14.4 mol m-2 day-1 exactly", ok,
                f"tier-1 day-1 = {dli[0, 0]!r}")


class TestCriterion04LightCostTable:
    def test_table_reproduction(self, bench_config):
        rows = {r["system"]: r["light_cost"]
                for r in light_cost_comparison(*light_cost_inputs(bench_config))}
        targets = {"LP_NL": 12.05, "LP_Min": 12.05, "LP_Dim": 12.05,
                   "LP_Dim_IR": 16.56, "LP_Dim_EC": 25.00, "Optical Fiber": 19.53}
        ok = all(abs(rows[k] - v) <= 0.02 for k, v in targets.items())
        flux = lumens_to_photon_flux(9200.0)
        ok &= abs(flux - 167.0) / 167.0 <= 0.01
        _report(4, "light-cost table {12.05 x3, 16.56, 25.00} and fiber 19.53 "
                   "within 0.02; lumen chain 167 umol/s within 1%", ok,
                ", ".join(f"{k}={v:.2f}" for k, v in sorted(rows.items())))


class TestCriterion05PipeFlux:
    def test_reference_flux_and_aperture(self):
        geom = LpGeometry()
        alts = np.arange(5.0, 91.0, 5.0)
        tilts = np.arange(45.0, 91.0, 5.0)
        nb = len(DIFFUSE_BANDS)
        table = OpticalEfficiencyTable(
            alt_grid=alts, eta_dir=np.full(alts.size, 0.75),
            se_dir=np.zeros(alts.size), tilt_grid=tilts, bands=DIFFUSE_BANDS,
            eta_diff_th=np.zeros((tilts.size, nb)),
            eta_diff_crop=np.zeros((tilts.size, nb)),
            se_diff_th=np.zeros((tilts.size, nb)),
            se_diff_crop=np.zeros((tilts.size, nb)), provenance="imported")
        gains = lp_solar_gains(table, 833.0, 0.0, 90.0, geom, 1)
        flux = lp_crop_ppfd(gains, 1.0)
        ok = 24.8 * 0.99 <= flux <= 24.9 * 1.01
        fleet = geom.aperture_area_m2 * 750
        ok &= round(fleet, 2) == 13.25
        _report(5, "per-pipe flux 24.8-24.9 umol/s at 833 W/m2 and eta 0.75; "
                   "fleet aperture 13.25 m2", ok,
                f"flux={flux:.3f}, aperture={fleet:.4f}")


class TestCriterion06FilterChain:
    def test_filtered_efficiencies(self):
        got98 = filtered_efficiency(0.456, 0.98)
        got90 = filtered_efficiency(0.456, 0.90)
        ok = (abs(got98 - 0.447) / 0.447 <= 0.005
              and abs(got90 - 0.410) / 0.410 <= 0.005)
        _report(6, "UV-IR chain 0.456 x {0.98, 0.90} -> {0.447, 0.410} within 0.5%",
                ok, f"{got98:.4f}, {got90:.4f}")


class TestCriterion07SolarSuite:
    def test_solar_geometry(self):
        ok = all(abs(solar_position(DUBAI, n, 12.0).declination) <= 23.45 + 1e-9
                 for n in range(1, 366))
        ok &= abs(solar_position(DUBAI, 81, 12.0).declination) <= 0.5
        noon_alt = max(solar_position(DUBAI, 81, h / 10.0).altitude
                       for h in range(110, 140))
        ok &= abs(noon_alt - 65.0) <= 0.5
        eots = [equation_of_time(n) for n in range(1, 366)]
        ok &= min(eots) >= -15.0 and max(eots) <= 17.0
        ok &= all(incidence_cosine(a) == 0.0 for a in (-90.0, -10.0, -0.001))
        _report(7, "declination bounds, equinox zero, Dubai noon 65 deg, "
                   "EoT in [-15, +17] min, dark below horizon", ok,
                f"noon={noon_alt:.2f} deg, EoT=[{min(eots):.2f}, {max(eots):.2f}]")


class TestCriterion08TracerSuite:
    def test_bounds_and_conservation(self, traced_table):
        table, sweep_seconds = traced_table
        ok = True

        # direct ceiling at every altitude
        over = [(a, e) for a, e, s in zip(table.alt_grid, table.eta_dir, table.se_dir)
                if e > 0.73 + 3.0 * s]
        ok &= not over

        # halved isotropic-sky diffuse throughput per tilt
        f = np.array([dome_band_fraction(b) for b in table.bands])
        worst = 0.0
        for i in range(table.tilt_grid.size):
            tot = float(table.eta_diff_th[i] @ f) / 2.0
            sig = math.sqrt(float(((table.se_diff_th[i] * f) ** 2).sum())) / 2.0
            worst = max(worst, tot)
            ok &= tot <= 0.37 + 3.0 * sig

        # exact budget bookkeeping on representative traces
        geom = LpGeometry()
        for alt in (15.0, 55.0, 90.0):
            res = trace_direct(geom, alt, rays=100_000, seed=81)
            ok &= res.conservation_residual() < 3.0 * max(res.se_zone, 1e-12)
        res = trace_diffuse_band(geom, 70.0, 50, rays=100_000, seed=81)
        ok &= res.conservation_residual() < 3.0 * max(res.se_chamber, 1e-12)

        # closed-form single-path oracle, mirror removed, vertical beam
        from test_tracer import no_mirror_vertical_oracle
        res = trace_direct(geom, 90.0, rays=100_000, seed=82, use_mirror=False)
        oracle = no_mirror_vertical_oracle(geom)
        ok &= abs(res.eta_zone - oracle) / oracle <= 0.02

        ok &= sweep_seconds < 300.0
        _report(8, "tracer bounds (0.73 direct, 0.37 halved diffuse), exact "
                   "budgets, no-mirror oracle within 2%, sweep < 5 min", ok,
                f"max halved diffuse {worst:.3f}, oracle {res.eta_zone:.4f} vs "
                f"{oracle:.4f}, sweep {sweep_seconds:.0f}s")


class TestCriterion09MirrorTilt:
    def test_reference_tilt_pair(self):
        got = mirror_tilt(50.0)
        _report(9, "mirror tilt law gives exactly 70 deg at 50 deg altitude",
                got == 70.0, f"{got:g} deg")


class TestCriterion10EcFilm:
    def test_transmittance_anchors(self):
        t0 = ec_transmittance(0.0)
        t_inf = ec_transmittance(1e4)
        ok = abs(t0 - 0.5426) <= 1e-4 and abs(t_inf - 0.735) <= 1e-3
        _report(10, "film transmittance 0.5426 at rest, 0.735 asymptote", ok,
                f"tau(0)={t0:.6f}, tau(1e4)={t_inf:.6f}")


class TestCriterion11CalibrationAnchor:
    def test_benchmark_yield(self, calibration, scenario_configs, climate,
                             lue_calibrated, solar):
        y = scenario_results_yield = calibration["achieved_yield_kg"]
        ok = abs(y - 9221.0) / 9221.0 <= 0.02
        yields = set()
        for ppe in (2.0, 2.5, 3.0):
            cfg = dataclasses.replace(scenario_configs["Bench"], ppe=ppe)
            res = run_scenario(cfg, climate, None, lue_calibrated, solar=solar)
            yields.add(res.kpis.yield_kg)
        ok &= len(yields) == 1
        _report(11, "calibrated benchmark yield 9221 kg within 2%, identical "
                    "across PPE", ok, f"yield={y:.1f} kg, distinct={len(yields)}")


class TestCriterion12DirectionalScenarios:
    def test_scenario_bands(self, scenario_results):
        r = scenario_results
        bench = r["Bench"].kpis
        details = []
        ok = True

        deficit = 100.0 * (1.0 - r["LP_NL"].kpis.yield_kg / bench.yield_kg)
        ok &= 16.7 - 3.0 <= deficit <= 16.7 + 3.0
        details.append(f"LP_NL deficit {deficit:.1f}%")

        for name in ("LP_Min_200", "LP_Min_250", "LP_Dim", "LP_Dim_IR_98",
                     "LP_Dim_IR_90", "LP_Dim_EC"):
            dev = 100.0 * abs(r[name].kpis.yield_kg / bench.yield_kg - 1.0)
            ok &= dev <= 3.0

        seec = {n: r[n].kpis.seec_kwh_per_kg for n in r}
        ok &= (seec["LP_Dim_IR_98"] < seec["LP_Dim"] < seec["Bench"] < seec["GH"])
        ir_drop = 100.0 * (1.0 - seec["LP_Dim_IR_98"] / seec["Bench"])
        ok &= 14.0 - 5.0 <= ir_drop <= 14.0 + 5.0
        details.append(f"IR98 SEEC -{ir_drop:.1f}%")
        gh_rise = 100.0 * (seec["GH"] / seec["Bench"] - 1.0)
        ok &= 30.0 - 10.0 <= gh_rise <= 30.0 + 10.0
        details.append(f"GH SEEC +{gh_rise:.1f}%")

        ir90_drop = 100.0 * (1.0 - seec["LP_Dim_IR_90"] / seec["Bench"])
        ok &= 14.0 - 5.0 <= ir90_drop <= 14.0 + 5.0

        ratio = (r["LP_Dim_IR_98"].kpis.harvested_daylight_mwh
                 / r["LP_Dim"].kpis.harvested_daylight_mwh)
        ok &= abs(ratio - 5.0 / 11.1) <= 0.1 * (5.0 / 11.1)
        details.append(f"IR/unfiltered harvest {ratio:.3f}")

        harv = {n: r[n].kpis.harvested_daylight_mwh for n in r}
        ok &= (harv["GH"] > harv["LP_Dim"] > harv["LP_Dim_EC"]
               > harv["LP_Dim_IR_98"] > harv["LP_Dim_IR_90"] > 0.0)
        ok &= harv["Bench"] == 0.0
        ok &= harv["LP_Dim"] == harv["LP_NL"] == harv["LP_Min_250"]

        _report(12, "yield deficit, hybrid parity, SEEC ordering and bands, "
                    "filtered/capped harvest ratios and ordering", ok,
                "; ".join(details))


class TestCriterion13BalanceResidual:
    def test_all_scenarios_all_hours(self, scenario_results):
        worst = max(res.aggregates["max_relative_residual"]
                    for res in scenario_results.values())
        _report(13, "quasi-steady balance residual <= 1e-6 at all 8760 h of "
                    "every shipped scenario", worst <= 1e-6, f"max={worst:.2e}")


class TestCriterion14ConvectionOracle:
    def test_hand_value_and_suppression(self):
        # recompute the oracle from raw constants, then compare the model
        ra = 9.81 * (1.0 / 297.0) * 4.0 / ((1.5e-5) ** 2 / 0.71)
        expected = (0.15 * ra ** 0.33) * 0.026 * (math.pi * 0.075 ** 2) * 4.0
        got, _ = lp_convection(24.0, 20.0, 1.0, math.pi * 0.075 ** 2)
        ok = abs(got - expected) / expected <= 0.02
        for dt in (0.0, -5.0):
            q, _ = lp_convection(24.0, 24.0 - dt, 1.0, 0.0177)
            ok &= q == 0.0
        _report(14, "pipe convection oracle ~0.19 W within 2%; suppressed "
                    "for non-positive gradients", ok,
                f"model={got:.5f} W vs hand={expected:.5f} W")


class TestCriterion15Determinism:
    def test_single_worker_bit_identical(self, scenario_configs, climate,
                                         reference_table, lue_calibrated, solar,
                                         tmp_path):
        cfg = scenario_configs["LP_Dim_EC"]
        a = run_scenario(cfg, climate, reference_table, lue_calibrated, solar=solar)
        b = run_scenario(cfg, climate, reference_table, lue_calibrated, solar=solar)
        ok = a.aggregates == b.aggregates and a.harvests == b.harvests
        for col in a.hourly:
            ok &= bool(np.array_equal(a.hourly[col], b.hourly[col], equal_nan=True))
        fa = a.save(tmp_path / "a")
        fb = b.save(tmp_path / "b")
        ok &= all(x.read_bytes() == y.read_bytes() for x, y in zip(fa, fb))
        _report(15, "two single-worker runs produce bit-identical results and "
                    "output files", ok)
