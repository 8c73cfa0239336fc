import dataclasses
import math

import numpy as np
import pytest

from pipefarm.engine import write_csv
from pipefarm.optics import (DIFFUSE_BANDS, LpGains, LpGeometry,
                             OpticalEfficiencyTable, apply_neutral_attenuation,
                             apply_uv_ir_filter, band_mean_sin, dome_band_fraction,
                             filtered_efficiency, gh_gains, lp_crop_ppfd,
                             lp_solar_gains, mirror_tilt, PAR_UMOL_PER_J,
                             SOLAR_UMOL_PER_J)
from pipefarm.tracer import trace_diffuse_band


class TestMirrorTilt:
    def test_reference_pair(self):
        assert mirror_tilt(50.0) == 70.0

    def test_horizon_sun(self):
        assert mirror_tilt(0.0) == 45.0

    def test_zenith_sun_near_vertical(self):
        assert mirror_tilt(90.0) == 90.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            mirror_tilt(-1.0)
        with pytest.raises(ValueError):
            mirror_tilt(90.1)


class TestDomeBandFraction:
    def test_top_band(self):
        expected = math.sin(math.radians(90)) ** 2 - math.sin(math.radians(80)) ** 2
        assert dome_band_fraction(90) == pytest.approx(expected, abs=1e-15)
        assert dome_band_fraction(90) == pytest.approx(0.030154, abs=1e-5)

    def test_bottom_band(self):
        assert dome_band_fraction(10) == pytest.approx(math.sin(math.radians(10)) ** 2,
                                                       abs=1e-15)

    def test_bands_telescope_to_one(self):
        assert sum(dome_band_fraction(b) for b in DIFFUSE_BANDS) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            dome_band_fraction(95)


class TestLpGeometry:
    def test_aperture_area(self):
        g = LpGeometry()
        assert g.aperture_area_m2 == pytest.approx(math.pi * 0.075 ** 2, rel=1e-12)

    def test_fleet_aperture_matches_design(self):
        g = LpGeometry()
        assert round(g.aperture_area_m2 * 750, 2) == 13.25

    def test_facet_slope_from_apex(self):
        assert LpGeometry().diffuser_facet_slope_deg == pytest.approx(14.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LpGeometry(dome_transmittance=0.0)
        with pytest.raises(ValueError):
            LpGeometry(diameter_mm=-1.0)
        with pytest.raises(ValueError):
            LpGeometry(diffuser_refractive_index=0.9)

    def test_hash_changes_with_geometry(self):
        assert LpGeometry().content_hash() != LpGeometry(length_mm=1200).content_hash()


def _flat_table(eta_dir=0.75, eta_th=0.30, eta_crop=0.10):
    alts = np.arange(5.0, 91.0, 5.0)
    tilts = np.arange(45.0, 91.0, 5.0)
    nb = len(DIFFUSE_BANDS)
    return OpticalEfficiencyTable(
        alt_grid=alts, eta_dir=np.full(alts.size, eta_dir),
        se_dir=np.zeros(alts.size), tilt_grid=tilts, bands=DIFFUSE_BANDS,
        eta_diff_th=np.full((tilts.size, nb), eta_th),
        eta_diff_crop=np.full((tilts.size, nb), eta_crop),
        se_diff_th=np.zeros((tilts.size, nb)), se_diff_crop=np.zeros((tilts.size, nb)),
        provenance="imported")


class TestEfficiencyTable:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        alts = np.arange(5.0, 91.0, 5.0)
        tilts = np.arange(45.0, 91.0, 5.0)
        nb = len(DIFFUSE_BANDS)
        th = rng.uniform(0.1, 0.6, (tilts.size, nb))
        table = OpticalEfficiencyTable(
            alt_grid=alts, eta_dir=rng.uniform(0.2, 0.7, alts.size),
            se_dir=rng.uniform(0, 0.01, alts.size), tilt_grid=tilts,
            bands=DIFFUSE_BANDS, eta_diff_th=th, eta_diff_crop=th * 0.3,
            se_diff_th=np.zeros_like(th), se_diff_crop=np.zeros_like(th),
            provenance="traced", geometry_hash="abc")
        path = tmp_path / "table.csv"
        write_csv(path, *table.csv_columns())
        loaded = OpticalEfficiencyTable.import_csv(path)
        assert np.array_equal(loaded.eta_dir, table.eta_dir)
        assert np.array_equal(loaded.eta_diff_th, table.eta_diff_th)
        assert np.array_equal(loaded.eta_diff_crop, table.eta_diff_crop)
        assert loaded.provenance == "imported"

    @pytest.mark.parametrize("edit, point", [
        (lambda rows: [r for r in rows if not r.startswith("diffuse,20.0,60.0,")],
         "no diffuse cell at tilt 60, band 20"),
        (lambda rows: rows + [rows[1]], "repeats the direct altitude 5"),
        (lambda rows: rows + [next(r for r in rows if r.startswith("diffuse,"))],
         "repeats the diffuse cell at tilt 45, band 10"),
    ], ids=["missing-diffuse", "repeated-direct", "repeated-diffuse"])
    def test_missing_or_repeated_cell_is_named(self, tmp_path, repo_paths, edit, point):
        rows = (repo_paths["data"] / "lp_efficiency_reference.csv").read_text().splitlines()
        path = tmp_path / "table.csv"
        path.write_text("\n".join(edit(rows)) + "\n")
        with pytest.raises(ValueError) as exc:
            OpticalEfficiencyTable.import_csv(path)
        assert point in str(exc.value) and path.name in str(exc.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "x", ""])
    def test_non_finite_cell_is_named(self, tmp_path, repo_paths, cell):
        """The range checks cannot see NaN, so the reader refuses it by file
        and line, as the LUE and climate readers do."""
        rows = (repo_paths["data"] / "lp_efficiency_reference.csv").read_text().splitlines()
        first = next(i for i, r in enumerate(rows) if r.startswith("direct,"))
        head = rows[0].split(",")
        parts = rows[first].split(",")
        parts[head.index("eta")] = cell
        rows[first] = ",".join(parts)
        path = tmp_path / "table.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError) as exc:
            OpticalEfficiencyTable.import_csv(path)
        assert f"{path.name} line {first + 1}" in str(exc.value)

    @pytest.mark.parametrize("kind, column, value, point", [
        ("direct", "angle", "-1", "direct angle -1 is outside (0, 90]"),
        ("direct", "angle", "0", "direct angle 0 is outside (0, 90]"),
        ("direct", "angle", "90.5", "direct angle 90.5 is outside (0, 90]"),
        ("diffuse", "tilt", "44.9", "diffuse tilt 44.9 is outside [45, 90]"),
        ("diffuse", "tilt", "95", "diffuse tilt 95 is outside [45, 90]"),
    ])
    def test_out_of_range_row_key_is_named(self, tmp_path, repo_paths, kind, column, value,
                                           point):
        """A sun below the horizon, or a tilt the tracking mirror never
        takes, is refused at its line instead of bending the interpolation."""
        rows = (repo_paths["data"] / "lp_efficiency_reference.csv").read_text().splitlines()
        first = next(i for i, r in enumerate(rows) if r.startswith(f"{kind},"))
        parts = rows[first].split(",")
        parts[rows[0].split(",").index(column)] = value
        rows[first] = ",".join(parts)
        path = tmp_path / "table.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError) as exc:
            OpticalEfficiencyTable.import_csv(path)
        assert str(exc.value) == f"efficiency table {path.name} line {first + 1}: {point}"

    @pytest.mark.parametrize("sigmas, loads", [(2.5, True), (3.5, False)])
    def test_crop_side_may_pass_chamber_side_by_under_three_stderr(self, sigmas, loads):
        """The crop-side diffuse entry may exceed the chamber side by Monte
        Carlo noise, up to 3 (se_th + se_crop), and no further."""
        t = _flat_table(eta_th=0.30)
        se = np.full_like(t.eta_diff_th, 0.01)
        crop = t.eta_diff_th + sigmas * (se + se)
        fields = dict(eta_diff_crop=crop, se_diff_th=se, se_diff_crop=se)
        if loads:
            assert np.array_equal(dataclasses.replace(t, **fields).eta_diff_crop, crop)
        else:
            with pytest.raises(ValueError, match="exceeds chamber-side"):
                dataclasses.replace(t, **fields)

    def test_interpolation_and_clamp(self):
        t = _flat_table()
        eta, clamped = t.eta_dir_at(47.5)
        assert eta == pytest.approx(0.75)
        assert not clamped
        eta, clamped = t.eta_dir_at(2.0)
        assert clamped
        assert eta == pytest.approx(0.75)

    def test_crop_exceeding_chamber_rejected(self):
        with pytest.raises(ValueError, match="crop-side"):
            _flat_table(eta_th=0.10, eta_crop=0.30)

    def test_weighted_diffuse_matches_band_sum(self):
        t = _flat_table(eta_th=0.4, eta_crop=0.2)
        th, crop, _ = t.weighted_diffuse_at(70.0)
        assert th == pytest.approx(0.4, rel=1e-12)   # weights sum to one
        assert crop == pytest.approx(0.2, rel=1e-12)


def _with_diffuse_cell(tilt, band, th, crop):
    """The flat table's diffuse grids with one (tilt, band) cell replaced."""
    grid_th = np.full((10, len(DIFFUSE_BANDS)), 0.30)
    grid_crop = np.full_like(grid_th, 0.10)
    cell = (int((tilt - 45.0) / 5.0), DIFFUSE_BANDS.index(band))
    grid_th[cell], grid_crop[cell] = th, crop
    return _flat_table(eta_th=grid_th, eta_crop=grid_crop)


class TestDiffuseCeiling:
    """Diffuse entries are normalized to the band's power on the horizontal
    aperture, so their ceiling is 1 / band_mean_sin of the band, not 1."""

    def test_traced_entry_above_one_accepted(self):
        # lossless surfaces: the shipped ones trace this cell at about 0.94
        lossless = dataclasses.replace(LpGeometry(), dome_transmittance=1.0,
                                       wall_reflectance=1.0, mirror_reflectance=1.0,
                                       diffuser_throughput=1.0)
        res = trace_diffuse_band(lossless, 50.0, 10, rays=10_000, seed=352)
        assert res.eta_chamber > 1.0
        table = _with_diffuse_cell(50.0, 10, res.eta_chamber, res.eta_zone)
        assert table.eta_diff_th[1, 0] == res.eta_chamber

    def test_band_mean_sin_matches_quadrature(self):
        for band in DIFFUSE_BANDS:
            alt = np.radians(np.linspace(band - 10.0, band, 20_001))
            pdf = np.sin(alt) * np.cos(alt)
            mean = np.trapezoid(np.sin(alt) * pdf, alt) / np.trapezoid(pdf, alt)
            assert band_mean_sin(band) == pytest.approx(mean, rel=1e-8)

    @pytest.mark.parametrize("field", ["eta_diff_th", "eta_diff_crop"])
    def test_ceiling_is_per_band(self, field):
        # 2.0 lies under band 10's ceiling (8.6) and over band 90's (1.01)
        assert 1.0 / band_mean_sin(10) > 2.0 > 1.0 / band_mean_sin(90) > 1.0
        _with_diffuse_cell(50.0, 10, 2.0, 2.0)
        th, crop = (2.0, 0.1) if field == "eta_diff_th" else (1.0, 2.0)
        with pytest.raises(ValueError, match=f"{field} entries"):
            _with_diffuse_cell(50.0, 90, th, crop)

    @pytest.mark.parametrize("field", ["eta_diff_th", "eta_diff_crop"])
    def test_entry_below_zero_refused(self, field):
        th, crop = (-1e-6, -1e-6) if field == "eta_diff_th" else (0.3, -1e-6)
        with pytest.raises(ValueError, match=f"{field} entries"):
            _with_diffuse_cell(50.0, 10, th, crop)

    def test_direct_entry_above_one_refused(self):
        with pytest.raises(ValueError, match="eta_dir entries"):
            _flat_table(eta_dir=1.01)


class TestLpSolarGains:
    def test_night_is_dark(self):
        g = LpGeometry()
        gains = lp_solar_gains(_flat_table(), 800.0, 100.0, -3.0, g, 750)
        assert gains.q_sol == 0.0 and gains.q_crop == 0.0

    def test_zero_irradiance(self):
        gains = lp_solar_gains(_flat_table(), 0.0, 0.0, 45.0, LpGeometry(), 750)
        assert gains.q_sol == 0.0

    def test_direct_hand_product(self):
        # 833 W/m2 overhead at eta 0.75 through one 150 mm aperture
        g = LpGeometry()
        gains = lp_solar_gains(_flat_table(eta_dir=0.75, eta_th=0.0, eta_crop=0.0),
                               833.0, 0.0, 90.0, g, 1)
        assert gains.q_dir == pytest.approx(833.0 * 0.75 * g.aperture_area_m2, rel=1e-12)
        assert gains.q_dir == pytest.approx(11.04, abs=0.01)

    def test_diffuse_band_sum_oracle(self):
        # hand-summed per-band series against the table fast path
        g = LpGeometry()
        alts = np.arange(5.0, 91.0, 5.0)
        tilts = np.arange(45.0, 91.0, 5.0)
        nb = len(DIFFUSE_BANDS)
        rng = np.random.default_rng(3)
        th = rng.uniform(0.05, 0.6, (tilts.size, nb))
        table = OpticalEfficiencyTable(
            alt_grid=alts, eta_dir=np.zeros(alts.size), se_dir=np.zeros(alts.size),
            tilt_grid=tilts, bands=DIFFUSE_BANDS, eta_diff_th=th,
            eta_diff_crop=th * 0.25, se_diff_th=np.zeros_like(th),
            se_diff_crop=np.zeros_like(th), provenance="imported")
        alt = 50.0
        dhi = 120.0
        gains = lp_solar_gains(table, 0.0, dhi, alt, g, 1)
        tilt = mirror_tilt(alt)
        eta_th_b = [np.interp(tilt, tilts, th[:, j]) for j in range(nb)]
        eta_crop_b = [np.interp(tilt, tilts, th[:, j] * 0.25) for j in range(nb)]
        expect_th = sum(dhi / 2.0 * dome_band_fraction(b) * eta_th_b[j] * g.aperture_area_m2
                        for j, b in enumerate(DIFFUSE_BANDS))
        expect_crop = sum(dhi / 2.0 * dome_band_fraction(b) * eta_crop_b[j] * g.aperture_area_m2
                          for j, b in enumerate(DIFFUSE_BANDS))
        assert gains.q_diff_th == pytest.approx(expect_th, rel=1e-12)
        assert gains.q_diff_crop == pytest.approx(expect_crop, rel=1e-12)

    def test_linearity_in_each_component(self):
        g = LpGeometry()
        t = _flat_table()
        a = lp_solar_gains(t, 400.0, 50.0, 40.0, g, 750)
        b = lp_solar_gains(t, 800.0, 50.0, 40.0, g, 750)
        c = lp_solar_gains(t, 400.0, 100.0, 40.0, g, 750)
        assert b.q_dir == pytest.approx(2.0 * a.q_dir, rel=1e-12)
        assert b.q_diff_th == pytest.approx(a.q_diff_th, rel=1e-12)
        assert c.q_diff_th == pytest.approx(2.0 * a.q_diff_th, rel=1e-12)

    def test_sol_is_dir_plus_chamber_diffuse(self):
        gains = lp_solar_gains(_flat_table(), 600.0, 80.0, 55.0, LpGeometry(), 750)
        assert gains.q_sol == gains.q_dir + gains.q_diff_th
        assert gains.q_diff_crop <= gains.q_diff_th

    def test_support_clamp_flag(self):
        gains = lp_solar_gains(_flat_table(), 600.0, 80.0, 3.0, LpGeometry(), 1)
        assert "table-support-clamped" in gains.flags


class TestCropPpfd:
    def test_per_pipe_flux_matches_design_reference(self):
        g = LpGeometry()
        gains = lp_solar_gains(_flat_table(eta_dir=0.75, eta_th=0.0, eta_crop=0.0),
                               833.0, 0.0, 90.0, g, 1)
        flux = lp_crop_ppfd(gains, 1.0)  # umol/s over a 1 m2 basis == total flux
        assert flux == pytest.approx(24.8, abs=0.25)

    def test_zero_gains(self):
        assert lp_crop_ppfd(LpGains(), 30.0) == 0.0

    def test_par_conversion_ratio(self):
        base = LpGains(q_dir=11.04, ppfd_conversion=SOLAR_UMOL_PER_J)
        par = LpGains(q_dir=11.04, ppfd_conversion=PAR_UMOL_PER_J)
        ratio = lp_crop_ppfd(par, 30.0) / lp_crop_ppfd(base, 30.0)
        assert ratio == pytest.approx(PAR_UMOL_PER_J / SOLAR_UMOL_PER_J, rel=1e-12)
        assert ratio == pytest.approx(2.029, abs=0.001)


class TestFilters:
    @pytest.mark.parametrize("tau,expected", [(0.98, 0.447), (0.90, 0.410)])
    def test_filtered_efficiency(self, tau, expected):
        assert filtered_efficiency(0.456, tau) == pytest.approx(expected, rel=0.005)

    def test_identity(self):
        assert filtered_efficiency(0.456, 1.0) == 0.456

    def test_uv_ir_filter_halves_thermal_keeps_photons(self):
        gains = LpGains(q_dir=100.0, q_diff_th=20.0, q_diff_crop=5.0)
        f = apply_uv_ir_filter(gains, 0.98)
        # thermal power drops to the PAR share
        assert f.q_sol == pytest.approx(gains.q_sol * 0.98 * 2.247 / 4.56, rel=1e-12)
        # photon flux only pays the visible transmittance
        ppfd_before = lp_crop_ppfd(gains, 30.0)
        ppfd_after = lp_crop_ppfd(f, 30.0)
        assert ppfd_after == pytest.approx(ppfd_before * 0.98, rel=1e-12)

    def test_neutral_attenuation(self):
        gains = LpGains(q_dir=100.0, q_diff_th=20.0, q_diff_crop=5.0)
        g2 = apply_neutral_attenuation(gains, 0.7)
        assert g2.q_sol == pytest.approx(0.7 * gains.q_sol, rel=1e-12)
        assert g2.ppfd_conversion == gains.ppfd_conversion


class TestGlazing:
    def test_zero_irradiance(self):
        q_sol, _, ppfd = gh_gains(0.0, 0.0, 40.0, 180.0, 0.82, 49.0, 18.0, 0.61, 30.0)
        assert q_sol == 0.0 and ppfd == 0.0

    def test_beam_hand_product(self):
        # 800 W/m2 at 30 deg altitude onto 1 m2 of horizontal glazing
        q_sol, _, _ = gh_gains(800.0, 0.0, 30.0, 180.0, 0.82, 1.0, 0.0, 0.61, 30.0)
        assert q_sol == pytest.approx(800.0 * 0.5 * 0.82, rel=1e-12)
        assert q_sol == pytest.approx(328.0, abs=1e-9)

    def test_daylight_utilization_cap(self):
        assert 0.80 * 0.61 == pytest.approx(0.49, abs=0.0025)
        _, q_crop, _ = gh_gains(0.0, 100.0, 45.0, 180.0, 0.80, 49.0, 0.0, 0.61, 30.0)
        assert q_crop / (100.0 * 49.0) == pytest.approx(0.49, abs=0.0025)

    def test_validation(self):
        with pytest.raises(ValueError):
            gh_gains(100.0, 0.0, 40.0, 180.0, 1.2, 49.0, 0.0, 0.6, 30.0)
