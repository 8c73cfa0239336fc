import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pipefarm.engine import write_csv
from pipefarm.optics import LpGeometry
from pipefarm.tracer import _duct_transit, _launch, _launch_uniforms, _mean_se, _strata, \
    trace_diffuse_band, trace_direct

GEOM = LpGeometry()
LOSSLESS = replace(GEOM, dome_transmittance=1.0, wall_reflectance=1.0,
                   mirror_reflectance=1.0, diffuser_throughput=1.0)
FROZEN = json.loads((Path(__file__).resolve().parent / "data" / "traced_small.json").read_text())


def stepwise_transit(p, d, w, radius, z_lo, z_hi, rho):
    """Scalar reference for the closed-form duct crossing: reflect one wall
    hit at a time until the ray reaches the end plane it heads for."""
    x, y, z = p
    dx, dy, dz = d
    z_end = z_lo if dz < 0.0 else z_hi
    hits = 0
    while True:
        a = dx * dx + dy * dy
        pd = x * dx + y * dy
        disc = pd * pd - a * (x * x + y * y - radius * radius)
        t_wall = (math.sqrt(disc) - pd) / a if a > 0.0 and disc > 0.0 else math.inf
        t_end = (z_end - z) / dz
        if t_end <= t_wall:
            return hits, (x + t_end * dx, y + t_end * dy, z_end), (dx, dy, dz), w
        x, y, z = x + t_wall * dx, y + t_wall * dy, z + t_wall * dz
        nx, ny = -x / radius, -y / radius
        dot = dx * nx + dy * ny
        dx, dy = dx - 2.0 * dot * nx, dy - 2.0 * dot * ny
        w *= rho
        hits += 1


def no_mirror_vertical_oracle(geom: LpGeometry) -> float:
    """Closed-form product for a vertical beam with the mirror removed.

    One dome pass, zero wall bounces, one facet refraction deviating every
    ray by a fixed angle in one of four directions; the in-zone share is
    the disc area on the safe side of a chord. Derived independently of
    the tracer's sampling.
    """
    n = geom.diffuser_refractive_index
    slope = math.radians(geom.diffuser_facet_slope_deg)
    deviation = math.asin(n * math.sin(slope)) - slope
    shift = geom.canopy_distance_m * math.tan(deviation)
    r = geom.radius_m
    a = geom.target_zone_m / 2.0 - shift
    if a <= -r:
        capture = 0.0
    elif a >= r:
        capture = 1.0
    else:
        x = a / r
        capture = 1.0 - (math.acos(x) - x * math.sqrt(1.0 - x * x)) / math.pi
    return geom.dome_transmittance * geom.diffuser_throughput * capture


def test_duct_transit_matches_stepwise_bounces():
    rng = np.random.default_rng(31)
    n = 3000
    radius, z_lo = GEOM.radius_m, -GEOM.length_m
    z_hi = -radius * math.sin(math.radians(60.0))
    r = 0.999 * radius * np.sqrt(rng.random(n))
    phi = 2.0 * math.pi * rng.random(n)
    p = np.array([r * np.cos(phi), r * np.sin(phi), rng.uniform(z_lo, z_hi, n)])
    cos_axial = rng.uniform(0.05, 1.0, n)
    cos_axial[:300] = rng.uniform(0.99999, 1.0, 300)     # near-vertical
    cos_axial[300:400] = rng.uniform(0.01, 0.02, 100)    # near-horizontal
    az = 2.0 * math.pi * rng.random(n)
    sin_axial = np.sqrt(1.0 - cos_axial ** 2)
    d = np.array([sin_axial * np.cos(az), sin_axial * np.sin(az),
                  np.where(rng.random(n) < 0.5, -1.0, 1.0) * cos_axial])
    # skew distance 0: start on the line through the axis along the ray
    along = radius * rng.uniform(-0.999, 0.999, 400)
    p[0, 400:800] = along * np.cos(az[400:800])
    p[1, 400:800] = along * np.sin(az[400:800])
    p[:2, 800:850] = 0.0
    d[:, 850:870] = [[0.0], [0.0], [-1.0]]                # vertical
    d[2, 860:870] = 1.0
    w = rng.uniform(0.5, 1.0, n)
    rho = 0.97

    # positions and directions go in and come out as (3, n) component rows
    hits, out_p, out_d, out_w = _duct_transit(p, d, w, radius, z_lo, z_hi, rho)
    ref = [stepwise_transit(p[:, i], d[:, i], w[i], radius, z_lo, z_hi, rho) for i in range(n)]
    assert np.array_equal(hits, [h for h, _, _, _ in ref])
    assert np.allclose(out_p.T, [q for _, q, _, _ in ref], rtol=0.0, atol=1e-9)
    assert np.allclose(out_d.T, [e for _, _, e, _ in ref], rtol=0.0, atol=1e-9)
    assert np.allclose(out_w, [v for _, _, _, v in ref], rtol=1e-12, atol=0.0)
    assert np.array_equal(out_w, w * rho ** hits)
    # the sample reaches every regime: no hit, a few, hundreds, both ways
    assert np.any(hits[:300] == 0) and np.count_nonzero(hits[300:400] >= 100) >= 50
    assert np.any(d[2] > 0.0) and np.any(d[2] < 0.0)


class TestConservation:
    @pytest.mark.parametrize("alt", [10.0, 45.0, 90.0])
    def test_direct_budget_closes(self, alt):
        res = trace_direct(GEOM, alt, rays=20_000, seed=5)
        assert res.conservation_residual() < 1e-9

    def test_diffuse_budget_closes(self):
        res = trace_diffuse_band(GEOM, 70.0, 50, rays=20_000, seed=5)
        assert res.conservation_residual() < 1e-9

    def test_every_tally_non_negative(self):
        res = trace_direct(GEOM, 35.0, rays=20_000, seed=6)
        assert all(v >= 0.0 for v in res.tallies.values())


class TestDirectOracles:
    def test_no_mirror_vertical_beam(self):
        res = trace_direct(GEOM, 90.0, rays=100_000, seed=2, use_mirror=False)
        assert res.eta_zone == pytest.approx(no_mirror_vertical_oracle(GEOM), rel=0.02)

    def test_lossless_straight_shot(self):
        # everything at unity and the diffuser bypassed: the beam cannot miss
        res = trace_direct(LOSSLESS, 90.0, rays=20_000, seed=3, use_mirror=False,
                           disable_diffuser=True)
        assert res.eta_zone == pytest.approx(1.0, abs=1e-9)

    def test_mirror_redirects_low_sun(self):
        # a grazing beam barely crosses the aperture, yet the tracked mirror
        # still delivers a useful share of the flat-normalized beam power
        res = trace_direct(GEOM, 10.0, rays=50_000, seed=4)
        no_mirror = trace_direct(GEOM, 10.0, rays=50_000, seed=4, use_mirror=False)
        assert res.eta_zone > 5.0 * max(no_mirror.eta_zone, 1e-6)
        assert res.eta_zone > 0.1


class TestDiffuseProperties:
    def test_crop_never_exceeds_chamber(self):
        for band in (10, 50, 90):
            res = trace_diffuse_band(GEOM, 70.0, band, rays=20_000, seed=7)
            assert res.eta_zone <= res.eta_chamber + 1e-12

    def test_lossless_open_pipe_transmits_every_band(self):
        # unity surfaces, no mirror, diffuser bypassed: every ray crossing
        # the aperture must reach the chamber (cap raised for grazing bands)
        for band in (10, 30, 60, 90):
            res = trace_diffuse_band(LOSSLESS, None, band, rays=20_000, seed=8,
                                     bounce_cap=1000, disable_diffuser=True)
            assert abs(res.eta_chamber - 1.0) <= max(4.0 * res.se_chamber, 0.005)

    @pytest.mark.parametrize("band", [10, 30, 60, 90])
    def test_default_cap_keeps_grazing_light(self, band):
        # a duct crossing is one loop event, so the default cap of 50 no
        # longer truncates grazing rays that bounce hundreds of times
        res = trace_diffuse_band(LOSSLESS, None, band, rays=20_000, seed=8,
                                 disable_diffuser=True)
        assert res.tallies["absorbed_cap"] == 0.0
        assert abs(res.eta_chamber - 1.0) <= 4.0 * res.se_chamber

    def test_lossless_near_vertical_band_with_diffuser(self):
        # near-zenith light sees no total internal reflection, so the
        # lossless chain still hands essentially everything to the chamber
        res = trace_diffuse_band(LOSSLESS, None, 90, rays=20_000, seed=8,
                                 bounce_cap=1000)
        assert res.eta_chamber > 0.95

    def test_oblique_tir_recycles_upward_not_lost(self):
        # grazing bands partially reflect at the facets and leave back
        # through the dome; the budget still closes exactly
        res = trace_diffuse_band(LOSSLESS, None, 30, rays=20_000, seed=8,
                                 bounce_cap=1000)
        assert res.tallies["escaped"] > 0.0
        assert res.conservation_residual() < 1e-9

    def test_rear_mirror_face_absorbs_high_sky_at_low_tilt(self):
        res = trace_diffuse_band(GEOM, 47.5, 80, rays=20_000, seed=9)
        assert res.tallies["absorbed_mirror_back"] > 0.05 * res.rays


@pytest.mark.parametrize("entry", FROZEN["direct"] + FROZEN["diffuse"],
                         ids=lambda e: (f"direct-{e['altitude_deg']:g}" if "altitude_deg" in e
                                        else f"diffuse-{e['tilt_deg']:g}-{e['band_upper_deg']}"))
def test_agrees_with_frozen_trace(entry):
    """A small traced reference frozen before the closed-form duct crossing:
    the tracer may move only at the Monte Carlo level."""
    budget = {"rays": FROZEN["rays"], "seed": FROZEN["seed"]}
    if "altitude_deg" in entry:
        res = trace_direct(GEOM, entry["altitude_deg"], collect_fluxmap=False, **budget)
    else:
        res = trace_diffuse_band(GEOM, entry["tilt_deg"], entry["band_upper_deg"], **budget)
    for eta, se in (("eta_zone", "se_zone"), ("eta_chamber", "se_chamber")):
        combined = math.hypot(getattr(res, se), entry[se])
        assert abs(getattr(res, eta) - entry[eta]) <= 4.0 * combined, eta


@pytest.mark.parametrize("name", sorted(LpGeometry.__dataclass_fields__))
def test_every_geometry_field_moves_the_trace(name):
    """The geometry holds only inputs the tracer models: scaling any one
    field changes an efficiency or a tally."""
    base = trace_direct(GEOM, 60.0, rays=10_000, seed=1)
    res = trace_direct(replace(GEOM, **{name: 0.9 * getattr(GEOM, name)}), 60.0,
                       rays=10_000, seed=1)
    assert ((res.eta_zone, res.eta_chamber, res.tallies)
            != (base.eta_zone, base.eta_chamber, base.tallies))


class TestMonteCarloBehavior:
    def test_stderr_scales_with_ray_count(self):
        a = trace_direct(GEOM, 60.0, rays=25_000, seed=11)
        b = trace_direct(GEOM, 60.0, rays=100_000, seed=11)
        ratio = a.se_zone / b.se_zone
        assert 1.6 < ratio < 2.5   # fourfold rays -> halved standard error

    def test_same_seed_bit_identical(self):
        a = trace_direct(GEOM, 42.0, rays=20_000, seed=12)
        b = trace_direct(GEOM, 42.0, rays=20_000, seed=12)
        assert a.eta_zone == b.eta_zone
        assert a.tallies == b.tallies

    def test_different_seed_differs(self):
        a = trace_direct(GEOM, 42.0, rays=20_000, seed=12)
        b = trace_direct(GEOM, 42.0, rays=20_000, seed=13)
        assert a.eta_zone != b.eta_zone

    def test_ray_floor_enforced(self):
        with pytest.raises(ValueError, match="below minimum"):
            trace_direct(GEOM, 45.0, rays=500)

    def test_altitude_validation(self):
        with pytest.raises(ValueError):
            trace_direct(GEOM, 0.0, rays=20_000)


class TestStratifiedLaunch:
    @pytest.mark.parametrize("n, dims", [(10_000, 2), (10_000, 4), (100_001, 4), (20_000, 3)])
    def test_pairs_fill_each_cell_once(self, n, dims):
        counts = _strata(n, dims)
        strata = math.prod(counts)
        assert 2 * strata <= n and max(counts) - min(counts) <= 1
        # the grid is as fine as an even one gets: one more cell on a short axis overflows
        for i in np.flatnonzero(np.array(counts) == min(counts)):
            assert 2 * strata // counts[i] * (counts[i] + 1) > n
        u, s = _launch_uniforms(np.random.default_rng(3), n, dims)
        assert s == strata and u.shape == (dims, n)
        assert np.all((u >= 0.0) & (u <= 1.0))
        # rows 2h and 2h+1 share a cell, and each cell holds one pair
        idx = np.ravel_multi_index([np.minimum((row[:2 * s] * k).astype(int), k - 1)
                                    for row, k in zip(u, counts)], counts)
        assert np.array_equal(idx[0::2], idx[1::2])
        assert np.array_equal(np.sort(idx[0::2]), np.arange(s))

    def test_paired_standard_error(self):
        x = np.array([1.0, 3.0, 2.0, 2.0, 5.0, 7.0, 9.0])   # two pairs, three iid
        mean, se = _mean_se(x, 2)
        rest = x[4:]
        assert mean == x.mean()
        assert se == pytest.approx(math.sqrt((4.0 + 0.0 + 3 * rest.var(ddof=1)) / 49.0))
        # a rest of one point folds into the grid's term
        mean, se = _mean_se(x[:5], 2)
        assert mean == x[:5].mean() and se == pytest.approx(math.sqrt(4.0 / 16.0))

    def test_grazing_origins_start_above_the_roof(self):
        # sky rays down to 0.01 deg, from every edge of the launch disc
        alt = np.radians(np.repeat([0.01, 0.5, 1.0, 1.4, 2.0, 5.0], 64))
        az = np.radians(np.tile(np.linspace(-90.0, 90.0, 8), 48))
        dirs = np.array([-np.cos(alt) * np.cos(az), -np.cos(alt) * np.sin(az), -np.sin(alt)])
        theta = np.tile(np.arange(8) / 8.0, 48)
        radius = GEOM.radius_m
        # directions in and origins out are (3, n) component rows
        origins = _launch(dirs, np.vstack([np.ones(alt.size), theta]), radius)
        assert np.all(origins[2] >= 0.0)
        assert np.all(origins[2] >= radius * (1.0 - 1e-12))
        # each ray keeps its line: the origin sits on the disc across it
        on_disc = origins + 3.0 * dirs
        lateral = on_disc - np.einsum("in,in->n", on_disc, dirs) * dirs
        assert np.allclose(np.linalg.norm(lateral, axis=0), radius, rtol=1e-9)

    @pytest.mark.parametrize("call", ["diffuse-50-10", "direct-45"])
    def test_reported_se_matches_spread_across_seeds(self, call):
        """The paired se is honest: over 32 seeds, the spread of eta is
        within [0.75, 1.33] of the mean reported se."""
        if call == "direct-45":
            runs = [trace_direct(GEOM, 45.0, rays=10_000, seed=s, collect_fluxmap=False)
                    for s in range(32)]
        else:
            runs = [trace_diffuse_band(GEOM, 50.0, 10, rays=10_000, seed=s) for s in range(32)]
        for eta, se in (("eta_zone", "se_zone"), ("eta_chamber", "se_chamber")):
            spread = np.std([getattr(r, eta) for r in runs], ddof=1)
            ratio = spread / np.mean([getattr(r, se) for r in runs])
            assert 0.75 <= ratio <= 1.33, (eta, ratio)


def zone_integral(fluxmap, half_width_m: float) -> float:
    """Fraction of incident power landing within the centred square zone:
    the oracle for the tracer's `eta_zone`, summed over the map's cells."""
    inside = np.abs(fluxmap.centers()) <= half_width_m + 1e-12
    return float(fluxmap.cells[np.ix_(inside, inside)].sum() * fluxmap.pitch_m ** 2)


class TestFluxMap:
    def test_zone_integral_matches_eta(self):
        res = trace_direct(GEOM, 90.0, rays=50_000, seed=14)
        integral = zone_integral(res.fluxmap, GEOM.target_zone_m / 2.0)
        assert integral == pytest.approx(res.eta_zone, rel=0.01)

    def test_cells_non_negative_and_exportable(self, tmp_path):
        res = trace_direct(GEOM, 60.0, rays=20_000, seed=15)
        cells = res.fluxmap.cells
        assert np.all(cells >= 0.0)
        out = tmp_path / "fm.csv"
        write_csv(out, *res.fluxmap.csv_columns())
        back = np.loadtxt(out, delimiter=",", skiprows=1)
        assert back.shape == cells.shape and np.array_equal(back, cells)
        header = np.loadtxt(out, delimiter=",", max_rows=1)
        assert np.array_equal(header, res.fluxmap.centers())
