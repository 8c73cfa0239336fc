import math
from dataclasses import replace

import numpy as np
import pytest

from pipefarm.crop import (CropParams, CropState, LueTable, growth_step,
                           harvest_if_due, interception, standing_credit_kg)


def small_table(scale=1.0) -> LueTable:
    temps = np.array([24.0])
    co2s = np.array([1400.0])
    ppfds = np.array([100.0, 300.0])
    dm = np.array([[[2e-6, 1e-6]]])
    fm = np.array([[[4e-5, 2e-5]]])
    return LueTable(temps, co2s, ppfds, dm, fm, scale)


class TestLueTable:
    def test_grid_node_identity(self):
        t = small_table()
        dm, fm, _ = t.lookup(24.0, 1400.0, 100.0)
        assert dm == pytest.approx(2e-6, rel=1e-12)
        assert fm == pytest.approx(4e-5, rel=1e-12)

    def test_midpoint_is_mean(self):
        t = small_table()
        dm, fm, _ = t.lookup(24.0, 1400.0, 200.0)
        assert dm == pytest.approx(1.5e-6, rel=1e-12)
        assert fm == pytest.approx(3e-5, rel=1e-12)

    def test_calibration_factor_is_linear(self):
        t1, t2 = small_table(1.0), small_table(2.0)
        assert t2.lookup(24.0, 1400.0, 150.0)[0] == pytest.approx(
            2.0 * t1.lookup(24.0, 1400.0, 150.0)[0], rel=1e-12)

    def test_clamping_is_reported(self):
        t = small_table()
        _, _, clamped = t.lookup(24.0, 1400.0, 500.0)
        assert clamped
        _, _, clamped = t.lookup(24.0, 1400.0, 200.0)
        assert not clamped

    def test_degenerate_table_rejected(self):
        with pytest.raises(ValueError):
            LueTable(np.array([24.0]), np.array([1400.0]), np.array([]),
                     np.zeros((1, 1, 0)), np.zeros((1, 1, 0)))
        with pytest.raises(ValueError):
            LueTable(np.array([24.0]), np.array([1400.0]), np.array([100.0]),
                     np.array([[[0.0]]]), np.array([[[1e-5]]]))
        for temps in ([np.nan], [24.0, np.nan]):
            lue = np.full((len(temps), 1, 1), 1e-5)
            with pytest.raises(ValueError, match="temps axis must be finite"):
                LueTable(np.array(temps), np.array([1400.0]), np.array([100.0]), lue, lue)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "lue.csv"
        path.write_text("temperature,co2,ppfd,lue_dm,lue_fm\n"
                        "24,1400,100,2e-6,4e-5\n24,1400,300,1e-6,2e-5\n")
        t = LueTable.from_csv(path)
        assert t.lookup(24.0, 1400.0, 300.0)[1] == pytest.approx(2e-5)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "lue.csv"
        path.write_text("temperature,co2,ppfd,lue_dm,lue_fm\n"
                        "24,1400,100,2e-6,4e-5\n22,1400,300,1e-6,2e-5\n")
        with pytest.raises(ValueError, match="grid"):
            LueTable.from_csv(path)

    @pytest.mark.parametrize("rows, point", [
        ("24,1400,100,2e-6,4e-5\n22,1400,300,1e-6,2e-5\n",
         "line 2: the table does not cover the full grid: it has no point (temperature 22, "
         "co2 1400, ppfd 100)"),
        ("24,1400,100,2e-6,4e-5\n24,1400,300,1e-6,2e-5\n24,1400.0,100,3e-6,5e-5\n",
         "line 4 repeats the point (temperature 24, co2 1400, ppfd 100) of line 2"),
        ("24,1400,100,2e-6,4e-5\nnan,1400,100,1e-6,2e-5\n",
         "line 3: the point (temperature nan, co2 1400, ppfd 100) is not finite"),
        ("24,1400,100,2e-6,4e-5\n24,1400,inf,1e-6,2e-5\n",
         "line 3: the point (temperature 24, co2 1400, ppfd inf) is not finite"),
        ("22,1400,100,2e-6,4e-5\n22,1400,300,1e-6,2e-5\n24,1400,100,2e-6,4e-5\n"
         "24,1400,300,1e-6,2e-5\n26,1400,100,2e-6,4e-5\n26,1400,250,1e-6,2e-5\n",
         "line 7: the table does not cover the full grid: it has no point (temperature 22, "
         "co2 1400, ppfd 250)"),
    ], ids=["missing", "repeated", "nan", "inf", "stray"])
    def test_missing_or_repeated_point_is_named(self, tmp_path, rows, point):
        path = tmp_path / "lue.csv"
        path.write_text("temperature,co2,ppfd,lue_dm,lue_fm\n" + rows)
        with pytest.raises(ValueError) as exc:
            LueTable.from_csv(path)
        assert point in str(exc.value) and path.name in str(exc.value)

    @pytest.mark.parametrize("row, refusal", [
        ("24,1400,300,fuzz,2e-5", "lue_dm 'fuzz' is not a number"),
        ("24,1400,300,,2e-5", "lue_dm '' is not a number"),
        ("24,1400,300,1e-6", "lue_fm None is not a number"),
        ("24,fuzz,300,1e-6,2e-5", "co2 'fuzz' is not a number"),
        ("24,1400,300,nan,2e-5", "lue_dm nan is not a finite positive number"),
        ("24,1400,300,1e-6,inf", "lue_fm inf is not a finite positive number"),
        ("24,1400,300,-1,2e-5", "lue_dm -1.0 is not a finite positive number"),
        ("24,1400,300,1e-6,0", "lue_fm 0.0 is not a finite positive number"),
    ])
    def test_bad_cell_is_named_by_line_and_column(self, tmp_path, row, refusal):
        path = tmp_path / "lue.csv"
        path.write_text(f"temperature,co2,ppfd,lue_dm,lue_fm\n24,1400,100,2e-6,4e-5\n{row}\n")
        with pytest.raises(ValueError) as exc:
            LueTable.from_csv(path)
        assert str(exc.value) == f"LUE table lue.csv line 3: {refusal}"

    def test_shipped_table_lue_non_increasing_in_ppfd(self, lue_base):
        for it, t in enumerate(lue_base.temps):
            for ic, c in enumerate(lue_base.co2s):
                fm = lue_base.lue_fm[it, ic, :]
                assert np.all(np.diff(fm) <= 1e-15)


def trilinear(table: LueTable, temperature, co2, ppfd):
    """Trilinear interpolation of the table, term by term in corner order."""
    def bracket(axis, x):
        clamped = x < axis[0] or x > axis[-1]
        if axis.size == 1:
            return [(0, 1.0)], False
        x = min(max(x, axis[0]), axis[-1])
        j = min(int(np.searchsorted(axis, x, side="right")) - 1, axis.size - 2)
        f = (x - axis[j]) / (axis[j + 1] - axis[j])
        return [(j, 1.0 - f), (j + 1, f)], clamped

    (bt, ct), (bc, cc), (bp, cp) = (bracket(table.temps, temperature),
                                    bracket(table.co2s, co2), bracket(table.ppfds, ppfd))
    out = []
    for grid in (table.lue_dm, table.lue_fm):
        v = 0.0
        for it, wt in bt:
            for ic, wc in bc:
                for ip, wp in bp:
                    w = wt * wc * wp
                    if w != 0.0:
                        v += w * grid[it, ic, ip]
        out.append(v * table.scale)
    return out[0], out[1], ct or cc or cp


def random_table(rng, sizes, scale) -> LueTable:
    axes = [np.cumsum(rng.uniform(0.5, 3.0, n)) * unit
            for n, unit in zip(sizes, (6.0, 300.0, 100.0))]
    shape = tuple(sizes)
    return LueTable(*axes, rng.uniform(1e-6, 3e-6, shape), rng.uniform(2e-5, 6e-5, shape),
                    scale)


def queries(rng, table: LueTable, n: int):
    """Points whose coordinates are each on a node, between nodes, or below
    or above the axis."""
    axes = (table.temps, table.co2s, table.ppfds)
    for _ in range(n):
        point = []
        for a in axes:
            kind = rng.integers(4)
            lo, hi = a[0], a[-1]
            span = max(hi - lo, 1.0)
            point.append(float(rng.choice(a)) if kind == 0
                         else float(rng.uniform(lo, hi)) if kind == 1
                         else float(lo - rng.uniform(0.01, 1.0) * span) if kind == 2
                         else float(hi + rng.uniform(0.01, 1.0) * span))
        yield point


class TestLueCurve:
    @pytest.mark.parametrize("sizes", [(4, 3, 6), (1, 3, 5), (3, 1, 4), (2, 2, 1),
                                       (1, 1, 1)])
    def test_bit_identical_to_trilinear(self, sizes):
        rng = np.random.default_rng([7, *sizes])
        table = random_table(rng, sizes, scale=1.2105210394249837)
        for t, c, p in queries(rng, table, 400):
            expected = trilinear(table, t, c, p)
            assert table.curve(t, c)(p) == expected
            assert table.lookup(t, c, p) == expected

    @pytest.mark.parametrize("sizes", [(4, 3, 6), (1, 3, 5), (3, 1, 4), (2, 2, 1),
                                       (1, 1, 1)])
    def test_array_call_is_its_scalar_calls(self, sizes):
        rng = np.random.default_rng([8, *sizes])
        table = random_table(rng, sizes, scale=1.2105210394249837)
        for t, c, _ in queries(rng, table, 20):
            curve = table.curve(t, c)
            ppfds = np.array([p for _, _, p in queries(rng, table, 50)])
            dm, fm, clamped = curve(ppfds)
            assert [curve(p) for p in ppfds.tolist()] == list(zip(dm.tolist(), fm.tolist(),
                                                                  clamped.tolist()))
            assert all(v.shape == (0,) for v in curve(np.empty(0)))

    def test_shipped_table_bit_identical(self, lue_base):
        rng = np.random.default_rng(11)
        table = lue_base.with_scale(1.2105210394249837)
        for t, c, p in queries(rng, table, 400):
            assert table.curve(t, c)(p) == trilinear(table, t, c, p)

    def test_keeps_only_weighted_corners(self):
        rng = np.random.default_rng(3)
        table = random_table(rng, (3, 3, 4), scale=1.0)
        on_grid = table.curve(float(table.temps[1]), float(table.co2s[2]))
        assert len(on_grid.rows) == 1 and not on_grid.clamped
        between = table.curve(float(table.temps[:2].mean()), float(table.co2s[1:].mean()))
        assert len(between.rows) == 4
        outside = table.curve(float(table.temps[0]) - 5.0, float(table.co2s[1:].mean()))
        assert len(outside.rows) == 2 and outside.clamped


PARAMS = CropParams()


class TestGrowthStep:
    def test_no_canopy_no_growth(self):
        state = CropState(dm_g_m2=0.0, fm_g_m2=0.0, lai=0.0)
        out = growth_step(state, 250.0, 3600.0, PARAMS, small_table(), 24.0, 1400.0)
        assert out.dm_g_m2 == 0.0 and out.fm_g_m2 == 0.0

    def test_full_interception_asymptote(self):
        params = CropParams(lai_cap=60.0)
        state = CropState(dm_g_m2=3000.0, fm_g_m2=60000.0, lai=50.0)
        t = small_table()
        out = growth_step(state, 100.0, 3600.0, params, t, 24.0, 1400.0)
        expected = 100.0 * 3600.0 * 4e-5       # PPFD * dt * LUE_fm at interception 1
        gain = out.fm_g_m2 - state.fm_g_m2
        assert gain == pytest.approx(expected, rel=1e-10)

    def test_hand_exponential(self):
        # interception term at k=0.9, LAI=3 evaluated by hand
        f = 1.0 - math.exp(-0.9 * 3.0)
        assert f == pytest.approx(0.93279, abs=1e-5)
        state = CropState(dm_g_m2=150.0, fm_g_m2=3000.0, lai=3.0)
        t = small_table()
        out = growth_step(state, 250.0, 1.0, PARAMS, t, 24.0, 1400.0)
        lue_fm = t.lookup(24.0, 1400.0, 250.0)[1]
        assert out.fm_g_m2 - state.fm_g_m2 == pytest.approx(250.0 * f * lue_fm, rel=1e-10)

    def test_doubling_ppfd_never_more_than_doubles(self, lue_base):
        state = CropState(dm_g_m2=100.0, fm_g_m2=2000.0, lai=2.0)
        for p in (50.0, 125.0, 250.0, 400.0, 650.0):
            g1 = growth_step(state, p, 3600.0, PARAMS, lue_base, 24.0, 1400.0)
            g2 = growth_step(state, 2.0 * p, 3600.0, PARAMS, lue_base, 24.0, 1400.0)
            gain1 = g1.fm_g_m2 - state.fm_g_m2
            gain2 = g2.fm_g_m2 - state.fm_g_m2
            assert gain2 <= 2.0 * gain1 + 1e-12

    def test_lai_follows_dry_matter_with_cap(self):
        state = CropState(dm_g_m2=100.0, fm_g_m2=2000.0, lai=2.0)
        out = growth_step(state, 250.0, 3600.0, PARAMS, small_table(), 24.0, 1400.0)
        assert out.lai == pytest.approx(min(PARAMS.sla_m2_per_g_dm * out.dm_g_m2,
                                            PARAMS.lai_cap), rel=1e-12)

    def test_biomass_never_decreases(self):
        state = PARAMS.transplant_state()
        t = small_table()
        for _ in range(200):
            nxt = growth_step(state, 250.0, 3600.0, PARAMS, t, 24.0, 1400.0)
            assert nxt.dm_g_m2 >= state.dm_g_m2
            assert nxt.fm_g_m2 >= state.fm_g_m2
            state = nxt

    def test_timestep_refinement_under_half_percent(self):
        # forty photoperiod-days of growth at two integration steps
        t = small_table()
        hours = 40 * 16
        a = PARAMS.transplant_state()
        for _ in range(hours):
            a = growth_step(a, 250.0, 3600.0, PARAMS, t, 24.0, 1400.0)
        b = PARAMS.transplant_state()
        for _ in range(hours * 2):
            b = growth_step(b, 250.0, 1800.0, PARAMS, t, 24.0, 1400.0)
        assert a.fm_g_m2 == pytest.approx(b.fm_g_m2, rel=0.005)

    def test_interception_consistency(self):
        assert interception(3.0, 0.9) == pytest.approx(1.0 - math.exp(-2.7), rel=1e-12)

    def test_validation(self):
        state = PARAMS.transplant_state()
        with pytest.raises(ValueError):
            growth_step(state, -1.0, 3600.0, PARAMS, small_table(), 24.0, 1400.0)
        with pytest.raises(ValueError):
            growth_step(state, 250.0, 0.0, PARAMS, small_table(), 24.0, 1400.0)


class TestHarvest:
    def test_below_target_no_harvest(self):
        state = CropState(dm_g_m2=311.0, fm_g_m2=249.0 * 25.0, lai=6.0)
        out, got = harvest_if_due(state, PARAMS)
        assert got == 0.0 and out == state

    def test_harvest_books_target_mass(self):
        state = CropState(dm_g_m2=312.5, fm_g_m2=250.0 * 25.0, lai=6.0)
        out, got = harvest_if_due(state, PARAMS)
        assert got == pytest.approx(187.5, rel=1e-12)   # 0.25 kg x 750 plants
        assert out.cycles == 1
        assert out.fm_g_m2 == pytest.approx(PARAMS.transplant_state().fm_g_m2)

    def test_overshoot_still_books_target(self):
        state = CropState(dm_g_m2=400.0, fm_g_m2=280.0 * 25.0, lai=6.0)
        _, got = harvest_if_due(state, PARAMS)
        assert got == pytest.approx(187.5, rel=1e-12)

    def test_standing_credit_caps_at_target(self):
        state = CropState(dm_g_m2=400.0, fm_g_m2=280.0 * 25.0, lai=6.0)
        assert standing_credit_kg(state, PARAMS) == pytest.approx(187.5, rel=1e-12)
        half = CropState(dm_g_m2=150.0, fm_g_m2=125.0 * 25.0, lai=4.0)
        assert standing_credit_kg(half, PARAMS) == pytest.approx(93.75, rel=1e-12)


class TestCropParams:
    @pytest.mark.parametrize("change", [{"target_fresh_g": 1.6},
                                        {"transplant_dm_g_m2": 1000.0},
                                        {"dm_fraction": 0.0001}])
    def test_transplant_at_the_target_refused(self, change):
        # such a tier would book a harvest every hour, dark ones included
        with pytest.raises(ValueError, match="target_fresh_g"):
            replace(PARAMS, **change)


class TestCropState:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CropState(dm_g_m2=-1.0)
        with pytest.raises(ValueError):
            CropState(dm_g_m2=10.0, fm_g_m2=5.0)
