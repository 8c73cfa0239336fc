import math

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

    def test_shipped_table_lue_non_increasing_in_ppfd(self, lue_base):
        for it, t in enumerate(lue_base.temps):
            for ic, c in enumerate(lue_base.co2s):
                fm = lue_base.lue_fm[it, ic, :]
                assert np.all(np.diff(fm) <= 1e-15)


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
        assert out.harvested_kg == pytest.approx(187.5)

    def test_overshoot_still_books_target(self):
        state = CropState(dm_g_m2=400.0, fm_g_m2=280.0 * 25.0, lai=6.0)
        _, got = harvest_if_due(state, PARAMS)
        assert got == pytest.approx(187.5, rel=1e-12)

    def test_standing_credit_caps_at_target(self):
        state = CropState(dm_g_m2=400.0, fm_g_m2=280.0 * 25.0, lai=6.0)
        assert standing_credit_kg(state, PARAMS) == pytest.approx(187.5, rel=1e-12)
        half = CropState(dm_g_m2=150.0, fm_g_m2=125.0 * 25.0, lai=4.0)
        assert standing_credit_kg(half, PARAMS) == pytest.approx(93.75, rel=1e-12)


class TestCropState:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CropState(dm_g_m2=-1.0)
        with pytest.raises(ValueError):
            CropState(dm_g_m2=10.0, fm_g_m2=5.0)
