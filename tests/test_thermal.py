import math

import numpy as np
import pytest

from pipefarm.thermal import (BALANCE, TRANSIENT_DEADBAND_K, TRANSIENT_SUBSTEPS,
                              ChamberGeometry, CopModel, LatentModel, Surface, Term,
                              envelope_load, hvac_electricity, latent_balance, lp_convection,
                              relative_residual, solve_hvac_load, transient_loads)

ZERO = dict.fromkeys(BALANCE, 0.0)


def closed(**terms):
    """`solve_hvac_load` with every term not given at 0.0."""
    return solve_hvac_load(**{**dict.fromkeys(BALANCE, 0.0), **terms})


def hand_pipe_loss(dt, length=1.0, area=math.pi * 0.075 ** 2):
    """Independent arithmetic for the buoyancy chain, recomputed from scratch."""
    ra = 9.81 * (1.0 / 297.0) * dt * length ** 3 / ((1.5e-5) ** 2 / 0.71)
    nu = 0.15 * ra ** 0.33
    u = nu * 0.026 / length
    return u * area * dt


class TestPipeConvection:
    @pytest.mark.parametrize("dt", [0.0, -5.0])
    def test_suppressed_without_gradient(self, dt):
        q, ra = lp_convection(24.0, 24.0 - dt, 1.0, math.pi * 0.075 ** 2)
        assert q == 0.0 and ra == 0.0

    def test_hand_oracle_single_pipe(self):
        # 24 C inside vs 20 C outside, one 150 mm x 1 m pipe
        q, ra = lp_convection(24.0, 20.0, 1.0, math.pi * 0.075 ** 2)
        expected = hand_pipe_loss(4.0)
        assert expected == pytest.approx(0.1928, abs=0.0005)
        assert q == pytest.approx(expected, rel=1e-12)
        assert 1e7 < ra < 1e11

    def test_monotone_in_dt(self):
        prev = 0.0
        for dt in (0.5, 1.0, 2.0, 4.0, 8.0):
            q, _ = lp_convection(24.0, 24.0 - dt, 1.0, 0.0177)
            assert q > prev
            prev = q

    def test_continuous_at_zero(self):
        q, _ = lp_convection(24.0, 23.999, 1.0, 0.0177)
        assert 0.0 < q < 1e-3

    def test_fleet_scaling(self):
        q1, _ = lp_convection(24.0, 20.0, 1.0, 0.0177, n_pipes=1)
        q750, _ = lp_convection(24.0, 20.0, 1.0, 0.0177, n_pipes=750)
        assert q750 == pytest.approx(750.0 * q1, rel=1e-12)


class TestEnvelope:
    def test_zero_gradient(self):
        assert envelope_load(ChamberGeometry(), 24.0, 24.0) == 0.0

    def test_hand_product(self):
        geom = ChamberGeometry(surfaces=(Surface("wall", 100.0, 0.175),))
        assert envelope_load(geom, 20.0, 30.0) == pytest.approx(175.0, rel=1e-12)

    def test_glazed_roof(self):
        geom = ChamberGeometry(surfaces=(Surface("roof_glazing", 49.0, 3.75),))
        assert envelope_load(geom, 20.0, 30.0) == pytest.approx(1837.5, rel=1e-12)

    def test_sign_convention(self):
        geom = ChamberGeometry()
        assert envelope_load(geom, 24.0, 14.0) < 0.0   # loss when colder outside


class TestBalanceClosure:
    def test_all_zero(self):
        assert closed()["q_hc"] == 0.0

    def test_reference_case(self):
        bd = closed(q_led=9000.0, q_plant=1000.0, q_eva=2000.0)
        assert bd["q_hc"] == pytest.approx(-6000.0, rel=1e-12)

    def test_solar_gain_grows_cooling(self):
        bd = closed(q_led=9000.0, q_plant=1000.0, q_eva=2000.0, q_lp_sol=5000.0)
        assert bd["q_hc"] == pytest.approx(-11000.0, rel=1e-12)

    def test_residual_is_tiny(self):
        bd = solve_hvac_load(q_env=123.4, q_led=8765.0, q_lp_sol=432.1,
                             q_lp_conv=55.0, q_plant=321.0, q_eva=654.0)
        assert relative_residual(bd) <= 1e-12

    def test_hand_closed_balance_has_no_residual(self):
        bd = {**ZERO, "q_env": 10.0, "q_led": 100.0, "q_hc": -110.0}
        assert relative_residual(bd) == 0.0

    def test_residual_floor_is_one_watt(self):
        # every term under 1 W: the residual is divided by the 1 W floor
        assert relative_residual({**ZERO, "q_env": 0.5, "q_hc": 0.0}) == 0.5

    def test_result_holds_the_table_then_q_hc(self):
        bd = solve_hvac_load(**{name: float(k) for k, name in enumerate(reversed(BALANCE))})
        assert list(bd) == [*BALANCE, "q_hc"]

    def test_terms_outside_the_table_raise(self):
        with pytest.raises(TypeError, match="q_fan"):
            solve_hvac_load(**ZERO, q_fan=100.0)
        with pytest.raises(TypeError):
            solve_hvac_load(q_env=1.0, q_led=2.0)
        with pytest.raises(KeyError):
            relative_residual({"q_env": 1.0, "q_hc": -1.0})

    def test_folds_match_the_written_out_balance_bit_for_bit(self):
        """q_hc and the residual against the balance written out by hand,
        signed zeros included: a sum started from 0.0 would flip them."""
        rng = np.random.default_rng(5)
        pool = np.array([0.0, -0.0, -0.0, 1.0, -1.0, 0.1, 1e16, 2.0 / 3.0])
        t = {name: rng.choice(pool, 8000) for name in BALANCE}
        bd = solve_hvac_load(**t)
        q_hc = (-(t["q_env"] + t["q_led"] + t["q_lp_sol"]) + t["q_lp_conv"] + t["q_plant"]
                + t["q_eva"])
        residual = (t["q_env"] + t["q_led"] + t["q_lp_sol"] - t["q_lp_conv"] - t["q_plant"]
                    - t["q_eva"] + q_hc)
        assert np.array_equal(bd["q_hc"].view(np.int64), q_hc.view(np.int64))
        zero_signs = np.signbit(q_hc[q_hc == 0.0])
        assert zero_signs.any() and not zero_signs.all()       # the pool reaches both zeros
        assert not np.signbit(closed(**dict.fromkeys(BALANCE, -0.0))["q_hc"])
        floor = np.ones(8000)
        magnitude = np.maximum.reduce([floor] + [np.abs(v) for v in (*t.values(), q_hc)])
        assert np.array_equal(relative_residual(bd), np.abs(residual) / magnitude)

    def test_a_term_added_to_the_table_reaches_the_balance(self, monkeypatch):
        monkeypatch.setitem(BALANCE, "q_fan", Term(+1, False))
        bd = closed(q_led=900.0, q_fan=100.0)
        assert list(bd)[-2:] == ["q_fan", "q_hc"]
        assert bd["q_hc"] == -1000.0 and relative_residual(bd) == 0.0
        with pytest.raises(TypeError):
            solve_hvac_load(**{name: 0.0 for name in BALANCE if name != "q_fan"})
        # held, not recomputed, in the transient node: it heats the air as q_led does
        t_ext = np.array([24.0])
        (fan_cool, fan_heat), (led_cool, led_heat) = (
            transient_loads(closed(**{name: 5000.0}), t_ext, ChamberGeometry(), 24.0, 20000.0)
            for name in ("q_fan", "q_led"))
        assert np.array_equal(fan_cool, led_cool) and np.array_equal(fan_heat, led_heat)
        assert fan_cool[0] > 0.0 == fan_heat[0]


class TestCopModel:
    def test_no_load_no_power(self):
        assert hvac_electricity(0.0, 0.0, 25.0, CopModel()) == (0.0, 0.0)

    def test_default_cooling_point(self):
        # 10 kW at 25 C ambient with the default second-law scaling
        cop = CopModel()
        expected_cop = 0.45 * (7.0 + 273.15) / ((25.0 + 10.0) - 7.0)
        assert cop.cop_cooling(25.0) == pytest.approx(expected_cop, rel=1e-12)
        p, _ = hvac_electricity(10_000.0, 0.0, 25.0, cop)
        assert p == pytest.approx(10_000.0 / expected_cop, rel=1e-12)
        assert p == pytest.approx(2221.0, abs=2.0)

    def test_hotter_ambient_draws_more(self):
        cop = CopModel()
        p20, _ = hvac_electricity(10_000.0, 0.0, 20.0, cop)
        p40, _ = hvac_electricity(10_000.0, 0.0, 40.0, cop)
        assert p40 > p20

    def test_clamped_range(self):
        cop = CopModel()
        assert cop.cop_cooling(90.0) == 1.5           # unclamped 0.45 * 280.15 / 93 = 1.356
        assert cop.cop_heating(-60.0) == 1.5          # unclamped 0.45 * 318.15 / 110 = 1.302
        assert cop.cop_cooling(-40.0) == cop.cop_max  # condenser below the evaporator

    def test_nonphysical_configuration_rejected(self):
        with pytest.raises(ValueError):
            CopModel(approach_k=0.0)
        with pytest.raises(ValueError):
            CopModel(cop_max=1.0)                     # below the COP floor

    def test_latent_duty_added_to_cooling(self):
        cop = CopModel()
        base, _ = hvac_electricity(5000.0, 0.0, 30.0, cop)
        with_latent, _ = hvac_electricity(5000.0, 0.0, 30.0, cop, q_eva_w=2000.0)
        assert with_latent == pytest.approx(base * 7000.0 / 5000.0, rel=1e-12)

    def test_heating_uses_heating_cop(self):
        cop = CopModel()
        cool, p = hvac_electricity(0.0, 3000.0, 15.0, cop)
        assert cool == 0.0
        assert p == pytest.approx(3000.0 / cop.cop_heating(15.0), rel=1e-12)

    def test_magnitude_validation(self):
        with pytest.raises(ValueError):
            hvac_electricity(-1.0, 0.0, 25.0, CopModel())


class TestLatentBalance:
    def test_zero_transpiration(self):
        assert latent_balance(0.0, LatentModel()) == (0.0, 0.0)

    def test_one_kilogram_per_hour(self):
        q_eva, rec = latent_balance(1.0 / 3600.0, LatentModel())
        assert q_eva == pytest.approx(680.0, abs=1.0)
        assert rec == pytest.approx(0.95, rel=1e-12)

    def test_full_recovery_closes_loop(self):
        model = LatentModel(condensate_recovery=1.0)
        _, rec = latent_balance(2.0 / 3600.0, model, dt_s=3600.0)
        assert rec == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            latent_balance(-1.0, LatentModel())
        with pytest.raises(ValueError):
            LatentModel(condensate_recovery=1.5)


class TestHourArrays:
    """The balance, COP, HVAC and latent functions take arrays of hours and
    return, hour by hour, exactly what the scalar call returns; pipe
    convection to the last bit of its power law."""

    T_EXT = [-60.0, -5.0, 12.0, 24.0, 31.5, 46.0, 80.0]

    def test_cop_and_hvac_match_scalar_calls(self):
        cop = CopModel()
        cool = [0.0, 150.0, 0.0, 2000.0, 9000.0, 0.0, 40.0]
        heat = [300.0, 0.0, 0.0, 0.0, 0.0, 55.0, 0.0]
        latent = [0.0, 10.0, 0.0, 500.0, 0.0, 0.0, 5.0]
        t = np.array(self.T_EXT)
        assert cop.cop_cooling(t).tolist() == [cop.cop_cooling(x) for x in self.T_EXT]
        assert cop.cop_heating(t).tolist() == [cop.cop_heating(x) for x in self.T_EXT]
        draws = hvac_electricity(np.array(cool), np.array(heat), t, cop, np.array(latent))
        assert list(zip(*(d.tolist() for d in draws))) == [
            hvac_electricity(c, h, x, cop, la)
            for c, h, x, la in zip(cool, heat, self.T_EXT, latent)]
        with pytest.raises(ValueError):
            hvac_electricity(np.array([1.0, -1.0]), np.zeros(2), np.zeros(2), cop)

    def test_latent_and_residual_match_scalar_calls(self):
        model = LatentModel(condensate_recovery=0.9)
        rates = [0.0, 1e-4, 3.3e-4]
        q_eva, rec = latent_balance(np.array(rates), model)
        for k, rate in enumerate(rates):
            assert (q_eva[k], rec[k]) == latent_balance(rate, model)
        with pytest.raises(ValueError):
            latent_balance(np.array([0.0, -1e-6]), model)
        terms = dict(q_env=[-800.0, 0.0, 350.0], q_led=[9000.0, 0.0, 4500.0],
                     q_plant=[1200.0, 0.0, 0.25], q_eva=[0.3, 0.0, 400.0])
        bd = closed(**{k: np.array(v) for k, v in terms.items()})
        for k in range(3):
            one = closed(**{name: v[k] for name, v in terms.items()})
            assert bd["q_hc"][k] == one["q_hc"]
            assert relative_residual(bd)[k] == relative_residual(one)

    def test_pipe_convection_matches_scalar_calls(self):
        t_in = np.array([24.0, 24.0, 24.0, 30.0, 24.0, -3.0, 24.0, 24.0])
        t_ext = np.array([20.0, 24.0, 31.0, -10.0, 23.999, -3.5, 24.5, 0.0])
        q, ra = lp_convection(t_in, t_ext, 1.0, 0.0177, n_pipes=750)
        for k, (a, b) in enumerate(zip(t_in.tolist(), t_ext.tolist())):
            q1, ra1 = lp_convection(a, b, 1.0, 0.0177, n_pipes=750)
            assert q[k] == pytest.approx(q1, rel=1e-15, abs=0.0)
            assert ra[k] == pytest.approx(ra1, rel=1e-15, abs=0.0)
        off = t_in <= t_ext
        assert off.sum() == 3
        # +0.0, not -0.0, where the chamber is no warmer than outside
        assert not np.signbit(q[off]).any() and not np.signbit(ra[off]).any()
        assert np.all(q[off] == 0.0) and np.all(q[~off] > 0.0)


    def test_pipe_convection_on_warm_entries_matches_the_whole_array(self):
        """The correlation runs on the warmer entries only; the result equals
        evaluating it over the whole array with the rest clipped to zero."""
        rng = np.random.default_rng(3)
        t_ext = np.concatenate((24.0 + rng.normal(0.0, 6.0, 8000),
                                [24.0, 24.0 - 1e-9, 24.0 + 1e-9, np.nan, np.inf, -np.inf]))
        q, ra = lp_convection(24.0, t_ext, 1.3, 0.0177, n_pipes=750)
        with np.errstate(invalid="ignore"):
            dt = np.where(24.0 - t_ext > 0.0, 24.0 - t_ext, 0.0)
        dense_ra = (9.81 * (1.0 / 297.0) * dt * 1.3 ** 3 / ((1.5e-5) ** 2 / 0.71))
        dense_q = 0.15 * dense_ra ** 0.33 * 0.026 / 1.3 * 0.0177 * dt * 750
        assert np.array_equal(ra, dense_ra) and np.array_equal(q, dense_q)
        assert not np.signbit(q).any() and not np.signbit(ra).any()
        assert 0 < np.count_nonzero(q) < q.size

def scalar_air_node(chamber, gains_fixed, t_ext, setpoint, substeps, deadband, capacity,
                    pipe=None, events=None):
    """One hour of the transient air node as scalar substeps: the reference
    `transient_loads` must reproduce. `events` collects which deadband
    edges and capacity clamps the hour hit.
    """
    cap = chamber.thermal_capacity_j_per_k
    dt = 3600.0 / substeps
    t_air = setpoint
    cool = heat = 0.0
    gain = cap / dt
    for _ in range(substeps):
        q_env = envelope_load(chamber, t_air, t_ext)
        q_conv = 0.0
        if pipe is not None:
            q_conv, _ = lp_convection(t_air, t_ext, **pipe)
        err = setpoint - t_air
        q_hc = 0.0
        if abs(err) > deadband:
            q_hc = max(-capacity, min(capacity, gain * err))
            if events is not None:
                events.add("above_band" if err < 0.0 else "below_band")
                if abs(gain * err) > capacity:
                    events.add("cool_clamp" if err < 0.0 else "heat_clamp")
            if q_hc < 0.0:
                cool -= q_hc
            else:
                heat += q_hc
        t_air += (gains_fixed + q_env - q_conv + q_hc) * dt / cap
    return cool / substeps, heat / substeps


class TestTransientAirNode:
    """`transient_loads` against the scalar per-hour air node."""

    SETPOINT, CAPACITY = 24.0, 20000.0
    PIPE = dict(length_m=1.0, heat_area_m2=math.pi * 0.075 ** 2, n_pipes=750)
    # net fixed gains (W) and outside temperature (C) per hour: idle, mild
    # drifts across each deadband edge, and loads past the capacity both ways
    GAINS = [0.0, 1500.0, -1500.0, 4000.0, -4000.0, 60000.0, -60000.0, 900.0, 25000.0,
             -30000.0, 0.0, 300.0]
    T_EXT = [24.0, 24.0, 24.0, 35.0, 5.0, 45.0, -20.0, 23.8, 10.0, 40.0, 60.0, -45.0]

    def breakdown(self):
        # the drifting terms carry junk: the node must recompute them
        g = np.array(self.GAINS)
        return {"q_env": np.full(g.size, 1e9), "q_led": g * 1.5, "q_lp_sol": g * 0.25,
                "q_lp_conv": np.full(g.size, -1e9), "q_plant": g * 0.5, "q_eva": g * 0.25,
                "q_hc": np.full(g.size, 7e8)}

    def run(self, pipe):
        bd = self.breakdown()
        gains = bd["q_led"] + bd["q_lp_sol"] - bd["q_plant"] - bd["q_eva"]
        chamber = ChamberGeometry()
        got = transient_loads(bd, np.array(self.T_EXT), chamber, self.SETPOINT,
                              self.CAPACITY, pipe)
        events = set()
        want = [scalar_air_node(chamber, gains.item(i), x, self.SETPOINT, TRANSIENT_SUBSTEPS,
                                TRANSIENT_DEADBAND_K, self.CAPACITY, pipe, events)
                for i, x in enumerate(self.T_EXT)]
        assert events == {"above_band", "below_band", "cool_clamp", "heat_clamp"}
        return got, np.array(want).T

    def test_matches_scalar_node_exactly_without_pipes(self):
        (cool, heat), (want_cool, want_heat) = self.run(None)
        assert np.array_equal(cool, want_cool) and np.array_equal(heat, want_heat)
        assert cool[5] == pytest.approx(self.CAPACITY, rel=0.1)
        assert heat[6] == pytest.approx(self.CAPACITY, rel=0.1)
        assert cool[0] == heat[0] == 0.0

    def test_matches_scalar_node_with_pipes(self):
        (cool, heat), (want_cool, want_heat) = self.run(self.PIPE)
        np.testing.assert_allclose(cool, want_cool, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(heat, want_heat, rtol=1e-12, atol=0.0)
        assert not np.array_equal(cool, self.run(None)[0][0])   # the pipes count
