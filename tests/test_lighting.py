import numpy as np
import pytest

from pipefarm.lighting import (_EC_DEN, _EC_NUM, EC_FILM, STRATEGIES, EcFilm,
                               ec_control, ec_transmittance, control_tier3,
                               led_electric_power)
from pipefarm.config import ScenarioConfig

SHIPPED = ScenarioConfig()
CAP = SHIPPED.ec_cap_ppfd


def tier3(strategy, daylight_ppfd, clock_hour, **override):
    """`control_tier3` at the shipped setpoint, threshold, PWM floor and
    photoperiod, with any of them overridden."""
    shipped = dict(setpoint=SHIPPED.setpoint_ppfd, min_threshold=SHIPPED.min_threshold_ppfd,
                   min_dim=SHIPPED.min_dim, photoperiod=SHIPPED.photoperiod)
    return control_tier3(strategy, daylight_ppfd, clock_hour, **{**shipped, **override})


class TestLedPower:
    @pytest.mark.parametrize("ppe,kw", [(3.0, 7.5), (2.5, 9.0), (2.0, 11.25)])
    def test_nominal_powers(self, ppe, kw):
        p = led_electric_power(250.0, 90.0, ppe)
        assert p == pytest.approx(kw * 1000.0, rel=1e-12)

    def test_zero_command_zero_draw(self):
        assert led_electric_power(0.0, 90.0, 3.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            led_electric_power(250.0, 0.0, 2.5)
        with pytest.raises(ValueError):
            led_electric_power(-1.0, 30.0, 2.5)


class TestPwmFloor:
    def test_off_means_no_draw(self):
        # daylight at the setpoint switches the PWM LEDs off
        cmd = tier3("LP_Dim", 250.0, 12.0)
        assert cmd.led_ppfd == 0.0 and cmd.dim_fraction == 0.0

    @pytest.mark.parametrize("min_dim,lit", [(0.30, False), (0.25, True)])
    def test_floor_follows_min_dim(self, min_dim, lit):
        # a 28% supplement sits below a 30% floor and above a 25% one
        cmd = tier3("LP_Dim", 180.0, 12.0, min_dim=min_dim)
        assert cmd.led_ppfd == pytest.approx(70.0 if lit else 0.0)
        assert cmd.total_ppfd == pytest.approx(250.0 if lit else 180.0)

    def test_floor_is_a_share_of_the_setpoint_nominal(self):
        # a 200 setpoint: 30% of nominal is 60, so 140 of daylight still lights
        cmd = tier3("LP_Dim", np.array([140.0, 141.0]), 12.0, setpoint=200.0)
        assert cmd.led_ppfd.tolist() == [60.0, 0.0]
        assert cmd.dim_fraction[0] == pytest.approx(0.3)

    def test_floor_applies_only_to_pwm(self):
        # on/off and fixed fixtures run at nominal whatever the floor
        for name in ("Bench", "LP_Min_250"):
            assert tier3(name, 0.0, 12.0, min_dim=0.9).led_ppfd == 250.0


class TestTier3Control:
    def test_bench_ignores_daylight(self):
        cmd = tier3("Bench", 500.0, 12.0)
        assert cmd.led_ppfd == 250.0
        assert cmd.total_ppfd == 250.0

    def test_daylight_only_never_lights(self):
        cmd = tier3("LP_NL", 40.0, 12.0)
        assert cmd.led_ppfd == 0.0
        assert cmd.total_ppfd == 40.0

    def test_min_threshold_stacks_on_daylight(self):
        cmd = tier3("LP_Min_250", 99.0, 12.0)
        assert cmd.led_ppfd == 250.0
        assert cmd.total_ppfd == pytest.approx(349.0)

    def test_min_threshold_switches_off(self):
        cmd = tier3("LP_Min_250", 100.0, 12.0)
        assert cmd.led_ppfd == 0.0
        cmd = tier3("LP_Min_200", 99.0, 12.0)
        assert cmd.led_ppfd == 200.0

    def test_dim_full_supplement_at_night_hours(self):
        cmd = tier3("LP_Dim", 0.0, 12.0)
        assert cmd.led_ppfd == 250.0
        assert cmd.dim_fraction == 1.0

    def test_dim_tracks_setpoint(self):
        cmd = tier3("LP_Dim", 100.0, 12.0)
        assert cmd.led_ppfd == pytest.approx(150.0)
        assert cmd.total_ppfd == pytest.approx(250.0)
        assert cmd.dim_fraction == pytest.approx(0.6)

    def test_min_dim_band_switches_off(self):
        # required supplement below 30% of nominal: LEDs off entirely
        cmd = tier3("LP_Dim", 180.0, 12.0)
        assert cmd.led_ppfd == 0.0
        assert cmd.total_ppfd == pytest.approx(180.0)

    def test_min_dim_boundary_inclusive(self):
        cmd = tier3("LP_Dim", 175.0, 12.0)
        assert cmd.led_ppfd == pytest.approx(75.0)
        assert cmd.dim_fraction == pytest.approx(0.3)

    def test_daylight_beyond_setpoint(self):
        cmd = tier3("LP_Dim", 400.0, 12.0)
        assert cmd.led_ppfd == 0.0
        assert cmd.total_ppfd == 400.0

    def test_outside_photoperiod_leds_off_daylight_passes(self):
        for strategy in ("Bench", "LP_Dim", "LP_Min_250"):
            cmd = tier3(strategy, 120.0, 21.0)
            assert cmd.led_ppfd == 0.0
        assert tier3("LP_Dim", 120.0, 21.0).total_ppfd == 120.0

    def test_gh_has_no_tier3_leds(self):
        cmd = tier3("GH", 600.0, 12.0)
        assert cmd.led_ppfd == 0.0
        assert cmd.total_ppfd == 600.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            tier3("LP_Magic", 0.0, 12.0)

    def test_command_invariants_across_grid(self):
        for strategy in STRATEGIES:
            for daylight in (0.0, 42.0, 99.0, 101.0, 174.0, 176.0, 250.0, 600.0):
                for hour in (0.0, 4.0, 12.0, 19.0, 20.0, 23.0):
                    cmd = tier3(strategy, daylight, hour)
                    assert cmd.led_ppfd >= 0.0
                    assert cmd.dim_fraction == 0.0 or 0.3 <= cmd.dim_fraction <= 1.0

    def test_pwm_exact_setpoint_inside_dim_window(self):
        for daylight in (0.0, 50.0, 100.0, 150.0, 175.0):
            cmd = tier3("LP_Dim", daylight, 12.0)
            assert cmd.total_ppfd == pytest.approx(250.0)


class TestEcFilm:
    def test_zero_voltage_transmittance(self):
        assert ec_transmittance(0.0) == pytest.approx(0.5426, abs=1e-4)

    def test_large_voltage_asymptote(self):
        assert ec_transmittance(1e4) == pytest.approx(0.735, abs=1e-3)

    def test_curve_is_not_monotone(self):
        film = EcFilm()
        assert ec_transmittance(0.0) > film.tau_min     # dips first
        assert film.tau_max > ec_transmittance(1e4)     # peaks above the asymptote
        assert 40.0 < film.v_passive < 55.0

    def test_extremes_are_pinned(self):
        # bit for bit; above the peak the curve only falls toward a/d
        for film in (EcFilm(), EC_FILM):
            assert (film.v_passive, film.tau_max) == (45.4038754726109, 0.7433189252414235)
            assert (film.v_dip, film.tau_min) == (0.5748534631870031, 0.5418663347357237)

    def test_no_voltage_beats_the_exact_peak(self):
        film = EcFilm()
        grid = np.arange(0, 100_001) / 1000.0
        assert max(ec_transmittance(v) for v in grid) <= film.tau_max
        assert min(ec_transmittance(v) for v in grid) >= film.tau_min

    def test_closed_form_matches_bisection(self):
        film = EcFilm()

        def bisected(tau):
            lo, hi = 0.0, film.v_passive
            for _ in range(80):
                mid = (lo + hi) / 2.0
                if ec_transmittance(mid) < tau:
                    lo = mid
                else:
                    hi = mid
            return hi

        tau0 = ec_transmittance(0.0)
        targets = np.linspace(tau0, film.tau_max, 10_002)[1:-1]
        targets = np.append(targets, film.tau_max - np.logspace(-15, -6, 50))
        for tau in targets:
            v = film.voltage_for_tau(tau)
            assert 0.0 <= v <= film.v_passive
            want = ec_transmittance(bisected(tau))
            assert abs(ec_transmittance(v) - want) <= 1e-15 * want

    def test_asymptote_target_is_the_linear_case(self):
        film = EcFilm()
        tau = _EC_NUM[0] / _EC_DEN[0]
        assert _EC_NUM[0] - tau * _EC_DEN[0] == 0.0         # the v**2 term vanishes
        assert ec_transmittance(0.0) < tau < film.tau_max
        v = film.voltage_for_tau(tau)
        assert 0.0 < v < film.v_passive
        assert ec_transmittance(v) == pytest.approx(tau, rel=1e-14)

    def test_cap_inactive_uses_passive_state(self):
        film = EC_FILM
        v, tau, out, flag = ec_control(300.0, CAP)
        assert v == film.v_passive
        assert tau == film.tau_max
        assert out == pytest.approx(300.0 * film.tau_max)
        assert not flag

    def test_active_capping_hits_bound(self):
        film = EC_FILM
        v, tau, out, flag = ec_control(600.0, CAP)
        assert out == pytest.approx(400.0, abs=0.1)
        assert 0.0 < v < film.v_passive
        assert not flag

    def test_dip_targets_hold_the_cap(self):
        # cap / raw in [tau_min, tau(0)) is reached inside the dip below 0.57 V
        film = EC_FILM
        tau0 = ec_transmittance(0.0)
        raws = np.append(np.arange(737_000, 738_501) / 1000.0,
                         [400.0 / film.tau_min, 400.0 / tau0])
        reachable = 0
        for raw in raws:
            v, tau, out, flag = ec_control(raw, 400.0)
            if 400.0 / raw < film.tau_min:
                assert flag and v == 0.0 and tau == tau0     # out of the film's reach
                continue
            reachable += 1
            assert not flag
            assert out <= 400.0 * (1.0 + 1e-12)
        assert reachable > 1000

    def test_dip_target_at_rounding_of_tau_min(self):
        film = EcFilm()
        for tau in (film.tau_min, film.tau_min + 1e-16, film.tau_min + 1e-15):
            v = film.voltage_for_tau(tau)
            assert 0.0 < v < 1.0
            assert ec_transmittance(v) <= tau + 1e-15

    def test_unreachable_cap_flags(self):
        film = EC_FILM
        v, tau, out, flag = ec_control(1000.0, CAP)
        assert flag
        assert v == 0.0
        assert out == pytest.approx(1000.0 * ec_transmittance(0.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ec_transmittance(-1.0)
        with pytest.raises(ValueError):
            ec_control(-5.0, CAP)
