import math
import re
from pathlib import Path

import numpy as np
import pytest

from pipefarm.climate import (ClimateError, SiteConfig, _resolve_azimuth, declination,
                              equation_of_time, incidence_cosine, load_climate,
                              solar_position, sunpath_table, synthetic_dubai_year)
from pipefarm.config import ScenarioConfig
from pipefarm.engine import solar_angles

DUBAI = SiteConfig(latitude=25.0, longitude=55.0, utc_offset=4.0)


class TestDeclination:
    def test_equinox_is_zero(self):
        assert abs(declination(81)) < 1e-6

    def test_summer_solstice_near_max(self):
        assert declination(172) > 23.44

    def test_bounded_all_year(self):
        for n in range(1, 366):
            assert abs(declination(n)) <= 23.45 + 1e-12

    def test_day_366_folds_onto_365(self):
        a = solar_position(DUBAI, 366, 12.0)
        b = solar_position(DUBAI, 365, 12.0)
        assert a == b


class TestEquationOfTime:
    def test_day_81_hand_value(self):
        # B = 0 kills both sine terms, leaving the plain cosine coefficient
        assert equation_of_time(81) == pytest.approx(-7.53, abs=1e-12)

    def test_annual_range(self):
        vals = [equation_of_time(n) for n in range(1, 366)]
        assert min(vals) >= -15.0
        assert max(vals) <= 17.0


class TestSolarPosition:
    def test_dubai_equinox_noon_altitude(self):
        # peak altitude should land at 90 - latitude when declination is 0
        best = max(solar_position(DUBAI, 81, h / 10.0).altitude
                   for h in range(100, 150))
        assert best == pytest.approx(65.0, abs=0.5)

    def test_noon_azimuth_south(self):
        pos = max((solar_position(DUBAI, 81, h / 10.0) for h in range(100, 150)),
                  key=lambda p: p.altitude)
        assert pos.azimuth == pytest.approx(180.0, abs=2.0)

    def test_solar_noon_clock_shift(self):
        # Dubai sits 5 deg west of its zone meridian: the sun transits late
        pos = solar_position(DUBAI, 81, 12.0 + (20.0 + 7.53) / 60.0)
        assert abs(pos.hour_angle) < 0.01

    def test_morning_azimuth_east_evening_west(self):
        morning = solar_position(DUBAI, 81, 8.0)
        evening = solar_position(DUBAI, 81, 17.0)
        assert 45.0 < morning.azimuth < 135.0
        assert 225.0 < evening.azimuth < 315.0

    def test_summer_sunrise_north_of_east(self):
        pos = solar_position(DUBAI, 172, 6.0)
        assert pos.altitude > 0.0
        assert pos.azimuth < 90.0

    def test_deterministic(self):
        a = solar_position(DUBAI, 123, 13.37)
        b = solar_position(DUBAI, 123, 13.37)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solar_position(DUBAI, 0, 12.0)
        with pytest.raises(ValueError):
            solar_position(DUBAI, 12, 24.0)


def scalar_azimuth(phi_r, delta_r, omega_r, alt_r):
    """Compass azimuth of one hour on plain floats: the reference the array
    `_resolve_azimuth` must reproduce."""
    cos_alt = math.cos(alt_r)
    if cos_alt < 1e-12:
        return 180.0 if phi_r >= delta_r else 0.0
    s = math.cos(delta_r) * math.sin(omega_r) / cos_alt
    s = max(-1.0, min(1.0, s))
    gamma_s = math.degrees(math.asin(s))
    south_side = (math.sin(alt_r) * math.sin(phi_r) - math.sin(delta_r)) >= 0.0
    if not south_side:
        gamma_s = 180.0 - gamma_s if gamma_s >= 0.0 else -180.0 - gamma_s
    return (180.0 + gamma_s) % 360.0


def scalar_sun(site, day, clock_hour):
    """(altitude, azimuth) of one hour on plain floats: the reference the
    array `solar_position` must reproduce."""
    n = min(day, 365)
    delta = 23.45 * math.sin(math.radians(360.0 * (284 + n) / 365.0))
    b = math.radians((n - 81) * 360.0 / 364.0)
    eot = 9.87 * math.sin(2.0 * b) - 7.53 * math.cos(b) - 1.5 * math.sin(b)
    h_sol = clock_hour + (eot + 4.0 * (site.longitude - site.reference_longitude)) / 60.0
    phi_r = math.radians(site.latitude)
    delta_r = math.radians(delta)
    omega_r = math.radians(15.0 * (h_sol - 12.0))
    sin_alt = (math.sin(delta_r) * math.sin(phi_r)
               + math.cos(delta_r) * math.cos(phi_r) * math.cos(omega_r))
    alt = math.degrees(math.asin(max(-1.0, min(1.0, sin_alt))))
    return alt, scalar_azimuth(phi_r, delta_r, omega_r, math.radians(alt))


class TestScalarOracle:
    """One array call against the per-hour scalar chain: `np.arcsin` may
    differ from libm's `asin` by an ulp, so altitude agrees to 4e-16
    relative and azimuth to 1e-11 degrees."""

    @staticmethod
    def assert_matches(alt, azi, want):
        want_alt, want_azi = np.array(want).T
        assert np.all(np.abs(alt - want_alt) <= 4e-16 * np.abs(want_alt))
        assert np.all(np.abs(azi - want_azi) <= 1e-11)

    @pytest.mark.parametrize("site", [DUBAI, SiteConfig(-33.9, 18.4, 2.0)],
                             ids=["dubai", "south"])
    def test_year_of_hours(self, site):
        alt, azi = solar_angles(site, 0.5)
        self.assert_matches(alt, azi, [scalar_sun(site, i // 24 + 1, i % 24 + 0.5)
                                       for i in range(8760)])

    def test_sunpath_grid(self):
        rows = sunpath_table(DUBAI)
        assert len(rows) == 12 * 48
        self.assert_matches(np.array([r["altitude"] for r in rows]),
                            np.array([r["azimuth"] for r in rows]),
                            [scalar_sun(DUBAI, r["day"], r["clock_hour"]) for r in rows])

    def test_zenith_takes_the_equator_side(self):
        phi = np.radians([25.0, 10.0, 25.0, 10.0])
        delta = np.radians([20.0, 20.0, 20.0, 20.0])
        alt = np.radians([90.0, 90.0, 60.0, 60.0])
        got = _resolve_azimuth(phi, delta, 0.3, alt)
        want = [scalar_azimuth(*args) for args in zip(phi, delta, [0.3] * 4, alt)]
        assert got[:2].tolist() == [180.0, 0.0] == want[:2]
        assert np.all(np.abs(got - want) <= 1e-11)

    def test_scalar_call_is_the_array_entry(self):
        pos = solar_position(DUBAI, np.array([80, 172]), np.array([[9.25], [15.5]]))
        assert pos.altitude.shape == (2, 2)
        one = solar_position(DUBAI, 172, 15.5)
        assert (one.altitude, one.azimuth) == (pos.altitude[1, 1], pos.azimuth[1, 1])

    @pytest.mark.parametrize("day,hour,bad", [([1, 367, 5], 12.0, "367"),
                                              (12, [3.0, 24.5], "24.5"),
                                              (12, [0.5, float("nan")], "nan")])
    def test_out_of_range_entry_is_named(self, day, hour, bad):
        with pytest.raises(ValueError, match=f"out of range: {bad}$"):
            solar_position(DUBAI, np.array(day), np.array(hour))


class TestIncidenceCosine:
    @pytest.mark.parametrize("alt,expected", [(90.0, 1.0), (30.0, 0.5), (-5.0, 0.0)])
    def test_values(self, alt, expected):
        assert incidence_cosine(alt) == pytest.approx(expected, abs=1e-12)

    def test_below_horizon_always_zero(self):
        for alt in np.linspace(-90.0, 0.0, 50):
            assert incidence_cosine(float(alt)) == 0.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            incidence_cosine(91.0)
        with pytest.raises(ValueError, match="altitude out of range: -90.5"):
            incidence_cosine(np.array([10.0, -90.5]))

    def test_array_of_altitudes(self):
        alts = np.array([-5.0, 0.0, 30.0, 90.0])
        assert incidence_cosine(alts).tolist() == [incidence_cosine(a) for a in alts]


def _write_year(path: Path, rows):
    with open(path, "w") as fh:
        fh.write("time,temperature,dni,dhi\n")
        for r in rows:
            fh.write(",".join(str(c) for c in r) + "\n")


def _default_rows(n=8760):
    return [(i, 25.0, 500.0, 100.0) for i in range(n)]


class TestLoadClimate:
    def test_happy_path(self, tmp_path):
        p = tmp_path / "ok.csv"
        _write_year(p, _default_rows())
        series = load_climate(p)
        assert len(series) == 8760
        assert series.temperature[0] == 25.0

    def test_negative_dni_names_row(self, tmp_path):
        rows = _default_rows()
        rows[100] = (100, 25.0, -3.0, 100.0)
        p = tmp_path / "neg.csv"
        _write_year(p, rows)
        with pytest.raises(ClimateError, match="row 100"):
            load_climate(p)

    # a blank row after hour 10 puts hour 100's record on row 101; every
    # check names that row, once
    @pytest.mark.parametrize("record,match", [
        ((100, 25.0, -3.0, 100.0), "negative DNI at row 101"),
        ((100, 25.0, 500.0, -1.0), "negative DHI at row 101"),
        ((100.5, 25.0, 500.0, 100.0), "non-hourly timestamp step at row 101"),
        ((98, 25.0, 500.0, 100.0), "timestamps not strictly increasing at row 101"),
        (("noon", 25.0, 500.0, 100.0), "bad record at row 101: unparseable timestamp 'noon'"),
        ((100, "warm", 500.0, 100.0),
         "bad record at row 101: could not convert string to float: 'warm'")])
    def test_rows_count_blank_lines(self, record, match, tmp_path):
        rows = _default_rows()
        rows[100] = record
        rows.insert(11, ())
        p = tmp_path / "blank.csv"
        _write_year(p, rows)
        with pytest.raises(ClimateError, match=f"^{re.escape(match)}$"):
            load_climate(p)

    def test_incomplete_year(self, tmp_path):
        p = tmp_path / "short.csv"
        _write_year(p, _default_rows(8759))
        with pytest.raises(ClimateError, match="incomplete year"):
            load_climate(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "cols.csv"
        with open(p, "w") as fh:
            fh.write("time,temperature,dni\n")
            fh.write("0,25,500\n")
        with pytest.raises(ClimateError, match="missing column"):
            load_climate(p)

    def test_missing_mapped_column_names_its_key(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("time,temperature,dni,dhi\n0,25,500,100\n")
        with pytest.raises(ClimateError, match=re.escape(
                "missing column(s) ['fuzz'] for ['climate_columns.dni'] in cols.csv; header=")):
            load_climate(p, columns={"dni": "fuzz"})

    def test_non_monotone_timestamps(self, tmp_path):
        rows = _default_rows()
        rows[10] = (9, 25.0, 500.0, 100.0)
        p = tmp_path / "mono.csv"
        _write_year(p, rows)
        with pytest.raises(ClimateError, match="increasing"):
            load_climate(p)

    def test_semicolon_and_column_mapping(self, tmp_path):
        p = tmp_path / "semi.csv"
        with open(p, "w") as fh:
            fh.write("when;T2m;DNI;DHI\n")
            for i in range(8760):
                fh.write(f"{i};25.0;400.0;80.0\n")
        series = load_climate(p, columns={"time": "when", "temperature": "T2m",
                                          "dni": "DNI", "dhi": "DHI"})
        assert series.dni[0] == 400.0

    def test_datetime_stamps(self, tmp_path):
        import datetime as dt
        p = tmp_path / "stamps.csv"
        base = dt.datetime(2019, 1, 1)
        rows = [((base + dt.timedelta(hours=i)).strftime("%Y-%m-%d %H:%M"),
                 25.0, 500.0, 100.0) for i in range(8760)]
        _write_year(p, rows)
        assert len(load_climate(p)) == 8760


class TestSyntheticYear:
    def test_shape_and_night(self):
        s = synthetic_dubai_year(ScenarioConfig().site)
        assert len(s) == 8760
        assert s.dni.min() >= 0.0
        assert s.dhi.min() >= 0.0
        # midnight in January: no sun
        assert s.dni[0] == 0.0

    def test_matches_shipped_csv(self, repo_paths, climate):
        regenerated = synthetic_dubai_year(ScenarioConfig().site)
        assert np.array_equal(regenerated.dni, climate.dni)
        assert np.array_equal(regenerated.temperature, climate.temperature)

    def test_content_hash_stable(self):
        a = synthetic_dubai_year(ScenarioConfig().site)
        b = synthetic_dubai_year(ScenarioConfig().site)
        assert a.content_hash() == b.content_hash()


def test_sunpath_table_has_daily_rows():
    rows = sunpath_table(DUBAI, days=(81, 172), step_hours=1.0)
    assert len(rows) == 48
    assert {r["day"] for r in rows} == {81, 172}
    assert all(r["incidence_cosine"] == 0.0 for r in rows if r["altitude"] <= 0.0)
