import datetime
import math
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from pipefarm import climate as climate_module
from pipefarm.climate import (CLIMATE_COLUMNS, CLIMATE_RANGES, ClimateError, SiteConfig,
                              _resolve_azimuth, declination, equation_of_time, incidence_cosine,
                              load_climate, solar_position, sunpath_table, synthetic_dubai_year)
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
        (("nan", 25.0, 500.0, 100.0), "non-hourly timestamp step at row 101"),
        ((100, "nan", 500.0, 100.0), "temperature: non-finite value at row 101"),
        ((100, 25.0, "inf", 100.0), "dni: non-finite value at row 101"),
        (("noon", 25.0, 500.0, 100.0), "bad record at row 101: unparseable timestamp 'noon'"),
        ((100, "warm", 500.0, 100.0),
         "bad record at row 101: could not convert string to float: 'warm'")])
    def test_rows_count_blank_lines(self, record, match, tmp_path):
        rows = _default_rows()
        rows[100] = record
        rows.insert(11, ())
        p = tmp_path / "blank.csv"
        _write_year(p, rows)
        with pytest.raises(ClimateError, match=f"^climate file blank.csv: {re.escape(match)}$"):
            load_climate(p)

    @pytest.mark.parametrize("edit, match", [
        (lambda rows: rows.insert(201, rows[200]), "timestamps not strictly increasing at row 201"),
        (lambda rows: rows.pop(200), "non-hourly timestamp step at row 200"),
        (lambda rows: rows.__setitem__(200, ()), "non-hourly timestamp step at row 201"),
        (lambda rows: rows.__setitem__(200, (1e30, 25.0, 500.0, 100.0)),
         "non-hourly timestamp step at row 200"),
        (lambda rows: rows.__setitem__(slice(None), [(i * 1.000005, 25.0, 500.0, 100.0)
                                                     for i in range(8760)]),
         "non-hourly timestamp step at row 1"),
    ], ids=["repeated", "missing", "blank", "far-ahead", "drift-5e-6"])
    def test_first_step_off_the_hour_names_its_row(self, edit, match, tmp_path):
        """A repeated, missing or blank row, or a step more than 1e-6 h off
        the hour, is named where the hours break, before the record count
        is checked."""
        rows = _default_rows()
        edit(rows)
        p = tmp_path / "steps.csv"
        _write_year(p, rows)
        with pytest.raises(ClimateError, match=f"^climate file steps.csv: {re.escape(match)}$"):
            load_climate(p)

    @pytest.mark.parametrize("column, end", [(c, e) for c in CLIMATE_RANGES for e in (0, 1)])
    def test_a_cell_beyond_its_range_names_its_row(self, column, end, tmp_path, monkeypatch):
        """Just beyond either end of a cell's declared range, the plain read
        turns the year down and the row reader names the row; at the end
        itself, the year loads in one call."""
        bound = CLIMATE_RANGES[column][end]
        k = CLIMATE_COLUMNS.index(column)
        plain, took = climate_module._parse_plain, []

        def spy(*args):
            took.append(plain(*args))
            return took[-1]

        monkeypatch.setattr(climate_module, "_parse_plain", spy)
        for value in (bound, math.nextafter(bound, (-math.inf, math.inf)[end])):
            rows = _default_rows()
            rows[100] = rows[100][:k] + (value,) + rows[100][k + 1:]
            p = tmp_path / "edge.csv"
            _write_year(p, rows)
            if value == bound:
                assert getattr(load_climate(p), column)[100] == bound
                assert took[-1] is not None
            else:
                with pytest.raises(ClimateError, match="at row 100$"):
                    load_climate(p)
                assert took[-1] is None

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


def _number(rng: random.Random, x: float) -> str:
    """`x` written in one of the forms a climate file may use."""
    forms = [repr(x), f"{x:.6g}", f"{x:.4e}", f" {x!r} ", f"{x:.3f}"]
    if math.copysign(1.0, x) > 0.0:
        forms.append(f"+{x!r}")
    return rng.choice(forms)


class TestIngestPathsAgree:
    """`load_climate` against its row reader alone on seeded files: each
    varies its layout and takes one corrupting edit (or none), and both
    must read the same bits or refuse with the same text."""

    EDITS = ("none", "negative", "nan", "gap", "repeat", "swap", "whitespace_row",
             "underscore", "quoted", "comment")

    @staticmethod
    def write(rng: random.Random, path: Path, edit: str, stamped: bool) -> dict:
        """A seeded climate year at `path`, `stamped` with dates or else
        numbered, with `edit` applied; returns the `columns` map that reads it."""
        delimiter = rng.choice(",;")
        names = rng.choice([{name: name for name in CLIMATE_COLUMNS},
                            {"time": "when", "temperature": "T2m", "dni": "DNI", "dhi": "DHI"}])
        header = list(names.values()) + rng.sample(["rh", "wind", "note"], rng.randrange(3))
        rng.shuffle(header)
        start = datetime.datetime(2019, 1, 1)
        cells = []
        for i in range(8760):
            sun = 6 <= i % 24 <= 18
            value = {names["time"]: ((start + datetime.timedelta(hours=i)).strftime(
                                         "%Y-%m-%d %H:%M") if stamped else str(i)),
                     names["temperature"]: _number(rng, round(rng.uniform(-5.0, 48.0), 2)),
                     names["dni"]: _number(rng, round(rng.uniform(0.0, 950.0), 1) if sun else 0.0),
                     names["dhi"]: _number(rng, rng.uniform(0.0, 300.0) if sun else 0.0),
                     "rh": str(rng.randrange(100)), "wind": f"{rng.uniform(0, 9):.1f}",
                     "note": rng.choice(["calm", "dust", ""])}
            cells.append([value[h] for h in header])
        k = rng.randrange(1, 8759)
        column = header.index(names[rng.choice(CLIMATE_COLUMNS)])
        if edit in ("negative", "nan", "underscore", "quoted"):
            cells[k][column] = {"negative": "-1", "nan": rng.choice(["nan", "NaN"]),
                                "underscore": "1_000",
                                "quoted": f'"{cells[k][column]}"'}[edit]
        lines = [delimiter.join(row) for row in cells]
        if edit == "gap":
            del lines[k]
        elif edit == "repeat":
            lines.insert(k, lines[k])
        elif edit == "swap":
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        elif edit == "whitespace_row":
            lines.insert(k, " \t ")
        elif edit == "comment":
            lines.insert(k, "# " + lines[k])
        for _ in range(rng.randrange(3)):
            lines.insert(rng.randrange(len(lines)), "")
        newline = rng.choice(["\n", "\r\n"])
        with open(path, "w", newline="") as fh:
            fh.write(newline.join([delimiter.join(header)] + lines) + newline)
        return {k: v for k, v in names.items() if k != v}

    @staticmethod
    def read(path: Path, columns: dict):
        try:
            year = load_climate(path, columns)
        except ClimateError as exc:
            return str(exc)
        return [a.tobytes() for a in (year.temperature, year.dni, year.dhi)]

    def test_same_bits_or_same_refusal(self, tmp_path, monkeypatch):
        rng = random.Random(44)
        plain = climate_module._parse_plain
        took = []

        def spy(*args):
            year = plain(*args)
            took.append(year is not None)
            return year

        for n in range(2 * len(self.EDITS)):        # every edit on a numbered year first
            edit = self.EDITS[n % len(self.EDITS)]
            path = tmp_path / f"year{n}.csv"
            columns = self.write(rng, path, edit, n >= len(self.EDITS) and rng.random() < 0.5)
            monkeypatch.setattr(climate_module, "_parse_plain", spy)
            got = self.read(path, columns)
            monkeypatch.setattr(climate_module, "_parse_plain", lambda *args: None)
            assert got == self.read(path, columns), (n, edit)
        assert 0 < sum(took) < len(took)      # each path read some of the files

    def test_quoted_delimiter_in_an_unread_column_is_one_cell(self, tmp_path):
        """Split on every comma, row 5 would read 3, 4 and 5 W m-2 and pass."""
        p = tmp_path / "note.csv"
        rows = [f'{i},"dust,3,4,5,calm",25.0,500.0,100.0' if i == 5
                else f"{i},calm,25.0,500.0,100.0" for i in range(8760)]
        p.write_text("\n".join(["time,note,temperature,dni,dhi"] + rows) + "\n")
        year = load_climate(p)
        assert (year.temperature[5], year.dni[5], year.dhi[5]) == (25.0, 500.0, 100.0)

    def test_header_only_file_warns_nothing(self, tmp_path):
        p = tmp_path / "header.csv"
        p.write_text("time,temperature,dni,dhi\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ClimateError,
                               match="^climate file header.csv: incomplete year: 0 records"):
                load_climate(p)


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
