"""Round-trip and error-reporting tests for the plain-text scan-log format."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prfmap.cli import main
from prfmap.geometry import Rect
from prfmap.scanlog import ScanLog, dump_scanlog, parse_scanlog, read_scanlog, write_scanlog
from prfmap.sensors import LaserObs, PointColorObs, SonarObs


def sample_log() -> ScanLog:
    return ScanLog(
        window=Rect(-1.0, 0.0, 7.5, 3.25),
        laser_max_range=8.0,
        sonar_max_range=3.5,
        lasers=[
            LaserObs(1.0, 2.0, 0.5, -0.25, 3.125, 8.0, False, 0.0),
            LaserObs(0.1, 0.2, -math.pi, 0.0, 8.0, 8.0, True, 17.5),
        ],
        sonars=[
            SonarObs(2.0, 1.0, 1.25, 0.0, math.radians(10.0), 1.75, 3.5, False, 3.0),
            SonarObs(2.0, 1.0, 1.25, 0.4, 0.2, 3.5, 3.5, True, 4.0),
        ],
        points=[PointColorObs(0.5, 0.5, 0.83, 1.0, 0.0, 0.3)],
    )


def test_dump_parse_round_trip_is_exact():
    log = sample_log()
    assert parse_scanlog(dump_scanlog(log)) == log


def test_file_round_trip(tmp_path):
    path = tmp_path / "scan.log"
    log = sample_log()
    write_scanlog(str(path), log)
    assert read_scanlog(str(path)) == log


def test_timestamps_survive_round_trip():
    log = sample_log()
    back = parse_scanlog(dump_scanlog(log))
    assert [o.t for o in back.lasers] == [0.0, 17.5]
    assert [o.t for o in back.sonars] == [3.0, 4.0]


def test_headers_written_once_and_applied_to_every_record():
    text = dump_scanlog(sample_log())
    assert text.count("laser_max_range") == 1
    assert text.count("sonar_max_range") == 1
    back = parse_scanlog(text)
    assert all(o.max_range == 8.0 for o in back.lasers)
    assert all(o.max_range == 3.5 for o in back.sonars)


def test_blank_lines_and_unknown_comments_ignored():
    text = ("# scanlog v1\n"
            "\n"
            "# produced by a test\n"
            "# laser_max_range 8.0\n"
            "\n"
            "LASER 0.0 1.0 2.0 0.5 0.0 3.0 0\n")
    log = parse_scanlog(text)
    assert len(log.lasers) == 1
    assert log.window is None


def test_missing_window_is_fine():
    log = parse_scanlog("# laser_max_range 8.0\nLASER 0 1 1 0 0 2.0 0\n")
    assert log.window is None
    assert log.lasers[0].range == 2.0


def test_laser_before_header_errors_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_scanlog("# scanlog v1\nLASER 0 1 1 0 0 2.0 0\n")


def test_sonar_before_header_errors_with_line_number():
    with pytest.raises(ValueError, match="line 1"):
        parse_scanlog("SONAR 0 1 1 0 0 0.2 2.0 0\n")


def test_wrong_field_count_errors_with_line_number():
    with pytest.raises(ValueError, match="line 2.*LASER"):
        parse_scanlog("# laser_max_range 8.0\nLASER 0 1 1 0 0 2.0\n")
    with pytest.raises(ValueError, match="line 2.*SONAR"):
        parse_scanlog("# sonar_max_range 3.5\nSONAR 0 1 1 0 0 0.2 2.0 0 9\n")
    with pytest.raises(ValueError, match="line 1.*POINT"):
        parse_scanlog("POINT 0 1 1 0 0\n")


def test_bad_flag_errors_with_line_number():
    with pytest.raises(ValueError, match="line 2.*flag"):
        parse_scanlog("# laser_max_range 8.0\nLASER 0 1 1 0 0 2.0 2\n")


def test_bad_number_errors_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_scanlog("# laser_max_range 8.0\nLASER 0 1 one 0 0 2.0 0\n")


@pytest.mark.parametrize("text", [
    "# laser_max_range 8.0\nLASER 0 nan 1 0 0 2.0 0\n",
    "# laser_max_range 8.0\nPOINT 0.5 0.5 nan 1 0 0.3\n",
    "# scanlog v1\n# window 0 0 nan 3\n",
    "# scanlog v1\n# sonar_max_range inf\n",
])
def test_non_finite_number_errors_with_line_number(text):
    with pytest.raises(ValueError, match="line 2: non-finite"):
        parse_scanlog(text)


@pytest.mark.parametrize("text, what", [
    ("# laser_max_range 8.0\nLASER 0 1 1 0 0 9.0 0\n", "laser range 9.0"),
    ("# sonar_max_range 3.5\nSONAR 0 1 1 0 0 2.0 2.0 0\n", "half_angle"),
    ("# scanlog v1\nPOINT 0.5 0.5 0.2 1 0 0\n", "sigma"),
    ("# scanlog v1\n# window 1 0 0 1\n", "window"),
    ("# scanlog v1\n# window 0 2 3 2\n", "window"),
    ("# scanlog v1\n# laser_max_range -2\n", "laser_max_range"),
    ("# scanlog v1\n# sonar_max_range 0\n", "sonar_max_range"),
])
def test_rejected_reading_errors_with_line_number(text, what):
    with pytest.raises(ValueError, match=f"line 2: .*{what}"):
        parse_scanlog(text)


def test_sample_on_inverted_window_reports_the_line(tmp_path, capsys):
    log = tmp_path / "bad.log"
    log.write_text("# scanlog v1\n# window 1 0 0 1\nPOINT 0.5 0.5 0.2 1 0 0.3\n")
    code = main(["sample", "--log", str(log), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 2: window")


def test_unknown_record_type_errors_with_line_number():
    with pytest.raises(ValueError, match="line 1.*RADAR"):
        parse_scanlog("RADAR 0 1 1 0 0 2.0 0\n")


coord = st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)
angle = st.floats(min_value=-math.pi, max_value=math.pi,
                  allow_nan=False, allow_infinity=False)
frac = st.floats(min_value=1e-6, max_value=1.0, exclude_min=False)


@settings(max_examples=60, deadline=None)
@given(x=coord, y=coord, h=angle, b=angle, f=frac, t=coord,
       flag=st.booleans())
def test_laser_round_trip_property(x, y, h, b, f, t, flag):
    obs = LaserObs(x, y, h, b, f * 8.0, 8.0, flag, t)
    log = ScanLog(laser_max_range=8.0, lasers=[obs])
    assert parse_scanlog(dump_scanlog(log)).lasers[0] == obs


@settings(max_examples=60, deadline=None)
@given(x=coord, y=coord, h=angle, b=angle, f=frac, t=coord,
       ha=st.floats(min_value=0.01, max_value=1.5), flag=st.booleans())
def test_sonar_round_trip_property(x, y, h, b, f, t, ha, flag):
    obs = SonarObs(x, y, h, b, ha, f * 3.5, 3.5, flag, t)
    log = ScanLog(sonar_max_range=3.5, sonars=[obs])
    assert parse_scanlog(dump_scanlog(log)).sonars[0] == obs
