"""Tests for the flat key=value run configuration."""

import dataclasses
import math

import pytest

from prfmap.cli import main
from prfmap.config import (
    ENV_CONFIG_PATH,
    RunConfig,
    config_from_env_or_default,
    config_keys,
    convert_value,
    dump_config,
    parse_config,
    read_config,
)
from prfmap.moves import KIND_ORDER, MoveParams


def test_defaults_validate():
    RunConfig().validate()


def test_empty_text_is_valid_and_gives_defaults():
    assert parse_config("") == RunConfig()


def test_dump_parse_round_trip_exact():
    cfg = dataclasses.replace(RunConfig(), p=0.37, seed=9,
                              laser_fov=2.0944, world="rooms",
                              sonar_sigma=0.025)
    assert parse_config(dump_config(cfg)) == cfg


def test_every_key_appears_in_dump():
    text = dump_config(RunConfig())
    for key in config_keys():
        assert any(line.startswith(f"{key} =") for line in text.splitlines())


def test_unknown_key_errors_with_line_number():
    with pytest.raises(ValueError, match="line 2.*unknown option"):
        parse_config("p = 0.2\nnot_a_key = 3\n")


def test_bad_value_type_errors():
    with pytest.raises(ValueError, match="seed"):
        parse_config("seed = 1.5\n")
    with pytest.raises(ValueError, match="p"):
        parse_config("p = fast\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\np = 0.3   # trailing comment\n")
    assert cfg.p == 0.3


def test_space_separated_form_accepted():
    assert parse_config("p 0.3\n").p == 0.3


def test_overrides_apply_on_top_of_base():
    base = parse_config("p = 0.3\n")
    out = parse_config("seed = 5\n", base=base)
    assert out.p == 0.3 and out.seed == 5


def test_move_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        parse_config("weight_relocate = 0.5\n")


def test_inverse_pair_weights_must_match():
    text = ("weight_triangle_birth = 0.09\n"
            "weight_relocate = 0.09\n")
    with pytest.raises(ValueError, match="triangle_birth.*triangle_death"):
        parse_config(text)


def test_rebalanced_weights_accepted():
    # Shift weight from relocate to the triangle pair, keeping the sum at 1.
    text = ("weight_triangle_birth = 0.09\n"
            "weight_triangle_death = 0.09\n"
            "weight_relocate = 0.08\n")
    cfg = parse_config(text)
    assert abs(sum(cfg.move_weights().values()) - 1.0) < 1e-9


def test_move_weight_keys_cover_all_move_kinds():
    weights = RunConfig().move_weights()
    assert set(weights) == set(KIND_ORDER)


def test_validation_rejects_bad_ranges():
    for text in ("p = 0\n", "chains = 0\n", "cell_size = -1\n",
                 "t_end = 0\n", "sim_sensors = radar\n",
                 "laser_w_gauss = 0.5\n"):
        with pytest.raises(ValueError):
            parse_config(text)


@pytest.mark.parametrize("key, raw", [
    ("sim_cell_size", "0"), ("relocate_radius", "-1"),
    ("boundary_slide_delta", "-1"), ("kink_area", "0"),
    ("laser_max_range", "-1"), ("sonar_max_range", "0"),
    ("sonar_half_angle", "3"), ("laser_beams", "0"),
    ("sonar_transducers", "0"), ("point_sigma", "0"),
    ("baseline_sonar_arc_halfwidth", "-1"), ("point_grid_ny", "-3"),
])
def test_validation_names_the_out_of_range_key(key, raw):
    with pytest.raises(ValueError, match=f"^{key} must be"):
        parse_config(f"{key} = {raw}\n")


def test_cli_rejects_zero_sim_cell_size(tmp_path, capsys):
    code = main(["simulate", "--world", "two_region", "--sim-cell-size", "0",
                 "--out", str(tmp_path / "sim")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: sim_cell_size must be positive")


def test_default_move_params_match_run_config():
    assert RunConfig().move_params() == MoveParams()


def test_views_match_fields():
    cfg = parse_config("p = 0.25\nlaser_sigma_floor = 0.02\n"
                       "sonar_sigma = 0.05\nbaseline_laser_occupied = 0.3\n")
    assert cfg.prior_params().intensity == 0.25
    assert cfg.laser_params().sigma_floor == 0.02
    assert cfg.sonar_params().sigma == 0.05
    assert cfg.baseline_params().laser_occupied == 0.3
    assert cfg.move_params().weights == cfg.move_weights()


@pytest.mark.parametrize("key, raw", [("p", "nan"), ("cell_size", "nan"),
                                      ("temperature", "inf"),
                                      ("kink_area", "-inf")])
def test_non_finite_floats_rejected_with_location(key, raw):
    with pytest.raises(ValueError, match=f"line 2: bad value .* for {key}"):
        parse_config(f"seed = 1\n{key} = {raw}\n")
    flag = "--" + key.replace("_", "-")
    with pytest.raises(ValueError, match=f"{flag}: bad value .* for {key}"):
        convert_value(key, raw, where=flag)


def test_convert_value_bool_and_unknown():
    with pytest.raises(ValueError, match="unknown option"):
        convert_value("nope", "1")
    assert convert_value("seed", "12") == 12
    assert convert_value("p", "0.5") == 0.5
    assert convert_value("world", "rooms") == "rooms"


def test_read_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 0.21\nseed = 3\n")
    cfg = read_config(str(path))
    assert cfg.p == 0.21 and cfg.seed == 3


def test_env_var_supplies_default_path(tmp_path, monkeypatch):
    path = tmp_path / "run.cfg"
    path.write_text("p = 0.33\n")
    monkeypatch.setenv(ENV_CONFIG_PATH, str(path))
    assert config_from_env_or_default().p == 0.33
    monkeypatch.delenv(ENV_CONFIG_PATH)
    assert config_from_env_or_default() == RunConfig()


def test_default_laser_fov_is_half_turn():
    assert math.isclose(RunConfig().laser_fov, math.pi)
