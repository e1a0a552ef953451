import pytest

from gridseg.config import (
    ENV_CONFIG_PATH,
    apply_settings,
    dump_config,
    load_config_file,
    parse_config_text,
    parse_overrides,
    resolve_config,
)
from gridseg.cli import main
from gridseg.errors import ConfigError
from gridseg.pipeline import make_default_config

PAPER_BLOCK = """\
distToGround: 1.723
robotRadius: 2.7
cellSizeX: 1.5
cellSizeY: 1.0
cellSizeZ: 1.5 (Phase I), 0.2 (Phase II)
slopeThresholdDegrees: 30.0
groundInlierThreshold: 0.125
centroidSearchRadius: 5.0
"""


def test_verbatim_parameter_block_parses():
    settings = parse_config_text(PAPER_BLOCK)
    assert settings["distToGround"] == 1.723
    assert settings["cellSizeZ"] == (1.5, 0.2)
    cfg = apply_settings(make_default_config(), settings)
    assert cfg.phase1.cellsize.sz == 1.5
    assert cfg.phase2.cellsize.sz == 0.2


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config_text("frobnicate: 1.0")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("distToGround: tall")


def test_comments_and_blank_lines():
    settings = parse_config_text("# a comment\n\nrobotRadius: 3.0  # trailing\n")
    assert settings == {"robotRadius": 3.0}


def test_cellsize_z_needs_two_values():
    with pytest.raises(ConfigError):
        parse_config_text("cellSizeZ: 1.5")


def test_overrides_win_over_file(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    p = tmp_path / "run.cfg"
    p.write_text("slopeThresholdDegrees: 20\n")
    cfg = resolve_config(str(p), ["slopeThresholdDegrees=45"])
    assert cfg.phase1.geometry.slope_threshold_deg == 45.0


def test_env_var_config(tmp_path, monkeypatch):
    p = tmp_path / "env.cfg"
    p.write_text("robotRadius: 3.3\n")
    monkeypatch.setenv(ENV_CONFIG_PATH, str(p))
    cfg = resolve_config(None, None)
    assert cfg.robot_radius == 3.3


def test_dump_round_trips():
    cfg = make_default_config()
    text = dump_config(cfg)
    assert "groundInlierThreshold: 0.125" in text
    assert "cellSizeZ: 1.5 (Phase I), 0.2 (Phase II)" in text
    settings = parse_config_text(text)
    cfg2 = apply_settings(make_default_config(), settings)
    assert cfg2 == cfg


def test_key_value_equals_form():
    assert parse_overrides(["globalSeed=7"]) == {"globalSeed": 7}
    with pytest.raises(ConfigError):
        parse_overrides(["globalSeed"])


DEFAULT_DUMP = """\
distToGround: 1.723
robotRadius: 2.7
cellSizeX: 1.5
cellSizeY: 1
cellSizeZ: 1.5 (Phase I), 0.2 (Phase II)
slopeThresholdDegrees: 30
groundInlierThreshold: 0.125
centroidSearchRadius: 5
lineRatioMin: 0.9
lineCrossRatioMax: 8
planarFlatnessMax: 0.05
ransacIterations: 50
ambiguityElevationThreshold: 0.3
sparsityLowMax: 0.01
sparsityMediumMax: 0.1
expansionHeightGate: 0.25
globalSeed: 0
seedSpacing: 0.3
"""

# one non-default value per key: (file text, dumped text)
NON_DEFAULTS = {
    "distToGround": ("1.9", "1.9"),
    "robotRadius": ("3.25", "3.25"),
    "cellSizeX": ("1.25", "1.25"),
    "cellSizeY": ("0.75", "0.75"),
    "cellSizeZ": ("2.0 (Phase I), 0.3 (Phase II)", "2 (Phase I), 0.3 (Phase II)"),
    "slopeThresholdDegrees": ("22.5", "22.5"),
    "groundInlierThreshold": ("0.1", "0.1"),
    "centroidSearchRadius": ("4.5", "4.5"),
    "lineRatioMin": ("0.95", "0.95"),
    "lineCrossRatioMax": ("6", "6"),
    "planarFlatnessMax": ("0.04", "0.04"),
    "ransacIterations": ("60", "60"),
    "ambiguityElevationThreshold": ("0.35", "0.35"),
    "sparsityLowMax": ("5e-3", "0.005"),
    "sparsityMediumMax": ("0.2", "0.2"),
    "expansionHeightGate": ("0.3", "0.3"),
    "globalSeed": ("-42", "-42"),
    "seedSpacing": ("0.25", "0.25"),
}


def test_default_config_dump_text_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    assert main(["config-dump"]) == 0
    assert capsys.readouterr().out == DEFAULT_DUMP
    assert dump_config(make_default_config()) == DEFAULT_DUMP


@pytest.mark.parametrize("key", list(NON_DEFAULTS))
def test_each_key_round_trips_through_a_file(tmp_path, key):
    raw, dumped = NON_DEFAULTS[key]
    path = tmp_path / "one.cfg"
    path.write_text(f"{key}: {raw}\n")
    cfg = apply_settings(make_default_config(), load_config_file(path))
    text = dump_config(cfg)
    expected = DEFAULT_DUMP.splitlines()
    at = [line.split(":")[0] for line in expected].index(key)
    expected[at] = f"{key}: {dumped}"
    assert text == "\n".join(expected) + "\n"
    assert apply_settings(make_default_config(), parse_config_text(text)) == cfg
