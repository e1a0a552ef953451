import dataclasses
import math

import pytest

import gridseg as gs
from gridseg.cell_geometry import GeometryParams
from gridseg.config import (
    _INT_KEYS,
    ENV_CONFIG_PATH,
    KEYS,
    apply_settings,
    dump_config,
    load_config_file,
    parse_config_text,
    parse_overrides,
    parse_value,
    resolve_config,
)
from gridseg.cli import main
from gridseg.errors import ConfigError
from gridseg.pipeline import make_default_config
from gridseg.region_expansion import ExpansionParams

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


@pytest.mark.parametrize(
    "pairs",
    [
        ["sparsityLowMax=0.5", "sparsityMediumMax=0.6"],
        ["sparsityMediumMax=0.6", "sparsityLowMax=0.5"],
    ],
)
def test_settings_are_checked_together_not_key_by_key(pairs, capsys, monkeypatch):
    # each order passes through a state that is invalid on its own
    # (low 0.5 > default medium 0.1, or medium 0.6 with default low)
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    cfg = resolve_config(None, pairs)
    assert cfg.phase1.geometry.sparsity_low_max == 0.5
    assert cfg.phase2.geometry.sparsity_medium_max == 0.6
    assert cfg == resolve_config(None, pairs[::-1])
    assert main(["config-dump"] + [arg for p in pairs for arg in ("--set", p)]) == 0
    out = capsys.readouterr().out
    assert "sparsityLowMax: 0.5\n" in out and "sparsityMediumMax: 0.6\n" in out


def test_file_and_override_are_checked_together(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    path = tmp_path / "a.cfg"
    path.write_text("sparsityLowMax: 0.5\n")
    cfg = resolve_config(str(path), ["sparsityMediumMax=0.6"])
    assert cfg.phase1.geometry.sparsity_low_max == 0.5
    assert cfg.phase1.geometry.sparsity_medium_max == 0.6


@pytest.mark.parametrize(
    "pairs",
    [
        ["sparsityLowMax=0.5", "sparsityMediumMax=0.4"],
        ["sparsityMediumMax=0.4", "sparsityLowMax=0.5"],
    ],
)
def test_invalid_pair_still_exits_1(pairs, capsys, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    with pytest.raises(ConfigError):
        resolve_config(None, pairs)
    assert main(["config-dump"] + [arg for p in pairs for arg in ("--set", p)]) == 1
    assert "sparsity_medium_max must be >= sparsity_low_max" in capsys.readouterr().err


def _leaves(obj, prefix=""):
    """Every leaf field of a config, nested sections flattened: name -> value."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_leaves(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


def _one_value_settings():
    """One setting per config key value, each moving only that value off its
    default: cellSizeZ gives one per phase."""
    for key, (raw, _) in NON_DEFAULTS.items():
        if key == "cellSizeZ":
            yield "cellSizeZ (Phase I)", {key: (2.0, 0.2)}
            yield "cellSizeZ (Phase II)", {key: (1.5, 0.3)}
        else:
            yield key, {key: parse_value(key, raw)}


def test_every_leaf_field_is_set_by_exactly_one_key_value():
    default = _leaves(make_default_config())
    setters = {name: [] for name in default}
    for label, settings in _one_value_settings():
        leaves = _leaves(apply_settings(make_default_config(), settings))
        changed = [name for name in default if leaves[name] != default[name]]
        assert len(changed) == 1, (label, changed)
        setters[changed[0]].append(label)
    assert {name: len(s) for name, s in setters.items()} == dict.fromkeys(default, 1), setters
    assert len(default) == 19


def test_dump_round_trips_a_config_with_every_key_off_its_default():
    settings = {key: parse_value(key, raw) for key, (raw, _) in NON_DEFAULTS.items()}
    assert set(settings) == set(KEYS)
    cfg = apply_settings(make_default_config(), settings)
    default = _leaves(make_default_config())
    assert all(value != default[name] for name, value in _leaves(cfg).items())
    assert apply_settings(make_default_config(), parse_config_text(dump_config(cfg))) == cfg


def _nonfinite_cases():
    """(key, value text, field the error names) for every float key value."""
    for key, paths in KEYS.items():
        if key in _INT_KEYS:
            continue
        for bad in ("nan", "inf", "-inf"):
            if key == "cellSizeZ":
                yield key, f"{bad}, 0.2", "cell_sz1"
                yield key, f"1.5, {bad}", "cell_sz2"
            else:
                yield key, bad, paths[0].rpartition(".")[2]


NONFINITE = list(_nonfinite_cases())


@pytest.mark.parametrize("key, raw, name", NONFINITE)
def test_nonfinite_value_is_a_config_error(key, raw, name):
    settings = parse_config_text(f"{key}: {raw}\n")
    with pytest.raises(ConfigError, match=name):
        apply_settings(make_default_config(), settings)


@pytest.mark.parametrize("cls", [GeometryParams, ExpansionParams])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_built_directly_reject_a_nonfinite_field(cls, bad):
    for f in dataclasses.fields(cls):
        with pytest.raises(ConfigError, match=f"^{f.name} must be finite"):
            cls(**{f.name: bad})


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    return gs.write_scene(out, gs.make_scene(gs.SceneSpec(20.0, 3000)), "000000")[0]


@pytest.mark.parametrize("key, raw, name", NONFINITE)
def test_nonfinite_value_exits_1_before_any_scan(
    key, raw, name, scan, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    out = tmp_path / "out"
    assert main(["segment", str(scan), "--out", str(out), "--set", f"{key}={raw}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and name in err[0]
    assert not out.exists()


@pytest.mark.parametrize("pair", ["cellSizeX=0", "cellSizeY=-1", "cellSizeZ=0.5, 0"])
def test_non_positive_cell_size_is_a_config_error(pair, capsys, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    with pytest.raises(ConfigError, match="cell sizes must be positive"):
        resolve_config(None, [pair])
    assert main(["config-dump", "--set", pair]) == 1
    assert capsys.readouterr().err == "config error: cell sizes must be positive\n"
