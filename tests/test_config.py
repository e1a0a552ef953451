import dataclasses
import math

import pytest

import gridseg as gs
from gridseg.cell_geometry import GeometryParams
from gridseg.config import (
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


@pytest.mark.parametrize("key", ["ransacIterations", "globalSeed"])
def test_a_removed_key_is_unknown(key, tmp_path, capsys, monkeypatch):
    # plane fits sample nothing, so neither an iteration cap nor a seed is a key
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    path = tmp_path / "old.cfg"
    path.write_text(f"{key}: 50\n")
    with pytest.raises(ConfigError, match=f"unknown configuration key: {key}"):
        load_config_file(path)
    assert main(["config-dump", "--config", str(path)]) == 1
    assert main(["config-dump", "--set", f"{key}=50"]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: unknown configuration key: {key}\n" * 2


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
    assert parse_overrides(["seedSpacing=0.25"]) == {"seedSpacing": 0.25}
    with pytest.raises(ConfigError):
        parse_overrides(["seedSpacing"])


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
ambiguityElevationThreshold: 0.3
sparsityLowMax: 0.01
sparsityMediumMax: 0.1
expansionHeightGate: 0.25
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
    "ambiguityElevationThreshold": ("0.35", "0.35"),
    "sparsityLowMax": ("5e-3", "0.005"),
    "sparsityMediumMax": ("0.2", "0.2"),
    "expansionHeightGate": ("0.3", "0.3"),
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
    assert len(default) == 17


def test_dump_round_trips_a_config_with_every_key_off_its_default():
    settings = {key: parse_value(key, raw) for key, (raw, _) in NON_DEFAULTS.items()}
    assert set(settings) == set(KEYS)
    cfg = apply_settings(make_default_config(), settings)
    default = _leaves(make_default_config())
    assert all(value != default[name] for name, value in _leaves(cfg).items())
    assert apply_settings(make_default_config(), parse_config_text(dump_config(cfg))) == cfg


# pi to 7-17 significant digits, and at very large and very small exponents
FULL_DIGITS = [float(f"{math.pi:.{n}g}") for n in range(7, 18)]
FULL_DIGITS += [math.pi * 1e250, math.pi * 1e-250, 2.5e-310, 1.7234567, 12345678.0]
KEY_VALUES = [(key, at) for key, paths in KEYS.items() for at in range(len(paths))]


def _settings_with(key, at, value):
    """Settings moving value ``at`` of ``key`` to ``value``, and a value
    bound to it along with it so the config stays valid; None when the
    key's own lower bound (above 2/3 or at least 1) refuses ``value``."""
    if key == "lineRatioMin" and value <= 2.0 / 3.0:
        return None
    if key == "lineCrossRatioMax" and value < 1.0:
        return None
    if key == "cellSizeZ":
        heights = [1.5, 0.2]
        heights[at] = value
        if heights[0] <= heights[1]:  # Phase I cells must stay taller
            heights[1 - at] = value * 2.0 if at else value / 2.0
        return {key: tuple(heights)}
    settings = {key: value}
    if key == "sparsityLowMax" and value > 0.1:
        settings["sparsityMediumMax"] = value
    if key == "sparsityMediumMax" and value < 0.01:
        settings["sparsityLowMax"] = value
    return settings


@pytest.mark.parametrize("key, at", KEY_VALUES)
def test_dump_round_trips_every_value_in_full(key, at):
    tried = 0
    for value in FULL_DIGITS:
        settings = _settings_with(key, at, value)
        if settings is None:
            continue
        cfg = apply_settings(make_default_config(), settings)
        text = dump_config(cfg)
        assert apply_settings(make_default_config(), parse_config_text(text)) == cfg, text
        tried += 1
    assert tried >= len(FULL_DIGITS) - 2  # a lower bound refuses only the two tiny values


@pytest.mark.parametrize(
    "pair, line",
    [
        ("distToGround=1.7234567", "distToGround: 1.7234567\n"),
        ("centroidSearchRadius=12345678", "centroidSearchRadius: 12345678.0\n"),
    ],
)
def test_config_dump_prints_values_beyond_six_digits(pair, line, capsys, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    assert main(["config-dump", "--set", pair]) == 0
    assert line in capsys.readouterr().out


def _nonfinite_cases():
    """(key, value text, field the error names) for every key value."""
    for key, paths in KEYS.items():
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


@pytest.mark.parametrize("heights", [(1.0,), (1.5, 0.2, 9.0), [], 0.2, "1.5, 0.2"])
def test_apply_settings_takes_exactly_two_cell_heights(heights):
    with pytest.raises(ConfigError, match="^cellSizeZ needs two values"):
        apply_settings(make_default_config(), {"cellSizeZ": heights})
    cfg = apply_settings(make_default_config(), {"cellSizeZ": [2.0, 0.3]})
    assert (cfg.cell_sz1, cfg.cell_sz2) == (2.0, 0.3)


@pytest.mark.parametrize("bad", [True, False, "1.7", None, (1.0,)])
@pytest.mark.parametrize("key", [k for k in KEYS if k != "cellSizeZ"])
def test_a_value_that_is_not_a_real_number_is_a_config_error(key, bad):
    name = KEYS[key][0].rpartition(".")[2]
    with pytest.raises(ConfigError, match=f"^{name} must be a number, got "):
        apply_settings(make_default_config(), {key: bad})


@pytest.mark.parametrize("cls", [GeometryParams, ExpansionParams, gs.PipelineConfig])
def test_params_built_directly_reject_a_field_that_is_not_a_real_number(cls):
    for f in dataclasses.fields(cls):
        if not dataclasses.is_dataclass(f.default_factory):
            for bad in (True, "1.7"):
                with pytest.raises(ConfigError, match=f"^{f.name} must be a number"):
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
