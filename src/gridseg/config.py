"""Flat key-value configuration files and override resolution.

The file format is one ``key: value`` (or ``key=value``) pair per line with
``#`` comments.  ``cellSizeZ`` takes the Phase-I and Phase-II heights as two
comma-separated values; parenthesized annotations like ``(Phase I)`` are
tolerated, so a verbatim published parameter block parses as-is.  Flag
overrides take precedence over the config file, which takes precedence over
the built-in defaults.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .pipeline import PipelineConfig, make_default_config

ENV_CONFIG_PATH = "GRIDSEG_CONFIG"

# key -> (section, field): a field of PipelineConfig itself (section "") or
# of both phases' ``cellsize``, ``geometry`` or ``expansion``; key order
# matches the published parameter block, spec-added keys after.  cellSizeZ
# is the one key with a value per phase.
KEYS = {
    "distToGround": ("", "dist_to_ground"),
    "robotRadius": ("", "robot_radius"),
    "cellSizeX": ("cellsize", "sx"),
    "cellSizeY": ("cellsize", "sy"),
    "cellSizeZ": ("cellsize", "sz"),
    "slopeThresholdDegrees": ("geometry", "slope_threshold_deg"),
    "groundInlierThreshold": ("geometry", "inlier_threshold"),
    "centroidSearchRadius": ("expansion", "search_radius"),
    "lineRatioMin": ("geometry", "line_ratio_min"),
    "lineCrossRatioMax": ("geometry", "line_cross_ratio_max"),
    "planarFlatnessMax": ("geometry", "planar_flatness_max"),
    "ransacIterations": ("geometry", "ransac_iterations"),
    "ambiguityElevationThreshold": ("expansion", "ambiguity_elevation_threshold"),
    "sparsityLowMax": ("geometry", "sparsity_low_max"),
    "sparsityMediumMax": ("geometry", "sparsity_medium_max"),
    "expansionHeightGate": ("expansion", "height_gate"),
    "globalSeed": ("", "global_seed"),
    "seedSpacing": ("", "seed_spacing"),
}


def _read(cfg: PipelineConfig, key: str, phase: str = "phase1"):
    section, name = KEYS[key]
    return getattr(getattr(getattr(cfg, phase), section) if section else cfg, name)


# keys whose default is an int parse and print as ints, all others as floats
_INT_KEYS = {key for key in KEYS if isinstance(_read(make_default_config(), key), int)}


def _strip_annotations(value: str) -> str:
    out = []
    depth = 0
    for ch in value:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def parse_value(key: str, raw: str):
    raw = raw.strip()
    if key not in KEYS:
        raise ConfigError(f"unknown configuration key: {key}")
    parts = [raw]
    if key == "cellSizeZ":
        parts = [p.strip() for p in _strip_annotations(raw).split(",") if p.strip()]
        if len(parts) != 2:
            raise ConfigError("cellSizeZ needs two values: Phase I and Phase II heights")
    try:
        values = tuple(int(p) if key in _INT_KEYS else float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw}") from exc
    return values if key == "cellSizeZ" else values[0]


def parse_config_text(text: str) -> dict:
    settings = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        sep = ":" if ":" in line else "="
        if sep not in line:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, raw = line.split(sep, 1)
        settings[key.strip()] = parse_value(key.strip(), raw)
    return settings


def load_config_file(path: str | Path) -> dict:
    return parse_config_text(Path(path).read_text())


def parse_overrides(pairs: list[str]) -> dict:
    settings = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        settings[key.strip()] = parse_value(key.strip(), raw)
    return settings


def apply_settings(cfg: PipelineConfig, settings: dict) -> PipelineConfig:
    """Return a new config with the given flat settings applied to both phases."""
    for key, value in settings.items():
        if key not in KEYS:
            raise ConfigError(f"unknown configuration key: {key}")
        section, name = KEYS[key]
        if not section:
            cfg = replace(cfg, **{name: value})
            continue
        per_phase = value if key == "cellSizeZ" else (value, value)
        phases = {}
        for phase, v in zip(("phase1", "phase2"), per_phase):
            pc = getattr(cfg, phase)
            phases[phase] = replace(pc, **{section: replace(getattr(pc, section), **{name: v})})
        cfg = replace(cfg, **phases)
    return cfg


def resolve_config(config_path: str | None, overrides: list[str] | None) -> PipelineConfig:
    """Defaults <- config file (flag or env var) <- key=value overrides."""
    cfg = make_default_config()
    path = config_path or os.environ.get(ENV_CONFIG_PATH)
    if path:
        cfg = apply_settings(cfg, load_config_file(path))
    if overrides:
        cfg = apply_settings(cfg, parse_overrides(overrides))
    return cfg


def dump_config(cfg: PipelineConfig) -> str:
    """Render the effective configuration in the flat key format."""
    lines = []
    for key in KEYS:
        spec = "d" if key in _INT_KEYS else "g"
        value = format(_read(cfg, key), spec)
        if key == "cellSizeZ":
            value = f"{value} (Phase I), {_read(cfg, key, 'phase2'):g} (Phase II)"
        lines.append(f"{key}: {value}\n")
    return "".join(lines)
