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
from operator import attrgetter
from pathlib import Path

from .errors import ConfigError
from .pipeline import PipelineConfig, make_default_config

ENV_CONFIG_PATH = "GRIDSEG_CONFIG"

# key -> the PipelineConfig fields it sets, ``section.field`` for a field
# of its ``geometry`` or ``expansion``; key order matches the published
# parameter block, spec-added keys after.  cellSizeZ is the one key with a
# value per phase.
KEYS = {
    "distToGround": ("dist_to_ground",),
    "robotRadius": ("robot_radius",),
    "cellSizeX": ("cell_sx",),
    "cellSizeY": ("cell_sy",),
    "cellSizeZ": ("cell_sz1", "cell_sz2"),
    "slopeThresholdDegrees": ("geometry.slope_threshold_deg",),
    "groundInlierThreshold": ("geometry.inlier_threshold",),
    "centroidSearchRadius": ("expansion.search_radius",),
    "lineRatioMin": ("geometry.line_ratio_min",),
    "lineCrossRatioMax": ("geometry.line_cross_ratio_max",),
    "planarFlatnessMax": ("geometry.planar_flatness_max",),
    "ambiguityElevationThreshold": ("expansion.ambiguity_elevation_threshold",),
    "sparsityLowMax": ("geometry.sparsity_low_max",),
    "sparsityMediumMax": ("geometry.sparsity_medium_max",),
    "expansionHeightGate": ("expansion.height_gate",),
    "seedSpacing": ("seed_spacing",),
}


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
        values = tuple(float(p) for p in parts)
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
    """Return a new config with the given flat settings applied.

    All settings are applied before any section is rebuilt, and each
    section is built once, so its checks see the final values whatever the
    order of the keys.
    """
    changes = {"": {}, "geometry": {}, "expansion": {}}
    for key, value in settings.items():
        if key not in KEYS:
            raise ConfigError(f"unknown configuration key: {key}")
        values = value if key == "cellSizeZ" else (value,)
        for path, v in zip(KEYS[key], values):
            section, _, name = path.rpartition(".")
            changes[section][name] = v
    top = changes.pop("")
    sections = {section: replace(getattr(cfg, section), **f) for section, f in changes.items()}
    return replace(cfg, **top, **sections)


def resolve_config(config_path: str | None, overrides: list[str] | None) -> PipelineConfig:
    """Defaults <- config file (flag or env var) <- key=value overrides.

    The file's settings and the overrides are merged first and applied
    together, so the config is checked once, as a whole.
    """
    settings = {}
    path = config_path or os.environ.get(ENV_CONFIG_PATH)
    if path:
        settings.update(load_config_file(path))
    if overrides:
        settings.update(parse_overrides(overrides))
    return apply_settings(make_default_config(), settings)


def dump_config(cfg: PipelineConfig) -> str:
    """Render the effective configuration in the flat key format."""
    lines = []
    for key in KEYS:
        values = [format(attrgetter(path)(cfg), "g") for path in KEYS[key]]
        if key == "cellSizeZ":
            values = [f"{values[0]} (Phase I)", f"{values[1]} (Phase II)"]
        lines.append(f"{key}: {', '.join(values)}\n")
    return "".join(lines)
