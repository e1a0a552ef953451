"""Synthetic LiDAR scene generation for dataset-free testing.

Scenes are a (possibly inclined) ground plane sampled uniformly over a square
extent, plus axis-aligned box obstacles sampled on their faces.  Ground
points carry semantic label 40 (road) and obstacle points label 1 (outlier),
so generated scenes double as their own ground truth.  Generation is
deterministic under the scene seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .cloud_io import PointCloud
from .errors import ConfigError

GROUND_LABEL = 40
OBSTACLE_LABEL = 1
GROUND_PART = -1


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned box: center (cx, cy), size (sx, sy, sz), bottom at
    ``base`` meters above the local ground surface."""

    cx: float
    cy: float
    sx: float
    sy: float
    sz: float
    base: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"box {name} must be finite, got {value}")
            if name in ("sx", "sy", "sz") and value <= 0:
                raise ConfigError(f"box {name} must be positive, got {value}")


@dataclass(frozen=True)
class SceneSpec:
    extent: float = 40.0
    n_ground: int = 20000
    slope_deg: float = 0.0  # incline about the y axis; z rises with +x
    noise_sigma: float = 0.02
    ground_z: float = -1.723  # plane height at x = 0 (sensor at origin)
    boxes: tuple[BoxSpec, ...] = ()
    box_density: float = 40.0  # surface points per square meter
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.extent < math.inf:
            raise ConfigError(f"extent must be positive and finite, got {self.extent}")
        if self.n_ground < 0:
            raise ConfigError(f"n_ground must be >= 0, got {self.n_ground}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if not 0 <= self.box_density < math.inf:
            raise ConfigError(f"box_density must be >= 0 and finite, got {self.box_density}")
        if not math.isfinite(self.ground_z):
            raise ConfigError(f"ground_z must be finite, got {self.ground_z}")
        if not abs(self.slope_deg) < 90:
            raise ConfigError(f"slope_deg must be within (-90, 90), got {self.slope_deg}")


@dataclass
class Scene:
    points: np.ndarray  # (N, 3)
    labels: np.ndarray  # (N,) uint16
    part: np.ndarray  # (N,) int: -1 ground, k = index into spec.boxes
    spec: SceneSpec


def _ground_height(spec: SceneSpec, x):
    return spec.ground_z + math.tan(math.radians(spec.slope_deg)) * x


def _inside_any_footprint(spec: SceneSpec, xy: np.ndarray) -> np.ndarray:
    inside = np.zeros(len(xy), dtype=bool)
    for box in spec.boxes:
        inside |= (np.abs(xy[:, 0] - box.cx) <= box.sx / 2) & (
            np.abs(xy[:, 1] - box.cy) <= box.sy / 2
        )
    return inside


def _sample_ground(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    half = spec.extent / 2
    out = np.empty((0, 2))
    # rejection-sample around box footprints until the requested count is met
    for _ in range(1000):
        if len(out) >= spec.n_ground:
            break
        need = spec.n_ground - len(out)
        xy = rng.uniform(-half, half, size=(max(need * 2, 64), 2))
        xy = xy[~_inside_any_footprint(spec, xy)][:need]
        out = np.vstack([out, xy])
    if len(out) < spec.n_ground:
        raise ConfigError("box footprints cover too much of the scene extent")
    z = _ground_height(spec, out[:, 0]) + rng.normal(0.0, spec.noise_sigma, len(out))
    return np.column_stack([out, z])


def _sample_box(spec: SceneSpec, box: BoxSpec, rng: np.random.Generator) -> np.ndarray:
    z0 = _ground_height(spec, box.cx) + box.base
    z1 = z0 + box.sz
    xs = (box.cx - box.sx / 2, box.cx + box.sx / 2)
    ys = (box.cy - box.sy / 2, box.cy + box.sy / 2)
    # faces: (area, x, y, z); the bottom face is only visible when elevated
    faces = [(box.sx * box.sy, xs, ys, z1)]
    if box.base > 0:
        faces.append((box.sx * box.sy, xs, ys, z0))
    for x, y in zip(xs, ys):
        faces.append((box.sy * box.sz, x, ys, (z0, z1)))
        faces.append((box.sx * box.sz, xs, y, (z0, z1)))

    pts = []
    for area, *bounds in faces:
        n = int(round(area * spec.box_density))
        if n > 0:
            pts.append(_face(rng, n, bounds))
    if not pts:
        return np.empty((0, 3))
    out = np.vstack(pts)
    if spec.noise_sigma > 0:
        out = out + rng.normal(0.0, spec.noise_sigma, out.shape) * np.array([0.0, 0.0, 1.0])
    return out


def _face(rng, n, bounds):
    """n points on an axis-aligned face: each axis of ``bounds`` (x, y, z)
    is a (low, high) range, drawn uniformly in axis order, or a fixed value."""
    return np.column_stack(
        [rng.uniform(*b, n) if isinstance(b, tuple) else np.full(n, b) for b in bounds]
    )


def make_scene(spec: SceneSpec) -> Scene:
    """Generate a labeled scene; same spec and seed give identical output."""
    rng = np.random.default_rng(spec.seed)
    ground = _sample_ground(spec, rng)
    parts = [np.full(len(ground), GROUND_PART, dtype=np.int64)]
    chunks = [ground]
    for k, box in enumerate(spec.boxes):
        pts = _sample_box(spec, box, rng)
        chunks.append(pts)
        parts.append(np.full(len(pts), k, dtype=np.int64))
    points = np.vstack(chunks)
    part = np.concatenate(parts)
    labels = np.where(part == GROUND_PART, GROUND_LABEL, OBSTACLE_LABEL).astype(np.uint16)
    return Scene(points=points, labels=labels, part=part, spec=spec)


def scene_cloud(scene: Scene) -> PointCloud:
    return PointCloud(points=scene.points)


def write_scene(out_dir: str | Path, scene: Scene, name: str) -> tuple[Path, Path]:
    """Write a scene as KITTI-style <velodyne/name.bin, labels/name.label>."""
    out = Path(out_dir)
    scan_dir = out / "velodyne"
    label_dir = out / "labels"
    scan_dir.mkdir(parents=True, exist_ok=True)
    label_dir.mkdir(parents=True, exist_ok=True)

    records = np.zeros((len(scene.points), 4), dtype="<f4")
    records[:, :3] = scene.points
    scan_path = scan_dir / f"{name}.bin"
    scan_path.write_bytes(records.tobytes())

    label_path = label_dir / f"{name}.label"
    label_path.write_bytes(scene.labels.astype("<u4").tobytes())
    return scan_path, label_path


def write_manifest(out_dir: str | Path, specs: list[SceneSpec]) -> Path:
    path = Path(out_dir) / "manifest.json"
    payload = [asdict(s) for s in specs]
    path.write_text(json.dumps(payload, indent=2))
    return path
