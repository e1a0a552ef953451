"""Ring-pattern LiDAR scans ray-cast against a sloped ground and boxes.

A spinning multi-beam sensor sits at the origin.  Every (beam, azimuth)
ray is intersected with a ground plane and with axis-aligned boxes
(buildings and cars); the nearest hit within the maximum range becomes one
return, with Gaussian noise on its range.  Rays that hit nothing (sky) or
hit beyond the maximum range are dropped, so a scan has at most
``beams x azimuth_steps`` returns.  Unlike ``gridseg.synth``, point
density falls off with range and consecutive scan lines leave gaps on the
ground, which is what the radius expansion has to bridge.

Every return is labelled with ``gridseg.synth.GROUND_LABEL`` (ground plane)
or ``OBSTACLE_LABEL`` (box), so a scan is its own ground truth.  Output is
a pure function of ``RingSpec``: the same spec gives byte-identical points
and labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from gridseg.synth import GROUND_LABEL, OBSTACLE_LABEL

# Velodyne HDL-64E-like vertical field of view, spread evenly over the beams.
TOP_ELEVATION_DEG = 2.0
BOTTOM_ELEVATION_DEG = -24.8
NOMINAL_MOUNT_HEIGHT = 1.723  # matches the default config's distToGround


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [x0, x1] x [y0, y1] x [z0, z1]."""

    x0: float
    x1: float
    y0: float
    y1: float
    z0: float
    z1: float


@dataclass(frozen=True)
class RingSpec:
    """Sensor pattern and scene: ground z = -mount_height + slope term."""

    beams: int = 64
    azimuth_steps: int = 2048
    max_range: float = 80.0
    range_sigma: float = 0.02
    mount_height: float = NOMINAL_MOUNT_HEIGHT
    slope_deg: float = 0.0
    slope_azimuth: float = 0.0  # direction of steepest ascent, radians
    boxes: tuple[Box, ...] = ()
    seed: int = 0


@dataclass
class RingScan:
    points: np.ndarray  # (N, 3) float64, sensor frame
    labels: np.ndarray  # (N,) uint16
    spec: RingSpec


def ground_height(spec: RingSpec, x, y):
    """Height of the ground plane at (x, y)."""
    g = math.tan(math.radians(spec.slope_deg))
    return -spec.mount_height + g * (
        np.cos(spec.slope_azimuth) * x + np.sin(spec.slope_azimuth) * y
    )


def ray_directions(beams: int, azimuth_steps: int) -> np.ndarray:
    """Unit ray directions, beam-major: (beams * azimuth_steps, 3)."""
    elev = np.radians(np.linspace(TOP_ELEVATION_DEG, BOTTOM_ELEVATION_DEG, beams))
    az = np.arange(azimuth_steps) * (2.0 * math.pi / azimuth_steps)
    ce, se = np.cos(elev)[:, None], np.sin(elev)[:, None]
    d = np.empty((beams, azimuth_steps, 3))
    d[..., 0] = ce * np.cos(az)[None, :]
    d[..., 1] = ce * np.sin(az)[None, :]
    d[..., 2] = np.broadcast_to(se, (beams, azimuth_steps))
    return d.reshape(-1, 3)


def _ground_hits(spec: RingSpec, d: np.ndarray) -> np.ndarray:
    """Ray parameter of the ground-plane hit (inf when the ray misses)."""
    g = math.tan(math.radians(spec.slope_deg))
    # t * dz = -h + g * t * (cos a dx + sin a dy)  =>  t = -h / (dz - g * (...))
    along = math.cos(spec.slope_azimuth) * d[:, 0] + math.sin(spec.slope_azimuth) * d[:, 1]
    denom = d[:, 2] - g * along
    t = np.full(len(d), np.inf)
    down = denom < 0
    t[down] = -spec.mount_height / denom[down]
    return t


def _box_hits(box: Box, inv: np.ndarray) -> np.ndarray:
    """Ray parameter of the entry into a box from the origin (slab test)."""
    lo = np.array([box.x0, box.y0, box.z0]) * inv
    hi = np.array([box.x1, box.y1, box.z1]) * inv
    t_near = np.minimum(lo, hi).max(axis=1)
    t_far = np.maximum(lo, hi).min(axis=1)
    hit = (t_near <= t_far) & (t_near > 0)
    return np.where(hit, t_near, np.inf)


def make_ring_scan(spec: RingSpec) -> RingScan:
    """Ray-cast one scan; returns labelled points in beam-major ray order."""
    d = ray_directions(spec.beams, spec.azimuth_steps)
    t = _ground_hits(spec, d)
    is_box = np.zeros(len(d), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        for box in spec.boxes:
            tb = _box_hits(box, inv)
            nearer = tb < t
            t[nearer] = tb[nearer]
            is_box |= nearer
    keep = t <= spec.max_range
    rng = np.random.default_rng(spec.seed)
    r = t[keep] + rng.normal(0.0, spec.range_sigma, int(keep.sum()))
    points = d[keep] * r[:, None]
    labels = np.where(is_box[keep], OBSTACLE_LABEL, GROUND_LABEL).astype(np.uint16)
    return RingScan(points=points, labels=labels, spec=spec)


def _footprint_clear(x0, x1, y0, y1, clearance: float) -> bool:
    """True when the footprint keeps ``clearance`` meters from the sensor."""
    nx = min(max(0.0, x0), x1)
    ny = min(max(0.0, y0), y1)
    return math.hypot(nx, ny) >= clearance


def _place(rng, ground, r_min, r_max, sx, sy, sz, bury, clearance):
    """One box at a random bearing and range, clear of the sensor."""
    while True:
        r = rng.uniform(r_min, r_max)
        a = rng.uniform(0.0, 2.0 * math.pi)
        cx, cy = r * math.cos(a), r * math.sin(a)
        x0, x1, y0, y1 = cx - sx / 2, cx + sx / 2, cy - sy / 2, cy + sy / 2
        if _footprint_clear(x0, x1, y0, y1, clearance):
            z = float(ground(cx, cy))
            return Box(x0, x1, y0, y1, z - bury, z + sz)


def random_ring_spec(seed: int, quantiles) -> RingSpec:
    """A street-like scene drawn from ``seed``.

    Mount height jitters by +-0.1 m around the nominal height, the ground
    slopes 0-4 degrees in a random direction, and 0-12 buildings (4-15 m
    tall) and 4-20 cars stand on it.  ``quantiles`` (four numbers in [0, 1))
    fix where building count, car count, slope and mount offset fall in
    those ranges, so a caller can spread several scenes evenly over them;
    everything else is drawn from ``seed``.  Boxes are buried below the
    local ground so no gap opens under them on a slope.
    """
    rng = np.random.default_rng(seed)
    q_build, q_cars, q_slope, q_mount = quantiles
    base = RingSpec(
        mount_height=NOMINAL_MOUNT_HEIGHT - 0.1 + 0.2 * q_mount,
        slope_deg=4.0 * q_slope,
        slope_azimuth=rng.uniform(0.0, 2.0 * math.pi),
        seed=int(rng.integers(2**32)),
    )
    n_build = int(13 * q_build)
    n_cars = 4 + int(17 * q_cars)

    def ground(x, y):
        return ground_height(base, x, y)

    boxes = []
    for _ in range(n_build):
        sx, sy = rng.uniform(6.0, 20.0, 2)
        boxes.append(_place(rng, ground, 12.0, 60.0, sx, sy, rng.uniform(4.0, 15.0), 2.0, 8.0))
    for _ in range(n_cars):
        sx, sy = (4.5, 1.8) if rng.random() < 0.5 else (1.8, 4.5)
        boxes.append(_place(rng, ground, 5.0, 40.0, sx, sy, 1.5, 0.3, 4.0))
    return replace(base, boxes=tuple(boxes))
