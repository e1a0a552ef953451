"""The benchmark's workloads: seeded pools of labelled scans.

Every workload runs the default config.  A pool is a pure function of the
workload seed, generated before any timing starts; the segmenter receives
only the generated clouds.

ring-64     64-beam, 2048-step ring scans (about 120k points) ray-cast
            against a 0-4 degree slope, buildings and cars out to 80 m.
            Density falls with range and scan lines leave gaps, so
            expansion has to bridge them; buildings let Phase I discard
            part of the scan.  The only workload where range-bucketed F1
            means something.
wide-130k   ``gridseg.synth`` scene, 100 m extent, 120k ground points and 20
            boxes (about 130k points): about 6.9k cells per phase at about
            19 points per cell, so per-cell Python overhead dominates.
dense-130k  the same generator and point count in a 40 m extent: about 1.2k
            cells per phase at about 105 points per cell, so per-point work
            (sorts, covariance, RANSAC scoring, id set ops) dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import gridseg as gs
from ringscan import RingSpec, make_ring_scan, random_ring_spec


@dataclass
class Scan:
    seed: int
    points: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class Workload:
    pool_size: int  # scans per run: as many as one pass in the run length affords at baseline speed
    f1_floor: float  # f1_mean below this fails the run


WORKLOADS = {
    "ring-64": Workload(pool_size=12, f1_floor=0.90),
    "wide-130k": Workload(pool_size=3, f1_floor=0.95),
    "dense-130k": Workload(pool_size=10, f1_floor=0.95),
}


def _uniform_scan(seed: int, extent: float) -> Scan:
    """120k ground points plus 20 boxes kept 6 m clear of the sensor."""
    rng = np.random.default_rng(seed)
    half = extent / 2 - 3.0
    boxes = []
    while len(boxes) < 20:
        cx, cy = rng.uniform(-half, half, 2)
        if math.hypot(cx, cy) < 6.0:
            continue
        sx, sy = rng.uniform(1.0, 2.5, 2)
        boxes.append(gs.BoxSpec(cx, cy, sx, sy, rng.uniform(0.8, 2.0)))
    scene = gs.make_scene(
        gs.SceneSpec(extent=extent, n_ground=120_000, boxes=tuple(boxes), seed=seed)
    )
    return Scan(seed, scene.points, scene.labels)


def ring_specs(seeds: list[int]) -> list[RingSpec]:
    """Ring scenes whose parameters are spread over their ranges.

    Building count, car count, slope and mount offset are Latin-hypercube
    sampled across the pool: each scan takes a different 1/n slice of each
    range, at a random place inside it.  Every pool so covers the whole
    envelope, and the pool's median scan time varies less from seed to
    seed than with independent draws.
    """
    n = len(seeds)
    rng = np.random.default_rng([seeds[0], n])  # a stream apart from the scans' own
    quantiles = (np.argsort(rng.random((4, n)), axis=1).T + rng.random((n, 4))) / n
    return [random_ring_spec(s, q) for s, q in zip(seeds, quantiles)]


def scan_seeds(name: str, seed: int) -> list[int]:
    """Per-scan seeds of a workload's pool, derived from the workload seed."""
    size = WORKLOADS[name].pool_size
    return [seed * 1000 + k for k in range(size)]


def make_pool(name: str, seed: int) -> list[Scan]:
    seeds = scan_seeds(name, seed)
    if name == "ring-64":
        scans = [make_ring_scan(spec) for spec in ring_specs(seeds)]
        return [Scan(s, scan.points, scan.labels) for s, scan in zip(seeds, scans)]
    extent = {"wide-130k": 100.0, "dense-130k": 40.0}[name]
    return [_uniform_scan(s, extent) for s in seeds]
