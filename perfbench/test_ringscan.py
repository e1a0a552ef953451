"""Tests of the ring-pattern scan generator (run with pytest from the repo root)."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from gridseg.synth import GROUND_LABEL, OBSTACLE_LABEL  # noqa: E402
from ringscan import RingSpec, ground_height, make_ring_scan  # noqa: E402
from workloads import ring_specs, scan_seeds  # noqa: E402

# the ring-64 workload's scenes for workload seed 5: Latin-hypercube spread
# over building count, car count, slope and mount offset
POOL = ring_specs(scan_seeds("ring-64", 5))


def small_spec(k: int) -> RingSpec:
    return replace(POOL[k], beams=16, azimuth_steps=256)


@pytest.mark.parametrize("seed", [0, 7])
def test_same_workload_seed_gives_byte_identical_scans(seed):
    specs = ring_specs(scan_seeds("ring-64", seed))
    assert specs == ring_specs(scan_seeds("ring-64", seed))
    for spec in (specs[0], specs[-1]):
        a, b = make_ring_scan(spec), make_ring_scan(spec)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
    other = make_ring_scan(ring_specs(scan_seeds("ring-64", seed + 1))[0])
    assert other.points.tobytes() != make_ring_scan(specs[0]).points.tobytes()


@pytest.mark.parametrize("k", range(0, len(POOL), 2))
def test_ground_points_lie_on_the_plane_within_noise(k):
    scan = make_ring_scan(small_spec(k))
    ground = scan.points[scan.labels == GROUND_LABEL]
    assert len(ground) > 0
    # range noise moves a point along its ray, so its vertical offset from
    # the plane is at most |noise| * (1 + slope gradient); 6 sigma bound
    dz = ground[:, 2] - ground_height(scan.spec, ground[:, 0], ground[:, 1])
    assert np.abs(dz).max() <= 6 * scan.spec.range_sigma * 1.1


def test_noise_free_ground_is_exactly_on_the_plane():
    spec = replace(small_spec(3), range_sigma=0.0)
    scan = make_ring_scan(spec)
    ground = scan.points[scan.labels == GROUND_LABEL]
    dz = ground[:, 2] - ground_height(spec, ground[:, 0], ground[:, 1])
    np.testing.assert_allclose(dz, 0.0, atol=1e-9)


@pytest.mark.parametrize("k", range(1, len(POOL), 3))
def test_returns_at_most_one_per_ray_and_within_range(k):
    spec = small_spec(k)
    scan = make_ring_scan(spec)
    assert 0 < len(scan.points) <= spec.beams * spec.azimuth_steps
    assert set(np.unique(scan.labels)) <= {GROUND_LABEL, OBSTACLE_LABEL}
    r = np.linalg.norm(scan.points, axis=1)
    assert r.max() <= spec.max_range + 6 * spec.range_sigma


def test_full_pattern_is_about_120k_points_with_obstacles():
    scan = make_ring_scan(POOL[1])
    assert len(scan.points) <= 64 * 2048
    assert 100_000 <= len(scan.points) <= 64 * 2048
    assert (scan.labels == OBSTACLE_LABEL).any()
