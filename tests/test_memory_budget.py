"""Memory budget: the peak of the arrays a grid build and a whole
``segment()`` allocate, in bytes per input point, as ``tracemalloc`` sees
numpy's allocations.

A layout change that adds an N × 3 temporary, or keeps one alive across a
phase, shows here before it shows in the benchmark's ``peak_rss_mb``.  On
a 100k-point uniform scene over 100 m (the wide-130k generator, no boxes)
``build_grid`` peaks at 67.0 bytes per point and ``segment()`` at
149.2-149.4 over seeds 0-4; the bounds leave about 4% above that.
"""

import tracemalloc

import pytest

import gridseg as gs
from gridseg.voxel_grid import build_grid


@pytest.fixture(scope="module")
def points():
    return gs.make_scene(gs.SceneSpec(extent=100, n_ground=100_000, seed=0)).points


def _peak_bytes_per_point(call, n):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


def test_build_grid_peaks_at_70_bytes_per_point(points):
    cellsize = gs.make_default_config().phase1.cellsize
    assert _peak_bytes_per_point(lambda: build_grid(points, cellsize), len(points)) <= 70


def test_segment_peaks_at_155_bytes_per_point(points):
    cloud = gs.PointCloud(points=points)
    assert _peak_bytes_per_point(lambda: gs.segment(cloud), len(points)) <= 155
