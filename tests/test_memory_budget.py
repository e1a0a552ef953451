"""Memory budget: the peak of the arrays a grid build and a whole
``segment()`` allocate, in bytes per input point, as ``tracemalloc`` sees
numpy's allocations.

A layout change that adds an N × 3 temporary, or keeps one alive across a
phase, shows here before it shows in the benchmark's ``peak_rss_mb``.  On
a 100k-point uniform scene over 100 m (the wide-130k generator, no boxes)
``build_grid`` peaks at 67.0 bytes per point and ``segment()`` at
94.8-95.0 over seeds 0-4: Phase I's ``build_grid`` of the seeded copy,
which is freed once that build returns.  On a sparse scene, 30k points
over 1 km in about 29k cells, ``segment()`` peaks at 370.3-370.8 bytes per
point, in Phase I's classification: its per-cell arrays grow with the
cells, and the eigen solver's temporaries with one block of them
(``cell_geometry.EIGEN_BLOCK``).  The bounds leave about 4% above those
peaks.
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


def test_segment_peaks_at_99_bytes_per_point(points):
    cloud = gs.PointCloud(points=points)
    assert _peak_bytes_per_point(lambda: gs.segment(cloud), len(points)) <= 99


def test_sparse_segment_peaks_at_385_bytes_per_point():
    cloud = gs.PointCloud(gs.make_scene(gs.SceneSpec(extent=1000, n_ground=30_000, seed=0)).points)
    assert _peak_bytes_per_point(lambda: gs.segment(cloud), len(cloud)) <= 385
