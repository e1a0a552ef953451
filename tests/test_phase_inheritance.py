"""Phase II's inherited grid against a Phase-II grid built from scratch.

Phase II re-bins Phase I's grid (``voxel_grid.rebin``), takes over every
Phase-I cell it holds unchanged and classifies only the other cells
(``pipeline.run_phase``).  The grid that ``segment`` hands to Phase II's
expansion must equal ``build_grid`` plus ``classify_cells`` on the Phase-II
points, array for array and byte for byte, its point ids those of the
seeded cloud.  The count of inherited cells is checked against an oracle
that sorts every Phase-I ground cell by the fine cells its points land in.
"""

import copy
import dataclasses

import numpy as np
import pytest
from test_expansion_exactness import SCENES

import gridseg as gs
from gridseg import pipeline
from gridseg.cloud_io import inject_synthetic_seed
from gridseg.pipeline import SeededCloud, classify_cells, make_default_config, run_phase, segment
from gridseg.voxel_grid import GroundState, VoxelGrid, build_grid

CFG = make_default_config()
# every array of the grid, so none can drop out of the comparison
ARRAYS = tuple(f.name for f in dataclasses.fields(VoxelGrid) if f.name != "cellsize")
SCENES = {
    **SCENES,
    # ground at -1.52 m: its 0.2 m slab [-1.6, -1.4) straddles the 1.5 m
    # cell boundary at -1.5 m, so column neighbours share slabs
    "straddle": gs.SceneSpec(extent=30, n_ground=20000, ground_z=-1.52, noise_sigma=0.01, seed=3),
    # noisy ground: many single-slab Phase-I ground cells hold outliers of
    # their plane, and are inherited all the same
    "noisy": gs.SceneSpec(extent=24.0, n_ground=8000, noise_sigma=0.05, seed=11),
    # flat ground without noise: every Phase-II cell is a Phase-I ground
    # cell, so Phase II inherits them all and classifies none
    "flat": gs.SceneSpec(extent=24.0, n_ground=8000, noise_sigma=0.0, seed=5),
}
# the exclusion each scene must exercise at least once
EXCLUDES = {"straddle": "shared"}
# the scenes whose Phase II inherits every cell
ALL_INHERITED = {"flat"}


def _phase2_grid(monkeypatch, run):
    """The Phase-II grid as ``run()`` hands it to expansion, and run's result."""
    seen = {}
    expand = pipeline.expand

    def spy(grid, index, seed, geometry, expansion, phase, **kwargs):
        seen[phase] = copy.deepcopy(grid)
        return expand(grid, index, seed, geometry, expansion, phase, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "expand", spy)
        out = run()
    assert 2 in seen, "Phase II did not expand"
    return seen[2], out


def _phase1(cloud):
    """The seeded cloud's points and ``SeededCloud``, Phase I's result, and
    the Phase-II point ids: every point of a Phase-I ground cell, and the
    synthetic lattice."""
    cloud, info = inject_synthetic_seed(
        cloud, CFG.robot_radius, CFG.dist_to_ground, CFG.seed_spacing
    )
    pts, seeded = cloud.points, SeededCloud(cloud, info)
    r1 = run_phase(seeded, CFG)
    in_ground = np.repeat(r1.grid.state == GroundState.GROUND, r1.grid.counts)
    lattice = np.arange(len(pts) - info.count, len(pts))
    p2_ids = np.union1d(np.compress(in_ground, r1.grid.order), lattice)
    return pts, seeded, r1, p2_ids


def _fresh(cloud):
    """Phase I's expanded grid, the Phase-II point ids, and a Phase-II grid
    built and classified from scratch on those points."""
    pts, _, r1, p2_ids = _phase1(cloud)
    grid = build_grid(pts[p2_ids], CFG.phase2.cellsize)
    classify_cells(grid, CFG.geometry)
    return r1.grid, p2_ids, grid


def _assert_same_grid(got, want, ids):
    """``got`` equals ``want``, built on the points ``ids``, its ``order``
    through the map ``ids[want.order]``."""
    assert got.cellsize == want.cellsize
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        if name == "order":
            b = ids[b]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _oracle(grid1, p2_ids, grid2):
    """Phase-I ground cells by where their points land in the fresh grid:
    in several fine cells, in one shared with other points, or in one of
    their own (inheritable)."""
    local = np.full(grid1.order.max() + 1, -1)
    local[p2_ids] = np.arange(len(p2_ids))
    row = np.empty(len(p2_ids), dtype=np.int64)
    row[grid2.order] = np.repeat(np.arange(len(grid2.cells)), grid2.counts)
    out = dict.fromkeys(("several", "shared", "inherit"), 0)
    for c in np.flatnonzero(grid1.state == GroundState.GROUND):
        fine = np.unique(row[local[grid1.order[grid1.span(c)]]])
        if len(fine) > 1:
            out["several"] += 1
        elif grid2.counts[fine[0]] != grid1.counts[c]:
            out["shared"] += 1
        else:
            out["inherit"] += 1
    return out


@pytest.mark.parametrize("name", SCENES)
def test_phase2_grid_equals_fresh_grid(monkeypatch, name):
    cloud = gs.scene_cloud(gs.make_scene(SCENES[name]))
    got, stats = _phase2_grid(monkeypatch, lambda: segment(cloud, CFG).stats)
    grid1, p2_ids, want = _fresh(cloud)
    _assert_same_grid(got, want, p2_ids)
    kinds = _oracle(grid1, p2_ids, want)
    assert stats.phase2.cells_inherited == kinds["inherit"] > 0
    assert stats.phase1.cells_inherited == 0
    if name in EXCLUDES:
        assert kinds[EXCLUDES[name]] >= 1
    if name in ALL_INHERITED:
        assert stats.phase2.cells_inherited == stats.phase2.n_cells


def test_phase2_drops_the_parent_grid():
    _, seeded, r1, p2_ids = _phase1(gs.scene_cloud(gs.make_scene(SCENES["boxes"])))
    assert r1.grid is not None
    r2 = run_phase(seeded, CFG, parent=r1)
    assert r1.grid is None
    assert r2.stats.cells_inherited > 0
    assert r2.stats.n_points == len(p2_ids)
