"""The graph-based ``expand`` against the queue-based expansion it replaced.

``_reference_expand`` and ``_reference_refine`` are the former ``expand`` and
``refine_cell`` bodies: a deque/set breadth-first search that queries each
dequeued cell's neighbors and refines it on the spot against the live cell
states.  It queries a brute-force index (``conftest.BruteForceIndex``), so it
shares no neighbor search with ``expand``.  The new expansion must agree
with it exactly: the same ground ids (``expand``'s count, and the ids
``ground_mask`` flags), admission edges, routes, and final cell states.  They run on per-cell records that ``_records`` builds from a grid's
arrays, as the cell objects of the former grid held them.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import BruteForceIndex
from hypothesis import given
from hypothesis import strategies as st

import gridseg as gs
from gridseg import pipeline, region_expansion
from gridseg.cell_geometry import GeometryParams, segment_sparsity, tilt_deg
from gridseg.cloud_io import inject_synthetic_seed
from gridseg.errors import ContractViolationError
from gridseg.pipeline import classify_cells, make_default_config, run_phase, segment
from gridseg.region_expansion import (
    REASONS,
    CentroidIndex,
    ExpansionLog,
    ExpansionParams,
    build_centroid_index,
    expand,
    ground_mask,
    select_seed,
)
from gridseg.voxel_grid import CellSize, GroundState, build_grid, cell_index

GEO = GeometryParams()
CFG = make_default_config()


@dataclass
class _Cell:
    index: tuple
    centroid: np.ndarray
    ground_state: GroundState
    plane: object
    inlier_ids: np.ndarray | None
    outlier_ids: np.ndarray | None


def _records(grid):
    """One record per cell, keyed by cell index: its centroid and state, and
    for a cell with a plane fit its inliers and outliers in canonical order."""
    cells = {}
    for c, idx in enumerate(grid.cells.tolist()):
        span = grid.span(c)
        ids, inl = grid.order[span], grid.inliers[span]
        fitted = bool(grid.fitted[c])
        cells[tuple(idx)] = _Cell(
            index=tuple(idx),
            centroid=grid.centroids[c],
            ground_state=GroundState(grid.state[c]),
            plane=grid.slopes[c] if fitted else None,
            inlier_ids=ids[inl] if fitted else None,
            outlier_ids=ids[~inl] if fitted else None,
        )
    return cells


def _record_index(cells, keys):
    keys = list(keys)
    return BruteForceIndex(keys, [cells[k].centroid for k in keys])


def _cell_height(cell, points):
    if cell.inlier_ids is not None and len(cell.inlier_ids) > 0:
        return float(points[cell.inlier_ids, 2].mean())
    return float(cell.centroid[2])


def _occupied_below(cells, index):
    column = [k for k in cells if k[:2] == index[:2] and k[2] < index[2]]
    return cells[max(column)] if column else None


def _reference_refine(cell, cells, points, neighbor_ground_cells, geometry, expansion):
    if cell.plane is None or cell.inlier_ids is None or cell.outlier_ids is None:
        return False, "no plane fit"
    if len(cell.inlier_ids) == 0:
        return False, "no ground inliers"
    if len(cell.outlier_ids) == 0:
        return True, "no outliers"
    s_in = segment_sparsity(points[cell.inlier_ids], [len(cell.inlier_ids)], geometry)[0]
    s_out = segment_sparsity(points[cell.outlier_ids], [len(cell.outlier_ids)], geometry)[0]
    if s_in != s_out:
        return True, "sparsity unambiguous"
    z_i = float(points[cell.inlier_ids, 2].mean())
    heights = [_cell_height(c, points) for c in neighbor_ground_cells]
    if not heights:
        return False, "ambiguous with no ground neighbors"
    if z_i - min(heights) > expansion.ambiguity_elevation_threshold:
        return False, "ambiguous and elevated above lowest neighbor"
    below = _occupied_below(cells, cell.index)
    if below is not None and below.ground_state in (GroundState.NON_GROUND, GroundState.OBSTACLE):
        return False, "ambiguous with non-ground cell below"
    return True, "ambiguous checks passed"


def _reference_expand(cells, points, index, seed, geometry, expansion, phase, log=None):
    seed_cell = cells.get(seed)
    if seed_cell is None or seed_cell.ground_state is not GroundState.TENTATIVE:
        raise ContractViolationError(f"seed cell {seed} is not tentative ground")

    seed_cell.ground_state = GroundState.GROUND
    queue = deque([seed])
    in_queue = {seed}
    expanded = set()
    ground_parts = []

    while queue:
        i = queue.popleft()
        in_queue.discard(i)
        expanded.add(i)
        ci = cells[i]

        neighbors = index.within(ci.centroid, expansion.search_radius)
        for j in neighbors:
            if j == i or j in expanded or j in in_queue:
                continue
            cj = cells[j]
            if cj.ground_state is not GroundState.TENTATIVE:
                continue
            dz = abs(float(ci.centroid[2]) - float(cj.centroid[2]))
            if phase == 2 and dz > expansion.height_gate:
                continue
            cj.ground_state = GroundState.GROUND
            queue.append(j)
            in_queue.add(j)
            if log is not None:
                log.edges.append((i, j, dz))

        neighbor_ground = [
            cells[j] for j in neighbors if j != i and cells[j].ground_state is GroundState.GROUND
        ]
        is_ground, reason = _reference_refine(
            ci, cells, points, neighbor_ground, geometry, expansion
        )
        if is_ground:
            ground_parts.append(ci.inlier_ids)
        else:
            ci.ground_state = GroundState.NON_GROUND
        if log is not None:
            log.routes.append((i, "ground" if is_ground else "non_ground", reason))

    if not ground_parts:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(ground_parts)).astype(np.int64)


def _expand_both(make_grid, points, seed, expansion, phase):
    """Run both expansions on fresh grids; assert they agree; return the log."""
    outcomes = []
    for reference in (True, False):
        grid = make_grid()
        tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
        log = ExpansionLog()
        if reference:
            cells = _records(grid)
            index = _record_index(cells, map(tuple, grid.cells[tentative].tolist()))
            ground = _reference_expand(cells, points, index, seed, GEO, expansion, phase, log)
            states = [(idx, c.ground_state) for idx, c in cells.items()]
        else:
            index = build_centroid_index(grid, tentative)
            count = expand(grid, index, seed, GEO, expansion, phase=phase, log=log)
            ground = np.flatnonzero(ground_mask(grid, len(points)))
            assert type(count) is int and count == len(ground)
            states = [(tuple(k), GroundState(v)) for k, v in zip(grid.cells.tolist(), grid.state)]
        outcomes.append((ground, log, states))
    (g0, log0, s0), (g1, log1, s1) = outcomes
    np.testing.assert_array_equal(g0, g1)
    assert log0.edges == log1.edges
    assert log0.routes == log1.routes
    assert s0 == s1
    return log1


def _classified(points, cellsize):
    def make_grid():
        grid = build_grid(points, cellsize)
        classify_cells(grid, GEO)
        return grid

    return make_grid


def _compare_scene(spec):
    """Both phases of a scene, the second on Phase I's ground-cell points."""
    seeded, info = inject_synthetic_seed(
        gs.scene_cloud(gs.make_scene(spec)), CFG.robot_radius, CFG.dist_to_ground, CFG.seed_spacing
    )
    pts = seeded.points
    phase1 = _classified(pts, CFG.phase1.cellsize)
    grid = phase1()
    seed = select_seed(grid, info)
    if grid.state[grid.find(seed)] != GroundState.TENTATIVE:
        with pytest.raises(ContractViolationError):
            _reference_expand(_records(grid), pts, None, seed, GEO, CFG.expansion, 1)
        with pytest.raises(ContractViolationError):
            expand(grid, build_centroid_index(grid, []), seed, GEO, CFG.expansion, phase=1)
        return []
    logs = [_expand_both(phase1, pts, seed, ExpansionParams(), 1)]

    grid1 = run_phase(pts, CFG, info).grid
    in_ground = np.repeat(grid1.state == GroundState.GROUND, grid1.counts)
    lattice = np.arange(len(pts) - info.count, len(pts))
    p2_ids = np.union1d(np.compress(in_ground, grid1.order), lattice)
    p2 = pts[p2_ids]
    phase2 = _classified(p2, CFG.phase2.cellsize)
    grid = phase2()
    seed = select_seed(grid, info)
    if grid.state[grid.find(seed)] == GroundState.TENTATIVE:
        logs.append(_expand_both(phase2, p2, seed, ExpansionParams(), 2))
    return logs


def _boxed_spec(extent, n_ground, n_boxes, seed):
    """A scene with boxes placed as the benchmark's uniform scans place
    them: random footprints kept 6 m clear of the sensor."""
    rng = np.random.default_rng(seed)
    half = extent / 2 - 3.0
    boxes = []
    while len(boxes) < n_boxes:
        cx, cy = rng.uniform(-half, half, 2)
        if math.hypot(cx, cy) < 6.0:
            continue
        sx, sy = rng.uniform(1.0, 2.5, 2)
        boxes.append(gs.BoxSpec(cx, cy, sx, sy, rng.uniform(0.8, 2.0)))
    return gs.SceneSpec(extent=extent, n_ground=n_ground, boxes=tuple(boxes), seed=seed)


SCENES = {
    "boxes": gs.SceneSpec(
        extent=24.0,
        n_ground=8000,
        boxes=(gs.BoxSpec(5.0, 2.0, 1.5, 1.0, 1.2), gs.BoxSpec(-4.0, -5.0, 2.0, 2.0, 0.8)),
        seed=21,
    ),
    "slope-12": gs.SceneSpec(extent=24.0, n_ground=8000, slope_deg=12.0, seed=22),
    "boxes-12": _boxed_spec(extent=30.0, n_ground=20000, n_boxes=12, seed=3),
}
# fewest Phase-I cells a scene must refine as ambiguous, whose decisions
# read each other's and are found as a fixed point, so that it keeps
# covering those rounds
AMBIGUOUS_FLOOR = {"boxes-12": 20}


@pytest.mark.parametrize("name", SCENES)
def test_expand_matches_reference_on_both_phases(name):
    logs = _compare_scene(SCENES[name])
    assert len(logs) == 2
    assert all(log.routes for log in logs)
    ambiguous = [r for _, _, r in logs[0].routes if r.startswith("ambiguous")]
    assert len(ambiguous) >= AMBIGUOUS_FLOOR.get(name, 0)


def _reference_segment(monkeypatch, cloud):
    def reference(grid, index, seed, geometry, expansion, phase, log=None, route_counts=None):
        log = ExpansionLog() if log is None else log
        # the rows of the cloud that the grid's point ids index (in Phase
        # II a subset of it: the other rows are never read)
        points = np.empty((grid.order.max() + 1, 3))
        points[grid.order] = grid.points
        cells = _records(grid)
        keys = list(map(tuple, grid.cells[index.cell_ids].tolist()))
        out = _reference_expand(
            cells, points, _record_index(cells, keys), seed, geometry, expansion, phase, log=log
        )
        grid.state[:] = [c.ground_state for c in cells.values()]
        # segment reads the ground points from the grid's states
        np.testing.assert_array_equal(np.flatnonzero(ground_mask(grid, len(points))), out)
        for _, _, reason in log.routes:
            route_counts[reason] += 1
        return len(out)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "expand", reference)
        logs = ExpansionLog(), ExpansionLog()
        return segment(cloud, log1=logs[0], log2=logs[1]), logs


@pytest.mark.parametrize("name", SCENES)
def test_segment_matches_reference_masks_logs_and_stats(monkeypatch, name):
    cloud = gs.scene_cloud(gs.make_scene(SCENES[name]))
    ref, ref_logs = _reference_segment(monkeypatch, cloud)
    logs = ExpansionLog(), ExpansionLog()
    new = segment(cloud, log1=logs[0], log2=logs[1])
    np.testing.assert_array_equal(new.mask, ref.mask)
    for a, b in zip(logs, ref_logs):
        assert a.edges == b.edges and a.routes == b.routes
    for phase in ("phase1", "phase2"):
        got, want = getattr(new.stats, phase).as_dict(), getattr(ref.stats, phase).as_dict()
        for timing in ("runtime_ms", "stages_ms"):
            got.pop(timing), want.pop(timing)
        assert got == want


# Hand-built cells on a 1 m grid, one 10 x 10 point patch at a fixed height
# per cell.  "ground" cells hold a plane with no outliers, "ambiguous" cells
# split their points into two equally dense halves, "no_plane" cells hold
# no fit and route non-ground.  The first cell is the seed.
def _patch(x0, z):
    g = np.linspace(0.1, 0.9, 10)
    xx, yy = np.meshgrid(g, g)
    return np.column_stack([xx.ravel() + x0, yy.ravel(), np.full(100, z)])


def _hand_built(layout):
    points = np.vstack([_patch(x0, z) for x0, z, _ in layout])

    def make_grid():
        grid = build_grid(points, CellSize(1.0, 1.0, 1.0))
        grid.state[:] = GroundState.TENTATIVE
        for x0, z, kind in layout:
            c = grid.find(cell_index((x0 + 0.5, 0.5, z), grid.cellsize))
            span = grid.span(c)
            ids = np.sort(grid.order[span])
            if kind != "no_plane":
                grid.slopes[c] = tilt_deg([0, 0, 1.0])[0]
                split = len(ids) if kind == "ground" else 50
                grid.inliers[span] = np.isin(grid.order[span], ids[:split])
        return grid

    seed = cell_index((layout[0][0] + 0.5, 0.5, layout[0][1]), CellSize(1.0, 1.0, 1.0))
    return points, make_grid, seed


def _ambiguous_route(log, layout):
    x0, z = next((x0, z) for x0, z, kind in layout if kind == "ambiguous")
    idx = cell_index((x0 + 0.5, 0.5, z), CellSize(1.0, 1.0, 1.0))
    return next(reason for cell, _, reason in log.routes if cell == idx)


# the ambiguous cell at x = 2 sits on a no-plane cell of the same column,
# 0.25 m lower, and 1.03 m from the seed
COLUMN = [(1, 1.05, "ground"), (2, 0.8, "no_plane"), (2, 1.05, "ambiguous")]


@pytest.mark.parametrize(
    "radius, reason",
    [
        # the seed admits both; the lower cell is dequeued and rejected first
        (5.0, "ambiguous with non-ground cell below"),
        # only the ambiguous cell is within reach of the seed: it admits the
        # cell below, which is still queued (GROUND) when it is refined
        (1.01, "ambiguous checks passed"),
    ],
)
def test_ambiguous_cell_over_a_cell_rejected_earlier(radius, reason):
    points, make_grid, seed = _hand_built(COLUMN)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=radius), 1)
    assert _ambiguous_route(log, COLUMN) == reason


@pytest.mark.parametrize(
    "layout, radius, reason",
    [
        # the low no-plane neighbor is dequeued and rejected before the
        # ambiguous cell, so only the seed's height counts
        (
            [(0, 0.5, "ground"), (1, 0.1, "no_plane"), (2, 0.6, "ambiguous")],
            5.0,
            "ambiguous checks passed",
        ),
        # the ambiguous cell admits the low neighbor itself, which is then
        # GROUND (queued) when it is refined
        (
            [(0, 0.5, "ground"), (1, 0.6, "ambiguous"), (2, 0.1, "no_plane")],
            1.2,
            "ambiguous and elevated above lowest neighbor",
        ),
    ],
)
def test_ambiguous_cell_after_its_lowest_neighbor_was_rejected(layout, radius, reason):
    points, make_grid, seed = _hand_built(layout)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=radius), 1)
    assert _ambiguous_route(log, layout) == reason


def test_neighbor_admitted_only_later_does_not_count():
    # phase 2: the low cell at x = 3 is a radius neighbor of the ambiguous
    # cell but outside its height gate; the cell at x = 2 admits it only
    # after the ambiguous cell has been refined
    layout = [(0, 0.5, "ground"), (1, 0.6, "ambiguous"), (2, 0.35, "ground"), (3, 0.15, "ground")]
    points, make_grid, seed = _hand_built(layout)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=5.0), 2)
    assert _ambiguous_route(log, layout) == "ambiguous checks passed"
    assert len(log.routes) == 4



def test_lowest_neighbor_over_the_gate_counts_once_admitted_elsewhere():
    # phase 2: the low cell at x = 2 is 0.4 m below the seed and the
    # ambiguous cell, over the height gate of both, but the cell at x = 1
    # admits it before the ambiguous cell is refined; it is then the
    # ambiguous cell's lowest ground neighbor, found only in the ungated rows
    layout = [(0, 0.5, "ground"), (1, 0.3, "ground"), (2, 0.1, "ground"), (3, 0.5, "ambiguous")]
    points, make_grid, seed = _hand_built(layout)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=5.0), 2)
    assert _ambiguous_route(log, layout) == "ambiguous and elevated above lowest neighbor"
    assert [(i[0], j[0]) for i, j, _ in log.edges] == [(0, 1), (0, 3), (1, 2)]


def _count_rounds(monkeypatch):
    """Count ``refine_reasons`` calls in ``expand``: one for every dequeued
    cell, then one per round over the ambiguous cells."""
    calls = []
    refine_reasons = region_expansion.refine_reasons

    def counted(*args):
        calls.append(len(args[0]))
        return refine_reasons(*args)

    monkeypatch.setattr(region_expansion, "refine_reasons", counted)
    return calls


# A chain of ambiguous cells along x, the first 0.2 m above the seed and
# each next one 0.4 m above the one before, so the cell after a
# ground-routed one is elevated above it and the cell after a rejected one
# sees only the higher cell it admits.  Routes
# alternate; starting from "all passed", each round settles one more cell.
CHAIN = [(0, 0.0, "ground")] + [(x, 0.2 + 0.4 * (x - 1), "ambiguous") for x in range(1, 6)]


def test_ambiguous_chain_settles_one_cell_per_round(monkeypatch):
    points, make_grid, seed = _hand_built(CHAIN)
    rounds = _count_rounds(monkeypatch)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=1.2), 1)
    passed, elevated = "ambiguous checks passed", "ambiguous and elevated above lowest neighbor"
    alone = "ambiguous with no ground neighbors"  # the last cell, after a rejected one
    assert [r for _, _, r in log.routes] == ["no outliers", passed, elevated, passed, elevated, alone]
    assert rounds[0] == len(CHAIN)  # every dequeued cell, then the ambiguous rounds
    assert len(rounds) - 1 >= 3 and set(rounds[1:]) == {len(CHAIN) - 1}


@pytest.mark.parametrize(
    "layout, phase",
    [
        # the only other cell lies beyond the search radius
        ([(0, 0.5, "ambiguous"), (9, 0.5, "ground")], 1),
        ([(0, 0.5, "ambiguous"), (9, 0.5, "ground")], 2),
        # a radius neighbor over the height gate, never admitted
        ([(0, 0.5, "ambiguous"), (1, 0.1, "ground")], 2),
    ],
)
def test_ambiguous_seed_without_ground_neighbors(layout, phase):
    points, make_grid, seed = _hand_built(layout)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=5.0), phase)
    assert log.routes == [(seed, "non_ground", "ambiguous with no ground neighbors")]


boxes = st.lists(
    st.builds(
        gs.BoxSpec,
        cx=st.floats(-6.0, 6.0),
        cy=st.floats(-6.0, 6.0),
        sx=st.floats(0.5, 3.0),
        sy=st.floats(0.5, 3.0),
        sz=st.floats(0.3, 2.5),
        base=st.sampled_from([0.0, 0.0, 0.5, 1.5]),
    ),
    max_size=4,
).map(tuple)


@given(
    extent=st.floats(6.0, 20.0),
    n_ground=st.integers(200, 3000),
    slope=st.floats(0.0, 25.0),
    noise=st.floats(0.0, 0.1),
    boxes=boxes,
    seed=st.integers(0, 2**16),
)
def test_expand_matches_reference_on_random_scenes(extent, n_ground, slope, noise, boxes, seed):
    spec = gs.SceneSpec(
        extent=extent, n_ground=n_ground, slope_deg=slope, noise_sigma=noise, boxes=boxes, seed=seed
    )
    _compare_scene(spec)


def test_route_counts_add_up_to_cells_expanded():
    stats = segment(gs.scene_cloud(gs.make_scene(SCENES["boxes"]))).stats
    for phase in (stats.phase1, stats.phase2):
        assert list(phase.routes) == list(REASONS)
        assert sum(phase.routes.values()) == phase.cells_expanded > 0
    assert stats.as_dict()["phase1"]["routes"] == stats.phase1.routes


# Phase II's pairs: Phase I's, remapped, and a search of those with a cell
# not taken from Phase I.  "seed-below" fails Phase I's seed, so Phase I
# lends nothing and Phase II searches all; on "noisy" most cells change.
PAIR_SCENES = {
    **SCENES,
    "seed-below": gs.SceneSpec(ground_z=-2.2),
    "noisy": gs.SceneSpec(extent=24.0, n_ground=8000, noise_sigma=0.06, seed=11),
}


@pytest.mark.parametrize("name", ["boxes", "slope-12", "seed-below"])
def test_expand_counts_the_points_of_the_ground_mask(monkeypatch, name):
    # "boxes" and "slope-12" are the scenes of the pinned mask digests;
    # "seed-below" fails Phase I's seed, so Phase I expands nothing
    seeded, info = inject_synthetic_seed(
        gs.scene_cloud(gs.make_scene(PAIR_SCENES[name])),
        CFG.robot_radius,
        CFG.dist_to_ground,
        CFG.seed_spacing,
    )
    pts, n = seeded.points, len(seeded.points)
    returned = []

    def spy(grid, *args, **kwargs):
        count = expand(grid, *args, **kwargs)
        returned.append((count, int(ground_mask(grid, n).sum())))
        return count

    monkeypatch.setattr(pipeline, "expand", spy)
    r1 = run_phase(pts, CFG, info)
    ground1 = ground_mask(r1.grid, n)  # Phase II drops Phase I's grid
    r2 = run_phase(pts, CFG, info, parent=r1)
    ground2 = ground_mask(r2.grid, n)
    assert all(count == want for count, want in returned)
    phases = [(r1.stats, ground1), (r2.stats, ground2)]
    assert [count for count, _ in returned] == [s.points_ground for s, _ in phases if s.seed_ok]
    for stats, ground in phases:
        assert stats.points_ground == ground.sum()
        assert stats.points_ground + stats.points_non_ground == stats.n_points
    if name == "seed-below":
        assert not r1.stats.seed_ok and r1.stats.points_ground == 0
    else:
        assert len(returned) == 2 and r2.stats.points_ground > 0


@pytest.mark.parametrize("name", PAIR_SCENES)
def test_phase2_pairs_equal_a_fresh_search(name):
    seeded, info = inject_synthetic_seed(
        gs.scene_cloud(gs.make_scene(PAIR_SCENES[name])),
        CFG.robot_radius,
        CFG.dist_to_ground,
        CFG.seed_spacing,
    )
    r1 = run_phase(seeded.points, CFG, info)
    lent = r1.index
    r2 = run_phase(seeded.points, CFG, info, parent=r1)
    assert r1.index is None  # dropped once Phase II's index was built
    radius, i, j = r2.index.found
    assert radius == CFG.expansion.search_radius
    got = list(zip(i.tolist(), j.tolist()))
    assert (i < j).all() and len(set(got)) == len(got)
    fresh = CentroidIndex(r2.index.cell_ids, r2.index.centroids).pairs(radius)
    assert set(got) == set(zip(*(a.tolist() for a in fresh)))
    assert (r2.stats.pairs, r2.stats.pairs_inherited) == (len(got), r2.index.inherited)
    assert r1.stats.pairs_inherited == 0
    if name == "seed-below":
        assert lent is None and not r1.stats.seed_ok and r1.stats.pairs == 0
        assert r2.stats.pairs_inherited == 0 < r2.stats.pairs
    else:
        assert r1.stats.pairs == len(lent.found[1]) > 0 and r2.stats.pairs_inherited > 0


def test_phase2_takes_most_pairs_from_phase1():
    # guards against the reuse silently switching off: on open ground
    # nearly every Phase-II cell is a Phase-I cell unchanged
    stats = segment(gs.scene_cloud(gs.make_scene(gs.SceneSpec()))).stats
    assert stats.phase2.pairs_inherited / stats.phase2.pairs > 0.9
