"""The graph-based ``expand`` against a plain-Python expansion.

``_reference_expand`` reaches the seed's component with a deque search that
queries each cell's neighbors, then refines every reached cell against the
settled routes of the others, one cell at a time.  It queries a brute-force
index (``conftest.BruteForceIndex``), so it shares no neighbor search with
``expand``.  The two must agree exactly: the same ground ids (``expand``'s
count, and the ids ``ground_mask`` flags), routes, and final cell states.
They run on per-cell records that ``_records`` builds from a grid's
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
from gridseg.cell_geometry import GeometryParams, segment_sparsity
from gridseg.cloud_io import inject_synthetic_seed
from gridseg.errors import ContractViolationError
from gridseg.pipeline import SeededCloud, classify_cells, make_default_config, run_phase, segment
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
from gridseg.voxel_grid import CellSize, GroundState, Outcome, build_grid, cell_index

GEO = GeometryParams()
CFG = make_default_config()


@dataclass
class _Cell:
    index: tuple
    centroid: np.ndarray
    ground_state: GroundState
    fitted: bool
    inlier_ids: np.ndarray | None
    outlier_ids: np.ndarray | None


def _records(grid):
    """One record per cell, keyed by cell index: its centroid and state,
    whether it holds a plane fit, and for a cell that does its inliers and
    outliers in canonical order."""
    cells = {}
    for c, idx in enumerate(grid.cells.tolist()):
        span = grid.span(c)
        ids, inl = grid.order[span], grid.inliers[span]
        fitted = bool(grid.fitted[c])
        cells[tuple(idx)] = _Cell(
            index=tuple(idx),
            centroid=grid.centroids[c],
            ground_state=GroundState(grid.state[c]),
            fitted=fitted,
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


def _reference_settled(cell, points, geometry):
    """(is_ground, reason) of a cell by the refinement steps that read only
    the cell itself, or None when it is ambiguous."""
    if not cell.fitted or cell.inlier_ids is None or cell.outlier_ids is None:
        return False, "no plane fit"
    if len(cell.inlier_ids) == 0:
        return False, "no ground inliers"
    if len(cell.outlier_ids) == 0:
        return True, "no outliers"
    s_in = segment_sparsity(points[cell.inlier_ids], [len(cell.inlier_ids)], geometry)[0]
    s_out = segment_sparsity(points[cell.outlier_ids], [len(cell.outlier_ids)], geometry)[0]
    if s_in != s_out:
        return True, "sparsity unambiguous"
    return None


def _reference_ambiguous(cell, points, neighbor_ground_cells, below_non_ground, expansion):
    z_i = float(points[cell.inlier_ids, 2].mean())
    heights = [_cell_height(c, points) for c in neighbor_ground_cells]
    if not heights:
        return False, "ambiguous with no ground neighbors"
    if z_i - min(heights) > expansion.ambiguity_elevation_threshold:
        return False, "ambiguous and elevated above lowest neighbor"
    if below_non_ground:
        return False, "ambiguous with non-ground cell below"
    return True, "ambiguous checks passed"


def _reference_expand(cells, points, index, seed, geometry, expansion, phase, log=None):
    seed_cell = cells.get(seed)
    if seed_cell is None or seed_cell.ground_state is not GroundState.TENTATIVE:
        raise ContractViolationError(f"seed cell {seed} is not tentative ground")
    row = {k: r for r, k in enumerate(cells)}  # records are in grid-row order

    def links(i):
        """The cells linked to cell i."""
        for j in index.within(cells[i].centroid, expansion.search_radius):
            dz = abs(float(cells[i].centroid[2]) - float(cells[j].centroid[2]))
            if j != i and (phase == 1 or dz <= expansion.height_gate):
                yield j

    reached = {seed}
    queue = deque([seed])
    while queue:
        for j in links(queue.popleft()):
            if j not in reached:
                reached.add(j)
                queue.append(j)
    reached = sorted(reached, key=row.get)

    routes = {i: _reference_settled(cells[i], points, geometry) for i in reached}
    settled = {i: route for i, route in routes.items() if route is not None}
    for i in reached:
        if routes[i] is not None:
            continue
        neighbors = index.within(cells[i].centroid, expansion.search_radius)
        neighbor_ground = [cells[j] for j in neighbors if j != i and settled.get(j, (False,))[0]]
        below = _occupied_below(cells, i)
        below_non_ground = below is not None and (
            below.ground_state in (GroundState.NON_GROUND, GroundState.OBSTACLE)
            or settled.get(below.index, (True,))[0] is False
        )
        routes[i] = _reference_ambiguous(
            cells[i], points, neighbor_ground, below_non_ground, expansion
        )

    ground_parts = []
    for i in reached:
        is_ground, reason = routes[i]
        cells[i].ground_state = GroundState.GROUND if is_ground else GroundState.NON_GROUND
        if is_ground:
            ground_parts.append(cells[i].inlier_ids)
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
            count = expand(grid, index, seed, GEO, expansion, phase=phase)
            log.record(grid)
            ground = np.flatnonzero(ground_mask(grid, len(points)))
            assert type(count) is int and count == len(ground)
            states = [(tuple(k), GroundState(v)) for k, v in zip(grid.cells.tolist(), grid.state)]
        outcomes.append((ground, log, states))
    (g0, log0, s0), (g1, log1, s1) = outcomes
    np.testing.assert_array_equal(g0, g1)
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

    grid1 = run_phase(SeededCloud(seeded, info), CFG).grid
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
# fewest Phase-I cells a scene must refine as ambiguous, so that it keeps
# covering the second refinement pass, which reads the others' routes
AMBIGUOUS_FLOOR = {"boxes-12": 20}
# the exactness scenes, and one that fails Phase I's seed
PAIR_SCENES = {**SCENES, "seed-below": gs.SceneSpec(ground_z=-2.2)}


@pytest.mark.parametrize("name", SCENES)
def test_expand_matches_reference_on_both_phases(name):
    logs = _compare_scene(SCENES[name])
    assert len(logs) == 2
    assert all(log.routes for log in logs)
    ambiguous = [r for _, _, r in logs[0].routes if r.startswith("ambiguous")]
    assert len(ambiguous) >= AMBIGUOUS_FLOOR.get(name, 0)


def _reference_segment(monkeypatch, cloud):
    def reference(grid, index, seed, geometry, expansion, phase):
        log = ExpansionLog()  # the reference's own, by which it writes the outcomes
        # the rows of the cloud that the grid's point ids index (in Phase
        # II a subset of it: the other rows are never read)
        points = np.empty((grid.order.max() + 1, 3))
        points[grid.order] = grid.points
        cells = _records(grid)
        keys = list(map(tuple, grid.cells[index.cell_ids].tolist()))
        out = _reference_expand(
            cells, points, _record_index(cells, keys), seed, geometry, expansion, phase, log
        )
        # the routed cells' outcomes, from which segment reads the ground
        # points and counts the routes
        for i, _, reason in log.routes:
            grid.outcome[grid.find(i)] = Outcome.ROUTED + REASONS.index(reason)
        np.testing.assert_array_equal(grid.state, [c.ground_state for c in cells.values()])
        np.testing.assert_array_equal(np.flatnonzero(ground_mask(grid, len(points))), out)
        # the log segment records from those outcomes is the reference's own
        recorded = ExpansionLog()
        recorded.record(grid)
        assert recorded.routes == log.routes
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
        assert a.routes == b.routes
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
        for x0, z, kind in layout:
            c = grid.find(cell_index((x0 + 0.5, 0.5, z), grid.cellsize))
            no_plane = kind == "no_plane"
            grid.outcome[c] = Outcome.LINE_TENTATIVE if no_plane else Outcome.PLANAR_TENTATIVE
            span = grid.span(c)
            ids = np.sort(grid.order[span])
            if not no_plane:
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
        # the seed links both; the lower cell is routed non-ground in the
        # first pass, which the ambiguous cell reads
        (5.0, "ambiguous with non-ground cell below"),
        # only the ambiguous cell is within reach of the seed; the cell
        # below is reached through it, and its route counts all the same
        (1.01, "ambiguous with non-ground cell below"),
    ],
)
def test_ambiguous_cell_over_a_cell_rejected_earlier(radius, reason):
    points, make_grid, seed = _hand_built(COLUMN)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=radius), 1)
    assert _ambiguous_route(log, COLUMN) == reason


@pytest.mark.parametrize(
    "layout, radius, reason",
    [
        # the low no-plane neighbor is routed non-ground in the first pass,
        # so only the seed's height counts
        (
            [(0, 0.5, "ground"), (1, 0.1, "no_plane"), (2, 0.6, "ambiguous")],
            5.0,
            "ambiguous checks passed",
        ),
        # the low no-plane neighbor is reached only through the ambiguous
        # cell, and is routed non-ground all the same
        (
            [(0, 0.5, "ground"), (1, 0.6, "ambiguous"), (2, 0.1, "no_plane")],
            1.2,
            "ambiguous checks passed",
        ),
    ],
)
def test_ambiguous_cell_after_its_lowest_neighbor_was_rejected(layout, radius, reason):
    points, make_grid, seed = _hand_built(layout)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=radius), 1)
    assert _ambiguous_route(log, layout) == reason


def test_neighbor_over_the_gate_reached_through_another_cell_counts():
    # phase 2: the low cell at x = 3 is a radius neighbor of the ambiguous
    # cell but outside its height gate; the cell at x = 2 links it to the
    # seed, so it is reached and routed ground
    layout = [(0, 0.5, "ground"), (1, 0.6, "ambiguous"), (2, 0.35, "ground"), (3, 0.15, "ground")]
    points, make_grid, seed = _hand_built(layout)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=5.0), 2)
    assert _ambiguous_route(log, layout) == "ambiguous and elevated above lowest neighbor"
    assert len(log.routes) == 4


def test_lowest_neighbor_over_the_gate_counts_once_admitted_elsewhere():
    # phase 2: the low cell at x = 2 is 0.4 m below the seed and the
    # ambiguous cell, over the height gate of both, but the cell at x = 1
    # links it to them; it is then the ambiguous cell's lowest ground
    # neighbor, found only in the ungated rows
    layout = [(0, 0.5, "ground"), (1, 0.3, "ground"), (2, 0.1, "ground"), (3, 0.5, "ambiguous")]
    points, make_grid, seed = _hand_built(layout)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=5.0), 2)
    assert _ambiguous_route(log, layout) == "ambiguous and elevated above lowest neighbor"


def _count_calls(monkeypatch):
    """Count ``refine_reasons`` calls in ``expand``, by the cells of each."""
    calls = []
    refine_reasons = region_expansion.refine_reasons

    def counted(*args):
        calls.append(len(args[0]))
        return refine_reasons(*args)

    monkeypatch.setattr(region_expansion, "refine_reasons", counted)
    return calls


# A chain of ambiguous cells along x, the first 0.2 m above the seed and
# each next one 0.4 m above the one before.  Only the first has a ground
# neighbor, the seed; the others' neighbors are all ambiguous.
CHAIN = [(0, 0.0, "ground")] + [(x, 0.2 + 0.4 * (x - 1), "ambiguous") for x in range(1, 6)]


def _chain_start():
    points, make_grid, seed = _hand_built(CHAIN)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=1.2), 1)
    passed, alone = "ambiguous checks passed", "ambiguous with no ground neighbors"
    assert [r for _, _, r in log.routes] == ["no outliers", passed] + [alone] * 4
    return make_grid, ExpansionParams(search_radius=1.2), [idx for idx, _, _ in log.routes]


def _boxes_start():
    seeded, info = inject_synthetic_seed(
        gs.scene_cloud(gs.make_scene(SCENES["boxes-12"])),
        CFG.robot_radius,
        CFG.dist_to_ground,
        CFG.seed_spacing,
    )
    make_grid = _classified(seeded.points, CFG.phase1.cellsize)
    grid, log = make_grid(), ExpansionLog()
    index = build_centroid_index(grid, np.flatnonzero(grid.state == GroundState.TENTATIVE))
    expand(grid, index, select_seed(grid, info), GEO, CFG.expansion, phase=1)
    log.record(grid)
    reached = [idx for idx, _, _ in log.routes]
    spread = np.linspace(0, len(reached) - 1, 6).astype(int)  # six starts, the seed first
    return make_grid, CFG.expansion, [reached[k] for k in spread]


@pytest.mark.parametrize("start", [_chain_start, _boxes_start], ids=["chain", "boxes-12"])
def test_same_routes_from_any_reached_cell(monkeypatch, start):
    make_grid, params, seeds = start()
    calls = _count_calls(monkeypatch)
    outcomes = []
    for seed in seeds:
        grid, log = make_grid(), ExpansionLog()
        index = build_centroid_index(grid, np.flatnonzero(grid.state == GroundState.TENTATIVE))
        del calls[:]
        expand(grid, index, seed, GEO, params, phase=1)
        log.record(grid)
        # every tentative cell (both layouts reach them all), then the
        # reached ambiguous ones (both layouts have some) once more
        assert len(calls) == 2 and calls[0] == len(index.cell_ids) == len(log.routes) > calls[1]
        outcomes.append((grid.state.tolist(), log.routes))
    assert all(outcome == outcomes[0] for outcome in outcomes)


@pytest.mark.parametrize(
    "layout, phase",
    [
        # the only other cell lies beyond the search radius
        ([(0, 0.5, "ambiguous"), (9, 0.5, "ground")], 1),
        ([(0, 0.5, "ambiguous"), (9, 0.5, "ground")], 2),
        # a radius neighbor over the height gate, never reached
        ([(0, 0.5, "ambiguous"), (1, 0.1, "ground")], 2),
    ],
)
def test_ambiguous_seed_without_ground_neighbors(layout, phase):
    points, make_grid, seed = _hand_built(layout)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=5.0), phase)
    assert log.routes == [(seed, "non_ground", "ambiguous with no ground neighbors")]


def test_cells_past_a_gated_step_reached_by_a_long_link():
    # phase 2: the cell at x = 2 is 0.3 m above its row, over the gate of
    # both its row links; the cells past it are reached over it, by the
    # full search from the cells outside the seed's row-link component
    layout = [(x, 0.8 if x == 2 else 0.5, "ground") for x in range(5)]
    points, make_grid, seed = _hand_built(layout)
    log = _expand_both(make_grid, points, seed, ExpansionParams(search_radius=5.0), 2)
    assert [idx[0] for idx, _, _ in log.routes] == [0, 1, 3, 4]


class _CountingIndex(CentroidIndex):
    """A centroid index that counts its ``pairs`` calls."""

    calls = 0

    def pairs(self, radius, fresh=None):
        assert fresh is not None, "expand searches only from flagged cells"
        self.calls += 1
        return super().pairs(radius, fresh)


@pytest.mark.parametrize(
    "layout, searches",
    [
        # the cell at x = 9 is outside the seed's row-link component, and
        # the one at x = 1 is ambiguous: one search serves both
        ([(0, 0.5, "ground"), (1, 0.6, "ambiguous"), (9, 0.5, "ground")], 1),
        # only an ambiguous cell, or only a cell outside
        ([(0, 0.5, "ground"), (1, 0.6, "ambiguous"), (2, 0.5, "ground")], 1),
        ([(0, 0.5, "ground"), (1, 0.5, "ground"), (9, 0.5, "ground")], 1),
        # neither: the row links reach every cell, and none is ambiguous
        ([(0, 0.5, "ground"), (1, 0.5, "ground"), (2, 0.5, "ground")], 0),
    ],
)
@pytest.mark.parametrize("phase", [1, 2])
@pytest.mark.parametrize("logged", [False, True], ids=["unlogged", "logged"])
def test_one_neighbor_search_per_expansion(layout, searches, phase, logged):
    points, make_grid, seed = _hand_built(layout)
    params = ExpansionParams(search_radius=5.0)
    want = _expand_both(make_grid, points, seed, params, phase).routes
    grid = make_grid()
    tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
    index = _CountingIndex(tentative, grid.centroids[tentative])
    expand(grid, index, seed, GEO, params, phase=phase)
    assert index.calls == searches
    if logged:
        log = ExpansionLog()
        log.record(grid)
        assert log.routes == want


@pytest.mark.parametrize("name", PAIR_SCENES)
def test_logged_and_unlogged_segment_agree(name):
    # a log must not steer reach or routes
    cloud = gs.scene_cloud(gs.make_scene(PAIR_SCENES[name]))
    plain = segment(cloud)
    logs = ExpansionLog(), ExpansionLog()
    logged = segment(cloud, log1=logs[0], log2=logs[1])
    assert plain.mask.tobytes() == logged.mask.tobytes()
    for phase, log in zip(("phase1", "phase2"), logs):
        got, want = getattr(logged.stats, phase).as_dict(), getattr(plain.stats, phase).as_dict()
        for timing in ("runtime_ms", "stages_ms"):
            got.pop(timing), want.pop(timing)
        assert got == want
        reasons = [reason for _, _, reason in log.routes]
        assert {r: reasons.count(r) for r in REASONS} == want["routes"]


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
    seeded = SeededCloud(seeded, info)
    r1 = run_phase(seeded, CFG)
    ground1 = ground_mask(r1.grid, n)  # Phase II drops Phase I's grid
    r2 = run_phase(seeded, CFG, parent=r1)
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
