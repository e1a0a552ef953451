import numpy as np
import pytest

from gridseg.cell_geometry import GeometryParams, make_plane
from gridseg.cloud_io import PointCloud, SyntheticSeedInfo, inject_synthetic_seed
from gridseg.errors import ConfigError, ContractViolationError
from gridseg.pipeline import classify_cells
from gridseg.region_expansion import (
    CentroidIndex,
    ExpansionLog,
    ExpansionParams,
    build_centroid_index,
    expand,
    refine_cell,
    select_seed,
)
from gridseg.region_expansion import _neighbor_graph
from gridseg.voxel_grid import (
    CellSize,
    GridCell,
    GroundState,
    build_grid,
    cell_index,
)

GEO = GeometryParams()


def _classified_grid(points, cellsize, phase=1, seed=0):
    grid = build_grid(points, cellsize)
    classify_cells(grid, points, GEO, phase, seed)
    return grid


def _flat_cloud_with_seed(rng, extent=16.0, n=4000):
    xy = rng.uniform(-extent / 2, extent / 2, size=(n, 2))
    z = -1.723 + rng.normal(0, 0.01, n)
    cloud = PointCloud(points=np.column_stack([xy, z]))
    seeded, info = inject_synthetic_seed(cloud, 2.7, 1.723, 0.3)
    return seeded.points, info


class TestCentroidIndex:
    def test_empty_index(self):
        index = build_centroid_index([])
        assert index.query([0, 0, 0], 10.0) == []

    def test_radius_zero_includes_exact_match(self):
        cell = GridCell(
            index=(1, 2, 3),
            point_ids=np.array([0]),
            canon_ids=np.array([0]),
            centroid=np.array([1.0, 2.0, 3.0]),
            ground_state=GroundState.TENTATIVE,
        )
        index = build_centroid_index([cell])
        assert index.query([1.0, 2.0, 3.0], 0.0) == [(1, 2, 3)]

    def test_matches_brute_force_scan(self, rng, brute_index_cls):
        centroids = rng.uniform(-50, 50, size=(1000, 3))
        ids = [(i, 0, 0) for i in range(1000)]
        kd = CentroidIndex(ids, centroids)
        brute = brute_index_cls(ids, centroids)
        for _ in range(100):
            center = rng.uniform(-55, 55, size=3)
            radius = rng.uniform(0.1, 20.0)
            assert kd.query(center, radius) == brute.query(center, radius)

    def test_pairs_match_brute_force(self, rng, brute_index_cls):
        centroids = rng.uniform(-20, 20, size=(400, 3))
        ids = [(i, 0, 0) for i in range(400)]
        kd = CentroidIndex(ids, centroids)
        brute = brute_index_cls(ids, centroids)
        for radius in (1.5, 3.0, 8.0):
            i, j = kd.pairs(radius)
            assert (i < j).all()
            got = sorted(zip(i.tolist(), j.tolist()))
            assert got == sorted(zip(*(a.tolist() for a in brute.pairs(radius))))
            assert len(got) > 0

    def test_neighbor_graph_is_symmetric_with_sorted_rows(self, rng):
        n = 2000
        centroids = rng.uniform(0, 40 * n ** (1 / 3), size=(n, 3))
        index = CentroidIndex([(k, 0, 0) for k in range(n)], centroids)
        graph = _neighbor_graph(index, 6.0)
        rows = np.repeat(np.arange(n), np.diff(graph.indptr))
        i, j = index.pairs(6.0)
        want = np.unique(np.concatenate([np.stack([i, j]), np.stack([j, i])], axis=1), axis=1)
        assert len(rows) > 0
        # np.unique sorts row-major, so this also checks the order within rows
        np.testing.assert_array_equal(np.stack([rows, graph.indices]), want)

    def test_empty_and_single_cell_have_no_pairs(self):
        assert [len(a) for a in build_centroid_index([]).pairs(5.0)] == [0, 0]
        one = CentroidIndex([(0, 0, 0)], np.zeros((1, 3)))
        assert [len(a) for a in one.pairs(5.0)] == [0, 0]


class TestSelectSeed:
    def test_phase2_cell_height(self, rng):
        pts, info = _flat_cloud_with_seed(rng)
        grid = build_grid(pts, CellSize(1.5, 1.0, 0.2))
        assert select_seed(grid, info) == (0, 0, -9)

    def test_phase1_cell_height(self, rng):
        pts, info = _flat_cloud_with_seed(rng)
        grid = build_grid(pts, CellSize(1.5, 1.0, 1.5))
        assert select_seed(grid, info) == (0, 0, -2)

    def test_injection_disabled(self, rng):
        pts, _ = _flat_cloud_with_seed(rng)
        grid = build_grid(pts, CellSize(1.5, 1.0, 0.2))
        with pytest.raises(ConfigError):
            select_seed(grid, None)
        empty = SyntheticSeedInfo(count=0, radius=0, depth=1.723, spacing=0.3)
        with pytest.raises(ConfigError):
            select_seed(grid, empty)


def _make_cell(points, idx, all_points, plane=None, inlier_ids=None, outlier_ids=None):
    ids = np.asarray(points, dtype=np.int64)
    return GridCell(
        index=idx,
        point_ids=np.sort(ids),
        canon_ids=ids,
        centroid=all_points[ids].mean(axis=0),
        ground_state=GroundState.TENTATIVE,
        plane=plane,
        inlier_ids=None if inlier_ids is None else np.asarray(inlier_ids),
        outlier_ids=None if outlier_ids is None else np.asarray(outlier_ids),
    )


class TestRefineCell:
    """Branch coverage for the five-step refinement on hand-built cells."""

    def setup_method(self):
        self.exp = ExpansionParams(phase=1)
        # dense flat patch (ids 0..99) + sparse elevated blob (ids 100..104)
        rng = np.random.default_rng(7)
        dense = np.column_stack(
            [rng.uniform(0, 1, (100, 2)), rng.normal(0, 0.005, 100)]
        )
        sparse = np.array(
            [[0, 0, 2.0], [2, 0, 2.1], [0, 2, 2.2], [2, 2, 2.3], [1, 1, 2.4]]
        )
        self.points = np.vstack([dense, sparse])
        self.plane = make_plane([0, 0, 1.0], 0.0)
        self.grid = build_grid(self.points, CellSize(10, 10, 10))

    def test_unambiguous_routes_ground(self):
        cell = _make_cell(
            range(105),
            (0, 0, 0),
            self.points,
            plane=self.plane,
            inlier_ids=range(100),
            outlier_ids=range(100, 105),
        )
        ok, reason = refine_cell(cell, self.grid, self.points, [], GEO, self.exp)
        assert ok and reason == "sparsity unambiguous"

    def test_empty_outliers_routes_ground(self):
        cell = _make_cell(
            range(100),
            (0, 0, 0),
            self.points,
            plane=self.plane,
            inlier_ids=range(100),
            outlier_ids=[],
        )
        ok, _ = refine_cell(cell, self.grid, self.points, [], GEO, self.exp)
        assert ok

    def test_missing_plane_routes_non_ground(self):
        cell = _make_cell(range(100), (0, 0, 0), self.points)
        ok, reason = refine_cell(cell, self.grid, self.points, [], GEO, self.exp)
        assert not ok and reason == "no plane fit"

    def test_empty_inliers_routes_non_ground(self):
        cell = _make_cell(
            range(100),
            (0, 0, 0),
            self.points,
            plane=self.plane,
            inlier_ids=[],
            outlier_ids=range(100),
        )
        ok, reason = refine_cell(cell, self.grid, self.points, [], GEO, self.exp)
        assert not ok and reason == "no ground inliers"

    def _ambiguous_cell(self):
        # split the dense patch in two: both halves score LOW sparsity
        return _make_cell(
            range(100),
            (0, 0, 0),
            self.points,
            plane=self.plane,
            inlier_ids=range(50),
            outlier_ids=range(50, 100),
        )

    def test_ambiguous_without_neighbors_rejects(self):
        cell = self._ambiguous_cell()
        ok, reason = refine_cell(cell, self.grid, self.points, [], GEO, self.exp)
        assert not ok and "no ground neighbors" in reason

    def test_ambiguous_elevated_above_lowest_neighbor_rejects(self):
        # 0.3 m threshold: inlier height ~0 vs lowest neighbor at -1.7 -> 1.7 > 0.3
        cell = self._ambiguous_cell()
        nb_pts = np.array([[5.0, 5.0, -1.7]])
        nb = GridCell(
            index=(9, 9, -1),
            point_ids=np.array([0]),
            canon_ids=np.array([0]),
            centroid=nb_pts[0],
            ground_state=GroundState.GROUND,
        )
        ok, reason = refine_cell(cell, self.grid, self.points, [nb], GEO, self.exp)
        assert not ok and "elevated" in reason

    def test_ambiguous_with_consistent_neighbor_passes(self):
        cell = self._ambiguous_cell()
        nb = GridCell(
            index=(9, 9, 0),
            point_ids=np.array([0]),
            canon_ids=np.array([0]),
            centroid=np.array([5.0, 5.0, 0.1]),
            ground_state=GroundState.GROUND,
        )
        ok, _ = refine_cell(cell, self.grid, self.points, [nb], GEO, self.exp)
        assert ok

    def test_ambiguous_with_non_ground_below_rejects(self):
        # build a two-storey column: non-ground blob below the queried cell
        pts = np.vstack(
            [
                self.points[:100] + [0, 0, 10.0],  # queried cell at iz=1
                self.points[100:105] - [0, 0, 0.0],  # blob at iz=0
            ]
        )
        grid = build_grid(pts, CellSize(10, 10, 10))
        grid.cells[(0, 0, 0)].ground_state = GroundState.NON_GROUND
        cell = grid.cells[(0, 0, 1)]
        cell.plane = self.plane
        cell.inlier_ids = np.arange(50)
        cell.outlier_ids = np.arange(50, 100)
        cell.ground_state = GroundState.TENTATIVE
        nb = GridCell(
            index=(5, 5, 1),
            point_ids=np.array([0]),
            canon_ids=np.array([0]),
            centroid=np.array([55.0, 5.0, 10.05]),
            ground_state=GroundState.GROUND,
        )
        ok, reason = refine_cell(cell, grid, pts, [nb], GEO, ExpansionParams(phase=1))
        assert not ok and "below" in reason


class TestExpand:
    def test_single_tentative_cell(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=1.0, n=60)
        grid = _classified_grid(pts, CellSize(10.0, 10.0, 10.0))
        tentative = [c for c in grid.cells.values() if c.ground_state is GroundState.TENTATIVE]
        index = build_centroid_index(tentative)
        seed = select_seed(grid, info)
        ground, nonground = expand(
            grid, pts, index, seed, GEO, ExpansionParams(phase=1)
        )
        assert len(ground) + len(nonground) == len(pts)
        assert len(nonground) == 0

    def test_out_of_radius_cell_never_expanded(self, rng):
        # two single-cell flat patches with centroids 6 m apart and r = 5:
        # the far one stays unreached and its points end up non-ground
        near = np.column_stack(
            [rng.uniform(0.1, 1.9, (200, 2)), 1.0 + rng.normal(0, 0.005, 200)]
        )
        far = near + [6.0, 0.0, 0.0]
        pts = np.vstack([near, far])
        grid = _classified_grid(pts, CellSize(2.0, 2.0, 2.0))
        tentative = [c for c in grid.cells.values() if c.ground_state is GroundState.TENTATIVE]
        assert len(tentative) == 2
        gap = np.linalg.norm(tentative[0].centroid - tentative[1].centroid)
        assert gap > 5.0
        index = build_centroid_index(tentative)
        seed = cell_index((1.0, 1.0, 0.0), grid.cellsize)
        ground, _ = expand(grid, pts, index, seed, GEO, ExpansionParams(search_radius=5.0, phase=1))
        far_ids = set(range(200, 400))
        assert far_ids.isdisjoint(ground.tolist())

    def test_seed_not_tentative_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=2.0, n=100)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        seed = select_seed(grid, info)
        grid.cells[seed].ground_state = GroundState.NON_GROUND
        index = build_centroid_index([])
        with pytest.raises(ContractViolationError):
            expand(grid, pts, index, seed, GEO, ExpansionParams(phase=1))

    def test_index_out_of_cell_order_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=6.0, n=600)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        tentative = [c for c in grid.cells.values() if c.ground_state is GroundState.TENTATIVE]
        index = build_centroid_index(tentative[::-1])
        with pytest.raises(ContractViolationError, match="ascending"):
            expand(grid, pts, index, select_seed(grid, info), GEO, ExpansionParams(phase=1))

    def test_index_with_non_tentative_cell_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=6.0, n=600)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        seed = select_seed(grid, info)
        other = next(k for k, c in grid.cells.items() if k != seed)
        grid.cells[other].ground_state = GroundState.OBSTACLE
        index = build_centroid_index(grid.cells.values())
        with pytest.raises(ContractViolationError, match="must be tentative"):
            expand(grid, pts, index, seed, GEO, ExpansionParams(phase=1))
        assert grid.cells[other].ground_state is GroundState.OBSTACLE

    def test_flat_plane_fully_expanded_matches_flood_fill(self, rng, brute_index_cls):
        pts, info = _flat_cloud_with_seed(rng, extent=16.0, n=4000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        tentative = sorted(
            (c for c in grid.cells.values() if c.ground_state is GroundState.TENTATIVE),
            key=lambda c: c.index,
        )
        index = build_centroid_index(tentative)
        seed = select_seed(grid, info)
        log = ExpansionLog()
        params = ExpansionParams(search_radius=5.0, phase=1)
        ground, _ = expand(grid, pts, index, seed, GEO, params, log=log)

        # connectivity oracle: flood fill over the brute-force r-neighborhood graph
        centroids = np.vstack([c.centroid for c in tentative])
        ids = [c.index for c in tentative]
        pos = {cid: k for k, cid in enumerate(ids)}
        reach = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for cid in frontier:
                d2 = ((centroids - centroids[pos[cid]]) ** 2).sum(axis=1)
                for k in np.flatnonzero(d2 <= params.search_radius**2):
                    if ids[k] not in reach:
                        reach.add(ids[k])
                        nxt.append(ids[k])
            frontier = nxt
        dequeued = {idx for idx, _, _ in log.routes}
        assert dequeued == reach
        # on this flat scene every tentative cell is reached and routed ground
        assert len(reach) == len(tentative)
        assert len(ground) == len(pts)

    def test_kdtree_equals_brute_force_expansion(self, rng, brute_index_cls):
        pts, info = _flat_cloud_with_seed(rng, extent=12.0, n=3000)
        results = []
        for index_cls in (None, brute_index_cls):
            grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2), phase=2)
            tentative = sorted(
                (c for c in grid.cells.values() if c.ground_state is GroundState.TENTATIVE),
                key=lambda c: c.index,
            )
            if index_cls is None:
                index = build_centroid_index(tentative)
            else:
                index = index_cls([c.index for c in tentative], [c.centroid for c in tentative])
            seed = select_seed(grid, info)
            ground, _ = expand(grid, pts, index, seed, GEO, ExpansionParams(phase=2))
            results.append(ground)
        np.testing.assert_array_equal(results[0], results[1])

    def test_phase2_height_gate_logged_edges(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=12.0, n=3000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2), phase=2)
        tentative = [c for c in grid.cells.values() if c.ground_state is GroundState.TENTATIVE]
        index = build_centroid_index(tentative)
        seed = select_seed(grid, info)
        log = ExpansionLog()
        params = ExpansionParams(phase=2)
        expand(grid, pts, index, seed, GEO, params, log=log)
        assert log.edges, "expansion should traverse at least one edge"
        for _, _, dz in log.edges:
            assert dz <= params.height_gate
        text = log.to_text()
        assert "EDGE" in text and "ROUTE" in text

    def test_no_cell_processed_twice(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=10.0, n=2000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        tentative = [c for c in grid.cells.values() if c.ground_state is GroundState.TENTATIVE]
        index = build_centroid_index(tentative)
        log = ExpansionLog()
        expand(grid, pts, index, select_seed(grid, info), GEO, ExpansionParams(phase=1), log=log)
        routed = [idx for idx, _, _ in log.routes]
        assert len(routed) == len(set(routed))
        assert len(routed) <= len(grid.cells)

    def test_floating_rejection_post_hoc(self, rng):
        # no ambiguous cell routed ground may sit above a non-ground cell;
        # recheck with a brute-force column scan over the final states
        import gridseg as gs
        from gridseg.voxel_grid import occupied_below

        scene = gs.make_scene(
            gs.SceneSpec(
                extent=16.0,
                n_ground=6000,
                boxes=(gs.BoxSpec(4.0, -3.0, 1.5, 1.5, 1.0),),
                seed=19,
            )
        )
        seeded, info = inject_synthetic_seed(gs.scene_cloud(scene), 2.7, 1.723, 0.3)
        pts = seeded.points
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        tentative = [c for c in grid.cells.values() if c.ground_state is GroundState.TENTATIVE]
        index = build_centroid_index(tentative)
        log = ExpansionLog()
        expand(grid, pts, index, select_seed(grid, info), GEO, ExpansionParams(phase=1), log=log)

        ambiguous_ground = {
            idx for idx, route, reason in log.routes
            if route == "ground" and reason == "ambiguous checks passed"
        }
        for idx in ambiguous_ground:
            candidates = [
                other for other in grid.cells if other[:2] == idx[:2] and other[2] < idx[2]
            ]
            if candidates:
                nearest = grid.cells[max(candidates, key=lambda t: t[2])]
                assert nearest.ground_state not in (
                    GroundState.NON_GROUND,
                    GroundState.OBSTACLE,
                )
                assert occupied_below(grid, idx).index == nearest.index

    def test_outputs_disjoint_partition(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=10.0, n=2000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        tentative = [c for c in grid.cells.values() if c.ground_state is GroundState.TENTATIVE]
        index = build_centroid_index(tentative)
        ground, nonground = expand(
            grid, pts, index, select_seed(grid, info), GEO, ExpansionParams(phase=1)
        )
        g, n = set(ground.tolist()), set(nonground.tolist())
        assert g.isdisjoint(n)
        unreached = set(range(len(pts))) - g - n
        # unreached points all belong to cells that were never dequeued
        for idx, cell in grid.cells.items():
            cell_ids = set(cell.point_ids.tolist())
            assert cell_ids <= g | n or cell_ids <= unreached | n
