import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridseg.cell_geometry import GeometryParams, PlaneModel
from gridseg.cloud_io import PointCloud, SyntheticSeedInfo, inject_synthetic_seed
from gridseg.errors import ConfigError, ContractViolationError
from gridseg.pipeline import classify_cells
from gridseg.region_expansion import (
    CentroidIndex,
    ExpansionLog,
    ExpansionParams,
    build_centroid_index,
    cell_heights,
    expand,
    refine_cell,
    select_seed,
)
from gridseg.region_expansion import _breadth_first, _neighbor_graph
from gridseg.voxel_grid import (
    CellSize,
    GroundState,
    build_grid,
    cell_index,
    occupied_below,
)

GEO = GeometryParams()


def _classified_grid(points, cellsize, phase=1, seed=0):
    grid = build_grid(points, cellsize)
    classify_cells(grid, GEO, phase, seed)
    return grid


def _tentative_index(grid):
    return build_centroid_index(grid, np.flatnonzero(grid.state == GroundState.TENTATIVE))


def _flat_cloud_with_seed(rng, extent=16.0, n=4000):
    xy = rng.uniform(-extent / 2, extent / 2, size=(n, 2))
    z = -1.723 + rng.normal(0, 0.01, n)
    cloud = PointCloud(points=np.column_stack([xy, z]))
    seeded, info = inject_synthetic_seed(cloud, 2.7, 1.723, 0.3)
    return seeded.points, info


class TestCentroidIndex:
    def test_empty_index(self):
        index = build_centroid_index(build_grid(np.zeros((0, 3)), CellSize(1, 1, 1)), [])
        assert index.query([0, 0, 0], 10.0) == []

    def test_radius_zero_includes_exact_match(self):
        grid = build_grid(np.array([[1.0, 2.0, 3.0], [9.0, 9.0, 9.0]]), CellSize(1, 1, 1))
        index = build_centroid_index(grid, [0])
        assert index.query([1.0, 2.0, 3.0], 0.0) == [0]
        assert tuple(grid.cells[0].tolist()) == (1, 2, 3)

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
        indptr, indices = _neighbor_graph(index, 6.0)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        i, j = index.pairs(6.0)
        want = np.unique(np.concatenate([np.stack([i, j]), np.stack([j, i])], axis=1), axis=1)
        assert len(rows) > 0
        # np.unique sorts row-major, so this also checks the order within rows
        np.testing.assert_array_equal(np.stack([rows, indices]), want)

    def test_empty_and_single_cell_have_no_pairs(self):
        empty = CentroidIndex(np.empty(0, np.int64), np.empty((0, 3)))
        assert [len(a) for a in empty.pairs(5.0)] == [0, 0]
        one = CentroidIndex([(0, 0, 0)], np.zeros((1, 3)))
        assert [len(a) for a in one.pairs(5.0)] == [0, 0]


class TestBreadthFirst:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_breadth_first_order(self, seed):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        # directed, with self loops and, at low degree, unreached nodes
        adjacency = rng.random((n, n)) < rng.uniform(0.2, 6.0) / n
        if seed % 2:
            adjacency |= adjacency.T
        graph = csr_matrix(adjacency.astype(float))
        source = int(rng.integers(n))
        want_order, want_pred = breadth_first_order(
            graph, source, directed=True, return_predecessors=True
        )
        order, pred = _breadth_first(graph.indptr, graph.indices, source)
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_array_equal(pred, np.where(want_pred < 0, -1, want_pred))

    def test_import_leaves_csgraph_out(self):
        import gridseg

        env = dict(os.environ, PYTHONPATH=str(Path(gridseg.__file__).parents[1]))
        code = "import sys, gridseg; print('scipy.sparse.csgraph' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "False"


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


def _fit_cell(grid, idx, plane, inlier_ids):
    """Give cell ``idx`` a plane fit whose inliers are the given point ids."""
    c = grid.find(idx)
    grid.normals[c], grid.plane_offsets[c] = plane.normal, plane.offset
    grid.slopes[c] = plane.slope_deg
    span = grid.span(c)
    grid.inliers[span] = np.isin(grid.order[span], list(inlier_ids))
    return c


class TestCellHeights:
    """A cell's height is the mean z of its inliers, summed as ``mean`` sums."""

    @staticmethod
    def _grid(rng, inlier_counts):
        # cell c spans x in [c, c + 1) and holds inlier_counts[c] inliers
        # among twice as many points, at z far enough apart to round
        n = 2 * np.asarray(inlier_counts)
        points = np.column_stack(
            [
                np.repeat(np.arange(len(n)), n) + rng.uniform(0, 1, n.sum()),
                rng.uniform(0, 1, n.sum()),
                rng.normal(-1.7, 0.3, n.sum()),
            ]
        )
        grid = build_grid(points, CellSize(1.0, 1.0, 10.0))
        grid.slopes[:] = 0.0
        for c, k in enumerate(inlier_counts):
            span = grid.span(c)
            grid.inliers[span] = rng.permutation(2 * k) < k
        return points, grid

    def _check_means(self, rng, inlier_counts):
        points, grid = self._grid(rng, inlier_counts)
        rows = np.arange(len(inlier_counts))[::-1]
        want = [
            points[grid.order[grid.span(c)][grid.inliers[grid.span(c)]], 2].mean() for c in rows
        ]
        assert cell_heights(grid, rows).tolist() == want

    def test_fitted_cell_without_inliers_takes_centroid_z(self, rng):
        _, grid = self._grid(rng, [4, 5, 6])
        grid.inliers[grid.span(1)] = False
        heights = cell_heights(grid, [0, 1, 2])
        assert heights[1] == grid.centroids[1, 2]
        assert heights[0] != grid.centroids[0, 2] and heights[2] != grid.centroids[2, 2]
        assert len(cell_heights(grid, [])) == 0

    def test_up_to_eight_inliers_equal_mean(self, rng):
        for _ in range(20):
            self._check_means(rng, list(range(1, 9)))

    def test_more_inliers_equal_mean(self, rng):
        # numpy's pairwise summation changes its grouping at 8 and 128
        # values; the heights keep to it to the bit
        self._check_means(rng, [9, 15, 16, 17, 100, 128, 129, 257, 1000, 5000])


class TestRefineCell:
    """Branch coverage for the five-step refinement on hand-built cells."""

    def setup_method(self):
        self.exp = ExpansionParams(phase=1)
        # dense flat patch (ids 0..99) + sparse elevated blob (ids 100..104)
        rng = np.random.default_rng(7)
        self.dense = np.column_stack(
            [rng.uniform(0, 1, (100, 2)), rng.normal(0, 0.005, 100)]
        )
        sparse = np.array(
            [[0, 0, 2.0], [2, 0, 2.1], [0, 2, 2.2], [2, 2, 2.3], [1, 1, 2.4]]
        )
        self.points = np.vstack([self.dense, sparse])
        self.plane = PlaneModel(normal=np.array([0, 0, 1.0]), offset=0.0, slope_deg=0.0)
        self.grid = build_grid(self.points, CellSize(10, 10, 10))

    def _refine(self, inlier_ids=None, neighbors=()):
        c = self.grid.find((0, 0, 0))
        if inlier_ids is not None:
            _fit_cell(self.grid, (0, 0, 0), self.plane, inlier_ids)
        return refine_cell(c, self.grid, neighbors, GEO, self.exp)

    def test_unambiguous_routes_ground(self):
        ok, reason = self._refine(inlier_ids=range(100))
        assert ok and reason == "sparsity unambiguous"

    def test_empty_outliers_routes_ground(self):
        ok, _ = self._refine(inlier_ids=range(105))
        assert ok

    def test_missing_plane_routes_non_ground(self):
        ok, reason = self._refine()
        assert not ok and reason == "no plane fit"

    def test_empty_inliers_routes_non_ground(self):
        ok, reason = self._refine(inlier_ids=[])
        assert not ok and reason == "no ground inliers"

    def _ambiguous(self, neighbor):
        # split the dense patch in two: both halves score LOW sparsity; the
        # neighbor is one point in a cell of another column
        self.points = np.vstack([self.dense, [neighbor]])
        self.grid = build_grid(self.points, CellSize(10, 10, 10))
        nb = self.grid.find(cell_index(neighbor, self.grid.cellsize))
        return self._refine(inlier_ids=range(50), neighbors=[nb])

    def test_ambiguous_without_neighbors_rejects(self):
        self.points = self.dense
        self.grid = build_grid(self.points, CellSize(10, 10, 10))
        ok, reason = self._refine(inlier_ids=range(50))
        assert not ok and "no ground neighbors" in reason

    def test_ambiguous_elevated_above_lowest_neighbor_rejects(self):
        # 0.3 m threshold: inlier height ~0 vs lowest neighbor at -1.7 -> 1.7 > 0.3
        ok, reason = self._ambiguous([95.0, 95.0, -1.7])
        assert not ok and "elevated" in reason

    def test_ambiguous_with_consistent_neighbor_passes(self):
        ok, _ = self._ambiguous([95.0, 95.0, 0.1])
        assert ok

    def test_ambiguous_with_non_ground_below_rejects(self):
        # build a two-storey column: non-ground blob below the queried cell
        pts = np.vstack(
            [
                self.points[:100] + [0, 0, 10.0],  # queried cell at iz=1
                self.points[100:105] - [0, 0, 0.0],  # blob at iz=0
                [[55.0, 5.0, 10.05]],  # a ground neighbor in another column
            ]
        )
        grid = build_grid(pts, CellSize(10, 10, 10))
        grid.state[grid.find((0, 0, 0))] = GroundState.NON_GROUND
        cell = _fit_cell(grid, (0, 0, 1), self.plane, range(50))
        grid.state[cell] = GroundState.TENTATIVE
        nb = grid.find((5, 0, 1))
        ok, reason = refine_cell(cell, grid, [nb], GEO, ExpansionParams(phase=1))
        assert not ok and "below" in reason


class TestExpand:
    def test_single_tentative_cell(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=1.0, n=60)
        grid = _classified_grid(pts, CellSize(10.0, 10.0, 10.0))
        index = _tentative_index(grid)
        seed = select_seed(grid, info)
        ground, nonground = expand(
            grid, index, seed, GEO, ExpansionParams(phase=1)
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
        tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
        assert len(tentative) == 2
        gap = np.linalg.norm(grid.centroids[tentative[0]] - grid.centroids[tentative[1]])
        assert gap > 5.0
        index = build_centroid_index(grid, tentative)
        seed = cell_index((1.0, 1.0, 0.0), grid.cellsize)
        ground, _ = expand(grid, index, seed, GEO, ExpansionParams(search_radius=5.0, phase=1))
        far_ids = set(range(200, 400))
        assert far_ids.isdisjoint(ground.tolist())

    def test_seed_not_tentative_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=2.0, n=100)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        seed = select_seed(grid, info)
        grid.state[grid.find(seed)] = GroundState.NON_GROUND
        index = build_centroid_index(grid, [])
        with pytest.raises(ContractViolationError):
            expand(grid, index, seed, GEO, ExpansionParams(phase=1))

    def test_index_out_of_cell_order_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=6.0, n=600)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
        index = build_centroid_index(grid, tentative[::-1])
        with pytest.raises(ContractViolationError, match="ascending"):
            expand(grid, index, select_seed(grid, info), GEO, ExpansionParams(phase=1))

    def test_index_with_non_tentative_cell_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=6.0, n=600)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        seed = select_seed(grid, info)
        other = 0 if grid.find(seed) != 0 else 1
        grid.state[other] = GroundState.OBSTACLE
        index = build_centroid_index(grid, np.arange(len(grid.cells)))
        with pytest.raises(ContractViolationError, match="must be tentative"):
            expand(grid, index, seed, GEO, ExpansionParams(phase=1))
        assert grid.state[other] == GroundState.OBSTACLE

    def test_flat_plane_fully_expanded_matches_flood_fill(self, rng, brute_index_cls):
        pts, info = _flat_cloud_with_seed(rng, extent=16.0, n=4000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
        index = build_centroid_index(grid, tentative)
        seed = select_seed(grid, info)
        log = ExpansionLog()
        params = ExpansionParams(search_radius=5.0, phase=1)
        ground, _ = expand(grid, index, seed, GEO, params, log=log)

        # connectivity oracle: flood fill over the brute-force r-neighborhood graph
        centroids = grid.centroids[tentative]
        ids = [tuple(idx) for idx in grid.cells[tentative].tolist()]
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
            tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
            if index_cls is None:
                index = build_centroid_index(grid, tentative)
            else:
                index = index_cls(tentative, grid.centroids[tentative])
            seed = select_seed(grid, info)
            ground, _ = expand(grid, index, seed, GEO, ExpansionParams(phase=2))
            results.append(ground)
        np.testing.assert_array_equal(results[0], results[1])

    def test_phase2_height_gate_logged_edges(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=12.0, n=3000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2), phase=2)
        index = _tentative_index(grid)
        seed = select_seed(grid, info)
        log = ExpansionLog()
        params = ExpansionParams(phase=2)
        expand(grid, index, seed, GEO, params, log=log)
        assert log.edges, "expansion should traverse at least one edge"
        for _, _, dz in log.edges:
            assert dz <= params.height_gate
        text = log.to_text()
        assert "EDGE" in text and "ROUTE" in text

    def test_no_cell_processed_twice(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=10.0, n=2000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        index = _tentative_index(grid)
        log = ExpansionLog()
        expand(grid, index, select_seed(grid, info), GEO, ExpansionParams(phase=1), log=log)
        routed = [idx for idx, _, _ in log.routes]
        assert len(routed) == len(set(routed))
        assert len(routed) <= len(grid.cells)

    def test_floating_rejection_post_hoc(self, rng):
        # no ambiguous cell routed ground may sit above a non-ground cell;
        # recheck with a brute-force column scan over the final states
        import gridseg as gs

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
        index = _tentative_index(grid)
        log = ExpansionLog()
        expand(grid, index, select_seed(grid, info), GEO, ExpansionParams(phase=1), log=log)

        ambiguous_ground = {
            idx for idx, route, reason in log.routes
            if route == "ground" and reason == "ambiguous checks passed"
        }
        cells = grid.cells.tolist()
        for idx in ambiguous_ground:
            candidates = [
                other for other in cells if other[:2] == list(idx[:2]) and other[2] < idx[2]
            ]
            if candidates:
                nearest = cells.index(max(candidates, key=lambda t: t[2]))
                assert grid.state[nearest] not in (
                    GroundState.NON_GROUND,
                    GroundState.OBSTACLE,
                )
                assert occupied_below(grid)[grid.find(idx)] == nearest

    def test_outputs_disjoint_partition(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=10.0, n=2000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        index = _tentative_index(grid)
        ground, nonground = expand(
            grid, index, select_seed(grid, info), GEO, ExpansionParams(phase=1)
        )
        g, n = set(ground.tolist()), set(nonground.tolist())
        assert g.isdisjoint(n)
        unreached = set(range(len(pts))) - g - n
        # unreached points all belong to cells that were never dequeued
        for c in range(len(grid.cells)):
            cell_ids = set(grid.order[grid.span(c)].tolist())
            assert cell_ids <= g | n or cell_ids <= unreached | n
