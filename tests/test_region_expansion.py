import dataclasses
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from conftest import BruteForceIndex
from hypothesis import given
from hypothesis import strategies as st
from test_expansion_exactness import SCENES

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


def _classified_grid(points, cellsize):
    grid = build_grid(points, cellsize)
    classify_cells(grid, GEO)
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
        assert [len(a) for a in index.pairs(10.0)] == [0, 0]

    def test_radius_zero_includes_exact_match(self):
        centroids = np.array([[1.0, 2.0, 3.0], [9.0, 9.0, 9.0], [1.0, 2.0, 3.0]])
        i, j = CentroidIndex(np.arange(3), centroids).pairs(0.0)
        assert (i.tolist(), j.tolist()) == ([0], [2])

    def test_matches_brute_force_scan(self, rng, brute_index_cls):
        # the tentative cells of a scan, at the expansion radius
        pts, _ = _flat_cloud_with_seed(rng, extent=30.0, n=6000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2))
        tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
        kd = _tentative_index(grid)
        brute = brute_index_cls(tentative, grid.centroids[tentative])
        got = sorted(zip(*(a.tolist() for a in kd.pairs(5.0))))
        assert len(got) > len(tentative)
        assert got == sorted(zip(*(a.tolist() for a in brute.pairs(5.0))))

    def test_pairs_match_brute_force(self, rng, brute_index_cls):
        centroids = rng.uniform(-20, 20, size=(400, 3))
        kd = CentroidIndex(np.arange(400), centroids)
        brute = brute_index_cls(range(400), centroids)
        for radius in (1.5, 3.0, 8.0):
            i, j = kd.pairs(radius)
            assert (i < j).all()
            got = sorted(zip(i.tolist(), j.tolist()))
            assert got == sorted(zip(*(a.tolist() for a in brute.pairs(radius))))
            assert len(got) > 0

    def test_neighbor_graph_is_symmetric_with_sorted_rows(self, rng):
        n = 2000
        centroids = rng.uniform(0, 40 * n ** (1 / 3), size=(n, 3))
        index = CentroidIndex(np.arange(n), centroids)
        indptr, indices = _neighbor_graph(n, *index.pairs(6.0))
        rows = np.repeat(np.arange(n), np.diff(indptr))
        i, j = index.pairs(6.0)
        want = np.unique(np.concatenate([np.stack([i, j]), np.stack([j, i])], axis=1), axis=1)
        assert len(rows) > 0
        # np.unique sorts row-major, so this also checks the order within rows
        np.testing.assert_array_equal(np.stack([rows, indices]), want)

    def test_empty_and_single_cell_have_no_pairs(self):
        empty = CentroidIndex(np.empty(0, np.int64), np.empty((0, 3)))
        assert [len(a) for a in empty.pairs(5.0)] == [0, 0]
        one = CentroidIndex(np.arange(1), np.zeros((1, 3)))
        assert [len(a) for a in one.pairs(5.0)] == [0, 0]


def _assert_pairs_match_brute_force(centroids, radius):
    """``pairs`` finds exactly the pairs of a brute-force scan, once each, i < j."""
    centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
    n = len(centroids)
    i, j = CentroidIndex(np.arange(n), centroids).pairs(radius)
    assert (i < j).all()
    got = sorted(zip(i.tolist(), j.tolist()))
    want = sorted(zip(*(a.tolist() for a in BruteForceIndex(range(n), centroids).pairs(radius))))
    assert got == want
    return got


RADII = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 5.0, 7.3])
FRESH_SETS = st.sampled_from(["none", "all", "random", "column edges"])


def _fresh_set(which, centroids, radius, rng):
    """Flags over the centroids: none, all, a random share, or those on an
    x or y column edge of the search (its column width)."""
    n = len(centroids)
    if which == "random":
        return rng.random(n) < rng.random()
    if which == "column edges":
        width = max(radius / 2, np.abs(centroids[:, :2]).max(initial=0.0) * 2.0**-30) or 1.0
        uv = centroids[:, :2] / width
        return (uv == np.floor(uv)).any(axis=1)
    return np.full(n, which == "all")


def _assert_fresh_pairs_match_brute_force(centroids, radius, fresh):
    """``pairs`` with fresh flags finds exactly the brute-force pairs with
    a flagged end, once each, i < j; with every centroid flagged, the very
    arrays of ``pairs`` without flags."""
    centroids = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
    n = len(centroids)
    index = CentroidIndex(np.arange(n), centroids)
    i, j = index.pairs(radius, fresh)
    assert (i < j).all()
    got = sorted(zip(i.tolist(), j.tolist()))
    brute = zip(*(a.tolist() for a in BruteForceIndex(range(n), centroids).pairs(radius)))
    assert got == sorted((a, b) for a, b in brute if fresh[a] or fresh[b])
    if fresh.all():
        for a, b in zip((i, j), index.pairs(radius)):
            np.testing.assert_array_equal(a, b)
    return got


class TestPairSearch:
    """The numpy pair search against a brute-force scan of all distances."""

    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-4, 4)),
            max_size=120,
            unique=True,
        ),
        st.integers(0, 2**32 - 1),
        RADII,
    )
    def test_grid_like_centroids(self, cells, seed, radius):
        # one centroid per 1.5 x 1.0 x 0.2 m cell, several cells per column
        rng = np.random.default_rng(seed)
        cells = np.array(cells, dtype=np.float64).reshape(-1, 3)
        centroids = (cells + rng.uniform(0, 1, cells.shape)) * [1.5, 1.0, 0.2]
        _assert_pairs_match_brute_force(centroids, radius)

    @given(
        st.integers(0, 300),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 100.0),
        st.floats(0.0, 20.0),
    )
    def test_random_clouds(self, n, seed, extent, radius):
        centroids = np.random.default_rng(seed).uniform(-extent, extent, (n, 3))
        _assert_pairs_match_brute_force(centroids, radius)

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-2, 2)), max_size=80
        ),
        st.integers(0, 6),
        st.sampled_from([0.25, 1.0, 3.0]),
        st.booleans(),
    )
    def test_pairs_at_exactly_the_radius(self, cells, radius, scale, offset):
        # lattice points, whose squared distances are exact: many pairs lie
        # exactly at the radius, duplicates at distance 0, and with the
        # 1e5 m offset the coordinates are still exact
        centroids = np.array(cells, dtype=np.float64).reshape(-1, 3) * scale
        if offset:
            centroids += [1e5, -1e5, 0.0]
        _assert_pairs_match_brute_force(centroids, radius * scale)

    @given(st.integers(1, 60), st.integers(1, 5), st.integers(0, 2**32 - 1), RADII)
    def test_duplicate_centroids(self, n, copies, seed, radius):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-4, 4, (n, 3))
        centroids = rng.permutation(np.repeat(points, rng.integers(1, copies + 1, n), axis=0))
        got = _assert_pairs_match_brute_force(centroids, radius)
        if len(centroids) > n:
            assert got  # a repeated point pairs with its copy, at any radius

    @pytest.mark.parametrize("radius", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("n", [0, 1])
    def test_no_or_one_centroid(self, n, radius):
        assert _assert_pairs_match_brute_force(np.full((n, 3), 1e5), radius) == []

    def test_radius_zero_pairs_only_equal_centroids(self, rng):
        points = rng.uniform(-3, 3, (40, 3))
        centroids = np.vstack([points, points[:7], points[:2], [[0.0, 0.0, 1e-300]], [[0.0] * 3]])
        got = _assert_pairs_match_brute_force(centroids, 0.0)
        # three pairs among each of the first two points' three copies, one
        # for each of the next five, and the last two, whose squared
        # distance 1e-600 rounds to 0
        assert len(got) == 3 * 2 + 5 + 1

    def test_pair_across_a_rounded_column_boundary(self):
        # two centroids 0.3 m apart in x, at radius 0.3: in columns 0.15 m
        # wide, 4.65 / 0.15 rounds to just under 31 and 4.95 / 0.15 to 33,
        # so they lie three x columns apart, one more than the radius spans;
        # only that extra column and the rounding margin find the pair
        centroids = np.array([[4.6499999999999995, 0, 0], [4.949999999999999, 0, 0]])
        assert _assert_pairs_match_brute_force(centroids, 0.3) == [(0, 1)]

    @given(
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e5, 1e9, 1e12, 1e15]),
        st.sampled_from([0.0, 1e-6, 1e-3, 5.0]),
    )
    def test_far_apart_columns(self, n, seed, spread, radius):
        # clusters of nearby centroids scattered over +-spread: with the
        # wider spreads and smaller radii, columns half a radius wide span
        # so many x and y columns that their product passes 2**63, so a code
        # packing those column numbers as they are would overflow
        rng = np.random.default_rng(seed)
        base = np.repeat(rng.uniform(-spread, spread, (n, 3)), 3, axis=0)
        centroids = base + rng.normal(0, radius, base.shape)
        centroids[::4] = base[::4]
        _assert_pairs_match_brute_force(centroids, radius)

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-2, 2)), max_size=80
        ),
        st.integers(0, 6),
        st.sampled_from([0.25, 1.0, 3.0]),
        st.booleans(),
        st.integers(1, 3),
        FRESH_SETS,
        st.integers(0, 2**32 - 1),
    )
    def test_pairs_with_a_fresh_end_on_lattices(
        self, cells, radius, scale, offset, copies, which, seed
    ):
        # lattice points with up to three copies each: pairs exactly at the
        # radius, duplicates at distance 0, and many points on column edges
        rng = np.random.default_rng(seed)
        lattice = np.array(cells, dtype=np.float64).reshape(-1, 3) * scale
        centroids = rng.permutation(
            np.repeat(lattice, rng.integers(1, copies + 1, len(lattice)), axis=0)
        )
        if offset:
            centroids += [1e5, -1e5, 0.0]
        radius *= scale
        _assert_fresh_pairs_match_brute_force(
            centroids, radius, _fresh_set(which, centroids, radius, rng)
        )

    @given(
        st.integers(0, 200),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 50.0),
        st.floats(0.0, 10.0),
        FRESH_SETS,
        st.booleans(),
    )
    def test_pairs_with_a_fresh_end_on_random_clouds(self, n, seed, extent, radius, which, apart):
        # with apart, the cloud is split into clusters up to 2e5 m apart
        rng = np.random.default_rng(seed)
        centroids = rng.uniform(-extent, extent, (n, 3))
        if apart:
            centroids[:, :2] += rng.choice([-1e5, 0.0, 1e5], (n, 2))
        _assert_fresh_pairs_match_brute_force(
            centroids, radius, _fresh_set(which, centroids, radius, rng)
        )

    def test_fresh_sets_of_a_scan(self, rng):
        # the tentative cells of a scan at the expansion radius, with a
        # few hundred of them fresh, as Phase II's cells not inherited
        pts, _ = _flat_cloud_with_seed(rng, extent=30.0, n=6000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2))
        centroids = grid.centroids[grid.state == GroundState.TENTATIVE]
        fresh = rng.random(len(centroids)) < 0.05
        got = _assert_fresh_pairs_match_brute_force(centroids, 5.0, fresh)
        assert 0 < len(got) < len(_assert_pairs_match_brute_force(centroids, 5.0))


class TestBuildCentroidIndex:
    def test_pairs_found_at_the_radius_are_kept(self, rng):
        pts, _ = _flat_cloud_with_seed(rng, extent=20.0, n=3000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2))
        tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
        index = build_centroid_index(grid, tentative, 5.0)
        radius, i, j = index.found
        assert radius == 5.0 and index.inherited == 0
        assert index.pairs(5.0)[0] is i and index.pairs(5.0)[1] is j
        fresh = CentroidIndex(tentative, grid.centroids[tentative])
        for a, b in zip(index.pairs(5.0), fresh.pairs(5.0)):
            np.testing.assert_array_equal(a, b)
        # another radius is searched anew
        for a, b in zip(index.pairs(3.0), fresh.pairs(3.0)):
            np.testing.assert_array_equal(a, b)

    def test_parent_lends_the_pairs_of_cells_it_holds_unchanged(self, rng):
        # the parent indexes the same grid's rows but every third cell, with
        # one shared cell's centroid 10 m higher, out of reach of the others:
        # only the pairs between shared, unmoved cells are lent, and the
        # result is the index's full pair set
        pts, _ = _flat_cloud_with_seed(rng, extent=20.0, n=3000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2))
        rows = np.flatnonzero(grid.state == GroundState.TENTATIVE)
        moved = grid.centroids.copy()
        moved[rows[1], 2] += 10.0
        parent = build_centroid_index(
            dataclasses.replace(grid, centroids=moved), np.delete(rows, np.s_[::3]), 5.0
        )
        index = build_centroid_index(grid, rows, 5.0, parent, np.arange(len(grid.cells)))
        radius, i, j = index.found
        got = list(zip(i.tolist(), j.tolist()))
        assert (i < j).all() and len(set(got)) == len(got)
        want = CentroidIndex(rows, grid.centroids[rows]).pairs(5.0)
        assert set(got) == set(zip(*(a.tolist() for a in want)))
        assert 0 < index.inherited < len(got)
        # pairs found at another radius, or none, are not lent
        with pytest.raises(ContractViolationError, match="same radius"):
            build_centroid_index(grid, rows, 4.0, parent, np.arange(len(grid.cells)))
        unsearched = CentroidIndex(rows, grid.centroids[rows])
        with pytest.raises(ContractViolationError, match="same radius"):
            build_centroid_index(grid, rows, 5.0, unsearched, np.arange(len(grid.cells)))


def _fifo_bfs(indptr, indices, source):
    """Order and predecessors of a plain FIFO queue search (test oracle)."""
    pred = {source: -1}
    queue, order = deque([source]), []
    while queue:
        node = queue.popleft()
        order.append(node)
        for nb in indices[indptr[node] : indptr[node + 1]].tolist():
            if nb not in pred:
                pred[nb] = node
                queue.append(nb)
    return order, pred


def _symmetric_csr(n, edges, rng, dtype):
    """CSR of an undirected graph with each row's neighbors in random order."""
    rows = [[] for _ in range(n)]
    for a, b in {(min(e), max(e)) for e in edges if e[0] != e[1]}:
        rows[a].append(b)
        rows[b].append(a)
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([v for r in rows for v in rng.permutation(r).tolist()], dtype=dtype)
    return indptr, indices


class TestBreadthFirstOracle:
    """``_breadth_first`` against a deque search over the same CSR."""

    @staticmethod
    def _assert_matches_oracle(indptr, indices, source):
        order, pred = _breadth_first(indptr, indices, source)
        want_order, want_pred = _fifo_bfs(indptr, indices, source)
        assert order.tolist() == want_order
        want = np.full(len(indptr) - 1, -1)
        want[list(want_pred)] = list(want_pred.values())
        np.testing.assert_array_equal(pred, want)
        return order

    @given(
        st.integers(1, 60),
        st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=150),
        st.integers(0, 2**32 - 1),
        st.sampled_from([np.int32, np.int64]),
    )
    def test_random_symmetric_graphs(self, n, edges, seed, dtype):
        rng = np.random.default_rng(seed)
        edges = [(a % n, b % n) for a, b in edges]
        indptr, indices = _symmetric_csr(n, edges, rng, dtype)
        self._assert_matches_oracle(indptr, indices, int(rng.integers(n)))

    def test_disconnected_parts_and_rows_of_one_node(self, rng):
        # a path 0-1-2-3 (end rows of one node), a star on 4, a triangle
        # apart, and node 12 with no edges
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7), (4, 1), (8, 9), (9, 10), (10, 8)]
        indptr, indices = _symmetric_csr(13, edges, rng, np.int64)
        order = self._assert_matches_oracle(indptr, indices, 0)
        assert sorted(order.tolist()) == [0, 1, 2, 3, 4, 5, 6, 7]
        order = self._assert_matches_oracle(indptr, indices, 9)
        assert sorted(order.tolist()) == [8, 9, 10]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_complete_bipartite_levels(self, rng, dtype):
        # K(6, 40) and one isolated node: from a node of the first part, the
        # second level's 5 nodes appear unseen in each of the 40 rows of
        # the first level, and from the second part it is the other way round
        a, b = 6, 40
        edges = [(x, a + y) for x in range(a) for y in range(b)]
        indptr, indices = _symmetric_csr(a + b + 1, edges, rng, dtype)
        assert len(self._assert_matches_oracle(indptr, indices, 0)) == a + b
        assert len(self._assert_matches_oracle(indptr, indices, a + 7)) == a + b
        assert self._assert_matches_oracle(indptr, indices, a + b).tolist() == [a + b]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_star_of_stars(self, rng, dtype):
        # a center, 8 hubs around it, and 60 leaves each linked to 3 hubs
        # and to a few other leaves: every leaf appears unseen up to three
        # times among the hubs' rows
        hubs, leaves = 8, 60
        n = 1 + hubs + leaves
        edges = [(0, h) for h in range(1, hubs + 1)]
        for leaf in range(hubs + 1, n):
            edges += [(int(h), leaf) for h in rng.choice(hubs, 3, replace=False) + 1]
        edges += [tuple(e) for e in rng.integers(hubs + 1, n, (40, 2)).tolist()]
        indptr, indices = _symmetric_csr(n, edges, rng, dtype)
        assert len(self._assert_matches_oracle(indptr, indices, 0)) == n
        assert len(self._assert_matches_oracle(indptr, indices, n - 1)) == n

    def test_isolated_seed(self, rng):
        indptr, indices = _symmetric_csr(5, [(0, 1), (3, 4)], rng, np.int32)
        assert self._assert_matches_oracle(indptr, indices, 2).tolist() == [2]
        order, pred = _breadth_first(np.zeros(4, np.int64), np.empty(0, np.int32), 1)
        assert order.tolist() == [1] and pred.tolist() == [-1, -1, -1]


def _csr_of_pairs(n, i, j):
    """CSR of both directions of each pair, built with a lexsort (test oracle)."""
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=n)))
    return indptr, cols[order]


def _brute_graph(brute_index_cls, centroids, radius):
    """Every two centroids within radius (inclusive), from all distances."""
    i, j = brute_index_cls(range(len(centroids)), centroids).pairs(radius)
    return _csr_of_pairs(len(centroids), i, j)


def _sweep_graph(centroids, radius):
    """Every two centroids within radius (inclusive), by comparing each
    centroid, in x order, with the next ones until all their x gaps exceed
    the radius: no pair further apart in that order can be in reach."""
    order = np.argsort(centroids[:, 0], kind="stable")
    c = centroids[order]
    i, j = [], []
    for shift in range(1, len(c)):
        if (c[shift:, 0] - c[:-shift, 0]).min() > radius:
            break
        hit = np.flatnonzero(((c[shift:] - c[:-shift]) ** 2).sum(axis=1) <= radius * radius)
        i.append(order[hit])
        j.append(order[hit + shift])
    return _csr_of_pairs(len(c), np.concatenate(i), np.concatenate(j))


def _graph(centroids, radius):
    n = len(centroids)
    return _neighbor_graph(n, *CentroidIndex(np.arange(n), centroids).pairs(radius))


def _assert_same_graph(got, want):
    assert got[0].dtype == np.int64
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


class TestNeighborGraph:
    @pytest.mark.parametrize("radius", [1.0, 2.0, 3.0, 5.0])
    def test_exact_radius_ties_match_brute_force(self, rng, brute_index_cls, radius):
        # integer lattice: squared distances are exact, and 1, 2, 3 and 5
        # (3-4-5) are each reached exactly by some pairs
        lattice = np.stack(np.meshgrid(*[np.arange(7.0)] * 2, np.arange(3.0)), -1)
        centroids = rng.permutation(lattice.reshape(-1, 3))
        got = _graph(centroids, radius)
        want = _brute_graph(brute_index_cls, centroids, radius)
        d2 = ((centroids[:, None] - centroids[None]) ** 2).sum(axis=2)
        assert (d2 == radius * radius).any()
        _assert_same_graph(got, want)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_one_cell_graphs(self, n):
        got = _graph(np.zeros((n, 3)), 5.0)
        _assert_same_graph(got, (np.zeros(n + 1, np.int64), np.empty(0, np.int64)))

    def test_int32_keys_match_brute_force(self, rng, brute_index_cls):
        centroids = rng.uniform(0, 30, size=(1500, 3))
        got = _graph(centroids, 3.0)
        assert got[1].dtype == np.int32  # n * n < 2**31: the narrow keys ran
        _assert_same_graph(got, _brute_graph(brute_index_cls, centroids, 3.0))

    def test_int64_keys_match_brute_force(self, rng):
        # 46.5k centroids, n * n >= 2**31, sparse along a 23 km strip
        n = 46_500
        centroids = rng.uniform(0, 1, size=(n, 3)) * [n / 2, 2.0, 2.0]
        got = _graph(centroids, 1.0)
        assert got[1].dtype == np.int64  # the keys did not fit in int32
        want = _sweep_graph(centroids, 1.0)
        assert len(want[1]) > n
        _assert_same_graph(got, want)

    @pytest.mark.parametrize("n", [46_340, 46_341])  # n * n just under and over 2**31
    def test_key_width_boundary(self, n):
        # pairs that touch the largest keys of the graph
        i = np.array([0, n - 3, n - 2, 1])
        j = np.array([n - 1, n - 1, n - 1, n - 2])
        _assert_same_graph(_neighbor_graph(n, i, j), _csr_of_pairs(n, i, j))

    def test_height_gate_on_pairs_drops_only_over_gate_entries(self, rng):
        n, gate = 1200, 0.25
        centroids = rng.uniform(0, 25, size=(n, 3)) * [1, 1, 0.1]
        z = centroids[:, 2]
        i, j = CentroidIndex(np.arange(n), centroids).pairs(5.0)
        keep = np.abs(z[i] - z[j]) <= gate
        indptr, indices = _neighbor_graph(n, i, j)
        gated = _neighbor_graph(n, i[keep], j[keep])
        rows = np.repeat(np.arange(n), np.diff(indptr))
        over = np.abs(z[rows] - z[indices]) > gate
        assert 0 < over.sum() < len(over)
        kept_rows = rows[~over]
        want = (np.append(0, np.cumsum(np.bincount(kept_rows, minlength=n))), indices[~over])
        _assert_same_graph(gated, want)


class TestBreadthFirst:
    def test_int64_graph_dequeue_order_matches_deque_bfs(self, rng):
        # a chain of 46.5k one-point cells, so n * n >= 2**31 and the graph
        # has int64 keys; each cell reaches one to three cells either side,
        # and a detached tail of 50 cells is never reached
        n, tail = 46_500, 50
        x = np.arange(n) + rng.uniform(0, 1, n)
        x[-tail:] += 10.0
        pts = np.column_stack([x, np.zeros(n), rng.uniform(0, 0.5, n)])
        grid = build_grid(pts, CellSize(1.0, 1.0, 1.0))
        grid.state[:] = GroundState.TENTATIVE
        index = _tentative_index(grid)
        radius, source = 2.5, n // 2
        indptr, indices = _neighbor_graph(n, *index.pairs(radius))
        assert indices.dtype == np.int64

        pred = {source: source}
        queue, order = deque([source]), []
        while queue:
            node = queue.popleft()
            order.append(node)
            for nb in indices[indptr[node] : indptr[node + 1]].tolist():
                if nb not in pred:
                    pred[nb] = node
                    queue.append(nb)
        assert len(order) == n - tail

        log = ExpansionLog()
        seed = tuple(grid.cells[source].tolist())
        expand(grid, index, seed, GEO, ExpansionParams(search_radius=radius), phase=1, log=log)
        cells = [tuple(c) for c in grid.cells.tolist()]
        assert [idx for idx, _, _ in log.routes] == [cells[c] for c in order]
        z = grid.centroids[:, 2]
        want = [(cells[pred[c]], cells[c], abs(z[pred[c]] - z[c])) for c in order[1:]]
        assert log.edges == want

    def test_import_leaves_csgraph_out(self):
        import gridseg

        env = dict(os.environ, PYTHONPATH=str(Path(gridseg.__file__).parents[1]))
        code = (
            "import sys, gridseg; gridseg.make_default_config(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "[]"

    def test_segment_loads_no_scipy(self):
        import gridseg

        env = dict(os.environ, PYTHONPATH=str(Path(gridseg.__file__).parents[1]))
        code = (
            "import sys, gridseg as gs; "
            "cloud = gs.scene_cloud(gs.make_scene(gs.SceneSpec(20.0, 3000))); "
            "result = gs.pipeline.segment(cloud, gs.make_default_config()); "
            "assert result.mask.any(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "[]"


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
        empty = SyntheticSeedInfo(count=0, depth=1.723)
        with pytest.raises(ConfigError):
            select_seed(grid, empty)


def _fit_cell(grid, idx, plane, inlier_ids):
    """Give cell ``idx`` a plane fit whose inliers are the given point ids."""
    c = grid.find(idx)
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
        self.exp = ExpansionParams()
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
        ok, reason = refine_cell(cell, grid, [nb], GEO, ExpansionParams())
        assert not ok and "below" in reason


class TestExpand:
    def test_single_tentative_cell(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=1.0, n=60)
        grid = _classified_grid(pts, CellSize(10.0, 10.0, 10.0))
        index = _tentative_index(grid)
        seed = select_seed(grid, info)
        ground = expand(grid, index, seed, GEO, ExpansionParams(), phase=1)
        np.testing.assert_array_equal(ground, np.arange(len(pts)))

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
        ground = expand(grid, index, seed, GEO, ExpansionParams(search_radius=5.0), phase=1)
        far_ids = set(range(200, 400))
        assert far_ids.isdisjoint(ground.tolist())

    def test_seed_not_tentative_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=2.0, n=100)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        seed = select_seed(grid, info)
        grid.state[grid.find(seed)] = GroundState.NON_GROUND
        index = build_centroid_index(grid, [])
        with pytest.raises(ContractViolationError):
            expand(grid, index, seed, GEO, ExpansionParams(), phase=1)

    @pytest.mark.parametrize("phase", [0, 3])
    def test_phase_other_than_1_or_2_rejected(self, rng, phase):
        pts, info = _flat_cloud_with_seed(rng, extent=2.0, n=100)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        index, seed, state = _tentative_index(grid), select_seed(grid, info), grid.state.copy()
        with pytest.raises(ContractViolationError, match="phase must be 1 or 2"):
            expand(grid, index, seed, GEO, ExpansionParams(), phase=phase)
        np.testing.assert_array_equal(grid.state, state)

    def test_index_out_of_cell_order_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=6.0, n=600)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
        index = build_centroid_index(grid, tentative[::-1])
        with pytest.raises(ContractViolationError, match="ascending"):
            expand(grid, index, select_seed(grid, info), GEO, ExpansionParams(), phase=1)

    def test_index_with_non_tentative_cell_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=6.0, n=600)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        seed = select_seed(grid, info)
        other = 0 if grid.find(seed) != 0 else 1
        grid.state[other] = GroundState.OBSTACLE
        index = build_centroid_index(grid, np.arange(len(grid.cells)))
        with pytest.raises(ContractViolationError, match="must be tentative"):
            expand(grid, index, seed, GEO, ExpansionParams(), phase=1)
        assert grid.state[other] == GroundState.OBSTACLE

    def test_flat_plane_fully_expanded_matches_flood_fill(self, rng, brute_index_cls):
        pts, info = _flat_cloud_with_seed(rng, extent=16.0, n=4000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
        index = build_centroid_index(grid, tentative)
        seed = select_seed(grid, info)
        log = ExpansionLog()
        params = ExpansionParams(search_radius=5.0)
        ground = expand(grid, index, seed, GEO, params, phase=1, log=log)

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
            grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2))
            tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
            if index_cls is None:
                index = build_centroid_index(grid, tentative)
            else:
                index = index_cls(tentative, grid.centroids[tentative])
            seed = select_seed(grid, info)
            ground = expand(grid, index, seed, GEO, ExpansionParams(), phase=2)
            results.append(ground)
        np.testing.assert_array_equal(results[0], results[1])

    def test_phase2_height_gate_logged_edges(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=12.0, n=3000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2))
        index = _tentative_index(grid)
        seed = select_seed(grid, info)
        log = ExpansionLog()
        params = ExpansionParams()
        expand(grid, index, seed, GEO, params, phase=2, log=log)
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
        expand(grid, index, select_seed(grid, info), GEO, ExpansionParams(), phase=1, log=log)
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
        expand(grid, index, select_seed(grid, info), GEO, ExpansionParams(), phase=1, log=log)

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

    @pytest.mark.parametrize("phase", [1, 2])
    def test_ground_ids_are_the_inliers_of_ground_cells(self, rng, phase):
        # a sloped scene, whose steepest cells route non-ground, and a flat
        # patch 30 m out that no radius link reaches
        import gridseg as gs

        scene = gs.make_scene(SCENES["slope-12"])
        far = np.column_stack([rng.uniform(40, 44, (500, 2)), rng.normal(-1.723, 0.01, 500)])
        cloud = PointCloud(points=np.vstack([scene.points, far]))
        seeded, info = inject_synthetic_seed(cloud, 2.7, 1.723, 0.3)
        grid = _classified_grid(seeded.points, CellSize(1.5, 1.0, (1.5, 0.2)[phase - 1]))
        before = grid.state.copy()
        log = ExpansionLog()
        seed = select_seed(grid, info)
        params = ExpansionParams()
        ground = expand(grid, _tentative_index(grid), seed, GEO, params, phase=phase, log=log)

        routes = {idx: route for idx, route, _ in log.routes}
        dequeued = np.array([idx in routes for idx in map(tuple, grid.cells.tolist())])
        is_ground = grid.state == GroundState.GROUND
        # dequeued cells were tentative and end GROUND or NON_GROUND as routed;
        # every other cell keeps its state, so unreached tentative cells stay TENTATIVE
        assert (before[dequeued] == GroundState.TENTATIVE).all()
        assert [routes[tuple(idx)] == "ground" for idx in grid.cells[dequeued].tolist()] == list(
            is_ground[dequeued]
        )
        assert (grid.state[dequeued & ~is_ground] == GroundState.NON_GROUND).all()
        np.testing.assert_array_equal(grid.state[~dequeued], before[~dequeued])
        unreached = ~dequeued & (before == GroundState.TENTATIVE)
        assert unreached.any() and is_ground.any() and (dequeued & ~is_ground).any()
        # the ground ids are exactly the inliers of the GROUND cells
        want = np.sort(grid.order[np.repeat(is_ground, grid.counts) & grid.inliers])
        assert ground.dtype == np.int64
        np.testing.assert_array_equal(ground, want)
