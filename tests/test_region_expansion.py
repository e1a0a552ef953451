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

from gridseg.cell_geometry import GeometryParams
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
    ground_mask,
    refine_cell,
    select_seed,
)
from gridseg.region_expansion import _roots
from gridseg.voxel_grid import (
    CellSize,
    GroundState,
    Outcome,
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


def _breadth_first(n, i, j, source):
    """The nodes a plain breadth-first search from ``source`` reaches over
    both directions of the pairs ``(i[k], j[k])`` (test oracle), ascending."""
    rows = [[] for _ in range(n)]
    for a, b in zip(np.asarray(i).tolist(), np.asarray(j).tolist()):
        rows[a].append(b)
        rows[b].append(a)
    reached, queue = {source}, deque([source])
    while queue:
        for nb in rows[queue.popleft()]:
            if nb not in reached:
                reached.add(nb)
                queue.append(nb)
    return sorted(reached)


def _component(n, i, j, source):
    """Mask of the nodes in the connected component of ``source`` over the
    pairs ``(i[k], j[k])``: one ``_roots`` search from no links."""
    root = _roots(np.arange(n, dtype=i.dtype), i, j)
    return root == root[source]


def _pairs_of(edges, rng, dtype):
    """Arrays (i, j) of the given edges, each once, in random order and
    random direction."""
    edges = rng.permutation(np.array(sorted(set(edges)), dtype=dtype).reshape(-1, 2))
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    return edges[:, 0], edges[:, 1]


class TestBreadthFirstOracle:
    """``_roots``, hooking roots and jumping pointers on the pair list,
    against a breadth-first search over both directions of the same pairs."""

    @staticmethod
    def _assert_matches_oracle(n, i, j, source):
        reached = _component(n, i, j, source)
        assert reached.dtype == bool and len(reached) == n
        order = np.flatnonzero(reached)
        assert order.tolist() == _breadth_first(n, i, j, source)
        return order

    @given(
        st.integers(1, 60),
        st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=150),
        st.integers(0, 2**32 - 1),
        st.sampled_from([np.int32, np.int64]),
    )
    def test_random_symmetric_graphs(self, n, edges, seed, dtype):
        # pairs in either direction, self pairs and repeats among them
        rng = np.random.default_rng(seed)
        edges = [(a % n, b % n) for a, b in edges]
        i, j = _pairs_of(edges, rng, dtype)
        i, j = np.concatenate([i, i[: len(i) // 4]]), np.concatenate([j, j[: len(j) // 4]])
        self._assert_matches_oracle(n, i, j, int(rng.integers(n)))

    def test_disconnected_parts_and_rows_of_one_node(self, rng):
        # a path 0-1-2-3 (end rows of one node), a star on 4, a triangle
        # apart, and node 12 with no edges
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7), (4, 1), (8, 9), (9, 10), (10, 8)]
        i, j = _pairs_of(edges, rng, np.int64)
        order = self._assert_matches_oracle(13, i, j, 0)
        assert order.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        order = self._assert_matches_oracle(13, i, j, 9)
        assert order.tolist() == [8, 9, 10]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_complete_bipartite_levels(self, rng, dtype):
        # K(6, 40) and one isolated node: every node of one part is paired
        # with every node of the other, so each root is hooked from many
        # pairs at once
        a, b = 6, 40
        edges = [(x, a + y) for x in range(a) for y in range(b)]
        i, j = _pairs_of(edges, rng, dtype)
        assert len(self._assert_matches_oracle(a + b + 1, i, j, 0)) == a + b
        assert len(self._assert_matches_oracle(a + b + 1, i, j, a + 7)) == a + b
        assert self._assert_matches_oracle(a + b + 1, i, j, a + b).tolist() == [a + b]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_star_of_stars(self, rng, dtype):
        # a center, 8 hubs around it, and 60 leaves each linked to 3 hubs
        # and to a few other leaves
        hubs, leaves = 8, 60
        n = 1 + hubs + leaves
        edges = [(0, h) for h in range(1, hubs + 1)]
        for leaf in range(hubs + 1, n):
            edges += [(int(h), leaf) for h in rng.choice(hubs, 3, replace=False) + 1]
        edges += [tuple(e) for e in rng.integers(hubs + 1, n, (40, 2)).tolist()]
        i, j = _pairs_of(edges, rng, dtype)
        assert len(self._assert_matches_oracle(n, i, j, 0)) == n
        assert len(self._assert_matches_oracle(n, i, j, n - 1)) == n

    def test_star_whose_centre_holds_the_largest_label(self):
        # the pairs in leaf order: every pair hooks the centre, which takes
        # the lowest leaf, and the next round hooks every other leaf to that
        # one (hooked by the last write instead, the centre would take the
        # highest leaf, and each round would hook one more leaf)
        leaves = 3000
        leaf = np.arange(leaves, dtype=np.int32)
        flip = leaf % 2 == 1  # either way round
        i, j = np.where(flip, leaves, leaf), np.where(flip, leaf, leaves)
        i, j = np.append(i, [leaves + 1]), np.append(j, [leaves + 2])  # a pair apart
        order = self._assert_matches_oracle(leaves + 3, i, j, leaves)
        assert order.tolist() == list(range(leaves + 1))
        assert self._assert_matches_oracle(leaves + 3, i, j, leaves + 2).tolist() == [
            leaves + 1, leaves + 2
        ]

    def test_path_in_random_label_order(self, rng):
        # 10**5 nodes on one path whose labels are shuffled, so a root
        # hooked in one round is often hooked again in the next
        n = 100_000
        path = rng.permutation(n)
        i, j = _pairs_of(list(zip(path[:-1].tolist(), path[1:].tolist())), rng, np.int32)
        source = int(rng.integers(n))
        assert len(self._assert_matches_oracle(n, i, j, source)) == n
        # cut in two after its first third
        ends = {path[n // 3], path[n // 3 + 1]}
        keep = ~(np.isin(i, list(ends)) & np.isin(j, list(ends)))
        order = self._assert_matches_oracle(n, i[keep], j[keep], int(path[0]))
        assert order.tolist() == sorted(path[: n // 3 + 1].tolist())

    @given(
        st.integers(1, 60),
        st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=150),
        st.integers(0, 2**32 - 1),
        st.sampled_from([np.int32, np.int64]),
    )
    def test_resumed_roots_equal_one_pass(self, n, edges, seed, dtype):
        # the pairs split in two: the roots of the first part, resumed over
        # the second, are the roots of one pass over all of them
        rng = np.random.default_rng(seed)
        i, j = _pairs_of([(a % n, b % n) for a, b in edges], rng, dtype)
        cut = int(rng.integers(len(i) + 1))
        once = _roots(np.arange(n, dtype=dtype), i, j)
        first = _roots(np.arange(n, dtype=dtype), i[:cut], j[:cut])
        resumed = _roots(first.copy(), i[cut:], j[cut:])
        assert resumed.tolist() == once.tolist()
        for source in range(n):
            assert np.flatnonzero(resumed == resumed[source]).tolist() == _breadth_first(
                n, i, j, source
            )

    def test_resumed_star_whose_centre_holds_the_largest_label(self):
        # the even leaves' pairs first, then the odd leaves' pairs and one
        # pair joining a part apart: the resumed search hooks the centre's
        # root (leaf 0) under no leaf, and every odd leaf and the far part
        # under it
        leaves = 3000
        leaf = np.arange(leaves, dtype=np.int32)
        centre = np.full(leaves, leaves, dtype=np.int32)
        even, odd = leaf % 2 == 0, leaf % 2 == 1
        far = np.array([leaves + 1], dtype=np.int32), np.array([leaves + 2], dtype=np.int32)
        first = _roots(np.arange(leaves + 3, dtype=np.int32), *(
            np.concatenate([a, f]) for a, f in zip((leaf[even], centre[even]), far)
        ))
        assert first[leaves] == 0 and first[1] == 1 and first[leaves + 2] == leaves + 1
        i = np.append(centre[odd], leaves + 2)
        j = np.append(leaf[odd], 7)
        resumed = _roots(first, i, j)
        once = _roots(
            np.arange(leaves + 3, dtype=np.int32),
            np.concatenate([leaf, far[0], i]),
            np.concatenate([centre, far[1], j]),
        )
        assert resumed.tolist() == once.tolist() == [0] * (leaves + 3)

    def test_isolated_seed(self, rng):
        i, j = _pairs_of([(0, 1), (3, 4)], rng, np.int32)
        assert self._assert_matches_oracle(5, i, j, 2).tolist() == [2]
        none = np.empty(0, np.int32)
        assert _component(3, none, none, 1).tolist() == [False, True, False]


def _sorted_pairs(i, j):
    """Pairs (i, j), i < j, in row-major order."""
    order = np.lexsort((j, i))
    return np.asarray(i)[order], np.asarray(j)[order]


def _brute_pairs(brute_index_cls, centroids, radius):
    """Every two centroids within radius (inclusive), from all distances."""
    return _sorted_pairs(*brute_index_cls(range(len(centroids)), centroids).pairs(radius))


def _sweep_pairs(centroids, radius):
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
    i, j = np.concatenate(i), np.concatenate(j)
    return _sorted_pairs(np.minimum(i, j), np.maximum(i, j))


def _pairs(centroids, radius):
    n = len(centroids)
    return _sorted_pairs(*CentroidIndex(np.arange(n), centroids).pairs(radius))


def _assert_same_pairs(got, want):
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


class TestNeighborGraph:
    """The links of the neighbor graph, ``CentroidIndex.pairs`` in row-major
    order, against a brute-force scan and an x-order sweep."""

    @pytest.mark.parametrize("radius", [1.0, 2.0, 3.0, 5.0])
    def test_exact_radius_ties_match_brute_force(self, rng, brute_index_cls, radius):
        # integer lattice: squared distances are exact, and 1, 2, 3 and 5
        # (3-4-5) are each reached exactly by some pairs
        lattice = np.stack(np.meshgrid(*[np.arange(7.0)] * 2, np.arange(3.0)), -1)
        centroids = rng.permutation(lattice.reshape(-1, 3))
        got = _pairs(centroids, radius)
        want = _brute_pairs(brute_index_cls, centroids, radius)
        d2 = ((centroids[:, None] - centroids[None]) ** 2).sum(axis=2)
        assert (d2 == radius * radius).any()
        _assert_same_pairs(got, want)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_one_cell_graphs(self, n):
        got = _pairs(np.zeros((n, 3)), 5.0)
        assert [a.dtype for a in got] == [np.int32, np.int32]  # positions that fit
        _assert_same_pairs(got, (np.empty(0), np.empty(0)))

    def test_strip_of_46k_centroids_matches_sweep(self, rng):
        # 46.5k centroids, sparse along a 23 km strip
        n = 46_500
        centroids = rng.uniform(0, 1, size=(n, 3)) * [n / 2, 2.0, 2.0]
        got = _pairs(centroids, 1.0)
        want = _sweep_pairs(centroids, 1.0)
        assert len(want[1]) > n / 2
        _assert_same_pairs(got, want)


class TestBreadthFirst:
    def test_long_chain_reach_and_log_order(self, rng):
        # a chain of 46.5k one-point cells; each cell reaches one to three
        # cells either side, and a detached tail of 50 cells is never reached
        n, tail = 46_500, 50
        x = np.arange(n) + rng.uniform(0, 1, n)
        x[-tail:] += 10.0
        pts = np.column_stack([x, np.zeros(n), rng.uniform(0, 0.5, n)])
        grid = build_grid(pts, CellSize(1.0, 1.0, 1.0))
        grid.outcome[:] = Outcome.LINE_TENTATIVE  # no plane fit
        index = _tentative_index(grid)
        radius, source = 2.5, n // 2
        i, j = index.pairs(radius)
        reached = _breadth_first(n, i, j, source)
        assert reached == list(range(n - tail))

        log = ExpansionLog()
        seed = tuple(grid.cells[source].tolist())
        expand(grid, index, seed, GEO, ExpansionParams(search_radius=radius), phase=1)
        log.record(grid)
        cells = [tuple(c) for c in grid.cells.tolist()]
        assert [idx for idx, _, _ in log.routes] == [cells[c] for c in reached]

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


def _fit_cell(grid, idx, inlier_ids):
    """Give cell ``idx`` a plane fit whose inliers are the given point ids,
    as a tentative plane."""
    c = grid.find(idx)
    grid.outcome[c] = Outcome.PLANAR_TENTATIVE
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
        grid.outcome[:] = Outcome.PLANAR_TENTATIVE
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
        self.grid = build_grid(self.points, CellSize(10, 10, 10))

    def _refine(self, inlier_ids=None, neighbors=()):
        c = self.grid.find((0, 0, 0))
        if inlier_ids is not None:
            _fit_cell(self.grid, (0, 0, 0), inlier_ids)
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
        grid.outcome[grid.find((0, 0, 0))] = Outcome.NON_PLANAR
        cell = _fit_cell(grid, (0, 0, 1), range(50))
        nb = grid.find((5, 0, 1))
        ok, reason = refine_cell(cell, grid, [nb], GEO, ExpansionParams())
        assert not ok and "below" in reason


class TestExpand:
    def test_single_tentative_cell(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=1.0, n=60)
        grid = _classified_grid(pts, CellSize(10.0, 10.0, 10.0))
        index = _tentative_index(grid)
        seed = select_seed(grid, info)
        count = expand(grid, index, seed, GEO, ExpansionParams(), phase=1)
        assert count == len(pts)
        assert ground_mask(grid, len(pts)).all()

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
        count = expand(grid, index, seed, GEO, ExpansionParams(search_radius=5.0), phase=1)
        ground = ground_mask(grid, len(pts))
        assert count == ground.sum()
        assert not ground[200:400].any()

    def test_seed_not_tentative_rejected(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=2.0, n=100)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        seed = select_seed(grid, info)
        grid.outcome[grid.find(seed)] = Outcome.NON_PLANAR
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
        grid.outcome[other] = Outcome.LINE_OBSTACLE
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
        count = expand(grid, index, seed, GEO, params, phase=1)
        log.record(grid)

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
        routed = {idx for idx, _, _ in log.routes}
        assert routed == reach
        # on this flat scene every tentative cell is reached and routed ground
        assert len(reach) == len(tentative)
        assert count == len(pts)
        assert ground_mask(grid, len(pts)).all()

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
            count = expand(grid, index, seed, GEO, ExpansionParams(), phase=2)
            ground = ground_mask(grid, len(pts))
            assert count == ground.sum()
            results.append(ground)
        np.testing.assert_array_equal(results[0], results[1])

    def test_phase2_height_gate_logged_edges(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=12.0, n=3000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 0.2))
        index = _tentative_index(grid)
        seed = select_seed(grid, info)
        log = ExpansionLog()
        params = ExpansionParams()
        expand(grid, index, seed, GEO, params, phase=2)
        log.record(grid)
        assert len(log.routes) > 1, "expansion should reach past the seed"
        lines = log.to_text().splitlines()
        assert len(lines) == len(log.routes) and all(line.startswith("ROUTE ") for line in lines)

    def test_no_cell_processed_twice(self, rng):
        pts, info = _flat_cloud_with_seed(rng, extent=10.0, n=2000)
        grid = _classified_grid(pts, CellSize(1.5, 1.0, 1.5))
        index = _tentative_index(grid)
        log = ExpansionLog()
        expand(grid, index, select_seed(grid, info), GEO, ExpansionParams(), phase=1)
        log.record(grid)
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
        expand(grid, index, select_seed(grid, info), GEO, ExpansionParams(), phase=1)
        log.record(grid)

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
        count = expand(grid, _tentative_index(grid), seed, GEO, params, phase=phase)
        log.record(grid)

        routes = {idx: route for idx, route, _ in log.routes}
        reached = np.array([idx in routes for idx in map(tuple, grid.cells.tolist())])
        is_ground = grid.state == GroundState.GROUND
        # reached cells were tentative and end GROUND or NON_GROUND as routed;
        # every other cell keeps its state, so unreached tentative cells stay TENTATIVE
        assert (before[reached] == GroundState.TENTATIVE).all()
        assert [routes[tuple(idx)] == "ground" for idx in grid.cells[reached].tolist()] == list(
            is_ground[reached]
        )
        assert (grid.state[reached & ~is_ground] == GroundState.NON_GROUND).all()
        np.testing.assert_array_equal(grid.state[~reached], before[~reached])
        unreached = ~reached & (before == GroundState.TENTATIVE)
        assert unreached.any() and is_ground.any() and (reached & ~is_ground).any()
        # the ground ids are exactly the inliers of the GROUND cells, and
        # expand counts them
        want = np.sort(grid.order[np.repeat(is_ground, grid.counts) & grid.inliers])
        ground = np.flatnonzero(ground_mask(grid, len(seeded.points)))
        np.testing.assert_array_equal(ground, want)
        assert type(count) is int and count == len(want)
