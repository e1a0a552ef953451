import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridseg.voxel_grid import (
    _KEY_LIMIT,
    CellKind,
    CellSize,
    GroundState,
    VoxelGrid,
    build_grid,
    cell_index,
    occupied_below,
    rebin,
)
from gridseg.errors import ContractViolationError
from gridseg.region_expansion import id_mask


class TestCellIndex:
    def test_mixed_sign_coordinates(self):
        assert cell_index((3.2, -1.7, 0.5), CellSize(1.5, 1.0, 0.2)) == (2, -2, 2)

    def test_origin(self):
        assert cell_index((0.0, 0.0, 0.0), CellSize(0.7, 2.0, 5.0)) == (0, 0, 0)

    def test_floor_not_truncation(self):
        assert cell_index((-0.1, -0.1, -0.1), CellSize(1.0, 1.0, 1.0)) == (-1, -1, -1)

    @pytest.mark.parametrize(
        "point",
        [(math.nan, 0.0, 0.0), (0.0, -math.inf, 0.0), (0.0, 0.0, 2.0**63)],
        ids=["nan", "-inf", "2**63"],
    )
    def test_a_coordinate_without_a_cell_index_is_a_contract_violation(self, point):
        # binned by build_grid's rule: NaN, an infinity and a coordinate
        # 2**63 cells out have no int64 cell index
        with pytest.raises(ContractViolationError):
            cell_index(point, CellSize(1.0, 1.0, 1.0))

    def test_positive_cellsize_required(self):
        with pytest.raises(ContractViolationError):
            CellSize(0.0, 1.0, 1.0)


class TestBuildGrid:
    def test_empty_cloud(self):
        grid = build_grid(np.zeros((0, 3)), CellSize(1, 1, 1))
        assert len(grid.cells) == 0
        assert grid.offsets.tolist() == [0]
        assert len(occupied_below(grid)) == 0

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_rows_without_a_cell_index_are_a_contract_violation(self, bad, column):
        # binned, they would share one cell at -2**63 after a cast warning
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        pts[1, column] = bad
        with pytest.raises(ContractViolationError):
            build_grid(pts, CellSize(1.5, 1.0, 1.5))

    def test_two_points_one_cell(self):
        pts = np.array([[0.1, 0.1, 0.1], [0.3, 0.3, 0.3]])
        grid = build_grid(pts, CellSize(1, 1, 1))
        assert len(grid.cells) == 1
        assert grid.find((0, 0, 0)) == 0
        assert sorted(grid.order[grid.span(0)].tolist()) == [0, 1]
        np.testing.assert_allclose(grid.centroids[0], [0.2, 0.2, 0.2])
        assert grid.kind[0] == CellKind.UNCLASSIFIED
        assert grid.state[0] == GroundState.NONE
        assert not grid.fitted[0] and not grid.inliers.any()

    def test_partition_and_containment(self, rng):
        cs = CellSize(1.5, 1.0, 0.2)
        pts = rng.uniform(-30, 30, size=(5000, 3))
        grid = build_grid(pts, cs)
        assert len(grid.order) == 5000
        assert len(np.unique(grid.order)) == 5000
        assert (grid.counts > 0).all() and grid.offsets[-1] == 5000
        for c, idx in enumerate(grid.cells.tolist()):
            for pid in grid.order[grid.span(c)][:5]:
                assert cell_index(pts[pid], cs) == tuple(idx)
            lo = np.array(idx) * np.array([cs.sx, cs.sy, cs.sz])
            hi = lo + np.array([cs.sx, cs.sy, cs.sz])
            assert np.all(grid.centroids[c] >= lo - 1e-12)
            assert np.all(grid.centroids[c] <= hi + 1e-12)

    def test_cells_are_the_distinct_floor_keys_in_order(self, rng):
        cs = CellSize(1.5, 1.0, 0.2)
        pts = rng.uniform(-10, 10, size=(3000, 3))
        grid = build_grid(pts, cs)
        keys = np.unique(np.floor(pts / np.array([cs.sx, cs.sy, cs.sz])).astype(np.int64), axis=0)
        assert len(grid.cells) == len(keys)
        np.testing.assert_array_equal(grid.cells, keys)
        assert grid.find((99, 99, 99)) == -1

    def test_find_matches_a_scan_of_the_cells(self, rng):
        # every occupied index, and absent ones below, between and above the rows
        grid = build_grid(rng.uniform(-6, 6, size=(800, 3)), CellSize(1.5, 1.0, 0.2))
        cells = [tuple(c) for c in grid.cells.tolist()]
        for c, index in enumerate(cells):
            assert grid.find(index) == c
            assert grid.find(np.array(index)) == c
        absent = {(a, b, z) for a, b, z in rng.integers(-8, 8, size=(400, 3)).tolist()}
        absent |= {(-99, 0, 0), (99, 0, 0), (cells[0][0], cells[0][1], cells[0][2] - 1)}
        for index in absent - set(cells):
            assert grid.find(index) == -1

    def test_order_sorts_by_cell_then_zxy_then_position(self, rng):
        # rounded coordinates and repeated rows give ties on z, on (z, x)
        # and on every coordinate
        cs = CellSize(1.5, 1.0, 0.2)
        pts = np.round(rng.uniform(-5, 5, size=(4000, 3)), 1)
        pts[rng.integers(0, 4000, 500)] = pts[rng.integers(0, 4000, 500)]
        pts[::7, 2] = -0.0
        grid = build_grid(pts, cs)
        keys = np.floor(pts / np.array([cs.sx, cs.sy, cs.sz])).astype(np.int64)
        rows = [(*keys[i], *pts[i, [2, 0, 1]], i) for i in grid.order.tolist()]
        assert rows == sorted(rows)
        assert sorted(grid.order.tolist()) == list(range(len(pts)))

    def test_content_is_order_independent(self, rng):
        # the grid arrays are equivariant under a permutation of the points
        pts = np.round(rng.uniform(-10, 10, size=(800, 3)), 1)
        pts[:50] = pts[50:100]  # duplicate points
        perm = rng.permutation(len(pts))
        g1 = build_grid(pts, CellSize(1, 1, 1))
        g2 = build_grid(pts[perm], CellSize(1, 1, 1))
        np.testing.assert_array_equal(g1.cells, g2.cells)
        np.testing.assert_array_equal(g1.offsets, g2.offsets)
        np.testing.assert_array_equal(g1.centroids, g2.centroids)
        # the same points in the same canonical order
        np.testing.assert_array_equal(pts[g1.order], pts[perm][g2.order])
        for c in range(len(g1.cells)):
            assert set(g1.order[g1.span(c)].tolist()) == set(perm[g2.order[g2.span(c)]].tolist())


def _reference_grid(pts, cs):
    """The canonical order as a six-key lexsort (cell index, z, x, y; input
    position breaks full ties), and the cells and offsets it implies."""
    keys = np.floor(pts / np.array([cs.sx, cs.sy, cs.sz])).astype(np.int64)
    order = np.lexsort((pts[:, 1], pts[:, 0], pts[:, 2], keys[:, 2], keys[:, 1], keys[:, 0]))
    cells, counts = np.unique(keys, axis=0, return_counts=True)
    return order, cells.reshape(-1, 3), np.concatenate(([0], np.cumsum(counts)))


def _key_bits(pts, cs):
    """Bits the packed key needs for the input position and the cell code."""
    keys = np.floor(pts / np.array([cs.sx, cs.sy, cs.sz])).astype(np.int64)
    span = [int(h) - int(lo) + 1 for h, lo in zip(keys.max(axis=0), keys.min(axis=0))]
    return (len(pts) - 1).bit_length() + (math.prod(span) - 1).bit_length()


def _packs(pts, cs):
    """Whether build_grid sorts this cloud by the packed key, not the
    fallback: position and cell code fit below the limit together."""
    return len(pts) == 0 or 1 << _key_bits(pts, cs) <= _KEY_LIMIT


@st.composite
def _tied_clouds(draw):
    """Quantised clouds, negative coordinates included, with many points
    tied on (cell, z) and exact duplicate rows; 0 to 400 points."""
    n = draw(st.integers(0, 400))
    step = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5]))
    reach = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(-reach, reach + 1, size=(n, 3)) * step
    if n:
        pts[rng.integers(0, n, n // 4)] = pts[rng.integers(0, n, n // 4)]
        pts[rng.random(n) < 0.1, 2] = -0.0
    return pts


_CELLSIZES = st.sampled_from(
    [CellSize(1.5, 1.0, 1.5), CellSize(1.5, 1.0, 0.2), CellSize(0.3, 0.7, 0.1)]
)


class TestCanonicalOrder:
    """build_grid's packed-key sort against the six-key lexsort reference."""

    def _check(self, pts, cs):
        grid = build_grid(pts, cs)
        order, cells, offsets = _reference_grid(pts, cs)
        np.testing.assert_array_equal(grid.order, order)
        np.testing.assert_array_equal(grid.cells, cells)
        np.testing.assert_array_equal(grid.offsets, offsets)

    @given(_tied_clouds(), _CELLSIZES)
    def test_quantised_clouds_with_ties_and_duplicates(self, pts, cs):
        assert _packs(pts, cs)
        self._check(pts, cs)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 40), st.just(3)),
            elements=st.sampled_from([-2.5, -1.5, -1.0, -0.3, -0.0, 0.0, 0.3, 1.0, 1.49, 7.0]),
        ),
        _CELLSIZES,
    )
    def test_few_distinct_values(self, pts, cs):
        self._check(pts, cs)

    @pytest.mark.parametrize("pts", [np.zeros((0, 3)), np.array([[-3.2, 0.4, -0.1]])])
    def test_empty_and_single_point(self, pts):
        self._check(pts, CellSize(1.5, 1.0, 0.2))

    @given(_tied_clouds(), _CELLSIZES)
    def test_key_range_beyond_the_packed_key_takes_the_lexsort(self, pts, cs):
        # two far corners stretch every cell-index range past what packs
        pts = np.vstack([pts, [[-4e6, -4e6, -4e6], [4e6, 4e6, 4e6]], pts[:5]])
        assert not _packs(pts, cs)
        self._check(pts, cs)

    @pytest.mark.parametrize("shift", [0.0, -(2.0**27)])
    def test_key_range_just_below_the_packed_key_limit(self, shift):
        # 64 points on unit cells: ix spans 2**28 - 1 cells, iy 2**28 + 1
        # and iz one, so the cell code needs 56 bits and the position 6:
        # the key has no z bits left and its largest value lies within
        # 2 * 64 of the limit; every point of a cell ties on (cell, z
        # offset), and the points near the origin repeat rows
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 4, size=(64, 3)) * 0.5
        pts[:, 2] *= 0.25
        pts[-2:] = [[0.5, 0.5, 0.5], [2.0**28 - 1.5, 2.0**28 + 0.5, 0.75]]
        pts[:, :2] += shift
        cs = CellSize(1.0, 1.0, 1.0)
        assert 1 << _key_bits(pts, cs) == _KEY_LIMIT
        self._check(pts, cs)

    # The z offset within a cell is floor((z / sz - iz) 2^bz), at most
    # 2^bz - 1; the clouds below reach that field's edges, which quantised
    # clouds never do.

    def test_offset_rounding_up_to_the_cell_width_stays_in_its_cell(self):
        # -5e-324 / 1.5 + 1 rounds to 1.0, a full cell height above iz = -1;
        # with 2 position bits the z field is 52 bits wide
        pts = np.array([[0.5, 0.5, -5e-324], [0.5, 0.5, -1.4], [0.5, 0.5, 0.5], [0.5, 0.5, 0.7]])
        cs = CellSize(1.0, 1.0, 1.5)
        assert _packs(pts, cs)
        grid = build_grid(pts, cs)
        assert grid.cells.tolist() == [[0, 0, -1], [0, 0, 0]]
        assert grid.offsets.tolist() == [0, 2, 4]
        self._check(pts, cs)

    @staticmethod
    def _edge_cloud(axis, size):
        """Each cell edge k * size on ``axis`` with its neighbouring
        doubles, the smallest subnormals and both zeros, in several rows of
        the other two coordinates so that equal values tie, shuffled."""
        edges = np.array([k * size for k in range(-3, 4)])
        vs = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                edges - 1e-12,
                [-5e-324, 5e-324, -0.0, 0.0, -1e-300],
            ]
        )
        rest = np.array([[0.5, 0.5], [0.5, -0.5], [-0.25, 0.5], [0.5, 0.5]])
        pts = np.insert(np.repeat(rest, len(vs), axis=0), axis, np.tile(vs, len(rest)), axis=1)
        return pts[np.random.default_rng(int(size * 10)).permutation(len(pts))]

    @pytest.mark.parametrize("sx", [1.5, 0.3, 1.0, 0.1])
    def test_x_at_the_edges_of_cells(self, sx):
        pts = self._edge_cloud(0, sx)
        cs = CellSize(sx, 1.0, 1.0)
        assert _packs(pts, cs)
        self._check(pts, cs)

    @pytest.mark.parametrize("sz", [1.5, 0.2, 1.0, 0.1])
    def test_z_at_the_edges_of_cells(self, sz):
        # the offset field's own coordinate
        pts = self._edge_cloud(2, sz)
        cs = CellSize(1.0, 1.0, sz)
        assert _packs(pts, cs)
        self._check(pts, cs)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.just(3)),
            elements=st.one_of(
                st.floats(-10.0, 10.0, allow_subnormal=True),
                st.sampled_from([-5e-324, 5e-324, -0.0, 0.0, 1.5, np.nextafter(1.5, 0.0)]),
            ),
        ),
        _CELLSIZES,
    )
    def test_one_to_four_points_with_the_widest_offset_field(self, pts, cs):
        self._check(pts, cs)

    @pytest.mark.parametrize("shift", [1e6, -1e6])
    def test_coordinates_offset_by_a_million(self, rng, shift):
        # at 1e6 a double's step is 1.2e-10, so unquantised neighbours sit
        # a few steps apart and many tie on the fixed-point offset
        base = np.round(rng.uniform(-3, 3, size=(600, 3)), 1)
        base[:200] += rng.integers(-3, 4, size=(200, 3)) * 2.0**-30
        pts = base + shift
        for cs in (CellSize(1.5, 1.0, 0.2), CellSize(0.3, 0.7, 0.1)):
            assert _packs(pts, cs)
            self._check(pts, cs)

    def test_negative_zero_ties_with_zero(self):
        # -0.0 and 0.0 are equal coordinates: only the later coordinates
        # and input position order them, in z, x and y alike
        pts = np.array(
            [
                [0.0, 0.5, 0.5],
                [-0.0, 0.5, 0.5],
                [0.0, -0.0, 0.5],
                [-0.0, 0.0, 0.5],
                [-0.0, 0.25, 0.5],
                [0.0, 0.25, 0.0],
                [-5e-324, 0.5, 0.5],
                [5e-324, 0.5, 0.5],
                [0.5, 0.5, 0.0],
                [0.5, 0.5, -0.0],
                [0.25, 0.5, -0.0],
                [0.5, 0.5, -5e-324],
            ]
        )
        self._check(pts, CellSize(1.5, 1.0, 1.0))
        self._check(pts[::-1], CellSize(1.5, 1.0, 1.0))

    def test_tiny_cells(self):
        # 2^bz / sz would overflow at sz = 1e-300; z / sz does not
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3e-300], [1.0, 0.0, 2.5e-300], [0.0, 0.0, 0.0]])
        self._check(pts, CellSize(1.0, 1.0, 1e-300))
        self._check(pts[:, [2, 1, 0]], CellSize(1e-300, 1.0, 1.0))


class TestOccupiedBelow:
    def _grid(self):
        pts = np.array(
            [
                [0.5, 0.5, 0.5],  # iz = 0
                [0.5, 0.5, 3.5],  # iz = 3
                [5.5, 0.5, 2.5],  # lone cell in another column
            ]
        )
        return build_grid(pts, CellSize(1, 1, 1))

    def _below(self, grid, index):
        below = occupied_below(grid)[grid.find(index)]
        return None if below < 0 else tuple(grid.cells[below].tolist())

    def test_finds_nearest_occupied(self):
        assert self._below(self._grid(), (0, 0, 3)) == (0, 0, 0)

    def test_nothing_below_bottom(self):
        assert self._below(self._grid(), (0, 0, 0)) is None

    def test_single_cell_column(self):
        assert self._below(self._grid(), (5, 0, 2)) is None

    def test_matches_brute_force(self, rng):
        pts = rng.uniform(-8, 8, size=(600, 3))
        grid = build_grid(pts, CellSize(1, 1, 1))
        cells = grid.cells.tolist()
        below = occupied_below(grid)
        for c, idx in enumerate(cells):
            same_col = [other for other in cells if other[:2] == idx[:2] and other[2] < idx[2]]
            if not same_col:
                assert below[c] == -1
            else:
                assert cells[below[c]] == max(same_col, key=lambda t: t[2])


class TestRebin:
    """rebin against build_grid on the kept points, array for array."""

    # every array of the grid, so none can drop out of the comparison
    FIELDS = tuple(f.name for f in dataclasses.fields(VoxelGrid) if f.name != "cellsize")
    COARSE = CellSize(1.5, 1.0, 1.5)
    FINE = CellSize(1.5, 1.0, 0.2)

    def _check(self, pts, keep, coarse=COARSE, fine=FINE):
        """The grid re-binned by the flags of the ``keep`` ids in the
        parent's order equals a fresh one of those points, its ``order``
        through the map ``keep[want.order]``, and is a cut of the parent:
        its ``order`` and ``points`` are the parent's at the flagged
        positions.  Each cell's parent row is the parent cell holding
        exactly its points, or -1; returns both grids and the rows."""
        keep = np.asarray(keep, dtype=np.int64)
        parent = build_grid(pts, coarse)
        flags = id_mask(keep, len(pts))[parent.order]
        grid, rows = rebin(parent, flags, fine)
        assert grid.order.tobytes() == parent.order[flags].tobytes()
        assert grid.points.tobytes() == parent.points[flags].tobytes()
        want = build_grid(pts[keep], fine)
        assert grid.cellsize == want.cellsize
        for name in self.FIELDS:
            a, b = getattr(grid, name), getattr(want, name)
            if name == "order":
                b = keep[b]
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        held = {frozenset(parent.order[parent.span(r)]): r for r in range(len(parent.cells))}
        oracle = [
            held.get(frozenset(grid.order[grid.span(c)]), -1) for c in range(len(grid.cells))
        ]
        assert rows.dtype == np.int64 and rows.tolist() == oracle
        return parent, grid, rows

    @staticmethod
    def _sources(parent, grid):
        """Per cell of ``grid``, the parent rows its points come from."""
        row = np.repeat(np.arange(len(parent.cells)), parent.counts)[np.argsort(parent.order)]
        return [set(row[grid.order[grid.span(c)]].tolist()) for c in range(len(grid.cells))]

    def test_a_slab_straddling_a_cell_boundary_is_shared(self, rng):
        # the slab [-1.6, -1.4) straddles the Phase-I boundary at -1.5, so
        # the cells below and above it in each column share it; a flat
        # patch elsewhere keeps cells of its own
        n = 600
        pts = np.column_stack(
            [rng.uniform(-4, 4, n), rng.uniform(-3, 3, n), rng.uniform(-1.58, -1.42, n)]
        )
        pts[:100, 2] = rng.uniform(0.41, 0.59, 100)
        keep = np.flatnonzero(rng.random(n) < 0.9)
        parent, grid, rows = self._check(pts, keep)
        sources = self._sources(parent, grid)
        assert any(len(s) == 2 for s in sources)
        assert (rows >= 0).any() and (rows < 0).any()

    def test_a_cell_spread_over_many_slabs(self, rng):
        pts = rng.uniform(0, 1, (300, 3)) * [1.5, 1.0, 1.5]
        parent, grid, rows = self._check(pts, np.arange(300))
        assert len(parent.cells) == 1 and len(grid.cells) >= 3
        assert (rows == -1).all()

    def test_exact_duplicates_on_both_sides_of_a_slab_edge(self, rng):
        # one (x, y) column: copies of the last double below the edge at
        # 0.4 and of 0.4 itself, interleaved with other points, so the
        # cut must keep the copies in input order
        edge = 2 * 0.2
        below = [0.3, 0.5, np.nextafter(edge, -np.inf)]
        above = [0.3, 0.5, edge]
        pts = np.array([below, above, [0.3, 0.5, 0.1], above, below, [0.2, 0.5, 0.5], below, above])
        pts = np.vstack([pts, rng.uniform(0, 1, (20, 3))])
        fine = build_grid(pts, self.FINE)
        assert fine.find((0, 0, 1)) >= 0 and fine.find((0, 0, 2)) >= 0
        for keep in (np.arange(len(pts)), np.arange(1, len(pts), 2), np.array([0, 3, 4, 7])):
            self._check(pts, keep)

    def test_z_on_cell_and_slab_edges(self):
        # z exactly at k * 0.2 and k * 1.5, their neighbouring doubles,
        # negative z and both zeros, in two columns
        zs = np.concatenate([np.arange(-12, 13) * 0.2, np.arange(-3, 4) * 1.5, [-0.0, 0.0]])
        zs = np.concatenate([zs, np.nextafter(zs, -np.inf), np.nextafter(zs, np.inf)])
        pts = np.column_stack(
            [np.tile([0.7, 2.0], len(zs)), np.tile([0.5, -0.5], len(zs)), np.repeat(zs, 2)]
        )
        self._check(pts, np.arange(len(pts)))
        self._check(pts, np.arange(0, len(pts), 3))

    def test_keeping_only_a_cells_synthetic_points(self, rng):
        # Phase II keeps the synthetic seed lattice even from Phase-I cells
        # it keeps no other point of
        from gridseg.cloud_io import PointCloud, inject_synthetic_seed

        cloud = PointCloud(points=rng.uniform(-4, 4, (400, 3)) * [1, 1, 0.5] - [0, 0, 1.7])
        seeded, info = inject_synthetic_seed(cloud, 2.7, 1.723, 0.3)
        synthetic = np.arange(len(cloud), len(seeded.points))
        parent, grid, rows = self._check(seeded.points, synthetic)
        assert (rows == -1).any()
        self._check(seeded.points, np.union1d(np.arange(0, len(cloud), 2), synthetic))

    def test_keeping_nothing(self, rng):
        _, grid, rows = self._check(rng.uniform(-3, 3, (50, 3)), [])
        assert len(grid.cells) == 0 and len(rows) == 0

    def test_a_finer_height_without_a_slab_index_is_a_contract_violation(self):
        # 1e18 m lies 6.7e17 coarse cells up, but 1e21 fine slabs
        parent = build_grid(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e18]]), self.COARSE)
        fine = CellSize(1.5, 1.0, 1e-3)
        with pytest.raises(ContractViolationError):
            rebin(parent, np.ones(2, dtype=bool), fine)
        grid, _ = rebin(parent, np.array([True, False]), fine)
        assert grid.cells.tolist() == [[0, 0, 0]]

    def test_columns_too_far_apart_for_the_packed_key(self, rng):
        # split cells at opposite corners: their cell codes span more than
        # the packed key holds, so both grids are sorted by the lexsort
        pts = rng.uniform(0, 1.4, (80, 3))
        pts[40:] += 4e6
        assert not _packs(pts, self.FINE)
        self._check(pts, np.arange(80))

    def test_another_footprint_is_refused(self):
        parent = build_grid(np.zeros((3, 3)), self.COARSE)
        with pytest.raises(ContractViolationError):
            rebin(parent, np.ones(3, dtype=bool), CellSize(1.0, 1.0, 0.2))

    @given(
        _tied_clouds(),
        st.sampled_from([(1.5, 0.2), (1.5, 0.25), (0.2, 1.5), (0.3, 0.1)]),
        st.integers(0, 2**32 - 1),
    )
    def test_small_clouds(self, pts, heights, seed):
        keep = np.flatnonzero(np.random.default_rng(seed).random(len(pts)) < 0.7)
        coarse, fine = (CellSize(1.5, 1.0, sz) for sz in heights)
        self._check(pts, keep, coarse, fine)
