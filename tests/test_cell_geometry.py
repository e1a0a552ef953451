import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gridseg as gs
from gridseg import cell_geometry
from gridseg.cell_geometry import (
    GeometryParams,
    Sparsity,
    centre_segments,
    centred_covariance,
    eigen_kinds,
    eigenplane_fits,
    ransac_plane,
    segment_covariance,
    segment_sparsity,
    sorted_eigen,
    tilt_deg,
)
from gridseg.errors import ContractViolationError, FitFailureError
from gridseg.pipeline import classify_cells
from gridseg.voxel_grid import KINDS, CellKind, CellSize, GroundState, build_grid

PARAMS = GeometryParams()


def _loop_covariance(pts):
    # explicit two-pass oracle: (1/N) sum of outer products of deviations
    mean = pts.mean(axis=0)
    C = np.zeros((3, 3))
    for p in pts:
        d = p - mean
        C += np.outer(d, d)
    return C / len(pts)


def _covariance_of(points):
    """``segment_covariance`` of one point set, as one segment."""
    pts = np.asarray(points, dtype=np.float64)
    return segment_covariance(pts, [len(pts)])[0]


class TestCovariance:
    def test_single_point_is_zero(self):
        np.testing.assert_array_equal(_covariance_of([[1.0, 2.0, 3.0]]), np.zeros((3, 3)))

    def test_collinear_triple(self):
        C = _covariance_of([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        expected = np.zeros((3, 3))
        expected[0, 0] = 2.0 / 3.0
        np.testing.assert_allclose(C, expected, atol=1e-15)

    def test_matches_loop_oracle(self, rng):
        pts = rng.normal(size=(100, 3)) * [3.0, 1.0, 0.2]
        C = _covariance_of(pts)
        np.testing.assert_allclose(C, _loop_covariance(pts), rtol=1e-9, atol=1e-12)

    def test_translation_invariance(self, rng):
        pts = rng.normal(size=(200, 3))
        shifted = pts + np.array([120.0, -45.0, 7.0])
        np.testing.assert_allclose(_covariance_of(pts), _covariance_of(shifted), atol=1e-9)


def _two_pass_covariance(points, counts):
    # the (n, 6) gather formula the column-wise kernel replaced, kept as the
    # oracle: the same products summed in the same order
    starts = np.cumsum(counts) - counts
    means = np.add.reduceat(points, starts, axis=0) / counts[:, None]
    centered = points - np.repeat(means, counts, axis=0)
    prods = centered[:, [0, 0, 0, 1, 1, 2]] * centered[:, [0, 1, 2, 1, 2, 2]]
    m6 = np.add.reduceat(prods, starts, axis=0) / counts[:, None]
    return m6[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)


def _cells_like_a_scan(rng, counts):
    """Back-to-back segments of points with per-segment offsets up to 100 m
    and extents from a few mm to a few m."""
    offsets = np.repeat(rng.uniform(-100.0, 100.0, (len(counts), 3)), counts, axis=0)
    extents = np.repeat(10.0 ** rng.uniform(-2.5, 0.5, (len(counts), 3)), counts, axis=0)
    return offsets + extents * rng.random((int(np.sum(counts)), 3))


class TestSegmentCovariance:
    def test_bitwise_equal_to_two_pass_formula(self, rng):
        counts = np.concatenate([np.arange(1, 601), rng.integers(1, 601, 200)])
        pts = _cells_like_a_scan(rng, counts)
        got = segment_covariance(pts, counts)
        assert np.array_equal(got, _two_pass_covariance(pts, counts))

    @given(st.lists(st.integers(1, 600), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_two_pass_formula_any_lengths(self, counts, seed):
        counts = np.array(counts)
        pts = _cells_like_a_scan(np.random.default_rng(seed), counts)
        assert np.array_equal(segment_covariance(pts, counts), _two_pass_covariance(pts, counts))

    def test_grid_centroids_as_means_give_the_same_bits(self, rng):
        from gridseg.voxel_grid import CellSize, build_grid

        pts = rng.uniform(-20.0, 20.0, (20000, 3)) * [1.0, 1.0, 0.1]
        grid = build_grid(pts, CellSize(1.5, 1.0, 0.2))
        assert np.array_equal(grid.points, pts[grid.order])
        want = _two_pass_covariance(grid.points, grid.counts)
        # the pipeline's path: the points centred on the grid's centroids
        centred = grid.points - np.repeat(grid.centroids, grid.counts, axis=0)
        assert np.array_equal(centred_covariance(centred, grid.counts), want)
        assert np.array_equal(segment_covariance(grid.points, grid.counts), want)

    def test_centred_points_lie_in_contiguous_coordinate_rows(self, rng):
        # centre_segments writes one contiguous row per coordinate and
        # returns its (n, 3) transpose, with the bits of the row-repeat
        # formula; the covariances and plane fits read it as they read a
        # C-ordered copy, to the bit
        counts = np.concatenate([np.arange(1, 301), rng.integers(1, 301, 100)])
        pts = _cells_like_a_scan(rng, counts)
        means = np.add.reduceat(pts, np.cumsum(counts) - counts, axis=0) / counts[:, None]
        centred = centre_segments(pts, means, counts)
        assert centred.shape == pts.shape and centred.T.flags.c_contiguous
        copy = np.ascontiguousarray(centred)
        assert copy.flags.c_contiguous
        assert copy.tobytes() == (pts - np.repeat(means, counts, axis=0)).tobytes()
        C = centred_covariance(centred, counts)
        assert C.tobytes() == centred_covariance(copy, counts).tobytes()
        lam, vec = sorted_eigen(C)
        fit = rng.random(len(counts)) < 0.8
        got = eigenplane_fits(centred, counts, lam, vec, fit, 0.05)
        want = eigenplane_fits(copy, counts, lam, vec, fit, 0.05)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes() and 0 < got[1].sum() < len(pts)


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def _hard_matrices(rng, scale):
    """Covariances that strain a closed-form 3x3 eigen solver, for points at
    ``scale`` metres (matrices at scale**2)."""
    out = []
    t = np.linspace(0.0, 4.0, 120)
    for _ in range(3):  # near-collinear points with 1e-4 noise (acceptance criterion 3)
        line = np.outer(t, rng.normal(size=3)) + rng.normal(0.0, 1e-4, (120, 3))
        out.append(_covariance_of(scale * line))
    for _ in range(3):  # near-isotropic discs: a near-double top eigenvalue
        r, a = np.sqrt(rng.random(200)), rng.uniform(0.0, 2 * np.pi, 200)
        disc = np.column_stack([r * np.cos(a), r * np.sin(a), rng.normal(0.0, 1e-3, 200)])
        out.append(_covariance_of(scale * disc @ _rotation(rng).T))
    out.append(_covariance_of(scale * rng.normal(size=(400, 3))))  # near-isotropic blob
    s2 = scale * scale
    for spectrum in ([1.0, 0.0, 0.0], [1.0, 0.3, 0.0], [1.0, 1.0, 0.0], [1.0, 0.2, 0.2]):
        rot = _rotation(rng)  # rank 1, rank 2, near-repeated after rounding
        out.append(s2 * (rot * spectrum) @ rot.T)
    for spectrum in ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 0.5], [0.5, 2.0, 0.5]):
        out.append(s2 * np.diag(spectrum))  # zero and exactly repeated eigenvalues
    return np.array(out)


class TestSortedEigen:
    @given(st.integers(0, 2**32 - 1), st.floats(-6.0, 4.0))
    def test_agrees_with_lapack_to_round_off(self, seed, exponent):
        C = _hard_matrices(np.random.default_rng(seed), 10.0**exponent)
        w, v = sorted_eigen(C)
        eps = np.finfo(np.float64).eps
        norm = np.sqrt((C * C).sum(axis=(1, 2)))[:, None]
        assert (np.diff(w, axis=1) <= 0).all() and (w >= 0).all()
        gram = np.einsum("kij,kil->kjl", v, v)
        assert np.abs(gram - np.eye(3)).max() <= 8 * eps
        residual = np.linalg.norm(np.einsum("kij,kjl->kil", C, v) - v * w[:, None, :], axis=1)
        assert (residual <= 16 * eps * norm).all()
        lapack = np.maximum(np.linalg.eigvalsh(C)[:, ::-1], 0.0)
        assert (np.abs(w - lapack) <= 16 * eps * norm).all()
        # criterion 3: the lambda2 / lambda3 split of near-collinear points survives
        assert (eigen_kinds(w[:3], PARAMS) == CellKind.LINE).all()
        for i in range(len(C)):
            alone_w, alone_v = sorted_eigen(C[i : i + 1])
            assert np.array_equal(alone_w[0], w[i]) and np.array_equal(alone_v[0], v[i])

    def test_bits_match_pinned_digest(self):
        # sha256 of the eigenvalues' and eigenvectors' bytes on a seeded
        # batch: hard matrices, the covariances of a scene grid's cells and
        # edge cases (zero, rank 1 from two points, isotropic, a repeated
        # diagonal entry, entries near the smallest normal double); any
        # change of the solver's arithmetic shows here
        rng = np.random.default_rng(39)
        boxes = (gs.BoxSpec(3.0, 2.0, 1.5, 1.0, 1.2), gs.BoxSpec(-4.0, -3.0, 2.0, 2.0, 0.8))
        scene = gs.make_scene(gs.SceneSpec(extent=16.0, n_ground=3000, boxes=boxes, seed=39))
        grid = build_grid(scene.points, CellSize(1.5, 1.5, 0.2))
        centred = centre_segments(grid.points, grid.centroids, grid.counts)
        tiny = np.finfo(np.float64).tiny
        M = np.array([[4.0, 1.0, -2.0], [1.0, 3.0, 0.5], [-2.0, 0.5, 1.0]])
        C = np.concatenate(
            [
                _hard_matrices(rng, 1.0),
                _hard_matrices(rng, 1e-3),
                centred_covariance(centred, grid.counts),
                [np.zeros((3, 3))],
                [_covariance_of([[0.3, -1.2, 0.7], [1.1, 0.4, 0.2]])],
                [np.eye(3) * 0.25],
                [np.diag([0.5, 2.0, 0.5])],
                [M * 8 * tiny, M * 1e-154],
            ]
        )
        # the batch itself: its hard matrices go through LAPACK's qr and a
        # BLAS product, so another numpy build can change them; this tells
        # that apart from a change of the solver
        batch = hashlib.sha256(C.tobytes()).hexdigest()
        assert batch == "889d351f8ead7b3d852703e7a791c14eb7e3cbce209af5f0b441b8f55546f6e7"
        w, v = sorted_eigen(C)
        assert w.shape == (len(C), 3) and v.shape == (len(C), 3, 3)
        digest = hashlib.sha256(w.tobytes() + v.tobytes()).hexdigest()
        assert digest == "acbf033faf6f4696a70c7a5e3e5ed0478d6d0932a3abe9b5daf7451e0712c412"
        # each matrix solved alone gives its batched row, byte for byte
        for i in range(len(C)):
            alone_w, alone_v = sorted_eigen(C[i])
            assert alone_w.tobytes() == w[i].tobytes() and alone_v.tobytes() == v[i].tobytes()

    def test_rows_across_a_block_seam_keep_their_bits_and_slots(self, monkeypatch):
        # one block of the solver and three rows more: each row is the
        # matrix solved alone, to the bit, with every value and vector in
        # its own slot
        rng = np.random.default_rng(42)
        k = cell_geometry.EIGEN_BLOCK + 3
        X = rng.normal(size=(k, 3, 4)) * rng.uniform(0.01, 10.0, (k, 3, 1))
        C = np.einsum("kil,kjl->kij", X, X) / 4
        C = (C + C.transpose(0, 2, 1)) / 2  # symmetric to the bit
        w, v = sorted_eigen(C)
        assert w.shape == (k, 3) and v.shape == (k, 3, 3)
        # slot-major buffers, returned as their transposed views
        assert w.T.flags.c_contiguous and v.transpose(2, 1, 0).flags.c_contiguous
        for i in (0, k - 4, k - 3, k - 1):  # both sides of the seam
            alone_w, alone_v = sorted_eigen(C[i])
            assert alone_w.tobytes() == w[i].tobytes() and alone_v.tobytes() == v[i].tobytes()
        # every row: the same bits as the batch solved as one block ...
        monkeypatch.setattr(cell_geometry, "EIGEN_BLOCK", k)
        one_w, one_v = sorted_eigen(C)
        assert one_w.tobytes() == w.tobytes() and one_v.tobytes() == v.tobytes()
        # ... and as blocks of 4, where every row is also solved alone
        monkeypatch.setattr(cell_geometry, "EIGEN_BLOCK", 4)
        small_w, small_v = sorted_eigen(C[:11])
        assert small_w.tobytes() == w[:11].tobytes() and small_v.tobytes() == v[:11].tobytes()
        for i in range(11):
            alone_w, alone_v = sorted_eigen(C[i])
            assert alone_w.tobytes() == w[i].tobytes() and alone_v.tobytes() == v[i].tobytes()
        # each value with its own vector, in descending order
        eps = np.finfo(np.float64).eps
        norm = np.sqrt((C * C).sum(axis=(1, 2)))[:, None]
        residual = np.linalg.norm(np.einsum("kij,kjl->kil", C, v) - v * w[:, None, :], axis=1)
        assert (residual <= 16 * eps * norm).all() and (np.diff(w, axis=1) <= 0).all()
        lapack = np.linalg.eigvalsh(C)[:, ::-1]
        assert (np.abs(w - lapack) <= 16 * eps * norm).all()


def _eigen_of(C):
    """``sorted_eigen`` and ``eigen_kinds`` of one covariance: its eigenvalues,
    eigenvectors and kind."""
    w, v = sorted_eigen(C)
    return w[0], v[0], CellKind(eigen_kinds(w, PARAMS)[0])


class TestEigenClassify:
    def test_perfect_line(self):
        _, _, kind = _eigen_of(np.diag([1.0, 0.0, 0.0]))
        assert kind is CellKind.LINE

    def test_perfect_plane(self):
        w, _, kind = _eigen_of(np.diag([1.0, 1.0, 0.0]))
        assert kind is CellKind.PLANAR
        assert w[0] / w.sum() == pytest.approx(0.5)

    def test_isotropic(self):
        w, _, kind = _eigen_of(np.eye(3))
        assert kind is CellKind.NON_PLANAR
        assert w[0] / w.sum() == pytest.approx(1.0 / 3.0)

    def test_zero_matrix_degenerate(self):
        _, _, kind = _eigen_of(np.zeros((3, 3)))
        assert kind is CellKind.NON_PLANAR

    def test_thin_flat_strip_is_planar_not_line(self):
        # dominant axis plus a clear second axis: surface, not a line
        _, _, kind = _eigen_of(np.diag([1.0, 0.08, 0.0004]))
        assert kind is CellKind.PLANAR

    def test_eigenvalue_sum_equals_trace(self, rng):
        pts = rng.normal(size=(50, 3)) * [2.0, 0.7, 0.1]
        C = _covariance_of(pts)
        w, _, _ = _eigen_of(C)
        assert w.sum() == pytest.approx(np.trace(C), rel=1e-9)

    @given(
        arrays(
            np.float64,
            (10, 3),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_ratio_bounds(self, pts):
        C = _covariance_of(pts)
        w, _, _ = _eigen_of(C)
        if w.sum() > 0:
            assert 1.0 / 3.0 - 1e-9 <= w[0] / w.sum() <= 1.0 + 1e-9

    def test_orthonormal_eigenvectors(self, rng):
        C = _covariance_of(rng.normal(size=(40, 3)))
        _, v, _ = _eigen_of(C)
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-6)


def _classified_cell(points, slope_threshold_deg=30.0):
    """``classify_cells`` on the one cell of a 1.5 m grid holding ``points``:
    (kind, state, slope), the slope NaN without a plane fit.  The grid keeps
    no slope, so it is the slope of ``ransac_plane`` on the cell's points in
    grid order, which fits the cell as ``classify_cells`` does."""
    grid = build_grid(np.asarray(points, dtype=np.float64), CellSize(1.5, 1.5, 1.5))
    assert len(grid.cells) == 1
    classify_cells(grid, GeometryParams(slope_threshold_deg=slope_threshold_deg))
    slope = ransac_plane(grid.points, 0.125)[0].slope_deg if grid.fitted[0] else math.nan
    return CellKind(KINDS[grid.outcome[0]]), GroundState(grid.state[0]), slope


def _line(direction, n=20):
    """n points along ``direction`` from (0.2, 0.2, 0.2), inside one 1.5 m cell."""
    return 0.2 + np.linspace(0.0, 1.0, n)[:, None] * np.asarray(direction, dtype=np.float64)


def _plane(normal, n=200, seed=7):
    """n points of the plane through (0.75, 0.75, 0.75) normal to ``normal``,
    inside one 1.5 m cell."""
    normal = np.asarray(normal, dtype=np.float64)
    u = np.cross(normal, [0.0, 1.0, 0.0] if abs(normal[1]) < 0.9 else [1.0, 0.0, 0.0])
    w = np.cross(normal, u)
    uv = np.random.default_rng(seed).uniform(-0.4, 0.4, size=(n, 2))
    return 0.75 + uv[:, :1] * u / np.linalg.norm(u) + uv[:, 1:] * w / np.linalg.norm(w)


class TestClassifyLineCell:
    # a line cell is tentative within the threshold of horizontal, else an obstacle
    def test_horizontal_scan_line(self):
        assert _classified_cell(_line([1.0, 0, 0]))[:2] == (CellKind.LINE, GroundState.TENTATIVE)

    def test_vertical_pole(self):
        assert _classified_cell(_line([0, 0, 1.0]))[:2] == (CellKind.LINE, GroundState.OBSTACLE)

    def test_45_degree_line_exceeds_30(self):
        e1 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        assert _classified_cell(_line(e1))[:2] == (CellKind.LINE, GroundState.OBSTACLE)


class TestRansacPlane:
    def test_noiseless_plane_fixed_point(self, rng):
        pts = np.column_stack([rng.uniform(-1, 1, (50, 2)), np.zeros(50)])
        plane, inliers, outliers = ransac_plane(pts, 0.125)
        assert len(inliers) == 50 and len(outliers) == 0
        assert plane.slope_deg <= 1e-6
        assert abs(plane.offset) <= 1e-9
        np.testing.assert_allclose(plane.normal, [0, 0, 1], atol=1e-9)

    def test_single_elevated_outlier(self, rng):
        pts = np.column_stack([rng.uniform(-1, 1, (50, 2)), np.zeros(50)])
        pts = np.vstack([pts, [0.0, 0.0, 1.0]])
        _, inliers, outliers = ransac_plane(pts, 0.125)
        assert outliers.tolist() == [50]
        assert len(inliers) == 50

    def test_noisy_ramp_slope_vs_least_squares_oracle(self, rng):
        x = rng.uniform(-2, 2, 200)
        y = rng.uniform(-2, 2, 200)
        z = 0.05 * x + rng.uniform(-0.01, 0.01, 200)
        pts = np.column_stack([x, y, z])
        # oracle: closed-form total least squares on the full set
        d = pts - pts.mean(axis=0)
        _, v = np.linalg.eigh((d.T @ d) / len(pts))
        n = v[:, 0] if v[2, 0] >= 0 else -v[:, 0]
        oracle_slope = math.degrees(math.acos(n[2]))
        plane, _, _ = ransac_plane(pts, 0.125)
        assert abs(plane.slope_deg - oracle_slope) <= 1.0
        assert abs(plane.slope_deg - math.degrees(math.atan(0.05))) <= 1.0

    def test_deterministic_inlier_sets(self, rng):
        pts = rng.normal(size=(80, 3)) * [1, 1, 0.05]
        a = ransac_plane(pts, 0.05)
        b = ransac_plane(pts, 0.05)
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])
        np.testing.assert_array_equal(a[0].normal, b[0].normal)

    def test_final_count_not_below_any_candidate(self, rng):
        # the eigenplane is the one candidate, and its inliers are final
        pts = rng.normal(size=(60, 3)) * [1, 1, 0.2]
        pts[::3, 2] += rng.normal(0, 0.5, len(pts[::3]))
        threshold = 0.1
        _, inliers, _ = ransac_plane(pts, threshold)
        q = pts - pts.mean(axis=0)
        normal = np.linalg.eigh(q.T @ q / len(pts))[1][:, 0]
        best = np.flatnonzero(np.abs(q @ normal) <= threshold)
        assert 3 <= len(best) < len(pts)  # the eigenplane leaves some points out
        np.testing.assert_array_equal(inliers, best)

    @pytest.mark.parametrize(
        "threshold, ground_kept, clutter_kept", [(0.05, 17, 0), (0.125, 300, 0), (0.5, 300, 5)]
    )
    def test_clutter_tilts_the_plane(self, threshold, ground_kept, clutter_kept):
        # demo 03's scene: 300 points on a 5% grade with +-0.01 m noise and
        # 30 clutter points 0.5-1.0 m up.  The eigenplane of all 330 leans
        # towards the clutter, so a tight threshold drops most of the ground
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-2, 2, 300), rng.uniform(-2, 2, 300)
        ground = np.column_stack([x, y, 0.05 * x + rng.uniform(-0.01, 0.01, 300)])
        clutter = np.column_stack([rng.uniform(-0.5, 0.5, (30, 2)), rng.uniform(0.5, 1.0, 30)])
        plane, inliers, _ = ransac_plane(np.vstack([ground, clutter]), threshold)
        assert plane.slope_deg > math.degrees(math.atan(0.05)) + 0.4
        assert np.count_nonzero(inliers < 300) == ground_kept
        assert np.count_nonzero(inliers >= 300) == clutter_kept

    def test_too_few_points(self):
        with pytest.raises(FitFailureError):
            ransac_plane(np.zeros((2, 3)), 0.1)

    def test_all_collinear_fails(self):
        pts = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
        with pytest.raises(FitFailureError):
            ransac_plane(pts, 0.1)

    def test_slope_invariant_under_z_rotation(self, rng):
        x = rng.uniform(-1, 1, 150)
        y = rng.uniform(-1, 1, 150)
        z = 0.3 * x + rng.normal(0, 0.005, 150)
        pts = np.column_stack([x, y, z])
        theta = 1.1
        R = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0],
                [math.sin(theta), math.cos(theta), 0],
                [0, 0, 1],
            ]
        )
        p1, _, _ = ransac_plane(pts, 0.125)
        p2, _, _ = ransac_plane(pts @ R.T, 0.125)
        assert abs(p1.slope_deg - p2.slope_deg) <= 1e-6


def _oracle_ransac_plane(points, inlier_threshold, ends=None):
    """The one-cell plane fit that ``eigenplane_fits`` batches (reference): the
    eigenplane and the points within ``inlier_threshold`` of it.

    Returns (unit normal with z >= 0, offset, inlier indices, outlier
    indices); raises FitFailureError like ``ransac_plane``.  A given
    ``ends`` list receives "whole" when the eigenplane holds every point,
    or "eigenplane" otherwise.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if n < 3:
        raise FitFailureError(f"plane fit needs at least 3 points, got {n}")
    center = pts.mean(axis=0)
    q = pts - center
    w, v = np.linalg.eigh(q.T @ q / n)
    if w[1] <= 1e-12:  # the points lie on a line: no plane is determined
        raise FitFailureError("the points are collinear")
    normal = v[:, 0]
    best_mask = np.abs(q @ normal) <= inlier_threshold
    if ends is not None:
        ends.append("whole" if best_mask.all() else "eigenplane")
    offset = -float(np.dot(normal, center))
    norm = float(np.linalg.norm(normal))
    normal, offset = normal / norm, offset / norm
    if normal[2] < 0:
        normal, offset = -normal, -offset
    return normal, offset, np.flatnonzero(best_mask), np.flatnonzero(~best_mask)


def _fit_cells(cells, inlier_threshold):
    """``eigenplane_fits`` of every cell of a list of point sets, with each
    set's centred points and eigenpairs computed as the pipeline computes
    them.  Returns (slopes, inliers)."""
    counts = np.array([len(c) for c in cells])
    pts = np.vstack(cells)
    centroids = np.add.reduceat(pts, np.cumsum(counts) - counts, axis=0) / counts[:, None]
    centred = pts - np.repeat(centroids, counts, axis=0)
    lam, vec = sorted_eigen(centred_covariance(centred, counts))
    fit = np.ones(len(counts), dtype=bool)
    return eigenplane_fits(centred, counts, lam, vec, fit, inlier_threshold)


def _random_cell(rng, n, outlier_share):
    """n points near a random plane through a 1.5 m cell, some of them scattered."""
    xy = rng.uniform(0.0, 1.5, size=(n, 2))
    tilt = rng.uniform(-0.6, 0.6, 2)
    z = xy @ tilt + rng.normal(0.0, 0.02, n)
    out = rng.random(n) < outlier_share
    z[out] += rng.uniform(0.2, 1.5, out.sum())
    return np.column_stack([xy, z]) + rng.uniform(-50, 50, 3)


def _far_outlier_cell(rng, n):
    """n points near a random plane with noise 0.04 m, under 1% of them 8 m
    above it: the eigenplane tilts away from the rest."""
    cell = _random_cell(rng, n, 0.0)
    cell[:, 2] += rng.normal(0.0, 0.04, n)
    cell[: n // 150 + 1, 2] += 8.0
    return cell


class TestRansacCells:
    def _cells(self):
        rng = np.random.default_rng(2024)
        sizes = rng.integers(3, 400, 160)
        shares = rng.choice([0.0, 0.005, 0.05, 0.3, 0.6], 160)
        cells = [_random_cell(rng, int(n), share) for n, share in zip(sizes, shares)]
        line = np.column_stack([np.linspace(0, 1, 12), 2 * np.linspace(0, 1, 12), np.zeros(12)])
        cells[5:5] = [line, line[:3]]
        cells[80:80] = [_random_cell(rng, 5000, 0.05)]
        cells += [_far_outlier_cell(rng, int(n)) for n in rng.integers(150, 400, 16)]
        return cells

    def test_matches_per_cell_oracle(self):
        cells = self._cells()
        counts = np.array([len(c) for c in cells])
        slopes, inliers = _fit_cells(cells, 0.125)
        starts = np.cumsum(counts) - counts
        full_runs = failures = 0
        ends = []
        for i, pts in enumerate(cells):
            seg = inliers[starts[i] : starts[i] + counts[i]]
            try:
                normal, offset, inl, out = _oracle_ransac_plane(pts, 0.125, ends)
            except FitFailureError:
                failures += 1
                assert np.isnan(slopes[i]) and not seg.any()
                with pytest.raises(FitFailureError):
                    ransac_plane(pts, 0.125)
                continue
            assert not np.isnan(slopes[i])
            np.testing.assert_array_equal(np.flatnonzero(seg), inl)
            np.testing.assert_array_equal(np.flatnonzero(~seg), out)
            plane, _, _ = ransac_plane(pts, 0.125)
            np.testing.assert_allclose(plane.normal, normal, rtol=0, atol=1e-9)
            np.testing.assert_allclose(plane.offset, offset, rtol=0, atol=1e-9)
            assert plane.slope_deg == slopes[i]
            full_runs += len(inl) < 0.99 * len(pts)
        assert failures == 2  # the two collinear cells
        assert full_runs > 20
        # some eigenplanes hold every point of their cell, others not
        assert set(ends) == {"whole", "eigenplane"}

    def test_batch_matches_each_cell_fitted_alone(self):
        cells = self._cells()
        counts = np.array([len(c) for c in cells])
        slopes, inliers = _fit_cells(cells, 0.125)
        starts = np.cumsum(counts) - counts
        for i, pts in enumerate(cells):
            alone_slopes, alone_inliers = _fit_cells([pts], 0.125)
            np.testing.assert_array_equal(slopes[i : i + 1], alone_slopes)
            np.testing.assert_array_equal(inliers[starts[i] : starts[i] + counts[i]], alone_inliers)

    def test_one_cell_wrapper_matches_oracle(self, rng):
        pts = _random_cell(rng, 90, 0.3)
        plane, inliers, outliers = ransac_plane(pts, 0.1)
        normal, offset, inl, out = _oracle_ransac_plane(pts, 0.1)
        np.testing.assert_array_equal(inliers, inl)
        np.testing.assert_array_equal(outliers, out)
        np.testing.assert_allclose(plane.normal, normal, rtol=0, atol=1e-9)
        assert plane.offset == pytest.approx(offset, abs=1e-9)

    def test_too_few_points_per_cell_are_not_fitted(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 0]], dtype=float)
        slopes, inliers = _fit_cells([pts[:2], pts[2:]], 0.1)
        assert inliers.tolist() == [False, False, True, True, True]
        assert np.isnan(slopes[0]) and slopes[1] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("threshold", [0.0, -0.1])
    def test_non_positive_inlier_threshold_is_a_contract_violation(self, threshold):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.01]])
        with pytest.raises(ContractViolationError):
            ransac_plane(pts, threshold)


class TestClassifyPlanarCell:
    # a planar cell is tentative when its slope is at most the threshold, else non-ground
    def test_flat(self):
        kind, state, slope = _classified_cell(_plane([0, 0, 1.0]))
        assert (kind, state) == (CellKind.PLANAR, GroundState.TENTATIVE)
        assert slope == pytest.approx(0.0, abs=1e-6)

    def test_45_degrees(self):
        kind, state, slope = _classified_cell(_plane([1.0, 0, 1.0]))
        assert slope == pytest.approx(45.0)
        assert (kind, state) == (CellKind.PLANAR, GroundState.NON_GROUND)

    def test_boundary_inclusive(self):
        pts = _plane([0.3, -0.2, 1.0])
        slope = _classified_cell(pts)[2]
        assert 10.0 < slope < 30.0
        assert _classified_cell(pts, slope)[1:] == (GroundState.TENTATIVE, slope)
        below = np.nextafter(slope, 0.0)
        assert _classified_cell(pts, below)[1:] == (GroundState.NON_GROUND, slope)

    def test_matches_brute_force_comparison(self, rng):
        for _ in range(1000):
            v = rng.normal(size=3)
            while np.linalg.norm(v) < 1e-9:
                v = rng.normal(size=3)
            x, y, z = (float(c) for c in v)
            # the angle to the vertical axis of the row, or of its negation
            oracle = math.degrees(math.atan2(math.hypot(x, y), abs(z)))
            got = tilt_deg(v)[0]
            assert got == pytest.approx(oracle, abs=1e-9)
            assert tilt_deg(-v)[0] == got
            threshold = rng.uniform(0, 90)
            assert (got <= threshold) == (oracle <= threshold)


class TestTiltDeg:
    def test_column_view_of_one_matrix_stack_matches_its_contiguous_copy(self):
        # the cell whose slope read 26.459536778780734 deg from this view and
        # 26.459536778780716 deg from the copy while the norm was
        # np.einsum("ij,ij->i", n, n), whose summation order follows the layout
        pts = TestRansacCells()._cells()[4]
        _, vec = sorted_eigen(segment_covariance(pts, [len(pts)]))
        view = np.ascontiguousarray(vec)[:, :, 2]
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        assert tilt_deg(view).tobytes() == tilt_deg(copy).tobytes()
        assert tilt_deg(vec[:, :, 2]).tobytes() == tilt_deg(copy).tobytes()
        plane, _, _ = ransac_plane(pts, 0.125)
        assert plane.slope_deg == _fit_cells([pts], 0.125)[0][0]

    def test_rows_alone_batched_and_in_any_layout_agree(self, rng):
        v = rng.normal(size=(500, 3))
        v[::7] *= 1e-3
        v[::11, 2] = 0.0
        want = tilt_deg(v)
        assert ((0.0 <= want) & (want <= 90.0)).all()
        alone = np.concatenate([tilt_deg(row) for row in v])
        assert alone.tobytes() == want.tobytes()
        wide = np.zeros((500, 6))
        wide[:, ::2] = v
        tall = np.zeros((1000, 3))
        tall[::2] = v
        for view in (np.asfortranarray(v), wide[:, ::2], tall[::2]):
            assert not view.flags.c_contiguous
            assert tilt_deg(view).tobytes() == want.tobytes()
        assert tilt_deg(v[::-1])[::-1].tobytes() == want.tobytes()

    def test_a_nan_row_gives_nan(self):
        got = tilt_deg([[np.nan, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert np.isnan(got[0]) and got[1] == 90.0


def _sparsity_of(points):
    """``segment_sparsity`` of one point set, as one segment."""
    pts = np.asarray(points, dtype=np.float64)
    return Sparsity(segment_sparsity(pts, [len(pts)], PARAMS)[0])


class TestBboxSparsity:
    def test_dense_box_low(self, rng):
        pts = rng.uniform(0, 1, size=(1000, 3)) * [1.0, 1.0, 0.1]
        # score 1e-4 with extents (1, 1, 0.1)
        assert _sparsity_of(pts) is Sparsity.LOW

    def test_sparse_box_high(self):
        pts = np.array(
            [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [2, 2, 2]], dtype=float
        )
        # volume 8 over 5 points: score 1.6
        assert _sparsity_of(pts) is Sparsity.HIGH

    def test_single_point_floored_extent(self):
        assert _sparsity_of([[5.0, 5.0, 5.0]]) is Sparsity.LOW

    def test_order(self):
        assert Sparsity.LOW < Sparsity.MEDIUM < Sparsity.HIGH

    def test_segments_match_per_set_scores(self, rng):
        # per-set oracle: the score formula written out for one point set
        counts = rng.integers(1, 40, size=300)
        pts = rng.normal(size=(counts.sum(), 3)) * np.repeat(
            rng.uniform(0.001, 1.5, size=(300, 3)), counts, axis=0
        )
        got = segment_sparsity(pts, counts, PARAMS)
        for k, part in enumerate(np.split(pts, np.cumsum(counts)[:-1])):
            score = float(np.prod(np.maximum(part.max(0) - part.min(0), 0.01))) / len(part)
            want = (
                Sparsity.LOW if score <= PARAMS.sparsity_low_max
                else Sparsity.MEDIUM if score <= PARAMS.sparsity_medium_max
                else Sparsity.HIGH
            )
            assert got[k] == want == _sparsity_of(part)
        assert set(got.tolist()) == {0, 1, 2}
