import hashlib
import json

import numpy as np
import pytest

import gridseg as gs
from gridseg.cloud_io import PointCloud, inject_synthetic_seed
from gridseg.config import apply_settings
from gridseg.errors import ConfigError, ContractViolationError
from gridseg.pipeline import (
    PhaseStats,
    classify_cells,
    make_default_config,
    run_phase,
    segment,
)
from gridseg.region_expansion import ground_mask
from gridseg.voxel_grid import (
    KINDS,
    STATES,
    CellKind,
    CellSize,
    GroundState,
    Outcome,
    build_grid,
)


class TestDefaultConfig:
    def test_published_parameter_block(self):
        cfg = make_default_config()
        assert cfg.dist_to_ground == 1.723
        assert cfg.robot_radius == 2.7
        assert (cfg.phase1.cellsize.sx, cfg.phase1.cellsize.sy) == (1.5, 1.0)
        assert cfg.phase1.cellsize.sz == 1.5
        assert cfg.phase2.cellsize.sz == 0.2
        assert cfg.phase1.geometry.slope_threshold_deg == 30.0
        assert cfg.phase1.geometry.inlier_threshold == 0.125
        assert cfg.phase1.expansion.search_radius == 5.0

    def test_phase_height_ordering_enforced(self):
        cfg = make_default_config()
        with pytest.raises(ConfigError):
            apply_settings(cfg, {"cellSizeZ": (0.2, 1.5)})


def _flat_cloud(rng, n=3000, extent=14.0, z=-1.723):
    xy = rng.uniform(-extent / 2, extent / 2, size=(n, 2))
    zs = z + rng.normal(0, 0.01, n)
    return PointCloud(points=np.column_stack([xy, zs]))


class TestRunPhase:
    def test_horizontal_plane_all_ground(self, rng):
        cloud = _flat_cloud(rng)
        cfg = make_default_config()
        seeded, info = inject_synthetic_seed(
            cloud, cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
        )
        n = len(seeded.points)
        result = run_phase(seeded.points, cfg, info)
        ground = ground_mask(result.grid, n)
        assert result.stats.points_ground == ground.sum()
        assert result.stats.points_ground + result.stats.points_non_ground == n
        # every real plane point is recovered in the coarse phase
        assert ground[: len(cloud)].all()

    def test_vertical_wall_contributes_no_ground(self, rng):
        wall = np.column_stack(
            [
                np.full(800, 3.0),
                rng.uniform(-4, 4, 800),
                rng.uniform(-1.7, 1.3, 800),
            ]
        )
        cloud = PointCloud(points=wall)
        cfg = make_default_config()
        seeded, info = inject_synthetic_seed(
            cloud, cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
        )
        result = run_phase(seeded.points, cfg, info)
        assert not ground_mask(result.grid, len(seeded.points))[:800].any()

    def test_empty_subset(self, rng):
        cloud = _flat_cloud(rng, n=100)
        cfg = make_default_config()
        seeded, info = inject_synthetic_seed(
            cloud, cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
        )
        result = run_phase(seeded.points[:0], cfg, info)
        assert result.grid is None  # no cell, so no ground point
        assert result.stats.points_ground == result.stats.points_non_ground == 0

    def test_result_ids_are_sorted_global_ids(self, rng):
        boxes = (gs.BoxSpec(4.0, 3.0, 1.0, 1.0, 1.0),)
        scene = gs.make_scene(gs.SceneSpec(extent=18.0, n_ground=4000, boxes=boxes, seed=2))
        cfg = make_default_config()
        seeded, info = inject_synthetic_seed(
            gs.scene_cloud(scene), cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
        )
        # every other point and the lattice, so ids are rows of the subset
        ids = np.arange(0, len(seeded.points), 2)
        ids = np.union1d(ids, np.arange(len(seeded.points) - info.count, len(seeded.points)))
        pts = seeded.points[ids]
        r1 = run_phase(pts, cfg, info)
        in_ground = np.repeat(r1.grid.state == GroundState.GROUND, r1.grid.counts)
        cell_points = np.compress(in_ground, r1.grid.order)
        ground1 = np.flatnonzero(ground_mask(r1.grid, len(pts)))
        r2 = run_phase(pts, cfg, info, parent=r1)
        ground2 = np.flatnonzero(ground_mask(r2.grid, len(pts)))
        for out, r in ((ground1, r1), (ground2, r2)):
            assert len(out) == r.stats.points_ground > 0
        assert np.isin(ground1, cell_points).all()
        lattice = np.arange(len(pts) - info.count, len(pts))
        assert np.isin(ground2, np.union1d(cell_points, lattice)).all()
        assert r2.stats.n_points == len(np.union1d(cell_points, lattice))


class TestClassifyCells:
    """``classify_cells`` classifies the cells still ``UNCLASSIFIED``, also
    on grids where no cell reaches a covariance or a plane fit."""

    GEO = make_default_config().geometry

    def test_cells_of_one_or_two_points_are_non_planar(self):
        corners = np.array([[ix * 1.5, iy * 1.0, 0.0] for ix in range(6) for iy in range(5)])
        pts = np.vstack([corners + 0.3, corners[::2] + 0.7])  # 1 or 2 points per cell
        grid = build_grid(pts, CellSize(1.5, 1.0, 1.5))
        assert set(grid.counts.tolist()) == {1, 2}
        stats = PhaseStats()
        classify_cells(grid, self.GEO, stats)
        assert (KINDS[grid.outcome] == CellKind.NON_PLANAR).all()
        assert (grid.state == GroundState.NON_GROUND).all()
        assert not grid.fitted.any() and not grid.inliers.any()
        assert stats.plane_fits["failed"] == 0

    def test_an_empty_grid(self):
        grid = build_grid(np.empty((0, 3)), CellSize(1.5, 1.0, 1.5))
        stats = PhaseStats()
        classify_cells(grid, self.GEO, stats)
        assert len(grid.outcome) == len(grid.state) == len(grid.inliers) == 0
        assert stats.plane_fits["failed"] == 0

    def test_only_unclassified_cells_change(self, rng):
        pts = _flat_cloud(rng, n=4000).points
        pts[:300, 2] += rng.uniform(0.0, 1.0, 300)  # some non-planar cells too
        cellsize = make_default_config().phase1.cellsize
        want = build_grid(pts, cellsize)
        classify_cells(want, self.GEO)
        grid = build_grid(pts, cellsize)
        preset = np.zeros(len(grid.cells), dtype=bool)
        preset[::3] = True
        in_preset = np.repeat(preset, grid.counts)
        grid.outcome[preset] = Outcome.LINE_OBSTACLE
        grid.inliers[in_preset] = True
        classify_cells(grid, self.GEO)
        assert (KINDS[grid.outcome[preset]] == CellKind.LINE).all()
        assert (grid.state[preset] == GroundState.OBSTACLE).all()
        assert grid.inliers[in_preset].all()
        for name in ("outcome", "state"):
            a, b = getattr(grid, name)[~preset], getattr(want, name)[~preset]
            assert a.tobytes() == b.tobytes(), name
        assert np.array_equal(grid.inliers[~in_preset], want.inliers[~in_preset])
        assert (KINDS[want.outcome[~preset]] != CellKind.UNCLASSIFIED).all()


_CFG = make_default_config()
# the scenes of the pinned digests
DIGEST_SCENES = {
    "boxes": gs.SceneSpec(
        extent=24.0,
        n_ground=8000,
        boxes=(gs.BoxSpec(5.0, 2.0, 1.5, 1.0, 1.2), gs.BoxSpec(-4.0, -5.0, 2.0, 2.0, 0.8)),
        seed=21,
    ),
    "slope-12": gs.SceneSpec(extent=24.0, n_ground=8000, slope_deg=12.0, seed=22),
    # the seed-below scene of test_expansion_exactness.PAIR_SCENES
    "seed-below": gs.SceneSpec(ground_z=-2.2),
}


class TestSegment:
    def test_empty_cloud(self):
        result = segment(PointCloud(points=np.zeros((0, 3))))
        assert len(result.mask) == 0
        assert result.stats.phase1.n_cells == 0
        assert result.stats.phase2.n_cells == 0

    @pytest.mark.parametrize("shape", [(50, 4), (150,)])
    def test_points_not_n_by_3_are_a_contract_violation(self, rng, shape):
        with pytest.raises(ContractViolationError, match=rf"got shape \({shape[0]},"):
            segment(PointCloud(points=rng.uniform(-5, 5, shape)))

    def test_an_empty_n_by_3_cloud_is_valid(self):
        result = segment(PointCloud(points=np.empty((0, 3))))
        assert result.mask.shape == (0,) and result.stats.n_points == 0

    def test_mask_partitions_cloud(self, rng):
        cloud = _flat_cloud(rng)
        result = segment(cloud)
        assert len(result.mask) == len(cloud)
        assert result.mask.dtype == bool

    def test_deterministic(self, rng):
        scene = gs.make_scene(gs.SceneSpec(extent=18.0, n_ground=4000, seed=2))
        cloud = gs.scene_cloud(scene)
        a = segment(cloud)
        b = segment(cloud)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_permutation_equivariance(self, rng):
        boxes = (gs.BoxSpec(4.0, 3.0, 1.0, 1.0, 1.0),)
        scene = gs.make_scene(gs.SceneSpec(extent=18.0, n_ground=4000, boxes=boxes, seed=2))
        cloud = gs.scene_cloud(scene)
        base = segment(cloud)
        perm = rng.permutation(len(cloud))
        permuted = PointCloud(points=cloud.points[perm].copy())
        out = segment(permuted)
        np.testing.assert_array_equal(out.mask, base.mask[perm])

    def test_phase2_ground_subset_of_phase1_ground_cells(self, rng):
        boxes = (gs.BoxSpec(5.0, -4.0, 1.5, 1.5, 0.8),)
        scene = gs.make_scene(gs.SceneSpec(extent=18.0, n_ground=5000, boxes=boxes, seed=4))
        cloud = gs.scene_cloud(scene)
        cfg = make_default_config()
        seeded, info = inject_synthetic_seed(
            cloud, cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
        )
        grid1 = run_phase(seeded.points, cfg, info).grid
        result = segment(cloud, cfg)
        ground_ids = set(np.flatnonzero(result.mask).tolist())
        in_ground = np.repeat(grid1.state == GroundState.GROUND, grid1.counts)
        phase1_cell_points = set(np.compress(in_ground, grid1.order).tolist())
        assert ground_ids <= phase1_cell_points

    def test_box_points_rejected_flat_ground_recalled(self, rng):
        boxes = (
            gs.BoxSpec(5.0, 4.0, 1.2, 1.2, 1.0),
            gs.BoxSpec(-6.0, -3.0, 1.5, 1.0, 1.5),
        )
        scene = gs.make_scene(gs.SceneSpec(extent=20.0, n_ground=20000, boxes=boxes, seed=6))
        result = segment(gs.scene_cloud(scene))
        ground_truth = scene.labels == gs.synth.GROUND_LABEL
        recall = result.mask[ground_truth].mean()
        box_hits = result.mask[scene.part >= 0]
        assert recall >= 0.99
        # only the thin face strip within the inlier threshold may leak
        assert box_hits.mean() < 0.1

    def test_tentative_cells_monotone_in_slope_threshold(self, rng):
        scene = gs.make_scene(
            gs.SceneSpec(extent=16.0, n_ground=4000, slope_deg=12.0, seed=8)
        )
        cloud = gs.scene_cloud(scene)
        cfg = make_default_config()
        seeded, info = inject_synthetic_seed(
            cloud, cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
        )
        counts = []
        for threshold in (0.5, 10.0, 20.0, 30.0, 45.0, 60.0, 75.0, 90.0):
            grid = build_grid(seeded.points, cfg.phase1.cellsize)
            geo = gs.GeometryParams(slope_threshold_deg=threshold)
            classify_cells(grid, geo)
            counts.append(int((grid.state == GroundState.TENTATIVE).sum()))
        assert counts == sorted(counts)

    def test_batched_classification_matches_per_cell_ops(self, rng):
        # the vectorized classify path must agree with the covariance and
        # eigen classification of each cell taken alone
        from gridseg.cell_geometry import (
            MIN_POINTS_FOR_EIGEN,
            eigen_kinds,
            segment_covariance,
            sorted_eigen,
        )

        scene = gs.make_scene(
            gs.SceneSpec(
                extent=14.0,
                n_ground=3000,
                boxes=(gs.BoxSpec(4.0, 2.0, 1.0, 1.0, 1.2),),
                seed=10,
            )
        )
        cloud = gs.scene_cloud(scene)
        cfg = make_default_config()
        seeded, _ = inject_synthetic_seed(
            cloud, cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
        )
        pts = seeded.points
        grid = build_grid(pts, cfg.phase1.cellsize)
        geo = cfg.phase1.geometry
        classify_cells(grid, geo)

        C_batch = segment_covariance(pts[grid.order], grid.counts)
        for k in range(len(grid.cells)):
            pts_c = pts[grid.order[grid.span(k)]]
            C_ref = segment_covariance(pts_c, [len(pts_c)])
            np.testing.assert_allclose(C_batch[k], C_ref[0], rtol=1e-9, atol=1e-12)
            if len(pts_c) >= MIN_POINTS_FOR_EIGEN:
                kind_ref = CellKind(eigen_kinds(sorted_eigen(C_ref)[0], geo)[0])
                kind = CellKind(KINDS[grid.outcome[k]])
                assert kind is kind_ref or kind is CellKind.NON_PLANAR
                # a planar-classified cell may only demote on a failed plane fit,
                # which cannot happen on cells this size
                if kind_ref is not CellKind.NON_PLANAR:
                    assert kind is kind_ref

    def test_stats_populated(self, rng):
        cloud = _flat_cloud(rng, n=2000)
        result = segment(cloud)
        s = result.stats
        assert s.n_points == 2000
        assert s.n_synthetic > 0
        assert s.phase1.n_cells > 0
        assert s.phase2.n_cells > 0
        assert s.phase1.cells_routed_ground > 0
        assert s.runtime_ms > 0
        d = s.as_dict()
        assert d["phase1"]["n_cells"] == s.phase1.n_cells
        for phase in (s.phase1, s.phase2):
            fits = phase.plane_fits
            assert set(fits) == {"eigenplane", "failed"}
            # every eigen-planar cell ends in exactly one way; the fitted ones
            # stay planar and the failed ones turn non-planar
            assert fits["eigenplane"] == phase.cells_planar
            assert 0 <= fits["failed"] <= phase.cells_non_planar
            assert fits["eigenplane"] > 0
        assert d["phase2"]["plane_fits"] == s.phase2.plane_fits

    @pytest.mark.parametrize("seed", [5, 6])
    @pytest.mark.parametrize("sigma, recall", [(0.06, 0.91), (0.10, 0.82)])
    def test_noisy_ground_keeps_precision_and_a_recall_floor(self, sigma, recall, seed):
        # ground noise of 0.06-0.10 m leaves most Phase-I eigenplanes under
        # 99% inliers, so the inlier threshold decides much of the mask here
        scene = gs.make_scene(gs.SceneSpec(n_ground=20000, noise_sigma=sigma, seed=seed))
        mask = segment(PointCloud(points=scene.points)).mask
        truth = scene.labels == gs.synth.GROUND_LABEL
        tp = np.count_nonzero(mask & truth)
        assert tp / np.count_nonzero(mask) >= 0.999
        assert tp / np.count_nonzero(truth) >= recall

    def test_stage_timings_add_up_to_at_most_the_phase_time(self, rng):
        stats = segment(_flat_cloud(rng, n=2000)).stats
        for phase in (stats.phase1, stats.phase2):
            stages = phase.as_dict()["stages_ms"]
            assert set(stages) == {"grid", "eigen", "plane_fit", "index", "expand"}
            assert all(ms >= 0.0 for ms in stages.values())
            assert stages["eigen"] > 0.0 and stages["expand"] > 0.0
            assert sum(stages.values()) <= phase.runtime_ms

    def test_degenerate_cells_classify_as_with_lapack(self):
        # exact duplicates, exactly collinear points (axis-aligned and
        # oblique) and single points, each in a Phase-I cell of its own
        # beside flat ground; warnings are errors in this suite, so any
        # division by zero in the eigen solver fails here
        rng = np.random.default_rng(4)
        cs = make_default_config().phase1.cellsize
        size = np.array([cs.sx, cs.sy, cs.sz])
        ground = _flat_cloud(rng, n=3000).points
        corners = [np.array([ix, iy, 2.0]) * size for ix in range(8, 18) for iy in range(-6, 6)]
        cells = []
        for corner in corners[:10]:  # duplicates: 3-6 copies of one point, or of two
            pick = rng.uniform(0.1, 0.9, (rng.integers(1, 3), 3)) * size
            cells.append(corner + pick[rng.integers(0, len(pick), rng.integers(3, 7))])
        for corner in corners[10:90]:  # exactly collinear, 3-40 points
            a, b = rng.uniform(0.05, 0.95, (2, 3)) * size
            if len(cells) < 13:
                b[1:] = a[1:]  # along x
            t = rng.random(rng.integers(3, 41))
            cells.append(corner + a + t[:, None] * (b - a))
        for corner in corners[90:100]:  # single points
            cells.append(corner + rng.uniform(0.1, 0.9, (1, 3)) * size)
        pts = np.vstack([ground, *cells])

        cfg = make_default_config()
        grid = build_grid(pts, cfg.phase1.cellsize)
        geo = cfg.phase1.geometry
        classify_cells(grid, geo)
        from gridseg.cell_geometry import MIN_POINTS_FOR_EIGEN, eigen_kinds, segment_covariance

        lapack = np.maximum(
            np.linalg.eigvalsh(segment_covariance(grid.points, grid.counts))[:, ::-1], 0.0
        )
        want = eigen_kinds(lapack, geo)
        want[grid.counts < MIN_POINTS_FOR_EIGEN] = CellKind.NON_PLANAR
        want[(want == CellKind.PLANAR) & ~grid.fitted] = CellKind.NON_PLANAR
        np.testing.assert_array_equal(KINDS[grid.outcome], want)
        rows = [grid.find(tuple(np.floor(c[0] / size).astype(int))) for c in cells]
        kinds = KINDS[grid.outcome[rows]]
        assert (kinds[:10] != CellKind.PLANAR).all()
        assert (kinds[10:90] == CellKind.LINE).all()
        assert (kinds[90:] == CellKind.NON_PLANAR).all()
        assert len(segment(PointCloud(points=pts)).mask) == len(pts)

    # sha256 of segment() masks on two seeded scenes; any change of output
    # shows here.  slope-12 was re-pinned when each planar cell's eigenplane
    # became its RANSAC candidate 0, again when plane fits became the
    # eigenplane and its refit alone (9 of 8,000 points moved: recall
    # 0.9410 -> 0.9399, precision 1.0), and again when they became the
    # eigenplane alone (30 points moved, 12 fewer ground: recall
    # 0.9399 -> 0.9384, precision 1.0)
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("boxes", "8e8e93a536a511309b122be639cbe1cb58271bd46371dc9e2b5d278af94fc665"),
            ("slope-12", "b188fdf544bcca96ad953b2189d1d6417ee6b0ad6767d2c23c3c78ba0357f58d"),
        ],
        ids=["boxes", "slope-12"],
    )
    def test_masks_match_pinned_digests(self, name, digest):
        mask = segment(gs.scene_cloud(gs.make_scene(DIGEST_SCENES[name]))).mask
        assert hashlib.sha256(mask.tobytes()).hexdigest() == digest

    # sha256 of segment()'s stats, timings aside, as sorted JSON; any change
    # of a count, route or seed flag shows here.  seed-below's Phase-I seed
    # is not tentative, so none of its tentative cells is reached.
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("boxes", "aafc6a2cfeb66516727f5cee32a4372128626f0e894268029e414ac0d3139bf7"),
            ("slope-12", "ccdc3e90f632e776b24ec39196a505f2828994b627bd9cc94e18396134363e30"),
            ("seed-below", "4fcfcbc339bc0a261e1947244be5548c398281b578ba76244b176e31d851d17c"),
        ],
        ids=["boxes", "slope-12", "seed-below"],
    )
    def test_stats_match_pinned_digests(self, name, digest):
        stats = segment(gs.scene_cloud(gs.make_scene(DIGEST_SCENES[name]))).stats.as_dict()
        stats.pop("runtime_ms")
        for phase in ("phase1", "phase2"):
            stats[phase].pop("runtime_ms"), stats[phase].pop("stages_ms")
        text = json.dumps(stats, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @staticmethod
    def _phase_grids(name):
        """Both phases' grids of segment() on a scene of ``DIGEST_SCENES``."""
        cloud = gs.scene_cloud(gs.make_scene(DIGEST_SCENES[name]))
        seeded, info = inject_synthetic_seed(
            cloud, _CFG.robot_radius, _CFG.dist_to_ground, _CFG.seed_spacing
        )
        r1 = run_phase(seeded.points, _CFG, info)
        grids = [r1.grid]
        grids.append(run_phase(seeded.points, _CFG, info, parent=r1).grid)
        return grids

    def test_state_is_a_read_only_view_of_the_outcomes(self):
        # both phases of segment() on the boxes scene; a cell is a plane
        # exactly when it holds a plane fit, routed or not
        for grid in self._phase_grids("boxes"):
            assert (grid.outcome >= Outcome.ROUTED).any()
            np.testing.assert_array_equal(grid.state, STATES[grid.outcome])
            np.testing.assert_array_equal(KINDS[grid.outcome] == CellKind.PLANAR, grid.fitted)
            with pytest.raises(ValueError):
                grid.state[0] = GroundState.GROUND
            with pytest.raises(ValueError):
                grid.state[:] = GroundState.TENTATIVE

    @pytest.mark.parametrize("name", DIGEST_SCENES)
    def test_no_inlier_lies_in_a_cell_without_a_plane_fit(self, name):
        # cell_heights and the refinement's inlier counts read the inliers
        # of fitted cells alone; a fitted cell is one whose outcome is of a
        # plane (KINDS), tentative, too steep or routed
        for grid in self._phase_grids(name):
            assert grid.inliers.any()
            assert not (np.repeat(~grid.fitted, grid.counts) & grid.inliers).any()

    def test_nonfinite_rows_are_non_ground_not_an_error(self):
        cloud = gs.scene_cloud(gs.make_scene(gs.SceneSpec(extent=20.0, seed=3)))
        bad = [5, 50, 500, 900, 1500]
        pts = cloud.points.copy()
        pts[bad] = np.nan
        pts[900, 1] = np.inf
        result = segment(PointCloud(points=pts))
        assert result.stats.n_nonfinite == len(bad)
        assert len(result.mask) == len(pts) and not result.mask[bad].any()
        keep = np.ones(len(pts), dtype=bool)
        keep[bad] = False
        clean = segment(PointCloud(points=pts[keep]))
        np.testing.assert_array_equal(result.mask[keep], clean.mask)

    def test_rows_too_large_to_bin_are_non_ground_without_a_warning(self):
        # floor(1e30 / cell size) does not fit in int64; the suite turns the
        # cast's RuntimeWarning into an error, so none may be raised
        cloud = gs.scene_cloud(gs.make_scene(gs.SceneSpec(extent=20.0, seed=3)))
        pts = cloud.points.copy()
        pts[77, 0] = 1e30
        result = segment(PointCloud(points=pts))
        assert result.stats.n_nonfinite == 1 and not result.mask[77]
        clean = segment(PointCloud(points=np.delete(pts, 77, axis=0)))
        np.testing.assert_array_equal(np.delete(result.mask, 77), clean.mask)

    def test_rows_just_inside_the_binning_bound_are_binned(self):
        cfg = make_default_config()
        limit = 2.0**62 * min(cfg.cell_sx, cfg.cell_sy, cfg.cell_sz2)
        cloud = gs.scene_cloud(gs.make_scene(gs.SceneSpec(extent=20.0, seed=3)))
        pts = cloud.points.copy()
        pts[77] = np.nextafter(limit, 0)
        pts[78] = -np.nextafter(limit, 0)
        assert segment(PointCloud(points=pts), cfg).stats.n_nonfinite == 0
        pts[78, 2] = -limit
        assert segment(PointCloud(points=pts), cfg).stats.n_nonfinite == 1

    # clouds for the binnable check: one row at or just inside the bound, a
    # non-finite coordinate in each column, a negative zero, no rows, or
    # every row bad
    _LIMIT = 2.0**62 * min(_CFG.cell_sx, _CFG.cell_sy, _CFG.cell_sz2)
    _EDGE_ROWS = {
        "at-limit": (0, _LIMIT),
        "at-minus-limit": (2, -_LIMIT),
        "below-limit": (1, np.nextafter(_LIMIT, 0)),
        "above-minus-limit": (0, -np.nextafter(_LIMIT, 0)),
        "minus-zero": (2, -0.0),
        **{f"{v}-{c}": (c, float(v)) for v in ("nan", "inf", "-inf") for c in range(3)},
    }

    @staticmethod
    def _edge_cloud(case, rng):
        pts = gs.scene_cloud(gs.make_scene(gs.SceneSpec(extent=20.0, n_ground=3000, seed=3))).points
        if case == "empty":
            return np.empty((0, 3))
        if case == "all-bad":
            bad = [np.nan, np.inf, -np.inf, TestSegment._LIMIT]
            pts = pts[:40].copy()
            pts[np.arange(40), rng.integers(0, 3, 40)] = np.resize(bad, 40)
            return pts
        column, value = TestSegment._EDGE_ROWS[case]
        pts = pts.copy()
        pts[77, column] = value
        pts[78] = value
        return pts

    @pytest.mark.parametrize("case", [*_EDGE_ROWS, "empty", "all-bad"])
    def test_binnable_rows_follow_the_per_row_rule(self, case, rng):
        # segment proves every row binnable from the cloud's extremes and
        # builds the per-row check only when that fails; either way the
        # mask and the count follow the rule |p| < limit on every coordinate
        pts = self._edge_cloud(case, rng)
        keep = (np.abs(pts) < self._LIMIT).all(axis=1)
        result = segment(PointCloud(points=pts), _CFG)
        assert result.stats.n_nonfinite == np.count_nonzero(~keep)
        assert result.mask.dtype == bool and result.mask.shape == (len(pts),)
        assert not result.mask[~keep].any()
        if keep.any():
            clean = segment(PointCloud(points=pts[keep]), _CFG)
            np.testing.assert_array_equal(result.mask[keep], clean.mask)
        if case == "minus-zero" or case.startswith("below") or case.startswith("above"):
            assert keep.all()

    def test_seed_cell_not_tentative_gives_non_ground_not_an_error(self):
        # ground 0.48 m below the configured mount height shares the seed
        # cell with the synthetic lattice, which is then not planar
        cloud = gs.scene_cloud(gs.make_scene(gs.SceneSpec(ground_z=-2.2)))
        result = segment(cloud)
        assert result.stats.phase1.seed_ok is False
        assert len(result.mask) == len(cloud) and not result.mask.any()
        assert result.stats.phase1.points_non_ground == result.stats.phase1.n_points
