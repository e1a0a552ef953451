"""Acceptance suite.

Each test prints one pass/fail line.  Criteria 1-8 are property checks with
no external data; 9-12 run the full pipeline on generated scenes with known
ground truth; 13-14 need a separately obtained SemanticKITTI download and
are skipped unless SEMANTICKITTI_ROOT is set.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import functools
import math
import os
from pathlib import Path

import numpy as np
import pytest

import gridseg as gs
from gridseg.cell_geometry import (
    GeometryParams,
    eigen_kinds,
    ransac_plane,
    segment_covariance,
    sorted_eigen,
)
from gridseg.cloud_io import PointCloud, inject_synthetic_seed
from gridseg.config import apply_settings
from gridseg.evaluation import (
    ConfusionCounts,
    GroundTruthPolicy,
    evaluate_scan,
    evaluate_sequence,
    f1,
    harmonic_f1,
    precision,
    recall,
)
from gridseg.pipeline import classify_cells, make_default_config, segment
from gridseg.region_expansion import (
    CentroidIndex,
    ExpansionLog,
    ExpansionParams,
    build_centroid_index,
    expand,
    ground_mask,
    select_seed,
)
from gridseg.voxel_grid import CellKind, CellSize, GroundState, build_grid, cell_index

RNG = np.random.default_rng(20240817)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"[criterion {number:02d}] SKIP — {title} ({exc})")
                raise
            except BaseException:
                print(f"[criterion {number:02d}] FAIL — {title}")
                raise
            print(f"[criterion {number:02d}] PASS — {title}")

        return wrapper

    return decorate


@criterion(1, "grid partition and containment on 100 random clouds")
def test_criterion_01_grid_partition():
    cs = CellSize(1.5, 1.0, 1.5)
    for k in range(100):
        n = int(10 ** RNG.uniform(3, 5))
        if k % 10 == 0:  # volumetric stress case
            pts = RNG.uniform(-60, 60, size=(n, 3))
        else:  # LiDAR-like surface band
            xy = RNG.uniform(-60, 60, size=(n, 2))
            z = RNG.uniform(-2.0, 2.0, n)
            pts = np.column_stack([xy, z])
        grid = build_grid(pts, cs)
        keys = np.floor(pts / np.array([cs.sx, cs.sy, cs.sz])).astype(np.int64)
        # the spans cover all n points, and order is a permutation of them
        assert grid.offsets[0] == 0 and grid.offsets[-1] == n and (grid.counts > 0).all()
        np.testing.assert_array_equal(np.sort(grid.order), np.arange(n))
        # every point lies in the cell whose span holds it
        np.testing.assert_array_equal(keys[grid.order], np.repeat(grid.cells, grid.counts, axis=0))


@criterion(2, "floor semantics of the cell index for negative coordinates")
def test_criterion_02_floor_semantics():
    assert cell_index((3.2, -1.7, 0.5), CellSize(1.5, 1.0, 0.2)) == (2, -2, 2)
    assert cell_index((0.0, 0.0, 0.0), CellSize(1.5, 1.0, 0.2)) == (0, 0, 0)
    assert cell_index((-0.1, -0.1, -0.1), CellSize(1.0, 1.0, 1.0)) == (-1, -1, -1)


@criterion(3, "covariance and eigen classification invariants")
def test_criterion_03_covariance_eigen():
    params = GeometryParams()

    def one_cell(pts):  # a point set as one segment
        return segment_covariance(pts, [len(pts)])

    def kind_of(pts):
        return CellKind(eigen_kinds(sorted_eigen(one_cell(pts))[0], params)[0])

    for _ in range(20):
        pts = RNG.normal(size=(60, 3)) * RNG.uniform(0.05, 3.0, size=3)
        C = one_cell(pts)[0]
        shifted = one_cell(pts + RNG.uniform(-200, 200, size=3))[0]
        assert np.abs(C - shifted).max() <= 1e-9
        eigenvalues = sorted_eigen(C)[0][0]
        ratio = eigenvalues[0] / eigenvalues.sum()
        assert 1.0 / 3.0 - 1e-9 <= ratio <= 1.0 + 1e-9
        assert eigenvalues.sum() == pytest.approx(np.trace(C), rel=1e-9)

    t = np.linspace(0, 4, 120)
    collinear = np.column_stack([t, 2 * t, -t]) + RNG.normal(0, 1e-4, (120, 3))
    kind = kind_of(collinear)
    assert kind is CellKind.LINE

    u, v = np.meshgrid(np.linspace(0, 1.5, 12), np.linspace(0, 1.0, 10))
    coplanar = np.column_stack([u.ravel(), v.ravel(), 0.3 * u.ravel() - 0.2 * v.ravel()])
    kind = kind_of(coplanar)
    assert kind is CellKind.PLANAR

    isotropic = RNG.normal(size=(300, 3))
    kind = kind_of(isotropic)
    assert kind is CellKind.NON_PLANAR


@criterion(4, "RANSAC plane fit: fixed point, slope recovery, determinism")
def test_criterion_04_ransac():
    pts = np.column_stack([RNG.uniform(-1, 1, (50, 2)), np.zeros(50)])
    plane, inliers, outliers = ransac_plane(pts, 0.125)
    assert len(inliers) == 50 and len(outliers) == 0
    assert plane.slope_deg <= 1e-6

    x = RNG.uniform(-2, 2, 200)
    y = RNG.uniform(-2, 2, 200)
    z = 0.05 * x + RNG.uniform(-0.01, 0.01, 200)
    ramp = np.column_stack([x, y, z])
    d = ramp - ramp.mean(axis=0)
    _, vecs = np.linalg.eigh((d.T @ d) / len(ramp))
    n = vecs[:, 0] if vecs[2, 0] >= 0 else -vecs[:, 0]
    oracle = math.degrees(math.acos(n[2]))
    fit, _, _ = ransac_plane(ramp, 0.125)
    assert abs(fit.slope_deg - oracle) <= 1.0

    noisy = RNG.normal(size=(120, 3)) * [1, 1, 0.05]
    a = ransac_plane(noisy, 0.05)
    b = ransac_plane(noisy, 0.05)
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[2], b[2])


@criterion(5, "radius pairs equal brute force on 1000 points x 100 radii")
def test_criterion_05_spatial_index():
    centroids = RNG.uniform(-50, 50, size=(1000, 3))
    index = CentroidIndex(np.arange(1000), centroids)
    d2 = ((centroids[:, None] - centroids[None]) ** 2).sum(axis=2)
    for _ in range(100):
        radius = RNG.uniform(0.1, 25.0)
        expected = np.nonzero(np.triu(d2 <= radius * radius, k=1))
        got = sorted(zip(*(a.tolist() for a in index.pairs(radius))))
        assert got == list(zip(*(a.tolist() for a in expected)))


def _classified_scene(points, cellsize):
    grid = build_grid(points, cellsize)
    classify_cells(grid, GeometryParams())
    return grid


@criterion(6, "pair-search expansion equals brute-force flood fill; phase-2 gate holds")
def test_criterion_06_expansion_oracle():
    scene = gs.make_scene(
        gs.SceneSpec(
            extent=16.0,
            n_ground=8000,
            boxes=(gs.BoxSpec(4.0, 4.0, 1.2, 1.2, 1.0),),
            seed=21,
        )
    )
    cloud = gs.scene_cloud(scene)
    cfg = make_default_config()
    seeded, info = inject_synthetic_seed(
        cloud, cfg.robot_radius, cfg.dist_to_ground, cfg.seed_spacing
    )
    pts = seeded.points

    class BruteIndex:
        def __init__(self, grid, cells):
            self.cell_ids = cells
            self.centroids = grid.centroids[cells]

        def pairs(self, radius, fresh=None):
            d2 = ((self.centroids[:, None] - self.centroids[None]) ** 2).sum(axis=2)
            i, j = np.nonzero(np.triu(d2 <= radius * radius, k=1))
            if fresh is None:
                return i, j
            flagged = fresh[i] | fresh[j]
            return i[flagged], j[flagged]

    results = []
    for phase, cellsize in ((1, cfg.phase1.cellsize), (2, cfg.phase2.cellsize)):
        per_index = []
        for brute in (False, True):
            grid = _classified_scene(pts, cellsize)
            tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
            index = (BruteIndex if brute else build_centroid_index)(grid, tentative)
            log = ExpansionLog()
            params = ExpansionParams()
            count = expand(
                grid, index, select_seed(grid, info), GeometryParams(), params, phase=phase
            )
            log.record(grid)
            ground = ground_mask(grid, len(pts))
            assert count == ground.sum()
            per_index.append(ground)
            if phase == 2:
                # the routed cells are those a breadth-first search from the
                # seed reaches over the brute-force pairs within the gate
                i, j = BruteIndex(grid, tentative).pairs(params.search_radius)
                z = grid.centroids[tentative, 2]
                gated = np.abs(z[i] - z[j]) <= params.height_gate
                links = {k: [] for k in range(len(tentative))}
                for a, b in zip(i[gated].tolist(), j[gated].tolist()):
                    links[a].append(b)
                    links[b].append(a)
                seed_row = grid.find(select_seed(grid, info))
                reach = {int(np.searchsorted(tentative, seed_row))}
                frontier = list(reach)
                while frontier:
                    frontier = [b for a in frontier for b in links[a] if b not in reach]
                    reach.update(frontier)
                want = [tuple(c) for c in grid.cells[tentative[sorted(reach)]].tolist()]
                assert len(want) > 1
                assert [idx for idx, _, _ in log.routes] == want
        np.testing.assert_array_equal(per_index[0], per_index[1])
        results.append(per_index[0])
    assert all(r.any() for r in results)


@criterion(7, "pipeline partition, determinism, permutation equivariance")
def test_criterion_07_pipeline_determinism():
    scene = gs.make_scene(
        gs.SceneSpec(
            extent=18.0,
            n_ground=6000,
            boxes=(gs.BoxSpec(-5.0, 3.0, 1.0, 1.5, 1.2),),
            seed=33,
        )
    )
    cloud = gs.scene_cloud(scene)
    first = segment(cloud)
    assert len(first.mask) == len(cloud)
    assert first.mask.dtype == bool

    second = segment(cloud)
    assert np.array_equal(first.mask, second.mask)

    perm = RNG.permutation(len(cloud))
    permuted = PointCloud(points=cloud.points[perm].copy())
    third = segment(permuted)
    assert np.array_equal(third.mask, first.mask[perm])


@criterion(8, "metric identities and published-average arithmetic cross-check")
def test_criterion_08_metrics():
    for _ in range(300):
        c = ConfusionCounts(*(int(v) for v in RNG.integers(0, 40, size=4)))
        p, r, value = precision(c), recall(c), f1(c)
        if value is not None:
            assert abs(value - 2 * p * r / (p + r)) <= 1e-12

    pts = RNG.uniform(-120, 120, size=(2000, 3))
    cloud = PointCloud(points=pts)
    truth = RNG.choice([1, 40], size=2000).astype(np.uint16)
    mask = RNG.random(2000) < 0.5
    policy = GroundTruthPolicy()
    for dist in (10.0, 50.0, 100.0):
        c = evaluate_scan(cloud, mask, truth, policy, (dist,))[0].counts
        in_range = np.hypot(pts[:, 0], pts[:, 1]) <= dist
        assert c.total() == int(in_range.sum())

    half_cloud, rest_cloud = PointCloud(points=pts[:1000]), PointCloud(points=pts[1000:])
    half = evaluate_scan(half_cloud, mask[:1000], truth[:1000], policy, (60.0,))[0].counts
    rest = evaluate_scan(rest_cloud, mask[1000:], truth[1000:], policy, (60.0,))[0].counts
    joint = evaluate_scan(cloud, mask, truth, policy, (60.0,))[0].counts
    assert half + rest == joint

    value = harmonic_f1(0.966, 0.894)
    assert abs(value * 100 - 92.8) <= 0.1


@criterion(9, "flat noisy plane: precision 1.0, recall >= 0.99")
def test_criterion_09_flat_plane():
    scene = gs.make_scene(gs.SceneSpec(extent=40.0, n_ground=20000, noise_sigma=0.02, seed=101))
    result = segment(gs.scene_cloud(scene))
    truth_ground = scene.labels == gs.synth.GROUND_LABEL
    ntp = int((result.mask & truth_ground).sum())
    nfp = int((result.mask & ~truth_ground).sum())
    recall_value = ntp / truth_ground.sum()
    assert ntp > 0 and nfp == 0, "precision must be exactly 1.0"
    assert recall_value >= 0.99, f"recall {recall_value:.4f} < 0.99"


@criterion(10, "plane with five boxes: precision >= 0.97, recall >= 0.93")
def test_criterion_10_boxes():
    boxes = (
        gs.BoxSpec(8.0, 5.0, 1.5, 1.0, 0.5),
        gs.BoxSpec(-7.0, 6.0, 1.0, 2.0, 0.8),
        gs.BoxSpec(5.0, -9.0, 2.0, 1.5, 1.2),
        gs.BoxSpec(-11.0, -4.0, 1.2, 1.2, 1.6),
        gs.BoxSpec(12.0, -12.0, 1.5, 1.5, 2.0),
    )
    scene = gs.make_scene(
        gs.SceneSpec(extent=40.0, n_ground=20000, noise_sigma=0.02, boxes=boxes, seed=107)
    )
    result = segment(gs.scene_cloud(scene))
    truth_ground = scene.labels == gs.synth.GROUND_LABEL
    ntp = int((result.mask & truth_ground).sum())
    nfp = int((result.mask & ~truth_ground).sum())
    nfn = int((~result.mask & truth_ground).sum())
    prec = ntp / (ntp + nfp)
    rec = ntp / (ntp + nfn)
    assert prec >= 0.97, f"precision {prec:.4f} < 0.97"
    assert rec >= 0.93, f"recall {rec:.4f} < 0.93"


@criterion(11, "floating slab on a thin wall: zero slab points labeled ground")
def test_criterion_11_floating_slab():
    wall = gs.BoxSpec(8.0, 0.0, 0.3, 3.0, 2.0, base=0.0)
    slab = gs.BoxSpec(8.0, 0.0, 3.0, 3.0, 0.2, base=2.0)
    scene = gs.make_scene(
        gs.SceneSpec(extent=30.0, n_ground=15000, boxes=(wall, slab), seed=113)
    )
    result = segment(gs.scene_cloud(scene))
    slab_points = scene.part == 1
    assert slab_points.sum() > 100
    assert int(result.mask[slab_points].sum()) == 0


@criterion(12, "45-degree ramp: rejected at the 30-degree gate, recovered at 50")
def test_criterion_12_ramp_gate():
    scene = gs.make_scene(
        gs.SceneSpec(extent=24.0, n_ground=80000, slope_deg=45.0, noise_sigma=0.01, seed=5)
    )
    cloud = gs.scene_cloud(scene)
    truth_ground = scene.labels == gs.synth.GROUND_LABEL
    cfg = make_default_config()

    at_default = segment(cloud, cfg)
    recall_default = at_default.mask[truth_ground].mean()
    assert recall_default <= 0.05, f"ramp recall {recall_default:.4f} > 0.05 at 30 deg"

    cfg50 = apply_settings(cfg, {"slopeThresholdDegrees": 50.0})
    at_50 = segment(cloud, cfg50)
    recall_50 = at_50.mask[truth_ground].mean()
    assert recall_50 >= 0.95, f"ramp recall {recall_50:.4f} < 0.95 at 50 deg"


def _kitti_sequence_04():
    root = os.environ.get("SEMANTICKITTI_ROOT")
    if not root:
        pytest.skip("SEMANTICKITTI_ROOT not set")
    seq = Path(root) / "sequences" / "04"
    scans = seq / "velodyne"
    labels = seq / "labels"
    if not scans.is_dir() or not labels.is_dir():
        pytest.skip(f"sequence 04 not found under {root}")
    return scans, labels


@criterion(13, "SemanticKITTI sequence 04 reproduction (conditional)")
def test_criterion_13_semantickitti_seq04():
    scans, labels = _kitti_sequence_04()
    report = evaluate_sequence(scans, labels, make_default_config())
    assert report.n_scans > 0
    mean_pr = report.mean["precision"] * 100
    mean_rc = report.mean["recall"] * 100
    assert abs(mean_pr - 99.3) <= 3.0, f"precision {mean_pr:.1f} outside 99.3 +/- 3.0"
    assert abs(mean_rc - 89.5) <= 4.0, f"recall {mean_rc:.1f} outside 89.5 +/- 4.0"


@criterion(14, "runtime sanity on real scans (conditional)")
def test_criterion_14_runtime():
    import time

    scans, _ = _kitti_sequence_04()
    paths = sorted(scans.glob("*.bin"))[:20]
    cfg = make_default_config()
    times = []
    for path in paths:
        cloud = gs.read_kitti_bin(path)
        t0 = time.perf_counter()
        segment(cloud, cfg)
        times.append((time.perf_counter() - t0) * 1000.0)
    mean_ms = float(np.mean(times))
    assert mean_ms <= 250.0, f"mean per-scan runtime {mean_ms:.0f} ms > 250 ms"
