import json

import numpy as np
import pytest

import gridseg as gs
from gridseg.cloud_io import PointCloud
from gridseg.errors import ConfigError, ContractViolationError
from gridseg.evaluation import (
    ConfusionCounts,
    GroundTruthPolicy,
    _outcome,
    emit_report,
    evaluate_scan,
    evaluate_sequence,
    f1,
    format_summary,
    harmonic_f1,
    precision,
    recall,
)

POLICY = GroundTruthPolicy()


def _cloud(points):
    return PointCloud(points=np.asarray(points, dtype=float))


class TestConfusionCounts:
    def test_two_by_two(self):
        cloud = _cloud([[1, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]])
        truth = np.array([40, 40, 1, 1], dtype=np.uint16)
        mask = np.array([True, False, True, False])
        c = evaluate_scan(cloud, mask, truth, POLICY, (100.0,))[0].counts
        assert (c.ntp, c.nfn, c.nfp, c.ntn) == (1, 1, 1, 1)

    def test_range_boundary_inclusive(self):
        cloud = _cloud([[80.0, 60.0, 0.0]])  # planar range exactly 100
        c = evaluate_scan(
            cloud, np.array([True]), np.array([40], dtype=np.uint16), POLICY, (100.0,)
        )[0].counts
        assert c.total() == 1 and c.ntp == 1

    def test_out_of_range_excluded(self):
        cloud = _cloud([[200.0, 0.0, 0.0], [0.0, 150.0, 0.0]])
        c = evaluate_scan(
            cloud,
            np.array([True, False]),
            np.array([40, 40], dtype=np.uint16),
            POLICY,
            (100.0,),
        )[0].counts
        assert c.total() == 0

    def test_planar_vs_3d_range(self):
        cloud = _cloud([[6.0, 0.0, 8.0]])  # planar 6, full 10
        truth = np.array([40], dtype=np.uint16)
        planar = evaluate_scan(cloud, np.array([True]), truth, POLICY, (7.0,))[0].counts
        full = evaluate_scan(
            cloud, np.array([True]), truth, GroundTruthPolicy(range_3d=True), (7.0,)
        )[0].counts
        assert planar.total() == 1
        assert full.total() == 0

    def test_length_mismatch(self):
        cloud = _cloud([[0, 0, 0]])
        with pytest.raises(ContractViolationError):
            evaluate_scan(cloud, np.array([True, False]), np.array([40, 40]), POLICY, (10,))

    def test_count_conservation(self, rng):
        pts = rng.uniform(-120, 120, size=(500, 3))
        cloud = _cloud(pts)
        truth = rng.choice([1, 40, 44, 70], size=500).astype(np.uint16)
        mask = rng.random(500) < 0.5
        for d in (10.0, 50.0, 100.0):
            in_range = np.hypot(pts[:, 0], pts[:, 1]) <= d
            c = evaluate_scan(cloud, mask, truth, POLICY, (d,))[0].counts
            assert c.total() == int(in_range.sum())


class TestMetrics:
    def test_precision_example(self):
        assert precision(ConfusionCounts(ntp=9, nfp=1)) == pytest.approx(0.9)

    def test_average_operating_point_cross_check(self):
        # published overall mean precision/recall pair reproduces the F1
        value = harmonic_f1(0.966, 0.894)
        assert value == pytest.approx(0.9287, abs=2e-4)
        assert abs(value * 100 - 92.8) <= 0.1

    def test_first_sequence_cross_check(self):
        value = harmonic_f1(0.971, 0.899)
        assert value == pytest.approx(0.9336, abs=5e-5)
        assert abs(value * 100 - 93.4) <= 0.1

    def test_undefined_on_zero_denominators(self):
        assert precision(ConfusionCounts()) is None
        assert recall(ConfusionCounts()) is None
        assert f1(ConfusionCounts(ntn=5)) is None

    def test_f1_harmonic_identity(self, rng):
        for _ in range(200):
            c = ConfusionCounts(*(int(v) for v in rng.integers(0, 50, size=4)))
            p, r, value = precision(c), recall(c), f1(c)
            if value is not None and (p + r) > 0:
                assert abs(value - 2 * p * r / (p + r)) <= 1e-12


class TestEvaluateScan:
    def test_default_thresholds_ten_rows(self, rng):
        cloud = _cloud(rng.uniform(-50, 50, size=(100, 3)))
        truth = np.full(100, 40, dtype=np.uint16)
        rows = evaluate_scan(cloud, np.ones(100, dtype=bool), truth)
        assert len(rows) == 10
        assert [r.distance_m for r in rows] == [float(d) for d in range(10, 101, 10)]

    def test_counts_monotone_in_threshold(self, rng):
        cloud = _cloud(rng.uniform(-120, 120, size=(800, 3)))
        truth = rng.choice([1, 40], size=800).astype(np.uint16)
        mask = rng.random(800) < 0.4
        rows = evaluate_scan(cloud, mask, truth)
        for a, b in zip(rows, rows[1:]):
            assert a.counts.ntp <= b.counts.ntp
            assert a.counts.nfp <= b.counts.nfp
            assert a.counts.nfn <= b.counts.nfn
            assert a.counts.ntn <= b.counts.ntn

    def test_single_threshold(self, rng):
        cloud = _cloud(rng.uniform(-10, 10, size=(50, 3)))
        truth = np.full(50, 40, dtype=np.uint16)
        rows = evaluate_scan(cloud, np.ones(50, dtype=bool), truth, thresholds=(50.0,))
        assert len(rows) == 1

    @pytest.mark.parametrize("range_3d", [False, True])
    def test_rows_match_a_per_threshold_reference(self, rng, range_3d):
        # the rows keep the thresholds' order, a range equal to a threshold
        # is in range, and a threshold beyond every point counts them all
        pts = np.vstack(
            [rng.uniform(-70, 70, size=(400, 3)), [[0, 0, 0], [6, 8, 0], [6, 0, 8], [0, 0, 3]]]
        )
        cloud = _cloud(pts)
        truth = rng.choice([1, 40, 44, 70], size=len(pts)).astype(np.uint16)
        mask = rng.random(len(pts)) < 0.5
        policy = GroundTruthPolicy(range_3d=range_3d)
        thresholds = (55.0, 0.5, 10.0, 1000.0, 3.0)
        rows = evaluate_scan(cloud, mask, truth, policy, thresholds)

        dist2 = (pts[:, : 3 if range_3d else 2] ** 2).sum(axis=1)
        is_ground = np.isin(truth, [40, 44, 48, 49, 60, 72])
        np.testing.assert_array_equal([r.distance_m for r in rows], thresholds)
        for row, d in zip(rows, thresholds):
            sel = dist2 <= d * d
            p, t = mask[sel], is_ground[sel]
            ref = ((p & t).sum(), (p & ~t).sum(), (~p & t).sum(), (~p & ~t).sum())
            assert (row.counts.ntp, row.counts.nfp, row.counts.nfn, row.counts.ntn) == ref
        assert rows[3].counts.total() == len(pts)

    @pytest.mark.parametrize(
        "thresholds",
        [(10.0, -3.0), (0.0, 10.0), (10.0, np.nan), (np.inf,), (10.0, 20.0, 10.0), ()],
        ids=["negative", "zero", "nan", "infinite", "repeated", "empty"],
    )
    def test_bad_threshold_is_a_config_error(self, thresholds):
        cloud = _cloud([[1.0, 2.0, 0.0], [30.0, 0.0, 0.0]])
        truth = np.array([40, 1], dtype=np.uint16)
        with pytest.raises(ConfigError, match="thresholds must"):
            evaluate_scan(cloud, np.array([True, False]), truth, thresholds=thresholds)

    def test_micro_average_equivalence(self, rng):
        # summing counts over scans == evaluating the concatenated points
        pts1 = rng.uniform(-60, 60, size=(300, 3))
        pts2 = rng.uniform(-60, 60, size=(400, 3))
        truth1 = rng.choice([1, 40], size=300).astype(np.uint16)
        truth2 = rng.choice([1, 40], size=400).astype(np.uint16)
        mask1 = rng.random(300) < 0.5
        mask2 = rng.random(400) < 0.5
        c1 = evaluate_scan(_cloud(pts1), mask1, truth1, POLICY, (50.0,))[0].counts
        c2 = evaluate_scan(_cloud(pts2), mask2, truth2, POLICY, (50.0,))[0].counts
        both = evaluate_scan(
            _cloud(np.vstack([pts1, pts2])),
            np.concatenate([mask1, mask2]),
            np.concatenate([truth1, truth2]),
            POLICY,
            (50.0,),
        )[0].counts
        assert c1 + c2 == both


class TestEvaluateSequence:
    def _sequence(self, tmp_path, n_scans=2, n_ground=2500, seed=3):
        out = tmp_path / "seq"
        specs = [
            gs.SceneSpec(extent=16.0, n_ground=n_ground, seed=seed + k)
            for k in range(n_scans)
        ]
        for k, spec in enumerate(specs):
            gs.write_scene(out, gs.make_scene(spec), f"{k:06d}")
        return out / "velodyne", out / "labels"

    def test_perfect_prediction_known_truth(self, tmp_path, rng):
        # flat all-ground scene: precision must be exactly 1 wherever defined
        scans, labels = self._sequence(tmp_path, n_scans=1)
        report = evaluate_sequence(scans, labels, thresholds=(10.0, 20.0))
        assert report.n_scans == 1
        for row in report.rows:
            if row.precision is not None:
                assert row.precision == 1.0

    def test_perfect_mask_all_metrics_one_std_zero(self, rng):
        # feeding the truth back as the prediction: 1.0 everywhere, std 0
        from gridseg.evaluation import SequenceReport, _aggregate

        pts = rng.uniform(-40, 40, size=(600, 3))
        cloud = _cloud(pts)
        truth = rng.choice([1, 40], size=600).astype(np.uint16)
        perfect = np.isin(truth, [40])
        rows = evaluate_scan(cloud, perfect, truth, thresholds=(10.0, 20.0, 30.0))
        report = SequenceReport(rows=rows)
        _aggregate(report)
        for name in ("precision", "recall", "f1"):
            assert report.mean[name] == 1.0
            assert report.std[name] == 0.0

    def test_two_identical_scans_match_single(self, tmp_path):
        out = tmp_path / "dup"
        scene = gs.make_scene(gs.SceneSpec(extent=16.0, n_ground=2500, seed=9))
        gs.write_scene(out, scene, "000000")
        gs.write_scene(out, scene, "000001")
        single = tmp_path / "single"
        gs.write_scene(single, scene, "000000")
        r_two = evaluate_sequence(out / "velodyne", out / "labels", thresholds=(10.0,))
        r_one = evaluate_sequence(single / "velodyne", single / "labels", thresholds=(10.0,))
        assert r_two.rows[0].precision == r_one.rows[0].precision
        assert r_two.rows[0].recall == r_one.rows[0].recall
        assert r_two.rows[0].counts.ntp == 2 * r_one.rows[0].counts.ntp

    @pytest.mark.parametrize("thresholds", [(8.0, 8.0, 30.0), (10, 20.0, 10.0)])
    def test_repeated_threshold_is_a_config_error(self, tmp_path, thresholds):
        scans, labels = self._sequence(tmp_path, n_scans=1)
        with pytest.raises(ConfigError, match="must not repeat"):
            evaluate_sequence(scans, labels, thresholds=thresholds)

    def test_no_threshold_is_a_config_error(self, tmp_path):
        # with no threshold the report would hold no row at all
        scans, labels = self._sequence(tmp_path, n_scans=1)
        with pytest.raises(ConfigError, match="at least one threshold"):
            evaluate_sequence(scans, labels, thresholds=[])

    def test_matches_independent_reference_computation(self, tmp_path):
        # oracle: recompute the micro-averaged report from the raw files
        scans, labels = self._sequence(tmp_path, n_scans=2)
        thresholds = (8.0, 16.0)
        report = evaluate_sequence(scans, labels, thresholds=thresholds)

        totals = {d: np.zeros(4, dtype=np.int64) for d in thresholds}
        for scan_path in sorted(scans.glob("*.bin")):
            cloud = gs.read_kitti_bin(scan_path)
            truth = gs.read_semantic_labels(labels / (scan_path.stem + ".label"))
            mask = gs.segment(cloud).mask
            dist = np.hypot(cloud.points[:, 0], cloud.points[:, 1])
            is_ground = np.isin(truth, [40, 44, 48, 49, 60, 72])
            for d in thresholds:
                sel = dist <= d
                p, t = mask[sel], is_ground[sel]
                totals[d] += [
                    (p & t).sum(),
                    (p & ~t).sum(),
                    (~p & t).sum(),
                    (~p & ~t).sum(),
                ]
        for row in report.rows:
            ref = totals[row.distance_m]
            assert (row.counts.ntp, row.counts.nfp, row.counts.nfn, row.counts.ntn) == tuple(ref)

    def test_missing_labels_skipped_and_reported(self, tmp_path):
        scans, labels = self._sequence(tmp_path, n_scans=2)
        (labels / "000001.label").unlink()
        report = evaluate_sequence(scans, labels, thresholds=(10.0,))
        assert report.n_scans == 1
        assert len(report.skipped) == 1

    def test_malformed_scans_and_labels_are_skipped_and_reported(self, tmp_path):
        # one good scan with boxes, one without a label, one with a
        # mismatched label count and one malformed scan
        scans, labels = self._sequence(tmp_path, n_scans=4, n_ground=1500)
        box = gs.make_scene(
            gs.SceneSpec(extent=16.0, n_ground=1500, boxes=(gs.BoxSpec(4, 3, 2, 2, 1.5),), seed=8)
        )
        gs.write_scene(scans.parent, box, "000004")
        (labels / "000001.label").unlink()
        (labels / "000002.label").write_bytes(b"\x00" * 8)
        (scans / "000003.bin").write_bytes(b"\x00" * 10)
        report = evaluate_sequence(scans, labels, thresholds=(5.0, 10.0, 15.0))
        assert report.n_scans == 2
        assert [entry.split(": ")[:2] for entry in report.skipped] == [
            ["000001.bin", "no matching label file"],
            ["000002.bin", "label count does not match scan record count"],
            ["000003.bin", "MalformedFileError"],
        ]

    def test_aggregate_mean_std(self, tmp_path):
        scans, labels = self._sequence(tmp_path, n_scans=1)
        report = evaluate_sequence(scans, labels, thresholds=(5.0, 10.0, 15.0))
        vals = [r.recall for r in report.rows if r.recall is not None]
        assert report.mean["recall"] == pytest.approx(np.mean(vals))
        assert report.std["recall"] == pytest.approx(np.std(vals))


def _write_scan(directory, name, points, labels):
    (directory / "velodyne").mkdir(parents=True, exist_ok=True)
    (directory / "labels").mkdir(parents=True, exist_ok=True)
    rows = np.column_stack([points, np.zeros(len(points))]).astype(np.float32)
    rows.tofile(directory / "velodyne" / f"{name}.bin")
    np.asarray(labels, dtype=np.uint32).tofile(directory / "labels" / f"{name}.label")


class TestPerScanSpread:
    """``worst`` and ``p10``: precision and recall per scan at the largest
    threshold, on a hand-made two-scan sequence whose masks are set by hand
    in place of segmentation."""

    # ten points each at 1 m and 30 m; labels 40 (ground) and 50 (not)
    POINTS = np.array([[1.0, 0.0, 0.0]] * 10 + [[30.0, 0.0, 0.0]] * 10)

    def _report(self, monkeypatch, tmp_path, masks, labels, thresholds):
        for k, lab in enumerate(labels):
            _write_scan(tmp_path, f"{k:06d}", self.POINTS, lab)
        given = iter(masks)

        def fake_segment(cloud, cfg):
            mask = np.asarray(next(given), dtype=bool)
            return gs.pipeline.SegmentationResult(mask, gs.pipeline.SegmentationStats())

        monkeypatch.setattr(gs.evaluation, "segment", fake_segment)
        return evaluate_sequence(
            tmp_path / "velodyne", tmp_path / "labels", thresholds=thresholds
        )

    def test_two_scans(self, monkeypatch, tmp_path):
        ground = np.array([40] * 20)
        # scan 0: all ground, half of it found, within 5 m all of it:
        # precision 1, recall 0.5 at 50 m (the largest threshold, listed
        # first); scan 1: half ground, all points called ground: precision
        # 0.5, recall 1
        half = np.array([40] * 5 + [50] * 5 + [40] * 5 + [50] * 5)
        masks = [[True] * 10 + [False] * 10, [True] * 20]
        report = self._report(monkeypatch, tmp_path, masks, [ground, half], (50.0, 5.0))
        assert report.n_scans == 2
        assert report.worst == {"precision": 0.5, "recall": 0.5}
        # numpy's linear rule: 0.5 + 0.1 * (1.0 - 0.5)
        assert report.p10 == {"precision": pytest.approx(0.55), "recall": pytest.approx(0.55)}
        # the pooled counts are no worse than the worst scan
        assert report.rows[0].precision > report.worst["precision"]
        assert format_summary(report).endswith(" / worst Pr 50.0 Rc 50.0")
        lines = emit_report(report, "csv").splitlines()
        assert lines[3:5] == ["worst,,,,,0.500000,0.500000,", "p10,,,,,0.550000,0.550000,"]
        payload = json.loads(emit_report(report, "json"))
        assert payload["worst"] == report.worst and payload["p10"] == report.p10

    def test_a_scan_without_ground_calls_leaves_precision_to_the_other(
        self, monkeypatch, tmp_path
    ):
        # scan 1 calls nothing ground: its precision is undefined and left
        # out, its recall is 0
        ground = np.array([40] * 20)
        masks = [[True] * 20, [False] * 20]
        report = self._report(monkeypatch, tmp_path, masks, [ground, ground], (10.0, 40.0))
        assert report.worst == {"precision": 1.0, "recall": 0.0}
        assert report.p10 == {"precision": 1.0, "recall": pytest.approx(0.1)}

    def test_no_scan_leaves_them_undefined(self, tmp_path):
        (tmp_path / "velodyne").mkdir()
        (tmp_path / "labels").mkdir()
        report = evaluate_sequence(tmp_path / "velodyne", tmp_path / "labels")
        assert report.worst == report.p10 == {"precision": None, "recall": None}
        assert format_summary(report).endswith(" / worst Pr n/a Rc n/a")


class TestEmitReport:
    def _report(self, tmp_path):
        out = tmp_path / "one"
        gs.write_scene(out, gs.make_scene(gs.SceneSpec(extent=14.0, n_ground=2000, seed=1)), "000000")
        return evaluate_sequence(out / "velodyne", out / "labels", thresholds=(6.0, 12.0))

    def test_empty_report_header_only(self):
        from gridseg.evaluation import SequenceReport

        text = emit_report(SequenceReport(), "csv")
        assert text.strip() == "distance,ntp,nfp,nfn,ntn,precision,recall,f1"

    def test_csv_rows_plus_aggregate(self, tmp_path):
        report = self._report(tmp_path)
        lines = emit_report(report, "csv").strip().splitlines()
        assert lines[0] == "distance,ntp,nfp,nfn,ntn,precision,recall,f1"
        assert len(lines) == 1 + 2 + 2 + 1  # header + thresholds + worst, p10 + aggregate
        assert [line.split(",")[0] for line in lines[3:5]] == ["worst", "p10"]
        assert lines[-1].startswith("aggregate,")

    def test_json_round_trip(self, tmp_path):
        report = self._report(tmp_path)
        payload = json.loads(emit_report(report, "json"))
        rows = [
            {
                "distance_m": r.distance_m,
                "ntp": r.counts.ntp,
                "nfp": r.counts.nfp,
                "nfn": r.counts.nfn,
                "ntn": r.counts.ntn,
                "precision": r.precision,
                "recall": r.recall,
                "f1": r.f1,
            }
            for r in report.rows
        ]
        assert len(rows) > 0
        assert payload == {
            "rows": rows,
            "mean": report.mean,
            "std": report.std,
            "undefined": report.undefined,
            "runtime_mean_ms": report.runtime_mean_ms,
            "runtime_std_ms": report.runtime_std_ms,
            "n_scans": report.n_scans,
            "skipped": report.skipped,
            "worst": report.worst,
            "p10": report.p10,
        }

    def test_summary_line_format(self, tmp_path):
        report = self._report(tmp_path)
        line = format_summary(report)
        assert line.startswith("Pr ") and "/ Rc " in line and "/ F1 " in line


class TestOutcome:
    def test_an_exception_is_an_error_string(self):
        want = [1, "ValueError: invalid literal for int() with base 10: 'x'"]
        assert [_outcome(int, "1"), _outcome(int, "x")] == want
