import os

import numpy as np
import pytest

import gridseg as gs
from gridseg.cloud_io import PointCloud
from gridseg.errors import ContractViolationError
from gridseg.evaluation import (
    ConfusionCounts,
    GroundTruthPolicy,
    confusion_counts,
    emit_report,
    evaluate_scan,
    evaluate_sequence,
    f1,
    fan_out,
    format_summary,
    harmonic_f1,
    precision,
    recall,
    report_from_json,
)

POLICY = GroundTruthPolicy()


def _cloud(points):
    return PointCloud(points=np.asarray(points, dtype=float))


class TestConfusionCounts:
    def test_two_by_two(self):
        cloud = _cloud([[1, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]])
        truth = np.array([40, 40, 1, 1], dtype=np.uint16)
        mask = np.array([True, False, True, False])
        c = confusion_counts(mask, truth, POLICY, 100.0, cloud)
        assert (c.ntp, c.nfn, c.nfp, c.ntn) == (1, 1, 1, 1)

    def test_range_boundary_inclusive(self):
        cloud = _cloud([[80.0, 60.0, 0.0]])  # planar range exactly 100
        c = confusion_counts(
            np.array([True]), np.array([40], dtype=np.uint16), POLICY, 100.0, cloud
        )
        assert c.total() == 1 and c.ntp == 1

    def test_out_of_range_excluded(self):
        cloud = _cloud([[200.0, 0.0, 0.0], [0.0, 150.0, 0.0]])
        c = confusion_counts(
            np.array([True, False]),
            np.array([40, 40], dtype=np.uint16),
            POLICY,
            100.0,
            cloud,
        )
        assert c.total() == 0

    def test_planar_vs_3d_range(self):
        cloud = _cloud([[6.0, 0.0, 8.0]])  # planar 6, full 10
        truth = np.array([40], dtype=np.uint16)
        planar = confusion_counts(np.array([True]), truth, POLICY, 7.0, cloud)
        full = confusion_counts(
            np.array([True]), truth, GroundTruthPolicy(range_3d=True), 7.0, cloud
        )
        assert planar.total() == 1
        assert full.total() == 0

    def test_length_mismatch(self):
        cloud = _cloud([[0, 0, 0]])
        with pytest.raises(ContractViolationError):
            confusion_counts(np.array([True, False]), np.array([40, 40]), POLICY, 10, cloud)

    def test_count_conservation(self, rng):
        pts = rng.uniform(-120, 120, size=(500, 3))
        cloud = _cloud(pts)
        truth = rng.choice([1, 40, 44, 70], size=500).astype(np.uint16)
        mask = rng.random(500) < 0.5
        for d in (10.0, 50.0, 100.0):
            in_range = np.hypot(pts[:, 0], pts[:, 1]) <= d
            c = confusion_counts(mask, truth, POLICY, d, cloud)
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

    def test_micro_average_equivalence(self, rng):
        # summing counts over scans == evaluating the concatenated points
        pts1 = rng.uniform(-60, 60, size=(300, 3))
        pts2 = rng.uniform(-60, 60, size=(400, 3))
        truth1 = rng.choice([1, 40], size=300).astype(np.uint16)
        truth2 = rng.choice([1, 40], size=400).astype(np.uint16)
        mask1 = rng.random(300) < 0.5
        mask2 = rng.random(400) < 0.5
        c1 = confusion_counts(mask1, truth1, POLICY, 50.0, _cloud(pts1))
        c2 = confusion_counts(mask2, truth2, POLICY, 50.0, _cloud(pts2))
        both = confusion_counts(
            np.concatenate([mask1, mask2]),
            np.concatenate([truth1, truth2]),
            POLICY,
            50.0,
            _cloud(np.vstack([pts1, pts2])),
        )
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
        from gridseg.evaluation import SequenceReport, _aggregate, _row

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

    def test_jobs_2_matches_jobs_1(self, tmp_path):
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
        one = evaluate_sequence(scans, labels, thresholds=(5.0, 10.0, 15.0), jobs=1)
        two = evaluate_sequence(scans, labels, thresholds=(5.0, 10.0, 15.0), jobs=2)
        assert one.n_scans == two.n_scans == 2
        assert len(one.skipped) == 3
        assert two.skipped == one.skipped
        assert two.rows == one.rows
        assert (two.mean, two.std, two.undefined) == (one.mean, one.std, one.undefined)

    def test_aggregate_mean_std(self, tmp_path):
        scans, labels = self._sequence(tmp_path, n_scans=1)
        report = evaluate_sequence(scans, labels, thresholds=(5.0, 10.0, 15.0))
        vals = [r.recall for r in report.rows if r.recall is not None]
        assert report.mean["recall"] == pytest.approx(np.mean(vals))
        assert report.std["recall"] == pytest.approx(np.std(vals))


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
        assert len(lines) == 1 + 2 + 1  # header + thresholds + aggregate
        assert lines[-1].startswith("aggregate,")

    def test_json_round_trip(self, tmp_path):
        report = self._report(tmp_path)
        text = emit_report(report, "json")
        back = report_from_json(text)
        assert back == report

    def test_summary_line_format(self, tmp_path):
        report = self._report(tmp_path)
        line = format_summary(report)
        assert line.startswith("Pr ") and "/ Rc " in line and "/ F1 " in line


def _exit_worker(code):
    os._exit(code)


class TestFanOut:
    def test_an_exception_is_an_error_string_serially_and_in_parallel(self):
        want = [1, "ValueError: invalid literal for int() with base 10: 'x'"]
        for jobs in (1, 2):
            assert fan_out(int, [("1",), ("x",)], jobs) == want

    def test_a_crashed_worker_process_is_an_error_string(self):
        outcomes = fan_out(_exit_worker, [(3,), (4,)], 2)
        assert all(o.startswith("BrokenProcessPool: ") for o in outcomes)
