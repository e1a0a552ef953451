import json

import numpy as np
import pytest

import gridseg as gs
from gridseg.cli import main


@pytest.fixture(autouse=True)
def _no_env_config(monkeypatch):
    monkeypatch.delenv("GRIDSEG_CONFIG", raising=False)


def _make_sequence(tmp_path, n_scans=1, n_ground=2500, seed=0, name="seq"):
    out = tmp_path / name
    for k in range(n_scans):
        scene = gs.make_scene(gs.SceneSpec(extent=16.0, n_ground=n_ground, seed=seed + k))
        gs.write_scene(out, scene, f"{k:06d}")
    return out


class TestSegmentCommand:
    def test_single_scan(self, tmp_path):
        seq = _make_sequence(tmp_path)
        out = tmp_path / "out"
        code = main(["segment", str(seq / "velodyne" / "000000.bin"), "--out", str(out)])
        assert code == 0
        mask = gs.read_mask(out / "000000.mask")
        assert len(mask) == 2500
        stats = json.loads((out / "stats.json").read_text())
        assert stats["000000.bin"]["ground_points"] == int(mask.sum())

    def test_directory_with_corrupt_scan(self, tmp_path, capsys):
        seq = _make_sequence(tmp_path, n_scans=2)
        (seq / "velodyne" / "000002.bin").write_bytes(b"\x00" * 10)  # not multiple of 16
        out = tmp_path / "out"
        code = main(["segment", str(seq / "velodyne"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "000002.bin" in err
        assert (out / "000000.mask").exists()
        assert (out / "000001.mask").exists()

    def test_jobs_2_reports_a_malformed_scan_as_jobs_1_does(self, tmp_path, capsys):
        seq = _make_sequence(tmp_path, n_scans=2, n_ground=1200)
        (seq / "velodyne" / "000002.bin").write_bytes(b"\x00" * 10)  # not multiple of 16
        lines = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            assert main(["segment", str(seq / "velodyne"), "--out", str(out), "--jobs", jobs]) == 2
            err = capsys.readouterr().err.splitlines()
            lines[jobs] = [line for line in err if "MalformedFileError" in line]
            assert (out / "000000.mask").exists() and (out / "000001.mask").exists()
        assert len(lines["1"]) == 1 and lines["1"][0].startswith("000002.bin: ")
        assert lines["2"] == lines["1"]

    def test_missing_input(self, tmp_path):
        assert main(["segment", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "o")]) == 1

    def test_xyz_format(self, tmp_path):
        seq = _make_sequence(tmp_path, n_ground=800)
        out = tmp_path / "out"
        code = main(
            [
                "segment",
                str(seq / "velodyne" / "000000.bin"),
                "--out",
                str(out),
                "--format",
                "xyz",
            ]
        )
        assert code == 0
        assert (out / "000000.xyz").exists()

    def test_jobs_parallel_matches_serial(self, tmp_path):
        seq = _make_sequence(tmp_path, n_scans=3, n_ground=1200)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["segment", str(seq / "velodyne"), "--out", str(out1)]) == 0
        assert main(["segment", str(seq / "velodyne"), "--out", str(out2), "--jobs", "2"]) == 0
        for k in range(3):
            a = (out1 / f"{k:06d}.mask").read_bytes()
            b = (out2 / f"{k:06d}.mask").read_bytes()
            assert a == b


class TestEvaluateCommand:
    def test_report_file_and_summary(self, tmp_path, capsys):
        seq = _make_sequence(tmp_path, n_scans=2, n_ground=2000)
        report = tmp_path / "report.csv"
        code = main(
            [
                "evaluate",
                "--scans",
                str(seq / "velodyne"),
                "--labels",
                str(seq / "labels"),
                "--report",
                str(report),
                "--max-dists",
                "8,16",
            ]
        )
        assert code == 0
        assert report.exists()
        out = capsys.readouterr().out
        assert out.strip().startswith("Pr ")

    def test_json_report_parses(self, tmp_path, capsys):
        seq = _make_sequence(tmp_path)
        report = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--scans",
                str(seq / "velodyne"),
                "--labels",
                str(seq / "labels"),
                "--report",
                str(report),
                "--format",
                "json",
                "--max-dists",
                "8",
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["n_scans"] == 1

    def test_mismatched_labels_exit_2(self, tmp_path, capsys):
        seq = _make_sequence(tmp_path, n_scans=2)
        (seq / "labels" / "000001.label").unlink()
        code = main(
            [
                "evaluate",
                "--scans",
                str(seq / "velodyne"),
                "--labels",
                str(seq / "labels"),
                "--max-dists",
                "8",
            ]
        )
        assert code == 2
        assert "skipped" in capsys.readouterr().err

    def test_missing_dirs_exit_1(self, tmp_path):
        code = main(
            ["evaluate", "--scans", str(tmp_path / "a"), "--labels", str(tmp_path / "b")]
        )
        assert code == 1

    def test_segment_then_score_matches_evaluate(self, tmp_path, capsys):
        # no hidden state: the standalone mask reproduces evaluate's counts
        seq = _make_sequence(tmp_path, n_ground=2000, seed=4)
        out = tmp_path / "masks"
        assert main(["segment", str(seq / "velodyne"), "--out", str(out)]) == 0
        mask = gs.read_mask(out / "000000.mask")
        cloud = gs.read_kitti_bin(seq / "velodyne" / "000000.bin")
        truth = gs.read_semantic_labels(seq / "labels" / "000000.label")
        c = gs.confusion_counts(mask, truth, gs.GroundTruthPolicy(), 8.0, cloud)

        report = tmp_path / "r.json"
        main(
            [
                "evaluate",
                "--scans",
                str(seq / "velodyne"),
                "--labels",
                str(seq / "labels"),
                "--report",
                str(report),
                "--format",
                "json",
                "--max-dists",
                "8",
            ]
        )
        row = json.loads(report.read_text())["rows"][0]
        assert (row["ntp"], row["nfp"], row["nfn"], row["ntn"]) == (
            c.ntp,
            c.nfp,
            c.nfn,
            c.ntn,
        )


class TestSynthCommand:
    def test_writes_scene_files(self, tmp_path):
        out = tmp_path / "scene"
        code = main(
            [
                "synth",
                "--out",
                str(out),
                "--points",
                "500",
                "--num-scans",
                "2",
                "--box",
                "3,3,1,1,1",
            ]
        )
        assert code == 0
        assert (out / "velodyne" / "000000.bin").exists()
        assert (out / "labels" / "000001.label").exists()
        assert (out / "manifest.json").exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--points", "400", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "velodyne" / "000000.bin").read_bytes() == (
            b / "velodyne" / "000000.bin"
        ).read_bytes()

    def test_bad_box_spec(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--box", "1,2"]) == 1


class TestConfigDumpCommand:
    def test_defaults(self, capsys):
        assert main(["config-dump"]) == 0
        out = capsys.readouterr().out
        assert "groundInlierThreshold: 0.125" in out
        assert "cellSizeZ: 1.5 (Phase I), 0.2 (Phase II)" in out

    def test_override(self, capsys):
        assert main(["config-dump", "--set", "slopeThresholdDegrees=20"]) == 0
        out = capsys.readouterr().out
        assert "slopeThresholdDegrees: 20" in out
        assert "groundInlierThreshold: 0.125" in out

    def test_bad_key_exit_1(self, capsys):
        assert main(["config-dump", "--set", "noSuchKey=1"]) == 1
        assert "noSuchKey" in capsys.readouterr().err

    def test_config_file_plus_override(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("robotRadius: 3.1\nslopeThresholdDegrees: 25\n")
        assert main(["config-dump", "--config", str(p), "--set", "robotRadius=3.5"]) == 0
        out = capsys.readouterr().out
        assert "robotRadius: 3.5" in out
        assert "slopeThresholdDegrees: 25" in out
