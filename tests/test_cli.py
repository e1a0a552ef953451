import json

import numpy as np
import pytest

import gridseg as gs
from gridseg.cli import build_parser, main


@pytest.fixture(autouse=True)
def _no_env_config(monkeypatch):
    monkeypatch.delenv("GRIDSEG_CONFIG", raising=False)


def _make_sequence(tmp_path, n_scans=1, n_ground=2500, seed=0, name="seq"):
    out = tmp_path / name
    for k in range(n_scans):
        scene = gs.make_scene(gs.SceneSpec(extent=16.0, n_ground=n_ground, seed=seed + k))
        gs.write_scene(out, scene, f"{k:06d}")
    return out


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["evaluate", "--scans", "s", "--labels", "l"])
    labels = {int(label) for label in args.ground_labels.split(",")}
    assert labels == gs.evaluation.DEFAULT_GROUND_LABELS
    thresholds = tuple(float(d) for d in args.max_dists.split(","))
    assert thresholds == gs.evaluation.DEFAULT_THRESHOLDS
    args = parser.parse_args(["synth", "--out", "o"])
    flags = ("extent", "points", "slope_deg", "noise_sigma", "box_density", "seed")
    fields = ("extent", "n_ground", "slope_deg", "noise_sigma", "box_density", "seed")
    scene = gs.SceneSpec()
    assert [getattr(args, f) for f in flags] == [getattr(scene, f) for f in fields]
    assert [type(getattr(args, f)) for f in flags] == [type(getattr(scene, f)) for f in fields]


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

    def test_a_malformed_scan_is_reported_in_one_line(self, tmp_path, capsys):
        seq = _make_sequence(tmp_path, n_scans=2, n_ground=1200)
        (seq / "velodyne" / "000002.bin").write_bytes(b"\x00" * 10)  # not multiple of 16
        out = tmp_path / "out"
        assert main(["segment", str(seq / "velodyne"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        lines = [line for line in err if "MalformedFileError" in line]
        assert (out / "000000.mask").exists() and (out / "000001.mask").exists()
        assert len(lines) == 1 and lines[0].startswith("000002.bin: MalformedFileError: ")

    def test_missing_input(self, tmp_path):
        assert main(["segment", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "o")]) == 1

    def test_an_output_path_that_is_a_file_fails_with_one_line(self, tmp_path, capsys):
        seq = _make_sequence(tmp_path, n_ground=1200)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["segment", str(seq / "velodyne"), "--out", str(taken)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0]

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

    def test_nonfinite_records_get_one_mask_byte_each(self, tmp_path):
        seq = _make_sequence(tmp_path, n_ground=1500)
        scan = seq / "velodyne" / "000000.bin"
        records = np.fromfile(scan, dtype="<f4").reshape(-1, 4)
        records[5, 0] = np.nan
        records[17, 2] = np.inf
        records[30, 3] = np.nan  # intensity only: segmented like any point
        records.tofile(scan)
        out = tmp_path / "out"
        assert main(["segment", str(scan), "--out", str(out)]) == 0
        mask = gs.read_mask(out / "000000.mask")
        assert len(mask) == len(records) == 1500
        assert not mask[5] and not mask[17]
        stats = json.loads((out / "stats.json").read_text())["000000.bin"]
        assert stats["n_nonfinite"] == 2
        assert stats["ground_points"] == int(mask.sum())
        assert "dropped_nonfinite" not in stats
        # the label file still lines up with the records
        report = tmp_path / "report.json"
        labels = ["--scans", str(seq / "velodyne"), "--labels", str(seq / "labels")]
        assert main(["evaluate", *labels, "--report", str(report), "--format", "json"]) == 0
        assert json.loads(report.read_text())["n_scans"] == 1


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
        assert out.strip().startswith("Pr ") and " / worst Pr " in out
        assert [line.split(",")[0] for line in report.read_text().splitlines()[3:5]] == [
            "worst", "p10"
        ]

    def test_a_report_under_a_file_fails_with_one_line(self, tmp_path, capsys, monkeypatch):
        # before any scan is segmented
        seq = _make_sequence(tmp_path, n_scans=3, n_ground=1200)
        taken = tmp_path / "taken"
        taken.write_text("")
        calls = []
        monkeypatch.setattr(gs.evaluation, "segment", lambda *a, **k: calls.append(a))
        args = ["--scans", str(seq / "velodyne"), "--labels", str(seq / "labels")]
        assert main(["evaluate", *args, "--report", str(taken / "r.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0]
        assert calls == []

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

    @pytest.mark.parametrize("dists", ["-5", "0", "8,nan", "inf", "8,-inf", "", "10,x"])
    def test_bad_max_dists_exit_1(self, tmp_path, capsys, dists):
        seq = _make_sequence(tmp_path)
        scans, labels = str(seq / "velodyne"), str(seq / "labels")
        argv = ["evaluate", "--scans", scans, "--labels", labels, f"--max-dists={dists}"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --max-dists") and captured.out == ""

    @pytest.mark.parametrize("labels", ["x", "", "1,x", "40,,44"])
    def test_bad_ground_labels_exit_1(self, tmp_path, capsys, labels):
        seq = _make_sequence(tmp_path)
        scans, labels_dir = str(seq / "velodyne"), str(seq / "labels")
        argv = ["evaluate", "--scans", scans, "--labels", labels_dir, f"--ground-labels={labels}"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --ground-labels") and captured.out == ""

    def test_repeated_max_dist_exit_1(self, tmp_path, capsys):
        # a repeated threshold would weight its range twice in the aggregate
        seq = _make_sequence(tmp_path)
        scans, labels = str(seq / "velodyne"), str(seq / "labels")
        argv = ["evaluate", "--scans", scans, "--labels", labels, "--max-dists", "8,8,8,30"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --max-dists must not repeat")
        assert captured.out == ""

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
        c = gs.evaluate_scan(cloud, mask, truth, gs.GroundTruthPolicy(), (8.0,))[0].counts

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


class TestConfigErrors:
    @pytest.mark.parametrize("command", ["segment", "evaluate", "config-dump"])
    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_a_missing_config_file_fails_before_the_command_runs(
        self, tmp_path, capsys, monkeypatch, command, via_env
    ):
        seq = _make_sequence(tmp_path)
        out = tmp_path / "out"
        argv = {
            "segment": ["segment", str(seq / "velodyne"), "--out", str(out)],
            "evaluate": [
                "evaluate",
                "--scans",
                str(seq / "velodyne"),
                "--labels",
                str(seq / "labels"),
                "--report",
                str(out / "report.csv"),
            ],
            "config-dump": ["config-dump"],
        }[command]
        missing = str(tmp_path / "missing.cfg")
        if via_env:
            monkeypatch.setenv("GRIDSEG_CONFIG", missing)
        else:
            argv += ["--config", missing]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert not out.exists()


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

    def test_an_output_path_that_is_a_file_fails_with_one_line(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["synth", "--out", str(taken), "--points", "100"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0]

    def test_bad_box_spec(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--box", "1,2"]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--extent", "-3"], "extent must be positive"),
            (["--noise-sigma", "-1"], "noise_sigma must be >= 0"),
            (["--points", "-5"], "n_ground must be >= 0"),
            (["--box-density", "-2"], "box_density must be >= 0"),
            (["--num-scans", "-1"], "--num-scans must be at least 1"),
            (["--num-scans", "0"], "--num-scans must be at least 1"),
            (["--box", "3,3,-2,1,1"], "bad --box: box sx must be positive"),
            (["--box", "3,3,2,1,-1"], "bad --box: box sz must be positive"),
            (["--box", "3,3,2,1,nan"], "bad --box: box sz must be finite"),
            (["--slope-deg", "nan"], "slope_deg must be within (-90, 90)"),
            (["--slope-deg", "90"], "slope_deg must be within (-90, 90)"),
        ],
    )
    def test_bad_scene_settings_fail_before_writing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "scene"
        assert main(["synth", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err.strip()
        assert message in err and "\n" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--seed", "-2", "--num-scans", "3"]], ids=["-1", "-2x3"]
    )
    def test_negative_seed_fails_with_one_line(self, tmp_path, capsys, flags):
        out = tmp_path / "scene"
        assert main(["synth", "--out", str(out), "--points", "100", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("config error: seed must be a non-negative integer, got -")
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_boxes_covering_the_extent_fail_with_one_line(self, tmp_path, capsys):
        flags = ["--extent", "10", "--points", "100", "--box", "0,0,100,100,1"]
        assert main(["synth", "--out", str(tmp_path / "scene"), *flags]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "config error: box footprints cover too much of the scene extent"


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
