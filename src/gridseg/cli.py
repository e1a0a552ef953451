"""Command-line driver: segment scans, run the evaluation protocol, and
generate synthetic benchmark scenes.

Exit codes: 0 full success, 1 total failure, 2 partial success (some scans
failed while others were processed).  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cloud_io, synth
from .config import ENV_CONFIG_PATH, dump_config, resolve_config
from .errors import ConfigError
from .evaluation import (
    DEFAULT_GROUND_LABELS,
    DEFAULT_THRESHOLDS,
    GroundTruthPolicy,
    _outcome,
    check_thresholds,
    emit_report,
    evaluate_sequence,
    format_summary,
)
from .pipeline import segment


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        help=f"config file path (falls back to ${ENV_CONFIG_PATH})",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key; repeatable, wins over the config file",
    )


def _segment_one(scan: Path, cfg, out: Path, fmt: str):
    """Segment one scan and write its outputs; returns its stats dict or
    raises (see ``evaluation._outcome``)."""
    cloud = cloud_io.read_kitti_bin(scan)
    result = segment(cloud, cfg)
    cloud_io.write_mask(out / (scan.stem + ".mask"), result.mask)
    if fmt == "xyz":
        cloud_io.write_xyz(out / (scan.stem + ".xyz"), cloud, result.mask)
    return {**result.stats.as_dict(), "scan": scan.name, "ground_points": int(result.mask.sum())}


def cmd_segment(args) -> int:
    input_path = Path(args.input)
    if input_path.is_dir():
        scans = sorted(input_path.glob("*.bin"))
    elif input_path.exists():
        scans = [input_path]
    else:
        print(f"input not found: {input_path}", file=sys.stderr)
        return 1
    if not scans:
        print(f"no .bin scans under {input_path}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    all_stats: dict[str, dict] = {}
    failures = []
    for scan in scans:
        outcome = _outcome(_segment_one, scan, args.cfg, out_dir, args.format)
        if isinstance(outcome, str):
            failures.append(scan.name)
            print(f"{scan.name}: {outcome}", file=sys.stderr)
        else:
            all_stats[scan.name] = outcome

    (out_dir / "stats.json").write_text(json.dumps(all_stats, indent=2, sort_keys=True))
    if not all_stats:
        return 1
    return 2 if failures else 0


def _ground_labels(raw: str) -> frozenset[int]:
    """The ``--ground-labels`` ids; ``ConfigError`` naming the option
    unless each is an integer."""
    try:
        return frozenset(int(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"--ground-labels must be integers: {exc}") from None


def cmd_evaluate(args) -> int:
    try:
        labels = _ground_labels(args.ground_labels)
        policy = GroundTruthPolicy(ground_label_ids=labels, range_3d=args.range_3d)
        thresholds = check_thresholds(args.max_dists.split(","), "--max-dists")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if not Path(args.scans).is_dir() or not Path(args.labels).is_dir():
        print("scan and label directories must exist", file=sys.stderr)
        return 1

    if args.report:  # an unusable report path fails before any scan is scored
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
    report = evaluate_sequence(args.scans, args.labels, args.cfg, policy, thresholds=thresholds)
    for entry in report.skipped:
        print(f"skipped {entry}", file=sys.stderr)

    text = emit_report(report, args.format)
    if args.report:
        Path(args.report).write_text(text)
    else:
        sys.stdout.write(text)
    print(format_summary(report))

    if report.n_scans == 0:
        return 1
    return 2 if report.skipped else 0


def _parse_box(raw: str) -> synth.BoxSpec:
    parts = [float(v) for v in raw.split(",")]
    if len(parts) not in (5, 6):
        raise ConfigError("--box needs cx,cy,sx,sy,sz[,base]")
    return synth.BoxSpec(*parts)


def cmd_synth(args) -> int:
    try:
        boxes = tuple(_parse_box(b) for b in args.box)
    except (ConfigError, ValueError) as exc:
        print(f"bad --box: {exc}", file=sys.stderr)
        return 1
    if args.num_scans < 1:
        print(f"--num-scans must be at least 1, got {args.num_scans}", file=sys.stderr)
        return 1

    try:
        specs = [
            synth.SceneSpec(
                extent=args.extent,
                n_ground=args.points,
                slope_deg=args.slope_deg,
                noise_sigma=args.noise_sigma,
                boxes=boxes,
                box_density=args.box_density,
                seed=args.seed + k,
            )
            for k in range(args.num_scans)
        ]
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for k, spec in enumerate(specs):
            synth.write_scene(out_dir, synth.make_scene(spec), f"{k:06d}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    synth.write_manifest(out_dir, specs)
    return 0


def cmd_config_dump(args) -> int:
    sys.stdout.write(dump_config(args.cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridseg",
        description="Dual-phase grid-based LiDAR ground segmentation and benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seg = sub.add_parser("segment", help="segment one scan or a directory of scans")
    p_seg.add_argument("input", help=".bin scan file or directory of scans")
    p_seg.add_argument("--out", required=True, help="output directory for masks + stats.json")
    p_seg.add_argument("--format", choices=("binary", "xyz"), default="binary")
    _add_config_flags(p_seg)
    p_seg.set_defaults(func=cmd_segment)

    p_eval = sub.add_parser("evaluate", help="segment + score a sequence against labels")
    p_eval.add_argument("--scans", required=True, help="directory of .bin scans")
    p_eval.add_argument("--labels", required=True, help="directory of .label files")
    p_eval.add_argument("--report", help="report output path (stdout when omitted)")
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.add_argument(
        "--ground-labels",
        default=",".join(str(label) for label in sorted(DEFAULT_GROUND_LABELS)),
        help="comma-separated semantic ids counted as ground",
    )
    p_eval.add_argument(
        "--max-dists",
        default=",".join(f"{d:g}" for d in DEFAULT_THRESHOLDS),
        help="comma-separated range thresholds in meters",
    )
    p_eval.add_argument("--range-3d", action="store_true", help="use 3D range, not planar")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    scene = synth.SceneSpec()
    p_synth = sub.add_parser("synth", help="generate synthetic labeled scenes")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--extent", type=float, default=scene.extent)
    p_synth.add_argument("--points", type=int, default=scene.n_ground)
    p_synth.add_argument("--slope-deg", type=float, default=scene.slope_deg)
    p_synth.add_argument("--noise-sigma", type=float, default=scene.noise_sigma)
    p_synth.add_argument("--seed", type=int, default=scene.seed)
    p_synth.add_argument("--num-scans", type=int, default=1)
    p_synth.add_argument(
        "--box",
        action="append",
        default=[],
        metavar="CX,CY,SX,SY,SZ[,BASE]",
        help="add an axis-aligned box obstacle; repeatable",
    )
    p_synth.add_argument("--box-density", type=float, default=scene.box_density)
    p_synth.set_defaults(func=cmd_synth)

    p_dump = sub.add_parser("config-dump", help="print the effective configuration")
    _add_config_flags(p_dump)
    p_dump.set_defaults(func=cmd_config_dump)

    return parser


def main(argv=None) -> int:
    """Run one command.  A command with config flags gets the resolved
    configuration as ``args.cfg``; a config error is reported before it runs.
    An ``OSError`` the command raises (an output path it cannot create or
    write) is reported in one line and exits 1."""
    args = build_parser().parse_args(argv)
    if hasattr(args, "overrides"):
        try:
            args.cfg = resolve_config(args.config, args.overrides)
        except (ConfigError, ValueError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
