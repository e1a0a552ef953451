"""Command-line driver: segment scans, run the evaluation protocol, and
generate synthetic benchmark scenes.

Exit codes: 0 full success, 1 total failure, 2 partial success (some scans
failed while others were processed).  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import cloud_io, synth
from .config import ENV_CONFIG_PATH, dump_config, resolve_config
from .errors import ConfigError
from .evaluation import (
    DEFAULT_THRESHOLDS,
    GroundTruthPolicy,
    emit_report,
    evaluate_sequence,
    fan_out,
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


def _segment_one(scan_path: str, cfg, out_dir: str, fmt: str):
    """Worker for one scan; returns its stats dict or raises (see ``fan_out``)."""
    scan = Path(scan_path)
    cloud = cloud_io.read_kitti_bin(scan)
    t0 = time.perf_counter()
    result = segment(cloud, cfg)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    out = Path(out_dir)
    cloud_io.write_mask(out / (scan.stem + ".mask"), result.mask)
    if fmt == "xyz":
        cloud_io.write_xyz(out / (scan.stem + ".xyz"), cloud, result.mask)
    stats = result.stats.as_dict()
    stats["scan"] = scan.name
    stats["dropped_nonfinite"] = cloud.dropped_nonfinite
    stats["ground_points"] = int(result.mask.sum())
    stats["wall_ms"] = runtime_ms
    return stats


def cmd_segment(args) -> int:
    try:
        cfg = resolve_config(args.config, args.overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

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
    tasks = [(str(s), cfg, str(out_dir), args.format) for s in scans]
    for scan, outcome in zip(scans, fan_out(_segment_one, tasks, args.jobs)):
        if isinstance(outcome, str):
            failures.append(scan.name)
            print(f"{scan.name}: {outcome}", file=sys.stderr)
        else:
            all_stats[scan.name] = outcome

    (out_dir / "stats.json").write_text(json.dumps(all_stats, indent=2, sort_keys=True))
    if not all_stats:
        return 1
    return 2 if failures else 0


def cmd_evaluate(args) -> int:
    try:
        cfg = resolve_config(args.config, args.overrides)
        labels = frozenset(int(v) for v in args.ground_labels.split(","))
        policy = GroundTruthPolicy(ground_label_ids=labels, range_3d=args.range_3d)
        thresholds = tuple(float(v) for v in args.max_dists.split(","))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if not Path(args.scans).is_dir() or not Path(args.labels).is_dir():
        print("scan and label directories must exist", file=sys.stderr)
        return 1

    report = evaluate_sequence(
        args.scans, args.labels, cfg, policy, thresholds=thresholds, jobs=args.jobs
    )
    for entry in report.skipped:
        print(f"skipped {entry}", file=sys.stderr)

    text = emit_report(report, args.format)
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
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

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = []
    for k in range(args.num_scans):
        spec = synth.SceneSpec(
            extent=args.extent,
            n_ground=args.points,
            slope_deg=args.slope_deg,
            noise_sigma=args.noise_sigma,
            boxes=boxes,
            box_density=args.box_density,
            seed=args.seed + k,
        )
        scene = synth.make_scene(spec)
        synth.write_scene(out_dir, scene, f"{k:06d}")
        specs.append(spec)
    synth.write_manifest(out_dir, specs)
    return 0


def cmd_config_dump(args) -> int:
    try:
        cfg = resolve_config(args.config, args.overrides)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(dump_config(cfg))
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
    p_seg.add_argument("--jobs", type=int, default=1)
    _add_config_flags(p_seg)
    p_seg.set_defaults(func=cmd_segment)

    p_eval = sub.add_parser("evaluate", help="segment + score a sequence against labels")
    p_eval.add_argument("--scans", required=True, help="directory of .bin scans")
    p_eval.add_argument("--labels", required=True, help="directory of .label files")
    p_eval.add_argument("--report", help="report output path (stdout when omitted)")
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.add_argument("--jobs", type=int, default=1)
    p_eval.add_argument(
        "--ground-labels",
        default="40,44,48,49,60,72",
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

    p_synth = sub.add_parser("synth", help="generate synthetic labeled scenes")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--extent", type=float, default=40.0)
    p_synth.add_argument("--points", type=int, default=20000)
    p_synth.add_argument("--slope-deg", type=float, default=0.0)
    p_synth.add_argument("--noise-sigma", type=float, default=0.02)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--num-scans", type=int, default=1)
    p_synth.add_argument(
        "--box",
        action="append",
        default=[],
        metavar="CX,CY,SX,SY,SZ[,BASE]",
        help="add an axis-aligned box obstacle; repeatable",
    )
    p_synth.add_argument("--box-density", type=float, default=40.0)
    p_synth.set_defaults(func=cmd_synth)

    p_dump = sub.add_parser("config-dump", help="print the effective configuration")
    _add_config_flags(p_dump)
    p_dump.set_defaults(func=cmd_config_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
