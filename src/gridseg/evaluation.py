"""Distance-bucketed precision/recall/F1 evaluation against semantic labels.

Scans are scored by ``evaluate_scan`` at range thresholds (default 10..100 m
in 10 m steps, measured in the horizontal plane from the sensor).  Counts
are summed over all scans of a sequence per threshold (micro-average),
metrics are computed per threshold, and the sequence is summarized by the
mean and population standard deviation of each metric across thresholds.
Rows with a zero denominator are undefined and excluded from the aggregates;
the exclusion counts are reported.  Precision and recall are also taken per
scan at the largest threshold, and summarized by their worst value and their
10th percentile over scans: a mean can hide a few bad scans.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .cloud_io import PointCloud, read_kitti_bin, read_semantic_labels
from .errors import ConfigError, ContractViolationError
from .pipeline import PipelineConfig, make_default_config, segment

DEFAULT_THRESHOLDS = tuple(float(d) for d in range(10, 101, 10))
DEFAULT_GROUND_LABELS = frozenset({40, 44, 48, 49, 60, 72})


@dataclass(frozen=True)
class GroundTruthPolicy:
    """Which semantic class ids count as ground, and how range is measured."""

    ground_label_ids: frozenset[int] = DEFAULT_GROUND_LABELS
    range_3d: bool = False

    def __post_init__(self):
        if not self.ground_label_ids:
            raise ContractViolationError("ground label set must be non-empty")


@dataclass(frozen=True)
class ConfusionCounts:
    ntp: int = 0
    nfp: int = 0
    nfn: int = 0
    ntn: int = 0

    def total(self) -> int:
        return self.ntp + self.nfp + self.nfn + self.ntn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.ntp + other.ntp,
            self.nfp + other.nfp,
            self.nfn + other.nfn,
            self.ntn + other.ntn,
        )


@dataclass(frozen=True)
class MetricRow:
    distance_m: float
    counts: ConfusionCounts
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass
class SequenceReport:
    rows: list[MetricRow] = field(default_factory=list)
    mean: dict[str, float | None] = field(default_factory=dict)
    std: dict[str, float | None] = field(default_factory=dict)
    undefined: dict[str, int] = field(default_factory=dict)
    runtime_mean_ms: float = 0.0
    runtime_std_ms: float = 0.0
    n_scans: int = 0
    skipped: list[str] = field(default_factory=list)
    # per-scan precision and recall at the largest threshold: the lowest
    # over the scans, and the 10th percentile (None when no scan defines it)
    worst: dict[str, float | None] = field(default_factory=dict)
    p10: dict[str, float | None] = field(default_factory=dict)


def precision(c: ConfusionCounts) -> float | None:
    d = c.ntp + c.nfp
    return c.ntp / d if d else None


def recall(c: ConfusionCounts) -> float | None:
    d = c.ntp + c.nfn
    return c.ntp / d if d else None


def harmonic_f1(p: float, r: float) -> float | None:
    return 2.0 * p * r / (p + r) if (p + r) else None


def f1(c: ConfusionCounts) -> float | None:
    p, r = precision(c), recall(c)
    if p is None or r is None:
        return None
    return harmonic_f1(p, r)


def _row(distance: float, counts: ConfusionCounts) -> MetricRow:
    return MetricRow(
        distance_m=distance,
        counts=counts,
        precision=precision(counts),
        recall=recall(counts),
        f1=f1(counts),
    )


def evaluate_scan(
    cloud: PointCloud,
    mask: np.ndarray,
    truth: np.ndarray,
    policy: GroundTruthPolicy | None = None,
    thresholds=DEFAULT_THRESHOLDS,
) -> list[MetricRow]:
    """One row per threshold, in the given order: the confusion counts of
    the points within range ``d`` of the sensor, ``range**2 <= d * d``.
    The one scorer: sequences, the CLI and the benchmark sum its rows.
    Each point's range and ground label are computed once.
    ``ContractViolationError`` unless mask, truth and cloud have one entry
    per point; ``thresholds`` must pass ``check_thresholds``."""
    thresholds = check_thresholds(thresholds)
    policy = policy or GroundTruthPolicy()
    mask = np.asarray(mask, dtype=bool)
    truth = np.asarray(truth)
    if not (len(mask) == len(truth) == len(cloud)):
        raise ContractViolationError("mask, truth, and cloud lengths differ")
    pts = cloud.points
    # squares summed over columns, (x*x + y*y) + z*z: the bits of a row sum,
    # about 4x faster than reducing the (n, 3) array along its rows
    x, y, z = pts.T
    dist2 = x * x + y * y + z * z if policy.range_3d else x * x + y * y
    label_ground = np.isin(truth, list(policy.ground_label_ids))
    outcomes = (mask & label_ground, mask & ~label_ground, ~mask & label_ground)
    rows = []
    for d in thresholds:
        in_range = dist2 <= d * d
        ntp, nfp, nfn = (int(np.count_nonzero(in_range & o)) for o in outcomes)
        ntn = int(np.count_nonzero(in_range)) - ntp - nfp - nfn
        rows.append(_row(d, ConfusionCounts(ntp, nfp, nfn, ntn)))
    return rows


def _aggregate(report: SequenceReport) -> None:
    for name in ("precision", "recall", "f1"):
        values = [getattr(r, name) for r in report.rows]
        defined = [v for v in values if v is not None]
        report.undefined[name] = len(values) - len(defined)
        if defined:
            report.mean[name] = float(np.mean(defined))
            report.std[name] = float(np.std(defined))  # population
        else:
            report.mean[name] = None
            report.std[name] = None


def _per_scan(report: SequenceReport, rows: list[MetricRow]) -> None:
    """The worst value and the 10th percentile (numpy's linear rule) of
    precision and recall over ``rows``, one per scan; scans on which a
    metric is undefined are left out of its values."""
    for name in ("precision", "recall"):
        defined = [v for v in (getattr(r, name) for r in rows) if v is not None]
        report.worst[name] = min(defined, default=None)
        report.p10[name] = float(np.percentile(defined, 10)) if defined else None


def check_thresholds(thresholds, name: str = "thresholds") -> tuple[float, ...]:
    """The range thresholds as floats.  ``ConfigError`` (naming them
    ``name``) unless each parses as a number, there is one at least, each
    is positive and finite and none repeats: no threshold would score
    nothing, and a repeated one would weight its range twice in the
    aggregate."""
    try:
        values = tuple(float(d) for d in thresholds)
    except ValueError as exc:
        raise ConfigError(f"{name} must be numbers: {exc}") from None
    if not values:
        raise ConfigError(f"{name} must hold at least one threshold")
    if not all(0 < d < math.inf for d in values):
        raise ConfigError(f"{name} must be positive and finite, got {values}")
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} must not repeat a threshold, got {values}")
    return values


def evaluate_sequence(
    scan_dir: str | Path,
    label_dir: str | Path,
    cfg: PipelineConfig | None = None,
    policy: GroundTruthPolicy | None = None,
    thresholds=DEFAULT_THRESHOLDS,
) -> SequenceReport:
    """Segment and score every scan in a directory against its label file.

    Scans without a matching label (or with malformed/odd-length labels) are
    skipped and reported.  The ``evaluate_scan`` rows' counts are summed
    across scans per threshold before metrics are computed; each scan's row
    at the largest threshold also goes into the per-scan ``worst`` and
    ``p10``.  ``thresholds`` must pass ``check_thresholds``.
    """
    thresholds = check_thresholds(thresholds)
    cfg = cfg or make_default_config()
    policy = policy or GroundTruthPolicy()
    label_dir = Path(label_dir)

    report = SequenceReport()
    totals = [ConfusionCounts() for _ in thresholds]
    largest: list[MetricRow] = []  # each scan's row at the largest threshold
    runtimes: list[float] = []

    for scan_path in sorted(Path(scan_dir).glob("*.bin")):
        label_path = label_dir / (scan_path.stem + ".label")
        if not label_path.exists():
            report.skipped.append(f"{scan_path.name}: no matching label file")
            continue
        outcome = _outcome(_evaluate_one, scan_path, label_path, cfg, policy, thresholds)
        if isinstance(outcome, str):
            report.skipped.append(f"{scan_path.name}: {outcome}")
            continue
        rows, runtime_ms = outcome
        totals = [t + row.counts for t, row in zip(totals, rows)]
        largest += sorted(rows, key=lambda r: r.distance_m)[-1:]
        runtimes.append(runtime_ms)
        report.n_scans += 1

    report.rows = [_row(d, c) for d, c in zip(thresholds, totals)]
    _aggregate(report)
    _per_scan(report, largest)
    if runtimes:
        report.runtime_mean_ms = float(np.mean(runtimes))
        report.runtime_std_ms = float(np.std(runtimes))
    return report


def _outcome(call, *args):
    """``call(*args)``, or its exception as the error string ``"Type: message"``."""
    try:
        return call(*args)
    except Exception as exc:  # one failed task must not sink the others
        return f"{type(exc).__name__}: {exc}"


def _evaluate_one(scan_path: Path, label_path: Path, cfg, policy, thresholds):
    """Segment one scan and return its ``evaluate_scan`` rows and runtime, or
    an error string (raises on other failures; see ``_outcome``)."""
    cloud = read_kitti_bin(scan_path)
    truth = read_semantic_labels(label_path)
    if len(truth) != len(cloud):
        return "label count does not match scan record count"
    result = segment(cloud, cfg)
    return evaluate_scan(cloud, result.mask, truth, policy, thresholds), result.stats.runtime_ms


def format_summary(report: SequenceReport) -> str:
    """One-line aggregate in percent, then the worst scan's precision and
    recall: ``Pr 96.6±2.7 / Rc 89.4±5.1 / F1 92.8 / worst Pr 91.0 Rc 80.2``."""

    def pct(v):
        return "n/a" if v is None else f"{100.0 * v:.1f}"

    m, sd, w = report.mean, report.std, report.worst
    return (
        f"Pr {pct(m.get('precision'))}±{pct(sd.get('precision'))}"
        f" / Rc {pct(m.get('recall'))}±{pct(sd.get('recall'))} / F1 {pct(m.get('f1'))}"
        f" / worst Pr {pct(w.get('precision'))} Rc {pct(w.get('recall'))}"
    )


_CSV_HEADER = "distance,ntp,nfp,nfn,ntn,precision,recall,f1"


def emit_report(report: SequenceReport, fmt: str = "csv") -> str:
    """Render a report as CSV or JSON.  The CSV holds one row per threshold,
    then the per-scan ``worst`` and ``p10`` rows (precision and recall),
    then the aggregate row."""

    def cell(v):
        return "" if v is None else f"{v:.6f}"

    if fmt == "csv":
        lines = [_CSV_HEADER]
        for r in report.rows:
            c = r.counts
            lines.append(
                f"{r.distance_m:g},{c.ntp},{c.nfp},{c.nfn},{c.ntn},"
                f"{cell(r.precision)},{cell(r.recall)},{cell(r.f1)}"
            )
        if report.rows:
            for name, v in (("worst", report.worst), ("p10", report.p10)):
                lines.append(f"{name},,,,,{cell(v.get('precision'))},{cell(v.get('recall'))},")

            def agg(name):
                m, s = report.mean.get(name), report.std.get(name)
                return "" if m is None else f"{m:.6f}±{s:.6f}"

            lines.append(
                f"aggregate,,,,,{agg('precision')},{agg('recall')},{agg('f1')}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = asdict(report)
        # each row's counts go between its distance and its metrics
        payload["rows"] = [
            {"distance_m": r.pop("distance_m"), **r.pop("counts"), **r} for r in payload["rows"]
        ]
        return json.dumps(payload, indent=2)
    raise ContractViolationError(f"unknown report format: {fmt}")

