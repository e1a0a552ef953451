"""Distance-bucketed precision/recall/F1 evaluation against semantic labels.

Scans are scored at a series of range thresholds (default 10..100 m in 10 m
steps, measured in the horizontal plane from the sensor).  Confusion counts
are accumulated over all scans of a sequence per threshold (micro-average),
metrics are computed per threshold, and the sequence is summarized by the
mean and population standard deviation of each metric across thresholds.
Rows with a zero denominator are undefined and excluded from the aggregates;
the exclusion counts are reported.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cloud_io import PointCloud, read_kitti_bin, read_semantic_labels
from .errors import ContractViolationError
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


def confusion_counts(
    mask: np.ndarray,
    truth: np.ndarray,
    policy: GroundTruthPolicy,
    max_dist: float,
    cloud: PointCloud,
) -> ConfusionCounts:
    """Confusion counts over points within max_dist of the sensor (inclusive)."""
    mask = np.asarray(mask, dtype=bool)
    truth = np.asarray(truth)
    if not (len(mask) == len(truth) == len(cloud)):
        raise ContractViolationError("mask, truth, and cloud lengths differ")
    pts = cloud.points
    if policy.range_3d:
        dist2 = (pts**2).sum(axis=1)
    else:
        dist2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    in_range = dist2 <= max_dist * max_dist
    label_ground = np.isin(truth, list(policy.ground_label_ids))
    p = mask[in_range]
    t = label_ground[in_range]
    return ConfusionCounts(
        ntp=int(np.count_nonzero(p & t)),
        nfp=int(np.count_nonzero(p & ~t)),
        nfn=int(np.count_nonzero(~p & t)),
        ntn=int(np.count_nonzero(~p & ~t)),
    )


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
    policy = policy or GroundTruthPolicy()
    return [_row(d, confusion_counts(mask, truth, policy, d, cloud)) for d in thresholds]


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


def evaluate_sequence(
    scan_dir: str | Path,
    label_dir: str | Path,
    cfg: PipelineConfig | None = None,
    policy: GroundTruthPolicy | None = None,
    thresholds=DEFAULT_THRESHOLDS,
    jobs: int = 1,
) -> SequenceReport:
    """Segment and score every scan in a directory against its label file.

    Scans without a matching label (or with malformed/odd-length labels) are
    skipped and reported.  Confusion counts are summed across scans per
    threshold before metrics are computed.  With ``jobs`` > 1 the scans run
    in spawned processes (see ``fan_out``), so a script calling this does so
    under ``if __name__ == "__main__"``.
    """
    cfg = cfg or make_default_config()
    policy = policy or GroundTruthPolicy()
    scan_dir = Path(scan_dir)
    label_dir = Path(label_dir)
    scans = sorted(scan_dir.glob("*.bin"))

    report = SequenceReport()
    totals = {d: ConfusionCounts() for d in thresholds}
    runtimes: list[float] = []

    tasks = []
    for scan_path in scans:
        label_path = label_dir / (scan_path.stem + ".label")
        if not label_path.exists():
            report.skipped.append(f"{scan_path.name}: no matching label file")
            continue
        tasks.append((scan_path, label_path))

    outcomes = fan_out(
        _evaluate_one,
        [(str(scan), str(label), cfg, policy, tuple(thresholds)) for scan, label in tasks],
        jobs,
    )
    for (scan_path, _), outcome in zip(tasks, outcomes):
        if isinstance(outcome, str):
            report.skipped.append(f"{scan_path.name}: {outcome}")
            continue
        counts_by_d, runtime_ms = outcome
        for d, c in counts_by_d.items():
            totals[d] = totals[d] + c
        runtimes.append(runtime_ms)
        report.n_scans += 1

    report.rows = [_row(d, totals[d]) for d in thresholds]
    _aggregate(report)
    if runtimes:
        report.runtime_mean_ms = float(np.mean(runtimes))
        report.runtime_std_ms = float(np.std(runtimes))
    return report


def fan_out(worker, tasks: list[tuple], jobs: int) -> list:
    """``worker(*task)`` for every task, in input order, on up to ``jobs``
    processes (serially for one job or one task).

    An exception becomes that task's outcome as the error string
    ``"Type: message"``: one raised by ``worker`` (caught where it runs) and
    one raised by the pool (a crashed worker process) alike.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [_outcome(worker, *task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned, not forked: forking a process that runs threads is unsafe
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
        futures = [pool.submit(_outcome, worker, *task) for task in tasks]
        return [_outcome(future.result) for future in futures]


def _outcome(call, *args):
    """``call(*args)``, or its exception as the error string ``"Type: message"``."""
    try:
        return call(*args)
    except Exception as exc:  # one failed task must not sink the others
        return f"{type(exc).__name__}: {exc}"


def _evaluate_one(scan_path: str, label_path: str, cfg, policy, thresholds):
    """Worker: segment one scan and return per-threshold counts, or an error
    string (raises on other failures; see ``fan_out``)."""
    cloud = read_kitti_bin(scan_path)
    truth = read_semantic_labels(label_path)
    if cloud.valid_mask is not None:
        if len(truth) != len(cloud.valid_mask):
            return "label count does not match scan record count"
        truth = truth[cloud.valid_mask]
    elif len(truth) != len(cloud):
        return "label count does not match scan record count"
    t0 = time.perf_counter()
    result = segment(cloud, cfg)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    counts = {d: confusion_counts(result.mask, truth, policy, d, cloud) for d in thresholds}
    return counts, runtime_ms


def format_summary(report: SequenceReport) -> str:
    """One-line aggregate in percent: ``Pr 96.6±2.7 / Rc 89.4±5.1 / F1 92.8``."""

    def pct(v):
        return "n/a" if v is None else f"{100.0 * v:.1f}"

    pr, rc, f = report.mean.get("precision"), report.mean.get("recall"), report.mean.get("f1")
    spr, src = report.std.get("precision"), report.std.get("recall")
    return f"Pr {pct(pr)}±{pct(spr)} / Rc {pct(rc)}±{pct(src)} / F1 {pct(f)}"


_CSV_HEADER = "distance,ntp,nfp,nfn,ntn,precision,recall,f1"


def emit_report(report: SequenceReport, fmt: str = "csv") -> str:
    """Render a report as CSV (rows + one aggregate row) or JSON."""
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for r in report.rows:
            c = r.counts

            def cell(v):
                return "" if v is None else f"{v:.6f}"

            lines.append(
                f"{r.distance_m:g},{c.ntp},{c.nfp},{c.nfn},{c.ntn},"
                f"{cell(r.precision)},{cell(r.recall)},{cell(r.f1)}"
            )
        if report.rows:

            def agg(name):
                m, s = report.mean.get(name), report.std.get(name)
                return "" if m is None else f"{m:.6f}±{s:.6f}"

            lines.append(
                f"aggregate,,,,,{agg('precision')},{agg('recall')},{agg('f1')}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "rows": [
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
            ],
            "mean": report.mean,
            "std": report.std,
            "undefined": report.undefined,
            "runtime_mean_ms": report.runtime_mean_ms,
            "runtime_std_ms": report.runtime_std_ms,
            "n_scans": report.n_scans,
            "skipped": report.skipped,
        }
        return json.dumps(payload, indent=2)
    raise ContractViolationError(f"unknown report format: {fmt}")


def report_from_json(text: str) -> SequenceReport:
    payload = json.loads(text)
    rows = [
        MetricRow(
            distance_m=r["distance_m"],
            counts=ConfusionCounts(r["ntp"], r["nfp"], r["nfn"], r["ntn"]),
            precision=r["precision"],
            recall=r["recall"],
            f1=r["f1"],
        )
        for r in payload["rows"]
    ]
    return SequenceReport(
        rows=rows,
        mean=payload["mean"],
        std=payload["std"],
        undefined=payload["undefined"],
        runtime_mean_ms=payload["runtime_mean_ms"],
        runtime_std_ms=payload["runtime_std_ms"],
        n_scans=payload["n_scans"],
        skipped=payload["skipped"],
    )
