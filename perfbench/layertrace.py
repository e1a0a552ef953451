"""Span tracing of gridseg's layers from outside the package.

The tracer replaces the module attributes that ``gridseg.pipeline`` (and
``region_expansion.expand``) call their layers through with wrappers that
record one span per call: name, start, end, parent span and scan id.
Spans stay in memory until the run ends.  A hook whose target no longer
exists is listed in ``missing_hooks`` instead of failing the run, so
refactors that move or rename a layer degrade the per-layer report rather
than break the benchmark.

Spans are timed in process CPU time, like the end-to-end numbers.  A
span's self time is its duration minus the time its child spans cover.
Children of one span run one after another on one thread, so that covered
time is the sum of their durations, and the self times of all spans of one
scan add up to the duration of its root ``pipeline.segment`` span as long
as the spans nest; ``nesting_errors`` checks that they do.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute, note) for every wrapped call site.  A note
# turns the call's result into one number stored on the span (NaN when the
# call raised); it runs after the span has ended.
HOOKS = (
    ("pipeline.run_phase", "gridseg.pipeline", "run_phase", None),
    ("voxel_grid.build_grid", "gridseg.pipeline", "build_grid", lambda r: len(r.cells)),
    ("pipeline.classify_cells", "gridseg.pipeline", "classify_cells", None),
    ("cell_geometry.ransac_plane", "gridseg.pipeline", "ransac_plane", lambda r: r[0].slope_deg),
    (
        "region_expansion.build_centroid_index",
        "gridseg.pipeline",
        "build_centroid_index",
        None,
    ),
    ("region_expansion.expand", "gridseg.pipeline", "expand", None),
    ("region_expansion.refine_cell", "gridseg.region_expansion", "refine_cell", None),
)
ROOT = "pipeline.segment"

# ExpansionLog reason strings -> metric suffixes
ROUTE_REASONS = {
    "no plane fit": "no_plane_fit",
    "no ground inliers": "no_ground_inliers",
    "no outliers": "no_outliers",
    "sparsity unambiguous": "sparsity_unambiguous",
    "ambiguous with no ground neighbors": "ambiguous_no_neighbors",
    "ambiguous and elevated above lowest neighbor": "ambiguous_elevated",
    "ambiguous with non-ground cell below": "ambiguous_below",
    "ambiguous checks passed": "ambiguous_passed",
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.scans: list[int] = []
        self.notes: list[float] = []
        self.failed: list[bool] = []
        self.scan_id = -1
        self.missing_hooks: list[str] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.scans.append(self.scan_id)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.failed.append(False)
            self.notes.append(math.nan)
            self._stack.append(sid)
            result = None
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                self.failed[sid] = True
                raise
            finally:
                t1 = time.process_time()
                self._stack.pop()
                self.starts[sid] = t0
                self.ends[sid] = t1
                self.notes[sid] = _note(note, result, self.failed[sid])

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every hook target for the duration of the block."""
        saved = []
        try:
            for name, module, attr, note in HOOKS:
                try:
                    mod = importlib.import_module(module)
                    fn = getattr(mod, attr)
                except (ImportError, AttributeError):
                    self.missing_hooks.append(f"{module}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, note))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns; a span's id is its row, parents come first."""
        return {
            "name": np.array(self.names),
            "scan": np.array(self.scans, dtype=np.int64),
            "parent": np.array(self.parents, dtype=np.int64),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
            "failed": np.array(self.failed),
            "note": np.array(self.notes),
        }


def _note(note, result, failed: bool) -> float:
    if note is None or failed:
        return math.nan
    try:
        return float(note(result))
    except Exception:  # a refactored return type must not sink the run
        return math.nan


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    covered = np.zeros(len(dur))
    has_parent = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][has_parent], dur[has_parent])
    return dur - covered


def nesting_errors(spans: dict[str, np.ndarray], tol: float = 1e-9) -> list[str]:
    """What breaks the span tree, if anything.

    Every span must descend from a ``pipeline.segment`` root of its own
    scan: roots carry that name and a child shares its parent's scan.  A
    child's [start, end] lies inside its parent's, siblings do not overlap,
    and no self time is negative (``tol`` seconds of slack).
    """
    names, parents, scans = spans["name"], spans["parent"], spans["scan"]
    start, end = spans["start"], spans["end"]
    ids = np.arange(len(names))
    errors = []
    roots = parents < 0
    for sid in ids[roots & (names != ROOT)]:
        errors.append(f"span {sid} ({names[sid]}) has no parent but is not {ROOT}")
    sub = ids[~roots]
    par = parents[sub]
    for sid in sub[par >= sub]:
        errors.append(f"span {sid} ({names[sid]}) does not follow its parent")
    for sid in sub[scans[sub] != scans[par]]:
        errors.append(f"span {sid} ({names[sid]}) belongs to another scan than its parent")
    outside = (start[sub] < start[par] - tol) | (end[sub] > end[par] + tol)
    for sid in sub[outside]:
        errors.append(f"span {sid} ({names[sid]}) is not inside its parent's interval")
    order = np.lexsort((start[sub], par))  # siblings by start time
    sib, sib_par = sub[order], par[order]
    overlap = (sib_par[1:] == sib_par[:-1]) & (start[sib[1:]] < end[sib[:-1]] - tol)
    for sid in sib[1:][overlap]:
        errors.append(f"span {sid} ({names[sid]}) overlaps its previous sibling")
    for sid in ids[self_times(spans) < -tol]:
        errors.append(f"span {sid} ({names[sid]}) has a negative self time")
    return errors


def phase_of(spans: dict[str, np.ndarray]) -> np.ndarray:
    """1 or 2 for spans inside a scan's first or second run_phase, else 0."""
    names, parents, scans = spans["name"], spans["parent"], spans["scan"]
    phase = np.zeros(len(names), dtype=np.int64)
    seen: Counter = Counter()
    for sid in range(len(names)):  # parents precede children in id order
        if names[sid] == "pipeline.run_phase":
            seen[scans[sid]] += 1
            phase[sid] = seen[scans[sid]]
        elif parents[sid] >= 0:
            phase[sid] = phase[parents[sid]]
    return phase


def scan_layer_metrics(spans, selfs, phase, scan: int, slope_threshold: float) -> dict:
    """Per-layer numbers of one traced scan, from its spans."""
    sel = spans["scan"] == scan
    names = spans["name"]
    dur_ms = (spans["end"] - spans["start"]) * 1000.0
    self_ms = selfs * 1000.0

    def pick(name, ph=None):
        m = sel & (names == name)
        return m if ph is None else m & (phase == ph)

    ransac = pick("cell_geometry.ransac_plane")
    slopes = spans["note"][ransac & ~spans["failed"]]
    out = {
        "voxel_grid.build_grid.ms.p1": dur_ms[pick("voxel_grid.build_grid", 1)].sum(),
        "voxel_grid.build_grid.ms.p2": dur_ms[pick("voxel_grid.build_grid", 2)].sum(),
        "voxel_grid.cells.p1": spans["note"][pick("voxel_grid.build_grid", 1)].sum(),
        "voxel_grid.cells.p2": spans["note"][pick("voxel_grid.build_grid", 2)].sum(),
        "cell_geometry.ransac_plane.calls": float(ransac.sum()),
        "cell_geometry.ransac_plane.ms": dur_ms[ransac].sum(),
        "cell_geometry.ransac_plane.fit_failures": float((ransac & spans["failed"]).sum()),
        "tentative_fits": float((slopes <= slope_threshold).sum()),
        "pipeline.classify_cells.self_ms": self_ms[pick("pipeline.classify_cells")].sum(),
        "pipeline.run_phase.ms.p1": dur_ms[pick("pipeline.run_phase", 1)].sum(),
        "pipeline.run_phase.ms.p2": dur_ms[pick("pipeline.run_phase", 2)].sum(),
        "pipeline.run_phase.self_ms": self_ms[pick("pipeline.run_phase")].sum(),
        "pipeline.segment.self_ms": self_ms[pick(ROOT)].sum(),
        "region_expansion.build_centroid_index.ms": dur_ms[
            pick("region_expansion.build_centroid_index")
        ].sum(),
        "region_expansion.expand.self_ms": self_ms[pick("region_expansion.expand")].sum(),
        "region_expansion.refine_cell.calls": float(pick("region_expansion.refine_cell").sum()),
        "region_expansion.refine_cell.ms": dur_ms[pick("region_expansion.refine_cell")].sum(),
    }
    return out


def route_counts(logs) -> dict[str, float]:
    """Refinement reasons of the scan's ExpansionLogs, one count per reason."""
    counts = Counter(reason for log in logs for _, _, reason in log.routes)
    return {
        f"region_expansion.route.{key}": float(counts.get(reason, 0))
        for reason, key in ROUTE_REASONS.items()
    }


def layer_metrics(spans, scans, slope_threshold: float, failures: list[str]) -> dict:
    """Per-layer values from the spans of the traced scans.

    ``scans`` holds (scan id, SegmentationStats, route counts) per traced
    scan.  Per-scan values are reduced to their median; tentative_per_fit
    is a ratio of totals.  Spans that do not nest are reported in
    ``failures``: their self times would not add up to the scan's time.
    """
    errors = nesting_errors(spans)
    failures.extend(f"traced spans: {e}" for e in errors[:5])
    if len(errors) > 5:
        failures.append(f"traced spans: {len(errors) - 5} more nesting errors")
    selfs = self_times(spans)
    phase = phase_of(spans)
    rows = []
    for scan, stats, routes in scans:
        row = scan_layer_metrics(spans, selfs, phase, scan, slope_threshold)
        row.update(routes)
        p1, p2 = stats.phase1, stats.phase2
        row["voxel_grid.points_per_cell.p1"] = p1.n_points / max(row["voxel_grid.cells.p1"], 1)
        row["pipeline.p2_point_share"] = p2.n_points / p1.n_points
        row["region_expansion.reached_ratio.p1"] = p1.cells_expanded / max(p1.cells_tentative, 1)
        row["region_expansion.reached_ratio.p2"] = p2.cells_expanded / max(p2.cells_tentative, 1)
        rows.append(row)
    if not rows:
        return {}
    out = {name: float(np.median([r[name] for r in rows])) for name in rows[0]}
    fits = sum(
        r["cell_geometry.ransac_plane.calls"] - r["cell_geometry.ransac_plane.fit_failures"]
        for r in rows
    )
    out["cell_geometry.tentative_per_fit"] = (
        sum(r["tentative_fits"] for r in rows) / fits if fits else 0.0
    )
    return out
