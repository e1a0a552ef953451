"""gridseg benchmark: one workload, closed loop, one scan at a time.

    python3 perfbench/run.py --workload ring-64 --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/``.  The workload's pool of scans is generated from ``--seed`` before
timing starts.  The timed loop then calls ``segment()`` on one scan after
another, in whole passes over the pool, until ``--seconds`` have passed
(at least one pass).  BLAS threads are pinned to 1.

Times are CPU time of this process (``time.process_time``).  The run is one
thread, so on an idle machine that equals its wall time; on a shared virtual
machine it leaves out the time the hypervisor gives other guests, which wall
time includes and which varies from minute to minute.  CPU time still swings
by 20-30 % within minutes there, with what other guests run on the same
cores, so every time that goes into an end-to-end metric is scaled to a
reference speed: a fixed kernel unrelated to gridseg is timed just before
and just after the measurement, and the time is multiplied by
``REFERENCE_S`` over the kernel's mean time.  Raw CPU and wall times are
kept in the record.

Every run checks its outputs: each mask is a bool array of the input's
length, a scan segmented twice gives byte-identical masks, permuting one
scan's points permutes its mask, and F1 stays above the workload's floor.
A failed check prints ``"correct": false`` and exits with status 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` segments each
scan untraced and then traced (with ExpansionLogs) and reports per-layer
metrics from spans recorded around gridseg's layers (``layertrace.py``).
The last stdout line is one JSON object; a fuller record with the
environment (and, for a traced run, the spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, so every BLAS/OpenMP pool has one thread
BLAS_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"  # names and units of the reported metrics
SRC = ROOT / "src"
OUT = HERE / "out"
# fresh interpreters timed before and after the timed loop: set-up takes
# well under a second, so samples taken together all meet the same phase
# of a shared host; split around the loop they meet more than one
SETUP_REPEATS = (3, 2)
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.process_time()\n"
    "import gridseg\n"
    "gridseg.make_default_config()\n"
    "print(time.process_time() - t0)\n"
)

# about the reference kernel's CPU time on the baseline hardware (its
# medians there were 88-95 ms, see baseline.json), so scaled times read
# close to seconds on that machine
REFERENCE_S = 0.085
_REF_RNG = np.random.default_rng(0)
_REF_POINTS = _REF_RNG.random((130_000, 3))
_REF_CELLS = _REF_RNG.random((600, 20, 3))

if (SRC / "gridseg" / "__init__.py").is_file() and SPEC.is_file():
    sys.path.insert(0, str(SRC))
    import gridseg as gs  # noqa: E402

    import layertrace  # noqa: E402
    from workloads import WORKLOADS, make_pool, scan_seeds  # noqa: E402
else:
    gs = None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="gridseg benchmark (one workload, one run)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def reference_seconds() -> float:
    """CPU time of a fixed mix of a sort, small eigen problems and dict updates."""
    c0 = time.process_time()
    np.lexsort(_REF_POINTS.T)
    for cell in _REF_CELLS:
        c = cell - cell.mean(axis=0)
        np.linalg.eigh(c.T @ c)
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 997] = counts.get(i % 997, 0) + 1
    return time.process_time() - c0


def measure_setup(repeats: int) -> list[float]:
    """``import gridseg`` + ``make_default_config()``, each in a fresh
    interpreter, scaled to the reference speed."""
    times = []
    before = reference_seconds()
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = reference_seconds()
        times.append(float(out.stdout.split()[-1]) * 2 * REFERENCE_S / (before + after))
        before = after
    return times


def valid_mask(mask, n: int) -> bool:
    return isinstance(mask, np.ndarray) and mask.dtype == np.bool_ and mask.shape == (n,)


def mean_defined(values) -> float:
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else 0.0


def finite_median(samples) -> float | None:
    """Median of timing samples; a failed scan is an infinite sample."""
    med = statistics.median(samples)
    return med if np.isfinite(med) else None


class Run:
    """State of one benchmark run: pool, samples, scores and check failures."""

    def __init__(self, args):
        self.args = args
        self.cfg = gs.make_default_config()
        self.pool = make_pool(args.workload, args.seed)
        self.clouds = [gs.PointCloud(points=s.points) for s in self.pool]
        self.thresholds = list(gs.evaluation.DEFAULT_THRESHOLDS)
        self.totals = [gs.ConfusionCounts() for _ in self.thresholds]
        self.first_masks: dict[int, np.ndarray] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.scan_ms: list[float] = []  # scaled to the reference speed
        self.scan_cpu_ms: list[float] = []
        self.scan_wall_ms: list[float] = []
        self.reference_ms: list[float] = []
        self.eval_ms: list[float] = []
        self.ok_points = 0
        self.segment_seconds = 0.0

    def fail(self, k: int, what: str) -> None:
        self.failed += 1
        self.failures.append(f"scan seed {self.pool[k].seed}: {what}")

    def segment(self, k: int, cloud, call=None, **kwargs):
        """One checked segment() call.

        Returns (result, CPU seconds, wall seconds); the result is None
        when the call raised or its mask failed the check.
        """
        call = call or gs.pipeline.segment
        self.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = call(cloud, self.cfg, **kwargs)
        except Exception as exc:  # a lost scan is a measured failure, not a crash
            result = None
            self.fail(k, f"{type(exc).__name__}: {exc}")
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        if result is not None and not valid_mask(result.mask, len(cloud)):
            result = None
            self.fail(k, "mask is not a bool array of the input's length")
        return result, cpu, wall

    def record_mask(self, k: int, mask) -> None:
        """A scan's first mask is scored; later ones must match it byte for byte."""
        if k not in self.first_masks:
            self.first_masks[k] = mask
            t0 = time.process_time()
            rows = gs.evaluate_scan(self.clouds[k], mask, self.pool[k].labels,
                                    thresholds=self.thresholds)
            self.eval_ms.append((time.process_time() - t0) * 1000.0)
            self.totals = [t + row.counts for t, row in zip(self.totals, rows)]
        elif mask.tobytes() != self.first_masks[k].tobytes():
            self.fail(k, "segmenting the scan again changed the mask")

    def timed(self, k: int) -> None:
        """One sample of the timed loop; a failed scan takes infinitely long.

        The reference kernel runs between scans, so each scan is scaled by
        the mean of the kernel times just before and just after it.
        """
        if not self.reference_ms:
            self.reference_ms.append(reference_seconds() * 1000.0)
        result, cpu, wall = self.segment(k, self.clouds[k])
        self.reference_ms.append(reference_seconds() * 1000.0)
        scale = 2000.0 * REFERENCE_S / (self.reference_ms[-2] + self.reference_ms[-1])
        self.segment_seconds += cpu * scale
        ok = result is not None
        self.scan_ms.append(cpu * scale * 1000.0 if ok else math.inf)
        self.scan_cpu_ms.append(cpu * 1000.0 if ok else math.inf)
        self.scan_wall_ms.append(wall * 1000.0 if ok else math.inf)
        if ok:
            self.ok_points += len(self.clouds[k])
            self.record_mask(k, result.mask)

    def check_permutation(self) -> None:
        """Permuting the first scan's points must permute its mask."""
        perm = np.random.default_rng(self.args.seed).permutation(len(self.clouds[0]))
        result, _, _ = self.segment(0, gs.PointCloud(points=self.clouds[0].points[perm]))
        if result is not None and 0 in self.first_masks:
            if not np.array_equal(result.mask, self.first_masks[0][perm]):
                self.fail(0, "permuting the points did not permute the mask")

    def scores(self) -> dict[str, list]:
        """Per-threshold precision, recall and F1 of the summed counts."""
        return {
            "precision": [gs.precision(c) for c in self.totals],
            "recall": [gs.recall(c) for c in self.totals],
            "f1": [gs.f1(c) for c in self.totals],
        }


def loop(run: Run):
    """(sample, scan) indices of the timed loop: whole passes over the pool,
    so every scan weighs the same, until ``--seconds`` have passed."""
    i = 0
    t_start = time.perf_counter()
    while i == 0 or time.perf_counter() - t_start < run.args.seconds:
        for k in range(len(run.pool)):
            yield i, k
            i += 1


def reported(metrics: dict, kind: str) -> dict:
    """(value, unit) of every ``kind`` metric BENCHMARK.json names, in its order.

    A metric the run could not compute (all hooks of a layer missing, or
    all scans failed) reads 0.
    """
    spec = json.loads(SPEC.read_text())
    return {m["name"]: (metrics.get(m["name"], 0.0), m["unit"]) for m in spec[kind]}


def run_untraced(run: Run) -> dict:
    setup = measure_setup(SETUP_REPEATS[0])
    for _, k in loop(run):
        run.timed(k)
    setup += measure_setup(SETUP_REPEATS[1])
    if len(run.scan_ms) == len(run.pool):  # one pass: segment one scan again
        result, _, _ = run.segment(0, run.clouds[0])
        if result is not None:
            run.record_mask(0, result.mask)
    run.check_permutation()
    scores = run.scores()
    metrics = {
        "scan_ms_p50": finite_median(run.scan_ms),
        "points_per_s": run.ok_points / run.segment_seconds,
        "f1_mean": mean_defined(scores["f1"]),
        "precision_mean": mean_defined(scores["precision"]),
        "recall_mean": mean_defined(scores["recall"]),
        "scan_ok_ratio": 1.0 - run.failed / run.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return reported(metrics, "end_to_end"), {"setup_s_samples": setup}


def run_traced(run: Run) -> dict:
    """Each scan untraced, then traced on the same cloud (same mask expected)."""
    tracer = layertrace.Tracer()
    root = tracer.wrap(layertrace.ROOT, gs.pipeline.segment)
    logs_supported = {"log1", "log2"} <= set(inspect.signature(gs.pipeline.segment).parameters)
    if not logs_supported:
        tracer.missing_hooks.append("gridseg.pipeline.segment(log1, log2)")
    traced_ms: list[float] = []
    scans: list[tuple[int, object, dict]] = []

    for i, k in loop(run):
        run.timed(k)
        logs = (gs.ExpansionLog(), gs.ExpansionLog()) if logs_supported else ()
        tracer.scan_id = i
        with tracer.installed():
            result, cpu, _ = run.segment(k, run.clouds[k], call=root,
                                         **dict(zip(("log1", "log2"), logs)))
        traced_ms.append(cpu * 1000.0 if result is not None else math.inf)
        if result is not None:
            run.record_mask(k, result.mask)
            scans.append((i, result.stats, layertrace.route_counts(logs)))
    run.check_permutation()

    spans = tracer.arrays()
    metrics = layertrace.layer_metrics(
        spans, scans, run.cfg.phase1.geometry.slope_threshold_deg, run.failures
    )
    metrics["evaluation.evaluate_scan.ms"] = statistics.median(run.eval_ms)
    for d, v in zip(run.thresholds, run.scores()["f1"]):
        metrics[f"evaluation.f1.at_{int(d)}m"] = v if v is not None else 0.0
    untraced, traced = finite_median(run.scan_cpu_ms), finite_median(traced_ms)
    metrics["trace.overhead_ratio"] = traced / untraced if traced and untraced else 0.0
    spans_path = OUT / f"spans-{run.args.workload}-seed{run.args.seed}.npz"
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(spans_path, **spans)
    extra = {
        "missing_hooks": tracer.missing_hooks,
        "traced_ms_samples": traced_ms,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return reported(metrics, "per_layer"), extra


def environment(args) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "scan_seeds": scan_seeds(args.workload, args.seed),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if gs is None:
        print(f"error: gridseg sources under {SRC} or {SPEC.name} not found", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run = Run(args)
    # warm-up on a small scene keeps lazy imports and first-call costs out
    gs.pipeline.segment(gs.scene_cloud(gs.make_scene(gs.SceneSpec(20.0, 3000))), run.cfg)
    metrics, extra = run_traced(run) if args.trace else run_untraced(run)
    scores = run.scores()
    f1_mean = mean_defined(scores["f1"])
    floor = WORKLOADS[args.workload].f1_floor
    if f1_mean < floor:
        run.failures.append(f"f1_mean {f1_mean:.4f} is below the {args.workload} floor {floor}")

    line = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "env": environment(args),
        "seconds": args.seconds,
        "trace": args.trace,
        "scan_points": [len(c) for c in run.clouds],
        "scan_ms_samples": run.scan_ms,
        "scan_cpu_ms_samples": run.scan_cpu_ms,
        "scan_wall_ms_samples": run.scan_wall_ms,
        "reference_ms_samples": run.reference_ms,
        "eval_ms_samples": run.eval_ms,
        "scan_fail_ratio": run.failed / run.attempted,
        "per_threshold": {"distance_m": run.thresholds, **scores},
        "failures": run.failures,
        "result": line,
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"# gridseg benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# env: {json.dumps(record['env'])}")
    for name, m in line["metrics"].items():
        print(f"{name:<45} {m['value']!s:>22} {m['unit']}")
    print(f"{'scan_fail_ratio':<45} {record['scan_fail_ratio']!s:>22} fraction")
    print(f"{'scan samples':<45} {len(run.scan_ms):>22} count")
    print(f"{'scan_cpu_ms_p50 (unscaled)':<45} {statistics.median(run.scan_cpu_ms)!s:>22} ms")
    print(f"{'scan_wall_ms_p50 (unscaled)':<45} {statistics.median(run.scan_wall_ms)!s:>22} ms")
    print(f"{'reference_ms_p50':<45} {statistics.median(run.reference_ms)!s:>22} ms")
    if extra.get("missing_hooks"):
        print(f"# missing hooks: {', '.join(extra['missing_hooks'])}")
    for failure in run.failures:
        print(f"# FAILED: {failure}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
