"""Tests of the benchmark's tracer and workload pools."""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
from workloads import make_pool  # noqa: E402


def _busy(seconds: float) -> None:
    t0 = time.process_time()
    while time.process_time() - t0 < seconds:
        pass


def test_self_times_of_nested_spans_add_up_to_the_root():
    tracer = layertrace.Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.002))

    def middle():
        _busy(0.001)
        leaf()
        leaf()

    root = tracer.wrap("root", lambda: (tracer.wrap("middle", middle)(), _busy(0.001)))
    tracer.scan_id = 7
    root()
    spans = tracer.arrays()
    assert list(spans["name"]) == ["root", "middle", "leaf", "leaf"]
    assert list(spans["parent"]) == [-1, 0, 1, 1]
    assert (spans["scan"] == 7).all()
    selfs = layertrace.self_times(spans)
    duration = spans["end"] - spans["start"]
    assert np.isclose(selfs.sum(), duration[0], rtol=1e-12)
    assert (selfs >= 0).all()
    assert np.isclose(selfs[1], duration[1] - duration[2] - duration[3], rtol=1e-12)


def traced_scans() -> dict[str, np.ndarray]:
    """Spans of two traced scans: segment > (run_phase > build_grid, expand) x 2."""
    tracer = layertrace.Tracer()
    grid = tracer.wrap("voxel_grid.build_grid", lambda: _busy(0.001))
    expand = tracer.wrap("region_expansion.expand", lambda: _busy(0.001))
    phase = tracer.wrap("pipeline.run_phase", lambda: (grid(), expand()))
    segment = tracer.wrap(layertrace.ROOT, lambda: (phase(), phase()))
    for scan in (0, 1):
        tracer.scan_id = scan
        segment()
    return tracer.arrays()


def test_a_traced_run_nests():
    spans = traced_scans()
    assert len(spans["name"]) == 14
    assert layertrace.nesting_errors(spans) == []


def _out_of_parent(s):
    s["end"][2] = s["end"][1] + 0.01  # build_grid ends after its run_phase


def _other_scans_parent(s):
    s["parent"][8] = 2  # scan 1's run_phase hangs under scan 0's


def _orphan(s):
    s["parent"][1] = -1  # a run_phase outside any segment()


def _overlapping_siblings(s):
    s["start"][3] = s["start"][2]  # expand starts while build_grid runs


@pytest.mark.parametrize(
    "break_tree, error",
    [
        (_out_of_parent, "not inside its parent's interval"),
        (_other_scans_parent, "another scan than its parent"),
        (_orphan, "has no parent but is not pipeline.segment"),
        (_overlapping_siblings, "overlaps its previous sibling"),
    ],
)
def test_mis_nested_spans_fail_the_check(break_tree, error):
    spans = traced_scans()
    break_tree(spans)
    errors = layertrace.nesting_errors(spans)
    assert any(error in e for e in errors), errors
    failures = []
    layertrace.layer_metrics(spans, [], 5.0, failures)
    assert failures and all(f.startswith("traced spans: ") for f in failures)


def test_a_raising_call_is_recorded_as_failed_and_re_raised():
    tracer = layertrace.Tracer()

    def boom():
        raise ValueError("no fit")

    wrapped = tracer.wrap("fit", boom, note=lambda r: 1.0)
    try:
        wrapped()
    except ValueError:
        pass
    else:
        raise AssertionError("exception was swallowed")
    spans = tracer.arrays()
    assert spans["failed"].tolist() == [True]
    assert np.isnan(spans["note"][0])


def test_missing_hook_targets_are_listed_not_raised(monkeypatch):
    monkeypatch.setattr(
        layertrace, "HOOKS", layertrace.HOOKS + (("gone", "gridseg.pipeline", "no_such_fn", None),)
    )
    import gridseg.pipeline as pipeline

    original = pipeline.build_grid
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert pipeline.build_grid is not original
    assert pipeline.build_grid is original
    assert tracer.missing_hooks == ["gridseg.pipeline.no_such_fn"]


def test_pools_are_deterministic_under_the_workload_seed():
    a = make_pool("dense-130k", 3)[0]
    b = make_pool("dense-130k", 3)[0]
    assert a.points.tobytes() == b.points.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert 125_000 <= len(a.points) <= 135_000
