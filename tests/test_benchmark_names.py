"""The names the benchmark under ``perfbench/`` reads from the package.

The benchmark imports the package as ``gs``.  Its traced mode
(``perfbench/run.py --trace 1``) reads more of it than the untraced runs,
and the test suite runs neither, so a renamed or deleted name would only
show when the benchmark runs.  These tests resolve every ``gs``-rooted
attribute chain in ``perfbench/*.py`` on the package, and check what the
traced mode reads besides: the Phase-I geometry of the default
configuration, ``segment``'s per-phase expansion log parameters, and the
layer tracer's ``PhaseStats`` fields and route reasons, which no ``gs``
chain names.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import gridseg as gs

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(BENCH.glob("*.py"))


def _gs_chains(source: str) -> set[tuple[str, ...]]:
    """Every attribute chain rooted at the name ``gs``, as its attribute names."""
    chains = set()
    for node in ast.walk(ast.parse(source)):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id == "gs":
            chains.add(tuple(reversed(attrs)))
    return chains


def test_the_benchmark_reads_the_package_through_gs():
    assert ("pipeline", "segment") in _gs_chains((BENCH / "run.py").read_text())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_gs_attribute_chain_resolves(path):
    missing = []
    for chain in sorted(_gs_chains(path.read_text())):
        obj = gs
        for attr in chain:
            if not hasattr(obj, attr):
                missing.append("gs." + ".".join(chain))
                break
            obj = getattr(obj, attr)
    assert missing == []


def test_the_default_config_has_a_phase1_geometry():
    assert gs.make_default_config().phase1.geometry.slope_threshold_deg == 30.0


def test_segment_takes_one_expansion_log_per_phase():
    params = inspect.signature(gs.pipeline.segment).parameters
    assert {"log1", "log2"} <= set(params)


LAYERTRACE = ast.parse((BENCH / "layertrace.py").read_text())


def test_the_tracer_reads_only_phase_stats_fields():
    # layer_metrics reads each scan's phases as p1 and p2
    read = {
        node.attr
        for node in ast.walk(LAYERTRACE)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("p1", "p2")
    }
    assert read
    assert read <= {f.name for f in dataclasses.fields(gs.pipeline.PhaseStats)}


def test_the_tracer_maps_every_route_reason_in_order():
    (table,) = [
        node.value
        for node in LAYERTRACE.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["ROUTE_REASONS"]
    ]
    assert list(ast.literal_eval(table)) == list(gs.region_expansion.REASONS)
