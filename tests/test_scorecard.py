"""Adverse-scene scorecard: one row per named synthetic scene, with
precision, recall and F1 floors 0.002 under the values the segmenter reads
on it (ROADMAP item 11).  No row bounds time.

A row that fails by design is ``xfail(strict=True)`` with the ROADMAP item
that mends it as the reason; the change that mends it flips the row.  The
noisy-ground rows live in ``test_pipeline.py``
(``test_noisy_ground_keeps_precision_and_a_recall_floor``).
"""

import dataclasses

import numpy as np
import pytest

import gridseg as gs
from gridseg import make_default_config, segment

B5_CENTRES = ((6, 4), (-8, 7), (10, -9), (-5, -12), (14, 12))
B5 = tuple(gs.BoxSpec(cx, cy, 2, 2, 1.5) for cx, cy in B5_CENTRES)
LOW_BOX_CENTRES = B5_CENTRES + ((4, -6), (-12, -3))


def _low_boxes(height):
    return tuple(gs.BoxSpec(cx, cy, 2, 2, height) for cx, cy in LOW_BOX_CENTRES)


def _depth(z):
    return gs.SceneSpec(extent=40, n_ground=20000, ground_z=z, seed=5)


def _slope(deg):
    return gs.SceneSpec(extent=40, n_ground=20000, slope_deg=deg, seed=5, boxes=B5)


def _low_box(height):
    return gs.SceneSpec(extent=40, n_ground=60000, seed=7, boxes=_low_boxes(height))


def _slab(top):
    """The B5 scene with its ground ``top`` m under the Phase-I slab top at
    z = -1.5 m, and the sensor mounted that far above the ground."""
    spec = gs.SceneSpec(extent=40, n_ground=20000, seed=5, boxes=B5, ground_z=-1.5 - top)
    return spec, dataclasses.replace(make_default_config(), dist_to_ground=1.5 + top)


ITEM_2 = pytest.mark.xfail(strict=True, reason="ROADMAP item 2")

# scene, precision floor, recall floor, F1 floor
ROWS = [
    pytest.param(_depth(-1.5), 0.998, 0.9905, 0.9943, id="depth-1.5"),
    pytest.param(_depth(-1.723), 0.998, 0.9977, 0.9978, id="depth-1.723"),
    # the synthetic seed lies distToGround (1.723 m) under the sensor, off
    # the ground at these depths, and no point ends as ground; the floors
    # are those of depth -1.5
    *[
        pytest.param(_depth(z), 0.998, 0.9905, 0.9943, marks=ITEM_2, id=f"depth{z}")
        for z in (-1.0, -2.0, -2.2, -2.5)
    ],
    pytest.param(_slope(0), 0.9867, 0.9975, 0.9921, id="slope-0"),
    pytest.param(_slope(4), 0.9976, 0.9597, 0.9783, id="slope-4"),
    pytest.param(_slope(8), 0.9977, 0.9309, 0.9632, id="slope-8"),
    pytest.param(_slope(12), 0.9944, 0.9283, 0.9603, id="slope-12"),
    pytest.param(_low_box(0.1), 0.9762, 0.9979, 0.9870, id="low-box-0.1"),
    pytest.param(_low_box(0.3), 0.9717, 0.9979, 0.9847, id="low-box-0.3"),
    pytest.param(_low_box(1.0), 0.9922, 0.9979, 0.9951, id="low-box-1.0"),
]

# ground offset under the Phase-I slab top, precision, recall and F1 floors
# (ROADMAP item 9: the spread between offsets is the defect to shrink)
SLAB_ROWS = [
    pytest.param(0.05, 0.9948, 0.9854, 0.9901, id="slab-0.05"),
    pytest.param(0.25, 0.9853, 0.9917, 0.9885, id="slab-0.25"),
    pytest.param(0.45, 0.9881, 0.9853, 0.9867, id="slab-0.45"),
    *[
        pytest.param(top, 0.998, 0.9739, 0.9858, id=f"slab-{top}")
        for top in (0.65, 0.85, 1.05, 1.25, 1.45)
    ],
]


def precision_recall(mask, truth):
    """Precision and recall of a ground mask; precision is 0 when no point
    is predicted ground."""
    tp = np.count_nonzero(mask & truth)
    predicted = np.count_nonzero(mask)
    return (tp / predicted if predicted else 0.0), tp / np.count_nonzero(truth)


def f1_score(p, r):
    return 2 * p * r / (p + r) if p + r else 0.0


def _check_floors(spec, cfg, p_floor, r_floor, f1_floor):
    scene = gs.make_scene(spec)
    mask = segment(gs.scene_cloud(scene), cfg).mask
    p, r = precision_recall(mask, scene.labels == gs.synth.GROUND_LABEL)
    assert p >= p_floor, f"precision {p:.4f} < {p_floor}"
    assert r >= r_floor, f"recall {r:.4f} < {r_floor}"
    assert f1_score(p, r) >= f1_floor, f"F1 {f1_score(p, r):.4f} < {f1_floor}"


@pytest.mark.parametrize("spec, p_floor, r_floor, f1_floor", ROWS)
def test_scene_keeps_its_floors(spec, p_floor, r_floor, f1_floor):
    _check_floors(spec, None, p_floor, r_floor, f1_floor)


@pytest.mark.parametrize("top, p_floor, r_floor, f1_floor", SLAB_ROWS)
def test_slab_offset_keeps_its_floors(top, p_floor, r_floor, f1_floor):
    _check_floors(*_slab(top), p_floor, r_floor, f1_floor)


def test_precision_is_zero_when_nothing_is_ground():
    truth = np.array([True, False])
    assert precision_recall(np.zeros(2, bool), truth) == (0.0, 0.0)
    assert precision_recall(np.array([True, True]), truth) == (0.5, 1.0)
    assert f1_score(0.0, 0.0) == 0.0 and f1_score(0.5, 1.0) == pytest.approx(2 / 3)
