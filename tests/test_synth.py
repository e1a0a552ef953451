import hashlib
import json
import math

import numpy as np
import pytest

import gridseg as gs
from gridseg.errors import ConfigError
from gridseg.synth import GROUND_LABEL, OBSTACLE_LABEL


def test_flat_scene_all_ground_labels():
    scene = gs.make_scene(gs.SceneSpec(extent=10.0, n_ground=500, noise_sigma=0.0, seed=0))
    assert (scene.labels == GROUND_LABEL).all()
    assert np.allclose(scene.points[:, 2], -1.723)


def test_deterministic_under_seed(tmp_path):
    spec = gs.SceneSpec(extent=12.0, n_ground=800, boxes=(gs.BoxSpec(2, 2, 1, 1, 1),), seed=5)
    a = gs.make_scene(spec)
    b = gs.make_scene(spec)
    np.testing.assert_array_equal(a.points, b.points)
    p1, l1 = gs.write_scene(tmp_path / "a", a, "000000")
    p2, l2 = gs.write_scene(tmp_path / "b", b, "000000")
    assert p1.read_bytes() == p2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def test_sloped_scene_geometry():
    scene = gs.make_scene(
        gs.SceneSpec(extent=10.0, n_ground=2000, slope_deg=45.0, noise_sigma=0.0, seed=1)
    )
    x = scene.points[:, 0]
    z = scene.points[:, 2]
    np.testing.assert_allclose(z, -1.723 + x, atol=1e-9)


def test_box_sampling_and_labels():
    box = gs.BoxSpec(3.0, 0.0, 1.0, 1.0, 2.0)
    scene = gs.make_scene(
        gs.SceneSpec(extent=12.0, n_ground=1000, boxes=(box,), noise_sigma=0.0, seed=2)
    )
    box_pts = scene.points[scene.part == 0]
    assert len(box_pts) > 0
    assert (scene.labels[scene.part == 0] == OBSTACLE_LABEL).all()
    # box points live inside the box's bounding volume
    assert np.all(np.abs(box_pts[:, 0] - 3.0) <= 0.5 + 1e-9)
    assert np.all(np.abs(box_pts[:, 1]) <= 0.5 + 1e-9)
    assert box_pts[:, 2].max() <= -1.723 + 2.0 + 1e-9
    # grounded box: no points sampled on the bottom face interior
    assert box_pts[:, 2].min() >= -1.723 - 1e-9


def test_elevated_box_has_underside():
    slab = gs.BoxSpec(3.0, 0.0, 2.0, 2.0, 0.2, base=2.0)
    scene = gs.make_scene(
        gs.SceneSpec(extent=12.0, n_ground=500, boxes=(slab,), noise_sigma=0.0, seed=3)
    )
    slab_pts = scene.points[scene.part == 0]
    assert slab_pts[:, 2].min() >= -1.723 + 2.0 - 1e-9
    underside = np.isclose(slab_pts[:, 2], -1.723 + 2.0)
    assert underside.any()


def test_ground_avoids_box_footprints():
    box = gs.BoxSpec(0.0, 0.0, 4.0, 4.0, 1.0)
    scene = gs.make_scene(
        gs.SceneSpec(extent=12.0, n_ground=2000, boxes=(box,), noise_sigma=0.0, seed=4)
    )
    ground = scene.points[scene.part == -1]
    inside = (np.abs(ground[:, 0]) <= 2.0) & (np.abs(ground[:, 1]) <= 2.0)
    assert not inside.any()


def test_manifest(tmp_path):
    spec = gs.SceneSpec(extent=8.0, n_ground=100, seed=9)
    gs.write_scene(tmp_path, gs.make_scene(spec), "000000")
    path = gs.synth.write_manifest(tmp_path, [spec])
    payload = json.loads(path.read_text())
    assert payload[0]["extent"] == 8.0
    assert payload[0]["seed"] == 9


BOX = {"cx": 3.0, "cy": 3.0, "sx": 2.0, "sy": 1.0, "sz": 1.0, "base": 0.0}


@pytest.mark.parametrize(
    "field, value",
    [
        ("extent", 0.0),
        ("extent", -3.0),
        ("extent", math.inf),
        ("extent", math.nan),
        ("n_ground", -1),
        ("noise_sigma", -0.01),
        ("noise_sigma", math.nan),
        ("box_density", -1.0),
        ("ground_z", math.nan),
        ("ground_z", -math.inf),
        ("slope_deg", math.nan),
        ("slope_deg", 90.0),
        ("slope_deg", -90.0),
        ("slope_deg", math.inf),
        ("sx", -2.0),
        ("sy", 0.0),
        ("sz", -1.0),
        ("sz", math.nan),
        ("cx", math.inf),
        ("cy", math.nan),
        ("base", math.nan),
    ],
)
def test_scene_spec_rejects_bad_values(field, value):
    # box fields go to a box of the scene, the others to the scene
    with pytest.raises(ConfigError, match=field):
        if field in BOX:
            gs.BoxSpec(**{**BOX, field: value})
        else:
            gs.SceneSpec(**{field: value})


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.5, True, "3", None])
def test_scene_spec_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        gs.SceneSpec(seed=seed)


@pytest.mark.parametrize("seed", [0, 2**40, np.int64(7)])
def test_scene_spec_accepts_non_negative_integer_seeds(seed):
    assert gs.SceneSpec(seed=seed).seed == seed


def test_scene_spec_accepts_empty_and_noiseless_scenes():
    scene = gs.make_scene(gs.SceneSpec(n_ground=0, noise_sigma=0.0, box_density=0.0))
    assert scene.points.shape == (0, 3)


# sha256 of the points' and labels' bytes; any change of generated scenes
# shows here.  The first spec samples a sloped, noisy ground, a grounded box
# (top and all four side faces) and an elevated slab (its underside too);
# the second a noiseless scene.
@pytest.mark.parametrize(
    "spec, digest",
    [
        (
            gs.SceneSpec(
                extent=12.0,
                n_ground=600,
                slope_deg=6.0,
                noise_sigma=0.03,
                boxes=(
                    gs.BoxSpec(2.0, 1.0, 1.0, 1.5, 1.2),
                    gs.BoxSpec(-3.0, -2.0, 2.0, 1.0, 0.3, base=1.5),
                ),
                seed=41,
            ),
            "aab28a09b46895cb26ca323c2c823d77df39099a96c4f28ad9bf6bd4f30f49f7",
        ),
        (
            gs.SceneSpec(
                extent=10.0,
                n_ground=200,
                noise_sigma=0.0,
                boxes=(gs.BoxSpec(0.0, 3.0, 0.5, 2.0, 2.0),),
                seed=7,
            ),
            "4f96a80bd3ff2a3883adf42f3e35eb3037d4d758b8bfb56c9b562c8a522cd933",
        ),
    ],
    ids=["slope-noise-slab", "noiseless"],
)
def test_scenes_match_pinned_digests(spec, digest):
    scene = gs.make_scene(spec)
    assert hashlib.sha256(scene.points.tobytes() + scene.labels.tobytes()).hexdigest() == digest
