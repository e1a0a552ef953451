"""Steady state of the heap across scans.

``segment`` keeps freed temporaries in the heap for the next scan (see
``pipeline._keep_heap``).  Without that, glibc maps a scan's larger arrays
afresh and returns the heap's free top to the system, so every call
page-faults its arrays in again: about 800-2,600 minor faults per call on
the scans below.  The check runs in a fresh interpreter, so the allocation
history of the test session does not decide the outcome.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# two scans of different sizes, so the arrays of one do not fit the
# mappings of the other; warm-up passes, then one fault count per call
SCRIPT = """
import resource, statistics
import gridseg as gs

boxes = tuple(
    gs.BoxSpec(cx, cy, 2.0, 1.5, 1.5)
    for cx, cy in ((10, 5), (-12, 8), (15, -10), (-8, -14), (20, 18), (-25, 3))
)
clouds = [
    gs.scene_cloud(gs.make_scene(gs.SceneSpec(60.0, n, boxes=boxes, seed=seed)))
    for n, seed in ((100_000, 1), (130_000, 2))
]
cfg = gs.make_default_config()


def faults(cloud):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    gs.segment(cloud, cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


for _ in range(3):
    for cloud in clouds:
        faults(cloud)
print(statistics.median(faults(cloud) for _ in range(4) for cloud in clouds))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap thresholds are glibc's",
)
def test_segment_calls_do_not_fault_their_arrays_in_again():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert float(done.stdout) < 100
