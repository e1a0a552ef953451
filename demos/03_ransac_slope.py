# Plane fitting inside a cell (the eigenplane, the least-squares plane of
# all its points): inlier/outlier split and slope recovery.  The clutter
# pulls the eigenplane, so the fitted slope reads a little above the true one.

import math

import numpy as np

from gridseg import ransac_plane

rng = np.random.default_rng(2)

# A gentle 5% grade with uniform noise, plus a clump of elevated clutter.
x = rng.uniform(-2, 2, 300)
y = rng.uniform(-2, 2, 300)
z = 0.05 * x + rng.uniform(-0.01, 0.01, 300)
ground = np.column_stack([x, y, z])
clutter = np.column_stack([rng.uniform(-0.5, 0.5, (30, 2)), rng.uniform(0.5, 1.0, 30)])
pts = np.vstack([ground, clutter])

plane, inliers, outliers = ransac_plane(pts, inlier_threshold=0.125)
print(f"fitted normal: {np.round(plane.normal, 4)}")
print(f"slope: {plane.slope_deg:.3f} deg (true {math.degrees(math.atan(0.05)):.3f})")
print(f"inliers: {len(inliers)}, outliers: {len(outliers)} (clutter points: 30)")

# The same input gives bit-identical results: cells can be fitted in any
# order without changing the segmentation.
again, inliers2, _ = ransac_plane(pts, 0.125)
print("deterministic rerun identical:", np.array_equal(inliers, inliers2))

# The inlier threshold is the knob between tight and permissive fits.
for tau in (0.05, 0.125, 0.5):
    _, inl, out = ransac_plane(pts, tau)
    print(f"threshold {tau:5.3f} -> {len(inl)} inliers / {len(out)} outliers")
