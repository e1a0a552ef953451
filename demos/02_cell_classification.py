# Eigen classification of cells: line vs planar vs non-planar scatter,
# and the slope gates that turn geometry into tentative-ground decisions.

import numpy as np

from gridseg import (
    GeometryParams,
    classify_line_cell,
    classify_planar_cell,
    covariance,
    eigen_classify,
    make_plane,
)

params = GeometryParams()
rng = np.random.default_rng(1)

# A scan line on the ground: one dominant axis, tiny cross-section.
t = rng.uniform(0, 1.4, 80)
line_pts = np.column_stack([t, 0.02 * rng.normal(size=80), 0.02 * rng.normal(size=80)])

# A road patch: two dominant axes, tiny thickness.
plane_pts = np.column_stack(
    [rng.uniform(0, 1.5, 200), rng.uniform(0, 1.0, 200), 0.02 * rng.normal(size=200)]
)

# A bush: scatter in all directions.
blob_pts = 0.4 * rng.normal(size=(200, 3))

for name, pts in (("scan line", line_pts), ("road patch", plane_pts), ("bush", blob_pts)):
    summary, kind = eigen_classify(covariance(pts), params)
    lams = np.round(summary.eigenvalues, 4)
    print(f"{name:10s} eigenvalues={lams} ratio={summary.ratio:.3f} -> {kind.name.lower()}")

# Line cells are gated by the angle of their direction to the vertical:
# a horizontal line is a ground candidate, a pole is an obstacle.
print("\nhorizontal line ->", classify_line_cell(np.array([1.0, 0, 0]), 30.0).name.lower())
print("vertical pole   ->", classify_line_cell(np.array([0.0, 0, 1.0]), 30.0).name.lower())

# Planar cells are gated by the slope of their fitted plane (inclusive bound).
for normal in ([0, 0, 1.0], [1.0, 0, 1.0], [1.0, 0, 0.2]):
    plane = make_plane(np.array(normal, dtype=float), 0.0)
    state = classify_planar_cell(plane, 30.0)
    print(f"plane slope {plane.slope_deg:5.1f} deg -> {state.name.lower()}")
