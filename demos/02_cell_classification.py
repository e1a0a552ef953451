# Eigen classification of cells: line vs planar vs non-planar scatter,
# and the slope gates that turn geometry into tentative-ground decisions.
# Every step is one array call over all cells, as in the pipeline.

import numpy as np

from gridseg import CellKind, GeometryParams, GroundState
from gridseg.cell_geometry import (
    eigen_kinds,
    line_tentative,
    make_planes,
    plane_tentative,
    segment_covariance,
    sorted_eigen,
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

# The three point sets back to back, one cell each.
cells = {"scan line": line_pts, "road patch": plane_pts, "bush": blob_pts}
counts = [len(pts) for pts in cells.values()]
eigenvalues, _ = sorted_eigen(segment_covariance(np.vstack(list(cells.values())), counts))
kinds = eigen_kinds(eigenvalues, params)
ratios = eigenvalues[:, 0] / eigenvalues.sum(axis=1)
for name, lams, ratio, kind in zip(cells, eigenvalues, ratios, kinds):
    print(
        f"{name:10s} eigenvalues={np.round(lams, 4)} ratio={ratio:.3f}"
        f" -> {CellKind(kind).name.lower()}"
    )

# Line cells are gated by the angle of their direction to the vertical:
# a horizontal line is a ground candidate, a pole is an obstacle.
tentative = line_tentative(np.array([[1.0, 0, 0], [0.0, 0, 1.0]]), 30.0)
states = np.where(tentative, GroundState.TENTATIVE, GroundState.OBSTACLE)
print("\nhorizontal line ->", GroundState(states[0]).name.lower())
print("vertical pole   ->", GroundState(states[1]).name.lower())

# Planar cells are gated by the slope of their fitted plane (inclusive bound).
_, _, slopes = make_planes([[0, 0, 1.0], [1.0, 0, 1.0], [1.0, 0, 0.2]], np.zeros(3))
states = np.where(plane_tentative(slopes, 30.0), GroundState.TENTATIVE, GroundState.NON_GROUND)
for slope, state in zip(slopes, states):
    print(f"plane slope {slope:5.1f} deg -> {GroundState(state).name.lower()}")
