# Ground region expansion: seed injection, radius neighbor admission, and
# the per-cell refinement trace.

import numpy as np

from gridseg import (
    CellSize,
    ExpansionLog,
    ExpansionParams,
    GeometryParams,
    GroundState,
    PointCloud,
    build_centroid_index,
    build_grid,
    expand,
    inject_synthetic_seed,
    select_seed,
)
from gridseg.pipeline import classify_cells

rng = np.random.default_rng(3)

# A flat patch with a gap: radius-based expansion bridges gaps that grid
# adjacency cannot (think of the space between LiDAR scan rings).
left = np.column_stack([rng.uniform(-8, -2, (1500, 2)), -1.723 + 0.01 * rng.normal(size=1500)])
right = left + [10.0, 0.0, 0.0]
cloud = PointCloud(points=np.vstack([left, right]))

seeded, info = inject_synthetic_seed(cloud, radius=2.7, depth=1.723, spacing=0.3)
pts = seeded.points
print(f"injected {info.count} synthetic seed points at z = -{info.depth}")

grid = build_grid(pts, CellSize(1.5, 1.0, 1.5))
geometry = GeometryParams()
classify_cells(grid, geometry)
tentative = np.flatnonzero(grid.state == GroundState.TENTATIVE)
print(f"{len(grid.cells)} cells, {len(tentative)} tentative ground")

index = build_centroid_index(grid, tentative)
seed = select_seed(grid, info)
print("seed cell (directly under the robot):", seed)

log = ExpansionLog()
ground = expand(grid, index, seed, geometry, ExpansionParams(search_radius=5.0), phase=1, log=log)
print(f"expansion took {len(log.edges)} admission edges, {len(log.routes)} cell routings")
print(f"ground points: {len(ground)} of {len(pts)}")

# The first few lines of the debug trace show admissions and routing reasons.
print("\ntrace head:")
for line in log.to_text().splitlines()[:6]:
    print(" ", line)
