# Ground region expansion: seed injection, the cells radius links connect to
# the seed, and the per-cell routes log.

from collections import Counter

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
    ground_mask,
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
ground = expand(grid, index, seed, geometry, ExpansionParams(search_radius=5.0), phase=1)
log.record(grid)
print(f"expansion reached {len(log.routes)} of {len(tentative)} tentative cells")
# expand returns the ground count; ground_mask flags the points themselves
assert ground == ground_mask(grid, len(pts)).sum()
print(f"ground points: {ground} of {len(pts)}")

# The routes log holds one route and reason per reached cell.
print("\nroutes per reason:")
for (route, reason), count in sorted(Counter((r, why) for _, r, why in log.routes).items()):
    print(f"  {count:4d}  {route:10s}  {reason}")
print("\nroutes log head:")
for line in log.to_text().splitlines()[:4]:
    print(" ", line)
